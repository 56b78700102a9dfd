//! What the host's kernel reports about this process: CPU time, the share
//! of the machine's time the hypervisor stole, and peak memory.
//!
//! On a shared virtual machine the hypervisor takes the CPUs away for
//! stretches of seconds to minutes; wall-clock times then swing by tens of
//! percent from run to run. The kernel leaves that stolen time out of the
//! CPU time it charges a process, so CPU time per proof measures the
//! prover's work steadily where wall time cannot.

/// Kernel clock ticks per second in `/proc` (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time and machine-wide CPU time at one instant.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    /// User plus system time of this process, all threads, in ticks.
    process: f64,
    /// Time stolen by the hypervisor, all CPUs, in ticks.
    steal: f64,
    /// Every CPU state together, all CPUs, in ticks.
    total: f64,
}

impl CpuSample {
    /// Reads `/proc/self/stat` and `/proc/stat` (zeros if unreadable).
    pub fn now() -> Self {
        let process = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                // Fields after the parenthesised command name; utime and
                // stime are the 14th and 15th fields of the line.
                let rest = &s[s.rfind(')')? + 1..];
                let f: Vec<f64> = rest
                    .split_whitespace()
                    .skip(11)
                    .take(2)
                    .map(|v| v.parse().ok())
                    .collect::<Option<_>>()?;
                Some(f.iter().sum())
            })
            .unwrap_or(0.0);
        let cpu: Vec<f64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                s.lines().next().map(|l| {
                    l.split_whitespace()
                        .skip(1)
                        .filter_map(|v| v.parse().ok())
                        .collect()
                })
            })
            .unwrap_or_default();
        Self {
            process,
            steal: cpu.get(7).copied().unwrap_or(0.0),
            total: cpu.iter().sum(),
        }
    }

    /// CPU milliseconds this process used since `earlier`.
    pub fn cpu_ms_since(&self, earlier: &Self) -> f64 {
        (self.process - earlier.process) * 1e3 / TICKS_PER_S
    }

    /// Share of the machine's CPU time stolen since `earlier`.
    pub fn steal_share_since(&self, earlier: &Self) -> f64 {
        let total = self.total - earlier.total;
        if total > 0.0 {
            (self.steal - earlier.steal) / total
        } else {
            0.0
        }
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::CpuSample;

    #[test]
    fn busy_work_is_charged_as_cpu_time() {
        let t0 = CpuSample::now();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 150 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let t1 = CpuSample::now();
        let ms = t1.cpu_ms_since(&t0);
        assert!(ms >= 50.0, "150 ms of spinning charged {ms} ms");
        let steal = t1.steal_share_since(&t0);
        assert!((0.0..=1.0).contains(&steal), "{steal}");
    }
}
