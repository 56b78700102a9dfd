//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `groth16-bn254` — closed loop, one client, Groth16 over BN254;
//! * `plonk-bls12-381` — closed loop, one client, PLONK over BLS12-381;
//! * `service-mixed` — open loop into a `ProvingService`, eight keys over
//!   both systems and both curves;
//! * `cluster-failover` — open loop into a two-host `Cluster` with one
//!   host killed half way through the schedule.
//!
//! With `--trace 0` the run reports the end-to-end metrics, with
//! `--trace 1` the per-layer ones. Every metric has one unit; the unit
//! names its clock: `sim_…` units are simulated device time, `cpu_…`
//! units host CPU time charged to the process, `count`, `bytes`, `ratio`
//! and `MiB` are counts, everything else is host wall time. A table with
//! an explicit clock column precedes the JSON result, which is the last
//! line of standard output. Traced runs also write
//! their spans to `target/perfbench/trace-<workload>-seed<n>.jsonl`.

mod closed;
mod host;
mod open;
mod report;
mod stats;
mod systems;
mod trace;

use gzkp_curves::bls12_381::Bls12_381;
use gzkp_curves::bn254::Bn254;
use gzkp_groth16::Groth16System;
use gzkp_plonk::PlonkSystem;
use open::{Kind, OpenSpec};
use report::RunResult;

/// End-to-end metrics every workload reports with `--trace 0`.
/// `cpu_ms_per_proof` is the CPU time charged to the process over the
/// timed window (all threads; time the hypervisor stole is not charged)
/// divided by the proofs returned. Wall-clock latency is a per-layer
/// metric: on a shared virtual machine it moves with the stolen share.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_ms_per_proof", "cpu_ms"),
    ("sim_prove_ms", "sim_ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with `--trace 1` (0 where a
/// workload does not exercise the layer). `latency_ms.class_p50` is the
/// median wall-clock latency of each request class, averaged over the
/// classes ([`stats::class_median`]): the plain median in the closed
/// loops, which have one class.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_ms.class_p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("verify_ms.p50", "ms"),
    ("groth16.setup_s", "s"),
    ("groth16.warmup_ms", "ms"),
    ("groth16.prove_ms", "ms"),
    ("groth16.poly_ms", "ms"),
    ("groth16.msm_ms", "ms"),
    ("groth16.self_ms", "ms"),
    ("groth16.decode_us", "us"),
    ("plonk.setup_s", "s"),
    ("plonk.warmup_ms", "ms"),
    ("plonk.prove_ms", "ms"),
    ("plonk.poly_ms", "ms"),
    ("plonk.msm_ms", "ms"),
    ("plonk.self_ms", "ms"),
    ("plonk.decode_us", "us"),
    ("ntt.calls", "count"),
    ("ntt.elems", "count"),
    ("ntt.busy_ms", "ms"),
    ("ntt.covered_ms", "ms"),
    ("ntt.sim_ms", "sim_ms"),
    ("msm.g1.calls", "count"),
    ("msm.g1.points", "count"),
    ("msm.g1.busy_ms", "ms"),
    ("msm.g1.sim_ms", "sim_ms"),
    ("msm.g2.calls", "count"),
    ("msm.g2.points", "count"),
    ("msm.g2.busy_ms", "ms"),
    ("msm.g2.sim_ms", "sim_ms"),
    ("msm.covered_ms", "ms"),
    ("msm.overlap", "ratio"),
    ("msm.batch_padds", "count"),
    ("msm.batch_inversions", "count"),
    ("msm.inversion_ratio", "ratio"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.evictions", "count"),
    ("store.bytes", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("sim.poly_ms", "sim_ms"),
    ("sim.msm_ms", "sim_ms"),
    ("service.submit_us.p50", "us"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p90", "ms"),
    ("service.exec_ms.p50", "ms"),
    ("service.latency_ms", "ms"),
    ("service.queue_wait_ms.mean", "ms"),
    ("service.exec_ms.mean", "ms"),
    ("service.self_ms", "ms"),
    ("service.retries", "count"),
    ("service.rejected", "count"),
    ("service.deadline_missed", "count"),
    ("cluster.submit_us.p50", "us"),
    ("cluster.pump_busy_ms", "ms"),
    ("cluster.resumes", "count"),
    ("cluster.leaked_claims", "count"),
    ("cluster.resumed_latency_ms.p50", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.decode_us", "us"),
    ("runtime.sim_makespan_ms", "sim_ms"),
    ("runtime.sim_busy_share", "ratio"),
    ("bench.steal_share", "ratio"),
    ("bench.gen_lag_ms.p90", "ms"),
    ("bench.residual_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Constraint count of the Groth16 closed loop.
const GROTH16_CONSTRAINTS: usize = 1 << 10;
/// Constraint count of the PLONK closed loop.
const PLONK_CONSTRAINTS: usize = 1 << 9;

/// `service-mixed`: eight keys over both systems and both curves.
const SERVICE: OpenSpec = OpenSpec {
    classes: &[
        (Kind::Groth16Bn254, 1 << 7),
        (Kind::Groth16Bn254, 1 << 8),
        (Kind::Groth16Bn254, 1 << 9),
        (Kind::Groth16Bls, 1 << 7),
        (Kind::Groth16Bls, 1 << 8),
        (Kind::PlonkBn254, 1 << 7),
        (Kind::PlonkBn254, 1 << 8),
        (Kind::PlonkBls, 1 << 7),
    ],
    // About 45% of the ~7 proofs/s the service sustains on 2 cores: at
    // 60% queueing amplified host-speed drift into a 0.27 run-to-run
    // spread of the latency.
    rate: 3.0,
    setup_reps: 2,
};

/// `cluster-failover`: Groth16 and PLONK on BN254.
const CLUSTER: OpenSpec = OpenSpec {
    classes: &[(Kind::Groth16Bn254, 1 << 8), (Kind::PlonkBn254, 1 << 7)],
    // About 45% of what the one host left after the kill sustains.
    rate: 3.0,
    setup_reps: 3,
};

/// Workload names, in the order of `BENCHMARK.json`.
pub const WORKLOADS: &[&str] = &[
    "groth16-bn254",
    "plonk-bls12-381",
    "service-mixed",
    "cluster-failover",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Writes the traced run's spans under `target/perfbench/`.
pub fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!(
        "target/perfbench/trace-{workload}-seed{seed}.jsonl"
    ));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn run(args: &Args) -> RunResult {
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "groth16-bn254" => {
            closed::run::<Groth16System<Bn254>>(GROTH16_CONSTRAINTS, seed, secs, traced)
        }
        "plonk-bls12-381" => {
            closed::run::<PlonkSystem<Bls12_381>>(PLONK_CONSTRAINTS, seed, secs, traced)
        }
        "service-mixed" => open::run_service(&SERVICE, seed, secs, traced),
        "cluster-failover" => open::run_cluster(&CLUSTER, seed, secs, traced),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut result = run(&args);
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace && result.metrics.get("peak_rss_mb").is_none() {
        result
            .metrics
            .put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    }
    // Report exactly the wanted set, in its order; layers a workload does
    // not exercise read 0.
    let mut ordered = report::Metrics::default();
    for &(name, unit) in wanted {
        ordered.put(name, result.metrics.get(name).unwrap_or(0.0), unit);
    }
    result.metrics = ordered;
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print!("{}", result.table());
    println!("{}", result.json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::valid_metric_name;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_metric_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
    }
}
