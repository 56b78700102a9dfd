//! Closed-loop workloads: one client proving back to back with a single
//! proving key through the [`ProofSystem`] stages.
//!
//! The untraced run measures the prover's CPU time per proof with plain
//! engines. The traced run alternates traced and untraced
//! proofs: traced ones go through [`TimedNtt`]/[`TimedMsm`] and record a
//! `prove → {poly, msm} → {ntt, msm.g1, msm.g2}` span tree from which the
//! per-layer ledger is computed; the untraced ones give the tracing
//! overhead.

use crate::host::CpuSample;
use crate::report::{Metrics, RunResult};
use crate::stats::{mean, median, percentile, quartiles, sim_drift, union_len};
use crate::systems::{mix, Backend, StockEngines, STORE_BYTES};
use crate::trace::{Scope, Span, TimedMsm, TimedNtt, Tracer};
use gzkp_msm::PreprocessStore;
use gzkp_proof_system::Engines;
use gzkp_telemetry::NoopSink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Proofs always made, however short the window: the simulated-clock
/// metric is read from exactly this many, so it repeats for a seed.
const SIM_PROOFS: usize = 5;

/// Times key setup is repeated; `setup_s` reports the median.
pub const SETUP_REPS: usize = 3;

/// One key, ready to prove: circuit, keys and warm engines.
struct Keyed<S: Backend> {
    circuit: S::Circuit,
    pk: S::ProvingKey,
    vk: S::VerifyingKey,
    store: Arc<PreprocessStore>,
    engines: StockEngines,
}

/// Set-up timings of one repetition, in seconds.
struct SetupTimes {
    total: f64,
    keygen: f64,
    warmup: f64,
}

/// Synthesizes the circuit, generates the key and runs the cold first
/// proof that fills the preprocessing tables.
fn set_up<S: Backend>(constraints: usize, seed: u64) -> (Keyed<S>, SetupTimes) {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let circuit = S::synthesize(constraints, &mut rng);
    let t_key = Instant::now();
    let (pk, vk) = S::keygen(&circuit, &mut rng);
    let keygen = t_key.elapsed().as_secs_f64();
    let store = Arc::new(PreprocessStore::new(STORE_BYTES));
    let engines = StockEngines::new::<S>(store.clone());
    let t_warm = Instant::now();
    let (bytes, _) = engines.prove::<S>(&circuit, &pk, mix(seed, u64::MAX));
    std::hint::black_box(bytes);
    let warmup = t_warm.elapsed().as_secs_f64();
    let times = SetupTimes {
        total: t0.elapsed().as_secs_f64(),
        keygen,
        warmup,
    };
    let keyed = Keyed {
        circuit,
        pk,
        vk,
        store,
        engines,
    };
    (keyed, times)
}

/// One timed proof.
struct Proved {
    seed: u64,
    ms: f64,
    sim_ms: f64,
    bytes: Vec<u8>,
}

/// Proves with `engines` and times the two stage calls together.
fn prove_timed<S: Backend>(key: &Keyed<S>, engines: &Engines<'_, S::Pairing>, seed: u64) -> Proved {
    let t0 = Instant::now();
    let poly = S::prove_poly(&key.circuit, &key.pk, engines.ntt, &NoopSink).expect("poly stage");
    let (bytes, report) = S::prove_msm(&key.pk, engines, poly, seed, &NoopSink).expect("msm stage");
    Proved {
        seed,
        ms: t0.elapsed().as_secs_f64() * 1e3,
        sim_ms: report.total_ms(),
        bytes,
    }
}

fn plain<S: Backend>(key: &Keyed<S>) -> Engines<'_, S::Pairing> {
    Engines {
        ntt: &key.engines.ntt,
        msm_g1: &key.engines.msm,
        msm_g2: &key.engines.msm,
    }
}

/// Output checks after the window: every proof verifies, and the first
/// proof repeats byte for byte with the same simulated time. A helper
/// thread verifies the odd-numbered proofs while this one verifies and
/// times the even-numbered ones. Returns (verify times in ms, proofs that
/// failed a check).
fn check<S: Backend>(key: &Keyed<S>, proofs: &[Proved]) -> (Vec<f64>, u64) {
    let (vk, circuit) = (&key.vk, &key.circuit);
    let (verify_ms, mut bad) = std::thread::scope(|scope| {
        let helper = scope.spawn(|| {
            proofs
                .iter()
                .skip(1)
                .step_by(2)
                .filter(|p| !S::verify_bytes(vk, circuit, &p.bytes))
                .count() as u64
        });
        let mut verify_ms = Vec::with_capacity(proofs.len().div_ceil(2));
        let mut bad = 0;
        for p in proofs.iter().step_by(2) {
            let t0 = Instant::now();
            let ok = S::verify_bytes(vk, circuit, &p.bytes);
            verify_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if !ok {
                bad += 1;
            }
        }
        (verify_ms, bad + helper.join().expect("verify helper"))
    });
    if let Some(first) = proofs.first() {
        let again = prove_timed(key, &plain(key), first.seed);
        let sim = |p: &Proved| vec![("sim_prove_ms".to_string(), p.sim_ms, "sim_ms")];
        if again.bytes != first.bytes || !sim_drift(&sim(first), &sim(&again)).is_empty() {
            bad += 1;
        }
    }
    (verify_ms, bad)
}

/// Runs a closed-loop workload of backend `S` at `constraints`.
pub fn run<S: Backend>(constraints: usize, seed: u64, seconds: u64, traced: bool) -> RunResult {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut key = None;
    for _ in 0..SETUP_REPS {
        // Every repetition builds the same key from the same seed; the
        // last one is kept for the timed window.
        drop(key.take());
        let (k, times) = set_up::<S>(constraints, seed);
        setups.push(times);
        key = Some(k);
    }
    let key = key.expect("at least one set-up repetition");
    let mut m = Metrics::default();
    let window = Duration::from_secs(seconds);

    if !traced {
        let engines = plain(&key);
        let mut proofs = Vec::new();
        let cpu0 = CpuSample::now();
        let start = Instant::now();
        while start.elapsed() < window || proofs.len() < SIM_PROOFS {
            let i = proofs.len() as u64;
            proofs.push(prove_timed(&key, &engines, mix(seed, i)));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let cpu_ms = CpuSample::now().cpu_ms_since(&cpu0);
        let (_, bad) = check(&key, &proofs);
        let lat: Vec<f64> = proofs.iter().map(|p| p.ms).collect();
        let sims: Vec<f64> = proofs[..SIM_PROOFS].iter().map(|p| p.sim_ms).collect();
        let (q1, q3) = quartiles(&lat).unwrap_or_default();
        eprintln!(
            "perfbench: {} proofs in {elapsed:.3} s using {cpu_ms:.0} CPU ms, prove ms quartiles {q1:.3} / {q3:.3}",
            proofs.len()
        );
        m.put(
            "setup_s",
            median(&setups.iter().map(|s| s.total).collect::<Vec<_>>()),
            "s",
        );
        m.put("cpu_ms_per_proof", cpu_ms / proofs.len() as f64, "cpu_ms");
        m.put("sim_prove_ms", median(&sims), "sim_ms");
        return RunResult {
            correct: bad == 0,
            attempted: proofs.len() as u64,
            failed: bad,
            metrics: m,
        };
    }

    // Traced run: alternate traced and untraced proofs so drift in the
    // machine's speed hits both halves alike.
    let tracer = Tracer::new();
    let scope = Scope::new();
    let ntt = TimedNtt {
        inner: &key.engines.ntt,
        tracer: &tracer,
        scope: &scope,
    };
    let g1 = TimedMsm {
        inner: &key.engines.msm,
        name: "msm.g1",
        tracer: &tracer,
        scope: &scope,
    };
    let g2 = TimedMsm {
        inner: &key.engines.msm,
        name: "msm.g2",
        tracer: &tracer,
        scope: &scope,
    };
    let timed = Engines::<S::Pairing> {
        ntt: &ntt,
        msm_g1: &g1,
        msm_g2: &g2,
    };
    let (hits0, misses0) = (key.store.hits(), key.store.misses());
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut sim_poly = Vec::new();
    let mut sim_msm = Vec::new();
    let mut proofs = Vec::new();
    let cpu0 = CpuSample::now();
    let start = Instant::now();
    while start.elapsed() < window || traced_ms.len() < SIM_PROOFS {
        let i = proofs.len() as u64;
        let seed_i = mix(seed, i);
        if i % 2 == 1 {
            let p = prove_timed(&key, &plain(&key), seed_i);
            untraced_ms.push(p.ms);
            proofs.push(p);
            continue;
        }
        let prove_id = tracer.id();
        let t0 = tracer.now();
        let poly_id = tracer.id();
        scope.set(poly_id, i);
        let p0 = tracer.now();
        let poly = S::prove_poly(&key.circuit, &key.pk, &ntt, &NoopSink).expect("poly stage");
        let p1 = tracer.now();
        tracer.simple(poly_id, "poly", p0, p1, Some(prove_id), i);
        let msm_id = tracer.id();
        scope.set(msm_id, i);
        let (bytes, report) =
            S::prove_msm(&key.pk, &timed, poly, seed_i, &NoopSink).expect("msm stage");
        let t1 = tracer.now();
        tracer.simple(msm_id, "msm", p1, t1, Some(prove_id), i);
        tracer.simple(prove_id, "prove", t0, t1, None, i);
        let ms = (t1 - t0) as f64 / 1e6;
        traced_ms.push(ms);
        sim_poly.push(report.poly_ms());
        sim_msm.push(report.msm_ms());
        proofs.push(Proved {
            seed: seed_i,
            ms,
            sim_ms: report.total_ms(),
            bytes,
        });
    }
    let steal = CpuSample::now().steal_share_since(&cpu0);
    let (verify_ms, bad) = check(&key, &proofs);

    let label = S::KIND.as_str();
    // Wall-clock prover latency of the untraced proofs.
    m.put("latency_ms.class_p50", median(&untraced_ms), "ms");
    m.put("latency_ms.p90", percentile(&untraced_ms, 90.0), "ms");
    m.put("bench.steal_share", steal, "ratio");
    m.put(
        format!("{label}.setup_s"),
        median(&setups.iter().map(|s| s.keygen).collect::<Vec<_>>()),
        "s",
    );
    m.put(
        format!("{label}.warmup_ms"),
        median(&setups.iter().map(|s| s.warmup * 1e3).collect::<Vec<_>>()),
        "ms",
    );
    m.put(format!("{label}.decode_us"), decode_us::<S>(&proofs), "us");
    m.put("verify_ms.p50", percentile(&verify_ms, 50.0), "ms");
    ledger(&mut m, label, &tracer.spans());
    m.put("sim.poly_ms", mean(&sim_poly), "sim_ms");
    m.put("sim.msm_ms", mean(&sim_msm), "sim_ms");
    let (hits, misses) = (key.store.hits() - hits0, key.store.misses() - misses0);
    m.put("store.hits", hits as f64, "count");
    m.put("store.misses", misses as f64, "count");
    m.put("store.evictions", key.store.evictions() as f64, "count");
    m.put("store.bytes", key.store.bytes_used() as f64, "bytes");
    m.put(
        "store.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    m.put(
        "bench.trace_overhead",
        ratio(median(&traced_ms), median(&untraced_ms)),
        "ratio",
    );
    crate::write_trace(&tracer, S::LABEL, seed);
    RunResult {
        correct: bad == 0,
        attempted: proofs.len() as u64,
        failed: bad,
        metrics: m,
    }
}

/// Median time to decode one proof with the backend's codec, in µs.
fn decode_us<S: Backend>(proofs: &[Proved]) -> f64 {
    let times: Vec<f64> = proofs
        .iter()
        .map(|p| {
            let t0 = Instant::now();
            assert!(
                S::decode(std::hint::black_box(&p.bytes)),
                "proof bytes decode"
            );
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-proof layer ledger from the traced proofs' span trees. For each
/// `prove` span: the NTT layer is the union of its `ntt` spans, the MSM
/// layer the part of the union of its MSM spans not already covered by
/// NTTs, and the residual (`<system>.self_ms`) whatever no NTT or MSM
/// span covers — so the three add up to the traced prove time exactly.
/// Means over the traced proofs keep that sum.
pub fn ledger(m: &mut Metrics, label: &str, spans: &[Span]) {
    let proves: Vec<&Span> = spans.iter().filter(|s| s.name == "prove").collect();
    let n = proves.len().max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let (mut prove, mut poly, mut msm_stage) = (0u64, 0u64, 0u64);
    let (mut ntt_cov, mut msm_cov, mut residual) = (0u64, 0u64, 0u64);
    let (mut ntt_calls, mut ntt_elems, mut ntt_busy, mut ntt_sim) = (0u64, 0u64, 0u64, 0.0);
    let mut groups = [(0u64, 0u64, 0u64, 0.0f64); 2];
    let (mut padds, mut invs, mut msm_busy, mut msm_wall) = (0u64, 0u64, 0u64, 0u64);
    for p in &proves {
        let req = p.request;
        let of = |name: &'static str| {
            spans
                .iter()
                .filter(move |s| s.request == req && s.name == name)
        };
        prove += p.dur();
        poly += of("poly").map(Span::dur).sum::<u64>();
        msm_stage += of("msm").map(Span::dur).sum::<u64>();
        let ntts: Vec<(u64, u64)> = of("ntt").map(|s| (s.start, s.end)).collect();
        let msms: Vec<&Span> = of("msm.g1").chain(of("msm.g2")).collect();
        let msm_iv: Vec<(u64, u64)> = msms.iter().map(|s| (s.start, s.end)).collect();
        let all: Vec<(u64, u64)> = ntts.iter().chain(&msm_iv).copied().collect();
        let ntt_u = union_len(&ntts);
        let all_u = union_len(&all);
        ntt_cov += ntt_u;
        msm_cov += all_u - ntt_u;
        residual += p.dur().saturating_sub(all_u);
        msm_wall += union_len(&msm_iv);
        for s in of("ntt") {
            ntt_calls += 1;
            ntt_elems += s.size;
            ntt_busy += s.dur();
            ntt_sim += s.sim_ms;
        }
        for s in &msms {
            let g = &mut groups[usize::from(s.name == "msm.g2")];
            g.0 += 1;
            g.1 += s.size;
            g.2 += s.dur();
            g.3 += s.sim_ms;
            padds += s.padds;
            invs += s.inversions;
            msm_busy += s.dur();
        }
    }
    m.put(format!("{label}.prove_ms"), ms(prove) / n, "ms");
    m.put(format!("{label}.poly_ms"), ms(poly) / n, "ms");
    m.put(format!("{label}.msm_ms"), ms(msm_stage) / n, "ms");
    m.put(format!("{label}.self_ms"), ms(residual) / n, "ms");
    m.put("ntt.covered_ms", ms(ntt_cov) / n, "ms");
    m.put("msm.covered_ms", ms(msm_cov) / n, "ms");
    m.put("ntt.calls", ntt_calls as f64 / n, "count");
    m.put("ntt.elems", ntt_elems as f64 / n, "count");
    m.put("ntt.busy_ms", ms(ntt_busy) / n, "ms");
    m.put("ntt.sim_ms", ntt_sim / n, "sim_ms");
    for (g, name) in groups.iter().zip(["g1", "g2"]) {
        m.put(format!("msm.{name}.calls"), g.0 as f64 / n, "count");
        m.put(format!("msm.{name}.points"), g.1 as f64 / n, "count");
        m.put(format!("msm.{name}.busy_ms"), ms(g.2) / n, "ms");
        m.put(format!("msm.{name}.sim_ms"), g.3 / n, "sim_ms");
    }
    m.put(
        "msm.overlap",
        ratio(msm_busy as f64, msm_wall as f64),
        "ratio",
    );
    m.put("msm.batch_padds", padds as f64 / n, "count");
    m.put("msm.batch_inversions", invs as f64 / n, "count");
    m.put(
        "msm.inversion_ratio",
        ratio(invs as f64, padds as f64),
        "ratio",
    );
    m.put(
        "bench.residual_share",
        ratio(residual as f64, prove as f64),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::ledger;
    use crate::report::Metrics;
    use crate::trace::Span;

    fn span(name: &'static str, start: u64, end: u64) -> Span {
        Span {
            name,
            start,
            end,
            ..Span::default()
        }
    }

    #[test]
    fn layers_and_residual_add_up_to_the_prove_span() {
        // One proof: 100 ns, two sequential NTTs, three overlapping MSMs,
        // one of them overlapping the second NTT.
        let spans = vec![
            span("prove", 0, 100),
            span("poly", 0, 30),
            span("ntt", 5, 15),
            span("ntt", 20, 40),
            span("msm", 30, 100),
            span("msm.g1", 35, 70),
            span("msm.g1", 50, 80),
            span("msm.g2", 60, 90),
        ];
        let mut m = Metrics::default();
        ledger(&mut m, "groth16", &spans);
        let get = |n: &str| m.get(n).unwrap() * 1e6;
        assert!((get("ntt.covered_ms") - 30.0).abs() < 1e-9);
        assert!((get("msm.covered_ms") - 50.0).abs() < 1e-9);
        assert!((get("groth16.self_ms") - 20.0).abs() < 1e-9);
        let sum = get("ntt.covered_ms") + get("msm.covered_ms") + get("groth16.self_ms");
        assert!((sum - get("groth16.prove_ms")).abs() < 1e-9);
        // 35 + 30 + 30 ns of MSM work over 55 ns of MSM wall time.
        assert!((m.get("msm.overlap").unwrap() - 95.0 / 55.0).abs() < 1e-12);
        assert_eq!(m.get("msm.g1.calls"), Some(2.0));
        assert_eq!(m.get("msm.g2.calls"), Some(1.0));
    }
}
