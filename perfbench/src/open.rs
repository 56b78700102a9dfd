//! Open-loop workloads: seeded arrivals at a fixed offered rate, sent on
//! schedule whether or not earlier requests have finished.
//!
//! `service-mixed` drives [`ProvingService::submit`] and polls each
//! [`JobHandle`] for completion. `cluster-failover` drives
//! [`Cluster::submit_at`] and [`Cluster::pump`], and kills one host with
//! [`Cluster::kill_host`] once half the requests are admitted. Both run
//! the load generator on this one thread, time every request from its
//! due time, and check every returned proof afterwards: it must verify
//! and equal, byte for byte, a direct proof of the same request.

use crate::closed::ratio;
use crate::host::{peak_rss_mb, CpuSample};
use crate::report::{Metrics, RunResult};
use crate::stats::{class_median, mean, median, percentile, quartiles};
use crate::systems::{mix, Backend, StockEngines, STORE_BYTES};
use crate::trace::Tracer;
use gzkp_cluster::{
    system_factory, Cluster, ClusterConfig, ClusterJobOptions, TaskFactory, TenantSpec,
};
use gzkp_curves::bls12_381::Bls12_381;
use gzkp_curves::bn254::Bn254;
use gzkp_gpu_sim::device::v100;
use gzkp_groth16::Groth16System;
use gzkp_msm::PreprocessStore;
use gzkp_plonk::PlonkSystem;
use gzkp_proof_system::{ProofSystemKind, ProveReport};
use gzkp_service::{
    CheckpointingTask, JobHandle, JobOptions, Priority, ProofTask, ProvingService, ServiceConfig,
    SystemTask,
};
use gzkp_telemetry::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Proof system and curve of a request class.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Groth16 over BN254.
    Groth16Bn254,
    /// Groth16 over BLS12-381.
    Groth16Bls,
    /// PLONK over BN254.
    PlonkBn254,
    /// PLONK over BLS12-381.
    PlonkBls,
}

/// Circuit and keys of one request class under backend `S`.
pub struct Keyed<S: Backend> {
    circuit: Arc<S::Circuit>,
    pk: Arc<S::ProvingKey>,
    vk: Arc<S::VerifyingKey>,
}

/// A request class with its keys.
pub enum ClassKey {
    /// Groth16 over BN254.
    Groth16Bn254(Keyed<Groth16System<Bn254>>),
    /// Groth16 over BLS12-381.
    Groth16Bls(Keyed<Groth16System<Bls12_381>>),
    /// PLONK over BN254.
    PlonkBn254(Keyed<PlonkSystem<Bn254>>),
    /// PLONK over BLS12-381.
    PlonkBls(Keyed<PlonkSystem<Bls12_381>>),
}

/// Expands `$body` with `$k` bound to the class's [`Keyed`] and `$S`
/// to its backend type.
macro_rules! dispatch {
    ($key:expr, $k:ident, $S:ident, $body:expr) => {
        match $key {
            ClassKey::Groth16Bn254($k) => {
                type $S = Groth16System<Bn254>;
                $body
            }
            ClassKey::Groth16Bls($k) => {
                type $S = Groth16System<Bls12_381>;
                $body
            }
            ClassKey::PlonkBn254($k) => {
                type $S = PlonkSystem<Bn254>;
                $body
            }
            ClassKey::PlonkBls($k) => {
                type $S = PlonkSystem<Bls12_381>;
                $body
            }
        }
    };
}

fn keyed<S: Backend>(constraints: usize, rng: &mut StdRng) -> Keyed<S> {
    let circuit = S::synthesize(constraints, rng);
    let (pk, vk) = S::keygen(&circuit, rng);
    Keyed {
        circuit: Arc::new(circuit),
        pk: Arc::new(pk),
        vk: Arc::new(vk),
    }
}

impl ClassKey {
    /// Synthesizes the circuit and generates the keys of a class.
    pub fn build(kind: Kind, constraints: usize, rng: &mut StdRng) -> Self {
        match kind {
            Kind::Groth16Bn254 => ClassKey::Groth16Bn254(keyed(constraints, rng)),
            Kind::Groth16Bls => ClassKey::Groth16Bls(keyed(constraints, rng)),
            Kind::PlonkBn254 => ClassKey::PlonkBn254(keyed(constraints, rng)),
            Kind::PlonkBls => ClassKey::PlonkBls(keyed(constraints, rng)),
        }
    }

    fn system(&self) -> ProofSystemKind {
        dispatch!(self, k, S, {
            let _ = k;
            <S as gzkp_proof_system::ProofSystem>::KIND
        })
    }

    fn service_task(&self, store: Arc<PreprocessStore>, seed: u64) -> Box<dyn ProofTask> {
        dispatch!(self, k, S, {
            Box::new(SystemTask::<S>::new(
                k.circuit.clone(),
                k.pk.clone(),
                v100(),
                Some(store),
                seed,
            ))
        })
    }

    fn cluster_factory(&self, seed: u64) -> TaskFactory {
        dispatch!(self, k, S, {
            system_factory::<S>(k.circuit.clone(), k.pk.clone(), None, seed)
        })
    }

    fn verify(&self, proof: &[u8]) -> bool {
        dispatch!(self, k, S, {
            <S as gzkp_proof_system::ProofSystem>::verify_bytes(&k.vk, &k.circuit, proof)
        })
    }

    fn decode(&self, proof: &[u8]) -> bool {
        dispatch!(self, k, S, {
            let _ = k;
            <S as Backend>::decode(proof)
        })
    }

    fn prove_direct(&self, engines: &StockEngines, seed: u64) -> (Vec<u8>, ProveReport) {
        dispatch!(self, k, S, engines.prove::<S>(&k.circuit, &k.pk, seed))
    }

    fn engines(&self, store: Arc<PreprocessStore>) -> StockEngines {
        dispatch!(self, k, S, {
            let _ = k;
            StockEngines::new::<S>(store)
        })
    }

    /// Builds a task resuming from checkpoint bytes, as the cluster does
    /// on a surviving host.
    fn resume(&self, bytes: &[u8]) -> bool {
        dispatch!(self, k, S, {
            CheckpointingTask::<S>::resume(
                k.circuit.clone(),
                k.pk.clone(),
                v100(),
                None,
                bytes,
                Arc::new(Mutex::new(None)),
                Arc::new(AtomicBool::new(false)),
            )
            .is_ok()
        })
    }
}

/// One open-loop workload's shape.
pub struct OpenSpec {
    /// Request classes: proof system/curve and constraint count.
    pub classes: &'static [(Kind, usize)],
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Set-up repetitions (each builds every key and warms a fresh
    /// service or cluster); `setup_s` is their median.
    pub setup_reps: usize,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time from the start of the schedule.
    pub due: Duration,
    /// Request class index.
    pub class: usize,
    /// Scheduling class.
    pub priority: Priority,
    /// Tenant index (cluster workload).
    pub tenant: usize,
    /// Blinding seed of the proof.
    pub seed: u64,
}

/// The arrival schedule, a pure function of `seed`: about `rate ·
/// seconds` arrivals (rounded to whole rounds of classes), one placed
/// uniformly at random in each equal slot of the window. Classes come in shuffled rounds (every class once
/// per round of `classes` arrivals), each arrival draws a priority (1/4
/// high, 1/2 normal, 1/4 low) and a tenant (3:1).
///
/// Slot-jittered arrivals and class rounds keep the offered work nearly
/// the same from seed to seed; with Poisson gaps and free class draws a
/// 40-request run's latency percentiles moved by more than 100% between
/// seeds.
pub fn schedule(seed: u64, seconds: f64, rate: f64, classes: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5C4E_D01E));
    let rounds = ((rate * seconds / classes as f64).round() as usize).max(1);
    let n = rounds * classes;
    let slot = seconds / n as f64;
    let mut round: Vec<usize> = Vec::new();
    (0..n)
        .map(|i| {
            if round.is_empty() {
                round = (0..classes).collect();
                // Fisher-Yates, popped from the back.
                for k in (1..classes).rev() {
                    round.swap(k, (rng.gen::<u64>() % (k as u64 + 1)) as usize);
                }
            }
            let draw = rng.gen::<u64>();
            let priority = match draw % 4 {
                0 => Priority::High,
                3 => Priority::Low,
                _ => Priority::Normal,
            };
            Arrival {
                due: Duration::from_secs_f64((i as f64 + rng.gen::<f64>()) * slot),
                class: round.pop().expect("refilled above"),
                priority,
                tenant: usize::from((draw >> 8) % 4 == 3),
                seed: mix(seed, i as u64),
            }
        })
        .collect()
}

/// Outcome of one request.
struct Done {
    index: usize,
    latency_ms: f64,
    proof: Result<Vec<u8>, String>,
    queue_wait_ms: f64,
    service_ms: f64,
    resumes: u32,
}

/// Set-up timings of one repetition.
#[derive(Default)]
struct SetupTimes {
    total: f64,
    keygen: [f64; 2],
    warmup_ms: [f64; 2],
}

fn sys_index(kind: ProofSystemKind) -> usize {
    usize::from(kind == ProofSystemKind::Plonk)
}

/// Builds every class key, recording key-generation time per system.
fn build_keys(spec: &OpenSpec, seed: u64, times: &mut SetupTimes) -> Vec<ClassKey> {
    let mut rng = StdRng::seed_from_u64(seed);
    spec.classes
        .iter()
        .map(|&(kind, constraints)| {
            let t0 = Instant::now();
            let key = ClassKey::build(kind, constraints, &mut rng);
            times.keygen[sys_index(key.system())] += t0.elapsed().as_secs_f64();
            key
        })
        .collect()
}

/// Sleeps until `t` in steps of at most `step`, calling `poll` between.
fn wait_until(t: Instant, step: Duration, mut poll: impl FnMut()) {
    loop {
        poll();
        let now = Instant::now();
        if now >= t {
            return;
        }
        std::thread::sleep((t - now).min(step));
    }
}

const POLL: Duration = Duration::from_millis(1);

/// Post-window output checks shared by both open loops.
struct Checked {
    verify_ms: Vec<f64>,
    decode_us: [Vec<f64>; 2],
    /// Request indices whose proof failed a check.
    bad: Vec<usize>,
    sim: Vec<ProveReport>,
}

/// What checking one returned proof found.
struct ProofCheck {
    index: usize,
    decode_us: f64,
    verify_ms: f64,
    ok: bool,
    report: ProveReport,
}

/// Decodes, verifies and re-proves (directly, on `engines`) each of
/// `done`'s proofs.
fn check_each(
    keys: &[ClassKey],
    engines: &[StockEngines],
    arrivals: &[Arrival],
    done: &[&Done],
) -> Vec<ProofCheck> {
    done.iter()
        .filter_map(|d| {
            let proof = d.proof.as_ref().ok()?;
            let a = &arrivals[d.index];
            let key = &keys[a.class];
            let t0 = Instant::now();
            let decoded = key.decode(proof);
            let decode_us = t0.elapsed().as_secs_f64() * 1e6;
            let t0 = Instant::now();
            let verified = key.verify(proof);
            let verify_ms = t0.elapsed().as_secs_f64() * 1e3;
            let (direct, report) = key.prove_direct(&engines[a.class], a.seed);
            Some(ProofCheck {
                index: d.index,
                decode_us,
                verify_ms,
                ok: decoded && verified && &direct == proof,
                report,
            })
        })
        .collect()
}

/// Verifies every returned proof and compares it with a direct proof of
/// the same request on fresh engines, the requests split between this
/// thread and a helper. Also collects, for each class, the simulated
/// report of its first request.
fn check(keys: &[ClassKey], arrivals: &[Arrival], done: &[Done]) -> Checked {
    let store = Arc::new(PreprocessStore::new(STORE_BYTES));
    let engines: Vec<StockEngines> = keys.iter().map(|k| k.engines(store.clone())).collect();
    let mut by_index: Vec<&Done> = done.iter().collect();
    by_index.sort_by_key(|d| d.index);
    let (mine, theirs) = by_index.split_at(by_index.len() / 2);
    let mut results = std::thread::scope(|scope| {
        let helper = scope.spawn(|| check_each(keys, &engines, arrivals, theirs));
        let mut results = check_each(keys, &engines, arrivals, mine);
        results.extend(helper.join().expect("check helper"));
        results
    });
    results.sort_by_key(|r| r.index);
    let mut out = Checked {
        verify_ms: Vec::new(),
        decode_us: [Vec::new(), Vec::new()],
        bad: Vec::new(),
        sim: Vec::new(),
    };
    let mut sim: Vec<Option<ProveReport>> = (0..keys.len()).map(|_| None).collect();
    for r in results {
        let key = &keys[arrivals[r.index].class];
        out.decode_us[sys_index(key.system())].push(r.decode_us);
        out.verify_ms.push(r.verify_ms);
        if !r.ok {
            out.bad.push(r.index);
        }
        sim[arrivals[r.index].class].get_or_insert(r.report);
    }
    out.sim = sim.into_iter().flatten().collect();
    out
}

/// What the loaded window cost the host, from the first due time until
/// every request returned.
struct HostUse {
    /// Peak resident set size of the process, MiB.
    rss_mb: f64,
    /// CPU time charged to the process (all threads), ms.
    cpu_ms: f64,
    /// Share of the machine's CPU time the hypervisor stole.
    steal: f64,
}

impl HostUse {
    fn since(cpu0: &CpuSample) -> Self {
        let cpu1 = CpuSample::now();
        Self {
            rss_mb: peak_rss_mb(),
            cpu_ms: cpu1.cpu_ms_since(cpu0),
            steal: cpu1.steal_share_since(cpu0),
        }
    }
}

/// End-to-end metrics and the shared per-layer ones of an open loop.
#[allow(clippy::too_many_arguments)]
fn report(
    m: &mut Metrics,
    traced: bool,
    spec: &OpenSpec,
    arrivals: &[Arrival],
    setups: &[SetupTimes],
    done: &[Done],
    checked: &Checked,
    lags_ms: &[f64],
    host: &HostUse,
) {
    let lat: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    eprintln!(
        "perfbench: {} of {} requests returned",
        done.len(),
        arrivals.len()
    );
    let (q1, q3) = quartiles(&lat).unwrap_or_default();
    eprintln!(
        "perfbench: latency ms quartiles {q1:.3} / {q3:.3} over {} requests",
        lat.len()
    );
    for c in 0..spec.classes.len() {
        let of: Vec<f64> = done
            .iter()
            .filter(|d| arrivals[d.index].class == c)
            .map(|d| d.latency_ms)
            .collect();
        eprintln!(
            "perfbench: class {c} {:?}: {} requests, latency ms median {:.3} mean {:.3}",
            spec.classes[c],
            of.len(),
            median(&of),
            mean(&of)
        );
    }
    let sim_total: Vec<f64> = checked.sim.iter().map(ProveReport::total_ms).collect();
    if !traced {
        m.put(
            "setup_s",
            median(&setups.iter().map(|s| s.total).collect::<Vec<_>>()),
            "s",
        );
        m.put(
            "cpu_ms_per_proof",
            host.cpu_ms / done.len().max(1) as f64,
            "cpu_ms",
        );
        m.put("sim_prove_ms", mean(&sim_total), "sim_ms");
        m.put("peak_rss_mb", host.rss_mb, "MiB");
        return;
    }
    let by_class: Vec<(usize, f64)> = done
        .iter()
        .map(|d| (arrivals[d.index].class, d.latency_ms))
        .collect();
    m.put("latency_ms.class_p50", class_median(&by_class), "ms");
    m.put("latency_ms.p90", percentile(&lat, 90.0), "ms");
    m.put("bench.steal_share", host.steal, "ratio");
    for (i, sys) in ["groth16", "plonk"].iter().enumerate() {
        m.put(
            format!("{sys}.setup_s"),
            median(&setups.iter().map(|s| s.keygen[i]).collect::<Vec<_>>()),
            "s",
        );
        m.put(
            format!("{sys}.warmup_ms"),
            median(&setups.iter().map(|s| s.warmup_ms[i]).collect::<Vec<_>>()),
            "ms",
        );
        m.put(
            format!("{sys}.decode_us"),
            median(&checked.decode_us[i]),
            "us",
        );
    }
    m.put(
        "sim.poly_ms",
        mean(
            &checked
                .sim
                .iter()
                .map(ProveReport::poly_ms)
                .collect::<Vec<_>>(),
        ),
        "sim_ms",
    );
    m.put(
        "sim.msm_ms",
        mean(
            &checked
                .sim
                .iter()
                .map(ProveReport::msm_ms)
                .collect::<Vec<_>>(),
        ),
        "sim_ms",
    );
    m.put("verify_ms.p50", percentile(&checked.verify_ms, 50.0), "ms");
    m.put("bench.gen_lag_ms.p90", percentile(lags_ms, 90.0), "ms");
}

/// Runs `service-mixed`.
pub fn run_service(spec: &OpenSpec, seed: u64, seconds: u64, traced: bool) -> RunResult {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..spec.setup_reps {
        drop(state.take());
        let mut times = SetupTimes::default();
        let t0 = Instant::now();
        let keys = build_keys(spec, seed, &mut times);
        let service = ProvingService::start(ServiceConfig {
            metrics: Some(Arc::new(MetricsRegistry::new())),
            ..ServiceConfig::default()
        });
        for (c, key) in keys.iter().enumerate() {
            let t = Instant::now();
            let task = key.service_task(service.store(), mix(seed, 1 << 40 | c as u64));
            let result = service
                .submit(task, JobOptions::default())
                .expect("warm-up submit")
                .wait();
            result.outcome.expect("warm-up proof");
            times.warmup_ms[sys_index(key.system())] += t.elapsed().as_secs_f64() * 1e3;
        }
        times.total = t0.elapsed().as_secs_f64();
        setups.push(times);
        state = Some((keys, service));
    }
    let (keys, service) = state.expect("at least one set-up repetition");
    let store = service.store();
    let (hits0, misses0, evict0) = (store.hits(), store.misses(), store.evictions());

    let arrivals = schedule(seed, seconds as f64, spec.rate, keys.len());
    let tracer = Tracer::new();
    let mut pending: Vec<Option<(usize, Instant, JobHandle)>> = Vec::new();
    let mut done: Vec<Done> = Vec::new();
    let mut lags_ms = Vec::new();
    let mut submit_us = Vec::new();
    let mut rejected = 0u64;
    let poll = |pending: &mut Vec<Option<(usize, Instant, JobHandle)>>, done: &mut Vec<Done>| {
        for slot in pending.iter_mut() {
            if slot.as_ref().is_some_and(|(_, _, h)| h.is_finished()) {
                let (index, due, handle) = slot.take().expect("checked above");
                let result = handle.wait();
                let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                let queue_wait_ms = result.queue_wait.as_secs_f64() * 1e3;
                done.push(Done {
                    index,
                    latency_ms,
                    proof: result.outcome.map(|o| o.proof).map_err(|e| e.to_string()),
                    queue_wait_ms,
                    service_ms: result.latency.as_secs_f64() * 1e3,
                    resumes: 0,
                });
            }
        }
        pending.retain(Option::is_some);
    };
    let cpu0 = CpuSample::now();
    let start = Instant::now() + Duration::from_millis(5);
    for (i, a) in arrivals.iter().enumerate() {
        let task = keys[a.class].service_task(store.clone(), a.seed);
        let due = start + a.due;
        wait_until(due, POLL, || poll(&mut pending, &mut done));
        let t_sub = Instant::now();
        lags_ms.push((t_sub - due).as_secs_f64() * 1e3);
        let opts = JobOptions {
            priority: a.priority,
            ..JobOptions::default()
        };
        let submitted = service.submit(task, opts);
        let t_end = Instant::now();
        submit_us.push((t_end - t_sub).as_secs_f64() * 1e6);
        if traced {
            tracer.simple(
                tracer.id(),
                "service.submit",
                tracer.at(t_sub),
                tracer.at(t_end),
                None,
                i as u64,
            );
        }
        match submitted {
            Ok(h) => pending.push(Some((i, due, h))),
            Err(_) => rejected += 1,
        }
    }
    let drain_by = Instant::now() + Duration::from_secs(60);
    while !pending.is_empty() && Instant::now() < drain_by {
        poll(&mut pending, &mut done);
        std::thread::sleep(POLL);
    }
    let unfinished = pending.len() as u64;
    let host = HostUse::since(&cpu0);
    let (hits, misses) = (store.hits() - hits0, store.misses() - misses0);
    let (evictions, store_bytes) = (store.evictions() - evict0, store.bytes_used());
    drop(pending);
    let stats = service.shutdown();

    let checked = check(&keys, &arrivals, &done);
    let errors = done.iter().filter(|d| d.proof.is_err()).count() as u64;
    let failed = rejected + unfinished + errors + checked.bad.len() as u64;
    let mut m = Metrics::default();
    report(
        &mut m, traced, spec, &arrivals, &setups, &done, &checked, &lags_ms, &host,
    );
    if traced {
        let lat: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
        let queue: Vec<f64> = done.iter().map(|d| d.queue_wait_ms).collect();
        let exec: Vec<f64> = done
            .iter()
            .map(|d| d.service_ms - d.queue_wait_ms)
            .collect();
        for d in &done {
            let a = &arrivals[d.index];
            let due = tracer.at(start + a.due);
            let end = due + (d.latency_ms * 1e6) as u64;
            tracer.simple(tracer.id(), "request", due, end, None, d.index as u64);
        }
        m.put("service.submit_us.p50", percentile(&submit_us, 50.0), "us");
        m.put("service.queue_wait_ms.p50", percentile(&queue, 50.0), "ms");
        m.put("service.queue_wait_ms.p90", percentile(&queue, 90.0), "ms");
        m.put("service.exec_ms.p50", percentile(&exec, 50.0), "ms");
        // Ledger: request latency = queue wait + execution + what the
        // service's own clock does not see (generator lag, submit call,
        // completion pickup).
        let (lat_m, queue_m, exec_m) = (mean(&lat), mean(&queue), mean(&exec));
        m.put("service.latency_ms", lat_m, "ms");
        m.put("service.queue_wait_ms.mean", queue_m, "ms");
        m.put("service.exec_ms.mean", exec_m, "ms");
        m.put("service.self_ms", lat_m - queue_m - exec_m, "ms");
        m.put(
            "bench.residual_share",
            ratio(lat_m - queue_m - exec_m, lat_m),
            "ratio",
        );
        m.put("service.retries", stats.retries as f64, "count");
        m.put("service.rejected", stats.rejected as f64, "count");
        m.put(
            "service.deadline_missed",
            stats.deadline_missed as f64,
            "count",
        );
        m.put("store.hits", hits as f64, "count");
        m.put("store.misses", misses as f64, "count");
        m.put("store.evictions", evictions as f64, "count");
        m.put("store.bytes", store_bytes as f64, "bytes");
        m.put(
            "store.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        );
        crate::write_trace(&tracer, "service-mixed", seed);
    }
    RunResult {
        correct: checked.bad.is_empty(),
        attempted: arrivals.len() as u64,
        failed,
        metrics: m,
    }
}

/// Tenants of the cluster workload, weighted 3:1.
const TENANTS: [&str; 2] = ["interactive", "batch"];

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        hosts: 2,
        tenants: vec![
            TenantSpec::new(TENANTS[0], 3.0),
            TenantSpec::new(TENANTS[1], 1.0),
        ],
        ..ClusterConfig::default()
    }
}

/// Pumps `cluster` until it has no open jobs or `timeout` passes.
fn settle(cluster: &mut Cluster, timeout: Duration) {
    let until = Instant::now() + timeout;
    while cluster.open_jobs() > 0 && Instant::now() < until {
        cluster.pump();
        std::thread::sleep(POLL);
    }
}

/// The cluster under load plus the host-kill bookkeeping.
struct LoadedCluster {
    cluster: Cluster,
    /// Host time spent inside [`Cluster::pump`].
    pump_ns: u128,
    killed: bool,
    /// `(class, checkpoint bytes)` of the jobs on the killed host.
    captured: Vec<(usize, Vec<u8>)>,
}

impl LoadedCluster {
    /// One pump; once `armed` (half the requests admitted) and no host
    /// has been killed yet, kills the host of the first in-flight job
    /// that holds checkpoint bytes, capturing the checkpoints of every
    /// job on that host.
    fn tick(&mut self, armed: bool, ids: &[Option<u64>], arrivals: &[Arrival]) {
        let t = Instant::now();
        self.cluster.pump();
        self.pump_ns += t.elapsed().as_nanos();
        if !armed || self.killed {
            return;
        }
        let open: Vec<(usize, u64)> = ids
            .iter()
            .enumerate()
            .filter_map(|(r, id)| id.map(|id| (r, id)))
            .collect();
        let Some(victim) = open.iter().find_map(|&(_, id)| {
            self.cluster.job_checkpoint(id)?;
            self.cluster.job_host(id)
        }) else {
            return;
        };
        for &(r, id) in &open {
            if self.cluster.job_host(id) == Some(victim) {
                if let Some(bytes) = self.cluster.job_checkpoint(id) {
                    self.captured.push((arrivals[r].class, bytes));
                }
            }
        }
        self.cluster.kill_host(victim);
        self.killed = true;
    }
}

/// Runs `cluster-failover`.
pub fn run_cluster(spec: &OpenSpec, seed: u64, seconds: u64, traced: bool) -> RunResult {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..spec.setup_reps {
        drop(state.take());
        let mut times = SetupTimes::default();
        let t0 = Instant::now();
        let keys = build_keys(spec, seed, &mut times);
        let mut cluster = Cluster::start(cluster_config());
        // Two warm-up jobs per class, one placed on each host, fill both
        // hosts' preprocessing tables.
        for (c, key) in keys.iter().enumerate() {
            let t = Instant::now();
            for copy in 0..2u64 {
                let factory = key.cluster_factory(mix(seed, 1 << 40 | (c as u64) << 1 | copy));
                cluster
                    .submit(TENANTS[0], factory, ClusterJobOptions::default())
                    .expect("warm-up admission");
            }
            settle(&mut cluster, Duration::from_secs(60));
            times.warmup_ms[sys_index(key.system())] += t.elapsed().as_secs_f64() * 1e3;
        }
        times.total = t0.elapsed().as_secs_f64();
        setups.push(times);
        state = Some((keys, cluster));
    }
    let (keys, cluster) = state.expect("at least one set-up repetition");

    let arrivals = schedule(seed, seconds as f64, spec.rate, keys.len());
    let tracer = Tracer::new();
    let mut ids: Vec<Option<u64>> = vec![None; arrivals.len()];
    let mut lags_ms = Vec::new();
    let mut submit_us = Vec::new();
    let mut rejected = 0u64;
    let kill_at = arrivals.len() / 2;
    let mut load = LoadedCluster {
        cluster,
        pump_ns: 0,
        killed: false,
        captured: Vec::new(),
    };
    let cpu0 = CpuSample::now();
    let start = Instant::now() + Duration::from_millis(5);
    for (i, a) in arrivals.iter().enumerate() {
        let factory = keys[a.class].cluster_factory(a.seed);
        let due = start + a.due;
        let armed = i >= kill_at;
        wait_until(due, POLL, || load.tick(armed, &ids[..i], &arrivals));
        let t_sub = Instant::now();
        lags_ms.push((t_sub - due).as_secs_f64() * 1e3);
        let opts = ClusterJobOptions {
            priority: a.priority,
            deadline: None,
        };
        let admitted = load
            .cluster
            .submit_at(TENANTS[a.tenant], factory, opts, due);
        let t_end = Instant::now();
        submit_us.push((t_end - t_sub).as_secs_f64() * 1e6);
        if traced {
            tracer.simple(
                tracer.id(),
                "cluster.submit",
                tracer.at(t_sub),
                tracer.at(t_end),
                None,
                i as u64,
            );
        }
        match admitted {
            Ok(id) => ids[i] = Some(id),
            Err(_) => rejected += 1,
        }
    }
    let until = Instant::now() + Duration::from_secs(60);
    while load.cluster.open_jobs() > 0 && Instant::now() < until {
        load.tick(true, &ids, &arrivals);
        std::thread::sleep(POLL);
    }
    let LoadedCluster {
        cluster,
        pump_ns,
        captured,
        ..
    } = load;
    let host = HostUse::since(&cpu0);
    let outcome = cluster.drain(Duration::from_secs(10));

    let index_of = |id: u64| ids.iter().position(|x| *x == Some(id));
    let done: Vec<Done> = outcome
        .results
        .iter()
        .filter_map(|r| {
            index_of(r.id).map(|index| Done {
                index,
                latency_ms: r.latency.as_secs_f64() * 1e3,
                proof: r.outcome.clone(),
                queue_wait_ms: 0.0,
                service_ms: 0.0,
                resumes: r.resumes,
            })
        })
        .collect();
    let checked = check(&keys, &arrivals, &done);
    let errors = done.iter().filter(|d| d.proof.is_err()).count() as u64;
    let unresolved = (arrivals.len() as u64).saturating_sub(rejected + done.len() as u64);
    let failed = rejected + errors + unresolved + checked.bad.len() as u64;
    let mut m = Metrics::default();
    report(
        &mut m, traced, spec, &arrivals, &setups, &done, &checked, &lags_ms, &host,
    );
    if traced {
        let resumed: Vec<f64> = done
            .iter()
            .filter(|d| d.resumes > 0)
            .map(|d| d.latency_ms)
            .collect();
        m.put("cluster.submit_us.p50", percentile(&submit_us, 50.0), "us");
        m.put("cluster.pump_busy_ms", pump_ns as f64 / 1e6, "ms");
        m.put("cluster.resumes", outcome.stats.resumes as f64, "count");
        m.put(
            "cluster.leaked_claims",
            outcome.leaked_claims as f64,
            "count",
        );
        m.put(
            "cluster.resumed_latency_ms.p50",
            percentile(&resumed, 50.0),
            "ms",
        );
        let decode: Vec<f64> = captured
            .iter()
            .map(|(class, bytes)| {
                let t = Instant::now();
                assert!(keys[*class].resume(bytes), "captured checkpoint resumes");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let sizes: Vec<f64> = captured.iter().map(|(_, b)| b.len() as f64).collect();
        m.put("checkpoint.bytes", mean(&sizes), "bytes");
        m.put("checkpoint.decode_us", median(&decode), "us");
        m.put(
            "runtime.sim_makespan_ms",
            outcome.makespan_ns / 1e6,
            "sim_ms",
        );
        let (kernel, devices) = outcome
            .hosts
            .iter()
            .filter_map(|h| h.utilization.as_ref())
            .flat_map(|u| &u.devices)
            .fold((0.0, 0usize), |(k, n), d| (k + d.kernel_ns, n + 1));
        m.put(
            "runtime.sim_busy_share",
            ratio(kernel, outcome.makespan_ns * devices as f64),
            "ratio",
        );
        for d in &done {
            let a = &arrivals[d.index];
            let due = tracer.at(start + a.due);
            tracer.simple(
                tracer.id(),
                "request",
                due,
                due + (d.latency_ms * 1e6) as u64,
                None,
                d.index as u64,
            );
        }
        crate::write_trace(&tracer, "cluster-failover", seed);
    }
    RunResult {
        correct: checked.bad.is_empty() && outcome.leaked_claims == 0,
        attempted: arrivals.len() as u64,
        failed,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::schedule;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(7, 10.0, 4.0, 8);
        assert_eq!(a, schedule(7, 10.0, 4.0, 8));
        assert_ne!(a, schedule(8, 10.0, 4.0, 8));
        assert_eq!(a.len(), 40);
        assert_eq!(
            schedule(7, 10.0, 3.0, 8).len(),
            32,
            "whole rounds of classes"
        );
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a
            .iter()
            .all(|r| r.due.as_secs_f64() < 10.0 && r.class < 8 && r.tenant < 2));
        // Every class appears once per round of eight arrivals.
        for round in a.chunks(8) {
            let mut classes: Vec<usize> = round.iter().map(|r| r.class).collect();
            classes.sort_unstable();
            assert_eq!(classes, (0..8).collect::<Vec<_>>());
        }
    }
}
