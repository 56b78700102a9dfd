//! In-memory span recorder and the timing wrappers the traced run puts
//! around the NTT and MSM engines.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (the engine trait calls, the prover stage calls, the service and
//! cluster calls), kept in memory, and written out as JSON lines when the
//! run ends. Each span carries its parent and the request it belongs to,
//! so self time can be computed as a span's duration minus the union of
//! its children.

use gzkp_curves::{Affine, CurveParams};
use gzkp_ff::PrimeField;
use gzkp_gpu_sim::StageReport;
use gzkp_msm::{MsmEngine, MsmRun, ScalarVec};
use gzkp_ntt::domain::Radix2Domain;
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_ntt::Direction;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Default)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// Layer boundary name (`prove`, `poly`, `ntt`, `msm.g1`, …).
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Id of the span that caused this one.
    pub parent: Option<u64>,
    /// Request the span belongs to.
    pub request: u64,
    /// Elements / points processed (engine spans).
    pub size: u64,
    /// Simulated time of the call in milliseconds (engine spans).
    pub sim_ms: f64,
    /// Batch-affine additions (MSM spans).
    pub padds: u64,
    /// Batch inversions (MSM spans).
    pub inversions: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans in memory.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that has not
    /// finished yet.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// Records a span with just a name, times, parent and request.
    pub fn simple(
        &self,
        id: u64,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<u64>,
        request: u64,
    ) {
        self.record(Span {
            id,
            name,
            start,
            end,
            parent,
            request,
            ..Span::default()
        });
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes every span as one JSON object per line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in self.spans.lock().expect("tracer lock poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"size\":{},\"sim_ms\":{},\"padds\":{},\"inversions\":{}}}",
                s.id, s.name, s.start, s.end, parent, s.request, s.size, s.sim_ms, s.padds, s.inversions
            );
        }
        std::fs::write(path, out)
    }
}

/// Parent span and request the wrappers attach their spans to; set by
/// the caller before each prover stage.
pub struct Scope {
    parent: AtomicU64,
    request: AtomicU64,
}

impl Scope {
    /// A scope with no parent yet.
    pub fn new() -> Self {
        Self {
            parent: AtomicU64::new(0),
            request: AtomicU64::new(0),
        }
    }

    /// Points later engine spans at `parent` within `request`.
    pub fn set(&self, parent: u64, request: u64) {
        self.parent.store(parent, Ordering::Relaxed);
        self.request.store(request, Ordering::Relaxed);
    }

    fn get(&self) -> (u64, u64) {
        (
            self.parent.load(Ordering::Relaxed),
            self.request.load(Ordering::Relaxed),
        )
    }
}

/// Records one span per `transform` call of the wrapped NTT engine.
pub struct TimedNtt<'a, F: PrimeField> {
    /// The engine doing the work.
    pub inner: &'a dyn GpuNttEngine<F>,
    /// Where spans go.
    pub tracer: &'a Tracer,
    /// Current parent span.
    pub scope: &'a Scope,
}

impl<F: PrimeField> GpuNttEngine<F> for TimedNtt<'_, F> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn transform(&self, domain: &Radix2Domain<F>, data: &mut [F], dir: Direction) -> StageReport {
        let start = self.tracer.now();
        let report = self.inner.transform(domain, data, dir);
        let end = self.tracer.now();
        let (parent, request) = self.scope.get();
        self.tracer.record(Span {
            id: self.tracer.id(),
            name: "ntt",
            start,
            end,
            parent: Some(parent),
            request,
            size: data.len() as u64,
            sim_ms: report.total_ms(),
            ..Span::default()
        });
        report
    }

    fn cost(&self, log_n: u32) -> StageReport {
        self.inner.cost(log_n)
    }
}

/// Records one span per `msm` call of the wrapped MSM engine.
pub struct TimedMsm<'a, C: CurveParams> {
    /// The engine doing the work.
    pub inner: &'a dyn MsmEngine<C>,
    /// Span name (`msm.g1` / `msm.g2`).
    pub name: &'static str,
    /// Where spans go.
    pub tracer: &'a Tracer,
    /// Current parent span.
    pub scope: &'a Scope,
}

impl<C: CurveParams> MsmEngine<C> for TimedMsm<'_, C> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn msm(&self, points: &[Affine<C>], scalars: &ScalarVec) -> MsmRun<C> {
        let start = self.tracer.now();
        let run = self.inner.msm(points, scalars);
        let end = self.tracer.now();
        let (parent, request) = self.scope.get();
        self.tracer.record(Span {
            id: self.tracer.id(),
            name: self.name,
            start,
            end,
            parent: Some(parent),
            request,
            size: points.len() as u64,
            sim_ms: run.report.total_ms(),
            padds: run.stats.batch_padds,
            inversions: run.stats.batch_inversions,
        });
        run
    }

    fn plan(&self, scalars: &ScalarVec) -> StageReport {
        self.inner.plan(scalars)
    }

    fn plan_dense(&self, n: usize) -> StageReport {
        self.inner.plan_dense(n)
    }

    fn memory_bytes(&self, n: usize) -> u64 {
        self.inner.memory_bytes(n)
    }
}
