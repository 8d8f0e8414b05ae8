//! Host-time instrumentation from outside the program: a timing [`Device`]
//! decorator and an in-memory span recorder.
//!
//! Both only observe: the decorator forwards every trait method to the
//! device it wraps, so a decorated run computes exactly what an
//! undecorated one does (`tests/decorator.rs` checks this).

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dysel_device::{
    BatchEntry, BudgetPolicy, CpuConfig, CpuDevice, Cycles, Device, DeviceKind, FaultPlan,
    GpuConfig, GpuDevice, LaunchOutcome, LaunchSpec, StreamId,
};
use dysel_kernel::Args;
use dysel_obs::EventSink;
use dysel_workloads::Target;

/// One recorded span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// The enclosing span on the same thread, or 0.
    pub parent: u64,
    /// The launch this call belongs to, or 0 when it belongs to none.
    pub launch: u64,
    /// `layer.call`, e.g. `device.launch_batch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// The innermost open span and launch id on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Collects spans in memory; [`Tracer::write_jsonl`] writes them out.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Opens a span that closes when the guard drops. Spans opened on this
    /// thread while it is open become its children. `launch` (when
    /// non-zero) starts a new per-launch id for the span and its children;
    /// 0 inherits the enclosing one.
    pub fn span(self: &Arc<Self>, name: &'static str, launch: u64) -> SpanGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, outer_launch) = CURRENT.with(Cell::get);
        let launch = if launch == 0 { outer_launch } else { launch };
        CURRENT.with(|c| c.set((id, launch)));
        SpanGuard {
            tracer: self.clone(),
            id,
            parent,
            launch,
            outer_launch,
            name,
            start: Instant::now(),
        }
    }

    /// Every span closed so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"launch\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.launch, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Arc<Tracer>,
    id: u64,
    parent: u64,
    launch: u64,
    outer_launch: u64,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set((self.parent, self.outer_launch)));
        let span = Span {
            id: self.id,
            parent: self.parent,
            launch: self.launch,
            name: self.name,
            start_ns: self.tracer.nanos(self.start),
            end_ns: self.tracer.nanos(Instant::now()),
        };
        self.tracer
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }
}

/// Opens a span when tracing is on.
pub fn span(tracer: Option<&Arc<Tracer>>, name: &'static str, launch: u64) -> Option<SpanGuard> {
    tracer.map(|t| t.span(name, launch))
}

/// Device-layer counters, shared by every decorated device of a pass
/// (service lanes update them from the shard worker threads).
#[derive(Debug, Default)]
pub struct DeviceProbe {
    busy_ns: AtomicU64,
    profile_busy_ns: AtomicU64,
    calls: AtomicU64,
    units: AtomicU64,
    create_ns: Mutex<Vec<u64>>,
}

impl DeviceProbe {
    /// Host time spent inside device launch calls.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }

    /// Host time spent inside launch calls that carry a measured
    /// (micro-profiling) entry.
    pub fn profile_busy(&self) -> Duration {
        Duration::from_nanos(self.profile_busy_ns.load(Ordering::Relaxed))
    }

    /// Launch and batch-launch calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Work-groups executed (completed or preempted).
    pub fn units(&self) -> u64 {
        self.units.load(Ordering::Relaxed)
    }

    /// Host time of every device construction, in creation order.
    pub fn create_times(&self) -> Vec<Duration> {
        self.create_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|&ns| Duration::from_nanos(ns))
            .collect()
    }

    fn record(&self, took: Duration, measured: bool, outcomes: &[LaunchOutcome]) {
        let ns = took.as_nanos() as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if measured {
            self.profile_busy_ns.fetch_add(ns, Ordering::Relaxed);
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        let units: u64 = outcomes
            .iter()
            .map(|o| match o {
                LaunchOutcome::Done(r) => r.groups,
                LaunchOutcome::Preempted(p) => p.groups_done,
                LaunchOutcome::Failed(_) => 0,
            })
            .sum();
        self.units.fetch_add(units, Ordering::Relaxed);
    }
}

/// A [`Device`] decorator that times every launch call into a
/// [`DeviceProbe`] (and a span, when tracing) and forwards every trait
/// method, including the ones with default bodies, to the wrapped device.
pub struct TimedDevice {
    inner: Box<dyn Device>,
    probe: Arc<DeviceProbe>,
    tracer: Option<Arc<Tracer>>,
}

impl TimedDevice {
    /// Wraps `inner`.
    pub fn new(
        inner: Box<dyn Device>,
        probe: Arc<DeviceProbe>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        TimedDevice {
            inner,
            probe,
            tracer,
        }
    }
}

impl Device for TimedDevice {
    fn kind(&self) -> DeviceKind {
        self.inner.kind()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn units(&self) -> u32 {
        self.inner.units()
    }

    fn launch_overhead(&self) -> Cycles {
        self.inner.launch_overhead()
    }

    fn query_latency(&self) -> Cycles {
        self.inner.query_latency()
    }

    fn launch(&mut self, spec: LaunchSpec<'_>) -> LaunchOutcome {
        let _span = span(self.tracer.as_ref(), "device.launch", 0);
        let measured = spec.measured;
        let start = Instant::now();
        let outcome = self.inner.launch(spec);
        self.probe.record(start.elapsed(), measured, &[outcome]);
        outcome
    }

    fn launch_batch(
        &mut self,
        entries: &[BatchEntry<'_>],
        targets: &mut [&mut Args],
    ) -> Vec<LaunchOutcome> {
        let _span = span(self.tracer.as_ref(), "device.launch_batch", 0);
        let measured = entries.iter().any(|e| e.measured);
        let start = Instant::now();
        let outcomes = self.inner.launch_batch(entries, targets);
        self.probe.record(start.elapsed(), measured, &outcomes);
        outcomes
    }

    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.inner.set_fault_plan(plan);
    }

    fn set_budget_policy(&mut self, policy: Option<BudgetPolicy>) {
        self.inner.set_budget_policy(policy);
    }

    fn budget_policy(&self) -> Option<BudgetPolicy> {
        self.inner.budget_policy()
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inner.fault_plan()
    }

    fn set_observer(&mut self, obs: Option<Arc<EventSink>>) {
        self.inner.set_observer(obs);
    }

    fn observer(&self) -> Option<&Arc<EventSink>> {
        self.inner.observer()
    }

    fn stream_end(&self, stream: StreamId) -> Cycles {
        self.inner.stream_end(stream)
    }

    fn earliest_unit_free(&self) -> Cycles {
        self.inner.earliest_unit_free()
    }

    fn busy_until(&self) -> Cycles {
        self.inner.busy_until()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Instruments of a traced pass: device counters and spans.
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    /// Counters of every decorated device.
    pub probe: Arc<DeviceProbe>,
    /// Span recorder.
    pub tracer: Arc<Tracer>,
}

/// Builds the benchmark's device for `target`: the default CPU or Kepler
/// GPU model with a 1-thread functional executor (peak RSS repeats within
/// 0.1% at 1 thread, but not at 2). With instruments, construction is
/// timed and the device is wrapped in a [`TimedDevice`].
pub fn device(target: Target, instruments: Option<&Instruments>) -> Box<dyn Device> {
    let build = || -> Box<dyn Device> {
        match target {
            Target::Cpu => Box::new(CpuDevice::new(CpuConfig {
                threads: 1,
                ..CpuConfig::default()
            })),
            Target::Gpu => Box::new(GpuDevice::new(GpuConfig {
                threads: 1,
                ..GpuConfig::kepler_k20c()
            })),
        }
    };
    let Some(i) = instruments else {
        return build();
    };
    let _span = i.tracer.span("device.create", 0);
    let start = Instant::now();
    let inner = build();
    i.probe
        .create_ns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(start.elapsed().as_nanos() as u64);
    Box::new(TimedDevice::new(
        inner,
        i.probe.clone(),
        Some(i.tracer.clone()),
    ))
}
