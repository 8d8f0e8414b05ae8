//! One pass of each workload. A pass runs in a process of its own, so its
//! peak RSS and the program's process-wide buffer address allocator start
//! fresh: every pass of a build computes the same virtual timeline.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dysel_core::{
    journal_path, DeviceFactory, DyselError, LaunchOptions, LaunchOutcome, LaunchReport,
    LaunchService, PruneLevel, Runtime, RuntimeConfig, ServiceConfig, SubmitError, TenantId,
    Ticket, VerifyLevel,
};
use dysel_kernel::{Args, Orchestration};
use dysel_workloads::{Target, Workload};

use crate::inputs::{self, Submission};
use crate::probe::{self, span, DeviceProbe, Instruments, Span, Tracer};
use crate::report::{median, peak_rss_mb, percentile, PassResult, Selections};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 18 audit-suite inputs at paper sizes, once per target.
    Paper,
    /// The same families at the small end, first launches only.
    Select,
    /// A multi-tenant launch service under an open then a closed loop.
    Service,
}

impl Kind {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Kind; 3] = [Kind::Paper, Kind::Select, Kind::Service];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::Select => "select",
            Kind::Service => "service",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Service shards: the reference box's core count, fixed so the workload
/// is the same on any machine.
pub const SHARDS: usize = 2;
/// Per-shard queue capacity.
pub const QUEUE_CAPACITY: usize = 64;
/// Closed-loop submissions in flight; below the queue capacity, so the
/// closed phase can never be refused.
pub const CLOSED_IN_FLIGHT: usize = 8;
/// Closed-loop repetitions per pass, each on a fresh service.
pub const CLOSED_REPS: usize = 3;
/// Open-loop submission rate, launches per second.
pub const OPEN_RATE: f64 = 40.0;
/// Open-loop latency limit; slower launches count against `ok_frac`.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Threads the load generator uses.
pub const LOADGEN_THREADS: usize = 1;
/// Set-up repetitions per pass on the workloads whose set-up is short.
const SETUP_REPS: usize = 3;
/// The orchestrations `select` cycles through. Each profiles once per
/// variant: with more repetitions, swap-mode profiling runs every
/// repetition of a slice into the same sandbox without restoring it, so a
/// kernel that accumulates into its output (histogram) counts the
/// winner's slice several times and the launch returns a wrong output.
const SELECT_OPTIONS: [Orchestration; 2] = [Orchestration::Sync, Orchestration::Async];
/// The layers whose self time traced passes report.
pub const LAYERS: [&str; 7] = [
    "bench",
    "workloads",
    "device",
    "runtime",
    "service",
    "persist",
    "loadgen",
];

/// Runs one pass of `kind`. With `instruments`, every device is decorated
/// and every layer call is spanned. `state_dir` receives the service's
/// state files.
///
/// # Errors
///
/// A pass that disagrees with itself on a deterministic figure.
pub fn run(
    kind: Kind,
    seed: u64,
    instruments: Option<&Instruments>,
    state_dir: &Path,
) -> Result<PassResult, String> {
    let tracer = instruments.map(|i| &i.tracer);
    let mut r = {
        let _pass = span(tracer, "bench.pass", 0);
        match kind {
            Kind::Paper | Kind::Select => batch_pass(kind, seed, instruments),
            Kind::Service => service_pass(seed, instruments, state_dir)?,
        }
    };
    r.peak_rss_mb = peak_rss_mb();
    if let Some(i) = instruments {
        device_layers(&mut r, &i.probe);
        for (layer, secs) in self_times(&i.tracer.spans()) {
            r.layers.insert(format!("self.{layer}_s"), secs);
        }
    }
    Ok(r)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_ms(durations: &[Duration]) -> f64 {
    median(&durations.iter().map(|&d| ms(d)).collect::<Vec<_>>())
}

/// Times `f`.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn device_layers(r: &mut PassResult, probe: &DeviceProbe) {
    let busy = probe.busy();
    for (name, value) in [
        ("device.busy_s", secs(busy)),
        ("device.profile_busy_s", secs(probe.profile_busy())),
        (
            "device.units_per_ms",
            probe.units() as f64 / ms(busy).max(1e-9),
        ),
        ("device.create_ms", median_ms(&probe.create_times())),
    ] {
        r.layers.insert(name.to_owned(), value);
    }
    r.exact.insert("device.units".to_owned(), probe.units());
    r.exact.insert("device.calls".to_owned(), probe.calls());
}

fn runtime_layers(r: &mut PassResult, s: &Selections) {
    let executed = (s.total_units + s.wasted_units).max(1) as f64;
    for (name, value) in [
        ("runtime.profiled_variants", s.profiled_variants as f64),
        ("runtime.wasted_unit_frac", s.wasted_units as f64 / executed),
        (
            "runtime.extra_space_mb",
            s.max_extra_space_bytes as f64 / (1024.0 * 1024.0),
        ),
        (
            "runtime.cache_hit_frac",
            s.cache_hits as f64 / s.launches.max(1) as f64,
        ),
    ] {
        r.layers.insert(name.to_owned(), value);
    }
}

/// Self time per layer: each span's duration minus the part its child
/// spans cover, summed by layer, in seconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Runs `f`, turning a panic into `None` so one bad launch cannot end the
/// run: it is counted as failed instead.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Shared state of the two batch workloads.
struct Batch<'a> {
    instruments: Option<&'a Instruments>,
    r: PassResult,
    sel: Selections,
    check: Duration,
    register: Vec<Duration>,
    runtime_self: Duration,
}

impl Batch<'_> {
    /// Launches `w` once on a fresh device and runtime, then checks the
    /// output against the host reference. Returns the time to build the
    /// device and runtime (registration included) and the launch time.
    fn launch_fresh(
        &mut self,
        name: &str,
        w: &Workload,
        target: Target,
        config: &RuntimeConfig,
        opts: &LaunchOptions,
    ) -> (Duration, Duration) {
        let tracer = self.instruments.map(|i| &i.tracer);
        self.r.attempted += 1;
        let _launch = span(tracer, "bench.launch", self.r.attempted);
        let (rt, built) = timed(|| {
            let dev = probe::device(target, self.instruments);
            let _span = span(tracer, "runtime.register", 0);
            let (rt, took) = timed(|| {
                let mut rt = Runtime::with_config(dev, config.clone());
                rt.add_kernels(w.signature.clone(), w.variants(target).to_vec());
                rt
            });
            self.register.push(took);
            rt
        });
        let mut rt = rt;
        let mut args = w.fresh_args();
        let busy_before = self.instruments.map(|i| i.probe.busy());
        let (result, took) = timed(|| {
            let _span = span(tracer, "runtime.launch", 0);
            guarded(|| rt.launch(&w.signature, &mut args, w.total_units, opts))
        });
        if let (Some(i), Some(before)) = (self.instruments, busy_before) {
            self.runtime_self += took.saturating_sub(i.probe.busy() - before);
        }
        match result {
            Some(Ok(report)) => {
                self.sel.record(name, w.total_units, &report);
                if self.verify(w, &args) {
                    self.r.ok += 1;
                }
            }
            Some(Err(e)) => {
                eprintln!("perfbench: launch of {name} on {target} failed: {e}");
                self.r.failed += 1;
            }
            None => self.r.failed += 1,
        }
        (built, took)
    }

    /// Checks one output against its host reference; counts a mismatch.
    fn verify(&mut self, w: &Workload, args: &Args) -> bool {
        let _span = span(self.instruments.map(|i| &i.tracer), "workloads.check", 0);
        let (verdict, took) = timed(|| guarded(|| w.verify(args)));
        self.check += took;
        match verdict {
            Some(Ok(())) => true,
            Some(Err(e)) => {
                eprintln!("perfbench: wrong output from {}: {e}", w.name);
                self.r.wrong += 1;
                false
            }
            None => {
                self.r.wrong += 1;
                false
            }
        }
    }
}

/// `paper`: each input on each target, on a fresh runtime with the
/// paper-default configuration; `wall_s` is the sum of the launches, and
/// device and runtime construction count as set-up.
///
/// `select`: each small input on each target under every orchestration,
/// each launch a kernel's first on a fresh device and
/// runtime (lenient verification, pruning audit); `wall_s` includes the
/// construction, since that is part of every first launch, and set-up is
/// input generation alone.
fn batch_pass(kind: Kind, seed: u64, instruments: Option<&Instruments>) -> PassResult {
    let tracer = instruments.map(|i| &i.tracer);
    let (sizes, reps, config, options): (_, _, _, &[Orchestration]) = match kind {
        Kind::Paper => (
            inputs::PAPER,
            1,
            RuntimeConfig::default(),
            &[Orchestration::Async],
        ),
        _ => (
            inputs::SELECT,
            SETUP_REPS,
            RuntimeConfig {
                verify: VerifyLevel::Lenient,
                prune: PruneLevel::Audit,
                ..RuntimeConfig::default()
            },
            &SELECT_OPTIONS,
        ),
    };
    let mut gens = Vec::new();
    let mut suite = Vec::new();
    for _ in 0..reps {
        let _span = span(tracer, "workloads.gen", 0);
        drop(std::mem::take(&mut suite));
        let (s, took) = timed(|| inputs::suite(&sizes, seed));
        suite = s;
        gens.push(took);
    }
    let mut b = Batch {
        instruments,
        r: PassResult::default(),
        sel: Selections::default(),
        check: Duration::ZERO,
        register: Vec::new(),
        runtime_self: Duration::ZERO,
    };
    let mut construct = Duration::ZERO;
    let mut wall = Duration::ZERO;
    for (name, w) in &suite {
        for target in [Target::Cpu, Target::Gpu] {
            for &orchestration in options {
                let opts = LaunchOptions::new().with_orchestration(orchestration);
                let (built, launched) = b.launch_fresh(name, w, target, &config, &opts);
                construct += built;
                let took = match kind {
                    Kind::Paper => launched,
                    _ => built + launched,
                };
                wall += took;
                b.r.launch_ms.push(ms(took));
            }
        }
    }
    let gen = median(&gens.iter().map(|&d| secs(d)).collect::<Vec<_>>());
    let mut r = std::mem::take(&mut b.r);
    r.wall_s = secs(wall);
    r.setup_s = match kind {
        Kind::Paper => gen + secs(construct),
        _ => gen,
    };
    if instruments.is_some() {
        runtime_layers(&mut r, &b.sel);
        for (name, value) in [
            ("runtime.register_ms", median_ms(&b.register)),
            ("runtime.self_s", secs(b.runtime_self)),
            ("workloads.gen_s", gen),
            ("workloads.check_s", secs(b.check)),
        ] {
            r.layers.insert(name.to_owned(), value);
        }
    }
    r.set_selections(&b.sel);
    r
}

/// The service's inputs, one set per tenant of both phases (index
/// `tenant - 1`), each generated from its own seed: every stream profiles
/// its own data. Every family but sgemm and cutcp, sized by
/// [`inputs::SERVICE`]: one launch of those two families takes 40-180 ms
/// at its profiling threshold, several open-loop intervals, and would set
/// the tail latency through head-of-line blocking.
fn service_inputs(seed: u64) -> Vec<Vec<(&'static str, Workload)>> {
    (1..=2 * inputs::TENANTS)
        .map(|tenant| {
            inputs::suite(&inputs::SERVICE, seed ^ (u64::from(tenant) << 32))
                .into_iter()
                .filter(|(name, _)| !name.starts_with("sgemm") && !name.starts_with("cutcp"))
                .collect()
        })
        .collect()
}

/// The input one submission launches.
fn input_of<'a>(
    inputs: &'a [Vec<(&'static str, Workload)>],
    s: Submission,
) -> &'a (&'static str, Workload) {
    &inputs[s.tenant as usize - 1][s.input]
}

/// How often the load generator checks for completions while it waits.
const POLL: Duration = Duration::from_millis(1);

/// One accepted submission awaiting its outcome.
struct InFlight {
    index: usize,
    due: Instant,
    ticket: Ticket,
}

/// What became of one accepted submission.
struct Done {
    index: usize,
    latency: Duration,
    args: Args,
    result: Result<LaunchReport, DyselError>,
}

/// The load generator: one thread that submits on a schedule (open loop)
/// or with a fixed number in flight (closed loop) and collects outcomes.
struct LoadGen<'a> {
    inputs: &'a [Vec<(&'static str, Workload)>],
    tracer: Option<&'a Arc<Tracer>>,
    in_flight: VecDeque<InFlight>,
    done: Vec<Done>,
    submit: Vec<Duration>,
    late: Vec<Duration>,
    refused: u64,
    busy: u64,
}

impl LoadGen<'_> {
    fn submit(&mut self, svc: &LaunchService, index: usize, s: Submission, due: Instant) {
        let (name, w) = input_of(self.inputs, s);
        let _span = span(self.tracer, "service.submit", index as u64 + 1);
        let start = Instant::now();
        self.late.push(start.saturating_duration_since(due));
        let result = svc.submit(
            TenantId(s.tenant),
            name,
            w.fresh_args(),
            w.total_units,
            &LaunchOptions::new(),
        );
        self.submit.push(start.elapsed());
        match result {
            Ok(ticket) => self.in_flight.push_back(InFlight { index, due, ticket }),
            Err(e) => {
                eprintln!("perfbench: submission {index} refused: {e}");
                self.refused += 1;
                self.busy += u64::from(matches!(e, SubmitError::Busy { .. }));
            }
        }
    }

    fn complete(&mut self, index: usize, due: Instant, (args, result): LaunchOutcome) {
        self.done.push(Done {
            index,
            latency: Instant::now().saturating_duration_since(due),
            args,
            result,
        });
    }

    /// Collects every finished launch without blocking.
    fn harvest(&mut self) {
        for f in std::mem::take(&mut self.in_flight) {
            let (index, due) = (f.index, f.due);
            match f.ticket.try_wait() {
                Ok(out) => self.complete(index, due, out),
                Err(ticket) => self.in_flight.push_back(InFlight { index, due, ticket }),
            }
        }
    }

    /// Waits for the oldest launch in flight, until `until` at most
    /// (`None`: until it finishes).
    fn wait_oldest(&mut self, until: Option<Instant>) {
        let Some(f) = self.in_flight.pop_front() else {
            if let Some(until) = until {
                std::thread::sleep(until.saturating_duration_since(Instant::now()));
            }
            return;
        };
        let _span = span(self.tracer, "loadgen.wait", 0);
        let (index, due) = (f.index, f.due);
        let outcome = match until {
            Some(until) => f.ticket.wait_deadline(until),
            None => Ok(f.ticket.wait()),
        };
        match outcome {
            Ok(out) => self.complete(index, due, out),
            Err(ticket) => self.in_flight.push_front(InFlight { index, due, ticket }),
        }
    }

    /// Submits `plan[i]` at `start + i / OPEN_RATE` regardless of progress
    /// and waits for every launch; returns the phase's duration.
    fn open_loop(&mut self, svc: &LaunchService, plan: &[Submission]) -> Duration {
        let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
        let start = Instant::now();
        let mut next = 0;
        loop {
            let due = start + interval.mul_f64(next as f64);
            if next < plan.len() && Instant::now() >= due {
                self.submit(svc, next, plan[next], due);
                next += 1;
                continue;
            }
            self.harvest();
            if next == plan.len() && self.in_flight.is_empty() {
                return start.elapsed();
            }
            let poll = Instant::now() + POLL;
            self.wait_oldest(Some(if next < plan.len() {
                due.min(poll)
            } else {
                poll
            }));
        }
    }

    /// Keeps [`CLOSED_IN_FLIGHT`] launches of `plan` in flight until all
    /// finished; returns the phase's duration. Submission indices start
    /// at `first`.
    fn closed_loop(&mut self, svc: &LaunchService, plan: &[Submission], first: usize) -> Duration {
        let start = Instant::now();
        let mut next = 0;
        while next < plan.len() || !self.in_flight.is_empty() {
            while next < plan.len() && self.in_flight.len() < CLOSED_IN_FLIGHT {
                self.submit(svc, first + next, plan[next], Instant::now());
                next += 1;
            }
            self.wait_oldest(None);
        }
        start.elapsed()
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The service pass's fixed parts: device factory, configuration, state
/// files and registered inputs.
struct Bench<'a> {
    factory: DeviceFactory,
    config: ServiceConfig,
    state: PathBuf,
    tracer: Option<&'a Arc<Tracer>>,
}

impl Bench<'_> {
    /// A fresh service with `suite`'s signatures registered and no state
    /// on disk.
    fn start(&self, suite: &[(&'static str, Workload)]) -> LaunchService {
        self.clean();
        let _span = span(self.tracer, "service.new", 0);
        let svc = LaunchService::new(self.factory.clone(), self.config.clone());
        for (name, w) in suite {
            svc.register(*name, w.variants(Target::Cpu).to_vec());
        }
        svc
    }

    fn journal(&self) -> PathBuf {
        journal_path(&self.state)
    }

    fn clean(&self) {
        let _ = std::fs::remove_file(&self.state);
        let _ = std::fs::remove_file(self.journal());
    }
}

/// Checks one service outcome against its host reference: `Some(true)`
/// when correct, `Some(false)` when wrong, `None` when the launch failed.
fn check_done(
    inputs: &[Vec<(&'static str, Workload)>],
    plan: &inputs::LoadPlan,
    d: &Done,
    tracer: Option<&Arc<Tracer>>,
    check: &mut Duration,
) -> Option<bool> {
    let w = &input_of(inputs, plan_entry(plan, d.index)).1;
    if let Err(e) = &d.result {
        eprintln!("perfbench: launch {} failed: {e}", d.index);
        return None;
    }
    let _span = span(tracer, "workloads.check", 0);
    let (verdict, took) = timed(|| guarded(|| w.verify(&d.args)));
    *check += took;
    let good = matches!(verdict, Some(Ok(())));
    if !good {
        eprintln!("perfbench: wrong output from {} ({verdict:?})", w.name);
    }
    Some(good)
}

/// `service`: set-up (inputs, service construction, registration) is
/// repeated and its median reported. Phase 1, the open loop, gives the
/// latencies. Phase 2, the closed loop on tenants phase 1 never used,
/// runs [`CLOSED_REPS`] times, each on a fresh service; it gives `wall_s`
/// and every deterministic figure, which all repetitions must agree on.
fn service_pass(
    seed: u64,
    instruments: Option<&Instruments>,
    state_dir: &Path,
) -> Result<PassResult, String> {
    let tracer = instruments.map(|i| &i.tracer);
    let lane_instruments = instruments.cloned();
    let state = state_dir.join(format!("service-state-{}", std::process::id()));
    let bench = Bench {
        factory: Arc::new(move || probe::device(Target::Cpu, lane_instruments.as_ref())),
        config: ServiceConfig {
            shards: SHARDS,
            queue_capacity: QUEUE_CAPACITY,
            runtime: RuntimeConfig {
                profile_once_per_signature: true,
                ..RuntimeConfig::default()
            },
            state_path: Some(state.clone()),
            checkpoint_every: u64::MAX,
            ..ServiceConfig::default()
        },
        state,
        tracer,
    };
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Dropping the previous service joins its threads first.
        drop(built.take());
        let start = Instant::now();
        let (inputs, gen) = timed(|| {
            let _span = span(tracer, "workloads.gen", 0);
            service_inputs(seed)
        });
        let svc = bench.start(&inputs[0]);
        setups.push(secs(start.elapsed()));
        gens.push(secs(gen));
        built = Some((svc, inputs));
    }
    let (svc, inputs) = built.expect("at least one set-up repetition");
    let plan = inputs::load_plan(seed, inputs[0].len());
    let mut load = LoadGen {
        inputs: &inputs,
        tracer,
        in_flight: VecDeque::new(),
        done: Vec::new(),
        submit: Vec::new(),
        late: Vec::new(),
        refused: 0,
        busy: 0,
    };
    let mut r = PassResult {
        setup_s: median(&setups),
        attempted: (plan.open.len() + CLOSED_REPS * (plan.closed.len() + 1)) as u64,
        ..PassResult::default()
    };
    let mut check = Duration::ZERO;

    let busy_before = instruments.map_or(Duration::ZERO, |i| i.probe.busy());
    let open_time = load.open_loop(&svc, &plan.open);
    let lane_busy = instruments.map_or(Duration::ZERO, |i| i.probe.busy()) - busy_before;
    drop(svc);
    let late = std::mem::take(&mut load.late);
    // Latency per open-loop submission, in plan order; infinite when the
    // submission was refused or its launch failed.
    r.launch_ms = vec![f64::INFINITY; plan.open.len()];
    for d in std::mem::take(&mut load.done) {
        match check_done(&inputs, &plan, &d, tracer, &mut check) {
            Some(good) => {
                r.launch_ms[d.index] = ms(d.latency);
                r.wrong += u64::from(!good);
                r.ok += u64::from(good && ms(d.latency) <= LATENCY_LIMIT_MS);
            }
            None => r.failed += 1,
        }
    }

    let mut walls = Vec::new();
    let mut saves = Vec::new();
    let mut first: Option<(Selections, u64)> = None;
    for _ in 0..CLOSED_REPS {
        let svc = bench.start(&inputs[0]);
        walls.push(load.closed_loop(&svc, &plan.closed, plan.open.len()));
        let journal_bytes = file_len(&bench.journal());
        let (saved, took) = timed(|| {
            let _span = span(tracer, "persist.save", 0);
            svc.save_state()
        });
        drop(svc);
        bench.clean();
        saves.push(took);
        match saved {
            Ok(()) => r.ok += 1,
            Err(e) => {
                eprintln!("perfbench: save_state failed: {e}");
                r.failed += 1;
            }
        }
        let mut done = std::mem::take(&mut load.done);
        done.sort_by_key(|d| (plan_entry(&plan, d.index), d.index));
        let mut sel = Selections::default();
        for d in &done {
            match check_done(&inputs, &plan, d, tracer, &mut check) {
                Some(good) => {
                    r.wrong += u64::from(!good);
                    r.ok += u64::from(good);
                }
                None => r.failed += 1,
            }
            if let Ok(report) = &d.result {
                let s = plan_entry(&plan, d.index);
                let (name, w) = input_of(&inputs, s);
                sel.record(&format!("t{}/{name}", s.tenant), w.total_units, report);
            }
        }
        match &first {
            None => first = Some((sel, journal_bytes)),
            Some((s, j)) if (s, *j) != (&sel, journal_bytes) => {
                return Err("closed-loop repetitions disagree on their selections".to_owned());
            }
            Some(_) => {}
        }
    }
    let (sel, journal_bytes) = first.expect("at least one closed-loop repetition");
    r.failed += load.refused;
    r.wall_s = secs(walls.iter().copied().min().unwrap_or_default());
    r.set_selections(&sel);
    r.exact.insert("journal.bytes".to_owned(), journal_bytes);
    if instruments.is_some() {
        runtime_layers(&mut r, &sel);
        let late_ms: Vec<f64> = late.iter().map(|&d| ms(d)).collect();
        let submit_us: Vec<f64> = load.submit.iter().map(|&d| ms(d) * 1e3).collect();
        let util = secs(lane_busy) / (SHARDS as f64 * secs(open_time)).max(1e-9);
        for (name, value) in [
            ("service.submit_us", median(&submit_us)),
            ("service.util", util),
            ("service.busy_refusals", load.busy as f64),
            ("persist.save_ms", median_ms(&saves)),
            ("loadgen.late_p99_ms", percentile(&late_ms, 99.0)),
            ("loadgen.threads", LOADGEN_THREADS as f64),
            ("workloads.gen_s", median(&gens)),
            ("workloads.check_s", secs(check)),
        ] {
            r.layers.insert(name.to_owned(), value);
        }
    }
    Ok(r)
}

/// The submission with overall index `index` (open phase first).
fn plan_entry(plan: &inputs::LoadPlan, index: usize) -> Submission {
    plan.open
        .get(index)
        .copied()
        .unwrap_or_else(|| plan.closed[index - plan.open.len()])
}
