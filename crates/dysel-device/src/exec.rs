//! The parallel work-pool executor and the windowed streaming launch engine.
//!
//! The device models price every work-group against *stateful* per-unit
//! cache models and a greedy earliest-free-unit scheduler, so the virtual
//! timeline is an inherently serial computation. Functional execution of
//! the work-groups, however, is pure: a group's outputs and its cost trace
//! depend only on the pre-launch buffer contents and the group's unit
//! range. The engine exploits exactly that split with a windowed stream:
//!
//! * **Functional execution (parallel).** A launch's groups are partitioned
//!   into a fixed number of contiguous *spans* (independent of the worker
//!   count), and the spans of every entry of a batch form one canonical
//!   (entry, span) sequence. Each span job clones the pre-launch argument
//!   snapshot (copy-on-write, so inputs are shared), executes its groups,
//!   and records their cost trace into a recycled
//!   [`dysel_kernel::RecordingSink`]. Span jobs go to `std::thread`
//!   workers in sequence order, at most W = 2 x `threads` ahead of the span
//!   the consumer is done with, so no more than W span traces are alive.
//! * **Merge + pricing (serial, canonical order).** The caller consumes
//!   spans strictly in sequence order as they finish: a span's writes are
//!   merged into the real argument buffers, its trace is replayed through
//!   the device's cost sink, per-unit cache state, scheduler and noise
//!   model, and the trace goes straight back to the arena. At one thread
//!   nothing is spawned: each span runs, merges and is priced before the
//!   next one starts.
//!
//! Because spans are consumed in canonical order regardless of which
//! worker produced them when, the same seed yields bit-identical outputs,
//! measurements and schedules at any thread count — the determinism
//! contract the test suite pins at 1, 2 and 8 workers.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

use dysel_kernel::{
    span_bounds, Args, GroupCtx, RecordedTrace, RecordingSink, TraceView, UnitRange, VariantMeta,
};
use dysel_obs::{Event, EventSink, Stage};

use crate::device::{
    BatchEntry, BudgetPolicy, LaunchFailure, LaunchOutcome, LaunchPreemption, LaunchRecord,
    StreamTable,
};
use crate::fault::{FaultKind, FaultPlan};
use crate::noise::NoiseModel;
use crate::sched::UnitPool;
use crate::Cycles;

/// Spans a launch is split into for functional execution. Fixed (not a
/// function of the worker count) so that span boundaries — and therefore
/// merge order and recorded traces — are identical at every thread count.
const SPANS_PER_LAUNCH: usize = 16;

/// A std-only work pool: `threads` workers executing indexed jobs pulled
/// from a shared queue, with results consumed in index order.
///
/// `threads == 0` resolves to [`std::thread::available_parallelism`];
/// `threads == 1` runs jobs inline on the caller thread (no spawning).
///
/// The executor also owns the launch engine's *trace arena*: recorded span
/// traces are returned here after pricing and handed back to the next
/// span jobs, so the record→price→discard cycle stops hitting the
/// allocator once the arena is warm. It keeps at most one window's worth.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    arena: Arc<Mutex<Arena>>,
}

/// Recycled span traces, plus (in tests) how many are checked out.
#[derive(Debug, Default)]
struct Arena {
    free: Vec<RecordedTrace>,
    #[cfg(test)]
    out: usize,
    #[cfg(test)]
    peak_out: usize,
}

impl Executor {
    /// Creates an executor with the given worker count (0 = auto).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Executor {
            threads,
            arena: Arc::new(Mutex::new(Arena::default())),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many jobs of a stream may be in flight: issued to a worker and
    /// not yet finished with by the consumer.
    fn window(&self) -> usize {
        2 * self.threads
    }

    /// Pops a recycled trace from the arena (empty if none is available).
    fn take_trace(&self) -> RecordedTrace {
        let Ok(mut arena) = self.arena.lock() else {
            return RecordedTrace::default();
        };
        #[cfg(test)]
        {
            arena.out += 1;
            arena.peak_out = arena.peak_out.max(arena.out);
        }
        arena.free.pop().unwrap_or_default()
    }

    /// Returns a trace's buffers to the arena for reuse.
    fn recycle_trace(&self, mut trace: RecordedTrace) {
        if let Ok(mut arena) = self.arena.lock() {
            #[cfg(test)]
            {
                arena.out -= 1;
            }
            if arena.free.len() < self.window() {
                trace.clear();
                arena.free.push(trace);
            }
        }
    }

    /// Runs jobs `0..n` across the pool and returns their results in job
    /// order, whichever worker ran which job when.
    pub fn run_ordered<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.stream_ordered(n, f, |results| results.collect())
    }

    /// Runs jobs `0..n` across the pool and hands their results to
    /// `consume` as an iterator in job order. The consumer issues the jobs:
    /// the first window up front, then job `k - 1 + window` once it asks
    /// for result `k` (it is done with every result before `k`), so at
    /// most one window of results is ever alive. At one thread the jobs
    /// run lazily on the caller's thread. A panicking job resurfaces on
    /// the caller's thread at its result.
    fn stream_ordered<T, F, R>(
        &self,
        n: usize,
        f: F,
        consume: impl FnOnce(&mut dyn Iterator<Item = T>) -> R,
    ) -> R
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return consume(&mut (0..n).map(f));
        }
        let w = self.window();
        let (to_workers, issued) = mpsc::channel::<usize>();
        let issued = Mutex::new(issued);
        let (tx, rx) = mpsc::channel();
        thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                let (tx, issued, f) = (tx.clone(), &issued, &f);
                // Workers run issued jobs until the consumer drops `to_workers`.
                scope.spawn(move || {
                    while let Ok(Ok(i)) = issued.lock().map(|jobs| jobs.recv()) {
                        let result = panic::catch_unwind(AssertUnwindSafe(|| f(i)));
                        if tx.send((i, result)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            let issue = move |i: usize| to_workers.send(i).expect("workers hold the queue");
            (0..w.min(n)).for_each(&issue);
            // Issued jobs all lie in `k..k + w`, so their ring slots differ.
            let mut early: Vec<Option<thread::Result<T>>> = (0..w).map(|_| None).collect();
            let mut k = 0;
            consume(&mut std::iter::from_fn(move || {
                if k == n {
                    return None;
                }
                if k > 0 && k - 1 + w < n {
                    issue(k - 1 + w);
                }
                while early[k % w].is_none() {
                    let (i, result) = rx.recv().expect("issued jobs report");
                    early[i % w] = Some(result);
                }
                let result = early[k % w].take().expect("filled above");
                k += 1;
                Some(result.unwrap_or_else(|p| panic::resume_unwind(p)))
            }))
        })
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(0)
    }
}

/// Work-groups in `e`'s launch.
fn group_count(e: &BatchEntry<'_>) -> u64 {
    e.units.len().div_ceil(u64::from(e.meta.wa_factor))
}

/// Executes work-groups `lo..hi` of `e` against `args`: the mutated
/// arguments and the span's trace, one closed group per work-group (walk
/// them with [`RecordedTrace::groups`]).
fn run_span(
    exec: &Executor,
    e: &BatchEntry<'_>,
    (lo, hi): (u64, u64),
    mut args: Args,
) -> (Args, RecordedTrace) {
    let mut sink = RecordingSink::reusing(exec.take_trace());
    let per = u64::from(e.meta.wa_factor);
    for g in lo..hi {
        // The group `UnitRange::groups` yields at index `g`.
        let start = e.units.start + g * per;
        let units = UnitRange::new(start, (start + per).min(e.units.end));
        let mut ctx = GroupCtx::new(
            g,
            units,
            e.meta.group_size,
            &args,
            &e.meta.placements,
            &mut sink,
        );
        e.kernel.run_group(&mut ctx, &mut args);
        drop(ctx);
        sink.end_group();
    }
    (args, sink.into_trace())
}

/// Folds executed snapshots' output writes into `target` in order, then
/// tampers with every element they wrote when `corrupt` says so
/// (`Some(poison)`).
///
/// Workers execute against a snapshot, so every group observes the
/// *pre-launch* buffer state (the same guarantee a real accelerator gives
/// concurrent work-groups). Writes are folded back by comparing each
/// executed snapshot against the pristine one, per declared output:
/// disjoint outputs (`ir.output_disjoint`, no atomics) have changed
/// elements overwrite the target in span order — bit-identical to serial
/// execution, since each element is written by at most one group;
/// overlapping/atomic outputs add the element-wise *delta* with wrapping
/// arithmetic, which composes exactly for the commutative accumulations
/// (e.g. histogram bin counts) such kernels perform.
fn commit_outputs(
    target: &mut Args,
    executed: &[Args],
    pristine: &Args,
    meta: &VariantMeta,
    corrupt: Option<bool>,
) {
    let mut outs = meta.ir.output_args.clone();
    outs.retain(|&i| i < target.len());
    let additive = meta.ir.has_global_atomics || !meta.ir.output_disjoint;
    for ex in executed {
        target
            .merge_outputs(ex, pristine, &outs, additive)
            .expect("snapshot arity");
    }
    for ex in executed.iter().filter(|_| corrupt.is_some()) {
        let poison = corrupt == Some(true);
        target
            .corrupt_changed(ex, pristine, &outs, poison)
            .expect("snapshot arity");
    }
}

/// Device-specific trace pricing: one work-group's recorded trace against
/// the stateful cost model of execution unit `unit`.
pub(crate) trait PriceModel {
    /// The group's execution cost on `unit`.
    fn group_cost(&mut self, unit: usize, meta: &VariantMeta, trace: TraceView<'_>) -> Cycles;
}

/// The engine's serial state: everything pricing and scheduling mutate,
/// touched only in canonical order.
struct Serial<'a, M> {
    streams: &'a mut StreamTable,
    pool: &'a mut UnitPool,
    exec_noise: &'a mut NoiseModel,
    meas_noise: &'a mut NoiseModel,
    launch_overhead: Cycles,
    model: &'a mut M,
}

/// One launch's schedule, accumulated group by group: the bookkeeping the
/// streamed and the budgeted paths share.
#[derive(Default)]
struct LaunchAcc {
    /// When the launch's stream lets it start.
    gate: Cycles,
    first_start: Option<Cycles>,
    /// The last group's end; the gate while no group has run.
    last_end: Cycles,
    busy: Cycles,
    groups: u64,
}

impl LaunchAcc {
    fn open<M>(s: &Serial<'_, M>, e: &BatchEntry<'_>) -> Self {
        let gate = s.streams.gate(e.stream, e.not_before + s.launch_overhead);
        LaunchAcc {
            gate,
            last_end: gate,
            ..LaunchAcc::default()
        }
    }

    /// Prices one recorded group on the earliest-free unit and occupies
    /// that unit with it — unless the launch's spend would then exceed
    /// `budget`. Returns whether the group was committed.
    fn place<M: PriceModel>(
        &mut self,
        s: &mut Serial<'_, M>,
        meta: &VariantMeta,
        view: TraceView<'_>,
        slow: u64,
        budget: Option<Cycles>,
    ) -> bool {
        let unit = s.pool.earliest_unit();
        let cost = s.exec_noise.perturb(s.model.group_cost(unit, meta, view)) * slow;
        if budget.is_some_and(|b| self.busy + cost > b) {
            return false;
        }
        let p = s.pool.assign_to(unit, cost, self.gate);
        self.first_start = Some(self.first_start.map_or(p.start, |t| t.min(p.start)));
        self.last_end = self.last_end.max(p.end);
        self.busy += cost;
        self.groups += 1;
        true
    }

    /// Completes the launch: advances its stream and draws the measurement.
    fn finish<M>(self, e: &BatchEntry<'_>, s: &mut Serial<'_, M>) -> LaunchOutcome {
        s.streams.record(e.stream, self.last_end);
        LaunchOutcome::Done(LaunchRecord {
            start: self.first_start.unwrap_or(self.gate),
            end: self.last_end,
            groups: self.groups,
            busy: self.busy,
            measured: e.measured.then(|| s.meas_noise.perturb(self.busy)),
        })
    }
}

/// The streamed batch launch shared by the device models: functional
/// execution of every entry's spans on the pool, consumed in canonical
/// order by one serial pass that merges, prices, schedules and measures.
///
/// When a [`FaultPlan`] is installed, each entry consults it — in issue
/// order, so decisions are independent of the worker-thread count — before
/// anything runs. An injected `LaunchError` skips the entry entirely (no
/// functional execution, no noise draws, no stream or unit-pool advance);
/// `Hang` multiplies every priced group cost; `WrongOutput`/`Poison`
/// tamper with exactly the elements the launch wrote, after the merge —
/// the one case where span snapshots outlive their span. The healthy path
/// with no plan costs one `Option` check per batch.
///
/// An entry runs under a cycle budget when it carries an explicit
/// [`BatchEntry::budget`], or when a [`BudgetPolicy`] is installed, the
/// entry is measured, and an earlier measured entry of this batch already
/// established a best-so-far baseline (`budget = deadline_factor x best`,
/// tightening as better measurements arrive). Eligibility must be
/// decidable before pricing, so while a policy is installed every measured
/// entry stays out of the span stream and runs inline
/// ([`run_budgeted_entry`]), whether or not a baseline ends up binding it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_batch_engine<M: PriceModel>(
    exec: &Executor,
    entries: &[BatchEntry<'_>],
    targets: &mut [&mut Args],
    streams: &mut StreamTable,
    pool: &mut UnitPool,
    exec_noise: &mut NoiseModel,
    meas_noise: &mut NoiseModel,
    launch_overhead: Cycles,
    model: &mut M,
    faults: Option<&mut FaultPlan>,
    budget_policy: Option<BudgetPolicy>,
    obs: Option<&EventSink>,
) -> Vec<LaunchOutcome> {
    // Fault decisions, one per entry in issue order (counters tick here).
    let decisions: Vec<Option<FaultKind>> = match faults {
        Some(plan) => entries.iter().map(|e| plan.decide(&e.meta.name)).collect(),
        None => vec![None; entries.len()],
    };
    // One pristine snapshot per distinct target (cheap: payloads are
    // shared copy-on-write until a worker writes).
    let pristine: Vec<Args> = targets.iter().map(|t| (**t).clone()).collect();

    // The span stream: every span of every entry that neither is refused
    // (never executes) nor runs inline (must be able to stop mid-launch).
    let refused = |ei: usize| decisions[ei] == Some(FaultKind::LaunchError);
    let inline = |e: &BatchEntry<'_>| e.budget.is_some() || (budget_policy.is_some() && e.measured);
    let spans_of = |e: &BatchEntry<'_>| span_bounds(group_count(e) as usize, SPANS_PER_LAUNCH);
    let mut jobs: Vec<(usize, (u64, u64))> = Vec::new();
    for (ei, e) in entries
        .iter()
        .enumerate()
        .filter(|&(ei, e)| !refused(ei) && !inline(e))
    {
        jobs.extend(spans_of(e).map(|(lo, hi)| (ei, (lo as u64, hi as u64))));
    }
    let run_job = |j: usize| {
        let (ei, span) = jobs[j];
        let e = &entries[ei];
        run_span(exec, e, span, pristine[e.target].clone())
    };

    let mut s = Serial {
        streams,
        pool,
        exec_noise,
        meas_noise,
        launch_overhead,
        model,
    };
    exec.stream_ordered(jobs.len(), run_job, |spans| {
        let mut best_measured: Option<Cycles> = None;
        let mut outcomes = Vec::with_capacity(entries.len());
        for (ei, e) in entries.iter().enumerate() {
            let (slow, corrupt) = match decisions[ei] {
                Some(FaultKind::Hang(factor)) => (factor.max(1), None),
                Some(FaultKind::WrongOutput) => (1, Some(false)),
                Some(FaultKind::Poison) => (1, Some(true)),
                _ => (1, None),
            };
            let (target, pristine) = (&mut *targets[e.target], &pristine[e.target]);
            let outcome = if refused(ei) {
                // Failed launch: nothing ran, nothing advances. The host
                // observes the failure once the stream would have started.
                LaunchOutcome::Failed(LaunchFailure {
                    at: LaunchAcc::open(&s, e).gate,
                    transient: true,
                })
            } else if inline(e) {
                let budget = e.budget.or_else(|| match (budget_policy, best_measured) {
                    (Some(p), Some(best)) if e.measured => Some(p.budget_for(best)),
                    _ => None,
                });
                run_budgeted_entry(exec, e, target, pristine, &mut s, slow, corrupt, budget)
            } else {
                let mut acc = LaunchAcc::open(&s, e);
                let mut kept = Vec::new();
                for (args, trace) in (&mut *spans).take(spans_of(e).count()) {
                    for view in trace.groups() {
                        acc.place(&mut s, e.meta, view, slow, None);
                    }
                    exec.recycle_trace(trace);
                    // Tampering needs every span's snapshot; a healthy
                    // span's is merged and dropped at once.
                    match corrupt {
                        Some(_) => kept.push(args),
                        None => commit_outputs(target, &[args], pristine, e.meta, None),
                    }
                }
                commit_outputs(target, &kept, pristine, e.meta, corrupt);
                acc.finish(e, &mut s)
            };
            if let Some(m) = outcome.done().and_then(|r| r.measured) {
                best_measured = Some(best_measured.map_or(m, |b| b.min(m)));
            }
            // Emission happens here, in the serial pass, so device events
            // carry canonical sequence numbers at any worker count.
            if let Some(sink) = obs {
                emit_outcome(sink, e, &outcome);
            }
            outcomes.push(outcome);
        }
        outcomes
    })
}

/// Emits the device-level event for one priced launch outcome.
fn emit_outcome(sink: &EventSink, e: &BatchEntry<'_>, outcome: &LaunchOutcome) {
    let base = |stage: Stage| {
        Event::new(stage)
            .variant(&e.meta.name)
            .stream(e.stream.0)
            .units(e.units.start, e.units.end)
    };
    sink.emit(match outcome {
        LaunchOutcome::Done(rec) => {
            let measured = rec
                .measured
                .map_or(String::new(), |m| format!(" measured={}", m.0));
            let detail = format!("groups={} busy={}{measured}", rec.groups, rec.busy.0);
            base(Stage::Enqueue)
                .span(rec.start.0, rec.end.0)
                .detail(detail)
        }
        LaunchOutcome::Failed(f) => base(Stage::LaunchError).at(f.at.0).detail(if f.transient {
            "transient launch failure"
        } else {
            "permanent launch failure"
        }),
        LaunchOutcome::Preempted(p) => base(Stage::Preempt).at(p.at.0).detail(format!(
            "groups_done={} cycles_spent={}",
            p.groups_done, p.cycles_spent.0
        )),
    });
}

/// Executes one budget-eligible entry inline: each group runs
/// functionally against a private snapshot, is priced, and is committed
/// only if the accumulated spend stays within `budget`. The first group
/// that would overflow preempts the launch before it occupies a unit, so
/// `cycles_spent <= budget` holds strictly and a `hang*64` variant costs
/// at most the budget instead of 64x the slice. A preempted entry discards
/// its snapshot (target buffers untouched) and does not advance its
/// stream; the unit pool keeps only the committed groups' occupancy. The
/// groups run in the streamed path's canonical order and draw noise
/// identically, so an entry that *completes* within budget is
/// bit-identical to the streamed path, and every budget decision is made
/// in priced virtual cycles, independent of the worker count.
#[allow(clippy::too_many_arguments)]
fn run_budgeted_entry<M: PriceModel>(
    exec: &Executor,
    e: &BatchEntry<'_>,
    target: &mut Args,
    pristine: &Args,
    s: &mut Serial<'_, M>,
    slow: u64,
    corrupt: Option<bool>,
    budget: Option<Cycles>,
) -> LaunchOutcome {
    let mut acc = LaunchAcc::open(s, e);
    let mut work = pristine.clone();
    for g in 0..group_count(e) {
        let (args, trace) = run_span(exec, e, (g, g + 1), work);
        work = args;
        let placed = trace
            .groups()
            .all(|view| acc.place(s, e.meta, view, slow, budget));
        exec.recycle_trace(trace);
        if !placed {
            // The snapshot (and with it every partial write) is discarded;
            // the stream does not advance, exactly like a failed launch.
            return LaunchOutcome::Preempted(LaunchPreemption {
                at: acc.last_end,
                cycles_spent: acc.busy,
                groups_done: acc.groups,
            });
        }
    }
    commit_outputs(target, &[work], pristine, e.meta, corrupt);
    acc.finish(e, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ordered_returns_results_in_job_order() {
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let got = exec.run_ordered(37, |i| i * i);
            assert_eq!(got, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(Executor::new(0).threads() >= 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let exec = Executor::new(4);
        let got: Vec<u32> = exec.run_ordered(0, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn pool_handles_more_jobs_than_workers() {
        let exec = Executor::new(3);
        let got = exec.run_ordered(100, |i| i + 1);
        assert_eq!(got.len(), 100);
        assert_eq!(got[99], 100);
    }

    #[test]
    fn batch_never_holds_more_than_a_window_of_traces() {
        use crate::{CpuConfig, CpuDevice, Device, StreamId};
        use dysel_kernel::{Buffer, KernelIr, Space, Variant};
        let meta = VariantMeta::new("w", KernelIr::regular(vec![0]));
        let v = Variant::from_fn(meta, |ctx, args| {
            for u in ctx.units().iter() {
                args.u32_mut(0).unwrap()[u as usize] = u as u32 ^ 7;
                ctx.vector_compute(1, 8, 8, 1);
            }
        });
        // 64 entries x 32 groups: 16 spans each, 1024 spans in all.
        let entry = |i: u64| BatchEntry {
            kernel: v.kernel.as_ref(),
            meta: &v.meta,
            units: UnitRange::new(i * 32, (i + 1) * 32),
            target: 0,
            stream: StreamId(0),
            not_before: Cycles::ZERO,
            measured: true,
            budget: None,
        };
        let entries: Vec<BatchEntry<'_>> = (0..64).map(entry).collect();
        let want: Vec<u32> = (0..64 * 32).map(|u| u ^ 7).collect();
        for threads in [1, 2, 8] {
            let mut cfg = CpuConfig::noiseless();
            cfg.threads = threads;
            let mut dev = CpuDevice::new(cfg);
            let mut args = Args::new();
            args.push(Buffer::u32("out", vec![0; 64 * 32], Space::Global));
            let outcomes = dev.launch_batch(&entries, &mut [&mut args]);
            assert!(outcomes
                .iter()
                .all(|o| o.done().is_some_and(|r| r.groups == 32)));
            assert_eq!(args.u32(0).unwrap(), &want[..]);
            let arena = dev.executor().arena.lock().unwrap();
            assert_eq!(arena.out, 0, "every trace went back to the arena");
            let window = if threads == 1 { 1 } else { 2 * threads };
            assert!(
                (1..=window).contains(&arena.peak_out),
                "{threads} threads: {} alive",
                arena.peak_out
            );
        }
    }
}
