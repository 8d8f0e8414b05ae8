//! The DySel runtime: productive micro-profiling and dynamic selection.
//!
//! Besides the paper's profiling/selection pipeline, the runtime carries a
//! graceful-degradation ladder (see [`crate::FaultReport`]): transient
//! launch failures are retried with bounded backoff, variants that blow the
//! profiling deadline or produce wrong output are quarantined per
//! signature, selection and the eager default fall back to the surviving
//! candidates, and productive profiling slices a faulted variant left
//! unwritten or corrupt are re-executed with the winner so the final output
//! stays exact. Only when *every* variant is quarantined does a launch fail
//! — with [`DyselError::AllVariantsFaulted`] and the user buffers restored
//! untouched.

use std::collections::{HashMap, HashSet};

use dysel_analysis::{infer_mode, safe_point, SafePointPlan};
use dysel_device::{
    BatchEntry, BudgetPolicy, Cycles, Device, LaunchOutcome, LaunchRecord, LaunchSpec, StreamId,
};
use dysel_kernel::{
    Args, Orchestration, ProfilingMode, UnitRange, Variant, VariantId, VariantMeta,
};
use dysel_obs::{names, Event, MetricsSnapshot, Stage};

use dysel_verify::{has_deny, sanitize_variant, Diagnostic, LintCode};

use crate::fault::{FaultReport, QuarantineReason};
use crate::persist::{self, RuntimeState, StateError};
use crate::pool::SandboxPool;
use crate::timeline::{LaunchKind, Timeline, TimelineEntry};
use crate::{
    DyselError, KernelPool, LaunchOptions, LaunchReport, LaunchStats, Measurement, PredictLevel,
    PruneLevel, RuntimeConfig, SkipReason, VerifyLevel,
};

/// The compute stream used for eager chunks and the final batch; profiling
/// launches use streams `1..=K`.
const COMPUTE_STREAM: StreamId = StreamId(0);

/// Stream for output-validation cross-check launches. Their writes land in
/// a scratch sandbox and never reach the final output.
const VALIDATE_STREAM: StreamId = StreamId(u32::MAX);

/// Sandbox-pool slot of the shared validation scratch space (outside the
/// `0..K` variant range, so it never collides with a private output lease).
const VALIDATE_SLOT: usize = usize::MAX;

/// Cap on distinct verifier findings kept per signature. A lenient-verify
/// runtime relaunching a bad signature forever must not grow its
/// diagnostics without bound; findings past the cap are counted, not kept.
const MAX_DIAGS_PER_SIGNATURE: usize = 32;

/// Recorded verifier findings for one signature: the first
/// [`MAX_DIAGS_PER_SIGNATURE`] distinct findings, plus how many distinct
/// findings the cap dropped.
#[derive(Debug, Default)]
struct DiagSlot {
    diags: Vec<Diagnostic>,
    dropped: u64,
}

/// The DySel runtime, owning a device and the kernel pool.
///
/// # Example
///
/// ```
/// use dysel_core::{LaunchOptions, Runtime};
/// use dysel_device::{CpuConfig, CpuDevice};
/// use dysel_kernel::{Args, Buffer, KernelIr, Space, Variant, VariantMeta};
///
/// # fn main() -> Result<(), dysel_core::DyselError> {
/// let mut rt = Runtime::new(Box::new(CpuDevice::new(CpuConfig::noiseless())));
/// rt.add_kernel(
///     "fill",
///     Variant::from_fn(VariantMeta::new("v0", KernelIr::regular(vec![0])), |ctx, args| {
///         for i in ctx.units().iter() {
///             args.f32_mut(0).unwrap()[i as usize] = 1.0;
///         }
///     }),
/// );
/// let mut args = Args::new();
/// args.push(Buffer::f32("out", vec![0.0; 512], Space::Global));
/// let report = rt.launch("fill", &mut args, 512, &LaunchOptions::new())?;
/// assert_eq!(report.selected.0, 0);
/// assert_eq!(args.f32(0).unwrap()[511], 1.0);
/// # Ok(())
/// # }
/// ```
pub struct Runtime {
    device: Box<dyn Device>,
    pool: KernelPool,
    stats: LaunchStats,
    config: RuntimeConfig,
    selection_cache: HashMap<String, VariantId>,
    sandboxes: SandboxPool,
    timeline: Timeline,
    quarantine: HashMap<String, Vec<(VariantId, QuarantineReason)>>,
    /// Signatures whose selection was loaded from the state file, mapped
    /// to the variant count persisted alongside (zero when unknown): these
    /// skip micro-profiling on launch (warm restart), independently of
    /// [`RuntimeConfig::profile_once_per_signature`] — unless the launch
    /// path finds the restored selection stale and invalidates it.
    warm: HashMap<String, u32>,
    /// What went wrong with the best-effort state load at construction,
    /// if anything; the runtime cold-started in that case.
    state_error: Option<StateError>,
    /// Static-verifier findings recorded per signature (deduplicated and
    /// capped; see [`DiagSlot`]).
    diagnostics: HashMap<String, DiagSlot>,
    /// `(signature, variant)` pairs the trace-replay sanitizer already
    /// cross-checked; the sanitizer runs once per pair, not per launch.
    sanitized: HashSet<(String, usize)>,
    /// Per-signature per-unit-cost drift watch (see [`DriftTracker`]);
    /// populated only while [`RuntimeConfig::predict`] is not `Off`.
    drift: HashMap<String, DriftTracker>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("device", &self.device.name())
            .field("signatures", &self.pool.len())
            .field("config", &self.config)
            .finish()
    }
}

/// One profiling launch's bookkeeping.
struct ProfiledLaunch {
    variant: usize,
    record: LaunchRecord,
}

/// Per-signature drift watch over skip-path launches (prediction enabled).
///
/// All integer arithmetic: per-unit cost is tracked scaled by 1000, and a
/// launch is over-band when `cost * 1000 > floor * drift_factor_pm`. After
/// [`RuntimeConfig::predict_drift_window`] *consecutive* over-band launches
/// the cached selection is invalidated so the next launch re-profiles.
#[derive(Debug, Clone, Copy)]
struct DriftTracker {
    /// Cheapest per-unit cost seen so far, scaled by 1000.
    floor: u64,
    /// Consecutive launches above the drift band.
    over: u32,
    /// The watch tripped: the next launch must reach live profiling, so
    /// prediction skips are suppressed until the re-profile clears this.
    hold: bool,
}

impl Runtime {
    /// Creates a runtime on a device with default configuration.
    pub fn new(device: Box<dyn Device>) -> Self {
        Runtime::with_config(device, RuntimeConfig::default())
    }

    /// Creates a runtime with an explicit configuration.
    ///
    /// With [`RuntimeConfig::state_path`] set and the file present, the
    /// persisted selection state is loaded best-effort: on success the
    /// runtime starts warm (cached selections and quarantine restored,
    /// micro-profiling skipped for the loaded signatures); a corrupt,
    /// truncated or version-skewed file cold-starts the runtime and parks
    /// the typed error in [`Runtime::state_load_error`]. A missing file is
    /// a plain cold start, not an error.
    pub fn with_config(device: Box<dyn Device>, config: RuntimeConfig) -> Self {
        let sandboxes = if config.private_addrs {
            SandboxPool::with_private_addrs()
        } else {
            SandboxPool::default()
        };
        let mut rt = Runtime {
            device,
            pool: KernelPool::new(),
            stats: LaunchStats::new(),
            config,
            selection_cache: HashMap::new(),
            sandboxes,
            timeline: Timeline::default(),
            quarantine: HashMap::new(),
            warm: HashMap::new(),
            state_error: None,
            diagnostics: HashMap::new(),
            sanitized: HashSet::new(),
            drift: HashMap::new(),
        };
        if let Some(obs) = &rt.config.observe {
            rt.device.set_observer(Some(obs.clone()));
        }
        if let Some(path) = rt.config.state_path.clone() {
            if path.exists() {
                match persist::load(&path) {
                    Ok(state) => rt.apply_state(&state),
                    Err(e) => rt.state_error = Some(e),
                }
            }
        }
        rt
    }

    /// The persisted runtime state as a value: cached selections and
    /// quarantine entries, ready for [`crate::persist`] encoding.
    fn snapshot_state(&self) -> RuntimeState {
        RuntimeState {
            selections: self
                .selection_cache
                .iter()
                .map(|(s, id)| (s.clone(), *id))
                .collect(),
            quarantine: self
                .quarantine
                .iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(s, v)| (s.clone(), v.clone()))
                .collect(),
            // Variant count at save time, so a later process can tell a
            // re-registered candidate set from the one the winner beat.
            // For signatures with no live registration (state saved again
            // before re-registering), carry the loaded count forward.
            variant_counts: self
                .selection_cache
                .keys()
                .map(|s| {
                    let count = self
                        .pool
                        .variants(s)
                        .map(|v| v.len() as u32)
                        .unwrap_or_else(|_| self.warm.get(s).copied().unwrap_or(0));
                    (s.clone(), count)
                })
                .collect(),
            // A lane runtime is single-tenant; nested tenant sections are
            // the service's aggregation concern.
            tenants: std::collections::BTreeMap::new(),
            // Journal sequence numbers are service-level bookkeeping; a
            // plain runtime always writes 0.
            journal_seq: 0,
        }
    }

    /// Installs a loaded state: selections become warm cached selections
    /// (skipping micro-profiling), quarantine entries are restored.
    fn apply_state(&mut self, state: &RuntimeState) {
        for (sig, id) in &state.selections {
            self.selection_cache.insert(sig.clone(), *id);
            let count = state.variant_counts.get(sig).copied().unwrap_or(0);
            self.warm.insert(sig.clone(), count);
        }
        for (sig, entries) in &state.quarantine {
            self.quarantine.insert(sig.clone(), entries.clone());
        }
    }

    /// Persists the current selection cache and quarantine set to the
    /// configured [`RuntimeConfig::state_path`], atomically (temp file +
    /// rename): a crash mid-save leaves the previous file intact.
    ///
    /// # Errors
    ///
    /// [`DyselError::State`] if no state path is configured or the write
    /// fails; in-memory state is unaffected either way.
    pub fn save_state(&self) -> Result<(), DyselError> {
        let path = self
            .config
            .state_path
            .as_deref()
            .ok_or(StateError::NoStatePath)?;
        persist::save(&self.snapshot_state(), path)?;
        Ok(())
    }

    /// Explicitly (re)loads the state file from the configured
    /// [`RuntimeConfig::state_path`], replacing in-memory selections and
    /// quarantine entries for the signatures it names, and returns the
    /// loaded state.
    ///
    /// # Errors
    ///
    /// [`DyselError::State`] if no state path is configured, the file is
    /// missing or unreadable, or its content is rejected (bad magic,
    /// version skew, truncation, checksum mismatch, malformed payload).
    /// On error the in-memory state is left exactly as it was — the
    /// cold-start guarantee.
    pub fn load_state(&mut self) -> Result<RuntimeState, DyselError> {
        let path = self
            .config
            .state_path
            .clone()
            .ok_or(StateError::NoStatePath)?;
        let state = persist::load(&path)?;
        self.apply_state(&state);
        self.state_error = None;
        Ok(state)
    }

    /// The typed error of the best-effort state load performed at
    /// construction, if it failed (the runtime cold-started). `None`
    /// after a successful or skipped load.
    pub fn state_load_error(&self) -> Option<&StateError> {
        self.state_error.as_ref()
    }

    /// The learned state — cached selections, quarantine entries, variant
    /// counts — as a value, without touching any file. This is what
    /// [`Runtime::save_state`] persists; a [`crate::LaunchService`] calls
    /// it per lane (between launches, under the shard lock) to aggregate a
    /// torn-free multi-tenant snapshot.
    pub fn export_state(&self) -> RuntimeState {
        self.snapshot_state()
    }

    /// Installs a state value as if it had been loaded from disk:
    /// selections become warm cached selections (skipping micro-profiling
    /// unless found stale), quarantine entries are restored. Signatures
    /// the state does not name are left untouched.
    pub fn import_state(&mut self, state: &RuntimeState) {
        self.apply_state(state);
    }

    /// Registers a kernel variant (`DySelAddKernel`).
    ///
    /// With [`RuntimeConfig::verify`] enabled the variant's metadata is
    /// linted on the way in and the findings are recorded on the runtime
    /// ([`Runtime::diagnostics`]); registration itself never fails — the
    /// launch path is where [`VerifyLevel::Strict`] rejects. Use
    /// [`Runtime::try_add_kernel`] to refuse bad metadata at the door.
    pub fn add_kernel(&mut self, signature: impl Into<String>, variant: Variant) -> VariantId {
        let signature = signature.into();
        if self.config.verify != VerifyLevel::Off {
            let diags = dysel_verify::verify_variant(&variant.meta);
            record_diags(&mut self.diagnostics, &self.config, &signature, diags);
        }
        self.pool.add_kernel(signature, variant)
    }

    /// Registers a kernel variant after running the static verifier on its
    /// metadata, regardless of [`RuntimeConfig::verify`]. Findings are
    /// recorded on the runtime ([`Runtime::diagnostics`]).
    ///
    /// # Errors
    ///
    /// [`DyselError::Rejected`] if the verifier reports any `Deny`-severity
    /// finding (index out of range, disjointness over-claim, undeclared
    /// store site, …); the variant is *not* registered in that case.
    pub fn try_add_kernel(
        &mut self,
        signature: impl Into<String>,
        variant: Variant,
    ) -> Result<VariantId, DyselError> {
        let signature = signature.into();
        let diags = dysel_verify::verify_variant(&variant.meta);
        if has_deny(&diags) {
            return Err(DyselError::Rejected {
                signature,
                diagnostics: diags,
            });
        }
        record_diags(&mut self.diagnostics, &self.config, &signature, diags);
        Ok(self.pool.add_kernel(signature, variant))
    }

    /// Registers a whole candidate set.
    pub fn add_kernels(
        &mut self,
        signature: impl Into<String>,
        variants: impl IntoIterator<Item = Variant>,
    ) {
        let signature = signature.into();
        for variant in variants {
            self.add_kernel(signature.clone(), variant);
        }
    }

    /// Static-verifier findings recorded for `signature` so far — from
    /// registration (with [`RuntimeConfig::verify`] enabled or via
    /// [`Runtime::try_add_kernel`]) and from verified launches. Duplicate
    /// findings are recorded once, and at most the first 32 distinct
    /// findings are kept per signature (see
    /// [`Runtime::diagnostics_dropped`]). Empty for unverified signatures.
    pub fn diagnostics(&self, signature: &str) -> &[Diagnostic] {
        self.diagnostics
            .get(signature)
            .map(|slot| slot.diags.as_slice())
            .unwrap_or(&[])
    }

    /// How many distinct verifier findings for `signature` were dropped by
    /// the per-signature diagnostics cap. Also exported as the
    /// `dysel_diagnostics_dropped_total` metric when observation is on.
    pub fn diagnostics_dropped(&self, signature: &str) -> u64 {
        self.diagnostics
            .get(signature)
            .map(|slot| slot.dropped)
            .unwrap_or(0)
    }

    /// The kernel pool.
    pub fn pool(&self) -> &KernelPool {
        &self.pool
    }

    /// The device.
    pub fn device(&self) -> &dyn Device {
        self.device.as_ref()
    }

    /// Mutable access to the device (e.g. to reset virtual time).
    pub fn device_mut(&mut self) -> &mut dyn Device {
        self.device.as_mut()
    }

    /// Launch statistics collected so far (Fig. 2).
    pub fn stats(&self) -> &LaunchStats {
        &self.stats
    }

    /// The recorded schedule of the most recent launch (or launch region):
    /// which variant ran which units, when, and as what kind of work —
    /// the data behind the paper's Fig. 5 comparison.
    pub fn last_timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The cached selection for a signature, if profiling already ran.
    pub fn cached_selection(&self, signature: &str) -> Option<VariantId> {
        self.selection_cache.get(signature).copied()
    }

    /// Variants of `signature` currently quarantined, with the reason each
    /// was excluded, in quarantine order. Empty for healthy signatures.
    pub fn quarantined(&self, signature: &str) -> &[(VariantId, QuarantineReason)] {
        self.quarantine
            .get(signature)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Clears device time (replaying any installed fault plan), statistics,
    /// cached selections, quarantine state, the recorded timeline and the
    /// pooled profiling sandboxes (including their lease counters).
    pub fn reset(&mut self) {
        self.device.reset();
        self.stats.reset();
        self.selection_cache.clear();
        self.sandboxes.clear();
        self.timeline.clear();
        self.quarantine.clear();
        self.warm.clear();
        self.diagnostics.clear();
        self.sanitized.clear();
    }

    /// Sandbox-pool accounting: `(fresh allocations, recycled leases)`.
    /// Hybrid- and swap-mode profiling leases its private output copies
    /// from a per-`(signature, variant)` pool, so steady-state re-profiling
    /// stops allocating after the first launch.
    pub fn sandbox_stats(&self) -> (u64, u64) {
        (self.sandboxes.allocations(), self.sandboxes.reuses())
    }

    /// A point-in-time copy of every counter and histogram recorded into
    /// the configured observation sink ([`RuntimeConfig::observe`]).
    /// Empty when observation is off.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.config
            .observe
            .as_ref()
            .map(|o| o.metrics_snapshot())
            .unwrap_or_default()
    }

    /// The configured observation sink, if any.
    pub fn observer(&self) -> Option<&std::sync::Arc<dysel_obs::EventSink>> {
        self.config.observe.as_ref()
    }

    /// Launches `signature` over `total_units` workload units
    /// (`DySelLaunchKernel`, Fig. 6(b)).
    ///
    /// With profiling enabled (and a large enough workload), DySel deploys
    /// every registered variant on a small slice of `args`' actual data,
    /// measures them, and processes the remaining units with the winner.
    ///
    /// # Errors
    ///
    /// Fails if the signature is unknown, an explicit initial variant is
    /// out of range, sandbox construction hits a bad argument index, or
    /// the degradation ladder runs out of variants
    /// ([`DyselError::AllVariantsFaulted`], [`DyselError::LaunchFailed`]).
    /// On error the user buffers hold their pre-launch contents.
    pub fn launch(
        &mut self,
        signature: &str,
        args: &mut Args,
        total_units: u64,
        opts: &LaunchOptions,
    ) -> Result<LaunchReport, DyselError> {
        self.launch_region(signature, args, 0, total_units, opts)
    }

    /// Launches `signature` over the workload units `[start, end)` only.
    /// Building block of [`Runtime::launch`] (whole workload) and
    /// [`Runtime::launch_mixed`] (per-region selection).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Runtime::launch`].
    pub fn launch_region(
        &mut self,
        signature: &str,
        args: &mut Args,
        start: u64,
        end: u64,
        opts: &LaunchOptions,
    ) -> Result<LaunchReport, DyselError> {
        // Private-address mode: re-address the incoming buffers from this
        // runtime's own address space before anything observes them, so
        // the priced timeline is independent of where other runtimes on
        // this thread happened to push the thread's allocator (see
        // [`RuntimeConfig::private_addrs`]).
        self.sandboxes.rebase(args);
        let total_units = end.saturating_sub(start);
        let variants = self.pool.variants(signature)?;
        let k = variants.len();

        let initial = opts
            .initial
            .resolve(k)
            .ok_or_else(|| DyselError::BadVariantIndex {
                signature: signature.to_owned(),
                index: match opts.initial {
                    crate::InitialSelection::Index(i) => i,
                    crate::InitialSelection::First => 0,
                },
                len: k,
            })?;

        // ---- warm-restore staleness audit -------------------------------
        // A warm-restored selection was chosen by a previous process
        // against that process's candidate set; before letting it skip
        // micro-profiling, cross-check it against *this* process. Stale
        // when the signature re-registered with a different variant count,
        // or the persisted winner is out of range or has since been
        // quarantined. Invalidation drops the warm marker and the cached
        // selection, so the launch falls through to live profiling.
        if let Some(&warm_k) = self.warm.get(signature) {
            let stale = match self.selection_cache.get(signature) {
                None => Some("no cached selection".to_owned()),
                Some(id) if id.0 >= k => {
                    Some(format!("selected variant {} out of range (k={k})", id.0))
                }
                Some(_) if warm_k != 0 && warm_k as usize != k => {
                    Some(format!("variant count changed ({warm_k} -> {k})"))
                }
                Some(id)
                    if self
                        .quarantine
                        .get(signature)
                        .is_some_and(|q| q.iter().any(|(v, _)| v == id)) =>
                {
                    Some(format!("selected variant {} quarantined", id.0))
                }
                Some(_) => None,
            };
            if let Some(why) = stale {
                self.warm.remove(signature);
                self.selection_cache.remove(signature);
                if let Some(obs) = &self.config.observe {
                    obs.emit(
                        Event::new(Stage::WarmInvalidate)
                            .signature(signature)
                            .detail(why),
                    );
                    obs.count(names::WARM_INVALIDATIONS, 1);
                }
            }
        }

        // Fallback rung of the degradation ladder: only non-quarantined
        // variants may run, win, or serve as the eager default.
        let quarantine = self.quarantine.entry(signature.to_owned()).or_default();
        let mut active: Vec<usize> = (0..k)
            .filter(|i| !quarantine.iter().any(|(v, _)| v.0 == *i))
            .collect();
        if active.is_empty() {
            return Err(DyselError::AllVariantsFaulted {
                signature: signature.to_owned(),
                quarantined: quarantine.len(),
            });
        }

        // ---- static verification (see `dysel-verify`) -------------------
        // Strict mode refuses the launch before touching any user buffer;
        // lenient mode downgrades a denied launch to swap-based profiling,
        // the mode that is safe whatever the metadata claims.
        let mut force_swap = false;
        if self.config.verify != VerifyLevel::Off {
            let metas: Vec<VariantMeta> =
                active.iter().map(|&i| variants[i].meta.clone()).collect();
            let mut diags: Vec<Diagnostic> = Vec::new();
            for m in &metas {
                diags.extend(dysel_verify::verify_variant(m));
                diags.extend(dysel_verify::verify_arity(m, args.len()));
            }
            if let Some(requested) = opts.mode {
                diags.extend(dysel_verify::verify_mode_override(&metas, requested));
            }
            if has_deny(&diags) {
                match self.config.verify {
                    VerifyLevel::Strict => {
                        return Err(DyselError::Rejected {
                            signature: signature.to_owned(),
                            diagnostics: diags,
                        });
                    }
                    _ => force_swap = true,
                }
            }
            record_diags(&mut self.diagnostics, &self.config, signature, diags);
        }

        self.stats.record(total_units);
        let device = self.device.as_mut();
        // Budget rung of the ladder: with a deadline factor configured the
        // device derives per-launch cycle budgets for profiling launches
        // from the best measurement seen so far and cooperatively preempts
        // any launch that blows its budget mid-slice.
        device.set_budget_policy(self.config.profile_deadline_factor.map(BudgetPolicy::new));
        let t_start = device.busy_until();
        let initial = sanitize(&active, initial);

        // ---- skip paths -------------------------------------------------
        let warm_hit = self.warm.contains_key(signature);
        let skip = if !opts.profiling {
            match self.selection_cache.get(signature) {
                Some(&id) => Some((SkipReason::CachedSelection, sanitize(&active, id))),
                None => Some((SkipReason::ProfilingDisabled, initial)),
            }
        } else if (self.config.profile_once_per_signature || warm_hit)
            && self.selection_cache.contains_key(signature)
        {
            // Profile-once runtimes treat every later launch of a profiled
            // signature as the steady state of an iterative solver; a
            // selection loaded from the state file gets the same warm
            // treatment — that is the point of persisting it.
            Some((
                SkipReason::CachedSelection,
                sanitize(&active, self.selection_cache[signature]),
            ))
        } else if active.len() == 1 {
            Some((SkipReason::SingleVariant, VariantId(active[0])))
        } else if total_units < self.config.profile_threshold_groups {
            // Small workloads skip profiling (§2.1); reuse an earlier
            // selection for this signature if one exists.
            let id = self
                .selection_cache
                .get(signature)
                .copied()
                .unwrap_or(initial);
            Some((SkipReason::SmallWorkload, sanitize(&active, id)))
        } else {
            None
        };

        // ---- trace-replay sanitizer (dynamic cross-check) ---------------
        // Before the first profiled launch of a declared-disjoint variant,
        // replay a few of its work-groups against a copy-on-write clone and
        // cross-check the *observed* store footprints for cross-group
        // overlap. A variant whose observation contradicts its declaration
        // lied to the static verifier and is quarantined.
        if self.config.sanitize_traces && self.config.verify != VerifyLevel::Off && skip.is_none() {
            let mut pre_faults = FaultReport::default();
            for vi in active.clone() {
                let key = (signature.to_owned(), vi);
                if !variants[vi].meta.ir.output_disjoint || self.sanitized.contains(&key) {
                    continue;
                }
                self.sanitized.insert(key);
                // A replay that cannot run (bad argument index) is the
                // verifier's DV301 finding, not a sanitizer verdict.
                if let Ok(outcome) = sanitize_variant(&variants[vi], args, total_units) {
                    if outcome.contradicts_disjoint() {
                        quarantine_variant(
                            &self.config,
                            signature,
                            variants[vi].name(),
                            &mut active,
                            quarantine,
                            &mut pre_faults,
                            vi,
                            QuarantineReason::MetadataMismatch,
                        );
                    }
                }
            }
            self.stats.record_faults(&pre_faults);
            if active.is_empty() {
                return Err(DyselError::AllVariantsFaulted {
                    signature: signature.to_owned(),
                    quarantined: quarantine.len(),
                });
            }
        }

        // ---- static dominance pruning (see `dysel_analysis::features`) --
        // A variant Pareto-dominated on every static access-shape axis by
        // a same-context sibling is excluded from the micro-profiling pool
        // (`PruneLevel::On`) or profiled anyway and cross-checked against
        // the winner (`PruneLevel::Audit`). Pareto maximality guarantees at
        // least one variant always survives. The *accounting* (events,
        // counters, report fields) runs on every launch — warm and cold
        // alike, so metric streams stay comparable across restarts — but
        // the pool is only actually shrunk when this launch will profile.
        let mut would_prune: Vec<usize> = Vec::new();
        if self.config.prune != PruneLevel::Off && active.len() > 1 {
            let feats: Vec<_> = active
                .iter()
                .map(|&i| dysel_analysis::extract_features(&variants[i].meta))
                .collect();
            for (ai, &vi) in active.iter().enumerate() {
                let dominated = feats
                    .iter()
                    .enumerate()
                    .any(|(aj, fj)| aj != ai && fj.dominates(&feats[ai]));
                if dominated {
                    would_prune.push(vi);
                }
            }
            if !would_prune.is_empty() {
                if let Some(obs) = &self.config.observe {
                    let detail = match self.config.prune {
                        PruneLevel::On => "pruned",
                        _ => "audit",
                    };
                    for &vi in &would_prune {
                        obs.emit(
                            Event::new(Stage::Prune)
                                .signature(signature)
                                .variant(variants[vi].name())
                                .at(t_start.0)
                                .detail(detail),
                        );
                    }
                    obs.count(names::PRUNED, would_prune.len() as u64);
                }
                if self.config.prune == PruneLevel::On && skip.is_none() {
                    active.retain(|vi| !would_prune.contains(vi));
                }
            }
        }
        let initial = sanitize(&active, initial);

        // ---- trained-model prediction (see `dysel-predict`) -------------
        // Shadow mode ranks the active candidates and records the verdict
        // (events plus hit/miss counters folded at report time) without
        // touching control flow. On mode additionally converts a
        // would-profile launch into a skip when the model's confidence
        // margin clears the configured threshold — an exact-tier margin of
        // zero (unranked or centroid-sourced prediction) never skips.
        let mut predicted_name: Option<String> = None;
        let mut skip = skip;
        if self.config.predict != PredictLevel::Off {
            if let Some(model) = self
                .config
                .predict_model
                .as_deref()
                .filter(|m| !m.is_empty())
            {
                let feats: Vec<_> = active
                    .iter()
                    .map(|&i| dysel_analysis::extract_features(&variants[i].meta))
                    .collect();
                let candidates: Vec<dysel_predict::Candidate<'_>> = active
                    .iter()
                    .zip(feats.iter())
                    .map(|(&i, f)| dysel_predict::Candidate {
                        name: variants[i].name(),
                        features: f,
                    })
                    .collect();
                if let Some(p) = model.predict(signature, &candidates) {
                    if let Some(obs) = &self.config.observe {
                        obs.emit(
                            Event::new(Stage::Predict)
                                .signature(signature)
                                .variant(&p.variant)
                                .at(t_start.0)
                                .detail(format!(
                                    "source={} margin_pm={}",
                                    p.source.as_str(),
                                    p.margin_pm
                                )),
                        );
                    }
                    if self.config.predict == PredictLevel::On
                        && skip.is_none()
                        && active.len() > 1
                        && p.margin_pm > 0
                        && p.margin_pm >= self.config.predict_margin_pm
                        && !self.drift.get(signature).is_some_and(|t| t.hold)
                    {
                        if let Some(&vi) = active.iter().find(|&&i| variants[i].name() == p.variant)
                        {
                            if let Some(obs) = &self.config.observe {
                                obs.count(names::PREDICT_SKIPS, 1);
                            }
                            skip = Some((SkipReason::Predicted, VariantId(vi)));
                        }
                    }
                    predicted_name = Some(p.variant);
                }
            }
        }

        let active_metas: Vec<_> = active.iter().map(|&i| variants[i].meta.clone()).collect();
        let mode = if force_swap {
            ProfilingMode::SwapPartial
        } else {
            opts.mode.unwrap_or_else(|| infer_mode(&active_metas))
        };
        let reps = u64::from(opts.profile_reps);
        let distinct_slices = match mode {
            ProfilingMode::FullyProductive => active.len() as u64 * reps,
            _ => 1,
        };
        let wa_factors: Vec<u32> = active_metas.iter().map(|m| m.wa_factor).collect();
        let plan = safe_point(&wa_factors, device.units(), total_units, distinct_slices);

        let (skip, plan) = match (skip, plan) {
            (Some(s), _) => (Some(s), None),
            (None, Some(p)) => (None, Some(p)),
            (None, None) => (Some((SkipReason::InfeasiblePlan, initial)), None),
        };

        if let Some((reason, mut selected)) = skip {
            // Profiling was skipped: say why before the batch runs, so the
            // event stream reads in lifecycle order. A cached selection is
            // a warm skip when it came from the state file, a plain
            // selection-cache hit otherwise.
            if reason == SkipReason::CachedSelection {
                if let Some(obs) = &self.config.observe {
                    let (stage, counter) = if warm_hit {
                        (Stage::WarmSkip, names::WARM_SKIPS)
                    } else {
                        (Stage::CacheHit, names::CACHE_HITS)
                    };
                    obs.emit(
                        Event::new(stage)
                            .signature(signature)
                            .variant(variants[selected.0].name())
                            .at(t_start.0),
                    );
                    obs.count(counter, 1);
                }
            }
            self.timeline.clear();
            let mut faults = FaultReport::default();
            let mut launches_issued = 0u64;
            // Retry-then-fall-back: a variant whose launch keeps failing is
            // quarantined and the next surviving candidate runs instead.
            let rec = loop {
                match launch_checked(
                    device,
                    &self.config,
                    signature,
                    &variants[selected.0],
                    args,
                    UnitRange::new(start, end),
                    COMPUTE_STREAM,
                    t_start,
                    false,
                    &mut faults,
                    &mut launches_issued,
                ) {
                    Ok(rec) => break rec,
                    Err(()) => {
                        quarantine_variant(
                            &self.config,
                            signature,
                            variants[selected.0].name(),
                            &mut active,
                            quarantine,
                            &mut faults,
                            selected.0,
                            QuarantineReason::LaunchFailed,
                        );
                        match active.first() {
                            Some(&next) => selected = VariantId(next),
                            None => {
                                self.stats.record_faults(&faults);
                                return Err(DyselError::AllVariantsFaulted {
                                    signature: signature.to_owned(),
                                    quarantined: quarantine.len(),
                                });
                            }
                        }
                    }
                }
            };
            record_entry(
                &mut self.timeline,
                &self.config,
                signature,
                COMPUTE_STREAM.0,
                TimelineEntry {
                    kind: LaunchKind::Batch,
                    variant: selected,
                    variant_name: variants[selected.0].name().to_owned(),
                    units: UnitRange::new(start, end),
                    start: rec.start,
                    end: rec.end,
                },
            );
            self.stats.record_faults(&faults);
            let mut report = LaunchReport {
                signature: signature.to_owned(),
                tenant: self.config.tenant,
                selected,
                selected_name: variants[selected.0].name().to_owned(),
                mode: None,
                orchestration: opts.orchestration,
                skipped: Some(reason),
                total_time: rec.end.saturating_sub(t_start),
                profile_time: Cycles::ZERO,
                measurements: Vec::new(),
                productive_units: 0,
                wasted_units: 0,
                extra_space_bytes: 0,
                eager_chunks: 0,
                launches: launches_issued,
                pruned_variants: would_prune.len() as u64,
                prune_disagreement: false,
                predicted: None,
                predict_hit: None,
                drift_reprofiled: false,
                faults,
            };
            // Audit-mode falsification holds on skip paths too: a cached
            // winner the dominance rule would prune falsifies the rule for
            // this signature exactly as a freshly profiled one does, and
            // counting it here keeps warm and cold metric streams at
            // parity.
            if self.config.prune == PruneLevel::Audit && would_prune.contains(&report.selected.0) {
                report.prune_disagreement = true;
                if let Some(obs) = &self.config.observe {
                    obs.count(names::PRUNE_DISAGREEMENTS, 1);
                }
                record_diags(
                    &mut self.diagnostics,
                    &self.config,
                    signature,
                    vec![Diagnostic::new(
                        LintCode::PruningDisagreement,
                        variants[report.selected.0].name(),
                        "dominance pruning would have excluded the cached \
                         selection; the static rule is falsified for this \
                         signature",
                    )],
                );
            }
            fold_prediction(&self.config, predicted_name, &mut report);
            // ---- drift watch --------------------------------------------
            // Reusing a selection without measuring alternatives is a bet;
            // the drift watch hedges it. Per-unit cost of each skip-path
            // launch is compared against the cheapest seen so far, and
            // after `predict_drift_window` consecutive launches above the
            // band the selection is invalidated — the next launch falls
            // through to live micro-profiling.
            if self.config.predict != PredictLevel::Off
                && matches!(reason, SkipReason::CachedSelection | SkipReason::Predicted)
                && total_units > 0
            {
                let cost = report.total_time.0.saturating_mul(1000) / total_units;
                let factor = u64::from(self.config.predict_drift_factor_pm);
                let t = self
                    .drift
                    .entry(signature.to_owned())
                    .or_insert(DriftTracker {
                        floor: cost,
                        over: 0,
                        hold: false,
                    });
                let mut tripped = false;
                if cost.saturating_mul(1000) > t.floor.saturating_mul(factor) {
                    t.over += 1;
                    if t.over >= self.config.predict_drift_window && !t.hold {
                        // Keep the entry: the `hold` suppresses prediction
                        // skips until the re-profile removes it.
                        t.hold = true;
                        t.over = 0;
                        tripped = true;
                    }
                } else {
                    t.over = 0;
                    t.floor = t.floor.min(cost);
                }
                if tripped {
                    report.drift_reprofiled = true;
                    self.selection_cache.remove(signature);
                    self.warm.remove(signature);
                    if let Some(obs) = &self.config.observe {
                        obs.emit(
                            Event::new(Stage::Predict)
                                .signature(signature)
                                .variant(&report.selected_name)
                                .at(t_start.0)
                                .detail("drift-reprofile"),
                        );
                        obs.count(names::PREDICT_DRIFT_REPROFILES, 1);
                    }
                }
            }
            fold_report_metrics(&self.config, &report);
            return Ok(report);
        }
        let plan = plan.expect("skip handled above");

        // Swap-based profiling cannot run asynchronously (Table 1).
        let orchestration = if mode == ProfilingMode::SwapPartial {
            Orchestration::Sync
        } else {
            opts.orchestration
        };

        self.timeline.clear();
        let mut report = profile_and_run(
            device,
            &self.config,
            signature,
            variants,
            &active,
            quarantine,
            args,
            start,
            end,
            mode,
            orchestration,
            initial,
            opts,
            &plan,
            t_start,
            &mut self.sandboxes,
            &mut self.timeline,
            &mut self.stats,
        )?;
        report.pruned_variants = would_prune.len() as u64;
        // Audit-mode falsification: every variant was profiled anyway, so
        // if the winner is one the dominance rule would have pruned, the
        // rule is wrong for this signature — record the disagreement.
        if self.config.prune == PruneLevel::Audit && would_prune.contains(&report.selected.0) {
            report.prune_disagreement = true;
            if let Some(obs) = &self.config.observe {
                obs.count(names::PRUNE_DISAGREEMENTS, 1);
            }
            record_diags(
                &mut self.diagnostics,
                &self.config,
                signature,
                vec![Diagnostic::new(
                    LintCode::PruningDisagreement,
                    variants[report.selected.0].name(),
                    "dominance pruning would have excluded the micro-profiling \
                     winner; the static rule is falsified for this signature",
                )],
            );
        }
        fold_prediction(&self.config, predicted_name, &mut report);
        // A fresh profile starts a fresh bet; the drift watch re-seeds its
        // per-unit-cost floor from the next skip-path launch.
        self.drift.remove(signature);
        self.selection_cache
            .insert(signature.to_owned(), report.selected);
        fold_report_metrics(&self.config, &report);
        Ok(report)
    }
}

/// Scores a model prediction against the launch's final selection: sets the
/// report's `predicted` / `predict_hit` fields and bumps the hit/miss
/// counters. A launch with no prediction (mode off, no model, model could
/// not rank) leaves the fields `None` and the counters untouched.
fn fold_prediction(config: &RuntimeConfig, predicted: Option<String>, report: &mut LaunchReport) {
    if let Some(pred) = predicted {
        let hit = pred == report.selected_name;
        if let Some(obs) = &config.observe {
            obs.count(
                if hit {
                    names::PREDICT_HITS
                } else {
                    names::PREDICT_MISSES
                },
                1,
            );
        }
        report.predict_hit = Some(hit);
        report.predicted = Some(pred);
    }
}

/// Pushes a timeline entry, mirroring it into the observation sink as a
/// structured span event first — the timeline order IS the canonical event
/// order for runtime-level spans.
fn record_entry(
    timeline: &mut Timeline,
    config: &RuntimeConfig,
    signature: &str,
    stream: u32,
    entry: TimelineEntry,
) {
    if let Some(obs) = &config.observe {
        let stage = match entry.kind {
            LaunchKind::Profile => Stage::Profile,
            LaunchKind::EagerChunk => Stage::EagerChunk,
            LaunchKind::Batch => Stage::Batch,
            LaunchKind::Validate => Stage::Validate,
            LaunchKind::Repair => Stage::Repair,
        };
        obs.emit(
            Event::new(stage)
                .signature(signature)
                .variant(&entry.variant_name)
                .stream(stream)
                .span(entry.start.0, entry.end.0)
                .units(entry.units.start, entry.units.end),
        );
    }
    timeline.push(entry);
}

/// Folds one finished launch's report into the observation metrics. The
/// per-launch fault counters land here (exactly once per report);
/// quarantines are counted at the quarantine site instead, because
/// sanitizer-path quarantines never reach a report.
fn fold_report_metrics(config: &RuntimeConfig, report: &LaunchReport) {
    let Some(obs) = &config.observe else {
        return;
    };
    obs.count(names::LAUNCHES, 1);
    obs.count(names::DEVICE_LAUNCHES, report.launches);
    obs.count(names::LAUNCH_ERRORS, report.faults.launch_errors);
    obs.count(names::RETRIES, report.faults.retries);
    obs.count(names::PREEMPTIONS, report.faults.preemptions);
    obs.count(names::DEADLINE_DISCARDS, report.faults.deadline_discards);
    obs.count(
        names::VALIDATION_FAILURES,
        report.faults.validation_failures,
    );
    obs.count(names::REPAIRED_SLICES, report.faults.repaired_slices);
}

/// Records verifier findings for a signature, skipping exact duplicates —
/// re-verifying the same metadata on every launch must not grow the list —
/// and capping the kept findings at [`MAX_DIAGS_PER_SIGNATURE`]: a lenient
/// runtime relaunching a bad signature with ever-changing arguments must
/// not grow its diagnostics store without bound either. Findings past the
/// cap only bump the slot's drop counter (and the
/// `dysel_diagnostics_dropped_total` metric when observation is on).
/// A free function (not a method) so callers holding disjoint-field borrows
/// of the runtime can still record.
fn record_diags(
    store: &mut HashMap<String, DiagSlot>,
    config: &RuntimeConfig,
    signature: &str,
    diags: Vec<Diagnostic>,
) {
    if diags.is_empty() {
        return;
    }
    let slot = store.entry(signature.to_owned()).or_default();
    for d in diags {
        if slot.diags.contains(&d) {
            continue;
        }
        if slot.diags.len() >= MAX_DIAGS_PER_SIGNATURE {
            slot.dropped += 1;
            if let Some(obs) = &config.observe {
                obs.count(names::DIAG_DROPPED, 1);
            }
            continue;
        }
        slot.diags.push(d);
    }
}

/// Clamps a selection to the non-quarantined candidate set.
fn sanitize(active: &[usize], id: VariantId) -> VariantId {
    if active.contains(&id.0) {
        id
    } else {
        VariantId(active[0])
    }
}

/// The declared output arguments of a variant that exist in `args`.
fn outputs_of(meta: &VariantMeta, args: &Args) -> Vec<usize> {
    meta.ir
        .output_args
        .iter()
        .copied()
        .filter(|&i| i < args.len())
        .collect()
}

/// Removes `vi` from the surviving candidates and records the quarantine in
/// both the signature's persistent list and this launch's fault report —
/// plus, when observation is on, the event stream and the quarantine
/// counter (counted here rather than from the report, so sanitizer-path
/// quarantines that never reach a report are still covered).
#[allow(clippy::too_many_arguments)]
fn quarantine_variant(
    config: &RuntimeConfig,
    signature: &str,
    name: &str,
    alive: &mut Vec<usize>,
    quarantine: &mut Vec<(VariantId, QuarantineReason)>,
    faults: &mut FaultReport,
    vi: usize,
    reason: QuarantineReason,
) {
    if let Some(pos) = alive.iter().position(|&a| a == vi) {
        alive.remove(pos);
        quarantine.push((VariantId(vi), reason));
        faults.quarantined.push((VariantId(vi), reason));
        if let Some(obs) = &config.observe {
            obs.emit(
                Event::new(Stage::Quarantine)
                    .signature(signature)
                    .variant(name)
                    .detail(format!("{reason:?}")),
            );
            obs.count(names::QUARANTINES, 1);
        }
    }
}

/// Launches `variant` over `units`, retrying transient failures with
/// bounded exponential backoff (first rung of the degradation ladder).
///
/// `Err(())` means the launch failed permanently (or exhausted its
/// retries); the caller decides whether that quarantines the variant or
/// fails the whole DySel launch. A failed device launch executed nothing.
#[allow(clippy::too_many_arguments)]
fn launch_checked(
    device: &mut dyn Device,
    config: &RuntimeConfig,
    signature: &str,
    variant: &Variant,
    args: &mut Args,
    units: UnitRange,
    stream: StreamId,
    mut not_before: Cycles,
    measured: bool,
    faults: &mut FaultReport,
    launches: &mut u64,
) -> Result<LaunchRecord, ()> {
    let mut attempt = 0u32;
    loop {
        *launches += 1;
        match device.launch(LaunchSpec {
            kernel: variant.kernel.as_ref(),
            meta: &variant.meta,
            units,
            args,
            stream,
            not_before,
            measured,
            budget: None,
        }) {
            LaunchOutcome::Done(rec) => return Ok(rec),
            LaunchOutcome::Failed(failure) => {
                faults.launch_errors += 1;
                if !failure.transient || attempt >= config.max_launch_retries {
                    return Err(());
                }
                faults.retries += 1;
                not_before = failure.at + config.retry_backoff * (1u64 << attempt.min(16));
                attempt += 1;
                if let Some(obs) = &config.observe {
                    obs.emit(
                        Event::new(Stage::Retry)
                            .signature(signature)
                            .variant(variant.name())
                            .stream(stream.0)
                            .at(not_before.0)
                            .detail(format!("attempt={attempt}")),
                    );
                }
            }
            LaunchOutcome::Preempted(_) => {
                // No budget is attached here, so this arm is defensive: a
                // preempted launch is discarded like a hard failure.
                faults.preemptions += 1;
                return Err(());
            }
        }
    }
}

/// Leases sandboxes, snapshots the user buffers, runs the profiling
/// pipeline, and guarantees the cleanup invariants: leased sandboxes go
/// back to the pool, fault counters reach the runtime stats, and on error
/// the user buffers are restored bit-exactly from the snapshot.
#[allow(clippy::too_many_arguments)]
fn profile_and_run(
    device: &mut dyn Device,
    config: &RuntimeConfig,
    signature: &str,
    variants: &[Variant],
    active: &[usize],
    quarantine: &mut Vec<(VariantId, QuarantineReason)>,
    args: &mut Args,
    start: u64,
    end: u64,
    mode: ProfilingMode,
    orchestration: Orchestration,
    initial: VariantId,
    opts: &LaunchOptions,
    plan: &SafePointPlan,
    t_start: Cycles,
    sandboxes: &mut SandboxPool,
    timeline: &mut Timeline,
    stats: &mut LaunchStats,
) -> Result<LaunchReport, DyselError> {
    // Copy-on-write snapshot: the healthy path pays a handful of Arc
    // clones, and a degraded-to-error launch restores from it exactly.
    let snapshot = args.clone();

    // ---- sandbox / private output spaces --------------------------------
    // Leased from the sandbox pool so steady-state re-profiling recycles
    // the private copies instead of allocating them each launch.
    let mut extra_space_bytes = 0u64;
    let mut private_args: Vec<Option<Args>> = (0..variants.len()).map(|_| None).collect();
    let mut lease_err: Option<DyselError> = None;
    for (pos, &vi) in active.iter().enumerate() {
        let needs_copy = match mode {
            ProfilingMode::FullyProductive => false,
            ProfilingMode::HybridPartial => pos > 0,
            ProfilingMode::SwapPartial => true,
        };
        if !needs_copy {
            continue;
        }
        let v = &variants[vi];
        let leased = args
            .sandbox_bytes(&v.meta.sandbox_args)
            .map_err(DyselError::from)
            .and_then(|bytes| {
                extra_space_bytes += bytes;
                sandboxes
                    .lease(
                        signature,
                        vi,
                        args,
                        &v.meta.sandbox_args,
                        config.observe.as_deref(),
                    )
                    .map_err(DyselError::from)
            });
        match leased {
            Ok(p) => private_args[vi] = Some(p),
            Err(e) => {
                lease_err = Some(e);
                break;
            }
        }
    }

    let mut faults = FaultReport::default();
    let result = match lease_err {
        Some(e) => Err(e),
        None => profile_core(
            device,
            config,
            signature,
            variants,
            active,
            quarantine,
            args,
            &mut private_args,
            extra_space_bytes,
            &snapshot,
            start,
            end,
            mode,
            orchestration,
            initial,
            opts,
            plan,
            t_start,
            sandboxes,
            timeline,
            &mut faults,
        ),
    };

    // Hand the leased sandboxes back for reuse by later launches.
    for (vi, private) in private_args.into_iter().enumerate() {
        if let Some(sb) = private {
            sandboxes.give_back(signature, vi, sb);
        }
    }
    stats.record_faults(&faults);

    match result {
        Ok(report) => Ok(report),
        Err(e) => {
            *args = snapshot;
            Err(e)
        }
    }
}

/// The full profiling + selection + degradation + remaining-workload
/// pipeline. Fault accounting lands in `faults` even when this returns an
/// error (the wrapper folds it into the runtime statistics either way).
#[allow(clippy::too_many_arguments)]
fn profile_core(
    device: &mut dyn Device,
    config: &RuntimeConfig,
    signature: &str,
    variants: &[Variant],
    active: &[usize],
    quarantine: &mut Vec<(VariantId, QuarantineReason)>,
    args: &mut Args,
    private_args: &mut [Option<Args>],
    extra_space_bytes: u64,
    snapshot: &Args,
    start: u64,
    end: u64,
    mode: ProfilingMode,
    orchestration: Orchestration,
    initial: VariantId,
    opts: &LaunchOptions,
    plan: &SafePointPlan,
    t_start: Cycles,
    sandboxes: &mut SandboxPool,
    timeline: &mut Timeline,
    faults: &mut FaultReport,
) -> Result<LaunchReport, DyselError> {
    let k = variants.len();
    let ka = active.len();
    let reps = u64::from(opts.profile_reps);
    let s = plan.slice_units;
    let mut launches_issued: u64 = 0;
    let mut alive: Vec<usize> = active.to_vec();
    // Productive profiling slices a faulted variant left unwritten or
    // corrupt; re-executed with the winner before the final batch.
    let mut dead_slices: Vec<UnitRange> = Vec::new();

    // ---- issue profiling launches ---------------------------------------
    // All K * reps profiling launches go to the device as ONE batch: they
    // are mutually independent (disjoint productive slices, or private
    // sandboxes), so the device may fan their functional execution out
    // across worker threads while scheduling them in issue order.
    let mut profiled: Vec<ProfiledLaunch> = Vec::with_capacity(ka * reps as usize);
    let mut live_written = false;
    {
        // In the sandboxed modes every repetition re-runs the same slice.
        // Repetitions after the first run into a throwaway copy of their
        // variant's target (same buffers and addresses, so they price
        // exactly alike), so each (variant, slice) output is committed
        // once: an accumulating kernel must not count its slice per rep.
        let mut spares: Vec<Args> = Vec::new();
        if mode != ProfilingMode::FullyProductive && reps > 1 {
            spares = active
                .iter()
                .map(|&vi| private_args[vi].as_ref().unwrap_or(args).clone())
                .collect();
        }
        // targets[0] is the live argument set; each sandboxed variant's
        // lease follows, with `target_of[pos]` naming the slot the variant
        // at active position `pos` executes against, then the spares.
        let mut targets: Vec<&mut Args> = Vec::with_capacity(1 + ka + spares.len());
        targets.push(&mut *args);
        let mut target_of: Vec<usize> = vec![0; ka];
        for (vi, slot) in private_args.iter_mut().enumerate() {
            if let Some(p) = slot.as_mut() {
                let pos = active
                    .iter()
                    .position(|&a| a == vi)
                    .expect("sandboxes are leased for active variants only");
                target_of[pos] = targets.len();
                targets.push(p);
            }
        }
        let spare_of: Vec<usize> = spares
            .iter_mut()
            .map(|spare| {
                targets.push(spare);
                targets.len() - 1
            })
            .collect();
        let mut entries: Vec<BatchEntry<'_>> = Vec::with_capacity(ka * reps as usize);
        for (pos, &vi) in active.iter().enumerate() {
            let stream = StreamId(pos as u32 + 1);
            let v = &variants[vi];
            for r in 0..reps {
                let units = match mode {
                    ProfilingMode::FullyProductive => {
                        let idx = pos as u64 * reps + r;
                        UnitRange::new(start + idx * s, start + (idx + 1) * s)
                    }
                    _ => UnitRange::new(start, start + s),
                };
                entries.push(BatchEntry {
                    kernel: v.kernel.as_ref(),
                    meta: &v.meta,
                    units,
                    target: match spare_of.get(pos) {
                        Some(&spare) if r > 0 => spare,
                        _ => target_of[pos],
                    },
                    stream,
                    not_before: t_start,
                    measured: true,
                    budget: None,
                });
            }
        }
        launches_issued += entries.len() as u64;
        let outcomes = device.launch_batch(&entries, &mut targets);
        debug_assert_eq!(outcomes.len(), entries.len());
        for (e, outcome) in entries.iter().zip(outcomes) {
            let pos = usize::try_from(e.stream.0 - 1).expect("stream fits");
            let vi = active[pos];
            let record = match outcome {
                LaunchOutcome::Done(record) => Some(record),
                LaunchOutcome::Failed(first) => {
                    // Retry the failed profiling launch serially; its slot
                    // in the batch schedule is gone, but a profiling slice
                    // is small and the stream is otherwise idle.
                    faults.launch_errors += 1;
                    let mut recovered = None;
                    let mut fail = first;
                    let mut attempt = 0u32;
                    while fail.transient && attempt < config.max_launch_retries {
                        faults.retries += 1;
                        let not_before = fail.at + config.retry_backoff * (1u64 << attempt.min(16));
                        if let Some(obs) = &config.observe {
                            obs.emit(
                                Event::new(Stage::Retry)
                                    .signature(signature)
                                    .variant(&e.meta.name)
                                    .stream(e.stream.0)
                                    .at(not_before.0)
                                    .detail(format!("attempt={}", attempt + 1)),
                            );
                        }
                        launches_issued += 1;
                        match device.launch(LaunchSpec {
                            kernel: e.kernel,
                            meta: e.meta,
                            units: e.units,
                            args: &mut *targets[e.target],
                            stream: e.stream,
                            not_before,
                            measured: true,
                            budget: None,
                        }) {
                            LaunchOutcome::Done(record) => {
                                recovered = Some(record);
                                break;
                            }
                            LaunchOutcome::Failed(f2) => {
                                faults.launch_errors += 1;
                                fail = f2;
                                attempt += 1;
                            }
                            // Unbudgeted retry; defensive — give up.
                            LaunchOutcome::Preempted(_) => break,
                        }
                    }
                    if recovered.is_none() {
                        quarantine_variant(
                            config,
                            signature,
                            variants[vi].name(),
                            &mut alive,
                            quarantine,
                            faults,
                            vi,
                            QuarantineReason::LaunchFailed,
                        );
                        if e.target == 0 && mode == ProfilingMode::FullyProductive {
                            // Its productive slice was never written.
                            dead_slices.push(e.units);
                        }
                    }
                    recovered
                }
                LaunchOutcome::Preempted(p) => {
                    // The launch blew its cycle budget and was cut off
                    // mid-slice; its partial writes were discarded by the
                    // device. Fold the preemption into the deadline rung
                    // of the ladder: quarantine the variant and hand any
                    // productive slice it owned to the winner for repair.
                    faults.preemptions += 1;
                    faults.preempted_groups += p.groups_done;
                    faults.preempted_cycles += p.cycles_spent;
                    faults.deadline_discards += 1;
                    quarantine_variant(
                        config,
                        signature,
                        variants[vi].name(),
                        &mut alive,
                        quarantine,
                        faults,
                        vi,
                        QuarantineReason::DeadlineExceeded,
                    );
                    if e.target == 0 && mode == ProfilingMode::FullyProductive {
                        dead_slices.push(e.units);
                    }
                    None
                }
            };
            if let Some(record) = record {
                live_written |= e.target == 0;
                if let Some(obs) = &config.observe {
                    obs.count(names::PROFILE_LAUNCHES, 1);
                    if let Some(m) = record.measured {
                        obs.record_hist(
                            &dysel_obs::profile_cycles_key(signature, variants[vi].name()),
                            m.0,
                        );
                    }
                }
                record_entry(
                    timeline,
                    config,
                    signature,
                    e.stream.0,
                    TimelineEntry {
                        kind: LaunchKind::Profile,
                        variant: VariantId(vi),
                        variant_name: variants[vi].name().to_owned(),
                        units: e.units,
                        start: record.start,
                        end: record.end,
                    },
                );
                profiled.push(ProfiledLaunch {
                    variant: vi,
                    record,
                });
            }
        }
    }
    // In hybrid mode the first candidate's first repetition writes the
    // live slice; if that launch failed for good, the slice is unwritten.
    if mode == ProfilingMode::HybridPartial && !alive.contains(&active[0]) && !live_written {
        dead_slices.push(UnitRange::new(start, start + s));
    }

    // Per-variant best-of-reps measurements (quarantined and launch-less
    // variants surface as `Cycles::MAX` and can never win).
    let measurements: Vec<Measurement> = (0..k)
        .map(|i| {
            let best_measured = profiled
                .iter()
                .filter(|p| p.variant == i)
                .filter_map(|p| p.record.measured)
                .min()
                .unwrap_or(Cycles::MAX);
            let best_true = profiled
                .iter()
                .filter(|p| p.variant == i)
                .map(|p| p.record.span())
                .min()
                .unwrap_or(Cycles::MAX);
            Measurement {
                variant: VariantId(i),
                measured: best_measured,
                true_time: best_true,
            }
        })
        .collect();

    // ---- deadline discard (hang guard) ----------------------------------
    // A variant whose measurement exceeds `factor * best` is dropped: the
    // host stops waiting for it instead of stalling selection. Its data is
    // valid (the launch did complete in virtual time), so no repair.
    if let Some(factor) = config.profile_deadline_factor {
        let best = alive
            .iter()
            .map(|&vi| measurements[vi].measured)
            .filter(|&m| m < Cycles::MAX)
            .min();
        if let Some(best) = best {
            let budget = Cycles::from_f64(best.as_f64() * factor.max(1.0));
            let over: Vec<usize> = alive
                .iter()
                .copied()
                .filter(|&vi| measurements[vi].measured > budget)
                .collect();
            for vi in over {
                faults.deadline_discards += 1;
                quarantine_variant(
                    config,
                    signature,
                    variants[vi].name(),
                    &mut alive,
                    quarantine,
                    faults,
                    vi,
                    QuarantineReason::DeadlineExceeded,
                );
            }
        }
    }

    // The host waits only for launches of variants it still cares about.
    let profile_end = profiled
        .iter()
        .filter(|p| alive.contains(&p.variant))
        .map(|p| p.record.end)
        .max()
        .unwrap_or(t_start);

    // ---- output consensus (sandboxed modes) ------------------------------
    // Hybrid/swap candidates all computed the SAME slice, so their output
    // digests must agree. Computed before any eager chunk touches `args`.
    if config.validate_outputs && mode != ProfilingMode::FullyProductive {
        let outs = outputs_of(&variants[active[0]].meta, args);
        let mut digests: Vec<(usize, u64)> = Vec::new();
        for &vi in alive.iter() {
            if !profiled.iter().any(|p| p.variant == vi) {
                continue;
            }
            let digest = match private_args[vi].as_ref() {
                Some(p) => p.changed_digest(snapshot, &outs)?,
                None => args.changed_digest(snapshot, &outs)?,
            };
            digests.push((vi, digest));
        }
        if digests.len() >= 2 {
            let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
            for &(vi, d) in &digests {
                groups.entry(d).or_default().push(vi);
            }
            let first = active[0];
            // Largest agreeing group wins; ties prefer the group holding
            // the live-slice writer, then the lowest variant index.
            let trusted = groups
                .values()
                .max_by_key(|members| {
                    (
                        members.len(),
                        members.contains(&first),
                        std::cmp::Reverse(members[0]),
                    )
                })
                .cloned()
                .unwrap_or_default();
            for &(vi, _) in &digests {
                if !trusted.contains(&vi) {
                    faults.validation_failures += 1;
                    quarantine_variant(
                        config,
                        signature,
                        variants[vi].name(),
                        &mut alive,
                        quarantine,
                        faults,
                        vi,
                        QuarantineReason::WrongOutput,
                    );
                    if mode == ProfilingMode::HybridPartial && vi == first {
                        // The dissenter wrote the live slice: re-execute it.
                        dead_slices.push(UnitRange::new(start, start + s));
                    }
                }
            }
        }
    }

    if alive.is_empty() {
        return Err(DyselError::AllVariantsFaulted {
            signature: signature.to_owned(),
            quarantined: quarantine.len(),
        });
    }

    let profiled_end_units = match mode {
        ProfilingMode::FullyProductive => ka as u64 * reps * s,
        _ => s,
    };
    let mut next_unit = start + profiled_end_units;
    let mut eager_chunks = 0u64;
    let mut chunk_ends = Cycles::ZERO;
    let mut t_host = t_start;

    // ---- asynchronous eager execution (Fig. 4(b), Fig. 5) ---------------
    if orchestration == Orchestration::Async {
        let chunk_per_unit = opts
            .chunk_groups_per_unit
            .unwrap_or(config.default_chunk_groups_per_unit)
            .max(1);
        let chunk_groups = chunk_per_unit * u64::from(device.units());
        loop {
            if next_unit >= end {
                break;
            }
            // One status query per still-running profiling launch.
            let unfinished = profiled
                .iter()
                .filter(|p| alive.contains(&p.variant) && p.record.end > t_host)
                .count()
                .max(1);
            t_host += device.query_latency() * unfinished as u64;
            let all_done = |t: Cycles, profiled: &[ProfiledLaunch], alive: &[usize]| {
                profiled
                    .iter()
                    .filter(|p| alive.contains(&p.variant))
                    .all(|p| p.record.end <= t)
            };
            if all_done(t_host, &profiled, &alive) {
                break;
            }
            // Wait for a vacant execution unit before dispatching a chunk.
            let free = device.earliest_unit_free();
            if free > t_host {
                t_host = free;
                if all_done(t_host, &profiled, &alive) {
                    break;
                }
            }
            // The chunk runs with the best surviving variant the host has
            // seen so far; before any measurement lands, that is the
            // suggested initial default (Fig. 5(b)/(c)).
            let fallback = if alive.contains(&initial.0) {
                initial
            } else {
                VariantId(alive[0])
            };
            let current = best_so_far(&profiled, &alive, t_host).unwrap_or(fallback);
            let v = &variants[current.0];
            let chunk_units = chunk_groups * u64::from(v.meta.wa_factor);
            let chunk_end = (next_unit + chunk_units).min(end);
            match launch_checked(
                device,
                config,
                signature,
                v,
                args,
                UnitRange::new(next_unit, chunk_end),
                COMPUTE_STREAM,
                t_host,
                false,
                faults,
                &mut launches_issued,
            ) {
                Ok(rec) => {
                    record_entry(
                        timeline,
                        config,
                        signature,
                        COMPUTE_STREAM.0,
                        TimelineEntry {
                            kind: LaunchKind::EagerChunk,
                            variant: current,
                            variant_name: v.name().to_owned(),
                            units: UnitRange::new(next_unit, chunk_end),
                            start: rec.start,
                            end: rec.end,
                        },
                    );
                    eager_chunks += 1;
                    chunk_ends = chunk_ends.max(rec.end);
                    next_unit = chunk_end;
                    // Asynchronous enqueue: the host only pays the
                    // submission side of the launch overhead.
                    t_host += device.launch_overhead() / 4;
                }
                Err(()) => {
                    // A failed launch executed nothing: quarantine the
                    // variant and re-dispatch the same chunk with another.
                    quarantine_variant(
                        config,
                        signature,
                        v.name(),
                        &mut alive,
                        quarantine,
                        faults,
                        current.0,
                        QuarantineReason::LaunchFailed,
                    );
                    if alive.is_empty() {
                        return Err(DyselError::AllVariantsFaulted {
                            signature: signature.to_owned(),
                            quarantined: quarantine.len(),
                        });
                    }
                }
            }
        }
    }

    // ---- selection -------------------------------------------------------
    let t_sel = t_host.max(profile_end) + device.query_latency();
    // Surviving candidates by measurement; ties keep the lower index, so a
    // healthy run selects exactly what the paper's arg-min would.
    let mut order: Vec<usize> = alive.clone();
    order.sort_by_key(|&vi| (measurements[vi].measured, vi));
    let mut t_val = t_sel;

    // ---- winner cross-validation (fully-productive mode) -----------------
    // Productive slices were each written by a DIFFERENT variant, so no
    // consensus exists; instead the winner recomputes the losers' slices
    // into a scratch sandbox (and a referee recomputes the winner's).
    if config.validate_outputs && mode == ProfilingMode::FullyProductive && order.len() >= 2 {
        let mut scratch = sandboxes.lease(
            signature,
            VALIDATE_SLOT,
            args,
            &variants[order[0]].meta.sandbox_args,
            config.observe.as_deref(),
        )?;
        let vres = validate_fp(
            device,
            config,
            signature,
            variants,
            active,
            reps,
            s,
            start,
            args,
            &mut scratch,
            &mut order,
            &mut alive,
            quarantine,
            &mut dead_slices,
            faults,
            &mut launches_issued,
            timeline,
            &mut t_val,
        );
        sandboxes.give_back(signature, VALIDATE_SLOT, scratch);
        vres?;
    }

    let winner = VariantId(order[0]);
    if let Some(obs) = &config.observe {
        obs.emit(
            Event::new(Stage::Select)
                .signature(signature)
                .variant(variants[winner.0].name())
                .at(t_val.0)
                .detail(format!("measured={}", measurements[winner.0].measured.0)),
        );
    }

    // Swap-based: adopt the winner's private outputs as the final output.
    if mode == ProfilingMode::SwapPartial {
        let sandbox_args = variants[winner.0].meta.sandbox_args.clone();
        if let Some(private) = private_args[winner.0].as_mut() {
            args.adopt_outputs(private, &sandbox_args)?;
        }
    }

    // ---- repairs ---------------------------------------------------------
    // Re-execute every dead productive slice with the winner so the final
    // output is exactly what an all-healthy launch would have produced.
    // Every repair is enqueued at the same host issue time (`t_val`): the
    // compute stream serializes them, and the per-launch overhead overlaps
    // execution of the previous repair (pipelined enqueue) instead of
    // being paid again between every pair.
    let mut t_repair = t_val;
    for range in std::mem::take(&mut dead_slices) {
        let v = &variants[winner.0];
        let rec = launch_checked(
            device,
            config,
            signature,
            v,
            args,
            range,
            COMPUTE_STREAM,
            t_val,
            false,
            faults,
            &mut launches_issued,
        )
        .map_err(|()| DyselError::LaunchFailed {
            signature: signature.to_owned(),
            variant: v.name().to_owned(),
        })?;
        faults.repaired_slices += 1;
        faults.repaired_units += range.len();
        record_entry(
            timeline,
            config,
            signature,
            COMPUTE_STREAM.0,
            TimelineEntry {
                kind: LaunchKind::Repair,
                variant: winner,
                variant_name: v.name().to_owned(),
                units: range,
                start: rec.start,
                end: rec.end,
            },
        );
        t_repair = t_repair.max(rec.end);
    }

    // ---- remaining workload ----------------------------------------------
    let mut total_end = t_val.max(chunk_ends).max(profile_end).max(t_repair);
    if next_unit < end {
        let v = &variants[winner.0];
        // Issued at selection time; the compute stream already orders it
        // behind any repairs (same pipelined-enqueue overlap as above).
        let rec = launch_checked(
            device,
            config,
            signature,
            v,
            args,
            UnitRange::new(next_unit, end),
            COMPUTE_STREAM,
            t_val.max(t_sel),
            false,
            faults,
            &mut launches_issued,
        )
        .map_err(|()| DyselError::LaunchFailed {
            signature: signature.to_owned(),
            variant: v.name().to_owned(),
        })?;
        record_entry(
            timeline,
            config,
            signature,
            COMPUTE_STREAM.0,
            TimelineEntry {
                kind: LaunchKind::Batch,
                variant: winner,
                variant_name: v.name().to_owned(),
                units: UnitRange::new(next_unit, end),
                start: rec.start,
                end: rec.end,
            },
        );
        total_end = total_end.max(rec.end);
    }

    let gross_productive = match mode {
        ProfilingMode::FullyProductive => profiled_end_units,
        _ => s,
    };
    let productive_units = gross_productive.saturating_sub(faults.repaired_units);
    let wasted_units = (ka as u64 * reps * s).saturating_sub(productive_units);

    Ok(LaunchReport {
        signature: signature.to_owned(),
        tenant: config.tenant,
        selected: winner,
        selected_name: variants[winner.0].name().to_owned(),
        mode: Some(mode),
        orchestration,
        skipped: None,
        total_time: total_end.saturating_sub(t_start),
        profile_time: t_val.saturating_sub(t_start),
        measurements,
        productive_units,
        wasted_units,
        extra_space_bytes,
        eager_chunks,
        launches: launches_issued,
        pruned_variants: 0,
        prune_disagreement: false,
        predicted: None,
        predict_hit: None,
        drift_reprofiled: false,
        faults: faults.clone(),
    })
}

/// Fully-productive winner validation (two passes over a scratch sandbox).
///
/// Pass 1: the provisional winner recomputes every runner-up's productive
/// slices into `scratch` and flags those whose bits disagree with what the
/// runner-up wrote. Pass 2: a referee (the best non-suspect runner-up)
/// recomputes the *winner's* slices — this runs even with zero suspects,
/// because a corrupt winner whose validation launches happen to be clean
/// (a windowed fault) is otherwise invisible. A winner contradicted by the
/// referee, or by ALL of at least two runner-ups, is quarantined and its
/// slices marked dead; otherwise the dissenting runner-ups are quarantined.
///
/// With only two candidates left and a disagreement, the pair is
/// indistinguishable; the runtime trusts the (faster) winner — the
/// documented K=2 limitation.
#[allow(clippy::too_many_arguments)]
fn validate_fp(
    device: &mut dyn Device,
    config: &RuntimeConfig,
    signature: &str,
    variants: &[Variant],
    active: &[usize],
    reps: u64,
    s: u64,
    start: u64,
    args: &Args,
    scratch: &mut Args,
    order: &mut Vec<usize>,
    alive: &mut Vec<usize>,
    quarantine: &mut Vec<(VariantId, QuarantineReason)>,
    dead_slices: &mut Vec<UnitRange>,
    faults: &mut FaultReport,
    launches_issued: &mut u64,
    timeline: &mut Timeline,
    t_val: &mut Cycles,
) -> Result<(), DyselError> {
    let slice_of = |vi: usize, r: u64| -> Option<UnitRange> {
        let pos = active.iter().position(|&a| a == vi)?;
        let idx = pos as u64 * reps + r;
        Some(UnitRange::new(start + idx * s, start + (idx + 1) * s))
    };
    // Recomputes `who`'s launch of `range` into the refreshed scratch and
    // reports whether the recomputed bits disagree with the live output.
    // `Ok(None)` means the recomputing variant's launch itself failed.
    macro_rules! recompute {
        ($by:expr, $range:expr) => {{
            let v: &Variant = $by;
            let range: UnitRange = $range;
            scratch.refresh_from(args)?;
            faults.validation_launches += 1;
            match launch_checked(
                device,
                config,
                signature,
                v,
                scratch,
                range,
                VALIDATE_STREAM,
                *t_val,
                false,
                faults,
                launches_issued,
            ) {
                Ok(rec) => {
                    record_entry(
                        timeline,
                        config,
                        signature,
                        VALIDATE_STREAM.0,
                        TimelineEntry {
                            kind: LaunchKind::Validate,
                            variant: VariantId(
                                variants
                                    .iter()
                                    .position(|x| std::ptr::eq(x, v))
                                    .unwrap_or(0),
                            ),
                            variant_name: v.name().to_owned(),
                            units: range,
                            start: rec.start,
                            end: rec.end,
                        },
                    );
                    *t_val = (*t_val).max(rec.end);
                    let outs = outputs_of(&v.meta, args);
                    Some(args.bits_differ(scratch, &outs)?)
                }
                Err(()) => None,
            }
        }};
    }

    loop {
        if order.len() < 2 {
            return Ok(());
        }
        let winner = order[0];
        // Pass 1: winner recomputes each runner-up's slices.
        let mut suspects: Vec<usize> = Vec::new();
        let mut winner_broke = false;
        let mut checked = 0usize;
        for &cand in order.iter().skip(1).collect::<Vec<_>>() {
            let mut differs = false;
            let mut failed = false;
            for r in 0..reps {
                let Some(range) = slice_of(cand, r) else {
                    continue;
                };
                match recompute!(&variants[winner], range) {
                    Some(true) => differs = true,
                    Some(false) => {}
                    None => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                winner_broke = true;
                break;
            }
            checked += 1;
            if differs {
                suspects.push(cand);
            }
        }
        if winner_broke {
            // The winner cannot even launch any more: quarantine it. Its
            // own productive slices were written successfully earlier and
            // stay valid — no repair needed.
            quarantine_variant(
                config,
                signature,
                variants[winner].name(),
                alive,
                quarantine,
                faults,
                winner,
                QuarantineReason::LaunchFailed,
            );
            order.remove(0);
            continue;
        }

        // Pass 2: a referee recomputes the winner's slices.
        let mut winner_bad = checked >= 2 && !suspects.is_empty() && suspects.len() == checked;
        let referee = order
            .iter()
            .skip(1)
            .find(|vi| !suspects.contains(vi))
            .copied();
        if let Some(rf) = referee {
            let mut ref_broke = false;
            let mut ref_differs = false;
            for r in 0..reps {
                let Some(range) = slice_of(winner, r) else {
                    continue;
                };
                match recompute!(&variants[rf], range) {
                    Some(true) => ref_differs = true,
                    Some(false) => {}
                    None => {
                        ref_broke = true;
                        break;
                    }
                }
            }
            if ref_broke {
                quarantine_variant(
                    config,
                    signature,
                    variants[rf].name(),
                    alive,
                    quarantine,
                    faults,
                    rf,
                    QuarantineReason::LaunchFailed,
                );
                order.retain(|&vi| vi != rf);
                continue; // same winner, next referee
            }
            if ref_differs {
                winner_bad = true;
            }
        }

        if winner_bad {
            faults.validation_failures += 1;
            quarantine_variant(
                config,
                signature,
                variants[winner].name(),
                alive,
                quarantine,
                faults,
                winner,
                QuarantineReason::WrongOutput,
            );
            for r in 0..reps {
                if let Some(range) = slice_of(winner, r) {
                    dead_slices.push(range);
                }
            }
            order.remove(0);
            continue; // revalidate under the next-best winner
        }
        // Winner confirmed: the dissenting runner-ups are the wrong ones.
        for &cand in &suspects {
            faults.validation_failures += 1;
            quarantine_variant(
                config,
                signature,
                variants[cand].name(),
                alive,
                quarantine,
                faults,
                cand,
                QuarantineReason::WrongOutput,
            );
            for r in 0..reps {
                if let Some(range) = slice_of(cand, r) {
                    dead_slices.push(range);
                }
            }
        }
        order.retain(|vi| !suspects.contains(vi));
        return Ok(());
    }
}

/// Best (minimum measured) surviving variant among profiling launches the
/// host has observed complete by `t`.
fn best_so_far(profiled: &[ProfiledLaunch], alive: &[usize], t: Cycles) -> Option<VariantId> {
    profiled
        .iter()
        .filter(|p| alive.contains(&p.variant) && p.record.end <= t)
        .filter_map(|p| p.record.measured.map(|m| (m, p.variant)))
        .min()
        .map(|(_, v)| VariantId(v))
}
