//! What one pass measured, how it travels from the pass process to the
//! orchestrator, and the statistics the orchestrator reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dysel_core::{LaunchReport, SkipReason};
use dysel_device::Cycles;

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` plus a terminator into an FNV-1a digest (the fold the
/// program's own selection digests use).
pub fn fnv_fold(digest: &mut u64, bytes: &[u8]) {
    for b in bytes.iter().chain(&[0u8]) {
        *digest ^= u64::from(*b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The deterministic outcome of a sequence of DySel launches: a pure
/// function of the program and its inputs, never of host timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selections {
    /// FNV-1a over the `(signature, selected variant)` sequence.
    pub digest: u64,
    /// FNV-1a over every launch report, all fields.
    pub report_digest: u64,
    /// Simulated device time of all launches.
    pub virt_cycles: u64,
    /// Simulated micro-profiling time (selection included).
    pub profile_cycles: u64,
    /// Launches that micro-profiled.
    pub profiled: u64,
    /// Profiled launches whose winner was the noise-free best on the slice.
    pub accurate: u64,
    /// Variants actually micro-profiled (sentinel measurements excluded).
    pub profiled_variants: u64,
    /// Launches that reused a cached selection.
    pub cache_hits: u64,
    /// Launches recorded.
    pub launches: u64,
    /// Units executed and discarded during profiling.
    pub wasted_units: u64,
    /// Units of the launched workloads.
    pub total_units: u64,
    /// Largest extra output space one launch pinned.
    pub max_extra_space_bytes: u64,
}

impl Default for Selections {
    fn default() -> Self {
        Selections {
            digest: FNV_OFFSET,
            report_digest: FNV_OFFSET,
            virt_cycles: 0,
            profile_cycles: 0,
            profiled: 0,
            accurate: 0,
            profiled_variants: 0,
            cache_hits: 0,
            launches: 0,
            wasted_units: 0,
            total_units: 0,
            max_extra_space_bytes: 0,
        }
    }
}

impl Selections {
    /// Records one launch of `signature` over `total_units` units.
    pub fn record(&mut self, signature: &str, total_units: u64, r: &LaunchReport) {
        fnv_fold(&mut self.digest, signature.as_bytes());
        fnv_fold(&mut self.digest, r.selected_name.as_bytes());
        fnv_fold(&mut self.report_digest, format!("{r:?}").as_bytes());
        self.virt_cycles += r.total_time.0;
        self.profile_cycles += r.profile_time.0;
        if r.profiled() {
            self.profiled += 1;
            self.accurate += u64::from(r.selection_accurate());
        }
        self.profiled_variants += r
            .measurements
            .iter()
            .filter(|m| m.measured < Cycles::MAX)
            .count() as u64;
        self.cache_hits += u64::from(r.skipped == Some(SkipReason::CachedSelection));
        self.launches += 1;
        self.wasted_units += r.wasted_units;
        self.total_units += total_units;
        self.max_extra_space_bytes = self.max_extra_space_bytes.max(r.extra_space_bytes);
    }
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassResult {
    /// Set-up time: the median of the pass's set-up repetitions.
    pub setup_s: f64,
    /// Host time of the workload's fixed launch sequence (on `service`,
    /// of the closed-loop phase).
    pub wall_s: f64,
    /// Process peak resident set (`VmHWM`) at the end of the pass.
    pub peak_rss_mb: f64,
    /// Launches attempted.
    pub attempted: u64,
    /// Launches accepted, completed, verified and (open loop) on time.
    pub ok: u64,
    /// Launches refused or failed.
    pub failed: u64,
    /// Completed launches whose output failed its host-reference check.
    pub wrong: u64,
    /// Batch workloads: host ms of each launch of the sequence, in order
    /// (they sum to `wall_s`). Service: latency of each open-loop
    /// submission from its due time, in order; infinite when refused or
    /// failed.
    pub launch_ms: Vec<f64>,
    /// Counts and virtual times that must repeat exactly, as
    /// `name -> value`; compared across every pass of a build.
    pub exact: BTreeMap<String, u64>,
    /// Per-layer measurements (traced passes only).
    pub layers: BTreeMap<String, f64>,
}

impl PassResult {
    /// Stores the deterministic launch outcome in [`PassResult::exact`].
    pub fn set_selections(&mut self, s: &Selections) {
        for (name, value) in [
            ("digest", s.digest),
            ("report_digest", s.report_digest),
            ("virt_cycles", s.virt_cycles),
            ("profile_cycles", s.profile_cycles),
            ("profiled", s.profiled),
            ("accurate", s.accurate),
            ("profiled_variants", s.profiled_variants),
            ("cache_hits", s.cache_hits),
            ("launches", s.launches),
            ("wasted_units", s.wasted_units),
            ("total_units", s.total_units),
            ("max_extra_space_bytes", s.max_extra_space_bytes),
        ] {
            self.exact.insert(name.to_owned(), value);
        }
    }

    /// An exact value (0 when absent).
    pub fn exact(&self, name: &str) -> u64 {
        self.exact.get(name).copied().unwrap_or(0)
    }

    /// Serializes as `key value` lines (floats in shortest round-trip form).
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in [
            ("setup_s", self.setup_s),
            ("wall_s", self.wall_s),
            ("peak_rss_mb", self.peak_rss_mb),
        ] {
            let _ = writeln!(out, "{k} {v:?}");
        }
        for (k, v) in [
            ("attempted", self.attempted),
            ("ok", self.ok),
            ("failed", self.failed),
            ("wrong", self.wrong),
        ] {
            let _ = writeln!(out, "{k} {v}");
        }
        let samples: Vec<String> = self.launch_ms.iter().map(|v| format!("{v:?}")).collect();
        let _ = writeln!(out, "launch_ms {}", samples.join(","));
        for (k, v) in &self.exact {
            let _ = writeln!(out, "exact {k} {v}");
        }
        for (k, v) in &self.layers {
            let _ = writeln!(out, "layer {k} {v:?}");
        }
        out
    }

    /// Parses [`PassResult::to_lines`] output, ignoring unknown lines.
    ///
    /// # Errors
    ///
    /// Describes the first malformed value.
    pub fn from_lines(text: &str) -> Result<PassResult, String> {
        fn num<T: std::str::FromStr>(v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad number {v:?}"))
        }
        let mut r = PassResult::default();
        for line in text.lines() {
            let mut it = line.splitn(3, ' ');
            let (key, a, b) = (it.next().unwrap_or(""), it.next().unwrap_or(""), it.next());
            match (key, b) {
                ("setup_s", None) => r.setup_s = num(a)?,
                ("wall_s", None) => r.wall_s = num(a)?,
                ("peak_rss_mb", None) => r.peak_rss_mb = num(a)?,
                ("attempted", None) => r.attempted = num(a)?,
                ("ok", None) => r.ok = num(a)?,
                ("failed", None) => r.failed = num(a)?,
                ("wrong", None) => r.wrong = num(a)?,
                ("launch_ms", None) if !a.is_empty() => {
                    r.launch_ms = a.split(',').map(num).collect::<Result<_, _>>()?;
                }
                ("exact", Some(v)) => {
                    r.exact.insert(a.to_owned(), num(v)?);
                }
                ("layer", Some(v)) => {
                    r.layers.insert(a.to_owned(), num(v)?);
                }
                _ => {}
            }
        }
        Ok(r)
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Percentile `p` of `values` by linear interpolation between closest
/// ranks (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_results_round_trip() {
        let mut r = PassResult {
            setup_s: 0.125,
            wall_s: 1.0 / 3.0,
            peak_rss_mb: 12.5,
            attempted: 7,
            ok: 6,
            failed: 1,
            wrong: 0,
            launch_ms: vec![1.5, 0.1],
            ..PassResult::default()
        };
        r.exact.insert("digest".into(), u64::MAX);
        r.layers.insert("device.busy_s".into(), 0.2);
        assert_eq!(PassResult::from_lines(&r.to_lines()).unwrap(), r);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
