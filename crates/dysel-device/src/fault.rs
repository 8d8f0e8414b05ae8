//! Deterministic fault injection for the device models.
//!
//! A [`FaultPlan`] is a seeded, serializable list of [`FaultRule`]s the
//! streaming launch engine consults once per launch, keyed by
//! `(variant name, per-variant launch index)`. Four fault classes cover
//! the failure modes a production selector must survive:
//!
//! * [`FaultKind::LaunchError`] — the launch fails before any work-group
//!   runs (transient: a retry may succeed);
//! * [`FaultKind::WrongOutput`] — the launch completes but every element
//!   it wrote is silently tampered;
//! * [`FaultKind::Poison`] — like `WrongOutput`, but the written elements
//!   become NaN / sentinel values;
//! * [`FaultKind::Hang`] — the launch completes functionally but each
//!   work-group is priced at ×N cycles, blowing any profiling deadline.
//!
//! Decisions are a pure function of `(plan seed, variant name, launch
//! index, rule position)` — independent of worker-thread count and host
//! scheduling — so faulted runs replay bit-identically, preserving the
//! determinism contract. [`FaultPlan::reset`] rewinds the launch counters
//! (keeping the rules), which is what `Device::reset` calls so a reset
//! device replays the same faults.
//!
//! Plans have a compact text form for the `--fault-plan` CLI flag:
//!
//! ```text
//! seed=7;scalar=error;vector@2+1=wrong;texture=hang*64;padded@0+4=poison?0.5
//! ```
//!
//! i.e. `;`-separated rules `NAME[@FROM[+COUNT]]=KIND[*FACTOR][?PROB]`,
//! with an optional leading `seed=N`. `FROM` is the first per-variant
//! launch index the rule covers, `COUNT` the window length (unbounded if
//! omitted), `*FACTOR` the hang multiplier and `?PROB` an independent
//! firing probability.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Hang multiplier used when a `hang` rule does not name one.
pub const DEFAULT_HANG_FACTOR: u64 = 32;

/// The class of fault a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The launch fails outright before executing; retryable.
    LaunchError,
    /// Silent corruption: every element the launch wrote is bit-tampered.
    WrongOutput,
    /// NaN / sentinel values written over every element the launch wrote.
    Poison,
    /// Every work-group's priced cost is multiplied by the factor.
    Hang(u64),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::LaunchError => f.write_str("error"),
            FaultKind::WrongOutput => f.write_str("wrong"),
            FaultKind::Poison => f.write_str("poison"),
            FaultKind::Hang(n) => write!(f, "hang*{n}"),
        }
    }
}

/// One injection rule: which variant, which launch-index window, what
/// fault, and with what probability.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Variant name the rule applies to (exact match).
    pub variant: String,
    /// First per-variant launch index the rule covers.
    pub from: u64,
    /// Number of launch indexes covered (`u64::MAX` = unbounded).
    pub count: u64,
    /// The fault to inject.
    pub kind: FaultKind,
    /// Independent firing probability in `[0, 1]`; `1.0` fires always.
    pub probability: f64,
}

impl FaultRule {
    /// A rule covering every launch of `variant`, firing always.
    pub fn new(variant: impl Into<String>, kind: FaultKind) -> FaultRule {
        FaultRule {
            variant: variant.into(),
            from: 0,
            count: u64::MAX,
            kind,
            probability: 1.0,
        }
    }

    /// Restricts the rule to launch indexes `[from, from + count)`.
    #[must_use]
    pub fn window(mut self, from: u64, count: u64) -> FaultRule {
        self.from = from;
        self.count = count;
        self
    }

    /// Makes the rule fire with probability `p` (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_probability(mut self, p: f64) -> FaultRule {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    fn covers(&self, index: u64) -> bool {
        index >= self.from && index.wrapping_sub(self.from) < self.count
    }
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.variant)?;
        if self.count != u64::MAX {
            write!(f, "@{}+{}", self.from, self.count)?;
        } else if self.from != 0 {
            write!(f, "@{}", self.from)?;
        }
        write!(f, "={}", self.kind)?;
        if self.probability < 1.0 {
            write!(f, "?{}", self.probability)?;
        }
        Ok(())
    }
}

/// One fault the plan actually injected, for post-run accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Variant the fault hit.
    pub variant: String,
    /// Per-variant launch index of the hit.
    pub launch_index: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// A seeded, deterministic fault-injection plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    counters: HashMap<String, u64>,
    injected: Vec<InjectedFault>,
}

impl FaultPlan {
    /// An empty plan with the given probability seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a rule (builder form).
    #[must_use]
    pub fn with(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: FaultRule) {
        self.rules.push(rule);
    }

    /// The plan's probability seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// True when the plan holds no rules (it then never injects).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Decides the fault (if any) for the next launch of `variant`,
    /// advancing its per-variant launch counter. The first covering rule
    /// whose probability draw fires wins; a rule that covers the index but
    /// draws "no" falls through to the next rule.
    pub fn decide(&mut self, variant: &str) -> Option<FaultKind> {
        let counter = self.counters.entry(variant.to_owned()).or_insert(0);
        let index = *counter;
        *counter += 1;
        for (r, rule) in self.rules.iter().enumerate() {
            if rule.variant != variant || !rule.covers(index) {
                continue;
            }
            if rule.probability < 1.0 && draw(self.seed, variant, index, r) >= rule.probability {
                continue;
            }
            self.injected.push(InjectedFault {
                variant: variant.to_owned(),
                launch_index: index,
                kind: rule.kind,
            });
            return Some(rule.kind);
        }
        None
    }

    /// Number of launches of `variant` the plan has seen so far.
    pub fn launches_of(&self, variant: &str) -> u64 {
        self.counters.get(variant).copied().unwrap_or(0)
    }

    /// Every fault injected so far, in injection order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.injected
    }

    /// How many faults of exactly `kind` were injected so far.
    pub fn injected_count(&self, kind: FaultKind) -> u64 {
        self.injected.iter().filter(|i| i.kind == kind).count() as u64
    }

    /// Total faults injected so far.
    pub fn total_injected(&self) -> u64 {
        self.injected.len() as u64
    }

    /// Rewinds the launch counters and the injection log, keeping the
    /// rules — a reset device replays the exact same fault sequence.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.injected.clear();
    }
}

/// A stateless probability draw: pure in `(seed, variant, index, rule)`,
/// so it is independent of thread count and evaluation order.
fn draw(seed: u64, variant: &str, index: u64, rule: usize) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in variant.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= (rule as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for rule in &self.rules {
            write!(f, ";{rule}")?;
        }
        Ok(())
    }
}

/// Error from parsing a fault-plan string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanParseError(String);

impl fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan: {}", self.0)
    }
}

impl Error for FaultPlanParseError {}

impl FromStr for FaultPlan {
    type Err = FaultPlanParseError;

    fn from_str(s: &str) -> Result<FaultPlan, FaultPlanParseError> {
        let mut plan = FaultPlan::new(0);
        for (i, part) in s.split(';').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if i == 0 {
                if let Some(seed) = part.strip_prefix("seed=") {
                    plan.seed = seed
                        .parse()
                        .map_err(|_| FaultPlanParseError(format!("seed {seed:?}")))?;
                    continue;
                }
            }
            plan.push(parse_rule(part)?);
        }
        Ok(plan)
    }
}

fn parse_rule(s: &str) -> Result<FaultRule, FaultPlanParseError> {
    let err = || FaultPlanParseError(format!("rule {s:?}"));
    let (lhs, rhs) = s.split_once('=').ok_or_else(err)?;
    // Left side: NAME[@FROM[+COUNT]].
    let (name, from, count) = match lhs.split_once('@') {
        None => (lhs, 0, u64::MAX),
        Some((name, window)) => {
            let (from, count) = match window.split_once('+') {
                None => (window.parse().map_err(|_| err())?, u64::MAX),
                Some((f, c)) => (f.parse().map_err(|_| err())?, c.parse().map_err(|_| err())?),
            };
            (name, from, count)
        }
    };
    if name.is_empty() {
        return Err(err());
    }
    // Right side: KIND[*FACTOR][?PROB].
    let (kind_str, probability) = match rhs.split_once('?') {
        None => (rhs, 1.0),
        Some((k, p)) => (k, p.parse::<f64>().map_err(|_| err())?),
    };
    let kind = match kind_str.split_once('*') {
        None => match kind_str {
            "error" => FaultKind::LaunchError,
            "wrong" => FaultKind::WrongOutput,
            "poison" => FaultKind::Poison,
            "hang" => FaultKind::Hang(DEFAULT_HANG_FACTOR),
            _ => return Err(err()),
        },
        Some(("hang", n)) => FaultKind::Hang(n.parse().map_err(|_| err())?),
        Some(_) => return Err(err()),
    };
    if !(0.0..=1.0).contains(&probability) {
        return Err(err());
    }
    Ok(FaultRule::new(name, kind)
        .window(from, count)
        .with_probability(probability))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let text = "seed=7;scalar=error;vector@2+1=wrong;texture=hang*64;padded@0+4=poison?0.5";
        let plan: FaultPlan = text.parse().unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.rules().len(), 4);
        assert_eq!(plan.to_string(), text);
        let again: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(again, plan);
    }

    #[test]
    fn parse_defaults_and_shorthands() {
        let plan: FaultPlan = "v=hang;w@3=error".parse().unwrap();
        assert_eq!(plan.seed(), 0);
        assert_eq!(plan.rules()[0].kind, FaultKind::Hang(DEFAULT_HANG_FACTOR));
        assert_eq!(plan.rules()[1].from, 3);
        assert_eq!(plan.rules()[1].count, u64::MAX);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "v",
            "=error",
            "v=explode",
            "v@x=error",
            "v=hang*x",
            "v=wrong?2",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn windows_select_launch_indexes() {
        let mut plan =
            FaultPlan::new(0).with(FaultRule::new("v", FaultKind::LaunchError).window(1, 2));
        let hits: Vec<bool> = (0..5).map(|_| plan.decide("v").is_some()).collect();
        assert_eq!(hits, [false, true, true, false, false]);
        assert_eq!(plan.launches_of("v"), 5);
        assert_eq!(plan.total_injected(), 2);
        // Other variants are untouched.
        assert_eq!(plan.decide("w"), None);
    }

    #[test]
    fn first_covering_rule_wins_and_failed_draws_fall_through() {
        let mut plan = FaultPlan::new(1)
            .with(FaultRule::new("v", FaultKind::WrongOutput).with_probability(0.0))
            .with(FaultRule::new("v", FaultKind::Poison));
        // The first rule never fires; the second always does.
        assert_eq!(plan.decide("v"), Some(FaultKind::Poison));
    }

    #[test]
    fn probability_draws_are_deterministic_and_roughly_calibrated() {
        let run = |seed| {
            let mut plan = FaultPlan::new(seed)
                .with(FaultRule::new("v", FaultKind::LaunchError).with_probability(0.3));
            (0..1000).filter(|_| plan.decide("v").is_some()).count()
        };
        assert_eq!(run(9), run(9));
        let hits = run(9);
        assert!((200..400).contains(&hits), "0.3 prob fired {hits}/1000");
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn reset_replays_the_same_decisions() {
        let mut plan: FaultPlan = "seed=3;v=wrong?0.5".parse().unwrap();
        let first: Vec<_> = (0..20).map(|_| plan.decide("v")).collect();
        let log = plan.injected().to_vec();
        plan.reset();
        assert!(plan.injected().is_empty());
        assert_eq!(plan.launches_of("v"), 0);
        let second: Vec<_> = (0..20).map(|_| plan.decide("v")).collect();
        assert_eq!(first, second);
        assert_eq!(plan.injected(), log);
    }
}
