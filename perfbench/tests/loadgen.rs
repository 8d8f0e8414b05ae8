//! The seeded inputs and load: the same seed gives the same inputs, stream
//! sequence and schedule; another seed changes them.

use std::collections::BTreeSet;

use perfbench::inputs::{self, load_plan, Submission, CLOSED_LAUNCHES, OPEN_LAUNCHES};
use perfbench::passes::LOADGEN_THREADS;

const SIGNATURES: usize = 12;

#[test]
fn same_seed_gives_the_same_load() {
    assert_eq!(load_plan(3, SIGNATURES), load_plan(3, SIGNATURES));
}

#[test]
fn another_seed_changes_the_load() {
    let (a, b) = (load_plan(3, SIGNATURES), load_plan(4, SIGNATURES));
    assert_ne!(a.open, b.open);
    assert_ne!(a.closed, b.closed);
}

#[test]
fn every_signature_gets_the_same_share_and_phases_never_share_a_tenant() {
    let plan = load_plan(9, SIGNATURES);
    assert_eq!(plan.open.len(), OPEN_LAUNCHES);
    assert_eq!(plan.closed.len(), CLOSED_LAUNCHES);
    for phase in [&plan.open, &plan.closed] {
        let mut counts = [0usize; SIGNATURES];
        for s in phase.iter() {
            counts[s.input] += 1;
        }
        let (lo, hi) = (counts.iter().min(), counts.iter().max());
        assert!(hi.zip(lo).is_some_and(|(h, l)| h - l <= 1), "{counts:?}");
    }
    let tenants = |p: &[Submission]| p.iter().map(|s| s.tenant).collect::<BTreeSet<_>>();
    assert!(tenants(&plan.open).is_disjoint(&tenants(&plan.closed)));
    assert!(!tenants(&plan.open).contains(&0));
}

#[test]
fn load_keeps_opening_new_streams_while_most_launches_are_warm() {
    let plan = load_plan(1, SIGNATURES);
    let mut seen = BTreeSet::new();
    let first_launches: Vec<usize> = plan
        .open
        .iter()
        .enumerate()
        .filter(|(_, s)| seen.insert(**s))
        .map(|(i, _)| i)
        .collect();
    assert!(
        first_launches.len() * 2 < plan.open.len(),
        "most launches are warm"
    );
    assert!(first_launches
        .last()
        .is_some_and(|&i| i > plan.open.len() / 2));
}

fn inputs_differ(a: u64, b: u64) -> bool {
    let (x, y) = (
        inputs::suite(&inputs::SELECT, a),
        inputs::suite(&inputs::SELECT, b),
    );
    x.iter().zip(&y).any(|((_, u), (_, v))| {
        let (p, q) = (u.fresh_args(), v.fresh_args());
        let all: Vec<usize> = (0..p.len()).collect();
        p.bits_differ(&q, &all).expect("same input layout")
    })
}

#[test]
fn same_seed_gives_the_same_inputs() {
    assert!(!inputs_differ(5, 5));
    assert!(inputs_differ(5, 6));
}

#[test]
fn load_generator_stays_within_the_core_count() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(LOADGEN_THREADS <= cores);
}
