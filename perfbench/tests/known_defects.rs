//! A runtime defect that keeps `select` at one profiling repetition.
//!
//! With `profile_reps` above 1, swap-mode profiling runs every repetition
//! of a slice into the same sandbox without restoring it in between. The
//! histogram kernels accumulate into their output, so the winner's slice
//! is counted once per repetition and the launch returns a wrong output.
//! Once the runtime restores (or re-leases) the sandbox between
//! repetitions, this test passes and `select` can cycle 1 and 3
//! repetitions again (§5.2).

use dysel_core::{LaunchOptions, PruneLevel, Runtime, RuntimeConfig, VerifyLevel};
use dysel_workloads::Target;
use perfbench::inputs;
use perfbench::probe;

#[test]
#[ignore = "runtime defect: profiling repetitions accumulate into an unrestored sandbox"]
fn repeated_profiling_keeps_histogram_outputs_correct() {
    let config = RuntimeConfig {
        verify: VerifyLevel::Lenient,
        prune: PruneLevel::Audit,
        ..RuntimeConfig::default()
    };
    let mut wrong = Vec::new();
    for (name, w) in inputs::suite(&inputs::SELECT, 7) {
        if !name.starts_with("histogram") {
            continue;
        }
        for target in [Target::Cpu, Target::Gpu] {
            let mut rt = Runtime::with_config(probe::device(target, None), config.clone());
            rt.add_kernels(w.signature.clone(), w.variants(target).to_vec());
            let mut args = w.fresh_args();
            rt.launch(
                &w.signature,
                &mut args,
                w.total_units,
                &LaunchOptions::new().with_profile_reps(3),
            )
            .expect("the launch succeeds");
            if let Err(e) = w.verify(&args) {
                wrong.push(format!("{name} on {target}: {e}"));
            }
        }
    }
    assert!(wrong.is_empty(), "wrong outputs: {wrong:#?}");
}
