//! End-to-end integration: real workloads, real devices, full DySel runs.
//!
//! Sizes are kept modest so the suite stays quick in debug builds; the
//! benchmark harness (`dysel-bench`) runs the paper-scale configurations.

use dysel::baselines::exhaustive_sweep;
use dysel::core::{LaunchOptions, Runtime, RuntimeConfig};
use dysel::device::{CpuConfig, CpuDevice, Device, GpuConfig, GpuDevice};
use dysel::kernel::{Orchestration, ProfilingMode};
use dysel::workloads::{
    histogram, kmeans, particlefilter, sgemm, spmv_csr, stencil, CsrMatrix, Target, Workload,
};

fn cpu() -> Box<dyn Device> {
    Box::new(CpuDevice::new(CpuConfig::noiseless()))
}

fn gpu() -> Box<dyn Device> {
    Box::new(GpuDevice::new(GpuConfig::kepler_k20c().noiseless()))
}

/// Config with a low profiling threshold so small test workloads profile.
fn test_config() -> RuntimeConfig {
    RuntimeConfig {
        profile_threshold_groups: 16,
        ..RuntimeConfig::default()
    }
}

fn run_dysel(
    w: &Workload,
    target: Target,
    device: Box<dyn Device>,
    opts: &LaunchOptions,
) -> dysel::core::LaunchReport {
    let mut rt = Runtime::with_config(device, test_config());
    rt.add_kernels(&w.signature, w.variants(target).to_vec());
    let mut args = w.fresh_args();
    let report = rt
        .launch(&w.signature, &mut args, w.total_units, opts)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    w.verify(&args)
        .unwrap_or_else(|e| panic!("{} output: {e}", w.name));
    report
}

fn small_suite() -> Vec<Workload> {
    vec![
        sgemm::schedules_workload(64, 7),
        sgemm::mixed_workload(64, 7),
        spmv_csr::case4_workload("spmv-rnd", &CsrMatrix::random(2048, 2048, 0.01, 7), 7),
        spmv_csr::case4_workload("spmv-diag", &CsrMatrix::diagonal(4096), 7),
        stencil::workload(32, 7),
        kmeans::workload(
            kmeans::Shape {
                n: 2048,
                d: 8,
                k: 4,
            },
            7,
        ),
        particlefilter::workload(
            particlefilter::Shape {
                particles: 2048,
                window: 16,
                frame: 1 << 14,
            },
            7,
        ),
        histogram::workload(
            64 * histogram::ELEMS_PER_UNIT,
            histogram::Distribution::Skewed,
            7,
        ),
    ]
}

#[test]
fn every_workload_runs_verified_on_cpu() {
    for w in small_suite() {
        let report = run_dysel(&w, Target::Cpu, cpu(), &LaunchOptions::new());
        assert!(report.total_time.0 > 0, "{}", w.name);
    }
}

#[test]
fn every_workload_runs_verified_on_gpu() {
    for w in small_suite() {
        let report = run_dysel(&w, Target::Gpu, gpu(), &LaunchOptions::new());
        assert!(report.total_time.0 > 0, "{}", w.name);
    }
}

#[test]
fn sync_and_async_agree_on_selection_without_noise() {
    for w in small_suite() {
        let sync = run_dysel(
            &w,
            Target::Cpu,
            cpu(),
            &LaunchOptions::new().with_orchestration(Orchestration::Sync),
        );
        let asynch = run_dysel(
            &w,
            Target::Cpu,
            cpu(),
            &LaunchOptions::new().with_orchestration(Orchestration::Async),
        );
        if sync.profiled() && asynch.profiled() {
            assert_eq!(sync.selected, asynch.selected, "{}", w.name);
        }
    }
}

/// The full mode x orchestration matrix over three structurally different
/// workloads: a regular kernel (sgemm), an irregular one (spmv-csr) and an
/// atomics-based accumulator (histogram). Every combination must produce
/// the exact reference output (`Workload::verify` checks against the serial
/// golden computation) and, with zero noise, select the same variant the
/// offline exhaustive sweep crowns. The sgemm edge is 128: at smaller
/// sizes the profiling slice's cache behaviour genuinely diverges from the
/// whole workload's and the close loop-order schedules flip.
#[test]
fn mode_orchestration_matrix_is_correct_and_selects_the_sweep_winner() {
    let workloads = vec![
        sgemm::schedules_workload(128, 7),
        spmv_csr::case4_workload("spmv", &CsrMatrix::random(2048, 2048, 0.01, 7), 7),
        histogram::workload(
            64 * histogram::ELEMS_PER_UNIT,
            histogram::Distribution::Skewed,
            7,
        ),
    ];
    for w in &workloads {
        let winner = exhaustive_sweep(w, Target::Cpu, cpu).best().0;
        for mode in [
            ProfilingMode::FullyProductive,
            ProfilingMode::HybridPartial,
            ProfilingMode::SwapPartial,
        ] {
            for orch in [Orchestration::Sync, Orchestration::Async] {
                let opts = LaunchOptions::new()
                    .with_mode(mode)
                    .with_orchestration(orch);
                let report = run_dysel(w, Target::Cpu, cpu(), &opts);
                let label = format!("{} / {mode} / {orch}", w.name);
                assert!(report.profiled(), "{label}: profiling must run");
                if mode == ProfilingMode::SwapPartial {
                    // Table 1: swap-based profiling forces the sync flow.
                    assert_eq!(report.orchestration, Orchestration::Sync, "{label}");
                    assert_eq!(report.eager_chunks, 0, "{label}");
                } else {
                    assert_eq!(report.orchestration, orch, "{label}");
                }
                assert_eq!(
                    report.selected, winner,
                    "{label}: picked {} against the sweep",
                    report.selected_name
                );
            }
        }
    }
}

#[test]
fn dysel_stays_well_under_the_worst_variant() {
    // The headline property, on the input-sensitive workload: DySel lands
    // near the oracle while the worst pure variant is far away.
    let w = spmv_csr::case4_workload("spmv-diag", &CsrMatrix::diagonal(16384), 7);
    for (target, factory) in [
        (Target::Cpu, cpu as fn() -> _),
        (Target::Gpu, gpu as fn() -> _),
    ] {
        let sweep = exhaustive_sweep(&w, target, factory);
        let report = run_dysel(&w, target, factory(), &LaunchOptions::new());
        let rel = report.total_time.ratio_over(sweep.best().1);
        assert!(
            rel < 1.0 + (sweep.spread() - 1.0) * 0.25,
            "{target}: DySel {rel:.3} vs spread {:.3}",
            sweep.spread()
        );
    }
}

#[test]
fn input_flips_the_selection() {
    // The Case IV behaviour end-to-end: the same pool picks differently on
    // different inputs.
    let random = spmv_csr::case4_workload("spmv", &CsrMatrix::random(8192, 8192, 0.01, 7), 7);
    let diag = spmv_csr::case4_workload("spmv", &CsrMatrix::diagonal(1 << 18), 7);
    let pick_random = run_dysel(&random, Target::Gpu, gpu(), &LaunchOptions::new());
    let pick_diag = run_dysel(&diag, Target::Gpu, gpu(), &LaunchOptions::new());
    assert_eq!(pick_random.selected_name, "vector");
    assert_eq!(pick_diag.selected_name, "scalar");
}

#[test]
fn histogram_profiles_in_swap_mode_by_inference() {
    let w = histogram::workload(
        64 * histogram::ELEMS_PER_UNIT,
        histogram::Distribution::Uniform,
        7,
    );
    let report = run_dysel(&w, Target::Gpu, gpu(), &LaunchOptions::new());
    assert_eq!(report.mode, Some(dysel::kernel::ProfilingMode::SwapPartial));
    assert_eq!(report.orchestration, Orchestration::Sync);
}

#[test]
fn repeated_sandboxed_profiling_counts_each_slice_once() {
    // Every repetition of a sandboxed slice re-runs the same units; an
    // accumulating kernel (histogram) must still see its slice committed
    // once, or the winner's output counts it once per repetition.
    let w = histogram::workload(
        64 * histogram::ELEMS_PER_UNIT,
        histogram::Distribution::Skewed,
        7,
    );
    for (target, device) in [
        (Target::Cpu, cpu as fn() -> Box<dyn Device>),
        (Target::Gpu, gpu),
    ] {
        for mode in [ProfilingMode::HybridPartial, ProfilingMode::SwapPartial] {
            for orch in [Orchestration::Sync, Orchestration::Async] {
                let opts = LaunchOptions::new()
                    .with_mode(mode)
                    .with_orchestration(orch)
                    .with_profile_reps(3);
                // `run_dysel` checks the output against the host reference.
                let report = run_dysel(&w, target, device(), &opts);
                assert!(report.profiled(), "{target} / {mode} / {orch}");
                assert_eq!(report.mode, Some(mode), "{target} / {mode} / {orch}");
            }
        }
    }
}

#[test]
fn regular_workloads_profile_fully_productively() {
    let w = sgemm::schedules_workload(64, 7);
    let report = run_dysel(&w, Target::Cpu, cpu(), &LaunchOptions::new());
    assert_eq!(
        report.mode,
        Some(dysel::kernel::ProfilingMode::FullyProductive)
    );
    assert_eq!(report.wasted_units, 0);
    assert_eq!(report.extra_space_bytes, 0);
}

#[test]
fn irregular_workloads_profile_hybrid() {
    let w = spmv_csr::case4_workload("spmv", &CsrMatrix::random(4096, 4096, 0.01, 7), 7);
    let report = run_dysel(&w, Target::Gpu, gpu(), &LaunchOptions::new());
    assert_eq!(
        report.mode,
        Some(dysel::kernel::ProfilingMode::HybridPartial)
    );
    assert!(report.extra_space_bytes > 0);
}
