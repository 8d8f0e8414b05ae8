//! The timing decorator only observes. A traced pass, with every device
//! decorated (service lanes included) and every layer call spanned,
//! computes exactly what an untraced pass computes, on every workload.

use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use dysel_device::{
    BudgetPolicy, CpuConfig, CpuDevice, Cycles, Device, FaultPlan, LaunchSpec, StreamId,
};
use dysel_kernel::{Args, Buffer, KernelIr, Space, UnitRange, Variant, VariantMeta};
use dysel_obs::EventSink;
use perfbench::probe::{DeviceProbe, TimedDevice};
use perfbench::report::PassResult;

/// Runs one pass in its own process, as the benchmark does, so both
/// passes start from the same process-wide buffer addresses.
fn pass(workload: &str, traced: bool) -> PassResult {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--pass",
        "0",
        "--out",
    ])
    .arg(out);
    if traced {
        cmd.arg("--traced");
    }
    let output = cmd.output().expect("the pass starts");
    assert!(output.status.success(), "{workload} pass failed");
    PassResult::from_lines(&String::from_utf8_lossy(&output.stdout))
        .expect("the pass result parses")
}

fn decorated_matches_undecorated(workload: &str) {
    let plain = pass(workload, false);
    let traced = pass(workload, true);
    assert!(plain.exact("launches") > 0);
    assert!(
        traced.exact("device.calls") > 0,
        "{workload}: devices were not decorated"
    );
    for (name, value) in &plain.exact {
        assert_eq!(traced.exact.get(name), Some(value), "{workload}: {name}");
    }
}

#[test]
fn paper_reports_are_identical_when_decorated() {
    decorated_matches_undecorated("paper");
}

#[test]
fn select_reports_are_identical_when_decorated() {
    decorated_matches_undecorated("select");
}

#[test]
fn service_reports_are_identical_when_decorated() {
    decorated_matches_undecorated("service");
}

#[test]
fn decorator_forwards_every_trait_method() {
    let bare = CpuDevice::new(CpuConfig::default());
    let probe = Arc::new(DeviceProbe::default());
    let mut dev = TimedDevice::new(
        Box::new(CpuDevice::new(CpuConfig::default())),
        probe.clone(),
        None,
    );
    assert_eq!(dev.kind(), bare.kind());
    assert_eq!(dev.name(), bare.name());
    assert_eq!(dev.units(), bare.units());
    assert_eq!(dev.launch_overhead(), bare.launch_overhead());
    assert_eq!(dev.query_latency(), bare.query_latency());

    let policy = BudgetPolicy::new(2.0);
    dev.set_budget_policy(Some(policy));
    assert_eq!(dev.budget_policy(), Some(policy));
    dev.set_fault_plan(Some(FaultPlan::default()));
    assert!(dev.fault_plan().is_some());
    dev.set_observer(Some(Arc::new(EventSink::new())));
    assert!(dev.observer().is_some());

    let v = Variant::from_fn(
        VariantMeta::new("fill", KernelIr::regular(vec![0])),
        |ctx, args| {
            for u in ctx.units().iter() {
                args.f32_mut(0).expect("f32 output")[u as usize] = 1.0;
            }
        },
    );
    let mut args = Args::new();
    args.push(Buffer::f32("out", vec![0.0; 64], Space::Global));
    let stream = StreamId(1);
    let outcome = dev.launch(LaunchSpec {
        kernel: v.kernel.as_ref(),
        meta: &v.meta,
        units: UnitRange::new(0, 64),
        args: &mut args,
        stream,
        not_before: Cycles::ZERO,
        measured: true,
        budget: None,
    });
    let record = outcome.done().expect("the launch completes");
    assert_eq!(dev.stream_end(stream), record.end);
    assert_eq!(dev.busy_until(), record.end);
    assert!(dev.earliest_unit_free() <= record.end);
    assert_eq!(args.f32(0).expect("f32 output"), &[1.0; 64][..]);
    assert_eq!((probe.calls(), probe.units()), (1, record.groups));
    assert!(probe.profile_busy() > std::time::Duration::ZERO);

    dev.reset();
    assert_eq!(dev.stream_end(stream), Cycles::ZERO);
    assert_eq!(dev.busy_until(), Cycles::ZERO);
}
