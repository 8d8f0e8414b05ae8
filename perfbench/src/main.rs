//! `perfbench --workload <paper|select|service> --seed N --seconds S --trace 0|1`
//!
//! Runs passes of one workload, each in a child process of this same
//! executable, until `--seconds` are used (at least [`MIN_PASSES`]), then
//! prints every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) as the last stdout line, one JSON object. Every pass of a
//! build must agree on the selection digest, the virtual times and the
//! exact counts; a disagreement fails the run instead of becoming a data
//! point.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use perfbench::passes::{self, Kind};
use perfbench::probe::Instruments;
use perfbench::report::{fnv_fold, median, percentile, PassResult, FNV_OFFSET};

const USAGE: &str =
    "usage: perfbench --workload <paper|select|service> --seed N --seconds S --trace <0|1>";

/// Untraced passes per run, at least: enough for a median.
const MIN_PASSES: usize = 3;
/// Traced passes per traced run, at least.
const MIN_TRACED: usize = 2;
/// No new pass starts once one would end past this, whatever the minimum:
/// a run must end within 180 s.
const MAX_RUN: Duration = Duration::from_secs(150);

/// End-to-end metrics, with units.
const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("virt_gcycles", "Gcycles"),
    ("profile_share_pct", "%"),
    ("selection_accuracy", "ratio"),
];

/// Per-layer metrics, with units. Every traced run prints all of them; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("device.busy_s", "s"),
    ("device.profile_busy_s", "s"),
    ("device.units_per_ms", "units/ms"),
    ("device.create_ms", "ms"),
    ("device.units", "count"),
    ("device.calls", "count"),
    ("runtime.register_ms", "ms"),
    ("runtime.self_s", "s"),
    ("runtime.profiled_variants", "count"),
    ("runtime.wasted_unit_frac", "ratio"),
    ("runtime.extra_space_mb", "MiB"),
    ("runtime.cache_hit_frac", "ratio"),
    ("service.submit_us", "us"),
    ("service.util", "ratio"),
    ("service.busy_refusals", "count"),
    ("journal.bytes", "bytes"),
    ("persist.save_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.threads", "count"),
    ("workloads.gen_s", "s"),
    ("workloads.check_s", "s"),
    ("self.bench_s", "s"),
    ("self.workloads_s", "s"),
    ("self.device_s", "s"),
    ("self.runtime_s", "s"),
    ("self.service_s", "s"),
    ("self.persist_s", "s"),
    ("self.loadgen_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

#[derive(Debug)]
struct Cli {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: run pass number `pass` and print its result.
    pass: Option<usize>,
    /// Child mode: instrument the pass.
    traced: bool,
    /// Child mode: directory for state and trace files.
    out: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: Kind::Paper,
        seed: 0,
        seconds: 0,
        trace: false,
        pass: None,
        traced: false,
        out: None,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        if flag == "--traced" {
            cli.traced = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("bad {flag} {v:?}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => cli.seed = number(&value)?,
            "--seconds" => cli.seconds = number(&value)?,
            "--trace" => cli.trace = number(&value)? != 0,
            "--pass" => cli.pass = Some(number(&value)? as usize),
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cli.workload = workload.ok_or("--workload is required")?;
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cli.pass {
        Some(pass) => child(&cli, pass),
        None => orchestrate(&cli),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}

/// Runs one pass in this process and prints its result.
fn child(cli: &Cli, pass: usize) -> Result<ExitCode, String> {
    let out = cli.out.clone().ok_or("--out is required with --pass")?;
    let instruments = cli.traced.then(Instruments::default);
    let mut r = passes::run(cli.workload, cli.seed, instruments.as_ref(), &out)?;
    if let Some(i) = &instruments {
        let path = out.join(format!(
            "trace-{}-seed{}-pass{pass}.jsonl",
            cli.workload.name(),
            cli.seed
        ));
        i.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        r.layers
            .insert("trace.spans".to_owned(), i.tracer.spans().len() as f64);
    }
    print!("{}", r.to_lines());
    Ok(ExitCode::SUCCESS)
}

/// Runs pass `pass` in a child process and parses what it printed.
fn spawn_pass(
    exe: &Path,
    cli: &Cli,
    pass: usize,
    traced: bool,
    out: &Path,
) -> Result<PassResult, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", cli.workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--pass", &pass.to_string()])
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting pass {pass}: {e}"))?;
    if !output.status.success() {
        return Err(format!("pass {pass} ended with {}", output.status));
    }
    PassResult::from_lines(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("pass {pass} printed a bad result: {e}"))
}

/// Values of `b` that differ from `a`; with `all`, keys present in only
/// one of them count too.
fn disagreements(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>, all: bool) -> Vec<String> {
    let mut out: Vec<String> = b
        .iter()
        .filter_map(|(k, v)| match a.get(k) {
            Some(x) if x != v => Some(format!("{k}: {x} vs {v}")),
            None if all => Some(format!("{k}: missing vs {v}")),
            _ => None,
        })
        .collect();
    if all {
        out.extend(
            a.keys()
                .filter(|k| !b.contains_key(*k))
                .map(|k| format!("{k}: missing")),
        );
    }
    out
}

fn render_exact(exact: &BTreeMap<String, u64>) -> String {
    exact.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

/// The determinism gate across runs: the first run of a build records the
/// exact figures per (workload, seed); later runs must match them.
fn check_recorded(
    exe: &Path,
    cli: &Cli,
    out: &Path,
    exact: &BTreeMap<String, u64>,
) -> Result<(), String> {
    let bytes = std::fs::read(exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    let mut build = FNV_OFFSET;
    fnv_fold(&mut build, &bytes);
    let dir = out.join("recorded");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{build:016x}-{}-{}", cli.workload.name(), cli.seed));
    let mine = render_exact(exact);
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded != mine => Err(format!(
            "exact figures differ from an earlier run of this build:\n{recorded}---\n{mine}"
        )),
        Ok(_) => Ok(()),
        Err(_) => {
            std::fs::write(&path, mine).map_err(|e| format!("writing {}: {e}", path.display()))
        }
    }
}

fn orchestrate(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let out = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("perfbench-out");
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let start = Instant::now();
    let budget = Duration::from_secs(cli.seconds);
    let mut runs: Vec<(bool, PassResult)> = Vec::new();
    let mut took = Vec::new();
    loop {
        let traced = cli.trace && runs.len() % 2 == 1;
        let pass_start = Instant::now();
        runs.push((traced, spawn_pass(&exe, cli, runs.len(), traced, &out)?));
        took.push(pass_start.elapsed().as_secs_f64());
        let traced_runs = runs.iter().filter(|(t, _)| *t).count();
        let enough =
            runs.len() - traced_runs >= MIN_PASSES && (!cli.trace || traced_runs >= MIN_TRACED);
        let next_end = start.elapsed() + Duration::from_secs_f64(median(&took));
        if (enough && next_end > budget) || next_end > MAX_RUN {
            break;
        }
    }

    // Determinism gate: every pass against the first (and every traced
    // pass against the first traced one, device counts included).
    let mut problems = Vec::new();
    let first = &runs[0].1;
    let first_traced = runs.iter().find(|(t, _)| *t).map(|(_, r)| r);
    for (i, (traced, r)) in runs.iter().enumerate().skip(1) {
        problems.extend(
            disagreements(&first.exact, &r.exact, false)
                .into_iter()
                .map(|d| format!("pass {i}: {d}")),
        );
        if let (true, Some(ft)) = (*traced, first_traced) {
            problems.extend(
                disagreements(&ft.exact, &r.exact, true)
                    .into_iter()
                    .map(|d| format!("pass {i}: {d}")),
            );
        }
    }
    if let Err(e) = check_recorded(&exe, cli, &out, &first.exact) {
        problems.push(e);
    }
    for p in &problems {
        eprintln!("perfbench: determinism gate: {p}");
    }

    let all: Vec<&PassResult> = runs.iter().map(|(_, r)| r).collect();
    let plain: Vec<&PassResult> = runs.iter().filter(|(t, _)| !*t).map(|(_, r)| r).collect();
    let traced: Vec<&PassResult> = runs.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let ok: u64 = all.iter().map(|r| r.ok).sum();
    let failed: u64 = all.iter().map(|r| r.failed + r.wrong).sum();
    let wrong: u64 = all.iter().map(|r| r.wrong).sum();
    let correct = wrong == 0 && problems.is_empty();

    let (p50, p99, samples) = latency(cli.workload, &plain);
    let metrics: Vec<(&str, f64, &str)> = if cli.trace {
        per_layer(cli.workload, &plain, &traced)
    } else {
        end_to_end(
            cli.workload,
            &plain,
            ok as f64 / attempted.max(1) as f64,
            (p50, p99),
        )
    };
    let context = [
        ("workload", cli.workload.name().to_owned()),
        ("seed", cli.seed.to_string()),
        ("passes", plain.len().to_string()),
        ("traced", traced.len().to_string()),
        ("digest", format!("{:016x}", first.exact("digest"))),
        ("latency_samples", samples.to_string()),
        ("latency_limit_ms", passes::LATENCY_LIMIT_MS.to_string()),
        ("open_rate_per_s", passes::OPEN_RATE.to_string()),
        ("shards", passes::SHARDS.to_string()),
        ("loadgen_threads", passes::LOADGEN_THREADS.to_string()),
        ("executor_threads", "1".to_owned()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
    ];
    let context: Vec<String> = context.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("perfbench: {}", context.join(" "));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    // Wrong outputs are the program's fault and are reported through
    // `correct`; a determinism failure means the figures are not
    // measurements at all, so the run fails.
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Each launch's fastest time over the passes, in sequence order.
/// Contention on a shared host only ever adds time, so the fastest of
/// several passes converges on the launch's own cost.
fn fastest_launches(plain: &[&PassResult]) -> Vec<f64> {
    let n = plain.iter().map(|r| r.launch_ms.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            plain
                .iter()
                .map(|r| r.launch_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Latency p50 and p99 in ms over the launches' fastest times, and the
/// sample count. On `service` a launch is an open-loop submission, timed
/// from its due time. On the batch workloads, whose few dozen launches
/// differ 1000x in size so that the median jumps between neighbouring
/// launches, the p50 is the mean launch time.
fn latency(kind: Kind, plain: &[&PassResult]) -> (f64, f64, usize) {
    let samples: Vec<f64> = fastest_launches(plain)
        .into_iter()
        .filter(|v| v.is_finite())
        .collect();
    let p50 = match kind {
        Kind::Service => percentile(&samples, 50.0),
        _ => samples.iter().sum::<f64>() / samples.len().max(1) as f64,
    };
    (p50, percentile(&samples, 99.0), samples.len())
}

/// `wall_s`: on the batch workloads the sum of each launch's fastest
/// time; on `service` the fastest closed-loop phase.
fn wall(kind: Kind, runs: &[&PassResult]) -> f64 {
    match kind {
        Kind::Service => runs.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min),
        _ => fastest_launches(runs).iter().sum::<f64>() / 1e3,
    }
}

fn end_to_end<'a>(
    kind: Kind,
    plain: &[&PassResult],
    ok_frac: f64,
    (p50, p99): (f64, f64),
) -> Vec<(&'a str, f64, &'a str)> {
    let med = |f: fn(&PassResult) -> f64| median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let first = plain[0];
    let virt = first.exact("virt_cycles") as f64;
    let values = [
        wall(kind, plain),
        med(|r| r.setup_s),
        med(|r| r.peak_rss_mb),
        ok_frac,
        p50,
        p99,
        virt / 1e9,
        100.0 * first.exact("profile_cycles") as f64 / virt.max(1.0),
        first.exact("accurate") as f64 / first.exact("profiled").max(1) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn per_layer<'a>(
    kind: Kind,
    plain: &[&PassResult],
    traced: &[&PassResult],
) -> Vec<(&'a str, f64, &'a str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_s" {
                wall(kind, traced) - wall(kind, plain)
            } else {
                median(
                    &traced
                        .iter()
                        .map(|r| {
                            r.layers
                                .get(name)
                                .copied()
                                .unwrap_or_else(|| r.exact(name) as f64)
                        })
                        .collect::<Vec<_>>(),
                )
            };
            (name, value, unit)
        })
        .collect()
}
