//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics untraced, or with
//! `--trace 1` the per-layer metrics of a traced pass plus the tracing
//! overhead against an untraced pass. Diagnostics go to standard error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ajanta_perfbench::metrics::{self, Metric};
use ajanta_perfbench::replay;
use ajanta_perfbench::spans::Recorder;
use ajanta_perfbench::stats;
use ajanta_perfbench::workload::{self, Inputs, Workload, SETUPS};

/// Scratch space for sockets, WAL directories and the replay WAL,
/// relative to the working directory (Unix socket paths stay short).
const TMP_ROOT: &str = ".perfbench-tmp";
/// Where traced runs write their spans.
const TRACE_DIR: &str = ".perfbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// One pass: set up [`SETUPS`] times, measure the last world, check it.
struct Pass {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    attempted: usize,
    failed: usize,
    correct: bool,
    spans: Recorder,
}

fn pass(
    args: &Args,
    inputs: &Inputs,
    expected: &str,
    dir: &Path,
    traced: bool,
) -> Result<Pass, String> {
    let w = args.workload;
    let mut rec = Recorder::new(Instant::now(), traced);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for nth in 0..SETUPS {
        let t = Instant::now();
        let r = workload::setup(w, inputs, dir, nth)?;
        let end = Instant::now();
        rec.record("setup", || format!("{} #{nth}", w.name()), t, end);
        setup_s.push((end - t).as_secs_f64());
        if nth + 1 < SETUPS {
            r.teardown();
        } else {
            rig = Some(r);
        }
    }
    let mut rig = rig.expect("SETUPS is at least one");
    let setup_s = stats::sorted(setup_s);
    eprintln!(
        "perfbench: set-up ms p10 {:.2} p50 {:.2} p90 {:.2} over {SETUPS}",
        stats::percentile(&setup_s, 10.0) * 1e3,
        stats::median(&setup_s) * 1e3,
        stats::percentile(&setup_s, 90.0) * 1e3
    );
    let setup_s = stats::median(&setup_s);

    let win = workload::run_window(w, &mut rig, inputs, args.seconds, &mut rec);
    let verdict = workload::verify(w, &rig, &win, expected);
    for p in &verdict.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let e2e = metrics::end_to_end(setup_s, &win, &verdict);
    let layers = if traced {
        let creds = win
            .sample_credentials
            .clone()
            .ok_or("no agent was launched in the window")?;
        let captured = replay::Captured {
            image: &rig.image,
            credentials: &creds,
            roots: &rig.world.roots,
            inputs,
            expected,
        };
        let costs = replay::replay(w, &captured, dir, &mut rec);
        eprintln!(
            "perfbench: replayed payloads {:?} B; hop latency and transfer RTT are {} µs",
            costs.payload_bytes,
            if w == Workload::CollectUds {
                "wall"
            } else {
                "virtual"
            }
        );
        metrics::per_layer(w, &rig.world, &win, &verdict, &e2e, &costs)
    } else {
        Vec::new()
    };
    diagnostics(&win);
    rig.teardown();
    Ok(Pass {
        correct: verdict.failed == 0 && verdict.problems.is_empty(),
        attempted: win.samples.len(),
        failed: verdict.failed,
        e2e,
        layers,
        spans: rec,
    })
}

/// Prints what the result line leaves out: sample counts, completions
/// per second of the window (run-length dependence shows here), counter
/// ratios, and the latency distribution.
fn diagnostics(win: &workload::Window) {
    eprintln!(
        "perfbench: {} agents measured over {:.2} s ({} completions in span), {} extra, cursor holes waited {} skipped {}",
        win.samples.len(),
        win.span_s,
        win.completed_in_span,
        win.extra_launched,
        win.holes_waited,
        win.records_skipped
    );
    let mut per_second = vec![0usize; win.span_s.ceil() as usize + 1];
    for d in win.samples.iter().filter_map(|s| s.done_s) {
        if let Some(n) = per_second.get_mut(d as usize) {
            *n += 1;
        }
    }
    eprintln!("perfbench: completions per second of the window: {per_second:?}");
    let sliced = metrics::slices(&win.marks, &win.samples);
    eprintln!(
        "perfbench: per slice: host steal share {:?}, agents/s {:?}",
        sliced
            .iter()
            .map(|s| format!("{:.2}", s.steal_share))
            .collect::<Vec<_>>(),
        sliced
            .iter()
            .map(|s| s.completed_per_s.round())
            .collect::<Vec<_>>()
    );
    {
        use ajanta_core::telemetry::Counter as C;
        let n = (win.samples.len() + win.extra_launched).max(1) as f64;
        let d = |c| win.after.delta(&win.before, c) as f64 / n;
        eprintln!(
            "perfbench: per agent: retries {:.3} rejections {:.3} slices {:.2} steals {:.2} wal appends {:.2} write syscalls {:.2} messages {:.2}",
            d(C::TransfersRetried),
            d(C::Rejections),
            d(C::SlicesRun),
            d(C::Steals),
            d(C::WalAppends),
            (win.after.net.write_syscalls - win.before.net.write_syscalls) as f64 / n,
            (win.after.net.messages_delivered - win.before.net.messages_delivered) as f64 / n,
        );
    }
    let lat = metrics::latencies(win);
    if !lat.is_empty() {
        eprintln!(
            "perfbench: latency ms p10 {:.2} p50 {:.2} p90 {:.2} p99 {:.2} max {:.2} over {} samples; median chunk p99 {:.2} over {} chunks",
            stats::percentile(&lat, 10.0),
            stats::median(&lat),
            stats::percentile(&lat, 90.0),
            stats::percentile(&lat, 99.0),
            lat[lat.len() - 1],
            lat.len(),
            metrics::latency_tail(win).1,
            metrics::latency_tail(win).2
        );
    }
}

/// Runs the untraced pass in a fresh process (`--trace 0`), so its
/// memory and CPU figures are not disturbed by the traced pass, and
/// returns its result line.
fn untraced_child(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running the untraced pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last() {
        Some(line) if out.status.success() => Ok(line.to_string()),
        _ => Err(format!("untraced pass failed: {}", out.status)),
    }
}

fn run(args: &Args, tmp: &Path) -> Result<String, String> {
    let inputs = workload::inputs(args.workload, args.seed, args.seconds);
    let expected = workload::expected_result(args.workload, &inputs);
    if !args.trace {
        let plain = pass(args, &inputs, &expected, tmp, false)?;
        for m in &plain.e2e {
            eprintln!("perfbench: {:<24} {:>14.4} {}", m.name, m.value, m.unit);
        }
        return Ok(metrics::result_json(
            plain.correct,
            plain.attempted,
            plain.failed,
            &plain.e2e,
        ));
    }

    let line = untraced_child(args)?;
    let plain = metrics::parse_result(&line).ok_or("unreadable untraced result")?;
    let traced = pass(args, &inputs, &expected, tmp, true)?;
    let mut layers = traced.layers;
    layers.extend(metrics::overheads(&traced.e2e, &plain.metrics));
    for m in &layers {
        eprintln!("perfbench: {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("creating {TRACE_DIR}: {e}"))?;
    let path =
        PathBuf::from(TRACE_DIR).join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::write(&path, traced.spans.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        traced.spans.spans().len(),
        path.display()
    );
    Ok(metrics::result_json(
        plain.correct && traced.correct,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        &layers,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|"));
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(TMP_ROOT).join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: creating {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // The runtime puts Unix sockets in the temp directory; keep them in
    // the run's own scratch directory. Set before any thread starts.
    std::env::set_var("TMPDIR", &tmp);

    let outcome = run(&args, &tmp);

    // Sockets and WAL files must all be gone once the worlds stopped.
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(TMP_ROOT);
    let leftover = tmp.exists();
    match outcome {
        Ok(line) if !leftover => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!(
                "perfbench: scratch directory {} could not be removed",
                tmp.display()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
