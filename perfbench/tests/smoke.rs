//! Short runs of every workload: the output checks must pass, and the
//! open loop must time agents from their due time.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ajanta_perfbench::metrics;
use ajanta_perfbench::spans::Recorder;
use ajanta_perfbench::workload::{self, Inputs, Workload};

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the smoke scratch directory");
    dir
}

/// Sets up, runs a window, checks it, tears down; returns the window's
/// end-to-end metrics.
fn run(w: Workload, inputs: &Inputs, seconds: u64) -> (workload::Window, Vec<metrics::Metric>) {
    let dir = scratch(w.name());
    let expected = workload::expected_result(w, inputs);
    let mut rig = workload::setup(w, inputs, &dir, 0).expect("set-up and warm-up succeed");
    let mut rec = Recorder::new(Instant::now(), true);
    let win = workload::run_window(w, &mut rig, inputs, seconds, &mut rec);
    let verdict = workload::verify(w, &rig, &win, &expected);
    rig.teardown();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(!win.samples.is_empty(), "{}: no agent measured", w.name());
    assert_eq!(verdict.failed, 0, "{}: failed agents", w.name());
    assert!(
        verdict.problems.is_empty(),
        "{}: {:?}",
        w.name(),
        verdict.problems
    );
    assert_eq!(win.reports_unseen, 0);
    let launched = (win.samples.len() + win.extra_launched) as u64;
    let admitted = win
        .after
        .delta(&win.before, ajanta_core::telemetry::Counter::AgentsAdmitted);
    assert_eq!(admitted, w.admissions_per_agent() * launched);
    // One agent span per measured agent.
    let agent_spans = rec.spans().iter().filter(|s| s.name == "agent").count();
    assert_eq!(agent_spans, win.samples.len());
    let e2e = metrics::end_to_end(0.1, &win, &verdict);
    assert_eq!(metrics::value(&e2e, "completed_share"), 1.0);
    (win, e2e)
}

fn smoke(w: Workload) {
    let inputs = workload::inputs(w, 7, 1);
    let (_, e2e) = run(w, &inputs, 1);
    for name in metrics::END_TO_END {
        assert!(
            metrics::value(&e2e, name) > 0.0,
            "{}: {name} is 0",
            w.name()
        );
    }
}

#[test]
fn collect_sim_outputs_check() {
    smoke(Workload::CollectSim);
}

#[test]
fn collect_uds_outputs_check() {
    smoke(Workload::CollectUds);
}

#[test]
fn access_sim_outputs_check() {
    smoke(Workload::AccessSim);
}

#[test]
fn open_loop_latency_runs_from_the_due_time() {
    // Every agent is due at the window start, so all but the first are
    // launched late; their latency must include that lateness.
    let mut inputs = workload::inputs(Workload::CollectUds, 3, 1);
    inputs.arrivals = vec![Duration::ZERO; 12];
    let (win, _) = run(Workload::CollectUds, &inputs, 1);
    assert_eq!(win.samples.len(), 12);
    assert_eq!(win.lateness_ms.len(), 12);
    assert!(
        win.lateness_ms.windows(2).all(|p| p[0] <= p[1]),
        "launch order is due order"
    );
    assert!(win.lateness_ms[11] > 0.0);
    for (s, late) in win.samples.iter().zip(&win.lateness_ms) {
        assert_eq!(s.start_s, 0.0, "open-loop samples start at their due time");
        let latency = s.latency_ms().expect("every agent reported");
        assert!(
            latency > *late,
            "latency {latency} ms excludes lateness {late} ms"
        );
    }
}

#[test]
fn a_wrong_result_is_counted_as_failed() {
    let w = Workload::AccessSim;
    let inputs = workload::inputs(w, 11, 1);
    let dir = scratch("wrong");
    let mut rig = workload::setup(w, &inputs, &dir, 0).expect("set-up and warm-up succeed");
    let mut rec = Recorder::new(Instant::now(), false);
    let win = workload::run_window(w, &mut rig, &inputs, 1, &mut rec);
    let verdict = workload::verify(w, &rig, &win, "255999");
    rig.teardown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(verdict.failed, win.samples.len());
    let e2e = metrics::end_to_end(0.1, &win, &verdict);
    assert_eq!(metrics::value(&e2e, "completed_share"), 0.0);
}

#[test]
fn a_broken_invariant_fails_every_agent() {
    let w = Workload::CollectSim;
    let inputs = workload::inputs(w, 13, 1);
    let expected = workload::expected_result(w, &inputs);
    let dir = scratch("invariant");
    let mut rig = workload::setup(w, &inputs, &dir, 0).expect("set-up and warm-up succeed");
    let mut rec = Recorder::new(Instant::now(), false);
    let mut win = workload::run_window(w, &mut rig, &inputs, 1, &mut rec);
    let clean = workload::verify(w, &rig, &win, &expected);
    // A rejection of another kind than a duplicate hop, seen by the
    // watch on store 2, breaks the run even though every result is right.
    win.rejections[2]
        .others
        .push("bad-credentials: planted".into());
    let broken = workload::verify(w, &rig, &win, &expected);
    rig.teardown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(clean.failed, 0);
    assert!(clean.problems.is_empty(), "{:?}", clean.problems);
    assert_eq!(broken.problems.len(), 1, "{:?}", broken.problems);
    assert_eq!(broken.failed, win.samples.len());
    let e2e = metrics::end_to_end(0.1, &win, &broken);
    assert_eq!(metrics::value(&e2e, "completed_share"), 0.0);
}
