//! Turning one measured window into named metrics, and the result line.

use std::fmt::Write as _;

use ajanta_core::telemetry::{Counter, HistoPath};
use ajanta_runtime::World;

use crate::replay::Costs;
use crate::stats;
use crate::workload::{Mark, Sample, Verdict, Window, Workload, SLICES};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Appends a metric to a list.
fn put(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    });
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "completed_per_s",
    "latency_p50_ms",
    "cpu_ms_per_agent",
    "peak_rss_mb",
    "completed_share",
];

/// Latencies of completed measured agents, ascending, ms.
pub fn latencies(win: &Window) -> Vec<f64> {
    stats::sorted(
        win.samples
            .iter()
            .filter(|s| s.completed)
            .filter_map(|s| s.latency_ms()),
    )
}

/// Agents per chunk for the latency tail: the fewest that leave ten
/// samples beyond a p99.
pub const TAIL_CHUNK: usize = 1000;

/// The latency tail, robust to one stall episode: the window's measured
/// agents are cut, in launch order, into consecutive chunks of
/// [`TAIL_CHUNK`] (a remainder joins the last chunk), and the median of
/// the chunks' p99s is reported. With fewer than [`TAIL_CHUNK`] samples
/// the pooled tail rule applies: the highest percentile with ten samples
/// beyond it. Returns (percentile, value ms, chunks).
pub fn latency_tail(win: &Window) -> (f64, f64, usize) {
    let lat: Vec<f64> = win
        .samples
        .iter()
        .filter(|s| s.completed)
        .filter_map(|s| s.latency_ms())
        .collect();
    chunked_tail(&lat)
}

/// [`latency_tail`] over latencies in launch order.
pub fn chunked_tail(lat: &[f64]) -> (f64, f64, usize) {
    let chunks = lat.len() / TAIL_CHUNK;
    if chunks == 0 {
        let (pct, v) = tail(&stats::sorted(lat.iter().copied()));
        return (pct, v, 1);
    }
    let p99s = stats::sorted((0..chunks).map(|c| {
        let end = if c + 1 == chunks {
            lat.len()
        } else {
            (c + 1) * TAIL_CHUNK
        };
        stats::percentile(
            &stats::sorted(lat[c * TAIL_CHUNK..end].iter().copied()),
            99.0,
        )
    }));
    (99.0, stats::median(&p99s), chunks)
}

/// One slice of a closed-loop window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Reports seen in the slice, per second.
    pub completed_per_s: f64,
    /// Process CPU over the slice divided by the reports seen in it, ms.
    pub cpu_ms_per_agent: f64,
    /// Median latency of the completed agents launched in the slice, ms.
    pub latency_p50_ms: f64,
    /// Share of the host's CPU time stolen by other guests in the slice.
    pub steal_share: f64,
}

/// Cuts a window at its marks (see [`Window::marks`]) into slices.
/// Slices in which no agent completed or none was launched are left
/// out; they only occur when the whole host stalls for a slice.
pub fn slices(marks: &[Mark], samples: &[Sample]) -> Vec<Slice> {
    marks
        .windows(2)
        .filter_map(|m| {
            let (t0, t1) = (m[0].at_s, m[1].at_s);
            let done = samples
                .iter()
                .filter(|s| s.done_s.is_some_and(|d| d >= t0 && d < t1))
                .count();
            let lat = stats::sorted(
                samples
                    .iter()
                    .filter(|s| s.completed && s.start_s >= t0 && s.start_s < t1)
                    .filter_map(|s| s.latency_ms()),
            );
            (done > 0 && !lat.is_empty() && t1 > t0).then(|| Slice {
                completed_per_s: done as f64 / (t1 - t0),
                cpu_ms_per_agent: (m[1].cpu_s - m[0].cpu_s) * 1e3 / done as f64,
                latency_p50_ms: stats::median(&lat),
                steal_share: steal_share(m),
            })
        })
        .collect()
}

/// The half of `sliced` (at least one) in which the host stole the
/// least CPU from this machine, least first; ties keep window order.
pub fn calmest(sliced: &[Slice]) -> Vec<Slice> {
    let mut calm = sliced.to_vec();
    calm.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    calm.truncate(sliced.len().div_ceil(2));
    calm
}

/// The end-to-end metrics of one window. A closed loop reports
/// throughput, CPU per agent and median latency as the medians over the
/// [`calmest`] half of its [`SLICES`] slices: the reference host is
/// shared, and a slice in which other guests take its CPU runs slower
/// by about as much as they take. The open loop reports the three
/// figures over its span.
pub fn end_to_end(setup_s: f64, win: &Window, verdict: &Verdict) -> Vec<Metric> {
    let lat = latencies(win);
    let attempted = win.samples.len().max(1) as f64;
    let sliced = slices(&win.marks, &win.samples);
    let (rate, p50, cpu_ms) = if sliced.len() > SLICES / 2 {
        let calm = calmest(&sliced);
        let med = |f: fn(&Slice) -> f64| stats::median(&stats::sorted(calm.iter().map(f)));
        (
            med(|s| s.completed_per_s),
            med(|s| s.latency_p50_ms),
            med(|s| s.cpu_ms_per_agent),
        )
    } else {
        (
            win.completed_in_span as f64 / win.span_s,
            if lat.is_empty() {
                0.0
            } else {
                stats::median(&lat)
            },
            win.cpu_s * 1e3 / win.completed_in_span.max(1) as f64,
        )
    };
    let mut out = Vec::new();
    put(&mut out, "setup_s", setup_s, "s");
    put(&mut out, "completed_per_s", rate, "1/s");
    put(&mut out, "latency_p50_ms", p50, "ms");
    put(&mut out, "cpu_ms_per_agent", cpu_ms, "ms");
    put(&mut out, "peak_rss_mb", win.peak_rss_mib, "MiB");
    put(
        &mut out,
        "completed_share",
        (attempted - verdict.failed as f64) / attempted,
        "ratio",
    );
    out
}

/// p99 when at least ten samples lie beyond it, else the highest
/// percentile that has ten beyond it; (percentile, value). With fewer
/// than 100 samples the maximum is reported as percentile 0.
fn tail(lat: &[f64]) -> (f64, f64) {
    match stats::tail(lat) {
        Some((pct, _)) if pct >= 99.0 => (99.0, stats::percentile(lat, 99.0)),
        Some(t) => t,
        None => (0.0, lat.last().copied().unwrap_or(0.0)),
    }
}

/// Share of the host's CPU time between the first and the last mark
/// that the hypervisor gave to other guests: how contended the host was.
pub fn steal_share(marks: &[Mark]) -> f64 {
    match (marks.first(), marks.last()) {
        (Some(a), Some(b)) if b.steal.1 > a.steal.1 => {
            (b.steal.0 - a.steal.0) as f64 / (b.steal.1 - a.steal.1) as f64
        }
        _ => 0.0,
    }
}

/// Per-agent share of a counter's growth over the window.
fn per_agent(win: &Window, counter: Counter) -> f64 {
    let launched = (win.samples.len() + win.extra_launched).max(1) as f64;
    win.after.delta(&win.before, counter) as f64 / launched
}

/// The per-layer metrics of one traced window (overheads are appended
/// by the caller).
pub fn per_layer(
    workload: Workload,
    world: &World,
    win: &Window,
    verdict: &Verdict,
    e2e: &[Metric],
    costs: &Costs,
) -> Vec<Metric> {
    let launched = (win.samples.len() + win.extra_launched).max(1) as f64;
    let net_msgs =
        (win.after.net.messages_delivered - win.before.net.messages_delivered) as f64 / launched;
    let net_bytes =
        (win.after.net.bytes_delivered - win.before.net.bytes_delivered) as f64 / launched;
    let writes = win.after.net.write_syscalls - win.before.net.write_syscalls;
    let coalesced = win.after.net.frames_coalesced - win.before.net.frames_coalesced;
    let us = |path: HistoPath, q: f64| world.merged_histos(path).quantile(q) as f64 / 1e3;
    let socket = workload == Workload::CollectUds;

    let mut out = Vec::new();
    put(
        &mut out,
        "net.dgram_seal_us",
        stats::mean(&costs.dgram_seal_us),
        "us",
    );
    put(
        &mut out,
        "net.dgram_open_us",
        stats::mean(&costs.dgram_open_us),
        "us",
    );
    put(&mut out, "net.messages_per_agent", net_msgs, "count");
    put(&mut out, "net.bytes_per_agent", net_bytes, "B");
    put(
        &mut out,
        "net.channel_seal_us",
        stats::mean(&costs.channel_seal_us),
        "us",
    );
    put(
        &mut out,
        "net.channel_open_us",
        stats::mean(&costs.channel_open_us),
        "us",
    );
    put(
        &mut out,
        "net.socket_deliver_us",
        stats::mean(&costs.socket_deliver_us),
        "us",
    );
    put(
        &mut out,
        "net.frames_per_write",
        if writes == 0 {
            0.0
        } else {
            coalesced as f64 / writes as f64
        },
        "count",
    );
    put(
        &mut out,
        "net.write_syscalls_per_agent",
        writes as f64 / launched,
        "count",
    );
    put(
        &mut out,
        "wire.transfer_encode_us",
        stats::mean(&costs.encode_us),
        "us",
    );
    put(
        &mut out,
        "wire.transfer_decode_us",
        stats::mean(&costs.decode_us),
        "us",
    );
    put(&mut out, "core.cred_verify_us", costs.cred_verify_us, "us");
    put(&mut out, "vm.load_verify_us", costs.load_verify_us, "us");
    let admissions = per_agent(win, Counter::AgentsAdmitted);
    put(
        &mut out,
        "runtime.admissions_per_agent",
        admissions,
        "count",
    );
    put(
        &mut out,
        "runtime.transfer_retries_per_agent",
        per_agent(win, Counter::TransfersRetried),
        "count",
    );
    put(
        &mut out,
        "runtime.duplicate_rejections_per_agent",
        win.rejections.iter().map(|w| w.duplicate_hops).sum::<u64>() as f64 / launched,
        "count",
    );
    put(
        &mut out,
        "runtime.hop_latency_p50_us",
        us(HistoPath::HopLatency, 0.5),
        "us",
    );
    put(
        &mut out,
        "runtime.hop_latency_p99_us",
        us(HistoPath::HopLatency, 0.99),
        "us",
    );
    put(
        &mut out,
        "runtime.transfer_rtt_p99_us",
        us(HistoPath::TransferRtt, 0.99),
        "us",
    );
    put(
        &mut out,
        "runtime.bind_p50_us",
        us(HistoPath::Bind, 0.5),
        "us",
    );
    put(
        &mut out,
        "sched.ready_dwell_p50_us",
        us(HistoPath::ReadyDwell, 0.5),
        "us",
    );
    put(
        &mut out,
        "sched.ready_dwell_p99_us",
        us(HistoPath::ReadyDwell, 0.99),
        "us",
    );
    put(
        &mut out,
        "sched.slice_p50_us",
        us(HistoPath::SliceDuration, 0.5),
        "us",
    );
    put(
        &mut out,
        "sched.slice_p99_us",
        us(HistoPath::SliceDuration, 0.99),
        "us",
    );
    put(
        &mut out,
        "sched.slices_per_agent",
        per_agent(win, Counter::SlicesRun),
        "count",
    );
    put(
        &mut out,
        "sched.steals_per_agent",
        per_agent(win, Counter::Steals),
        "count",
    );
    put(&mut out, "wal.append_us", costs.wal_append_us, "us");
    let wal_appends = per_agent(win, Counter::WalAppends);
    put(&mut out, "wal.appends_per_agent", wal_appends, "count");
    put(&mut out, "core.invoke_us", costs.invoke_us, "us");
    put(
        &mut out,
        "core.proxy_check_p50_ns",
        world.merged_histos(HistoPath::ProxyCheck).quantile(0.5) as f64,
        "ns",
    );
    put(
        &mut out,
        "telemetry.journal_append_ns",
        costs.journal_append_ns,
        "ns",
    );
    let events = per_agent(win, Counter::EventsAppended);
    put(&mut out, "telemetry.events_per_agent", events, "count");
    put(
        &mut out,
        "telemetry.events_dropped_per_agent",
        per_agent(win, Counter::EventsDropped),
        "count",
    );
    put(&mut out, "store.scan_us", costs.scan_us, "us");
    put(&mut out, "store.get_ns", costs.get_ns, "ns");

    let lateness = stats::sorted(win.lateness_ms.iter().copied());
    put(
        &mut out,
        "bench.gen_lateness_p99_ms",
        if lateness.is_empty() {
            0.0
        } else {
            tail(&lateness).1
        },
        "ms",
    );
    let (tail_pct, p99, tail_chunks) = latency_tail(win);
    put(&mut out, "latency_p99_ms", p99, "ms");
    put(
        &mut out,
        "bench.latency_samples",
        latencies(win).len() as f64,
        "count",
    );
    put(&mut out, "bench.latency_tail_pct", tail_pct, "%");
    put(
        &mut out,
        "bench.latency_tail_chunks",
        tail_chunks as f64,
        "count",
    );
    let quarter = |q: usize| {
        let w = win
            .span_s
            .min(win.samples.iter().map(|s| s.start_s).fold(0.0, f64::max))
            .max(1e-3);
        let (lo, hi) = (w * q as f64 / 4.0, w * (q + 1) as f64 / 4.0);
        let done: Vec<f64> = win
            .samples
            .iter()
            .filter(|s| s.completed && s.done_s.is_some_and(|d| d >= lo && d < hi))
            .filter_map(|s| s.latency_ms())
            .collect();
        let rate = done.len() as f64 / (hi - lo);
        let sorted = stats::sorted(done);
        (
            rate,
            if sorted.is_empty() {
                0.0
            } else {
                stats::median(&sorted)
            },
        )
    };
    let (q1_rate, q1_p50) = quarter(0);
    let (q4_rate, q4_p50) = quarter(3);
    put(&mut out, "bench.q1_completed_per_s", q1_rate, "1/s");
    put(&mut out, "bench.q4_completed_per_s", q4_rate, "1/s");
    put(&mut out, "bench.q1_latency_p50_ms", q1_p50, "ms");
    put(&mut out, "bench.q4_latency_p50_ms", q4_p50, "ms");
    put(
        &mut out,
        "bench.cursor_holes",
        (win.holes_waited + win.records_skipped) as f64,
        "count",
    );
    put(
        &mut out,
        "bench.steal_share",
        steal_share(&win.marks),
        "ratio",
    );
    put(
        &mut out,
        "failed_share",
        verdict.failed as f64 / win.samples.len().max(1) as f64,
        "ratio",
    );

    // Replayed cost of one agent's path through the layers, against the
    // CPU each agent actually cost.
    let data_msgs = costs.payload_bytes.len() as f64;
    let per_msg: f64 = (0..costs.payload_bytes.len())
        .map(|i| {
            costs.dgram_seal_us[i]
                + costs.dgram_open_us[i]
                + costs.encode_us[i]
                + costs.decode_us[i]
                + if socket {
                    costs.channel_seal_us[i] + costs.channel_open_us[i]
                } else {
                    0.0
                }
        })
        .sum();
    let acks = (net_msgs - data_msgs).max(0.0);
    let ack_us = acks * (costs.ack_dgram_us + if socket { costs.ack_channel_us } else { 0.0 });
    let admit_us = admissions * (costs.cred_verify_us + costs.load_verify_us);
    let wal_us = wal_appends * costs.wal_append_us;
    let work_us = if workload.collects() {
        admissions * costs.scan_us
    } else {
        let charges = per_agent(win, Counter::MeterCharges);
        charges * costs.invoke_us + (events - charges).max(0.0) * costs.journal_append_ns / 1e3
    };
    let attributed_ms = (per_msg + ack_us + admit_us + wal_us + work_us) / 1e3;
    let cpu_ms = value(e2e, "cpu_ms_per_agent");
    put(
        &mut out,
        "attributed_cpu_share",
        if cpu_ms > 0.0 {
            attributed_ms / cpu_ms
        } else {
            0.0
        },
        "ratio",
    );
    out
}

/// The value of a named metric in `list` (0 when absent).
pub fn value(list: &[Metric], name: &str) -> f64 {
    list.iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// `overhead.<metric>`: traced minus untraced, for every end-to-end
/// metric.
pub fn overheads(traced: &[Metric], plain: &[Metric]) -> Vec<Metric> {
    traced
        .iter()
        .map(|t| Metric {
            name: format!("overhead.{}", t.name),
            value: t.value - value(plain, &t.name),
            unit: t.unit,
        })
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A result line read back: the untraced pass of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The `correct` flag.
    pub correct: bool,
    /// Agents attempted.
    pub attempted: usize,
    /// Agents failed.
    pub failed: usize,
    /// The metrics, with units as printed.
    pub metrics: Vec<Metric>,
}

/// Reads back a line written by [`result_json`].
pub fn parse_result(line: &str) -> Option<Parsed> {
    let field = |key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(rest[..rest.find([',', '}'])?].trim().to_string())
    };
    const METRICS: &str = "\"metrics\": {";
    let metrics_at = line.find(METRICS)? + METRICS.len();
    let mut metrics = Vec::new();
    for entry in line[metrics_at..].split("}, ") {
        let name = entry.split('"').nth(1)?;
        let value = entry
            .split("\"value\": ")
            .nth(1)?
            .split(',')
            .next()?
            .parse()
            .ok()?;
        let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: UNITS.iter().find(|u| **u == unit)?,
        });
    }
    Some(Parsed {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// Every unit this benchmark prints.
const UNITS: [&str; 10] = [
    "s", "1/s", "ms", "us", "ns", "MiB", "B", "count", "ratio", "%",
];

#[cfg(test)]
mod tests {
    use super::*;
    use ajanta_naming::Urn;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = vec![Metric {
            name: "latency_p50_ms".into(),
            value: 1.25,
            unit: "ms",
        }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn result_line_reads_back() {
        let m = vec![
            Metric {
                name: "setup_s".into(),
                value: 0.0123,
                unit: "s",
            },
            Metric {
                name: "completed_per_s".into(),
                value: 150.5,
                unit: "1/s",
            },
        ];
        let parsed = parse_result(&result_json(false, 9, 2, &m)).expect("parses");
        assert_eq!(
            parsed,
            Parsed {
                correct: false,
                attempted: 9,
                failed: 2,
                metrics: m
            }
        );
    }

    #[test]
    fn chunked_tail_shrugs_off_one_stall() {
        // 3 500 agents: the remainder joins the third chunk; the second
        // chunk holds a stall of 40 slow agents.
        let mut lat: Vec<f64> = (0..3_500).map(|i| (i % 100) as f64).collect();
        for v in &mut lat[1_200..1_240] {
            *v = 500.0;
        }
        let (pct, v, chunks) = chunked_tail(&lat);
        assert_eq!((pct, chunks), (99.0, 3));
        assert_eq!(v, 98.0);
        // Pooled, the stall would own the p99.
        assert_eq!(tail(&stats::sorted(lat.iter().copied())).1, 500.0);
        // Below one chunk the pooled rule applies.
        assert_eq!(chunked_tail(&lat[..500]), (95.0, 94.0, 1));
    }

    #[test]
    fn slice_figures_come_from_the_calmest_half() {
        // Ten 1 s slices, 10 agents launched and finished in each, each
        // taking 50 ms and 10 ms of CPU. In slices 3, 4 and 7 other guests
        // steal 30% of the host: there agents take 80 ms and cost 12 ms.
        let agent = Urn::agent("users.org", ["a"]).unwrap();
        let mut samples = Vec::new();
        let mut marks = vec![Mark {
            at_s: 0.0,
            cpu_s: 0.0,
            steal: (0, 0),
        }];
        for slice in 0..10 {
            let stolen = [3, 4, 7].contains(&slice);
            for k in 0..10 {
                let start_s = slice as f64 + k as f64 * 0.05;
                let took = if stolen { 0.08 } else { 0.05 };
                samples.push(Sample {
                    agent: agent.clone(),
                    start_s,
                    done_s: Some(start_s + took),
                    completed: true,
                });
            }
            let last = *marks.last().unwrap();
            marks.push(Mark {
                at_s: slice as f64 + 1.0,
                cpu_s: last.cpu_s + if stolen { 0.12 } else { 0.1 },
                steal: (
                    last.steal.0 + if stolen { 60 } else { 0 },
                    last.steal.1 + 200,
                ),
            });
        }
        let sliced = slices(&marks, &samples);
        assert_eq!(sliced.len(), 10);
        assert_eq!(sliced[3].steal_share, 0.3);
        assert_eq!(sliced[3].latency_p50_ms.round(), 80.0);
        assert_eq!(steal_share(&marks), 0.09);
        let calm = calmest(&sliced);
        assert_eq!(calm.len(), 5);
        assert!(calm.iter().all(|s| s.steal_share == 0.0));
        assert!(calm.iter().all(|s| s.latency_p50_ms.round() == 50.0));
        assert!(calm.iter().all(|s| s.cpu_ms_per_agent.round() == 10.0));
        assert_eq!(calm[0], sliced[0], "ties keep window order");
    }

    #[test]
    fn tail_falls_back_below_a_thousand_samples() {
        let lat: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&lat), (95.0, 475.0));
        let lat: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&lat), (99.0, 19_800.0));
    }
}
