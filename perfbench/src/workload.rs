//! The three workloads: inputs derived from the seed, world set-up, the
//! generator loop, and the output checks.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ajanta_baselines::RecordStore;
use ajanta_core::proxy::MeterMode;
use ajanta_core::telemetry::{Counter, CountersSnapshot};
use ajanta_core::{Credentials, Guarded, ProxyPolicy, Rights};
use ajanta_crypto::DetRng;
use ajanta_naming::Urn;
use ajanta_net::NetStats;
use ajanta_runtime::{Itinerary, Owner, ReportStatus, TransportMode, World};
use ajanta_vm::{assemble, AgentImage};
use ajanta_workloads::records::{record_population, selector_for, RecordSpec};

use crate::follow::{Follower, RecordSource, RejectionWatch};
use crate::spans::Recorder;
use crate::sys;

/// Agents in flight in a closed loop: 2 × the 2 cores of the reference
/// host.
pub const POPULATION: usize = 4;
/// Offered rate of the open loop, agents/s.
pub const UDS_RATE: f64 = 100.0;
/// `get` calls each access agent makes through its one proxy.
pub const ACCESS_CALLS: usize = 2000;
/// The access agent reads keys `i mod ACCESS_KEYS`.
pub const ACCESS_KEYS: usize = 64;
/// Store servers (1, 2, 3); server 0 is every agent's home.
pub const STORES: usize = 3;
/// Equal slices a closed-loop window is cut into; throughput, CPU per
/// agent and median latency are medians over the calmer half of them
/// (see `metrics::calmest`).
pub const SLICES: usize = 10;
/// World set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 51;
/// How often the generator polls the journals when idle. Latencies
/// include up to one poll of observation delay.
const POLL: Duration = Duration::from_micros(250);
/// How long in-flight agents may take to drain after the window.
const DRAIN: Duration = Duration::from_secs(60);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop collector tours over the simulated network.
    CollectSim,
    /// Open-loop collector tours over Unix sockets with the WAL on.
    CollectUds,
    /// Closed-loop proxy-heavy single-stop agents on the simulation.
    AccessSim,
}

impl Workload {
    /// Every workload the program runs; `BENCHMARK.json` gates all but
    /// `collect-uds` (see the README).
    pub const ALL: [Workload; 3] = [
        Workload::CollectSim,
        Workload::CollectUds,
        Workload::AccessSim,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CollectSim => "collect-sim",
            Workload::CollectUds => "collect-uds",
            Workload::AccessSim => "access-sim",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether arrivals follow a schedule (open loop) rather than
    /// completions (closed loop).
    pub fn open_loop(self) -> bool {
        self == Workload::CollectUds
    }

    /// Admissions each agent goes through: one per store visited.
    pub fn admissions_per_agent(self) -> u64 {
        match self {
            Workload::AccessSim => 1,
            _ => STORES as u64,
        }
    }

    /// Whether the agent is the collector (as opposed to the accessor).
    pub fn collects(self) -> bool {
        self != Workload::AccessSim
    }

    /// Completions at which a closed loop reads its peak RSS: the home
    /// server keeps every report, so memory is compared at a fixed
    /// agent count, not a fixed duration.
    fn rss_checkpoint(self) -> usize {
        match self {
            Workload::CollectSim => 2000,
            Workload::CollectUds => usize::MAX,
            Workload::AccessSim => 600,
        }
    }
}

/// Everything the seed decides. The program sees only these values.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Seed of the world (keys, certificates, server RNGs).
    pub world_seed: u64,
    /// Record populations of stores 1, 2, 3.
    pub populations: Vec<Vec<Vec<u8>>>,
    /// Open loop: due times as offsets from the window start, ascending.
    pub arrivals: Vec<Duration>,
}

/// Derives a workload's inputs from the benchmark seed. An open loop of
/// `seconds` gets exactly `round(rate × seconds)` arrivals placed as a
/// Poisson process conditioned on that count (sorted uniform points), so
/// every seed offers the same load over the same span.
pub fn inputs(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let mut rng = DetRng::new(seed ^ 0xBE9C_4A11_0F5E_ED00);
    let world_seed = rng.next_u64();
    let populations = (0..STORES)
        .map(|_| {
            record_population(&RecordSpec {
                count: 1000,
                record_len: 128,
                selectivity: 0.05,
                seed: rng.next_u64(),
            })
        })
        .collect();
    let arrivals = if workload.open_loop() {
        let n = (UDS_RATE * seconds as f64).round() as usize;
        let span = Duration::from_secs(seconds);
        let mut at: Vec<Duration> = (0..n).map(|_| span.mul_f64(rng.unit_f64())).collect();
        at.sort();
        at
    } else {
        Vec::new()
    };
    Inputs {
        world_seed,
        populations,
        arrivals,
    }
}

/// The name every store registers its records under.
pub fn store_urn() -> Urn {
    Urn::resource("stores.org", ["db"]).expect("canonical store name")
}

fn store(population: &[Vec<u8>]) -> Arc<RecordStore> {
    RecordStore::new(
        store_urn(),
        Urn::owner("stores.org", ["admin"]).expect("canonical admin name"),
        population.to_vec(),
    )
}

/// The access agent: one bind, [`ACCESS_CALLS`] metered `get`s of keys
/// `i mod ACCESS_KEYS`, returns the summed record lengths.
pub fn access_agent(store: &Urn) -> AgentImage {
    let src = format!(
        r#"
        module access
        import env.get_resource (bytes) -> int
        import env.invoke (int, bytes, bytes) -> bytes
        import env.args_i (int) -> bytes
        import env.res_bytes (bytes) -> bytes
        data store = "{store}"
        data mget = "get"

        func run(arg: bytes) -> int
          locals h: int, i: int, sum: int
          pushd store
          hostcall env.get_resource
          store h
          push 0
          store i
          push 0
          store sum
        next:
          load i
          push {ACCESS_CALLS}
          lt
          jz done
          load h
          pushd mget
          load i
          push {ACCESS_KEYS}
          rem
          hostcall env.args_i
          hostcall env.invoke
          hostcall env.res_bytes
          blen
          load sum
          add
          store sum
          load i
          push 1
          add
          store i
          jump next
        done:
          load sum
          ret
        "#
    );
    AgentImage {
        module: assemble(&src).expect("access agent assembles"),
        globals: Vec::new(),
        entry: "run".into(),
    }
}

/// What a correct agent reports, computed from the benchmark's own
/// populations: the collector's three scans joined by newlines, or the
/// accessor's summed lengths.
pub fn expected_result(workload: Workload, inputs: &Inputs) -> String {
    if workload.collects() {
        let scans: Vec<Vec<u8>> = inputs
            .populations
            .iter()
            .map(|p| store(p).scan(selector_for()))
            .collect();
        String::from_utf8(scans.join(&b'\n')).expect("records are ASCII")
    } else {
        let first = &inputs.populations[0];
        (0..ACCESS_CALLS)
            .map(|i| first[i % ACCESS_KEYS].len())
            .sum::<usize>()
            .to_string()
    }
}

/// A built world with its stores registered and the agent prepared.
pub struct Rig {
    /// The running world.
    pub world: World,
    /// The owner minting agent credentials.
    pub owner: Owner,
    /// The image every agent of this run launches with.
    pub image: AgentImage,
    /// The first stop (store 1).
    pub dest: Urn,
    /// The home server's name.
    pub home: Urn,
    /// The WAL directory, on the socket workload.
    pub wal_dir: Option<PathBuf>,
}

impl Rig {
    /// Mints the next agent's name and credentials.
    pub fn prepare(&mut self) -> (Urn, Credentials) {
        let agent = self.owner.next_agent_name("bench");
        let creds =
            self.owner
                .credentials(agent.clone(), self.home.clone(), Rights::all(), u64::MAX);
        (agent, creds)
    }

    /// Launches a prepared agent toward store 1.
    pub fn launch(&self, creds: Credentials) {
        self.world
            .server(0)
            .launch(self.dest.clone(), creds, self.image.clone());
    }

    /// Stops the world and deletes its WAL directory.
    pub fn teardown(self) {
        self.world.shutdown();
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds a world for `workload`, registers the three stores, and runs
/// one warm-up agent over the route so connections and lazy state exist
/// before timing. `tmp` holds this run's sockets and WAL directories;
/// `nth` keeps WAL directories of successive set-ups apart.
pub fn setup(workload: Workload, inputs: &Inputs, tmp: &Path, nth: usize) -> Result<Rig, String> {
    let mut builder = World::builder(1 + STORES).seed(inputs.world_seed);
    let mut wal_dir = None;
    if workload == Workload::CollectUds {
        let dir = tmp.join(format!("wal-{nth}"));
        if dir.exists() {
            return Err(format!("WAL directory {} is not new", dir.display()));
        }
        builder = builder.transport(TransportMode::Uds).wal_dir(&dir);
        wal_dir = Some(dir);
    }
    let mut world = builder.build();
    let policy = ProxyPolicy {
        meter_mode: if workload.collects() {
            MeterMode::Off
        } else {
            MeterMode::CountAndTime
        },
        default_tariff: 1,
        ..ProxyPolicy::default()
    };
    for (k, population) in inputs.populations.iter().enumerate() {
        world
            .server(k + 1)
            .register_resource(Guarded::new(store(population), policy.clone()))?;
    }
    let owner = world.owner("bench");
    let image = if workload.collects() {
        let rest = Itinerary::new((2..=STORES).map(|k| world.server(k).name().clone()));
        ajanta_workloads::collector_agent(&store_urn(), selector_for(), &rest)
    } else {
        access_agent(&store_urn())
    };
    let mut rig = Rig {
        dest: world.server(1).name().clone(),
        home: world.server(0).name().clone(),
        world,
        owner,
        image,
        wal_dir,
    };

    let journal = rig.world.server(0).journal();
    let mut follower = Follower::new(journal.next_seq(), journal.reported());
    let (agent, creds) = rig.prepare();
    rig.launch(creds);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut outcome = None;
    while outcome.is_none() && Instant::now() < deadline {
        std::thread::sleep(POLL);
        follower.poll(&journal, Instant::now(), |r| {
            if r.agent == agent {
                outcome = Some(r.completed);
            }
        });
    }
    match outcome {
        Some(true) => Ok(rig),
        Some(false) => Err(format!("warm-up agent {agent} did not complete")),
        None => Err(format!("warm-up agent {agent} never reported")),
    }
}

/// One measured agent.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The agent.
    pub agent: Urn,
    /// When it was due (open loop) or launched (closed loop), seconds
    /// from the window start.
    pub start_s: f64,
    /// When its report was seen, seconds from the window start.
    pub done_s: Option<f64>,
    /// Whether it reported `completed` (its result is checked later).
    pub completed: bool,
}

impl Sample {
    /// Launch (or due time) to report, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_s.map(|d| (d - self.start_s) * 1e3)
    }
}

/// Readings taken at a slice boundary of a closed-loop window (on the
/// open loop: at the window start and end).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    /// Seconds from the window start.
    pub at_s: f64,
    /// Process CPU, seconds.
    pub cpu_s: f64,
    /// Host (steal, all) CPU ticks, see [`sys::steal_ticks`].
    pub steal: (u64, u64),
}

impl Mark {
    fn now(at: Duration) -> Mark {
        Mark {
            at_s: at.as_secs_f64(),
            cpu_s: sys::process_cpu().as_secs_f64(),
            steal: sys::steal_ticks(),
        }
    }
}

/// Counter and transport totals over the whole world.
#[derive(Debug, Clone)]
pub struct Totals {
    /// Journal counters summed over every server.
    pub counters: CountersSnapshot,
    /// Transport statistics summed over every transport.
    pub net: NetStats,
}

/// Reads the world's counters and transport statistics (atomics only;
/// safe inside a measured window).
pub fn totals(world: &World) -> Totals {
    let mut counters = CountersSnapshot::empty();
    for s in &world.servers {
        counters.merge(&s.journal().counters().typed_snapshot());
    }
    let mut net = NetStats::default();
    for t in world.transports() {
        let s = t.stats();
        net.messages_delivered += s.messages_delivered;
        net.bytes_delivered += s.bytes_delivered;
        net.frames_coalesced += s.frames_coalesced;
        net.write_syscalls += s.write_syscalls;
    }
    Totals { counters, net }
}

impl Totals {
    /// `counter` grown since `before`.
    pub fn delta(&self, before: &Totals, counter: Counter) -> u64 {
        self.counters.get(counter) - before.counters.get(counter)
    }
}

/// What one measured window observed.
#[derive(Debug)]
pub struct Window {
    /// Every agent launched inside the window, in launch order.
    pub samples: Vec<Sample>,
    /// Agents launched after the window (closed loop, only to reach the
    /// RSS checkpoint); they count in totals, not in latencies.
    pub extra_launched: usize,
    /// Seconds the throughput and CPU figures cover.
    pub span_s: f64,
    /// Completions seen inside `span_s`.
    pub completed_in_span: usize,
    /// Process CPU over `span_s`, seconds.
    pub cpu_s: f64,
    /// Closed loop: readings at the start and at the end of each of the
    /// [`SLICES`] slices. Open loop: at the window start and end.
    pub marks: Vec<Mark>,
    /// VmHWM at the checkpoint, MiB.
    pub peak_rss_mib: f64,
    /// Open loop: launch time minus due time per agent, ms.
    pub lateness_ms: Vec<f64>,
    /// Totals at the window start and after the drain.
    pub before: Totals,
    /// Totals after every launched agent resolved (or the drain ended).
    pub after: Totals,
    /// Cursor holes the follower waited at.
    pub holes_waited: u64,
    /// Journal records the follower gave up on as evicted.
    pub records_skipped: u64,
    /// Reports the journal counted but the follower never saw.
    pub reports_unseen: u64,
    /// Every server's rejections of the window, inspected one by one.
    pub rejections: Vec<RejectionWatch>,
    /// One measured agent's credentials, for the replay.
    pub sample_credentials: Option<Credentials>,
}

/// Runs the measured window: a closed loop keeps [`POPULATION`] agents
/// in flight for `seconds`; an open loop launches at `inputs.arrivals`.
/// Completion is followed through the home journal's cursor, and every
/// server's rejections through a [`RejectionWatch`] — nothing here
/// clones reports or snapshots a journal. Each iteration consumes
/// reports before it launches, so a closed-loop slot is refilled in the
/// same iteration that sees its agent finish.
pub fn run_window(
    workload: Workload,
    rig: &mut Rig,
    inputs: &Inputs,
    seconds: u64,
    rec: &mut Recorder,
) -> Window {
    let journal = rig.world.server(0).journal();
    let mut follower = Follower::new(journal.next_seq(), journal.reported());
    let journals: Vec<_> = rig.world.servers.iter().map(|s| s.journal()).collect();
    let mut rejections: Vec<RejectionWatch> = journals.iter().map(RejectionWatch::new).collect();
    let window = Duration::from_secs(seconds);
    let checkpoint = workload.rss_checkpoint();

    let open = workload.open_loop();
    let mut samples: Vec<Sample> = Vec::new();
    // Agent → its index in `samples`, or `None` for an agent launched
    // after the window only to reach the RSS checkpoint.
    let mut in_flight: HashMap<Urn, Option<usize>> = HashMap::new();
    let mut lateness_ms = Vec::new();
    let mut extra_launched = 0;
    let mut next = Some(rig.prepare());
    let mut sample_credentials = None;
    let mut completions = 0usize;
    let mut completed_in_span = 0usize;
    let mut peak_rss_mib = None;
    let mut cpu_end = None;
    let mut last_done = Duration::ZERO;

    let before = totals(&rig.world);
    let cpu0 = sys::process_cpu();
    let t0 = Instant::now();
    let mut marks = vec![Mark::now(Duration::ZERO)];
    let hard_end = t0 + window + DRAIN;
    let mut next_arrival = 0;

    loop {
        let now = Instant::now();
        let elapsed = now - t0;
        let in_window = elapsed < window;
        if !open
            && marks.len() <= SLICES
            && elapsed >= window.mul_f64(marks.len() as f64 / SLICES as f64)
        {
            marks.push(Mark::now(elapsed));
        }
        if !open && !in_window && cpu_end.is_none() {
            cpu_end = Some((sys::process_cpu(), elapsed));
            completed_in_span = completions;
        }

        // Consume reports.
        if follower.behind(&journal) {
            let seen_at = Instant::now();
            let seen_s = (seen_at - t0).as_secs_f64();
            follower.poll(&journal, seen_at, |r| {
                match in_flight.remove(&r.agent) {
                    Some(Some(i)) => {
                        let s = &mut samples[i];
                        s.done_s = Some(seen_s);
                        s.completed = r.completed;
                        let start = t0 + Duration::from_secs_f64(s.start_s);
                        rec.record("agent", || s.agent.to_string(), start, seen_at);
                    }
                    Some(None) => {}
                    None => return,
                }
                completions += 1;
                last_done = seen_at - t0;
            });
            if peak_rss_mib.is_none() && completions >= checkpoint {
                peak_rss_mib = Some(sys::peak_rss_mib());
            }
        }
        for (watch, j) in rejections.iter_mut().zip(&journals) {
            watch.poll(j, now);
        }

        // Launch whatever is due: the next scheduled arrival (open loop),
        // or a replacement for each finished agent (closed loop) — past
        // the window only while the RSS checkpoint is still ahead.
        loop {
            let due = if open {
                inputs
                    .arrivals
                    .get(next_arrival)
                    .copied()
                    .filter(|&at| at <= elapsed)
            } else if in_flight.len() < POPULATION && (in_window || completions < checkpoint) {
                Some(t0.elapsed())
            } else {
                None
            };
            let Some(due) = due else { break };
            let (agent, creds) = next.take().unwrap_or_else(|| rig.prepare());
            if !open && !in_window {
                rig.launch(creds);
                in_flight.insert(agent, None);
                extra_launched += 1;
                continue;
            }
            if sample_credentials.is_none() {
                sample_credentials = Some(creds.clone());
            }
            rig.launch(creds);
            if open {
                lateness_ms.push((t0.elapsed() - due).as_secs_f64() * 1e3);
                next_arrival += 1;
            }
            in_flight.insert(agent.clone(), Some(samples.len()));
            samples.push(Sample {
                agent,
                start_s: due.as_secs_f64(),
                done_s: None,
                completed: false,
            });
        }

        let launching_done = if open {
            next_arrival >= inputs.arrivals.len()
        } else {
            !in_window && completions >= checkpoint
        };
        if launching_done && in_flight.is_empty() {
            break;
        }
        if now >= hard_end {
            eprintln!(
                "perfbench: drain timed out with {} agents in flight",
                in_flight.len()
            );
            break;
        }
        if next.is_none() {
            next = Some(rig.prepare());
        }
        let mut nap = POLL;
        if let Some(&at) = inputs.arrivals.get(next_arrival) {
            nap = nap.min(at.saturating_sub(t0.elapsed()));
        }
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
    }

    let (cpu_end, span) = match cpu_end {
        Some(c) => c,
        None => {
            // Open loop: the span runs to the last report.
            completed_in_span = completions;
            marks.push(Mark::now(last_done));
            (sys::process_cpu(), last_done.max(Duration::from_millis(1)))
        }
    };
    let peak_rss_mib = peak_rss_mib.unwrap_or_else(sys::peak_rss_mib);
    let after = totals(&rig.world);
    // Rejections counted by `after` may still be on their way into a
    // shard; wait for them (a watch gives up after its patience).
    let settle = Instant::now();
    loop {
        let now = Instant::now();
        for (watch, j) in rejections.iter_mut().zip(&journals) {
            watch.poll(j, now);
        }
        let pending = rejections
            .iter()
            .zip(&journals)
            .any(|(w, j)| w.pending(j) > 0);
        if !pending || now - settle > 2 * crate::follow::HOLE_PATIENCE {
            break;
        }
        std::thread::sleep(POLL);
    }
    Window {
        samples,
        extra_launched,
        span_s: span.as_secs_f64(),
        completed_in_span,
        cpu_s: (cpu_end - cpu0).as_secs_f64(),
        marks,
        peak_rss_mib,
        lateness_ms,
        before,
        after,
        holes_waited: follower.holes_waited,
        records_skipped: follower.records_skipped,
        reports_unseen: journal.reported().saturating_sub(follower.seen()),
        rejections,
        sample_credentials,
    }
}

/// The outcome of the post-window checks.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Measured agents that did not report `completed` with the
    /// expected result.
    pub failed: usize,
    /// Broken invariants, one line each.
    pub problems: Vec<String>,
}

/// Checks every measured agent's output against the expected result and
/// the run's invariants. Runs after the window, so it may read the
/// report list. A broken invariant fails every measured agent, so it
/// shows in `failed_share` and `completed_share`.
pub fn verify(workload: Workload, rig: &Rig, win: &Window, expected: &str) -> Verdict {
    let mut verdict = Verdict::default();
    let reports: HashMap<Urn, ReportStatus> = rig
        .world
        .server(0)
        .reports()
        .into_iter()
        .map(|r| (r.agent, r.status))
        .collect();
    for s in &win.samples {
        let ok = s.completed
            && matches!(reports.get(&s.agent), Some(ReportStatus::Completed(text)) if text == expected);
        if !ok {
            verdict.failed += 1;
            if verdict.failed <= 3 {
                eprintln!(
                    "perfbench: agent {} failed: {:?}",
                    s.agent,
                    reports.get(&s.agent).map(|st| match st {
                        ReportStatus::Completed(t) => format!("completed, {} bytes", t.len()),
                        other => format!("{other:?}"),
                    })
                );
            }
        }
    }

    let launched = (win.samples.len() + win.extra_launched) as u64;
    let admitted = win.after.delta(&win.before, Counter::AgentsAdmitted);
    if admitted != workload.admissions_per_agent() * launched {
        verdict.problems.push(format!(
            "{admitted} admissions for {launched} agents, expected exactly {} each",
            workload.admissions_per_agent()
        ));
    }
    if win.reports_unseen > 0 {
        verdict.problems.push(format!(
            "{} reports counted by the journal were never seen by the cursor",
            win.reports_unseen
        ));
    }
    let replays = win.after.counters.get(Counter::WalReplays);
    if replays != 0 {
        verdict
            .problems
            .push(format!("{replays} WAL replays in a crash-free run"));
    }
    for watch in &win.rejections {
        for other in &watch.others {
            verdict
                .problems
                .push(format!("unexpected rejection {other}"));
        }
        if watch.missed > 0 {
            verdict.problems.push(format!(
                "{} rejections were evicted before they could be inspected",
                watch.missed
            ));
        }
    }
    if !verdict.problems.is_empty() {
        verdict.failed = win.samples.len();
    }
    verdict
}
