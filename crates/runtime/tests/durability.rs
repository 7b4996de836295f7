//! Durable-agent integration tests: hibernation (idle agents spill to
//! the bundle store and wake on mail), and the admission WAL (custody
//! resolves on ack; a restarted server replays unresolved admissions
//! and loses no agents).

use std::path::PathBuf;
use std::time::Duration;

use ajanta_core::Rights;
use ajanta_naming::Urn;
use ajanta_runtime::wal::{AdmissionWal, WalRecord};
use ajanta_runtime::{AgentBundle, WalRecovery};
use ajanta_runtime::{Counter, Event, ReportStatus, SpanContext, SpanId, TraceId, World};
use ajanta_vm::{assemble, AgentImage, Value};

const WAIT: Duration = Duration::from_secs(20);

fn image(src: &str, globals: Vec<Value>, entry: &str) -> AgentImage {
    let module = assemble(src).expect("test agent assembles");
    let image = AgentImage {
        module,
        globals,
        entry: entry.into(),
    };
    image.validate().expect("test agent image is consistent");
    image
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ajanta-durability-{tag}-{}", std::process::id()))
}

/// An agent that polls its mailbox until something arrives, then
/// returns the payload length. With hibernation enabled it idles
/// through enough empty polls to be spilled.
const MAIL_WAITER: &str = r#"
    module waiter
    import env.recv () -> bytes
    global tries: int

    func run(arg: bytes) -> int
      locals msg: bytes
    loop:
      hostcall env.recv
      store msg
      load msg
      blen
      jz again
      load msg
      blen
      ret
    again:
      gload tries
      push 1
      add
      gstore tries
      gload tries
      push 5000000
      lt
      jz giveup
      jump loop
    giveup:
      push -1
      ret
"#;

#[test]
fn idle_agent_hibernates_and_wakes_on_mail() {
    let mut world = World::builder(2).hibernation(16).build();
    let mut owner = world.owner("kay");
    let agent = owner.next_agent_name("waiter");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(MAIL_WAITER, vec![Value::Int(0)], "run"),
    );

    // The waiter polls an empty mailbox; after its first yielded slice
    // (with well over 16 misses accumulated) it must spill.
    let deadline = std::time::Instant::now() + WAIT;
    while world.server(1).hibernated_agents() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        world.server(1).hibernated_agents(),
        1,
        "idle mail-poller must hibernate"
    );
    assert!(
        world.server(1).hibernated_bytes() > 0,
        "a hibernated agent has a serialized footprint"
    );
    // The agent is still resident (its stay, domain, and mailbox
    // survive hibernation) — only its scheduler presence is gone.
    assert_eq!(world.server(1).resident_agents(), 1);

    // Mail wakes it: the bundle is consumed, the interpreter resumes
    // mid-loop, recv returns the payload, and the agent completes.
    let from = Urn::agent("users.org", ["kay", "0"]).unwrap();
    assert!(world
        .server(1)
        .deliver_mail(from, agent.clone(), b"wake up!".to_vec()));

    let reports = world.server(0).wait_reports(1, WAIT);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].agent, agent);
    assert_eq!(
        reports[0].status,
        ReportStatus::Completed("8".into()),
        "the woken agent must resume exactly where it slept and read the mail"
    );

    // Exactly one hibernate/wake cycle; a second wake finds no bundle.
    assert_eq!(world.server(1).hibernated_agents(), 0);
    assert!(!world.server(1).wake(&agent), "double wake must be a no-op");
    let journal = world.server(1).journal();
    assert_eq!(journal.counter(Counter::AgentsHibernated), 1);
    assert_eq!(journal.counter(Counter::AgentsWoken), 1);
    let snapshot = journal.snapshot();
    assert!(snapshot
        .iter()
        .any(|r| matches!(&r.event, Event::AgentHibernated { agent: a, .. } if *a == agent)));
    assert!(snapshot
        .iter()
        .any(|r| matches!(&r.event, Event::AgentWoken { agent: a, .. } if *a == agent)));
    world.shutdown();
}

/// An explicit wake holds the revived agent awake: an idle waiter is
/// not spilled again at its next yield (its empty polls pass the miss
/// threshold in microseconds), yet a hibernate request still spills it
/// and mail still wakes it.
#[test]
fn explicit_wake_is_not_undone_by_idle_hibernation() {
    let mut world = World::builder(2).hibernation(16).build();
    let mut owner = world.owner("kay");
    let agent = owner.next_agent_name("waiter");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(MAIL_WAITER, vec![Value::Int(0)], "run"),
    );
    let wait_hibernated = |n: usize| {
        let deadline = std::time::Instant::now() + WAIT;
        while world.server(1).hibernated_agents() != n && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        world.server(1).hibernated_agents()
    };
    assert_eq!(wait_hibernated(1), 1, "idle mail-poller must hibernate");

    assert!(world.server(1).wake(&agent));
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        world.server(1).hibernated_agents(),
        0,
        "an explicitly woken agent stays awake until its next mail"
    );

    assert!(world.server(1).hibernate(&agent));
    assert_eq!(wait_hibernated(1), 1, "a hibernate request still spills it");

    let from = Urn::agent("users.org", ["kay", "0"]).unwrap();
    assert!(world
        .server(1)
        .deliver_mail(from, agent.clone(), b"wake up!".to_vec()));
    let reports = world.server(0).wait_reports(1, WAIT);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].status, ReportStatus::Completed("8".into()));
    let journal = world.server(1).journal();
    assert_eq!(journal.counter(Counter::AgentsHibernated), 2);
    assert_eq!(journal.counter(Counter::AgentsWoken), 2);
    world.shutdown();
}

/// With a WAL enabled, a completed visit leaves the log fully settled:
/// at least one `Admit` (logged before the admission ack left) and a
/// matching `Resolve` (logged when the report ack arrived), with
/// nothing unresolved.
#[test]
fn wal_settles_admit_and_resolve_for_a_completed_visit() {
    let dir = scratch("settle");
    let _ = std::fs::remove_dir_all(&dir);
    let src = r#"
        module hello
        func run(arg: bytes) -> int
          push 41
          push 1
          add
          ret
    "#;
    let mut world = World::builder(2).wal_dir(&dir).build();
    let mut owner = world.owner("kay");
    let agent = owner.next_agent_name("hello");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);
    world.server(0).launch(
        world.server(1).name().clone(),
        creds,
        image(src, vec![], "run"),
    );
    let reports = world.server(0).wait_reports(1, WAIT);
    assert_eq!(reports[0].status, ReportStatus::Completed("42".into()));

    // The Resolve lands when the report ack makes it back — poll for
    // the log to settle rather than racing it.
    let wal_path = dir.join("site1.wal");
    let deadline = std::time::Instant::now() + WAIT;
    let recovery = loop {
        let records = AdmissionWal::replay(&wal_path).expect("wal replays");
        let has_admit = records.iter().any(|r| matches!(r, WalRecord::Admit(_)));
        let recovery = AdmissionWal::recover(records);
        if (has_admit && recovery.unresolved.is_empty()) || std::time::Instant::now() >= deadline {
            break recovery;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        recovery.resolved.iter().any(|(a, _)| *a == agent),
        "custody for {agent} must resolve once its report is acked"
    );
    assert!(
        recovery.unresolved.is_empty(),
        "a clean run leaves no unresolved admissions: {:?}",
        recovery.unresolved.len()
    );
    world.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-recovery half, in-process and fully deterministic: a WAL
/// holding an unresolved `Admit` (written as if by a previous
/// incarnation that died before handing the agent on) is replayed at
/// server startup — the agent is re-admitted through the normal
/// pipeline, runs, and reports home. Zero lost agents, and replay is
/// visible as `WalReplayed` telemetry.
#[test]
fn wal_replay_readmits_unresolved_agents_on_restart() {
    let dir = scratch("replay");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src = r#"
        module phoenix
        func run(arg: bytes) -> int
          push 7
          ret
    "#;

    // Incarnation one: same builder seed as the restart below, so the
    // credentials it minted verify against the restarted world's roots.
    // It "crashes" having admitted the agent but never resolved it.
    let (agent, bundle_bytes) = {
        let mut world = World::builder(2).build();
        let mut owner = world.owner("kay");
        let agent = owner.next_agent_name("phoenix");
        let home = world.server(0).name().clone();
        let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);
        let bundle = AgentBundle {
            agent: agent.clone(),
            hop: 1,
            credentials: creds,
            image: image(src, vec![], "run"),
            arg: Vec::new(),
            ctx: SpanContext::root(TraceId(0xD00D), SpanId(1)),
            warm: None,
        };
        world.shutdown();
        (agent, bundle)
    };
    let wal = AdmissionWal::open(dir.join("site1.wal")).expect("wal opens");
    wal.append(&WalRecord::Admit(Box::new(bundle_bytes)))
        .expect("admit appends");
    drop(wal);

    // Incarnation two: same seed, now with the WAL — startup replay
    // must re-admit the agent, which runs and reports home.
    let world = World::builder(2).wal_dir(&dir).build();
    let reports = world.server(0).wait_reports(1, WAIT);
    assert_eq!(reports.len(), 1, "the replayed agent must not be lost");
    assert_eq!(reports[0].agent, agent);
    assert_eq!(reports[0].status, ReportStatus::Completed("7".into()));
    let journal = world.server(1).journal();
    assert_eq!(journal.counter(Counter::WalReplays), 1);
    assert!(journal
        .snapshot()
        .iter()
        .any(|r| matches!(&r.event, Event::WalReplayed { agent: a, hop: 1 } if *a == agent)));

    // And the log settles: the replayed admission resolves on the
    // report ack, so a second restart would replay nothing.
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        let records = AdmissionWal::replay(dir.join("site1.wal")).expect("wal replays");
        let WalRecovery { unresolved, .. } = AdmissionWal::recover(records);
        if unresolved.is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "replayed admission never resolved"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    world.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
