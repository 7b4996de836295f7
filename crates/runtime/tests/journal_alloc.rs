//! Proves that the two journal records every proxy access appends — the
//! `MeterCharge` and the `Access` span — carry no freshly allocated data.
//!
//! The whole binary runs under a counting allocator that attributes
//! allocations and frees to the thread that made them. Once a journal is
//! full, each append evicts the oldest record of its shard; with names
//! and labels shared, building a record bumps reference counts and
//! evicting one drops them, so the steady state touches the heap not at
//! all. The world test checks the other half: an agent's repeated
//! accesses through one proxy journal one shared detail text.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use ajanta_core::{
    BoundedBuffer, DomainId, Event, Guarded, Journal, Meter, MethodId, MethodTable, ProxyControl,
    ProxyPolicy, Rights, SpanContext, SpanId, SpanKind, TraceId,
};
use ajanta_naming::Urn;
use ajanta_runtime::World;
use ajanta_vm::{assemble, AgentImage};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn note(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with` so a late allocation during thread teardown (after TLS
    // destruction) cannot panic inside the allocator.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = counter.try_with(|c| c.set(c.get() + 1));
        }
    });
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the only addition is a
// thread-local counter bump, which itself never allocates (const-init
// TLS cells).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations and frees counted.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.with(|a| a.set(0));
    FREES.with(|a| a.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

#[test]
fn full_journal_appends_access_records_without_heap_traffic() {
    const CAPACITY: usize = 256;
    const MEASURED: u64 = 1000;
    let resource = Urn::resource("alloc.test", ["store", "db"]).unwrap();
    let agent = Urn::agent("alloc.test", ["owner", "probe"]).unwrap();
    let get = MethodId(1);
    let table = Arc::new(MethodTable::new(["count", "get"]));
    let journal = Arc::new(Journal::with_capacity(CAPACITY));
    // A metered proxy with the journal attached, as the runtime binds
    // one: each recorded use appends its `MeterCharge` through the
    // proxy's own metering path. That path calls no resource code, so
    // every allocation it made would be the metering's or the journal's.
    let control = ProxyControl::new(
        DomainId(7),
        [],
        Arc::clone(&table),
        [get],
        None,
        Meter::counting(1),
    );
    control.attach_journal(Arc::clone(&journal), resource.clone());
    let detail: Arc<str> = format!("{resource} get ok").into();
    let ctx = SpanContext::root(TraceId(1), SpanId(1));
    let access = |i: u64| {
        control.record_use_id(get, 0);
        journal.append(Event::Span {
            ctx: ctx.child(SpanId(i + 2)),
            kind: SpanKind::Access,
            agent: agent.clone(),
            detail: Arc::clone(&detail),
            start_ns: i,
            dur_ns: 1,
        });
    };

    // Fill every shard past its bound, so each measured append evicts.
    for i in 0..2 * CAPACITY as u64 {
        access(i);
    }
    assert_eq!(journal.len(), journal.capacity());
    let dropped = journal.dropped();

    let (allocs, frees) = counted(|| {
        for i in 0..MEASURED {
            access(i);
        }
    });
    assert_eq!(
        journal.dropped() - dropped,
        2 * MEASURED,
        "every use appends a charge and a span, and every append evicts"
    );
    assert_eq!(
        allocs, 0,
        "allocations across {MEASURED} access-record pairs"
    );
    assert_eq!(frees, 0, "frees across {MEASURED} access-record pairs");

    // The charges carry the table's own label, not a copy of it.
    let label = table.label(get).unwrap();
    let charges: Vec<Arc<str>> = journal
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            Event::MeterCharge { method, .. } => Some(method),
            _ => None,
        })
        .collect();
    assert!(!charges.is_empty(), "the proxy journals its charges");
    assert!(charges.iter().all(|m| Arc::ptr_eq(m, label)));
}

/// Binds the `jobs` buffer and puts into it twice through one proxy.
const TWICE: &str = r#"
    module twice
    import env.get_resource (bytes) -> int
    import env.invoke (int, bytes, bytes) -> bytes
    import env.args_b (bytes) -> bytes
    data rname = "ajn://alloc.test/resource/jobs"
    data mput = "put"
    data item = "probe"

    func run(arg: bytes) -> int
      locals h: int
      pushd rname
      hostcall env.get_resource
      store h
      load h
      pushd mput
      pushd item
      hostcall env.args_b
      hostcall env.invoke
      drop
      load h
      pushd mput
      pushd item
      hostcall env.args_b
      hostcall env.invoke
      drop
      push 0
      ret
"#;

#[test]
fn repeated_accesses_share_one_span_detail() {
    let mut world = World::builder(2).build();
    let buffer = BoundedBuffer::new(
        Urn::resource("alloc.test", ["jobs"]).unwrap(),
        Urn::owner("alloc.test", ["admin"]).unwrap(),
        8,
    );
    world
        .server(1)
        .register_resource(Guarded::new(buffer, ProxyPolicy::default()))
        .unwrap();
    let mut owner = world.owner("sharer");
    let agent = owner.next_agent_name("twice");
    let home = world.server(0).name().clone();
    let creds = owner.credentials(agent.clone(), home, Rights::all(), u64::MAX);
    let image = AgentImage {
        module: assemble(TWICE).expect("agent assembles"),
        globals: Vec::new(),
        entry: "run".into(),
    };
    world
        .server(0)
        .launch(world.server(1).name().clone(), creds, image);
    let reports = world.server(0).wait_reports(1, Duration::from_secs(20));
    assert_eq!(reports.len(), 1, "the agent reports home");

    let details: Vec<Arc<str>> = world
        .server(1)
        .journal()
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            Event::Span {
                kind: SpanKind::Access,
                agent: a,
                detail,
                ..
            } if a == agent => Some(detail),
            _ => None,
        })
        .collect();
    assert_eq!(details.len(), 2, "two accesses, two spans");
    assert_eq!(&*details[0], "ajn://alloc.test/resource/jobs put ok");
    assert!(
        Arc::ptr_eq(&details[0], &details[1]),
        "both spans share one detail allocation"
    );
    world.shutdown();
}
