//! Completion tracking: follows the home server's journal with a
//! sequence cursor, O(new records) per poll.
//!
//! `Journal::append_at` takes a record's sequence number before it
//! pushes the record into its shard, so a reader can see record N+1
//! while record N is still on its way. The cursor therefore never moves
//! across a hole: it waits at the hole until the record lands. A hole
//! that outlives [`HOLE_PATIENCE`] was evicted by the ring's capacity
//! bound and is skipped; any report lost that way is never seen, and
//! the caller counts that agent as failed.
//!
//! [`RejectionWatch`] follows the `Rejected` events of a journal the
//! same way, but reads records only when the rejection counter grows,
//! so it stays cheap on journals that take thousands of events per
//! agent and still inspects every rejection of the window.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ajanta_core::telemetry::{Counter, Event, Journal, Record, RejectKind};
use ajanta_naming::Urn;

/// How long a sequence hole may stay open before it counts as evicted.
/// A racing append closes its hole within microseconds.
pub const HOLE_PATIENCE: Duration = Duration::from_millis(250);

/// Where the follower reads records from. The journal implements it;
/// tests implement it to force interleavings.
pub trait RecordSource {
    /// Every retained record with `seq >= cursor`, ascending.
    fn since(&self, cursor: u64) -> Vec<Record>;
    /// Reports journaled so far (the `AgentsReported` counter).
    fn reported(&self) -> u64;
    /// Rejections journaled so far (the `Rejections` counter).
    fn rejections(&self) -> u64;
    /// The sequence number the next append will take.
    fn next_seq(&self) -> u64;
}

impl RecordSource for Arc<Journal> {
    fn since(&self, cursor: u64) -> Vec<Record> {
        Journal::since(self, cursor)
    }
    fn reported(&self) -> u64 {
        self.counter(Counter::AgentsReported)
    }
    fn rejections(&self) -> u64 {
        self.counter(Counter::Rejections)
    }
    fn next_seq(&self) -> u64 {
        Journal::next_seq(self)
    }
}

/// One `AgentReported` record taken from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reported {
    /// The agent that reported.
    pub agent: Urn,
    /// Whether it reported `completed`.
    pub completed: bool,
}

/// A sequence cursor over one journal.
#[derive(Debug)]
pub struct Follower {
    cursor: u64,
    /// Reports consumed, compared against the journal's counter.
    seen: u64,
    /// The hole the cursor waits at, and when it was first seen.
    hole: Option<(u64, Instant)>,
    /// Polls that stopped at a hole which later filled.
    pub holes_waited: u64,
    /// Records given up on as evicted.
    pub records_skipped: u64,
}

impl Follower {
    /// A follower starting at `cursor` (usually the journal's
    /// `next_seq`), with `seen` reports already accounted for.
    pub fn new(cursor: u64, seen: u64) -> Self {
        Follower {
            cursor,
            seen,
            hole: None,
            holes_waited: 0,
            records_skipped: 0,
        }
    }

    /// Reports this follower has consumed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Whether the journal holds reports this follower has not consumed
    /// (one atomic load — the cheap check before a `since`).
    pub fn behind(&self, src: &impl RecordSource) -> bool {
        src.reported() > self.seen
    }

    /// Consumes every record from the cursor up to the first open hole,
    /// passing each report to `on_report`. `now` decides hole patience.
    pub fn poll(
        &mut self,
        src: &impl RecordSource,
        now: Instant,
        mut on_report: impl FnMut(Reported),
    ) {
        for record in src.since(self.cursor) {
            if record.seq > self.cursor {
                match self.hole {
                    Some((seq, first)) if seq == self.cursor => {
                        if now.duration_since(first) < HOLE_PATIENCE {
                            return;
                        }
                        self.records_skipped += record.seq - self.cursor;
                        self.hole = None;
                    }
                    _ => {
                        self.hole = Some((self.cursor, now));
                        self.holes_waited += 1;
                        return;
                    }
                }
            }
            self.hole = None;
            self.cursor = record.seq + 1;
            if let Event::AgentReported { agent, status } = record.event {
                self.seen += 1;
                on_report(Reported {
                    agent,
                    completed: status == "completed",
                });
            }
        }
    }
}

/// Inspects every rejection one journal counts over a window.
///
/// `append_at` bumps the counter before it takes the record's sequence
/// number, so a rejection not yet counted when a poll reads the counter
/// gets a sequence number at or after the `next_seq` read just before.
/// Each quiet poll therefore moves `from` to that number; a poll that
/// sees the counter ahead of what was found reads `since(from)` until
/// every counted rejection is found. Rejections that stay unfound for
/// [`HOLE_PATIENCE`] were evicted and are counted as `missed`.
#[derive(Debug)]
pub struct RejectionWatch {
    /// Every rejection counted after `base` has `seq >= from`.
    from: u64,
    /// Rejections accounted for (inspected or missed).
    base: u64,
    /// Rejections found at or after `from`, by sequence number.
    found: BTreeMap<u64, (RejectKind, String)>,
    /// When the counter was first seen ahead of what was found.
    behind_since: Option<Instant>,
    /// Inspected rejections of kind `DuplicateHop`.
    pub duplicate_hops: u64,
    /// Inspected rejections of any other kind, one line each.
    pub others: Vec<String>,
    /// Counted rejections evicted before they could be inspected.
    pub missed: u64,
}

impl RejectionWatch {
    /// A watch over `src` from now on.
    pub fn new(src: &impl RecordSource) -> Self {
        let from = src.next_seq();
        RejectionWatch {
            from,
            base: src.rejections(),
            found: BTreeMap::new(),
            behind_since: None,
            duplicate_hops: 0,
            others: Vec::new(),
            missed: 0,
        }
    }

    /// Rejections counted but not yet inspected.
    pub fn pending(&self, src: &impl RecordSource) -> u64 {
        src.rejections()
            .saturating_sub(self.base + self.found.len() as u64)
    }

    /// Two atomic loads; reads records only when a rejection is pending.
    pub fn poll(&mut self, src: &impl RecordSource, now: Instant) {
        let next = src.next_seq();
        let counted = src.rejections();
        if counted > self.base + self.found.len() as u64 {
            for r in src.since(self.from) {
                if let Event::Rejected { kind, detail } = r.event {
                    self.found.entry(r.seq).or_insert((kind, detail));
                }
            }
        }
        let accounted = self.base + self.found.len() as u64;
        if counted > accounted {
            let first = *self.behind_since.get_or_insert(now);
            if now.duration_since(first) < HOLE_PATIENCE {
                return;
            }
            self.missed += counted - accounted;
        } else if counted < accounted {
            // A rejection found before the counter read caught up with it.
            return;
        }
        for (_, (kind, detail)) in std::mem::take(&mut self.found) {
            if kind == RejectKind::DuplicateHop {
                self.duplicate_hops += 1;
            } else {
                self.others.push(format!("{kind}: {detail}"));
            }
        }
        self.base = counted;
        self.from = next;
        self.behind_since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajanta_core::telemetry::Severity;
    use std::cell::RefCell;

    /// A journal double whose records become visible in a forced order.
    #[derive(Default)]
    struct Script {
        visible: RefCell<Vec<Record>>,
        reported: RefCell<u64>,
        rejected: RefCell<u64>,
        next: RefCell<u64>,
    }

    impl Script {
        fn land(&self, seq: u64, report: Option<&str>) {
            let event = match report {
                Some(tag) => Event::AgentReported {
                    agent: Urn::agent("users.org", [tag]).unwrap(),
                    status: "completed",
                },
                None => Event::AgentLog {
                    agent: Urn::agent("users.org", ["x"]).unwrap(),
                    text: String::new(),
                },
            };
            self.visible.borrow_mut().push(Record {
                seq,
                at: 0,
                severity: Severity::Info,
                event,
            });
        }
        fn count_report(&self) {
            *self.reported.borrow_mut() += 1;
        }
    }

    impl Script {
        fn land_rejection(&self, seq: u64, kind: RejectKind) {
            self.visible.borrow_mut().push(Record {
                seq,
                at: 0,
                severity: Severity::Security,
                event: Event::Rejected {
                    kind,
                    detail: format!("seq {seq}"),
                },
            });
        }
        fn count_rejection(&self) {
            *self.rejected.borrow_mut() += 1;
        }
        fn take_seq(&self) -> u64 {
            let mut n = self.next.borrow_mut();
            *n += 1;
            *n - 1
        }
    }

    impl RecordSource for Script {
        fn since(&self, cursor: u64) -> Vec<Record> {
            let mut v: Vec<Record> = self
                .visible
                .borrow()
                .iter()
                .filter(|r| r.seq >= cursor)
                .cloned()
                .collect();
            v.sort_by_key(|r| r.seq);
            v
        }
        fn reported(&self) -> u64 {
            *self.reported.borrow()
        }
        fn rejections(&self) -> u64 {
            *self.rejected.borrow()
        }
        fn next_seq(&self) -> u64 {
            *self.next.borrow()
        }
    }

    fn names(v: &[Reported]) -> Vec<String> {
        v.iter().map(|r| r.agent.leaf().to_string()).collect()
    }

    #[test]
    fn cursor_waits_at_a_hole_until_the_record_lands() {
        let src = Script::default();
        let mut f = Follower::new(0, 0);
        let mut got = Vec::new();
        let t0 = Instant::now();

        // Reports 0 and 1 both took their seqs; only 1 reached its shard.
        src.count_report();
        src.count_report();
        src.land(1, Some("b"));
        assert!(f.behind(&src));
        f.poll(&src, t0, |r| got.push(r));
        assert!(got.is_empty(), "must not step over seq 0");
        assert_eq!(f.holes_waited, 1);

        // Seq 0 lands; both are consumed in order, nothing skipped.
        src.land(0, Some("a"));
        f.poll(&src, t0 + Duration::from_millis(1), |r| got.push(r));
        assert_eq!(names(&got), ["a", "b"]);
        assert_eq!(f.records_skipped, 0);
        assert!(!f.behind(&src));

        // Interleave a non-report record with a second hole.
        src.count_report();
        src.land(3, Some("d"));
        f.poll(&src, t0 + Duration::from_millis(2), |r| got.push(r));
        assert_eq!(got.len(), 2);
        src.land(2, None);
        f.poll(&src, t0 + Duration::from_millis(3), |r| got.push(r));
        assert_eq!(names(&got), ["a", "b", "d"]);
        assert_eq!(f.holes_waited, 2);
        assert_eq!(f.seen(), src.reported());
    }

    #[test]
    fn a_hole_that_never_fills_is_skipped_after_patience() {
        let src = Script::default();
        let mut f = Follower::new(5, 0);
        let mut got = Vec::new();
        let t0 = Instant::now();
        src.count_report();
        src.count_report();
        // Seq 5 was evicted before the follower saw it; 6 survives.
        src.land(6, Some("f"));
        f.poll(&src, t0, |r| got.push(r));
        f.poll(&src, t0 + HOLE_PATIENCE / 2, |r| got.push(r));
        assert!(got.is_empty());
        f.poll(&src, t0 + HOLE_PATIENCE, |r| got.push(r));
        assert_eq!(names(&got), ["f"]);
        assert_eq!(f.records_skipped, 1);
        // The lost report stays visible as a shortfall against the counter.
        assert!(f.behind(&src));
        assert_eq!(src.reported() - f.seen(), 1);
    }

    #[test]
    fn rejection_watch_inspects_every_counted_rejection() {
        let src = Script::default();
        let t0 = Instant::now();
        let mut w = RejectionWatch::new(&src);

        // A rejection counted before its record lands: the watch waits.
        let a = src.take_seq();
        src.count_rejection();
        w.poll(&src, t0);
        assert_eq!(w.pending(&src), 1);
        src.land_rejection(a, RejectKind::DuplicateHop);
        w.poll(&src, t0);
        assert_eq!((w.duplicate_hops, w.pending(&src)), (1, 0));

        // Ordinary records pass by unread; a later non-duplicate
        // rejection is still found once it is counted.
        for _ in 0..5 {
            let s = src.take_seq();
            src.land(s, None);
            w.poll(&src, t0);
        }
        let b = src.take_seq();
        src.count_rejection();
        src.land_rejection(b, RejectKind::BadCredentials);
        w.poll(&src, t0);
        assert_eq!(w.others.len(), 1, "{:?}", w.others);
        assert!(w.others[0].starts_with("bad-credentials"));
        assert_eq!(w.missed, 0);

        // A counted rejection whose record never appears is missed
        // after the patience, not silently passed.
        src.take_seq();
        src.count_rejection();
        w.poll(&src, t0);
        assert_eq!(w.missed, 0);
        w.poll(&src, t0 + HOLE_PATIENCE);
        assert_eq!((w.missed, w.pending(&src)), (1, 0));
        assert_eq!(w.duplicate_hops, 1);
    }
}
