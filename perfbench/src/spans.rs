//! Bench-side spans: kept in memory during a traced run and written out
//! as JSONL when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed: `setup`, `agent`, or a replayed layer call.
    pub name: &'static str,
    /// The request the span belongs to: an agent URN for `agent` spans,
    /// the replayed input (hop, payload size) for layer calls.
    pub key: String,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Collects spans when enabled; records nothing (and allocates nothing)
/// when disabled, so the untraced run pays only a branch.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Recorder {
    /// A recorder; `enabled = false` drops every span.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Recorder {
            origin,
            spans: enabled.then(Vec::new),
        }
    }

    /// Records a span from `start` to `end`; `key` is only built when
    /// tracing is on.
    pub fn record(
        &mut self,
        name: &'static str,
        key: impl FnOnce() -> String,
        start: Instant,
        end: Instant,
    ) {
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                key: key(),
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            });
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"key\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.name,
                s.key.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.dur_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let t = Instant::now();
        let mut r = Recorder::new(t, false);
        r.record("agent", || unreachable!("key built while off"), t, t);
        assert!(r.spans().is_empty());
        assert_eq!(r.to_jsonl(), "");
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let t = Instant::now();
        let mut r = Recorder::new(t, true);
        r.record("setup", || "world".into(), t, t + Duration::from_micros(3));
        r.record("agent", || "ajn://a\"b".into(), t, t);
        let out = r.to_jsonl();
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("\"dur_ns\":3000"));
        assert!(out.contains("ajn://a\\\"b"));
    }
}
