//! The telemetry journal — one typed, bounded, sharded event pipeline for
//! everything the paper makes the server *accountable* for.
//!
//! The paper's mechanism is trustworthy because every mediated action
//! leaves a trace: the reference monitor keeps an audit log (Section 3.2),
//! and proxies meter usage so access can be charged for (Section 5.5,
//! "Accounting and Revocation"). Before this module, that accountability
//! was scattered over three ad-hoc sinks — the monitor's private
//! `RwLock<Vec<AuditEntry>>`, the server's unbounded `Mutex<Vec<_>>` event
//! and log vectors with stringly-typed kinds, and per-proxy meter
//! snapshots. This module replaces all of them with:
//!
//! * a single [`Event`] enum — monitor audit decisions, proxy
//!   grant/deny/revoke/expiry, meter charges, agent lifecycle
//!   (admit/dispatch/report), per-agent log lines, and net-layer
//!   rejections ([`RejectKind`]) — stamped with a global sequence number,
//!   a virtual-time timestamp, and a [`Severity`];
//! * a [`Journal`] of per-shard ring buffers with an overflow drop
//!   counter, so memory stays bounded no matter how long a server runs or
//!   how hard an adversary hammers it;
//! * a [`CounterSet`] of atomic counters with a Prometheus-style text
//!   [`CounterSet::snapshot`], so aggregates (denials, charges, admissions)
//!   are readable without walking the journal at all.
//!
//! Appending is cheap by design: one `fetch_add` for the sequence number,
//! one relaxed counter bump, and one short critical section on a single
//! shard's ring — writers on different shards never contend. Readers
//! ([`Journal::snapshot`], the filtered views in `HostMonitor` and the
//! runtime server) pay the collation cost instead, which is the right
//! trade for a hot-path-write / cold-path-read log.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ajanta_naming::Urn;
use ajanta_wire::{Decoder, Encoder, Wire, WireError};
use parking_lot::Mutex;

use crate::domain::DomainId;
use crate::monitor::SystemOp;

/// How loudly an event should be treated by dashboards and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine bookkeeping (grants, charges, log lines, lifecycle).
    Info,
    /// Expected-but-notable (expiry, revocation taking effect).
    Warn,
    /// A refused or rejected action — the security-relevant record.
    Security,
}

impl Severity {
    /// Stable lower-case label, for rendering and wire transport.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Security => "security",
        }
    }

    /// Dense discriminant (0, 1, 2) for wire transport.
    pub fn index(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Severity::index`].
    pub fn from_index(i: u8) -> Option<Severity> {
        match i {
            0 => Some(Severity::Info),
            1 => Some(Severity::Warn),
            2 => Some(Severity::Security),
            _ => None,
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Typed category for a rejected input — the former `&'static str` kinds
/// of the server's `SecurityEvent`, promoted to an enum so experiments and
/// tests match on variants instead of strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectKind {
    /// A datagram failed authentication, decoding, or integrity checks.
    BadDatagram,
    /// A datagram was stale or its nonce was already consumed.
    Replay,
    /// An agent's credentials failed verification (tampered, expired,
    /// uncertified).
    BadCredentials,
    /// The executing identity is outside the credentialed name subtree.
    BadIdentity,
    /// The agent image failed validation or byte-code verification.
    BadImage,
    /// Agent code tried to shadow a pre-loaded system module.
    ImpostorModule,
    /// An agent with this name is already resident.
    DuplicateAgent,
    /// Mail arrived for an agent that is not resident here.
    MailDenied,
    /// A report or reply could not be delivered to its home site.
    ReportUndeliverable,
    /// A transfer or report frame for an already-processed `(agent, seq)`
    /// key arrived again — acknowledged, but not applied twice.
    DuplicateHop,
}

impl RejectKind {
    /// Stable short label (the pre-refactor string kind), for rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectKind::BadDatagram => "bad-datagram",
            RejectKind::Replay => "replay",
            RejectKind::BadCredentials => "bad-credentials",
            RejectKind::BadIdentity => "bad-identity",
            RejectKind::BadImage => "bad-image",
            RejectKind::ImpostorModule => "impostor-module",
            RejectKind::DuplicateAgent => "duplicate-agent",
            RejectKind::MailDenied => "mail-denied",
            RejectKind::ReportUndeliverable => "report-undeliverable",
            RejectKind::DuplicateHop => "duplicate-hop",
        }
    }
}

impl std::fmt::Display for RejectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identifies one agent tour end to end. Minted once at launch and
/// propagated in every wire frame the tour produces, so the spans of a
/// whole itinerary — retries, skipped hops, recoveries, reports — merge
/// into a single causal tree no matter how many servers they crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifies one span within a trace. Globally unique: the minting
/// journal's tag occupies the high bits (see [`Journal::with_span_tag`]),
/// so independently minted ids from different servers never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// What phase of a tour a span covers — the span taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// The admission pipeline at a receiving server (credential
    /// verification through domain creation). Child of the transfer that
    /// delivered the agent.
    Admission,
    /// One 6-step bind protocol run (`env.get_resource`). Child of the
    /// admission of the stay that asked.
    Bind,
    /// One proxy invocation (`env.invoke`). Child of the admission.
    Access,
    /// A launch or child dispatch leaving the home server. Root of the
    /// trace (launch) or child of the dispatching stay's admission.
    Dispatch,
    /// One reliable transfer leg, from first send to delivery ack (or to
    /// its dead stop). Child of the dispatch or admission that sent it.
    Transfer,
    /// One retry of a reliable frame; `dur_ns` is the backoff actually
    /// waited. Child of the transfer (or report) frame being retried.
    Retry,
    /// A status report's journey home. Child of the admission (normal
    /// completion) or transfer (dead-stop recovery) that caused it.
    Report,
}

impl SpanKind {
    /// All kinds, in taxonomy order.
    pub const ALL: [SpanKind; 7] = [
        SpanKind::Admission,
        SpanKind::Bind,
        SpanKind::Access,
        SpanKind::Dispatch,
        SpanKind::Transfer,
        SpanKind::Retry,
        SpanKind::Report,
    ];

    /// Stable kebab-case label (used by the JSONL trace export).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Admission => "admission",
            SpanKind::Bind => "bind",
            SpanKind::Access => "access",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Transfer => "transfer",
            SpanKind::Retry => "retry",
            SpanKind::Report => "report",
        }
    }

    /// Inverse of [`SpanKind::as_str`].
    pub fn parse(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The causal coordinates of one span: which trace it belongs to, its own
/// id, and the span that caused it (`None` for a trace root). This is the
/// context that travels **in the wire frames**, so a receiving server can
/// parent its admission span to the sender's transfer span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// The tour this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// The causing span (`None` = trace root).
    pub parent: Option<SpanId>,
}

impl SpanContext {
    /// A root context (no parent).
    pub fn root(trace: TraceId, span: SpanId) -> Self {
        SpanContext {
            trace,
            span,
            parent: None,
        }
    }

    /// A child context in the same trace.
    pub fn child(&self, span: SpanId) -> Self {
        SpanContext {
            trace: self.trace,
            span,
            parent: Some(self.span),
        }
    }
}

impl Wire for TraceId {
    fn encode(&self, e: &mut Encoder) {
        e.put_varint(self.0);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(TraceId(d.get_varint()?))
    }
}

impl Wire for SpanId {
    fn encode(&self, e: &mut Encoder) {
        e.put_varint(self.0);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SpanId(d.get_varint()?))
    }
}

impl Wire for SpanContext {
    fn encode(&self, e: &mut Encoder) {
        self.trace.encode(e);
        self.span.encode(e);
        self.parent.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SpanContext {
            trace: TraceId::decode(d)?,
            span: SpanId::decode(d)?,
            parent: Option::<SpanId>::decode(d)?,
        })
    }
}

/// One telemetry event. Every accountable action in the system is a
/// variant here; free-text detail survives only as a field, never as the
/// discriminant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A reference-monitor decision (Section 3.2's audit log).
    Audit {
        /// Who asked.
        caller: DomainId,
        /// What was asked.
        op: SystemOp,
        /// Whether it was allowed.
        allowed: bool,
    },
    /// A proxy was issued to an agent (Fig. 6 step 5).
    ProxyGrant {
        /// The resource bound.
        resource: Urn,
        /// The protection domain receiving the capability.
        holder: DomainId,
    },
    /// A bind request was refused (policy, quota, or missing resource).
    ProxyDeny {
        /// The resource requested.
        resource: Urn,
        /// The protection domain that asked.
        holder: DomainId,
        /// Why (display of the bind error).
        detail: String,
    },
    /// A resource manager invalidated a proxy (Section 5.5 revocation).
    ProxyRevoke {
        /// The revoked proxy's resource.
        resource: Urn,
        /// The domain that held it.
        holder: DomainId,
    },
    /// An invocation was refused because the proxy had expired.
    ProxyExpiry {
        /// The expired proxy's resource.
        resource: Urn,
        /// The domain that held it.
        holder: DomainId,
        /// The expiry instant that was exceeded.
        not_after: u64,
    },
    /// A metered invocation was charged (Section 5.5 accounting).
    MeterCharge {
        /// The resource invoked.
        resource: Urn,
        /// The paying domain.
        holder: DomainId,
        /// Method name: the resource's interned label, shared rather
        /// than copied into every charge.
        method: Arc<str>,
        /// Tariff units charged for this call.
        amount: u64,
    },
    /// An agent passed admission and got a protection domain.
    AgentAdmitted {
        /// The admitted agent.
        agent: Urn,
        /// Its new protection domain.
        domain: DomainId,
        /// The itinerary hop this admission is for — with at-least-once
        /// transfer delivery, (agent, hop) is the idempotency key, so a
        /// journal never shows the same pair admitted twice.
        hop: u64,
    },
    /// An agent (or launch request) was sent toward another server.
    AgentDispatched {
        /// The traveling agent.
        agent: Urn,
        /// Where it was sent.
        dest: Urn,
    },
    /// A status report was recorded at this (home) server.
    AgentReported {
        /// The reporting agent.
        agent: Urn,
        /// Outcome label: `completed`, `failed`, `refused`, `quota`.
        status: &'static str,
    },
    /// A line the agent wrote through `env.log`.
    AgentLog {
        /// The writing agent.
        agent: Urn,
        /// The line.
        text: String,
    },
    /// A security-relevant rejection (bad datagram, credentials, image…).
    Rejected {
        /// Typed category.
        kind: RejectKind,
        /// Human-readable detail.
        detail: String,
    },
    /// A transfer (or launch) was re-sent after its delivery ack timed
    /// out — the fault-tolerant migration layer at work.
    TransferRetried {
        /// The traveling agent.
        agent: Urn,
        /// The destination being retried.
        dest: Urn,
        /// The hop being retried (the idempotency key's sequence half).
        hop: u64,
        /// Which attempt this is (2 = first retry).
        attempt: u32,
    },
    /// Retries toward a stop exhausted and the itinerary supplied a
    /// fallback, so the agent was re-routed around the dead stop.
    HopSkipped {
        /// The traveling agent.
        agent: Urn,
        /// The unreachable stop that was given up on.
        skipped: Urn,
        /// The fallback stop the agent was re-routed to.
        next: Urn,
        /// The hop at which the skip happened.
        hop: u64,
    },
    /// A dead-stopped agent's fate was resolved — no orphans: it was
    /// either re-routed or reported home as `Failed(hop)`.
    AgentRecovered {
        /// The agent whose fate was resolved.
        agent: Urn,
        /// The hop at which recovery happened.
        hop: u64,
        /// How it was resolved: `skipped` or `sent-home`.
        disposition: &'static str,
    },
    /// An idle agent was serialized into the bundle store and its
    /// scheduler task released; it holds only its encoded bytes until
    /// a message or tour resume wakes it.
    AgentHibernated {
        /// The agent that was spilled.
        agent: Urn,
        /// The hop it was admitted at (half of the wake identity).
        hop: u64,
        /// Serialized bundle size, bytes.
        bytes: u64,
    },
    /// A hibernated agent was rehydrated from its bundle and handed
    /// back to the scheduler.
    AgentWoken {
        /// The agent that was woken.
        agent: Urn,
        /// The hop it resumes at.
        hop: u64,
    },
    /// A restarted server re-admitted an in-flight agent recorded in
    /// its admission write-ahead log (idempotent on `(agent, hop)`).
    WalReplayed {
        /// The agent that was re-admitted.
        agent: Urn,
        /// The hop the logged admission was for.
        hop: u64,
    },
    /// One completed span of a distributed trace. Each server journals the
    /// spans it observed locally; merging the journals of every server a
    /// tour touched reconstructs the full causal tree (see `core::trace`).
    Span {
        /// Causal coordinates: trace, own id, parent.
        ctx: SpanContext,
        /// Which phase of the tour this span covers.
        kind: SpanKind,
        /// The agent the span is about.
        agent: Urn,
        /// Kind-specific detail (resource + method + outcome for an
        /// access, destination for a transfer, attempt for a retry…).
        /// Shared, so repeated accesses journal one detail allocation.
        detail: Arc<str>,
        /// Virtual time the spanned work started.
        start_ns: u64,
        /// Duration. Virtual ns for spans that cross the network
        /// (transfer RTT, retry backoff); real ns for local pipeline
        /// spans (admission, bind, access).
        dur_ns: u64,
    },
}

impl Event {
    /// The severity this event is journaled at.
    pub fn severity(&self) -> Severity {
        match self {
            Event::Rejected { .. } | Event::ProxyDeny { .. } => Severity::Security,
            Event::Audit { allowed, .. } => {
                if *allowed {
                    Severity::Info
                } else {
                    Severity::Security
                }
            }
            Event::ProxyRevoke { .. }
            | Event::ProxyExpiry { .. }
            | Event::TransferRetried { .. }
            | Event::HopSkipped { .. }
            | Event::AgentRecovered { .. }
            | Event::WalReplayed { .. } => Severity::Warn,
            _ => Severity::Info,
        }
    }

    /// Stable kebab-case label for the variant — the discriminant a
    /// control-plane client can match on without shipping the full enum
    /// over the wire.
    pub fn label(&self) -> &'static str {
        match self {
            Event::Audit { .. } => "audit",
            Event::ProxyGrant { .. } => "proxy-grant",
            Event::ProxyDeny { .. } => "proxy-deny",
            Event::ProxyRevoke { .. } => "proxy-revoke",
            Event::ProxyExpiry { .. } => "proxy-expiry",
            Event::MeterCharge { .. } => "meter-charge",
            Event::AgentAdmitted { .. } => "agent-admitted",
            Event::AgentDispatched { .. } => "agent-dispatched",
            Event::AgentReported { .. } => "agent-reported",
            Event::AgentLog { .. } => "agent-log",
            Event::Rejected { .. } => "rejected",
            Event::TransferRetried { .. } => "transfer-retried",
            Event::HopSkipped { .. } => "hop-skipped",
            Event::AgentRecovered { .. } => "agent-recovered",
            Event::AgentHibernated { .. } => "agent-hibernated",
            Event::AgentWoken { .. } => "agent-woken",
            Event::WalReplayed { .. } => "wal-replayed",
            Event::Span { .. } => "span",
        }
    }

    /// The agent this event is about, when it is about one.
    pub fn agent(&self) -> Option<&Urn> {
        match self {
            Event::AgentAdmitted { agent, .. }
            | Event::AgentDispatched { agent, .. }
            | Event::AgentReported { agent, .. }
            | Event::AgentLog { agent, .. }
            | Event::TransferRetried { agent, .. }
            | Event::HopSkipped { agent, .. }
            | Event::AgentRecovered { agent, .. }
            | Event::AgentHibernated { agent, .. }
            | Event::AgentWoken { agent, .. }
            | Event::WalReplayed { agent, .. }
            | Event::Span { agent, .. } => Some(agent),
            _ => None,
        }
    }

    /// One-line human rendering of the variant's fields (the label is
    /// *not* included — pair with [`Event::label`]). Deterministic, so
    /// remote and local renderings of the same record compare equal.
    pub fn render(&self) -> String {
        match self {
            Event::Audit {
                caller,
                op,
                allowed,
            } => {
                format!("caller={caller:?} op={op:?} allowed={allowed}")
            }
            Event::ProxyGrant { resource, holder } => {
                format!("resource={resource} holder={holder:?}")
            }
            Event::ProxyDeny {
                resource,
                holder,
                detail,
            } => format!("resource={resource} holder={holder:?} detail={detail}"),
            Event::ProxyRevoke { resource, holder } => {
                format!("resource={resource} holder={holder:?}")
            }
            Event::ProxyExpiry {
                resource,
                holder,
                not_after,
            } => format!("resource={resource} holder={holder:?} not_after={not_after}"),
            Event::MeterCharge {
                resource,
                holder,
                method,
                amount,
            } => format!("resource={resource} holder={holder:?} method={method} amount={amount}"),
            Event::AgentAdmitted { agent, domain, hop } => {
                format!("agent={agent} domain={domain:?} hop={hop}")
            }
            Event::AgentDispatched { agent, dest } => format!("agent={agent} dest={dest}"),
            Event::AgentReported { agent, status } => format!("agent={agent} status={status}"),
            Event::AgentLog { agent, text } => format!("agent={agent} text={text}"),
            Event::Rejected { kind, detail } => format!("kind={kind} detail={detail}"),
            Event::TransferRetried {
                agent,
                dest,
                hop,
                attempt,
            } => format!("agent={agent} dest={dest} hop={hop} attempt={attempt}"),
            Event::HopSkipped {
                agent,
                skipped,
                next,
                hop,
            } => format!("agent={agent} skipped={skipped} next={next} hop={hop}"),
            Event::AgentRecovered {
                agent,
                hop,
                disposition,
            } => format!("agent={agent} hop={hop} disposition={disposition}"),
            Event::AgentHibernated { agent, hop, bytes } => {
                format!("agent={agent} hop={hop} bytes={bytes}")
            }
            Event::AgentWoken { agent, hop } => format!("agent={agent} hop={hop}"),
            Event::WalReplayed { agent, hop } => format!("agent={agent} hop={hop}"),
            Event::Span {
                ctx,
                kind,
                agent,
                detail,
                start_ns,
                dur_ns,
            } => format!(
                "trace={} span={} parent={} kind={kind} agent={agent} detail={detail} \
                 start_ns={start_ns} dur_ns={dur_ns}",
                ctx.trace,
                ctx.span,
                ctx.parent.map_or("-".to_string(), |p| p.to_string()),
            ),
        }
    }
}

/// One journaled record: a globally ordered, timestamped [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Global sequence number (dense, monotone across all shards).
    pub seq: u64,
    /// Virtual time of the event.
    pub at: u64,
    /// Cached severity (computed once at append).
    pub severity: Severity,
    /// The event itself.
    pub event: Event,
}

/// The aggregate counters the journal maintains alongside the rings.
/// `*_total` naming follows Prometheus conventions; see
/// [`CounterSet::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the variant names are the documentation
pub enum Counter {
    EventsAppended,
    EventsDropped,
    AuditAllowed,
    AuditDenied,
    ProxyGrants,
    ProxyDenials,
    ProxyRevocations,
    ProxyExpiries,
    MeterCharges,
    ChargeUnits,
    AgentsAdmitted,
    AgentsDispatched,
    AgentsReported,
    LogLines,
    Rejections,
    TransfersRetried,
    HopsSkipped,
    AgentsRecovered,
    SpansRecorded,
    AgentsYielded,
    SlicesRun,
    Steals,
    FramesCoalesced,
    WriteSyscalls,
    AgentsHibernated,
    AgentsWoken,
    WalAppends,
    WalReplays,
}

impl Counter {
    /// All counters, in snapshot order.
    pub const ALL: [Counter; 28] = [
        Counter::EventsAppended,
        Counter::EventsDropped,
        Counter::AuditAllowed,
        Counter::AuditDenied,
        Counter::ProxyGrants,
        Counter::ProxyDenials,
        Counter::ProxyRevocations,
        Counter::ProxyExpiries,
        Counter::MeterCharges,
        Counter::ChargeUnits,
        Counter::AgentsAdmitted,
        Counter::AgentsDispatched,
        Counter::AgentsReported,
        Counter::LogLines,
        Counter::Rejections,
        Counter::TransfersRetried,
        Counter::HopsSkipped,
        Counter::AgentsRecovered,
        Counter::SpansRecorded,
        Counter::AgentsYielded,
        Counter::SlicesRun,
        Counter::Steals,
        Counter::FramesCoalesced,
        Counter::WriteSyscalls,
        Counter::AgentsHibernated,
        Counter::AgentsWoken,
        Counter::WalAppends,
        Counter::WalReplays,
    ];

    /// The exported metric name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsAppended => "ajanta_journal_events_total",
            Counter::EventsDropped => "ajanta_journal_dropped_total",
            Counter::AuditAllowed => "ajanta_audit_allowed_total",
            Counter::AuditDenied => "ajanta_audit_denied_total",
            Counter::ProxyGrants => "ajanta_proxy_grants_total",
            Counter::ProxyDenials => "ajanta_proxy_denials_total",
            Counter::ProxyRevocations => "ajanta_proxy_revocations_total",
            Counter::ProxyExpiries => "ajanta_proxy_expiries_total",
            Counter::MeterCharges => "ajanta_meter_charges_total",
            Counter::ChargeUnits => "ajanta_meter_charge_units_total",
            Counter::AgentsAdmitted => "ajanta_agents_admitted_total",
            Counter::AgentsDispatched => "ajanta_agents_dispatched_total",
            Counter::AgentsReported => "ajanta_agents_reported_total",
            Counter::LogLines => "ajanta_agent_log_lines_total",
            Counter::Rejections => "ajanta_rejections_total",
            Counter::TransfersRetried => "ajanta_transfers_retried_total",
            Counter::HopsSkipped => "ajanta_hops_skipped_total",
            Counter::AgentsRecovered => "ajanta_agents_recovered_total",
            Counter::SpansRecorded => "ajanta_spans_total",
            Counter::AgentsYielded => "ajanta_agent_yields_total",
            Counter::SlicesRun => "ajanta_slices_total",
            Counter::Steals => "ajanta_sched_steals_total",
            Counter::FramesCoalesced => "ajanta_frames_coalesced_total",
            Counter::WriteSyscalls => "ajanta_write_syscalls_total",
            Counter::AgentsHibernated => "ajanta_agents_hibernated_total",
            Counter::AgentsWoken => "ajanta_agents_woken_total",
            Counter::WalAppends => "ajanta_wal_appends_total",
            Counter::WalReplays => "ajanta_wal_replays_total",
        }
    }

    /// One-line `# HELP` text for the exported metric.
    pub fn help(self) -> &'static str {
        match self {
            Counter::EventsAppended => "Events appended to the telemetry journal.",
            Counter::EventsDropped => "Journal records evicted by the capacity bound.",
            Counter::AuditAllowed => "Reference-monitor decisions that allowed the operation.",
            Counter::AuditDenied => "Reference-monitor decisions that denied the operation.",
            Counter::ProxyGrants => "Resource proxies issued at bind time.",
            Counter::ProxyDenials => "Bind requests refused by policy, quota, or lookup.",
            Counter::ProxyRevocations => "Proxies invalidated by a resource manager.",
            Counter::ProxyExpiries => "Invocations refused because the proxy had expired.",
            Counter::MeterCharges => "Metered invocations charged.",
            Counter::ChargeUnits => "Total tariff units charged across all meters.",
            Counter::AgentsAdmitted => "Agents that passed admission and got a domain.",
            Counter::AgentsDispatched => "Agents (or launches) sent toward another server.",
            Counter::AgentsReported => "Status reports recorded at this home server.",
            Counter::LogLines => "Lines agents wrote through env.log.",
            Counter::Rejections => "Security-relevant rejections of any kind.",
            Counter::TransfersRetried => "Reliable-transfer frames re-sent after ack timeout.",
            Counter::HopsSkipped => "Dead stops routed around via itinerary fallback.",
            Counter::AgentsRecovered => "Dead-stopped agents resolved (skipped or sent home).",
            Counter::SpansRecorded => "Trace spans journaled locally.",
            Counter::AgentsYielded => "Cooperative yields taken by agent slices.",
            Counter::SlicesRun => "Scheduler slices executed by the worker pool.",
            Counter::Steals => "Run-queue steals between scheduler workers.",
            Counter::FramesCoalesced => "Wire frames carried by coalesced socket writes.",
            Counter::WriteSyscalls => "Socket write syscalls issued by the data plane.",
            Counter::AgentsHibernated => "Idle agents serialized into the bundle store.",
            Counter::AgentsWoken => "Hibernated agents rehydrated back to the scheduler.",
            Counter::WalAppends => "Admission records appended to the write-ahead log.",
            Counter::WalReplays => "In-flight agents re-admitted from a replayed WAL.",
        }
    }
}

/// Exported name of the per-shard journal eviction counter family
/// (labeled `{shard="i"}`); [`Counter::EventsDropped`] is its sum.
pub const SHARD_DROPPED_NAME: &str = "ajanta_journal_shard_dropped_total";

/// `# HELP` text for [`SHARD_DROPPED_NAME`].
pub const SHARD_DROPPED_HELP: &str =
    "Journal ring evictions attributed to the shard that overflowed.";

/// How many independently locked rings the journal spreads appends over.
/// The global sequence number doubles as the shard selector, so successive
/// appends — even from one thread — land on successive shards and writers
/// only contend at 1/SHARDS probability.
const SHARDS: usize = 8;

/// A fixed set of atomic counters, cheap to bump from any thread.
#[derive(Debug, Default)]
pub struct CounterSet {
    counters: [AtomicU64; Counter::ALL.len()],
    /// Per-shard eviction counts; `Counter::EventsDropped` is their sum.
    /// Exposed with a `shard` label so bounded-ring loss is attributable
    /// to the shard that overflowed.
    shard_drops: [AtomicU64; SHARDS],
}

impl CounterSet {
    /// A zeroed set.
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Adds `n` to one counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Counts one eviction in shard `shard` (and in the aggregate).
    #[inline]
    pub fn add_shard_drop(&self, shard: usize) {
        self.shard_drops[shard].fetch_add(1, Ordering::Relaxed);
        self.add(Counter::EventsDropped, 1);
    }

    /// Evictions charged to one shard.
    pub fn shard_drops(&self, shard: usize) -> u64 {
        self.shard_drops[shard].load(Ordering::Relaxed)
    }

    /// A point-in-time typed copy of every counter — the single source
    /// both the Prometheus text renderer and the control-plane wire
    /// encoding serialize from.
    pub fn typed_snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            values: Counter::ALL.iter().map(|c| self.get(*c)).collect(),
            shard_drops: self
                .shard_drops
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Prometheus-style text exposition (see
    /// [`CountersSnapshot::render`]).
    pub fn snapshot(&self) -> String {
        self.typed_snapshot().render()
    }
}

/// A plain-value copy of a [`CounterSet`]: one value per [`Counter::ALL`]
/// entry plus the per-shard journal eviction counts. Wire-encodable, so a
/// control-plane server ships it instead of pre-rendered text, and
/// mergeable, so a CLI can aggregate a whole fleet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Counter values, in [`Counter::ALL`] order.
    pub values: Vec<u64>,
    /// Per-shard eviction counts ([`Counter::EventsDropped`] is the sum).
    pub shard_drops: Vec<u64>,
}

impl CountersSnapshot {
    /// An all-zero snapshot (for folding merges).
    pub fn empty() -> Self {
        CountersSnapshot {
            values: vec![0; Counter::ALL.len()],
            shard_drops: vec![0; SHARDS],
        }
    }

    /// The captured value of one counter (0 if the snapshot predates it).
    pub fn get(&self, c: Counter) -> u64 {
        self.values.get(c as usize).copied().unwrap_or(0)
    }

    /// Accumulates another snapshot into this one, element-wise — how
    /// per-server counters aggregate into a fleet-wide view.
    pub fn merge(&mut self, other: &CountersSnapshot) {
        if self.values.len() < other.values.len() {
            self.values.resize(other.values.len(), 0);
        }
        for (v, o) in self.values.iter_mut().zip(other.values.iter()) {
            *v += o;
        }
        if self.shard_drops.len() < other.shard_drops.len() {
            self.shard_drops.resize(other.shard_drops.len(), 0);
        }
        for (v, o) in self.shard_drops.iter_mut().zip(other.shard_drops.iter()) {
            *v += o;
        }
    }

    /// Prometheus text exposition: for every counter a `# HELP` line, a
    /// `# TYPE … counter` line, and the `name value` sample, in
    /// [`Counter::ALL`] order; then the per-shard eviction family
    /// [`SHARD_DROPPED_NAME`] with one `{shard="i"}` sample per shard.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
                self.get(c),
                name = c.name(),
                help = c.help(),
            ));
        }
        out.push_str(&format!(
            "# HELP {SHARD_DROPPED_NAME} {SHARD_DROPPED_HELP}\n\
             # TYPE {SHARD_DROPPED_NAME} counter\n"
        ));
        for (i, d) in self.shard_drops.iter().enumerate() {
            out.push_str(&format!("{SHARD_DROPPED_NAME}{{shard=\"{i}\"}} {d}\n"));
        }
        out
    }
}

impl Wire for CountersSnapshot {
    fn encode(&self, e: &mut Encoder) {
        e.put_varint(self.values.len() as u64);
        for v in &self.values {
            e.put_varint(*v);
        }
        e.put_varint(self.shard_drops.len() as u64);
        for v in &self.shard_drops {
            e.put_varint(*v);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = d.get_varint()? as usize;
        if n > 4096 {
            return Err(WireError::TooLong(n as u64));
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(d.get_varint()?);
        }
        let m = d.get_varint()? as usize;
        if m > 4096 {
            return Err(WireError::TooLong(m as u64));
        }
        let mut shard_drops = Vec::with_capacity(m);
        for _ in 0..m {
            shard_drops.push(d.get_varint()?);
        }
        Ok(CountersSnapshot {
            values,
            shard_drops,
        })
    }
}

/// One shard: a bounded ring. Its eviction count lives in the journal's
/// [`CounterSet`], labeled by shard index.
#[derive(Debug)]
struct Shard {
    ring: Mutex<VecDeque<Record>>,
}

/// Bucket count of a [`Histo`]: one bucket per power of two, covering the
/// full `u64` range.
pub const HISTO_BUCKETS: usize = 64;

/// A lock-free log₂-bucketed histogram of `u64` samples (nanoseconds, in
/// this crate's use). Bucket `b` holds samples whose value fits in `b`
/// bits: bucket 0 is exactly `{0}`, bucket `b ≥ 1` covers
/// `[2^(b-1), 2^b - 1]`. Recording is three relaxed atomic adds plus one
/// `fetch_max` — safe from any thread, never blocking, and `sum`/`count`
/// are exact (only the quantiles are bucket-resolution approximations).
#[derive(Debug)]
pub struct Histo {
    buckets: [AtomicU64; HISTO_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histo {
    fn default() -> Self {
        Histo {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: 0 for 0, otherwise its bit length.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HISTO_BUCKETS - 1)
}

/// The inclusive upper bound of bucket `b` (`u64::MAX` for the last).
#[inline]
fn bucket_bound(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histo {
    /// An empty histogram.
    pub fn new() -> Self {
        Histo::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy, suitable for merging across servers.
    pub fn snapshot(&self) -> HistoSnapshot {
        let mut buckets = [0u64; HISTO_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(self.buckets.iter()) {
            *b = a.load(Ordering::Relaxed);
        }
        HistoSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of a [`Histo`], mergeable across servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Per-bucket sample counts (see [`Histo`] for the bucket layout).
    pub buckets: [u64; HISTO_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for HistoSnapshot {
    fn default() -> Self {
        HistoSnapshot {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistoSnapshot {
    /// An empty snapshot (for folding merges).
    pub fn empty() -> Self {
        HistoSnapshot::default()
    }

    /// Accumulates another snapshot into this one — how per-server
    /// histograms aggregate into a world-wide distribution.
    pub fn merge(&mut self, other: &HistoSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (0 < q ≤ 1), resolved to its bucket's inclusive
    /// upper bound and clamped to the observed max — so `quantile(1.0)`
    /// is exactly `max`, and larger `q` never yields a smaller answer.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_bound(b).min(self.max);
            }
        }
        self.max
    }
}

impl Wire for HistoSnapshot {
    fn encode(&self, e: &mut Encoder) {
        // Sparse bucket encoding: only non-zero buckets travel, as
        // (index, count) pairs — most histograms occupy a handful of
        // the 64 log₂ buckets.
        let nonzero = self.buckets.iter().filter(|b| **b != 0).count();
        e.put_varint(nonzero as u64);
        for (i, b) in self.buckets.iter().enumerate() {
            if *b != 0 {
                e.put_varint(i as u64);
                e.put_varint(*b);
            }
        }
        e.put_varint(self.count);
        e.put_varint(self.sum);
        e.put_varint(self.max);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = d.get_varint()? as usize;
        if n > HISTO_BUCKETS {
            return Err(WireError::TooLong(n as u64));
        }
        let mut buckets = [0u64; HISTO_BUCKETS];
        for _ in 0..n {
            let i = d.get_varint()? as usize;
            if i >= HISTO_BUCKETS {
                return Err(WireError::Invalid("histogram bucket index out of range"));
            }
            buckets[i] = d.get_varint()?;
        }
        Ok(HistoSnapshot {
            buckets,
            count: d.get_varint()?,
            sum: d.get_varint()?,
            max: d.get_varint()?,
        })
    }
}

/// The instrumented hot paths, each with its own [`Histo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoPath {
    /// `ProxyControl::check_id` — the per-invocation access check.
    ProxyCheck,
    /// The 6-step bind protocol (`Shared::bind_resource`), real ns.
    Bind,
    /// Reliable transfer round-trip: first send to delivery ack, virtual
    /// ns (includes retry backoffs).
    TransferRtt,
    /// Backoff actually waited before one retry, virtual ns.
    RetryBackoff,
    /// End-to-end hop latency: original virtual send time to admission at
    /// the destination, virtual ns.
    HopLatency,
    /// One scheduler slice of agent execution, real ns.
    SliceDuration,
    /// Time a ready task waited in a run-queue before a worker picked it
    /// up, real ns.
    ReadyDwell,
    /// Frames carried by one coalesced socket write — a count, not a
    /// duration (the one non-nanosecond path).
    FramesPerWrite,
    /// Serializing an idle agent into its bundle and spilling it to
    /// the store, real ns.
    HibernateLatency,
    /// Rehydrating a hibernated agent's bundle back into a runnable
    /// task, real ns.
    WakeLatency,
}

impl HistoPath {
    /// All paths, in snapshot order.
    pub const ALL: [HistoPath; 10] = [
        HistoPath::ProxyCheck,
        HistoPath::Bind,
        HistoPath::TransferRtt,
        HistoPath::RetryBackoff,
        HistoPath::HopLatency,
        HistoPath::SliceDuration,
        HistoPath::ReadyDwell,
        HistoPath::FramesPerWrite,
        HistoPath::HibernateLatency,
        HistoPath::WakeLatency,
    ];

    /// The exported metric name (a nanosecond distribution, except
    /// `FramesPerWrite`, which distributes a per-write frame count).
    pub fn name(self) -> &'static str {
        match self {
            HistoPath::ProxyCheck => "ajanta_proxy_check_ns",
            HistoPath::Bind => "ajanta_bind_ns",
            HistoPath::TransferRtt => "ajanta_transfer_rtt_ns",
            HistoPath::RetryBackoff => "ajanta_retry_backoff_ns",
            HistoPath::HopLatency => "ajanta_hop_latency_ns",
            HistoPath::SliceDuration => "ajanta_slice_ns",
            HistoPath::ReadyDwell => "ajanta_ready_dwell_ns",
            HistoPath::FramesPerWrite => "ajanta_frames_per_write",
            HistoPath::HibernateLatency => "ajanta_hibernate_ns",
            HistoPath::WakeLatency => "ajanta_wake_ns",
        }
    }

    /// One-line `# HELP` text for the exported distribution.
    pub fn help(self) -> &'static str {
        match self {
            HistoPath::ProxyCheck => "Per-invocation proxy access check, real ns.",
            HistoPath::Bind => "The 6-step resource bind protocol, real ns.",
            HistoPath::TransferRtt => {
                "Reliable transfer round-trip (first send to delivery ack), virtual ns."
            }
            HistoPath::RetryBackoff => "Backoff actually waited before one retry, virtual ns.",
            HistoPath::HopLatency => {
                "End-to-end hop latency (send to admission at destination), virtual ns."
            }
            HistoPath::SliceDuration => "One scheduler slice of agent execution, real ns.",
            HistoPath::ReadyDwell => "Time a ready task waited in a run-queue, real ns.",
            HistoPath::FramesPerWrite => "Frames carried by one coalesced socket write (count).",
            HistoPath::HibernateLatency => "Serializing an idle agent into its bundle, real ns.",
            HistoPath::WakeLatency => "Rehydrating a hibernated agent's bundle, real ns.",
        }
    }
}

/// Renders one histogram in Prometheus summary style: `# HELP` /
/// `# TYPE … summary`, the three quantile gauges, `_sum` and `_count`,
/// then the observed max as its own single-sample gauge family.
pub fn render_histo(path: HistoPath, s: &HistoSnapshot, out: &mut String) {
    let name = path.name();
    out.push_str(&format!(
        "# HELP {name} {}\n# TYPE {name} summary\n",
        path.help()
    ));
    for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
        out.push_str(&format!(
            "{name}{{quantile=\"{label}\"}} {}\n",
            s.quantile(q)
        ));
    }
    out.push_str(&format!("{name}_sum {}\n", s.sum));
    out.push_str(&format!("{name}_count {}\n", s.count));
    out.push_str(&format!(
        "# HELP {name}_max Largest sample observed on this path.\n\
         # TYPE {name}_max gauge\n{name}_max {}\n",
        s.max
    ));
}

/// One [`Histo`] per [`HistoPath`]; every [`Journal`] owns a set.
#[derive(Debug, Default)]
pub struct HistoSet {
    histos: [Histo; HistoPath::ALL.len()],
}

impl HistoSet {
    /// An empty set.
    pub fn new() -> Self {
        HistoSet::default()
    }

    /// Records one sample on one path.
    #[inline]
    pub fn record(&self, path: HistoPath, v: u64) {
        self.histos[path as usize].record(v);
    }

    /// The histogram for one path.
    pub fn get(&self, path: HistoPath) -> &Histo {
        &self.histos[path as usize]
    }

    /// A point-in-time typed copy of every path's histogram, in
    /// [`HistoPath::ALL`] order.
    pub fn typed_snapshot(&self) -> Vec<HistoSnapshot> {
        HistoPath::ALL
            .iter()
            .map(|p| self.get(*p).snapshot())
            .collect()
    }

    /// Prometheus-style text exposition of every path (see
    /// [`render_histo`]).
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        for (path, s) in HistoPath::ALL.iter().zip(self.typed_snapshot().iter()) {
            render_histo(*path, s, &mut out);
        }
        out
    }
}

/// Everything a journal exports, as one typed, Wire-encodable value:
/// counters (with per-shard drop attribution) plus every hot-path
/// histogram. The Prometheus text renderer and the control-plane protocol
/// both serialize from this — one source of truth for every metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// The aggregate counters.
    pub counters: CountersSnapshot,
    /// Histograms, in [`HistoPath::ALL`] order.
    pub histos: Vec<HistoSnapshot>,
}

impl TelemetrySnapshot {
    /// An all-zero snapshot (for folding merges).
    pub fn empty() -> Self {
        TelemetrySnapshot {
            counters: CountersSnapshot::empty(),
            histos: vec![HistoSnapshot::empty(); HistoPath::ALL.len()],
        }
    }

    /// The captured histogram of one path (empty if absent).
    pub fn histo(&self, path: HistoPath) -> HistoSnapshot {
        self.histos.get(path as usize).cloned().unwrap_or_default()
    }

    /// Accumulates another snapshot into this one — counters add, each
    /// path's histogram merges bucket-wise.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.counters.merge(&other.counters);
        if self.histos.len() < other.histos.len() {
            self.histos
                .resize(other.histos.len(), HistoSnapshot::empty());
        }
        for (h, o) in self.histos.iter_mut().zip(other.histos.iter()) {
            h.merge(o);
        }
    }

    /// Full Prometheus text exposition: counters then histograms, with
    /// `# HELP` / `# TYPE` metadata on every family.
    pub fn render(&self) -> String {
        let mut out = self.counters.render();
        for (path, s) in HistoPath::ALL.iter().zip(self.histos.iter()) {
            render_histo(*path, s, &mut out);
        }
        out
    }
}

impl Wire for TelemetrySnapshot {
    fn encode(&self, e: &mut Encoder) {
        self.counters.encode(e);
        e.put_varint(self.histos.len() as u64);
        for h in &self.histos {
            h.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let counters = CountersSnapshot::decode(d)?;
        let n = d.get_varint()? as usize;
        if n > 256 {
            return Err(WireError::TooLong(n as u64));
        }
        let mut histos = Vec::with_capacity(n);
        for _ in 0..n {
            histos.push(HistoSnapshot::decode(d)?);
        }
        Ok(TelemetrySnapshot { counters, histos })
    }
}

/// Default total capacity (records retained across all shards).
pub const DEFAULT_CAPACITY: usize = 8192;

/// The bounded, sharded, append-only event journal.
///
/// Construction is cheap; servers hold it in an `Arc` shared between the
/// monitor, the registry path, proxies, and the delivery loop. When the
/// journal is full the **oldest** record in the selected shard is dropped
/// and counted — recent history is always retained, and
/// [`Journal::dropped`] says exactly how much was lost.
pub struct Journal {
    seq: AtomicU64,
    shards: Box<[Shard]>,
    per_shard: usize,
    counters: CounterSet,
    histos: HistoSet,
    /// Next local span serial; combined with `span_tag` by
    /// [`Journal::mint_span`].
    next_span: AtomicU64,
    /// High bits mixed into every minted [`SpanId`]/[`TraceId`] so ids
    /// from different servers never collide (see
    /// [`Journal::with_span_tag`]).
    span_tag: u64,
    /// Virtual-time source; the default returns 0 (standalone use, e.g.
    /// a monitor outside any server, where no clock exists).
    clock: Option<Arc<dyn Fn() -> u64 + Send + Sync>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("seq", &self.seq)
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// A journal with the default capacity.
    pub fn new() -> Self {
        Journal::with_capacity(DEFAULT_CAPACITY)
    }

    /// A journal retaining at most `capacity` records (rounded up to a
    /// multiple of the shard count; minimum one record per shard).
    pub fn with_capacity(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        Journal {
            seq: AtomicU64::new(0),
            shards: (0..SHARDS)
                .map(|_| Shard {
                    ring: Mutex::new(VecDeque::new()),
                })
                .collect(),
            per_shard,
            counters: CounterSet::new(),
            histos: HistoSet::new(),
            next_span: AtomicU64::new(1),
            span_tag: 0,
            clock: None,
        }
    }

    /// Attaches a virtual-time source; subsequent [`Journal::append`]s are
    /// stamped with it. (Builder-style: call before sharing the journal.)
    pub fn with_clock(mut self, clock: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        self.clock = Some(Arc::new(clock));
        self
    }

    /// Sets the id-uniqueness tag mixed into every minted span and trace
    /// id: `tag` occupies the high 32 bits, the local serial the low 32.
    /// Servers derive the tag from a hash of their name, so ids minted
    /// independently across a world never collide. (Builder-style: call
    /// before sharing the journal.)
    pub fn with_span_tag(mut self, tag: u32) -> Self {
        self.span_tag = (tag as u64) << 32;
        self
    }

    /// Mints a fresh, globally unique [`SpanId`].
    pub fn mint_span(&self) -> SpanId {
        SpanId(self.span_tag | (self.next_span.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF))
    }

    /// Mints a fresh [`TraceId`] (same uniqueness scheme as spans).
    pub fn mint_trace(&self) -> TraceId {
        TraceId(self.span_tag | (self.next_span.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF))
    }

    /// Current virtual time according to the attached clock (0 if none).
    pub fn now(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c())
    }

    /// Maximum records retained.
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    /// Appends one event stamped with the journal clock's current time.
    /// Returns the record's global sequence number.
    pub fn append(&self, event: Event) -> u64 {
        self.append_at(self.now(), event)
    }

    /// Appends one event with an explicit timestamp.
    pub fn append_at(&self, at: u64, event: Event) -> u64 {
        self.bump(&event);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let record = Record {
            seq,
            at,
            severity: event.severity(),
            event,
        };
        let shard_idx = (seq % self.shards.len() as u64) as usize;
        let mut ring = self.shards[shard_idx].ring.lock();
        if ring.len() >= self.per_shard {
            ring.pop_front();
            self.counters.add_shard_drop(shard_idx);
        }
        ring.push_back(record);
        seq
    }

    /// Updates the aggregate counters for one event.
    fn bump(&self, event: &Event) {
        self.counters.add(Counter::EventsAppended, 1);
        let c = match event {
            Event::Audit { allowed: true, .. } => Counter::AuditAllowed,
            Event::Audit { allowed: false, .. } => Counter::AuditDenied,
            Event::ProxyGrant { .. } => Counter::ProxyGrants,
            Event::ProxyDeny { .. } => Counter::ProxyDenials,
            Event::ProxyRevoke { .. } => Counter::ProxyRevocations,
            Event::ProxyExpiry { .. } => Counter::ProxyExpiries,
            Event::MeterCharge { amount, .. } => {
                self.counters.add(Counter::ChargeUnits, *amount);
                Counter::MeterCharges
            }
            Event::AgentAdmitted { .. } => Counter::AgentsAdmitted,
            Event::AgentDispatched { .. } => Counter::AgentsDispatched,
            Event::AgentReported { .. } => Counter::AgentsReported,
            Event::AgentLog { .. } => Counter::LogLines,
            Event::Rejected { .. } => Counter::Rejections,
            Event::TransferRetried { .. } => Counter::TransfersRetried,
            Event::HopSkipped { .. } => Counter::HopsSkipped,
            Event::AgentRecovered { .. } => Counter::AgentsRecovered,
            Event::AgentHibernated { .. } => Counter::AgentsHibernated,
            Event::AgentWoken { .. } => Counter::AgentsWoken,
            Event::WalReplayed { .. } => Counter::WalReplays,
            Event::Span { .. } => Counter::SpansRecorded,
        };
        self.counters.add(c, 1);
    }

    /// Records currently retained (≤ [`Journal::capacity`]).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.ring.lock().len()).sum()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.ring.lock().is_empty())
    }

    /// Total records evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.counters.get(Counter::EventsDropped)
    }

    /// Every retained record, globally ordered by sequence number.
    pub fn snapshot(&self) -> Vec<Record> {
        let mut all: Vec<Record> = self
            .shards
            .iter()
            .flat_map(|s| s.ring.lock().iter().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_unstable_by_key(|r| r.seq);
        all
    }

    /// The `n` most recent retained records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Record> {
        let mut all = self.snapshot();
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Every retained record with `seq >= cursor`, globally ordered — the
    /// journal-follow primitive. Sequence numbers are dense, so a reader
    /// holding `cursor` detects loss exactly: if the first returned
    /// record's seq exceeds the cursor, the gap was evicted (and is
    /// accounted in [`Journal::dropped`]).
    pub fn since(&self, cursor: u64) -> Vec<Record> {
        let mut all: Vec<Record> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.ring
                    .lock()
                    .iter()
                    .filter(|r| r.seq >= cursor)
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable_by_key(|r| r.seq);
        all
    }

    /// The sequence number the *next* append will get — i.e. one past the
    /// newest existing record. A fresh follow cursor starts here.
    pub fn next_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The aggregate counters.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Shorthand for `counters().get(c)`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c)
    }

    /// The hot-path latency histograms.
    pub fn histos(&self) -> &HistoSet {
        &self.histos
    }

    /// A typed copy of every counter and histogram this journal exports —
    /// what the control plane ships over the wire, and what
    /// [`Journal::metrics_snapshot`] renders.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters.typed_snapshot(),
            histos: self.histos.typed_snapshot(),
        }
    }

    /// Full Prometheus-style exposition: counters (with per-shard drop
    /// attribution) followed by every hot-path latency distribution, each
    /// family carrying `# HELP` / `# TYPE` metadata.
    pub fn metrics_snapshot(&self) -> String {
        self.telemetry_snapshot().render()
    }
}

/// A lazily attachable handle to a journal plus the context a proxy needs
/// to emit events about itself ([`crate::proxy::ProxyControl`] holds one).
///
/// The fast path pays one relaxed `AtomicBool` load while detached; the
/// lock is touched only after attachment, which happens at most once, at
/// bind time, before the proxy is handed to the agent.
#[derive(Debug, Default)]
pub struct JournalHook {
    attached: AtomicBool,
    slot: Mutex<Option<(Arc<Journal>, Urn)>>,
}

impl JournalHook {
    /// A detached hook.
    pub fn new() -> Self {
        JournalHook::default()
    }

    /// Attaches `journal`, tagging future events with `resource`.
    pub fn attach(&self, journal: Arc<Journal>, resource: Urn) {
        *self.slot.lock() = Some((journal, resource));
        self.attached.store(true, Ordering::Release);
    }

    /// Whether a journal has been attached — one relaxed-cost load, so
    /// hot paths can skip instrumentation work entirely while detached.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.attached.load(Ordering::Acquire)
    }

    /// Runs `f` with the journal and resource name, if attached.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&Arc<Journal>, &Urn) -> R) -> Option<R> {
        if !self.attached.load(Ordering::Acquire) {
            return None;
        }
        let slot = self.slot.lock();
        slot.as_ref().map(|(j, r)| f(j, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn urn(leaf: &str) -> Urn {
        Urn::resource("x.org", [leaf]).unwrap()
    }

    fn reject(detail: &str) -> Event {
        Event::Rejected {
            kind: RejectKind::BadDatagram,
            detail: detail.into(),
        }
    }

    #[test]
    fn sequence_numbers_are_dense_and_records_ordered() {
        let j = Journal::with_capacity(64);
        for i in 0..10 {
            let seq = j.append_at(i, reject("x"));
            assert_eq!(seq, i);
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, r) in snap.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.at, i as u64);
        }
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn capacity_bounds_memory_and_counts_drops() {
        let j = Journal::with_capacity(16);
        assert_eq!(j.capacity(), 16);
        for i in 0..100u64 {
            j.append_at(i, reject("x"));
        }
        assert_eq!(j.len(), 16);
        assert_eq!(j.dropped(), 84);
        assert_eq!(j.counter(Counter::EventsDropped), 84);
        // Single-threaded, round-robin sharding: exactly the newest 16
        // records survive.
        let seqs: Vec<u64> = j.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (84..100).collect::<Vec<_>>());
    }

    #[test]
    fn counters_track_event_variants() {
        let j = Journal::new();
        j.append(Event::Audit {
            caller: DomainId(1),
            op: SystemOp::MutateRegistry,
            allowed: true,
        });
        j.append(Event::Audit {
            caller: DomainId(1),
            op: SystemOp::MutateDomainDatabase,
            allowed: false,
        });
        j.append(Event::MeterCharge {
            resource: urn("r"),
            holder: DomainId(1),
            method: "get".into(),
            amount: 7,
        });
        j.append(Event::ProxyGrant {
            resource: urn("r"),
            holder: DomainId(1),
        });
        assert_eq!(j.counter(Counter::AuditAllowed), 1);
        assert_eq!(j.counter(Counter::AuditDenied), 1);
        assert_eq!(j.counter(Counter::MeterCharges), 1);
        assert_eq!(j.counter(Counter::ChargeUnits), 7);
        assert_eq!(j.counter(Counter::ProxyGrants), 1);
        assert_eq!(j.counter(Counter::EventsAppended), 4);
    }

    #[test]
    fn severity_classification() {
        assert_eq!(reject("x").severity(), Severity::Security);
        assert_eq!(
            Event::Audit {
                caller: DomainId(1),
                op: SystemOp::MutateRegistry,
                allowed: false
            }
            .severity(),
            Severity::Security
        );
        assert_eq!(
            Event::AgentLog {
                agent: Urn::agent("x.org", ["a"]).unwrap(),
                text: "hi".into()
            }
            .severity(),
            Severity::Info
        );
        assert_eq!(
            Event::ProxyExpiry {
                resource: urn("r"),
                holder: DomainId(1),
                not_after: 5
            }
            .severity(),
            Severity::Warn
        );
    }

    #[test]
    fn prometheus_snapshot_has_help_type_and_value_per_counter_plus_shard_drops() {
        let j = Journal::new();
        j.append(reject("x"));
        let text = j.counters().snapshot();
        // Per counter: # HELP, # TYPE, value. Then the shard-drop family:
        // one # HELP, one # TYPE, one labeled sample per shard.
        assert_eq!(text.lines().count(), Counter::ALL.len() * 3 + 2 + SHARDS);
        assert!(text.contains("ajanta_rejections_total 1\n"));
        assert!(text.contains("ajanta_journal_events_total 1\n"));
        assert!(text.contains("# TYPE ajanta_rejections_total counter\n"));
        assert!(text.contains("# HELP ajanta_journal_events_total "));
        assert!(text.contains("# TYPE ajanta_journal_shard_dropped_total counter\n"));
        assert!(text.contains("ajanta_journal_shard_dropped_total{shard=\"0\"} 0\n"));
        assert!(text.contains("ajanta_journal_shard_dropped_total{shard=\"7\"} 0\n"));
        // Every exported name is unique.
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn shard_drop_lines_attribute_ring_loss() {
        // Capacity 8 = one slot per shard; single-threaded round-robin
        // appends overflow every shard equally.
        let j = Journal::with_capacity(8);
        for i in 0..24u64 {
            j.append_at(i, reject("x"));
        }
        assert_eq!(j.dropped(), 16);
        for shard in 0..SHARDS {
            assert_eq!(j.counters().shard_drops(shard), 2, "shard {shard}");
        }
        let text = j.counters().snapshot();
        assert!(text.contains("ajanta_journal_shard_dropped_total{shard=\"3\"} 2\n"));
        // The typed snapshot is the same source of truth.
        let typed = j.counters().typed_snapshot();
        assert_eq!(typed.shard_drops, vec![2u64; SHARDS]);
        assert_eq!(typed.get(Counter::EventsDropped), 16);
    }

    #[test]
    fn counters_snapshot_roundtrips_on_the_wire_and_merges() {
        let j = Journal::new();
        j.append(reject("x"));
        j.append(reject("y"));
        let snap = j.counters().typed_snapshot();
        let decoded = CountersSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.get(Counter::Rejections), 2);

        let mut merged = CountersSnapshot::empty();
        merged.merge(&snap);
        merged.merge(&snap);
        assert_eq!(merged.get(Counter::Rejections), 4);
        assert_eq!(merged.get(Counter::EventsAppended), 4);
    }

    #[test]
    fn histo_snapshot_roundtrips_on_the_wire() {
        let h = Histo::new();
        for v in [0u64, 1, 3, 255, 70_000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let decoded = HistoSnapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(decoded.quantile(1.0), s.quantile(1.0));
        // An empty histogram (all buckets zero) also round-trips.
        let empty = HistoSnapshot::empty();
        assert_eq!(HistoSnapshot::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn telemetry_snapshot_is_the_single_source_of_render() {
        let j = Journal::new();
        j.append(reject("x"));
        j.histos().record(HistoPath::Bind, 1000);
        let snap = j.telemetry_snapshot();
        // The text exposition is exactly the typed snapshot's rendering.
        assert_eq!(j.metrics_snapshot(), snap.render());
        // And it survives the wire intact — remote render == local render.
        let decoded = TelemetrySnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded.render(), snap.render());
        assert_eq!(decoded.histo(HistoPath::Bind).count, 1);
        // Fleet aggregation: merging two servers' snapshots adds.
        let mut fleet = TelemetrySnapshot::empty();
        fleet.merge(&snap);
        fleet.merge(&snap);
        assert_eq!(fleet.counters.get(Counter::Rejections), 2);
        assert_eq!(fleet.histo(HistoPath::Bind).count, 2);
    }

    #[test]
    fn journal_since_pages_by_cursor() {
        let j = Journal::with_capacity(64);
        for i in 0..10 {
            j.append_at(i, reject("x"));
        }
        assert_eq!(j.next_seq(), 10);
        let page = j.since(6);
        assert_eq!(page.iter().map(|r| r.seq).collect::<Vec<_>>(), [6, 7, 8, 9]);
        assert!(j.since(10).is_empty());
        assert_eq!(j.since(0).len(), 10);
    }

    #[test]
    fn journal_since_exposes_eviction_gaps() {
        // Capacity 16, 100 appends: only 84..100 survive; a reader who
        // paused at cursor 50 sees the gap start at 84 and the drop
        // counter accounts for what it missed.
        let j = Journal::with_capacity(16);
        for i in 0..100u64 {
            j.append_at(i, reject("x"));
        }
        let page = j.since(50);
        assert_eq!(page.first().unwrap().seq, 84);
        assert_eq!(j.dropped(), 84);
    }

    #[test]
    fn event_labels_and_renderings_are_deterministic() {
        let e = Event::AgentAdmitted {
            agent: Urn::agent("x.org", ["a"]).unwrap(),
            domain: DomainId(3),
            hop: 2,
        };
        assert_eq!(e.label(), "agent-admitted");
        assert_eq!(e.agent().unwrap().to_string(), "ajn://x.org/agent/a");
        assert_eq!(e.render(), e.clone().render());
        let r = reject("boom");
        assert_eq!(r.label(), "rejected");
        assert!(r.agent().is_none());
        assert!(r.render().contains("detail=boom"));
        assert_eq!(Severity::Security.as_str(), "security");
        assert_eq!(
            Severity::from_index(Severity::Warn.index()),
            Some(Severity::Warn)
        );
        assert_eq!(Severity::from_index(9), None);
    }

    #[test]
    fn histogram_concurrent_record_is_exact() {
        // 8 threads × 1000 samples: `sum` and `count` must be exact —
        // lock-free recording loses nothing.
        let j = Arc::new(Journal::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        j.histos().record(HistoPath::ProxyCheck, t * 1000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = j.histos().get(HistoPath::ProxyCheck).snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.sum, (0..8000u64).sum::<u64>());
        assert_eq!(s.max, 7999);
        assert_eq!(s.buckets.iter().sum::<u64>(), 8000);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 is exactly {0}; bucket b ≥ 1 covers [2^(b-1), 2^b - 1].
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(8), 255);
        assert_eq!(bucket_bound(64), u64::MAX);

        let h = Histo::new();
        for v in [0u64, 1, 2, 3, 4, 255, 256, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 1); // 4
        assert_eq!(s.buckets[8], 1); // 255
        assert_eq!(s.buckets[9], 1); // 256
        assert_eq!(s.buckets[63], 1); // u64::MAX
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_capped_at_max() {
        let h = Histo::new();
        for v in [3u64, 5, 9, 17, 100, 1000, 5000, 5001, 5002, 70_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let qs: Vec<u64> = (1..=100).map(|i| s.quantile(i as f64 / 100.0)).collect();
        assert!(
            qs.windows(2).all(|w| w[0] <= w[1]),
            "non-monotone quantiles: {qs:?}"
        );
        assert_eq!(s.quantile(1.0), 70_000, "q=1 is exactly the max");
        assert!(s.quantile(0.5) >= 100, "median lands in the 100 bucket+");
        // Merging two snapshots preserves exactness of count/sum/max.
        let mut merged = HistoSnapshot::empty();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.count, 2 * s.count);
        assert_eq!(merged.sum, 2 * s.sum);
        assert_eq!(merged.max, s.max);
        assert_eq!(merged.quantile(1.0), 70_000);
    }

    #[test]
    fn histo_set_snapshot_exports_quantiles_per_path() {
        let j = Journal::new();
        j.histos().record(HistoPath::Bind, 1000);
        j.histos().record(HistoPath::Bind, 3000);
        let text = j.metrics_snapshot();
        assert!(text.contains("ajanta_bind_ns{quantile=\"0.5\"} "));
        assert!(text.contains("ajanta_bind_ns{quantile=\"0.99\"} "));
        assert!(text.contains("ajanta_bind_ns_count 2\n"));
        assert!(text.contains("ajanta_bind_ns_sum 4000\n"));
        assert!(text.contains("ajanta_bind_ns_max 3000\n"));
        // All five paths appear even when unexercised.
        for path in HistoPath::ALL {
            assert!(text.contains(path.name()), "{} missing", path.name());
        }
    }

    #[test]
    fn span_ids_are_unique_across_differently_tagged_journals() {
        let a = Journal::new().with_span_tag(0xA11C);
        let b = Journal::new().with_span_tag(0xB0B0);
        let mut ids: Vec<u64> = Vec::new();
        for _ in 0..100 {
            ids.push(a.mint_span().0);
            ids.push(b.mint_span().0);
        }
        ids.push(a.mint_trace().0);
        ids.push(b.mint_trace().0);
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn span_context_roundtrips_on_the_wire() {
        let root = SpanContext::root(TraceId(0x70DA), SpanId(7));
        let child = root.child(SpanId(9));
        for ctx in [root, child] {
            let bytes = ctx.to_bytes();
            assert_eq!(SpanContext::from_bytes(&bytes).unwrap(), ctx);
        }
        assert_eq!(child.parent, Some(SpanId(7)));
        assert_eq!(child.trace, root.trace);
    }

    #[test]
    fn span_events_bump_the_span_counter() {
        let j = Journal::new().with_span_tag(1);
        let trace = j.mint_trace();
        let span = j.mint_span();
        j.append(Event::Span {
            ctx: SpanContext::root(trace, span),
            kind: SpanKind::Dispatch,
            agent: Urn::agent("x.org", ["a"]).unwrap(),
            detail: "launch".into(),
            start_ns: 0,
            dur_ns: 0,
        });
        assert_eq!(j.counter(Counter::SpansRecorded), 1);
        assert_eq!(
            j.snapshot()[0].severity,
            Severity::Info,
            "spans are info-level"
        );
    }

    #[test]
    fn clock_stamps_appends() {
        let t = Arc::new(AtomicU64::new(42));
        let t2 = Arc::clone(&t);
        let j = Journal::new().with_clock(move || t2.load(Ordering::Relaxed));
        j.append(reject("a"));
        t.store(99, Ordering::Relaxed);
        j.append(reject("b"));
        let snap = j.snapshot();
        assert_eq!(snap[0].at, 42);
        assert_eq!(snap[1].at, 99);
    }

    #[test]
    fn recent_returns_tail() {
        let j = Journal::new();
        for i in 0..10 {
            j.append_at(i, reject("x"));
        }
        let tail = j.recent(3);
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), [7, 8, 9]);
    }

    #[test]
    fn hook_detached_is_a_noop() {
        let hook = JournalHook::new();
        assert_eq!(hook.with(|_, _| 1), None);
        let j = Arc::new(Journal::new());
        hook.attach(Arc::clone(&j), urn("r"));
        assert_eq!(hook.with(|_, r| r.leaf().to_string()), Some("r".into()));
    }
}
