//! The agent server (paper Fig. 1), as a thread with a control handle.
//!
//! One [`AgentServer`] owns: a network endpoint, the reference monitor,
//! the resource registry, the domain database, a security policy, the
//! system module set, and its cryptographic identity. Visiting agents
//! execute as resumable fuel-sliced tasks on the cooperative scheduler
//! ([`crate::sched`]), each confined to its own protection domain and
//! talking to the server only through [`crate::env::AgentEnv`].
//!
//! Admission pipeline for an arriving transfer (Section 5.2's problem
//! list, in order): datagram authentication → credential verification →
//! byte-code verification in a fresh name-space → policy authorization →
//! domain creation → execution under quotas.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex, RwLock};

use ajanta_core::{
    AccessProtocol, BindError, Counter, Credentials, DomainDatabase, DomainId, Event, Guarded,
    HistoPath, HostMonitor, Journal, ProxyPolicy, RejectKind, Requester, ResourceProxy,
    ResourceRegistry, Rights, SecurityPolicy, SpanContext, SpanId, SpanKind, SystemOp, TraceId,
    UsageLimits,
};
use ajanta_crypto::{DetRng, KeyPair, RootOfTrust};
use ajanta_naming::Urn;
use ajanta_net::secure::ChannelIdentity;
use ajanta_net::{Delivery, NetEndpoint, ReplayGuard, SealedDatagram, SimNet, Transport};
use ajanta_vm::{
    AgentImage, ExecOutcome, Interpreter, Limits, Module, Namespace, SliceOutcome, Value,
    VerifiedModule,
};
use ajanta_wire::Wire;

use crate::directory::Directory;
use crate::env::AgentEnv;
use crate::itinerary::Itinerary;
use crate::messages::{Ack, AgentStatus, Message, Report, ReportStatus};
use crate::sched::{SchedDepths, Scheduler, Task};
use crate::vmres::VmResource;

/// Retry/backoff policy for the fault-tolerant migration layer.
///
/// Reliable frames (agent transfers and home-bound reports) are tracked
/// until the receiver's delivery ack arrives; a frame still unacked after
/// [`RetryPolicy::ack_grace`] of *real* time is re-sent, with each retry
/// modeled at a capped-exponential-backoff instant of **virtual** time
/// (optionally jittered from the server's deterministic RNG). After
/// [`RetryPolicy::max_attempts`] total attempts the frame dead-stops:
/// transfers consult their itinerary fallbacks (skip the unreachable
/// stop) or report `Failed(hop)` home — no orphans either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts per destination (1 = fire-and-forget).
    pub max_attempts: u32,
    /// Backoff before the first retry (virtual ns); doubles per attempt.
    pub base_delay_ns: u64,
    /// Backoff ceiling (virtual ns).
    pub max_delay_ns: u64,
    /// Jitter each delay uniformly over `[delay/2, delay]`.
    pub jitter: bool,
    /// Real-time grace before an unacked *first* attempt counts as
    /// lost; each later attempt doubles it, so a healthy-but-busy
    /// receiver whose acks lag (a burst of admissions queued on its
    /// loop) wins the race long before attempts exhaust. Healthy acks
    /// beat the grace comfortably, so fault-free runs never force the
    /// virtual clock forward and timing experiments are undisturbed.
    pub ack_grace: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay_ns: 50 * ajanta_net::time::MILLIS,
            max_delay_ns: 800 * ajanta_net::time::MILLIS,
            jitter: true,
            ack_grace: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// The pre-fault-tolerance behavior: one attempt, no tracking, no
    /// acks — a dropped transfer strands the agent.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Whether the reliable-delivery layer is active.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Backoff after `attempt` total attempts: capped exponential, with
    /// optional deterministic jitter.
    fn delay_ns(&self, attempt: u32, rng: &mut DetRng) -> u64 {
        let exp = attempt.saturating_sub(1).min(16);
        let full = self
            .base_delay_ns
            .saturating_mul(1u64 << exp)
            .min(self.max_delay_ns)
            .max(1);
        if self.jitter {
            full / 2 + rng.below(full - full / 2 + 1)
        } else {
            full
        }
    }

    /// Real-time ack grace for a frame on its `attempt`-th attempt:
    /// doubles per attempt so transient receiver backlog is outwaited,
    /// saturating at [`MAX_ACK_GRACE`]. The multiplication saturates too:
    /// a large configured `ack_grace` times `2^10` must clamp, not panic
    /// (`Duration * u32` overflow aborts in both debug and release).
    fn grace(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(10);
        self.ack_grace
            .checked_mul(factor)
            .unwrap_or(MAX_ACK_GRACE)
            .min(MAX_ACK_GRACE)
    }
}

/// Ceiling on the per-attempt ack grace: no backoff doubling waits more
/// than a minute of real time before a frame is declared lost.
const MAX_ACK_GRACE: Duration = Duration::from_secs(60);

/// Why [`ServerHandle::query_status`] failed — a dead/unreachable server
/// is now distinguishable from a server that replied "not resident".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query could not even be sent (no directory entry, detached
    /// endpoint, or the local server is shut down).
    Unreachable(String),
    /// No reply arrived within the timeout — the server may be down.
    Timeout,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Unreachable(e) => write!(f, "status query unreachable: {e}"),
            QueryError::Timeout => write!(f, "status query timed out"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A recorded security-relevant rejection (experiment X11's raw data) —
/// a projection of the journal's [`Event::Rejected`] records, kept as a
/// convenience view; the journal itself is reachable via
/// [`ServerHandle::journal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityEvent {
    /// Virtual time of the event.
    pub at: u64,
    /// Typed category (formerly a `&'static str`; `kind.as_str()` yields
    /// the old kebab-case label).
    pub kind: RejectKind,
    /// Human-readable detail.
    pub detail: String,
}

/// Aggregate counters exposed by [`ServerHandle::stats`].
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Agents admitted and executed.
    pub agents_hosted: AtomicU64,
    /// Transfers sent onward (migrations out + launches).
    pub transfers_out: AtomicU64,
    /// Reports received (as a home site).
    pub reports_in: AtomicU64,
    /// Mail messages delivered to local agents.
    pub mail_delivered: AtomicU64,
}

/// Snapshot of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Agents admitted and executed.
    pub agents_hosted: u64,
    /// Transfers sent onward.
    pub transfers_out: u64,
    /// Reports received.
    pub reports_in: u64,
    /// Mail messages delivered.
    pub mail_delivered: u64,
}

/// Configuration for one server.
pub struct ServerConfig {
    /// The server's global name.
    pub name: Urn,
    /// Its signing identity (certificate chain should be published in the
    /// directory by the caller).
    pub identity: ChannelIdentity,
    /// Full key pair (the identity holds the same keys; kept explicitly
    /// for datagram decryption).
    pub keys: KeyPair,
    /// Trusted certificate roots.
    pub roots: RootOfTrust,
    /// The shared server directory.
    pub directory: Directory,
    /// Authorization policy.
    pub policy: SecurityPolicy,
    /// Modules every agent name-space is pre-populated with.
    pub system_modules: Vec<Arc<VerifiedModule>>,
    /// Per-agent quotas recorded in the domain database.
    pub agent_limits: UsageLimits,
    /// Interpreter limits per agent execution.
    pub vm_limits: Limits,
    /// Whether visiting agents may dispatch further agents.
    pub agents_may_dispatch: bool,
    /// Replay-guard freshness window (virtual ns).
    pub replay_window_ns: u64,
    /// Retry/backoff policy for transfers and reports.
    pub retry: RetryPolicy,
    /// Seed for this server's nonce/ephemeral randomness.
    pub seed: u64,
    /// Total records the telemetry journal retains (audit decisions,
    /// rejections, agent log lines, lifecycle and charge events share
    /// this bound; aggregate counters stay exact past it).
    pub journal_capacity: usize,
    /// The cooperative scheduler agents execute on. `None` makes the
    /// server start (and own) a private pool sized to the machine's
    /// parallelism; a [`crate::World`] passes one shared pool to every
    /// server so the whole world runs on `workers` threads.
    pub scheduler: Option<Arc<Scheduler>>,
    /// Path of the admission write-ahead log, or `None` for a purely
    /// in-memory server. With a WAL, every admission is logged before its
    /// ack leaves and a restarted server replays unresolved admissions —
    /// see [`crate::wal`].
    pub wal: Option<std::path::PathBuf>,
    /// Hibernation trigger: an agent that yields with this many
    /// consecutive empty `env.recv` polls (and no bindings or pending
    /// migration) is serialized to the bundle store and its scheduler
    /// task freed, until mail or an explicit wake revives it. `None`
    /// disables hibernation.
    pub hibernate_after_misses: Option<u32>,
}

/// Queued (sender, payload) mail for one agent.
type Mailbox = VecDeque<(Urn, Vec<u8>)>;

/// The idempotency key of a reliable frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum FrameKey {
    /// Admission idempotency (ISSUE tentpole 2): `(agent URN, hop)`,
    /// deliberately sender-agnostic — the same hop arriving twice from
    /// *anywhere* (retry, replay, dual-path failover) is admitted once.
    Transfer {
        /// The executing identity.
        agent: Urn,
        /// The hop sequence number carried in the transfer.
        hop: u64,
    },
    /// Report dedup: scoped to the reporting server, whose private
    /// sequence counter numbers its own reports.
    Report {
        /// The reporting server.
        from: Urn,
        /// The reported-on agent.
        agent: Urn,
        /// The reporter's delivery sequence.
        seq: u64,
    },
}

/// Bounded memory of already-processed reliable frames. FIFO-evicted at
/// `SEEN_CAP`, so an adversary hammering retries cannot grow it without
/// bound; the window is far larger than any plausible retry horizon.
#[derive(Default)]
struct SeenFrames {
    set: HashSet<FrameKey>,
    order: VecDeque<FrameKey>,
}

const SEEN_CAP: usize = 8192;

impl SeenFrames {
    /// Returns true when `key` is fresh (first sighting).
    fn insert(&mut self, key: FrameKey) -> bool {
        if !self.set.insert(key.clone()) {
            return false;
        }
        self.order.push_back(key);
        if self.order.len() > SEEN_CAP {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }
}

/// A transfer's recovery plan, consulted when retries toward its current
/// destination exhaust.
struct Recovery {
    /// Credentials for the `Failed(hop)` home report of last resort.
    credentials: Credentials,
    /// Remaining itinerary stops to fall back to, in order.
    fallbacks: Vec<Urn>,
}

/// One reliable frame awaiting its delivery ack.
struct PendingSend {
    dest: Urn,
    /// Shared with the send in flight: the entry is inserted before the
    /// frame leaves, so an ack can never arrive ahead of it.
    msg: Arc<Message>,
    /// Send attempts so far (≥ 1).
    attempt: u32,
    /// Virtual instant the next retry is modeled at.
    due_ns: u64,
    /// Real instant of the last attempt; the retry ticker only acts once
    /// [`RetryPolicy::ack_grace`] of real time has passed without an ack.
    sent_real: Instant,
    /// `Some` for transfers (dead-stop recovery), `None` for reports.
    recovery: Option<Recovery>,
    /// The frame's span (transfer leg or report journey); retries journal
    /// as its children, and a transfer's span is emitted when its first
    /// ack resolves it.
    ctx: SpanContext,
    /// Virtual time of the very first send — the transfer-RTT and
    /// hop-latency baseline. Never updated by retries or fallbacks.
    first_sent_ns: u64,
    /// Virtual time of the most recent attempt, so each retry span can
    /// report the backoff actually waited.
    last_sent_ns: u64,
    /// The WAL admission this frame settles: when the ack for this frame
    /// arrives, custody of `(agent, hop)` has passed to the receiver (or
    /// home) and a `Resolve` record is appended. Custody must ride the
    /// pending-send entry — resolving at *send* time would drop the
    /// admission from the log while the frame could still be lost.
    custody: Option<(Urn, u64)>,
}

/// Lock shards for the mailbox map. Mail delivery and pickup for
/// different agents contend only within a shard, so many agent worker
/// threads exchange mail without serializing on one map-wide lock.
const MAILBOX_SHARDS: usize = 16;

fn mailbox_shard_of(agent: &Urn) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    agent.hash(&mut h);
    (h.finish() as usize) % MAILBOX_SHARDS
}

/// State shared between the server loop, agent worker threads, and the
/// control handle.
pub struct Shared {
    name: Urn,
    identity: ChannelIdentity,
    keys: KeyPair,
    roots: RootOfTrust,
    directory: Directory,
    net: Arc<dyn Transport>,
    monitor: HostMonitor,
    registry: ResourceRegistry,
    /// Internally sharded; every method takes `&self`, so agent worker
    /// threads admit/charge/evict concurrently (the old outer `Mutex`
    /// serialized all of them and capped multi-agent throughput).
    domains: DomainDatabase,
    policy: RwLock<SecurityPolicy>,
    system_modules: Vec<Arc<VerifiedModule>>,
    agent_limits: UsageLimits,
    vm_limits: Limits,
    /// The worker pool agents execute on (possibly shared world-wide).
    sched: Arc<Scheduler>,
    mailboxes: [Mutex<HashMap<Urn, Mailbox>>; MAILBOX_SHARDS],
    /// The one telemetry sink: audit decisions (via the monitor),
    /// rejections, agent log lines, lifecycle and proxy/meter events.
    /// Bounded; replaces the old unbounded `logs`/`events` vectors.
    pub(crate) journal: Arc<Journal>,
    reports: Mutex<Vec<Report>>,
    /// Signalled on every report arrival; `wait_reports` blocks here
    /// instead of busy-polling.
    reports_cv: Condvar,
    rng: Mutex<DetRng>,
    guard: Mutex<ReplayGuard>,
    stats: ServerStats,
    pending_queries:
        Mutex<BTreeMap<u64, crossbeam::channel::Sender<Result<AgentStatus, QueryError>>>>,
    next_query_id: AtomicU64,
    /// The fault-tolerant migration layer's state: policy, unacked
    /// frames, the ticker's wakeup, and the receive-side dedup memory.
    retry: RetryPolicy,
    pending_sends: Mutex<HashMap<(u8, Urn, u64), PendingSend>>,
    retry_cv: Condvar,
    retry_shutdown: AtomicBool,
    seen: Mutex<SeenFrames>,
    next_report_seq: AtomicU64,
    /// Hibernated agents, serialized (tentpole: durability). Present on
    /// every server; empty unless `hibernate_after_misses` is set.
    bundles: crate::bundle::BundleStore,
    /// The admission write-ahead log, when configured.
    wal: Option<crate::wal::AdmissionWal>,
    /// See [`ServerConfig::hibernate_after_misses`].
    hibernate_after_misses: Option<u32>,
    /// Every live proxy grant this server issued at bind time, held
    /// weakly so a dropped proxy costs nothing. The control plane's
    /// fleet-wide revocation walks this list; dead entries are pruned
    /// as they are encountered.
    grants: Mutex<Vec<GrantEntry>>,
    /// Agents an administrator asked to hibernate at their next safe
    /// yield point (control plane `hibernate` op). A request bypasses
    /// the idle-miss threshold but never the safety gates (no live
    /// proxies, no pending migration).
    hibernate_requests: Mutex<HashSet<Urn>>,
}

/// One proxy grant tracked for control-plane revocation.
struct GrantEntry {
    resource: Urn,
    control: std::sync::Weak<ajanta_core::ProxyControl>,
}

impl Shared {
    /// The server's name.
    pub fn name(&self) -> &Urn {
        &self.name
    }

    fn mailbox_shard(&self, agent: &Urn) -> &Mutex<HashMap<Urn, Mailbox>> {
        &self.mailboxes[mailbox_shard_of(agent)]
    }

    /// Current virtual time.
    pub fn clock_now(&self) -> u64 {
        self.net.clock().now()
    }

    /// The server's telemetry journal.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// Appends to the per-agent log (journaled, hence bounded: a
    /// long-running agent can no longer grow server memory without limit).
    pub fn log(&self, agent: &Urn, text: String) {
        self.journal.append(Event::AgentLog {
            agent: agent.clone(),
            text,
        });
    }

    /// Journals one security-relevant rejection.
    fn reject(&self, kind: RejectKind, detail: String) {
        self.journal.append(Event::Rejected { kind, detail });
    }

    /// Journals one completed trace span.
    pub(crate) fn emit_span(
        &self,
        ctx: SpanContext,
        kind: SpanKind,
        agent: &Urn,
        detail: impl Into<Arc<str>>,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.journal.append(Event::Span {
            ctx,
            kind,
            agent: agent.clone(),
            detail: detail.into(),
            start_ns,
            dur_ns,
        });
    }

    /// Fig. 6 steps 2–5 on behalf of an agent, with domain-database
    /// bookkeeping. When the caller supplies its trace coordinates
    /// (`tracing` = trace id + the stay's admission span), the whole
    /// protocol run is journaled as a `Bind` span; the latency lands in
    /// the `Bind` histogram either way.
    pub fn bind_resource(
        &self,
        requester: &Requester,
        name: &Urn,
        now: u64,
        tracing: Option<(TraceId, SpanId)>,
    ) -> Result<ResourceProxy, String> {
        let t0 = Instant::now();
        let result = self.bind_resource_inner(requester, name, now);
        let dt = t0.elapsed().as_nanos() as u64;
        self.journal.histos().record(HistoPath::Bind, dt);
        if let Some((trace, parent)) = tracing {
            let ctx = SpanContext {
                trace,
                span: self.journal.mint_span(),
                parent: Some(parent),
            };
            let outcome = match &result {
                Ok(_) => "ok".to_string(),
                Err(e) => format!("denied: {e}"),
            };
            self.emit_span(
                ctx,
                SpanKind::Bind,
                &requester.agent,
                format!("{name} {outcome}"),
                now,
                dt,
            );
        }
        result
    }

    fn bind_resource_inner(
        &self,
        requester: &Requester,
        name: &Urn,
        now: u64,
    ) -> Result<ResourceProxy, String> {
        // Binding quota first.
        self.domains
            .add_binding(DomainId::SERVER, requester.domain, name.clone())
            .map_err(|e| {
                self.journal.append(Event::ProxyDeny {
                    resource: name.clone(),
                    holder: requester.domain,
                    detail: e.to_string(),
                });
                e.to_string()
            })?;
        match self.registry.bind(requester, name, now) {
            Ok(proxy) => {
                // Proxy telemetry rides the server journal from here on:
                // meter charges, revocations, and expiries of this grant
                // all land in the same stream as the grant itself.
                proxy
                    .control()
                    .attach_journal(Arc::clone(&self.journal), name.clone());
                self.grants.lock().push(GrantEntry {
                    resource: name.clone(),
                    control: Arc::downgrade(proxy.control()),
                });
                self.journal.append(Event::ProxyGrant {
                    resource: name.clone(),
                    holder: requester.domain,
                });
                Ok(proxy)
            }
            Err(e) => {
                let _ = self
                    .domains
                    .remove_binding(DomainId::SERVER, requester.domain, name);
                let detail = match e {
                    BindError::NotFound(n) => format!("no resource {n}"),
                    other => other.to_string(),
                };
                self.journal.append(Event::ProxyDeny {
                    resource: name.clone(),
                    holder: requester.domain,
                    detail: detail.clone(),
                });
                Err(detail)
            }
        }
    }

    /// Delivers mail to a co-located agent's mailbox. Returns whether the
    /// recipient is resident here. A hibernated recipient (still
    /// resident — its domain survives the spill) is woken to read it.
    pub fn local_mail(self: &Arc<Self>, from: Urn, to: Urn, data: Vec<u8>) -> bool {
        let resident = self.domains.domain_of(&to).is_some();
        if !resident {
            return false;
        }
        self.mailbox_shard(&to)
            .lock()
            .entry(to.clone())
            .or_default()
            .push_back((from, data));
        self.stats.mail_delivered.fetch_add(1, Ordering::Relaxed);
        if self.bundles.contains(&to) {
            self.wake_agent(&to, false);
        }
        true
    }

    /// Whether any mail is queued for `agent`.
    fn has_mail(&self, agent: &Urn) -> bool {
        self.mailbox_shard(agent)
            .lock()
            .get(agent)
            .is_some_and(|m| !m.is_empty())
    }

    /// Sends mail to an agent on another server.
    pub fn remote_mail(
        &self,
        from: Urn,
        server: Urn,
        to: Urn,
        data: Vec<u8>,
    ) -> Result<(), String> {
        self.send_message(&server, &Message::AgentMail { from, to, data })
    }

    /// Takes the oldest mail item for `agent`.
    pub fn take_mail(&self, agent: &Urn) -> Option<(Urn, Vec<u8>)> {
        self.mailbox_shard(agent).lock().get_mut(agent)?.pop_front()
    }

    /// Dynamic extension: installs an agent-supplied module as a resource
    /// (paper Section 5.5), guarded by the monitor and registry ownership.
    pub fn install_vm_resource(
        &self,
        caller: DomainId,
        installer: &Urn,
        name: Urn,
        module: Module,
    ) -> Result<(), String> {
        let res = VmResource::install(name, installer.clone(), module, self.vm_limits)
            .map_err(|e| format!("module rejected: {e}"))?;
        let guarded = Guarded::new(res, ProxyPolicy::default());
        self.registry
            .register(&self.monitor, caller, installer, guarded)
            .map_err(|e| e.to_string())
    }

    /// Dispatches a child agent on behalf of `parent` (paper Section 4:
    /// agents can create child agents; Section 2: the creator may be
    /// another agent). The child runs under the parent's credentials with
    /// a name inside the parent's subtree; the reference monitor gates
    /// agent-initiated dispatch.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch_child(
        &self,
        caller: DomainId,
        parent: &Urn,
        credentials: &Credentials,
        module: Module,
        dest: &Urn,
        entry: String,
        payload: Vec<u8>,
        seq: u64,
        tracing: Option<(TraceId, SpanId)>,
    ) -> Result<Urn, String> {
        self.monitor
            .check(caller, SystemOp::DispatchAgent)
            .map_err(|v| v.to_string())?;
        let child = parent
            .child(format!("child-{seq}"))
            .map_err(|e| e.to_string())?;
        let globals = module.initial_globals();
        let image = AgentImage {
            module,
            globals,
            entry,
        };
        image
            .validate()
            .map_err(|e| format!("child image invalid: {e}"))?;
        self.stats.transfers_out.fetch_add(1, Ordering::Relaxed);
        self.journal.append(Event::AgentDispatched {
            agent: child.clone(),
            dest: dest.clone(),
        });
        // The dispatch joins the parent's tour as a child of the stay
        // that asked; a caller without coordinates roots a fresh trace.
        let now = self.clock_now();
        let dispatch_ctx = match tracing {
            Some((trace, parent_span)) => SpanContext {
                trace,
                span: self.journal.mint_span(),
                parent: Some(parent_span),
            },
            None => SpanContext::root(self.journal.mint_trace(), self.journal.mint_span()),
        };
        self.emit_span(
            dispatch_ctx,
            SpanKind::Dispatch,
            &child,
            format!("child toward {dest}"),
            now,
            0,
        );
        let msg = Message::Transfer {
            run_as: child.clone(),
            credentials: credentials.clone(),
            image,
            hop: 0,
            arg: payload,
            ctx: dispatch_ctx.child(self.journal.mint_span()),
            sent_ns: now,
        };
        // Children travel on the reliable layer too: if the destination
        // stays dark, the dead-stop path reports `Failed(0)` to the
        // family's home site instead of losing the child silently.
        self.send_transfer(
            dest,
            msg,
            child.clone(),
            0,
            Vec::new(),
            credentials.clone(),
            None,
        )?;
        Ok(child)
    }

    /// Seals and sends one protocol message to a peer server.
    pub fn send_message(&self, to: &Urn, msg: &Message) -> Result<(), String> {
        let now = self.clock_now();
        let key = self
            .directory
            .verified_key(to, &self.roots, now)
            .ok_or_else(|| format!("no verified directory entry for {to}"))?;
        let payload = msg.to_bytes();
        let datagram = {
            let mut rng = self.rng.lock();
            SealedDatagram::seal(&self.identity, to, key, &payload, now, &mut rng)
        };
        self.net
            .send_as(&self.name, to, datagram.to_bytes())
            .map_err(|e| e.to_string())
    }

    /// Records a report arriving at this (home) server, journaling the
    /// agent's outcome and waking any [`ServerHandle::wait_reports`].
    /// `ctx` is the sender's report span for a report that crossed the
    /// network (the home-side record journals as its child); local
    /// reports pass `None` — their report span was journaled in
    /// [`Shared::report_home`] already.
    fn record_report(&self, report: Report, ctx: Option<SpanContext>) {
        self.stats.reports_in.fetch_add(1, Ordering::Relaxed);
        if let Some(ctx) = ctx {
            self.emit_span(
                ctx.child(self.journal.mint_span()),
                SpanKind::Report,
                &report.agent,
                "recorded",
                self.clock_now(),
                0,
            );
        }
        self.journal.append(Event::AgentReported {
            agent: report.agent.clone(),
            status: match report.status {
                ReportStatus::Completed(_) => "completed",
                ReportStatus::Failed(_) => "failed",
                ReportStatus::QuotaExceeded(_) => "quota",
                ReportStatus::Refused(_) => "refused",
            },
        });
        self.reports.lock().push(report);
        self.reports_cv.notify_all();
    }

    /// Reports `status` to the agent's home site. `parent` anchors the
    /// report's span in the tour: the stay's admission span for normal
    /// outcomes, the lost transfer's span for dead-stop recovery. `None`
    /// (a refusal before any trace context existed) roots a fresh trace,
    /// so even pre-launch refusals are reconstructible. `custody` is the
    /// WAL admission this report settles: resolved immediately for a
    /// local (home == here) report, else when the report's ack arrives.
    fn report_home(
        &self,
        run_as: &Urn,
        credentials: &Credentials,
        status: ReportStatus,
        parent: Option<(TraceId, SpanId)>,
        custody: Option<(Urn, u64)>,
    ) {
        let now = self.clock_now();
        let ctx = match parent {
            Some((trace, parent_span)) => SpanContext {
                trace,
                span: self.journal.mint_span(),
                parent: Some(parent_span),
            },
            None => SpanContext::root(self.journal.mint_trace(), self.journal.mint_span()),
        };
        let status_label = match &status {
            ReportStatus::Completed(_) => "completed",
            ReportStatus::Failed(_) => "failed",
            ReportStatus::QuotaExceeded(_) => "quota",
            ReportStatus::Refused(_) => "refused",
        };
        self.emit_span(
            ctx,
            SpanKind::Report,
            run_as,
            format!("{status_label} toward {}", credentials.home),
            now,
            0,
        );
        let report = Report {
            agent: run_as.clone(),
            server: self.name.clone(),
            status,
            at: now,
        };
        if credentials.home == self.name {
            self.record_report(report, None);
            if let Some((agent, hop)) = custody {
                self.wal_resolve(&agent, hop);
            }
            return;
        }
        // Reports ride the reliable layer as well — under 20% loss the
        // tour would otherwise survive only for the home site to miss the
        // outcome. No recovery plan: a report about an undeliverable
        // report must not recurse.
        let seq = self.next_report_seq.fetch_add(1, Ordering::Relaxed);
        let home = credentials.home.clone();
        let msg = Message::Report { report, seq, ctx };
        if let Err(e) =
            self.send_reliable(&home, msg, Ack::REPORT, run_as.clone(), seq, None, custody)
        {
            self.reject(RejectKind::ReportUndeliverable, e);
        }
    }

    /// Sends an agent transfer with at-least-once delivery and a
    /// dead-stop recovery plan (`fallbacks` = remaining itinerary).
    /// `custody` names the local WAL admission the transfer's ack will
    /// settle (the departing agent's own `(agent, hop)` for a `go`;
    /// `None` for launches and child dispatches, which were never
    /// admitted here).
    #[allow(clippy::too_many_arguments)]
    fn send_transfer(
        &self,
        dest: &Urn,
        msg: Message,
        agent: Urn,
        hop: u64,
        fallbacks: Vec<Urn>,
        credentials: Credentials,
        custody: Option<(Urn, u64)>,
    ) -> Result<(), String> {
        let recovery = Recovery {
            credentials,
            fallbacks,
        };
        self.send_reliable(
            dest,
            msg,
            Ack::TRANSFER,
            agent,
            hop,
            Some(recovery),
            custody,
        )
    }

    /// At-least-once delivery: tracks the frame under `(kind, agent,
    /// seq)` until the peer's [`Message::Ack`] clears it; the retry
    /// ticker re-sends and eventually dead-stops it. With retries
    /// disabled this degenerates to the legacy fire-and-forget
    /// `send_message`, surfacing the send error to the caller.
    #[allow(clippy::too_many_arguments)]
    fn send_reliable(
        &self,
        dest: &Urn,
        msg: Message,
        kind: u8,
        agent: Urn,
        seq: u64,
        recovery: Option<Recovery>,
        custody: Option<(Urn, u64)>,
    ) -> Result<(), String> {
        // The frame carries its own span context; the pending entry
        // remembers it so acks and retries can attach to the same span.
        let (ctx, first_sent_ns) = match &msg {
            Message::Transfer { ctx, sent_ns, .. } => (*ctx, *sent_ns),
            Message::Report { ctx, .. } => (*ctx, self.clock_now()),
            _ => (SpanContext::root(TraceId(0), SpanId(0)), self.clock_now()),
        };
        if !self.retry.enabled() {
            // Fire-and-forget: there will never be an ack to resolve a
            // transfer's span, so close it at the send — the receiver's
            // admission span still needs a journaled parent.
            if kind == Ack::TRANSFER {
                self.emit_span(
                    ctx,
                    SpanKind::Transfer,
                    &agent,
                    format!("to {dest} (fire-and-forget)"),
                    first_sent_ns,
                    0,
                );
            }
            let result = self.send_message(dest, &msg);
            // No ack will ever settle this frame; resolve the admission
            // now so the WAL does not replay an agent we chose to treat
            // as handed off.
            if let Some((agent, hop)) = custody {
                self.wal_resolve(&agent, hop);
            }
            return result;
        }
        let due_ns = {
            let mut rng = self.rng.lock();
            self.clock_now() + self.retry.delay_ns(1, &mut rng)
        };
        let msg = Arc::new(msg);
        let entry = PendingSend {
            dest: dest.clone(),
            msg: Arc::clone(&msg),
            attempt: 1,
            due_ns,
            sent_real: Instant::now(),
            recovery,
            ctx,
            first_sent_ns,
            last_sent_ns: first_sent_ns,
            custody,
        };
        self.pending_sends.lock().insert((kind, agent, seq), entry);
        self.retry_cv.notify_all();
        // A failed first send (unknown peer, detached endpoint) is just
        // a lost attempt: the ticker retries it and the dead-stop path
        // eventually resolves the agent's fate.
        let _ = self.send_message(dest, &msg);
        Ok(())
    }

    /// One retry-ticker pass: re-send every frame whose real-time ack
    /// grace has lapsed, dead-stopping those out of attempts.
    fn service_pending(&self) {
        let now_real = Instant::now();
        let due: Vec<((u8, Urn, u64), PendingSend)> = {
            let mut pending = self.pending_sends.lock();
            let keys: Vec<_> = pending
                .iter()
                .filter(|(_, e)| {
                    now_real.duration_since(e.sent_real) >= self.retry.grace(e.attempt)
                })
                .map(|(k, _)| k.clone())
                .collect();
            keys.into_iter()
                .filter_map(|k| pending.remove(&k).map(|e| (k, e)))
                .collect()
        };
        for ((kind, agent, seq), entry) in due {
            if entry.attempt >= self.retry.max_attempts {
                self.dead_stop(kind, agent, seq, entry);
            } else {
                self.resend(kind, agent, seq, entry);
            }
        }
    }

    fn resend(&self, kind: u8, agent: Urn, seq: u64, mut entry: PendingSend) {
        // The retry is *modeled* at its backoff instant: advance the
        // virtual clock to the due time (a no-op when other traffic has
        // already passed it) so retry latency is visible in virtual-time
        // metrics, exactly like link transit is.
        self.net.clock().advance_to(entry.due_ns);
        entry.attempt += 1;
        if kind == Ack::TRANSFER {
            self.journal.append(Event::TransferRetried {
                agent: agent.clone(),
                dest: entry.dest.clone(),
                hop: seq,
                attempt: entry.attempt,
            });
        }
        // Each retry journals as a child span of the frame it re-sends;
        // its duration is the backoff actually waited since the previous
        // attempt, which also feeds the RetryBackoff histogram.
        let now = self.clock_now();
        let waited = now.saturating_sub(entry.last_sent_ns);
        self.journal
            .histos()
            .record(HistoPath::RetryBackoff, waited);
        self.emit_span(
            entry.ctx.child(self.journal.mint_span()),
            SpanKind::Retry,
            &agent,
            format!("attempt {} toward {}", entry.attempt, entry.dest),
            entry.last_sent_ns,
            waited,
        );
        entry.last_sent_ns = now;
        let delay = {
            let mut rng = self.rng.lock();
            self.retry.delay_ns(entry.attempt, &mut rng)
        };
        entry.due_ns = self.clock_now() + delay;
        entry.sent_real = Instant::now();
        let (dest, msg) = (entry.dest.clone(), Arc::clone(&entry.msg));
        self.pending_sends.lock().insert((kind, agent, seq), entry);
        // Re-inserted before the copy leaves, so its ack finds it. An ack
        // of an earlier copy that lands while the entry was out only
        // costs this copy: the receiver acks every duplicate too.
        let _ = self.send_message(&dest, &msg);
    }

    /// Retries exhausted. Transfers consult the itinerary: skip the dead
    /// stop if a fallback exists, else report `Failed(hop)` home — the
    /// home site always learns the agent's fate. Reports just journal;
    /// there is nothing left to escalate to.
    fn dead_stop(&self, kind: u8, agent: Urn, seq: u64, entry: PendingSend) {
        let Some(mut recovery) = entry.recovery else {
            self.reject(
                RejectKind::ReportUndeliverable,
                format!(
                    "report {seq} about {agent} toward {} lost after {} attempts",
                    entry.dest, entry.attempt
                ),
            );
            return;
        };
        let hop = seq;
        if recovery.fallbacks.is_empty() {
            self.journal.append(Event::AgentRecovered {
                agent: agent.clone(),
                hop,
                disposition: "sent-home",
            });
            // No fallback ends the leg: close the transfer span as lost
            // (the Failed report journals as its child), so the tour's
            // tree still accounts for the agent's whole fate.
            self.emit_span(
                entry.ctx,
                SpanKind::Transfer,
                &agent,
                format!("to {} lost after {} attempts", entry.dest, entry.attempt),
                entry.first_sent_ns,
                self.clock_now().saturating_sub(entry.first_sent_ns),
            );
            let credentials = recovery.credentials;
            // Custody passes to the Failed report: the home site learning
            // the fate is what settles the admission.
            self.report_home(
                &agent,
                &credentials,
                ReportStatus::Failed(format!(
                    "hop {hop}: transfer to {} lost after {} attempts",
                    entry.dest, entry.attempt
                )),
                Some((entry.ctx.trace, entry.ctx.span)),
                entry.custody,
            );
            return;
        }
        let next = recovery.fallbacks.remove(0);
        self.journal.append(Event::HopSkipped {
            agent: agent.clone(),
            skipped: entry.dest.clone(),
            next: next.clone(),
            hop,
        });
        self.journal.append(Event::AgentRecovered {
            agent: agent.clone(),
            hop,
            disposition: "skipped",
        });
        // Same frame, same hop — the idempotency key is unchanged, so if
        // the "dead" stop actually admitted the agent and only its acks
        // were lost, the fallback copy can at worst duplicate-admit at a
        // *different* server, never the same one twice.
        let due_ns = {
            let mut rng = self.rng.lock();
            self.clock_now() + self.retry.delay_ns(1, &mut rng)
        };
        // The span context and first-send baseline carry over: a skip is
        // the *same* transfer leg finding another door, and its eventual
        // RTT should include the time burned on the dead stop.
        let msg = Arc::clone(&entry.msg);
        let fresh = PendingSend {
            dest: next.clone(),
            msg: entry.msg,
            attempt: 1,
            due_ns,
            sent_real: Instant::now(),
            recovery: Some(recovery),
            ctx: entry.ctx,
            first_sent_ns: entry.first_sent_ns,
            last_sent_ns: self.clock_now(),
            custody: entry.custody,
        };
        self.pending_sends.lock().insert((kind, agent, seq), fresh);
        let _ = self.send_message(&next, &msg);
    }

    /// Appends an [`crate::wal::WalRecord::Admit`] for `bundle` — called
    /// on the server loop inside `handle_transfer`, which runs (and
    /// flushes) *before* the loop flushes the tick's outbox, so the
    /// admission is durable before its ack can physically leave.
    fn wal_admit(&self, bundle: crate::bundle::AgentBundle) {
        if let Some(wal) = &self.wal {
            let record = crate::wal::WalRecord::Admit(Box::new(bundle));
            if wal.append(&record).is_ok() {
                self.journal.counters().add(Counter::WalAppends, 1);
            }
        }
    }

    /// Appends an [`crate::wal::WalRecord::Resolve`] for `(agent, hop)`:
    /// custody ended (the onward transfer or home report was acked, or
    /// the outcome was recorded locally).
    fn wal_resolve(&self, agent: &Urn, hop: u64) {
        if let Some(wal) = &self.wal {
            let record = crate::wal::WalRecord::Resolve {
                agent: agent.clone(),
                hop,
            };
            if wal.append(&record).is_ok() {
                self.journal.counters().add(Counter::WalAppends, 1);
            }
        }
    }

    /// Revives a hibernated agent: takes its bundle (atomically — exactly
    /// one concurrent wake wins), re-verifies its credentials, rebuilds
    /// interpreter and environment, and hands a fresh task to the
    /// scheduler. Returns whether a bundle was found and revived.
    /// `explicit` marks an administrative wake (not mail arrival): the
    /// revived agent is then held awake until its next mail.
    pub(crate) fn wake_agent(self: &Arc<Self>, agent: &Urn, explicit: bool) -> bool {
        let t0 = Instant::now();
        let Some(bundle) = self.bundles.take(agent) else {
            return false;
        };
        let Some(domain) = self.domains.domain_of(agent) else {
            // Evicted while hibernated (a shutdown or kill raced the
            // wake); there is no stay to resume.
            return false;
        };
        let now = self.clock_now();
        let hop = bundle.hop;
        let delegated = match bundle.credentials.verify(&self.roots, now) {
            Ok(rights) => rights,
            Err(e) => {
                self.wake_fail(
                    agent,
                    domain,
                    &bundle,
                    format!("credentials no longer verify: {e}"),
                );
                return true;
            }
        };
        let rights = self.policy.read().authorize(
            &bundle.credentials.agent,
            &bundle.credentials.owner,
            &delegated,
        );
        let mut namespace = match Namespace::with_system(&self.system_modules) {
            Ok(ns) => ns,
            Err(e) => {
                self.wake_fail(agent, domain, &bundle, format!("system namespace: {e}"));
                return true;
            }
        };
        let verified = match namespace.load(bundle.image.module.clone()) {
            Ok(v) => v,
            Err(e) => {
                self.wake_fail(
                    agent,
                    domain,
                    &bundle,
                    format!("module no longer loads: {e}"),
                );
                return true;
            }
        };
        let state = match bundle.warm.clone() {
            Some(warm) => {
                let mut env = AgentEnv::new(
                    Arc::clone(self),
                    domain,
                    agent.clone(),
                    bundle.credentials.clone(),
                    rights,
                    bundle.ctx,
                );
                env.set_module(Arc::clone(&verified));
                env.restore_session(warm.rng_state, warm.children, warm.last_sender);
                if explicit {
                    env.hold_awake();
                }
                let Some(interp) = Interpreter::import_state(verified, self.vm_limits, warm.interp)
                else {
                    self.wake_fail(
                        agent,
                        domain,
                        &bundle,
                        "hibernated state inconsistent with module".into(),
                    );
                    return true;
                };
                TaskState::Warm {
                    env: Box::new(env),
                    interp: Box::new(interp),
                }
            }
            // A cold bundle (never ran here) restarts from its entry.
            None => TaskState::Cold {
                verified,
                globals: bundle.image.globals,
                arg: bundle.arg,
                authorization: rights,
            },
        };
        self.journal.append(Event::AgentWoken {
            agent: agent.clone(),
            hop,
        });
        self.journal
            .histos()
            .record(HistoPath::WakeLatency, t0.elapsed().as_nanos() as u64);
        self.sched.spawn(Box::new(AgentTask {
            shared: Arc::clone(self),
            domain,
            credentials: bundle.credentials,
            entry: bundle.image.entry,
            module: bundle.image.module,
            hop,
            run_as: agent.clone(),
            admission_ctx: bundle.ctx,
            state,
        }));
        true
    }

    /// Revokes every live proxy for `resource` that this server issued
    /// (Section 5.5 revocation, driven administratively). Each live grant
    /// is invalidated through its [`ajanta_core::ProxyControl`] — which
    /// journals a per-holder `ProxyRevoke` through its attached hook —
    /// and dead grant entries are pruned in the same pass. An
    /// administrative `ProxyRevoke { holder: SERVER }` record is always
    /// appended, so the revocation *decision* is visible in this server's
    /// journal even when every holder has already departed. Returns the
    /// number of live proxies invalidated.
    pub fn revoke_resource(&self, resource: &Urn) -> usize {
        let mut revoked = 0usize;
        self.grants.lock().retain(|g| {
            let Some(control) = g.control.upgrade() else {
                return false;
            };
            if g.resource == *resource {
                if control.revoke(DomainId::SERVER).is_ok() {
                    revoked += 1;
                }
                false
            } else {
                true
            }
        });
        self.journal.append(Event::ProxyRevoke {
            resource: resource.clone(),
            holder: DomainId::SERVER,
        });
        revoked
    }

    /// Asks a resident, non-hibernated agent to hibernate at its next
    /// safe yield point (control plane `hibernate` op). Returns whether
    /// the request was accepted — the spill itself happens when the
    /// agent's task next yields with no live bindings and no pending
    /// migration.
    pub fn request_hibernate(&self, agent: &Urn) -> bool {
        if self.domains.domain_of(agent).is_none() || self.bundles.contains(agent) {
            return false;
        }
        self.hibernate_requests.lock().insert(agent.clone());
        true
    }

    /// Whether `agent` currently sits in the bundle store.
    pub fn is_hibernated(&self, agent: &Urn) -> bool {
        self.bundles.contains(agent)
    }

    /// A failed revival must leave no residue and must still settle the
    /// agent's fate — the same obligations `AgentTask::complete` meets.
    fn wake_fail(
        &self,
        agent: &Urn,
        domain: DomainId,
        bundle: &crate::bundle::AgentBundle,
        detail: String,
    ) {
        self.reject(
            RejectKind::BadCredentials,
            format!("wake {agent}: {detail}"),
        );
        self.mailbox_shard(agent).lock().remove(agent);
        let _ = self.domains.evict(DomainId::SERVER, domain);
        self.report_home(
            agent,
            &bundle.credentials,
            ReportStatus::Failed(format!("wake failed: {detail}")),
            Some((bundle.ctx.trace, bundle.ctx.span)),
            Some((agent.clone(), bundle.hop)),
        );
    }
}

/// The retry ticker: parks while nothing is pending, then services the
/// unacked set every millisecond until shutdown.
fn retry_loop(shared: Arc<Shared>) {
    loop {
        {
            let mut pending = shared.pending_sends.lock();
            while pending.is_empty() && !shared.retry_shutdown.load(Ordering::Acquire) {
                // The timeout is only a backstop against a lost wakeup.
                let (g, _) = shared
                    .retry_cv
                    .wait_timeout(pending, Duration::from_millis(25));
                pending = g;
            }
        }
        if shared.retry_shutdown.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
        shared.service_pending();
    }
}

/// Control-channel commands. (`Launch` carries a whole agent; boxing
/// would only obscure the one-shot hand-off.)
#[allow(clippy::large_enum_variant)]
enum Control {
    Launch {
        dest: Urn,
        credentials: Credentials,
        image: AgentImage,
        /// Itinerary stops after `dest`, for dead-stop recovery.
        fallbacks: Vec<Urn>,
    },
    QueryStatus {
        server: Urn,
        agent: Urn,
        reply: crossbeam::channel::Sender<Result<AgentStatus, QueryError>>,
    },
    Shutdown,
}

/// The running server's control handle. Dropping it does **not** stop the
/// server; call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    name: Urn,
    shared: Arc<Shared>,
    ctrl: Sender<Control>,
    join: Option<std::thread::JoinHandle<()>>,
    retry_join: Option<std::thread::JoinHandle<()>>,
    /// Whether this handle started (and must stop) a private scheduler,
    /// as opposed to borrowing a world-shared one.
    owns_sched: bool,
}

impl ServerHandle {
    /// The server's name.
    pub fn name(&self) -> &Urn {
        &self.name
    }

    /// Launches an agent from this (home) server toward `dest`.
    pub fn launch(&self, dest: Urn, credentials: Credentials, image: AgentImage) {
        let _ = self.ctrl.send(Control::Launch {
            dest,
            credentials,
            image,
            fallbacks: Vec::new(),
        });
    }

    /// Launches an agent along `itinerary`: toward its first stop, with
    /// the remaining stops registered as dead-stop fallbacks, so even the
    /// launch leg survives an unreachable first server. An empty
    /// itinerary is refused immediately (local report).
    pub fn launch_tour(&self, itinerary: &Itinerary, credentials: Credentials, image: AgentImage) {
        let (dest, rest) = itinerary.clone().next_stop();
        let Some(dest) = dest else {
            self.shared.report_home(
                &credentials.agent.clone(),
                &credentials,
                ReportStatus::Refused("launch with empty itinerary".into()),
                None,
                None,
            );
            return;
        };
        let _ = self.ctrl.send(Control::Launch {
            dest,
            credentials,
            image,
            fallbacks: rest.stops().to_vec(),
        });
    }

    /// Registers a resource in this server's registry (server domain).
    pub fn register_resource(&self, resource: Arc<dyn AccessProtocol>) -> Result<(), String> {
        let registrar = self.name.clone();
        self.shared
            .registry
            .register(&self.shared.monitor, DomainId::SERVER, &registrar, resource)
            .map_err(|e| e.to_string())
    }

    /// Runs `f` against the server's policy (e.g. to add rules at
    /// runtime — Section 5.1's dynamically modified policies).
    pub fn with_policy<R>(&self, f: impl FnOnce(&mut SecurityPolicy) -> R) -> R {
        f(&mut self.shared.policy.write())
    }

    /// Snapshot of reports received here as a home site.
    pub fn reports(&self) -> Vec<Report> {
        self.shared.reports.lock().clone()
    }

    /// Blocks (real time) until at least `n` reports have arrived or the
    /// timeout elapses; returns the snapshot either way. Waiters park on
    /// a condvar signalled per arrival — no busy-poll, no 2 ms stairs.
    pub fn wait_reports(&self, n: usize, timeout: std::time::Duration) -> Vec<Report> {
        let deadline = Instant::now() + timeout;
        let mut reports = self.shared.reports.lock();
        loop {
            if reports.len() >= n {
                return reports.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                return reports.clone();
            }
            let (g, _) = self.shared.reports_cv.wait_timeout(reports, deadline - now);
            reports = g;
        }
    }

    /// Asks `server`'s domain database about `agent` over the network —
    /// paper Section 4: the domain database "responds to status queries
    /// from their owners".
    ///
    /// The error distinguishes a server that could not be asked or never
    /// answered ([`QueryError::Unreachable`] / [`QueryError::Timeout`])
    /// from one that answered "not resident" — callers can now tell a
    /// dead server from a completed agent.
    pub fn query_status(
        &self,
        server: &Urn,
        agent: &Urn,
        timeout: std::time::Duration,
    ) -> Result<AgentStatus, QueryError> {
        let (reply_tx, reply_rx) = crossbeam::channel::bounded(1);
        if self
            .ctrl
            .send(Control::QueryStatus {
                server: server.clone(),
                agent: agent.clone(),
                reply: reply_tx,
            })
            .is_err()
        {
            return Err(QueryError::Unreachable("local server is shut down".into()));
        }
        match reply_rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(_) => Err(QueryError::Timeout),
        }
    }

    /// Per-agent log lines — a filtered view of the journal's
    /// [`Event::AgentLog`] records. Bounded by the journal capacity; the
    /// exact lifetime count (including evicted lines) is the journal's
    /// `LogLines` counter.
    pub fn logs(&self) -> Vec<(Urn, String)> {
        self.logs_tail(usize::MAX)
    }

    /// The `n` most recent per-agent log lines, oldest first — the
    /// bounded variant the control plane serves, so one request can't
    /// clone an unbounded log vector.
    pub fn logs_tail(&self, n: usize) -> Vec<(Urn, String)> {
        logs_tail_of(&self.shared.journal, n)
    }

    /// Security events recorded by this server — a filtered view of the
    /// journal's [`Event::Rejected`] records.
    pub fn security_events(&self) -> Vec<SecurityEvent> {
        self.shared
            .journal
            .snapshot()
            .into_iter()
            .filter_map(|r| match r.event {
                Event::Rejected { kind, detail } => Some(SecurityEvent {
                    at: r.at,
                    kind,
                    detail,
                }),
                _ => None,
            })
            .collect()
    }

    /// The server's telemetry journal: typed events, aggregate counters,
    /// and the Prometheus-style snapshot.
    pub fn journal(&self) -> Arc<Journal> {
        Arc::clone(&self.shared.journal)
    }

    /// Number of reliable sends still awaiting an ack (or their
    /// dead-stop). A trace export is only guaranteed orphan-free once
    /// every server reports zero here: the Transfer span for a leg is
    /// journaled when the leg *resolves*, so exporting mid-flight can
    /// miss parents of already-journaled Retry and Admission spans.
    pub fn pending_send_count(&self) -> usize {
        self.shared.pending_sends.lock().len()
    }

    /// Exports this server's trace-relevant journal records as JSONL for
    /// offline merging (`ajanta_core::trace::parse_jsonl`, `tracectl`).
    pub fn export_jsonl(&self) -> String {
        ajanta_core::trace::export_journal(
            &self.shared.name().to_string(),
            &self.shared.journal.snapshot(),
        )
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            agents_hosted: self.shared.stats.agents_hosted.load(Ordering::Relaxed),
            transfers_out: self.shared.stats.transfers_out.load(Ordering::Relaxed),
            reports_in: self.shared.stats.reports_in.load(Ordering::Relaxed),
            mail_delivered: self.shared.stats.mail_delivered.load(Ordering::Relaxed),
        }
    }

    /// Number of currently resident agents.
    pub fn resident_agents(&self) -> usize {
        self.shared.domains.len()
    }

    /// Names in the resource registry.
    pub fn resources(&self) -> Vec<Urn> {
        self.shared.registry.list()
    }

    /// The monitor's audit-log length (X12 instrumentation) — an O(1)
    /// counter read; the old implementation cloned the whole log to count
    /// it.
    pub fn audit_len(&self) -> usize {
        self.shared.monitor.audit_len()
    }

    /// Scheduler queue depths as seen from this server's pool: tasks
    /// ready (queued), running (on a worker this instant), and parked
    /// (ready but cold — holding only their VM image, no stack). With a
    /// world-shared pool the depths span every server on it.
    pub fn sched_depths(&self) -> SchedDepths {
        self.shared.sched.depths()
    }

    /// The worker pool this server's agents execute on.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.shared.sched
    }

    /// Number of agents currently hibernated (resident but spilled to
    /// the bundle store, holding no interpreter or scheduler task).
    pub fn hibernated_agents(&self) -> usize {
        self.shared.bundles.len()
    }

    /// Total encoded bytes the hibernated agents occupy — the entire
    /// per-agent footprint while asleep, versus a warm agent's live
    /// interpreter ([`ajanta_vm::Interpreter`] memory) plus environment.
    pub fn hibernated_bytes(&self) -> usize {
        self.shared.bundles.stored_bytes()
    }

    /// Explicitly wakes a hibernated agent (the tour-resume wake path;
    /// mail arrival wakes implicitly). The revived agent is not
    /// hibernated again for idleness before its next mail; a
    /// [`Self::hibernate`] request still spills it. Returns whether a
    /// bundle was found and revived.
    pub fn wake(&self, agent: &Urn) -> bool {
        self.shared.wake_agent(agent, true)
    }

    /// Asks a resident agent to hibernate at its next safe yield point
    /// (see [`Shared::request_hibernate`]).
    pub fn hibernate(&self, agent: &Urn) -> bool {
        self.shared.request_hibernate(agent)
    }

    /// Revokes every live proxy this server issued for `resource` (see
    /// [`Shared::revoke_resource`]). Returns the live proxies
    /// invalidated.
    pub fn revoke_resource(&self, resource: &Urn) -> usize {
        self.shared.revoke_resource(resource)
    }

    /// Domain-database records of every resident agent (including
    /// hibernated ones — their domains survive the spill).
    pub fn agent_records(&self) -> Vec<ajanta_core::AgentRecord> {
        self.shared.domains.iter().collect()
    }

    /// Names of the agents currently hibernated in the bundle store.
    pub fn hibernated_list(&self) -> Vec<Urn> {
        self.shared.bundles.list()
    }

    /// `(agent, hop)` pairs whose custody is still in flight: reliable
    /// frames carrying a WAL admission that has not been resolved by an
    /// ack yet.
    pub fn in_flight_agents(&self) -> Vec<(Urn, u64)> {
        let mut v: Vec<(Urn, u64)> = self
            .shared
            .pending_sends
            .lock()
            .values()
            .filter_map(|p| p.custody.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// A cheap, cloneable view of this server for the control plane —
    /// everything `runtime::control` serves, without owning the server's
    /// lifecycle.
    pub fn control_view(&self) -> ControlView {
        ControlView {
            name: self.name.clone(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Delivers local mail from the control plane (tests, tools) as if a
    /// co-located agent had sent it.
    pub fn deliver_mail(&self, from: Urn, to: Urn, data: Vec<u8>) -> bool {
        self.shared.local_mail(from, to, data)
    }

    /// Stops the server loop and joins all threads. A privately owned
    /// scheduler is drained and stopped too; a world-shared one is left
    /// to [`crate::World::shutdown`].
    pub fn shutdown(mut self) {
        let _ = self.ctrl.send(Control::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        self.shared.retry_shutdown.store(true, Ordering::Release);
        self.shared.retry_cv.notify_all();
        if let Some(join) = self.retry_join.take() {
            let _ = join.join();
        }
        if self.owns_sched {
            self.shared.sched.stop();
        }
    }
}

/// The `n` most recent [`Event::AgentLog`] lines in `journal`, oldest
/// first.
fn logs_tail_of(journal: &Journal, n: usize) -> Vec<(Urn, String)> {
    let mut lines: Vec<(Urn, String)> = journal
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            Event::AgentLog { agent, text } => Some((agent, text)),
            _ => None,
        })
        .collect();
    if n < lines.len() {
        lines.drain(..lines.len() - n);
    }
    lines
}

/// A cheap, cloneable, read-mostly view of one server for the control
/// plane: everything `runtime::control` serves — agent inventory,
/// telemetry, journal pages, logs, trace export, hibernate/wake, and
/// proxy revocation — without owning the server's lifecycle (no
/// shutdown, no join handles). Obtained from
/// [`ServerHandle::control_view`].
#[derive(Clone)]
pub struct ControlView {
    name: Urn,
    shared: Arc<Shared>,
}

impl ControlView {
    /// The server's name.
    pub fn name(&self) -> &Urn {
        &self.name
    }

    /// The server's telemetry journal.
    pub fn journal(&self) -> Arc<Journal> {
        Arc::clone(&self.shared.journal)
    }

    /// A typed copy of every counter and histogram (see
    /// [`Journal::telemetry_snapshot`]).
    pub fn telemetry(&self) -> ajanta_core::telemetry::TelemetrySnapshot {
        self.shared.journal.telemetry_snapshot()
    }

    /// Domain-database records of every resident agent.
    pub fn agent_records(&self) -> Vec<ajanta_core::AgentRecord> {
        self.shared.domains.iter().collect()
    }

    /// The record of one resident agent, if present.
    pub fn record_of(&self, agent: &Urn) -> Option<ajanta_core::AgentRecord> {
        self.shared.domains.record_of(agent)
    }

    /// Names of the agents currently hibernated in the bundle store.
    pub fn hibernated_list(&self) -> Vec<Urn> {
        self.shared.bundles.list()
    }

    /// Whether `agent` currently sits in the bundle store.
    pub fn is_hibernated(&self, agent: &Urn) -> bool {
        self.shared.is_hibernated(agent)
    }

    /// `(agent, hop)` pairs whose custody is still in flight (unacked
    /// reliable frames carrying a WAL admission).
    pub fn in_flight_agents(&self) -> Vec<(Urn, u64)> {
        let mut v: Vec<(Urn, u64)> = self
            .shared
            .pending_sends
            .lock()
            .values()
            .filter_map(|p| p.custody.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The `n` most recent per-agent log lines, oldest first.
    pub fn logs_tail(&self, n: usize) -> Vec<(Urn, String)> {
        logs_tail_of(&self.shared.journal, n)
    }

    /// Bytes the hibernated bundles currently occupy.
    pub fn hibernated_bytes(&self) -> usize {
        self.shared.bundles.stored_bytes()
    }

    /// Names in the resource registry.
    pub fn resources(&self) -> Vec<Urn> {
        self.shared.registry.list()
    }

    /// Reliable sends still awaiting an ack.
    pub fn pending_send_count(&self) -> usize {
        self.shared.pending_sends.lock().len()
    }

    /// Trace-relevant journal records as JSONL (see
    /// [`ServerHandle::export_jsonl`]).
    pub fn export_jsonl(&self) -> String {
        ajanta_core::trace::export_journal(&self.name.to_string(), &self.shared.journal.snapshot())
    }

    /// Asks a resident agent to hibernate at its next safe yield point.
    pub fn hibernate(&self, agent: &Urn) -> bool {
        self.shared.request_hibernate(agent)
    }

    /// Wakes a hibernated agent and holds it awake until its next mail.
    /// Returns whether a bundle was revived.
    pub fn wake(&self, agent: &Urn) -> bool {
        self.shared.wake_agent(agent, true)
    }

    /// Revokes every live proxy this server issued for `resource`;
    /// returns how many were invalidated.
    pub fn revoke_resource(&self, resource: &Urn) -> usize {
        self.shared.revoke_resource(resource)
    }
}

/// The agent server. Construct with [`AgentServer::spawn`].
pub struct AgentServer;

impl AgentServer {
    /// Starts a server thread attached to the simulated network and
    /// returns its handle. Convenience wrapper over [`Self::spawn_on`]
    /// for the single-process worlds every experiment started from.
    ///
    /// # Panics
    /// Panics if the server name is already attached to the network.
    pub fn spawn(net: &SimNet, config: ServerConfig) -> ServerHandle {
        Self::spawn_on(Arc::new(net.clone()), config)
    }

    /// Starts a server thread attached to any [`Transport`] — the
    /// simulation or a real socket transport — and returns its handle.
    ///
    /// # Panics
    /// Panics if the server name is already attached to the transport.
    pub fn spawn_on(net: Arc<dyn Transport>, config: ServerConfig) -> ServerHandle {
        let endpoint = net
            .attach(config.name.clone())
            .expect("server name already attached");
        // One journal per server, stamped with the network's virtual
        // clock; the monitor audits into it, so the audit trail shares
        // the stream (and the bound) with everything else. The span tag
        // is a hash of the server name so span ids minted on different
        // servers never collide when journals are merged for tracing.
        let clock = net.clock().clone();
        let tag = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            config.name.hash(&mut h);
            h.finish() as u32
        };
        let journal = Arc::new(
            Journal::with_capacity(config.journal_capacity)
                .with_clock(move || clock.now())
                .with_span_tag(tag),
        );
        let monitor = HostMonitor::with_journal(Arc::clone(&journal), config.agents_may_dispatch);
        let (sched, owns_sched) = match config.scheduler {
            Some(s) => (s, false),
            None => (Scheduler::new(crate::sched::default_workers()), true),
        };
        // Crash recovery happens before the loop starts: read whatever
        // log a previous incarnation left, then reopen it for appending.
        // Resolved keys pre-seed the duplicate filter (peer retries of
        // settled frames are acked and dropped); unresolved admissions
        // are re-admitted once the loop is live.
        let (wal, recovery) = match &config.wal {
            Some(path) => {
                let records = crate::wal::AdmissionWal::replay(path).unwrap_or_default();
                let recovery = crate::wal::AdmissionWal::recover(records);
                (crate::wal::AdmissionWal::open(path).ok(), Some(recovery))
            }
            None => (None, None),
        };
        let mut seen = SeenFrames::default();
        let mut replay_bundles = Vec::new();
        if let Some(recovery) = recovery {
            for (agent, hop) in recovery.resolved {
                seen.insert(FrameKey::Transfer { agent, hop });
            }
            replay_bundles = recovery.unresolved;
        }
        let shared = Arc::new(Shared {
            name: config.name.clone(),
            identity: config.identity,
            keys: config.keys,
            roots: config.roots,
            directory: config.directory,
            net: Arc::clone(&net),
            monitor,
            registry: ResourceRegistry::new(),
            domains: DomainDatabase::new(),
            policy: RwLock::new(config.policy),
            system_modules: config.system_modules,
            agent_limits: config.agent_limits,
            vm_limits: config.vm_limits,
            sched,
            mailboxes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            journal,
            reports: Mutex::new(Vec::new()),
            reports_cv: Condvar::new(),
            rng: Mutex::new(DetRng::new(config.seed)),
            guard: Mutex::new(ReplayGuard::new(config.replay_window_ns)),
            stats: ServerStats::default(),
            pending_queries: Mutex::new(BTreeMap::new()),
            next_query_id: AtomicU64::new(1),
            retry: config.retry,
            pending_sends: Mutex::new(HashMap::new()),
            retry_cv: Condvar::new(),
            retry_shutdown: AtomicBool::new(false),
            seen: Mutex::new(seen),
            next_report_seq: AtomicU64::new(1),
            bundles: crate::bundle::BundleStore::in_memory(),
            wal,
            hibernate_after_misses: config.hibernate_after_misses,
            grants: Mutex::new(Vec::new()),
            hibernate_requests: Mutex::new(HashSet::new()),
        });

        // Transport-level frame rejections (undecodable bytes, failed
        // handshakes, oversize lengths) land in the same journal as
        // datagram-level ones. The simulation never produces any; a
        // socket transport facing a hostile peer does.
        {
            let journal = Arc::clone(&shared.journal);
            net.on_frame_reject(Arc::new(move |detail: &str| {
                journal.append(Event::Rejected {
                    kind: RejectKind::BadDatagram,
                    detail: format!("transport: {detail}"),
                });
            }));
        }
        // Write-batch observations from the socket data plane: each
        // coalesced stream write lands one sample in the frames-per-write
        // histogram plus the two coalescing counters. The simulation
        // issues no writes, so on a SimNet this hook never fires.
        {
            let journal = Arc::clone(&shared.journal);
            net.on_write_batch(Arc::new(move |frames: u64| {
                journal.histos().record(HistoPath::FramesPerWrite, frames);
                journal.counters().add(Counter::FramesCoalesced, frames);
                journal.counters().add(Counter::WriteSyscalls, 1);
            }));
        }

        let (ctrl_tx, ctrl_rx) = unbounded();
        let loop_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name(format!("ajanta-{}", config.name.leaf()))
            .spawn(move || server_loop(loop_shared, endpoint, ctrl_rx, replay_bundles))
            .expect("spawning server thread");
        let retry_join = if shared.retry.enabled() {
            let retry_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name(format!("ajanta-retry-{}", config.name.leaf()))
                    .spawn(move || retry_loop(retry_shared))
                    .expect("spawning retry thread"),
            )
        } else {
            None
        };

        ServerHandle {
            name: config.name,
            shared,
            ctrl: ctrl_tx,
            join: Some(join),
            retry_join,
            owns_sched,
        }
    }
}

fn server_loop(
    shared: Arc<Shared>,
    endpoint: Box<dyn NetEndpoint>,
    ctrl: Receiver<Control>,
    replay: Vec<crate::bundle::AgentBundle>,
) {
    // Admitted agents collected this tick; handed to the scheduler as
    // one batch so a delivery burst costs one queue wakeup, not N.
    let mut batch: Vec<Box<dyn Task>> = Vec::new();
    // WAL replay (tentpole): re-admit every agent a previous incarnation
    // owned but had not resolved, through the normal admission pipeline.
    // The `seen` insert makes the replay idempotent against the peer's
    // own retry of the same frame arriving later — and `wal_log: false`
    // keeps the replay from re-logging admissions that are already in
    // the log unresolved.
    for bundle in replay {
        let fresh = shared.seen.lock().insert(FrameKey::Transfer {
            agent: bundle.agent.clone(),
            hop: bundle.hop,
        });
        if !fresh {
            continue;
        }
        shared.journal.append(Event::WalReplayed {
            agent: bundle.agent.clone(),
            hop: bundle.hop,
        });
        let sent_ns = shared.clock_now();
        handle_transfer(
            &shared,
            bundle.credentials,
            bundle.image,
            bundle.hop,
            bundle.agent,
            bundle.arg,
            bundle.ctx,
            sent_ns,
            false,
            &mut batch,
        );
    }
    if !batch.is_empty() {
        shared.sched.spawn_batch(batch.drain(..));
    }
    // Ack/report-ack frames owed for this tick's deliveries. Collected
    // here and sent after the burst drain so a burst of N transfers
    // hands the transport N back-to-back acks in one go — which the
    // socket writer then coalesces into few writes. Only the flush
    // granularity moves: each ack is still decided (and ordered) at the
    // same point in handle_delivery it always was, before the dedup
    // check, so "ack first, even duplicates" is unchanged.
    let mut outbox: Vec<(Urn, Message)> = Vec::new();
    loop {
        crossbeam::channel::select! {
            recv(ctrl) -> cmd => match cmd {
                Ok(Control::Launch { dest, credentials, image, fallbacks }) => {
                    shared.stats.transfers_out.fetch_add(1, Ordering::Relaxed);
                    shared.journal.append(Event::AgentDispatched {
                        agent: credentials.agent.clone(),
                        dest: dest.clone(),
                    });
                    let agent = credentials.agent.clone();
                    // Every launch roots a fresh trace: a Dispatch span
                    // with no parent, whose id every later span of the
                    // tour transitively descends from.
                    let now = shared.clock_now();
                    let root = SpanContext::root(
                        shared.journal.mint_trace(),
                        shared.journal.mint_span(),
                    );
                    shared.emit_span(
                        root,
                        SpanKind::Dispatch,
                        &agent,
                        format!("launch toward {dest}"),
                        now,
                        0,
                    );
                    let msg = Message::Transfer {
                        run_as: agent.clone(),
                        credentials: credentials.clone(),
                        image,
                        hop: 0,
                        arg: Vec::new(),
                        ctx: root.child(shared.journal.mint_span()),
                        sent_ns: now,
                    };
                    if let Err(e) = shared.send_transfer(
                        &dest, msg, agent, 0, fallbacks, credentials.clone(), None,
                    ) {
                        shared.report_home(&credentials.agent.clone(), &credentials, ReportStatus::Refused(
                            format!("launch toward {dest} failed: {e}"),
                        ), Some((root.trace, root.span)), None);
                    }
                }
                Ok(Control::QueryStatus { server, agent, reply }) => {
                    let query_id = shared.next_query_id.fetch_add(1, Ordering::Relaxed);
                    shared.pending_queries.lock().insert(query_id, reply);
                    let msg = Message::StatusQuery { query_id, agent };
                    if let Err(e) = shared.send_message(&server, &msg) {
                        // Tell the caller *why* instead of letting it
                        // time out against a server that was never asked.
                        if let Some(reply) = shared.pending_queries.lock().remove(&query_id) {
                            let _ = reply.send(Err(QueryError::Unreachable(e)));
                        }
                    }
                }
                Ok(Control::Shutdown) | Err(_) => break,
            },
            recv(endpoint.receiver()) -> delivery => match delivery {
                Ok(d) => {
                    shared.net.clock().advance_to(d.arrival_ns);
                    handle_delivery(&shared, d, &mut batch, &mut outbox);
                }
                Err(_) => break,
            },
        }
        // Drain the rest of the burst without blocking, then enqueue
        // the whole tick's admissions at once.
        while let Ok(d) = endpoint.receiver().try_recv() {
            shared.net.clock().advance_to(d.arrival_ns);
            handle_delivery(&shared, d, &mut batch, &mut outbox);
        }
        for (dest, msg) in outbox.drain(..) {
            let _ = shared.send_message(&dest, &msg);
        }
        if !batch.is_empty() {
            shared.sched.spawn_batch(batch.drain(..));
        }
    }
    // A shutdown racing a delivery burst must not strand admitted (and
    // domain-registered) agents: flush, then let the scheduler's own
    // drain-on-stop run them. Acks owed for that last burst go out
    // first — a peer must not re-send a transfer this server admitted.
    for (dest, msg) in outbox.drain(..) {
        let _ = shared.send_message(&dest, &msg);
    }
    if !batch.is_empty() {
        shared.sched.spawn_batch(batch.drain(..));
    }
}

fn handle_delivery(
    shared: &Arc<Shared>,
    delivery: Delivery,
    batch: &mut Vec<Box<dyn Task>>,
    outbox: &mut Vec<(Urn, Message)>,
) {
    let now = shared.clock_now();
    let datagram = match SealedDatagram::from_bytes(&delivery.payload) {
        Ok(d) => d,
        Err(e) => {
            shared.reject(RejectKind::BadDatagram, format!("undecodable: {e}"));
            return;
        }
    };
    let opened = {
        let mut guard = shared.guard.lock();
        datagram.open(
            &shared.identity,
            &shared.keys,
            &shared.roots,
            now,
            &mut guard,
        )
    };
    let (sender, plaintext) = match opened {
        Ok(x) => x,
        Err(e) => {
            // Replay-class failures (stale timestamp, reused nonce) get
            // their own typed category; everything else is tampering or
            // decode trouble.
            let kind = if e.is_replay() {
                RejectKind::Replay
            } else {
                RejectKind::BadDatagram
            };
            shared.reject(kind, e.to_string());
            return;
        }
    };
    let message = match Message::from_bytes(&plaintext) {
        Ok(m) => m,
        Err(e) => {
            shared.reject(
                RejectKind::BadDatagram,
                format!("bad message from {sender}: {e}"),
            );
            return;
        }
    };
    match message {
        Message::Transfer {
            credentials,
            image,
            hop,
            run_as,
            arg,
            ctx,
            sent_ns,
        } => {
            if shared.retry.enabled() {
                // Ack first — even duplicates: "acknowledged but not
                // re-admitted". The admission decision itself hinges on
                // the idempotency key (agent, hop): a retried or
                // replayed copy of an already-seen hop goes no further.
                let ack = Message::Ack {
                    kind: Ack::TRANSFER,
                    agent: run_as.clone(),
                    seq: hop,
                };
                outbox.push((sender.clone(), ack));
            }
            let fresh = shared.seen.lock().insert(FrameKey::Transfer {
                agent: run_as.clone(),
                hop,
            });
            if !fresh {
                shared.reject(
                    RejectKind::DuplicateHop,
                    format!("transfer of {run_as} hop {hop} already processed"),
                );
                return;
            }
            handle_transfer(
                shared,
                credentials,
                image,
                hop,
                run_as,
                arg,
                ctx,
                sent_ns,
                true,
                batch,
            );
        }
        Message::Report { report, seq, ctx } => {
            if shared.retry.enabled() {
                let ack = Message::Ack {
                    kind: Ack::REPORT,
                    agent: report.agent.clone(),
                    seq,
                };
                outbox.push((sender.clone(), ack));
            }
            let fresh = shared.seen.lock().insert(FrameKey::Report {
                from: sender.clone(),
                agent: report.agent.clone(),
                seq,
            });
            if !fresh {
                shared.reject(
                    RejectKind::DuplicateHop,
                    format!("report {seq} from {sender} already recorded"),
                );
                return;
            }
            shared.record_report(report, Some(ctx));
        }
        Message::Ack { kind, agent, seq } => {
            // The first ack resolves the frame; duplicates find nothing
            // pending and do nothing (so no span is journaled twice). A
            // resolved transfer closes its Transfer span with the full
            // virtual round trip since the *first* send — retry backoffs
            // included, which is exactly the tail the histogram is for.
            let entry = shared
                .pending_sends
                .lock()
                .remove(&(kind, agent.clone(), seq));
            if let Some(entry) = entry {
                if kind == Ack::TRANSFER {
                    let rtt = shared.clock_now().saturating_sub(entry.first_sent_ns);
                    shared.journal.histos().record(HistoPath::TransferRtt, rtt);
                    shared.emit_span(
                        entry.ctx,
                        SpanKind::Transfer,
                        &agent,
                        format!("to {} acked after {} attempt(s)", entry.dest, entry.attempt),
                        entry.first_sent_ns,
                        rtt,
                    );
                }
                // The ack is the custody hand-off: the receiver (or the
                // home site) now durably owns the agent's fate, so the
                // local WAL admission is settled.
                if let Some((custody_agent, custody_hop)) = entry.custody {
                    shared.wal_resolve(&custody_agent, custody_hop);
                }
            }
        }
        Message::AgentMail { from, to, data } => {
            if !shared.local_mail(from.clone(), to.clone(), data) {
                shared.reject(
                    RejectKind::MailDenied,
                    format!("no resident agent {to} (mail from {from})"),
                );
            }
        }
        Message::StatusQuery { query_id, agent } => {
            let status = match shared.domains.record_of(&agent) {
                Some(rec) => AgentStatus::Resident {
                    owner: rec.owner,
                    creator: rec.creator,
                    fuel_used: rec.usage.fuel,
                    bindings: rec.bindings,
                },
                None => AgentStatus::NotResident,
            };
            let reply = Message::StatusReply {
                query_id,
                agent,
                status,
            };
            if let Err(e) = shared.send_message(&sender, &reply) {
                shared.reject(RejectKind::ReportUndeliverable, e);
            }
        }
        Message::StatusReply {
            query_id, status, ..
        } => {
            if let Some(reply) = shared.pending_queries.lock().remove(&query_id) {
                let _ = reply.send(Ok(status));
            }
        }
    }
}

/// `wal_log = false` only on the WAL-replay path: the admission being
/// replayed already has an unresolved `Admit` record in the log, so
/// re-appending would only grow it.
#[allow(clippy::too_many_arguments)]
fn handle_transfer(
    shared: &Arc<Shared>,
    credentials: Credentials,
    image: AgentImage,
    hop: u64,
    run_as: Urn,
    arg: Vec<u8>,
    ctx: SpanContext,
    sent_ns: u64,
    wal_log: bool,
    batch: &mut Vec<Box<dyn Task>>,
) {
    // Real-time start of the admission pipeline (credential verification
    // through domain creation) — the Admission span's duration.
    let pipeline_t0 = Instant::now();
    let now = shared.clock_now();

    // 1. Credentials: tamper-evidence, expiry, certification.
    let delegated = match credentials.verify(&shared.roots, now) {
        Ok(rights) => rights,
        Err(e) => {
            shared.reject(
                RejectKind::BadCredentials,
                format!("{}: {e}", credentials.agent),
            );
            return; // nothing about the sender can be trusted; drop.
        }
    };

    // 1b. The executing identity must be the credentialed agent or a
    // child within its name subtree (Section 2: an agent's creator may be
    // another agent). Anything else is an identity-forgery attempt.
    if run_as != credentials.agent && !run_as.is_within(&credentials.agent) {
        shared.reject(
            RejectKind::BadIdentity,
            format!("{} is not within {}", run_as, credentials.agent),
        );
        return;
    }

    // 2. Code: fresh name-space, re-verification, impostor refusal.
    let mut namespace = match Namespace::with_system(&shared.system_modules) {
        Ok(ns) => ns,
        Err(e) => {
            shared.reject(RejectKind::BadImage, format!("system namespace: {e}"));
            return;
        }
    };
    if image.validate().is_err() {
        shared.reject(
            RejectKind::BadImage,
            format!("{run_as}: inconsistent image"),
        );
        shared.report_home(
            &run_as,
            &credentials,
            ReportStatus::Refused("inconsistent image".into()),
            Some((ctx.trace, ctx.span)),
            None,
        );
        return;
    }
    let verified = match namespace.load(image.module.clone()) {
        Ok(v) => v,
        Err(e) => {
            let kind = if matches!(e, ajanta_vm::LoadError::ShadowsSystemModule(_)) {
                RejectKind::ImpostorModule
            } else {
                RejectKind::BadImage
            };
            shared.reject(kind, format!("{run_as}: {e}"));
            shared.report_home(
                &run_as,
                &credentials,
                ReportStatus::Refused(e.to_string()),
                Some((ctx.trace, ctx.span)),
                None,
            );
            return;
        }
    };

    // 3. Authorization: server policy ∩ owner delegation.
    let authorization =
        shared
            .policy
            .read()
            .authorize(&credentials.agent, &credentials.owner, &delegated);

    // 4. Domain creation. For a dispatched child, the creator is the
    // parent agent; otherwise the credentialed creator.
    let creator = if run_as == credentials.agent {
        credentials.creator.clone()
    } else {
        credentials.agent.clone()
    };
    let domain = match shared.domains.admit(
        DomainId::SERVER,
        run_as.clone(),
        credentials.owner.clone(),
        creator,
        credentials.home.clone(),
        authorization.clone(),
        shared.agent_limits,
    ) {
        Ok(d) => d,
        Err(e) => {
            shared.reject(RejectKind::DuplicateAgent, e.to_string());
            shared.report_home(
                &run_as,
                &credentials,
                ReportStatus::Refused(e.to_string()),
                Some((ctx.trace, ctx.span)),
                None,
            );
            return;
        }
    };
    shared.journal.append(Event::AgentAdmitted {
        agent: run_as.clone(),
        domain,
        hop,
    });
    // Durability point (tentpole): log the admission before this tick's
    // outbox — carrying the ack queued above — is flushed. After this
    // line a crash cannot lose the agent: either the ack never left (the
    // sender retries) or the WAL replays it.
    if wal_log && shared.wal.is_some() {
        shared.wal_admit(crate::bundle::AgentBundle {
            agent: run_as.clone(),
            hop,
            credentials: credentials.clone(),
            image: image.clone(),
            arg: arg.clone(),
            ctx,
            warm: None,
        });
    }

    // End-to-end hop latency on the virtual clock: from the sender's
    // first transmission to successful admission here — includes every
    // retry and fallback redirection the frame survived.
    shared
        .journal
        .histos()
        .record(HistoPath::HopLatency, now.saturating_sub(sent_ns));
    // The Admission span is a child of the transfer that delivered the
    // agent; everything the agent does on this server descends from it.
    let admission_ctx = SpanContext {
        trace: ctx.trace,
        span: shared.journal.mint_span(),
        parent: Some(ctx.span),
    };
    shared.emit_span(
        admission_ctx,
        SpanKind::Admission,
        &run_as,
        format!("hop {hop}"),
        now,
        pipeline_t0.elapsed().as_nanos() as u64,
    );

    // Scheduling the agent's domain — still mediated by the monitor
    // (Section 5.3: thread-group manipulation is privileged), though the
    // "thread" is now a cooperative task on the shared worker pool.
    if shared
        .monitor
        .check(DomainId::SERVER, SystemOp::CreateThread { target: domain })
        .is_err()
    {
        return; // unreachable with the default policy; defensive.
    }

    shared.stats.agents_hosted.fetch_add(1, Ordering::Relaxed);
    batch.push(Box::new(AgentTask {
        shared: Arc::clone(shared),
        domain,
        credentials,
        entry: image.entry.clone(),
        module: image.module.clone(),
        hop,
        run_as,
        admission_ctx,
        state: TaskState::Cold {
            verified,
            globals: image.globals,
            arg,
            authorization,
        },
    }));
}

/// One admitted agent as a resumable scheduler task.
///
/// Admission leaves the agent **cold**: the serialized image plus its
/// admission artifacts, no interpreter, no stack — that is all a parked
/// agent costs, which is what lets a server hold 100k of them. The first
/// slice warms it up (environment + interpreter + entry frame); every
/// slice after that resumes the parked call stack inside the
/// interpreter. When a slice returns [`SliceOutcome::Done`] the task
/// performs exactly what the old per-agent thread did after `run()`:
/// fuel accounting, eviction-before-report, and the outcome dispatch.
struct AgentTask {
    shared: Arc<Shared>,
    domain: DomainId,
    credentials: Credentials,
    /// Entry function name (from the image; needed for error texts).
    entry: String,
    /// The unverified module, kept for re-packaging on `go`.
    module: Module,
    hop: u64,
    run_as: Urn,
    admission_ctx: SpanContext,
    state: TaskState,
}

enum TaskState {
    /// Admitted, never run: image-only residency.
    Cold {
        verified: Arc<VerifiedModule>,
        globals: Vec<Value>,
        arg: Vec<u8>,
        authorization: Rights,
    },
    /// Executing or suspended mid-run; the interpreter holds the parked
    /// call stack between slices.
    Warm {
        env: Box<AgentEnv>,
        interp: Box<Interpreter>,
    },
    /// Finished (reported/migrated); only observed transiently.
    Done,
}

impl Task for AgentTask {
    fn run_slice(&mut self) -> bool {
        if matches!(self.state, TaskState::Cold { .. }) {
            let TaskState::Cold {
                verified,
                globals,
                arg,
                authorization,
            } = std::mem::replace(&mut self.state, TaskState::Done)
            else {
                unreachable!("state checked above");
            };
            let mut env = AgentEnv::new(
                Arc::clone(&self.shared),
                self.domain,
                self.run_as.clone(),
                self.credentials.clone(),
                authorization,
                self.admission_ctx,
            );
            env.set_module(Arc::clone(&verified));
            let mut interp = Interpreter::new(verified, self.shared.vm_limits);
            if !interp.restore_globals(globals) {
                // Evict before reporting: once the home site sees a
                // report, this server must already show no residue for
                // the agent.
                let _ = self.shared.domains.evict(DomainId::SERVER, self.domain);
                self.shared.report_home(
                    &self.run_as,
                    &self.credentials,
                    ReportStatus::Refused("global mismatch".into()),
                    self.parent(),
                    Some((self.run_as.clone(), self.hop)),
                );
                return true;
            }
            // By convention an empty entry argument means "the current
            // server's name"; a dispatching parent may have chosen a
            // payload instead.
            let entry_arg = if arg.is_empty() {
                Value::str(self.shared.name().to_string())
            } else {
                Value::Bytes(arg)
            };
            interp.start(&self.entry, vec![entry_arg]);
            self.state = TaskState::Warm {
                env: Box::new(env),
                interp: Box::new(interp),
            };
        }
        let slice_fuel = self.shared.sched.slice_fuel();
        let TaskState::Warm { env, interp } = &mut self.state else {
            return true; // Done: defensive, a finished task is never requeued
        };
        match interp.run_slice(slice_fuel, &mut **env) {
            SliceOutcome::Yielded => self.try_hibernate(),
            SliceOutcome::Done(outcome) => {
                let TaskState::Warm { env, interp } =
                    std::mem::replace(&mut self.state, TaskState::Done)
                else {
                    unreachable!("state checked above");
                };
                self.complete(*env, *interp, outcome);
                true
            }
        }
    }

    fn journal(&self) -> &Arc<Journal> {
        &self.shared.journal
    }

    fn is_warm(&self) -> bool {
        matches!(self.state, TaskState::Warm { .. })
    }
}

impl AgentTask {
    fn parent(&self) -> Option<(TraceId, SpanId)> {
        Some((self.admission_ctx.trace, self.admission_ctx.span))
    }

    /// Spills this agent to the bundle store when it is demonstrably
    /// idle — enough consecutive empty mail polls, no live proxies whose
    /// leases would silently expire, no pending migration. Returns `true`
    /// (task done, never requeued) when the agent hibernated; the bundle
    /// holds everything [`Shared::wake_agent`] needs, the domain stays
    /// admitted (the agent is still *resident*, just not *running*), and
    /// the mailbox stays so late mail queues across the gap.
    fn try_hibernate(&mut self) -> bool {
        let requested = self.shared.hibernate_requests.lock().contains(&self.run_as);
        {
            let TaskState::Warm { env, .. } = &self.state else {
                return false;
            };
            // Safety gates apply unconditionally: live proxies would
            // silently expire in the bundle, and a pending migration
            // must run to completion.
            if env.binding_count() != 0 || env.pending_go().is_some() {
                return false;
            }
            // A control-plane request bypasses the idle-miss threshold
            // (and works even when auto-hibernation is off); otherwise
            // the agent must be demonstrably idle and not held awake by
            // an explicit wake.
            if !requested {
                let Some(threshold) = self.shared.hibernate_after_misses else {
                    return false;
                };
                if env.held_awake() || env.mail_misses() < threshold {
                    return false;
                }
            }
        }
        let t0 = Instant::now();
        let TaskState::Warm { env, interp } = std::mem::replace(&mut self.state, TaskState::Done)
        else {
            unreachable!("state checked above");
        };
        let (rng_state, children, last_sender) = env.export_session();
        let bundle = crate::bundle::AgentBundle {
            agent: self.run_as.clone(),
            hop: self.hop,
            credentials: self.credentials.clone(),
            image: AgentImage {
                module: self.module.clone(),
                globals: interp.globals().to_vec(),
                entry: self.entry.clone(),
            },
            arg: Vec::new(),
            ctx: self.admission_ctx,
            warm: Some(crate::bundle::WarmState {
                interp: interp.export_state(),
                rng_state,
                children,
                last_sender,
            }),
        };
        match self.shared.bundles.put(&bundle) {
            Ok(bytes) => {
                self.shared.hibernate_requests.lock().remove(&self.run_as);
                self.shared.journal.append(Event::AgentHibernated {
                    agent: self.run_as.clone(),
                    hop: self.hop,
                    bytes: bytes as u64,
                });
                self.shared
                    .journal
                    .histos()
                    .record(HistoPath::HibernateLatency, t0.elapsed().as_nanos() as u64);
                // Mail may have been delivered between the last empty
                // poll and the spill: re-check now that the bundle is
                // visible. `take` is atomic, so this self-wake and any
                // concurrent deliverer's wake revive exactly one copy.
                if self.shared.has_mail(&self.run_as) {
                    self.shared.wake_agent(&self.run_as, false);
                }
                true
            }
            Err(_) => {
                // Spill failed (disk store trouble): keep running warm.
                self.state = TaskState::Warm { env, interp };
                false
            }
        }
    }

    /// Everything that happens after the agent's last instruction:
    /// identical to the tail of the old per-agent-thread `run_agent`.
    fn complete(&self, env: AgentEnv, interp: Interpreter, outcome: ExecOutcome) {
        let shared = &self.shared;
        let credentials = &self.credentials;
        let run_as = &self.run_as;
        let (domain, hop) = (self.domain, self.hop);
        let parent = self.parent();
        // The WAL admission this stay's outcome settles, resolved when
        // the outcome's frame (report or onward transfer) is acked.
        let custody = || Some((run_as.clone(), hop));

        // Account fuel against the domain quota (for status queries; the
        // interpreter's own limit already bounded the run).
        let _ = shared
            .domains
            .charge_fuel(DomainId::SERVER, domain, interp.fuel_used());

        // Departure happens BEFORE any completion report or onward transfer:
        // the home site (or next hop) learning the agent's fate must
        // happen-after this server has cleared its residue, so "all reports
        // in" implies "no domains left" — the isolation invariant X12 checks.
        // Installed resources stay.
        shared.mailbox_shard(run_as).lock().remove(run_as);
        let _ = shared.domains.evict(DomainId::SERVER, domain);

        match outcome {
            ExecOutcome::Finished(v) => {
                shared.report_home(
                    run_as,
                    credentials,
                    ReportStatus::Completed(v.display_lossy()),
                    parent,
                    custody(),
                );
            }
            ExecOutcome::HostStopped { .. } => {
                let pending = env.pending_go().cloned();
                match pending {
                    Some(go) => {
                        // Re-package: same code, current globals, new entry.
                        let image = AgentImage {
                            module: self.module.clone(),
                            globals: interp.globals().to_vec(),
                            entry: go.entry,
                        };
                        if image.validate().is_err() {
                            shared.report_home(
                                run_as,
                                credentials,
                                ReportStatus::Failed(format!(
                                    "go: entry {:?} missing or misshapen",
                                    image.entry
                                )),
                                parent,
                                custody(),
                            );
                        } else {
                            shared.stats.transfers_out.fetch_add(1, Ordering::Relaxed);
                            shared.journal.append(Event::AgentDispatched {
                                agent: run_as.clone(),
                                dest: go.dest.clone(),
                            });
                            // The onward leg is a sibling of the agent's
                            // other on-server spans: a fresh transfer span
                            // under this hop's admission.
                            let msg = Message::Transfer {
                                run_as: run_as.clone(),
                                credentials: credentials.clone(),
                                image,
                                hop: hop + 1,
                                arg: Vec::new(),
                                ctx: self.admission_ctx.child(shared.journal.mint_span()),
                                sent_ns: shared.clock_now(),
                            };
                            // go_tour's itinerary tail rides along as the
                            // dead-stop recovery plan; plain go has none.
                            if let Err(e) = shared.send_transfer(
                                &go.dest,
                                msg,
                                run_as.clone(),
                                hop + 1,
                                go.fallbacks.clone(),
                                credentials.clone(),
                                custody(),
                            ) {
                                shared.report_home(
                                    run_as,
                                    credentials,
                                    ReportStatus::Failed(format!(
                                        "go toward {} failed: {e}",
                                        go.dest
                                    )),
                                    parent,
                                    custody(),
                                );
                            }
                        }
                    }
                    None => {
                        shared.report_home(
                            run_as,
                            credentials,
                            ReportStatus::Failed("host stop without destination".into()),
                            parent,
                            custody(),
                        );
                    }
                }
            }
            ExecOutcome::Trapped { kind, func, ip } => {
                shared.report_home(
                    run_as,
                    credentials,
                    ReportStatus::Failed(format!("trap at fn#{func}@{ip}: {kind}")),
                    parent,
                    custody(),
                );
            }
            ExecOutcome::OutOfFuel => {
                shared.report_home(
                    run_as,
                    credentials,
                    ReportStatus::QuotaExceeded("instruction fuel exhausted".into()),
                    parent,
                    custody(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: `Duration * u32` aborts on overflow in both debug and
    /// release. A generously configured `ack_grace` crossed with the
    /// per-attempt doubling used to do exactly that around attempt 11;
    /// now both the multiplication and the result saturate at the
    /// ceiling.
    #[test]
    fn ack_grace_backoff_saturates_instead_of_panicking() {
        let policy = RetryPolicy {
            ack_grace: Duration::from_secs(u64::MAX / 2),
            ..RetryPolicy::default()
        };
        for attempt in [0, 1, 2, 10, 11, 12, 31, 32, 64, u32::MAX] {
            assert_eq!(policy.grace(attempt), MAX_ACK_GRACE);
        }
    }

    /// The intended shape below the ceiling: doubles per attempt, factor
    /// capped at 2^10, absolute wait capped at [`MAX_ACK_GRACE`].
    #[test]
    fn ack_grace_doubles_then_hits_both_ceilings() {
        let policy = RetryPolicy {
            ack_grace: Duration::from_millis(10),
            ..RetryPolicy::default()
        };
        assert_eq!(policy.grace(1), Duration::from_millis(10));
        assert_eq!(policy.grace(2), Duration::from_millis(20));
        assert_eq!(policy.grace(5), Duration::from_millis(160));
        // The doubling factor freezes at 2^10...
        assert_eq!(policy.grace(11), Duration::from_millis(10_240));
        assert_eq!(policy.grace(64), Duration::from_millis(10_240));
        // ...and a wider base clamps to the one-minute ceiling instead.
        let wide = RetryPolicy {
            ack_grace: Duration::from_secs(1),
            ..RetryPolicy::default()
        };
        assert_eq!(wide.grace(10), MAX_ACK_GRACE);
    }
}
