//! Dynamically created, per-agent resource proxies (paper Fig. 5 and
//! Section 5.5) — the central artifact of the paper.
//!
//! *"When an agent first makes a request to access a resource, the server
//! consults the security policy and constructs a resource proxy, which is
//! an object with a safe interface to the resource. If the agent is not
//! trusted, certain operations on the resource may be disabled. A separate
//! proxy is created for each agent. The agent only has a reference to the
//! proxy, and its restricted interface ensures that the agent can only
//! access the resource in a safe manner."*
//!
//! Extensions implemented here, from Section 5.5's "Accounting and
//! Revocation":
//!
//! * **per-method enable/disable** — a disabled method raises a security
//!   exception (Fig. 5's `isEnabled` check);
//! * **usage metering and accounting** — invocation counts per method,
//!   per-method tariffs, and elapsed-time metering;
//! * **expiration** — after `not_after`, every invocation raises;
//! * **selective revocation** — the resource manager can invalidate the
//!   proxy, or revoke/add individual method permissions, at any time, via
//!   privileged methods guarded by a management ACL of protection domains;
//! * **identity-based capability confinement** — the proxy records the
//!   protection domain it was granted to and refuses invocations from any
//!   other domain, so passing the reference to another agent is useless
//!   (Gong's identity-based capabilities, the paper's citation [6]).
//!
//! # The interned-method fast path
//!
//! The paper's performance claim (Section 5.4) is that a proxy amortizes
//! the identity → rights evaluation, so each invocation costs barely more
//! than a direct call. To honor that, every per-invocation structure here
//! is keyed by [`MethodId`] and backed by atomics:
//!
//! * the enabled set is an `AtomicU64` **bitmask** for method ids < 64
//!   (interfaces wider than 64 methods spill the remainder into an
//!   `RwLock` side set — the lock is consulted only for ids ≥ 64, so
//!   ordinary interfaces never touch it);
//! * expiry is an `AtomicU64` with `u64::MAX` meaning "never expires", so
//!   the check is one load and one compare — no `Option`, no lock;
//! * the meter is **bound** at proxy-creation time ([`Meter`] is the
//!   string-keyed builder; [`BoundMeter`] holds a per-id tariff array and
//!   per-id `AtomicU64` counters).
//!
//! [`ProxyControl::check_id`] + [`BoundMeter`] recording therefore perform
//! **no heap allocation and take no lock** on the grant path. The
//! string-keyed methods ([`ProxyControl::check`], enable/disable by name)
//! remain as thin compatibility shims that resolve through the proxy's
//! [`MethodTable`] first.
//!
//! The actual resource reference is private to the proxy (Rust privacy ≈
//! the paper's use of Java encapsulation): holding a [`ResourceProxy`]
//! gives no way to reach the underlying [`Resource`] object directly.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ajanta_naming::Urn;
use ajanta_vm::Value;
use parking_lot::RwLock;

use crate::domain::DomainId;
use crate::resource::{MethodId, MethodTable, Resource, ResourceError};
use crate::telemetry::{Event, Journal, JournalHook};

/// Access-control failure raised by a proxy — the "security exception" of
/// Fig. 5 — or an application error forwarded from the resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// The proxy was revoked by the resource manager.
    Revoked,
    /// The proxy expired.
    Expired {
        /// Expiry instant.
        not_after: u64,
        /// Invocation instant.
        now: u64,
    },
    /// The method is not in the enabled set.
    MethodDisabled(String),
    /// The caller is not the domain this capability was granted to.
    NotHolder {
        /// Domain the proxy was granted to.
        holder: DomainId,
        /// Domain that attempted the call.
        caller: DomainId,
    },
    /// The caller is not on the management ACL for privileged methods.
    ManagementDenied(DomainId),
    /// Access was denied at proxy-creation time by the embedded policy.
    PolicyDenied {
        /// Resource that refused.
        resource: Urn,
        /// Why.
        reason: String,
    },
    /// The resource method itself failed (application-level).
    Resource(ResourceError),
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessError::Revoked => f.write_str("proxy revoked"),
            AccessError::Expired { not_after, now } => {
                write!(f, "proxy expired at {not_after}, now {now}")
            }
            AccessError::MethodDisabled(m) => write!(f, "method disabled: {m}"),
            AccessError::NotHolder { holder, caller } => {
                write!(f, "capability held by {holder}, invoked from {caller}")
            }
            AccessError::ManagementDenied(d) => {
                write!(f, "{d} may not manage this proxy")
            }
            AccessError::PolicyDenied { resource, reason } => {
                write!(f, "access to {resource} denied: {reason}")
            }
            AccessError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AccessError {}

impl From<ResourceError> for AccessError {
    fn from(e: ResourceError) -> Self {
        AccessError::Resource(e)
    }
}

/// How usage is metered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeterMode {
    /// No metering (cheapest).
    #[default]
    Off,
    /// Count invocations per method and apply tariffs.
    Count,
    /// Count and also accumulate wall-clock execution time of the
    /// underlying method ("metering the elapsed time for method execution
    /// and then basing the charges on it").
    CountAndTime,
}

/// Accumulated usage for one proxy (a snapshot; see
/// [`BoundMeter::reading`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MeterReading {
    /// Successful invocations per method (methods never invoked have no
    /// entry).
    pub per_method: BTreeMap<String, u64>,
    /// Total successful invocations.
    pub total: u64,
    /// Total charge under the configured tariffs.
    pub charge: u64,
    /// Accumulated method execution time (real nanoseconds), when
    /// time-metering is on.
    pub elapsed_ns: u64,
}

/// Metering **configuration** — the string-keyed builder a resource owner
/// writes tariffs into. At proxy creation it is bound against the
/// resource's [`MethodTable`] into a [`BoundMeter`], which is what actually
/// counts (per-id atomic counters; no strings, no locks).
#[derive(Debug, Clone, Default)]
pub struct Meter {
    mode: MeterMode,
    /// Cost charged per successful call of each method; methods absent
    /// from the map cost `default_tariff`.
    tariffs: BTreeMap<String, u64>,
    default_tariff: u64,
}

impl Meter {
    /// No metering.
    pub fn off() -> Self {
        Meter::default()
    }

    /// Invocation counting with a flat tariff.
    pub fn counting(default_tariff: u64) -> Self {
        Meter {
            mode: MeterMode::Count,
            default_tariff,
            ..Default::default()
        }
    }

    /// Counting plus elapsed-time accumulation.
    pub fn timed(default_tariff: u64) -> Self {
        Meter {
            mode: MeterMode::CountAndTime,
            default_tariff,
            ..Default::default()
        }
    }

    /// Sets a per-method tariff ("possibly assigning different costs to
    /// different methods").
    pub fn with_tariff(mut self, method: impl Into<String>, cost: u64) -> Self {
        self.tariffs.insert(method.into(), cost);
        self
    }

    /// The metering mode.
    pub fn mode(&self) -> MeterMode {
        self.mode
    }

    /// Binds the configuration against a method table: tariffs become a
    /// per-id array, counters become per-id atomics. Tariffs naming
    /// methods outside the table are dropped (they could never be
    /// invoked).
    fn bind(self, table: &Arc<MethodTable>) -> BoundMeter {
        let mut tariffs = vec![self.default_tariff; table.len()];
        for (name, cost) in &self.tariffs {
            if let Some(MethodId(id)) = table.id(name) {
                tariffs[id as usize] = *cost;
            }
        }
        BoundMeter {
            mode: self.mode,
            table: Arc::clone(table),
            tariffs: tariffs.into_boxed_slice(),
            counts: (0..table.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            charge: AtomicU64::new(0),
            elapsed_ns: AtomicU64::new(0),
        }
    }
}

/// The live metering state inside a proxy: per-[`MethodId`] tariffs and
/// atomic counters bound from a [`Meter`] at proxy creation. Recording is
/// lock-free and allocation-free; [`BoundMeter::reading`] reconstructs the
/// string-keyed snapshot on demand (cold path).
#[derive(Debug)]
pub struct BoundMeter {
    mode: MeterMode,
    table: Arc<MethodTable>,
    tariffs: Box<[u64]>,
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    charge: AtomicU64,
    elapsed_ns: AtomicU64,
}

impl BoundMeter {
    /// The metering mode.
    pub fn mode(&self) -> MeterMode {
        self.mode
    }

    /// Records one metered invocation; returns the units charged
    /// (`None` when metering is off or the id is out of range), which is
    /// what [`ProxyControl::record_use_id`] publishes as a
    /// [`Event::MeterCharge`] when a journal is attached.
    #[inline]
    fn record(&self, MethodId(id): MethodId, elapsed_ns: u64) -> Option<u64> {
        if self.mode == MeterMode::Off {
            return None;
        }
        let id = id as usize;
        if id >= self.counts.len() {
            return None;
        }
        self.counts[id].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        let amount = self.tariffs[id];
        self.charge.fetch_add(amount, Ordering::Relaxed);
        if self.mode == MeterMode::CountAndTime {
            self.elapsed_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        }
        Some(amount)
    }

    /// Snapshot of the accumulated usage, with method names resolved back
    /// through the table. Methods with zero invocations are omitted,
    /// matching the lazily-populated map of the pre-interning design.
    pub fn reading(&self) -> MeterReading {
        let mut per_method = BTreeMap::new();
        for (i, count) in self.counts.iter().enumerate() {
            let n = count.load(Ordering::Relaxed);
            if n > 0 {
                if let Some(name) = self.table.name(MethodId(i as u16)) {
                    per_method.insert(name.to_string(), n);
                }
            }
        }
        MeterReading {
            per_method,
            total: self.total.load(Ordering::Relaxed),
            charge: self.charge.load(Ordering::Relaxed),
            elapsed_ns: self.elapsed_ns.load(Ordering::Relaxed),
        }
    }
}

/// Sentinel in the `not_after` atomic meaning "never expires" (virtual
/// time never reaches `u64::MAX`, so a single `now > t` compare covers
/// both cases).
const NEVER: u64 = u64::MAX;

/// How many method ids the atomic bitmask covers; ids beyond it use the
/// spill set.
const MASK_BITS: u16 = 64;

/// The control block shared between a proxy and its resource manager.
///
/// The manager keeps an `Arc<ProxyControl>` after `get_proxy`, which is
/// what makes *"a resource manager can invalidate any of its currently
/// active proxies at any time it wishes"* work: revocation takes effect on
/// the very next invocation, with no cooperation from the agent.
///
/// All per-invocation state is atomic (see the module docs); the one lock
/// ([`spill`](#structfield.enabled_spill)) guards enabled bits for method
/// ids ≥ 64 and is only consulted when such an id is checked.
#[derive(Debug)]
pub struct ProxyControl {
    /// Domain the capability was granted to.
    holder: DomainId,
    /// Domains allowed to call privileged (management) methods.
    managers: BTreeSet<DomainId>,
    /// The proxied interface's interned method universe.
    table: Arc<MethodTable>,
    /// Enabled bits for method ids 0..64.
    enabled_mask: AtomicU64,
    /// Enabled ids ≥ 64 — the documented spill path for interfaces wider
    /// than the mask. Checked only for such ids.
    enabled_spill: RwLock<BTreeSet<u16>>,
    /// Expiry instant; [`NEVER`] when the proxy does not expire.
    not_after: AtomicU64,
    /// `SeqCst` so "no call succeeds after `revoke` returns" holds across
    /// threads (the revocation-race test relies on it).
    revoked: AtomicBool,
    meter: BoundMeter,
    /// Optional telemetry attachment (made at bind time by the runtime).
    /// While detached — the default, and the state in every
    /// direct-proxy benchmark — the hot path pays a single relaxed
    /// atomic load.
    journal: JournalHook,
}

impl ProxyControl {
    /// Creates a control block over an interned interface.
    ///
    /// * `holder` — the protection domain receiving the capability;
    /// * `managers` — domains allowed to revoke/adjust it (the resource
    ///   owner's domain; the server domain is always included);
    /// * `table` — the resource's method universe (ids are interpreted
    ///   against it);
    /// * `enabled` — initially enabled method ids;
    /// * `not_after` — optional expiry;
    /// * `meter` — accounting configuration, bound against `table` here.
    pub fn new(
        holder: DomainId,
        managers: impl IntoIterator<Item = DomainId>,
        table: Arc<MethodTable>,
        enabled: impl IntoIterator<Item = MethodId>,
        not_after: Option<u64>,
        meter: Meter,
    ) -> Arc<Self> {
        let mut managers: BTreeSet<DomainId> = managers.into_iter().collect();
        managers.insert(DomainId::SERVER);
        let mut mask = 0u64;
        let mut spill = BTreeSet::new();
        for MethodId(id) in enabled {
            if id < MASK_BITS {
                mask |= 1 << id;
            } else {
                spill.insert(id);
            }
        }
        let meter = meter.bind(&table);
        Arc::new(ProxyControl {
            holder,
            managers,
            table,
            enabled_mask: AtomicU64::new(mask),
            enabled_spill: RwLock::new(spill),
            not_after: AtomicU64::new(not_after.unwrap_or(NEVER)),
            revoked: AtomicBool::new(false),
            meter,
            journal: JournalHook::new(),
        })
    }

    /// String-keyed compatibility constructor: resolves `enabled` names
    /// through `table`. Names outside the table are dropped — they could
    /// never be invoked on the resource anyway.
    pub fn new_named<I, S>(
        holder: DomainId,
        managers: impl IntoIterator<Item = DomainId>,
        table: Arc<MethodTable>,
        enabled: I,
        not_after: Option<u64>,
        meter: Meter,
    ) -> Arc<Self>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let ids: Vec<MethodId> = enabled
            .into_iter()
            .filter_map(|name| table.id(name.as_ref()))
            .collect();
        Self::new(holder, managers, table, ids, not_after, meter)
    }

    /// The domain this capability belongs to.
    pub fn holder(&self) -> DomainId {
        self.holder
    }

    /// The interned method universe this control block interprets ids
    /// against.
    pub fn table(&self) -> &Arc<MethodTable> {
        &self.table
    }

    /// Pre-invocation checks, in a fixed order: revocation, expiry,
    /// confinement, enablement. Factored out so the typed proxies in
    /// [`crate::buffer`] and the generated proxies in [`crate::proxygen`]
    /// share exactly this logic.
    ///
    /// **Fast path**: for method ids < 64 this is three atomic loads and
    /// compares — no lock, no allocation. Ids ≥ 64 read the spill set
    /// under a read lock (the documented wide-interface path).
    #[inline]
    pub fn check_id(
        &self,
        caller: DomainId,
        method: MethodId,
        now: u64,
    ) -> Result<(), AccessError> {
        if self.revoked.load(Ordering::SeqCst) {
            return Err(AccessError::Revoked);
        }
        let t = self.not_after.load(Ordering::Acquire);
        if now > t {
            self.journal.with(|j, resource| {
                j.append(Event::ProxyExpiry {
                    resource: resource.clone(),
                    holder: self.holder,
                    not_after: t,
                })
            });
            return Err(AccessError::Expired { not_after: t, now });
        }
        if caller != self.holder {
            return Err(AccessError::NotHolder {
                holder: self.holder,
                caller,
            });
        }
        let MethodId(id) = method;
        let enabled = if id < MASK_BITS {
            self.enabled_mask.load(Ordering::Acquire) & (1 << id) != 0
        } else {
            self.enabled_spill.read().contains(&id)
        };
        if !enabled {
            return Err(AccessError::MethodDisabled(
                self.method_label(method).to_string(),
            ));
        }
        Ok(())
    }

    /// String-keyed compatibility shim over [`ProxyControl::check_id`]:
    /// resolves `method` through the table first. Unknown methods fail
    /// `MethodDisabled` after the same revocation/expiry/confinement
    /// checks, preserving the pre-interning check order.
    pub fn check(&self, caller: DomainId, method: &str, now: u64) -> Result<(), AccessError> {
        match self.table.id(method) {
            Some(id) => self.check_id(caller, id, now),
            None => self
                .check_id(caller, MethodId(u16::MAX), now)
                .and(Err(AccessError::MethodDisabled(method.to_string())))
                .map_err(|e| match e {
                    AccessError::MethodDisabled(_) => {
                        AccessError::MethodDisabled(method.to_string())
                    }
                    other => other,
                }),
        }
    }

    /// Records one successful invocation in the meter (lock-free), and —
    /// when a journal is attached and the invocation was metered —
    /// publishes the charge as an [`Event::MeterCharge`].
    #[inline]
    pub fn record_use_id(&self, method: MethodId, elapsed_ns: u64) {
        if let Some(amount) = self.meter.record(method, elapsed_ns) {
            self.journal.with(|j, resource| {
                j.append(Event::MeterCharge {
                    resource: resource.clone(),
                    holder: self.holder,
                    method: self.method_label(method),
                    amount,
                })
            });
        }
    }

    /// String-keyed compatibility shim over
    /// [`ProxyControl::record_use_id`]. Unknown methods are not recorded.
    pub fn record_use(&self, method: &str, elapsed_ns: u64) {
        if let Some(id) = self.table.id(method) {
            self.record_use_id(id, elapsed_ns);
        }
    }

    /// Attaches a telemetry journal: subsequent charges, revocations, and
    /// expiries of this proxy are published to it, tagged with `resource`.
    /// Called by the runtime at bind time; standalone proxies stay
    /// detached and pay (almost) nothing.
    pub fn attach_journal(&self, journal: Arc<Journal>, resource: Urn) {
        self.journal.attach(journal, resource);
    }

    /// The bound meter (for reading accumulated charges).
    pub fn meter(&self) -> &BoundMeter {
        &self.meter
    }

    fn require_manager(&self, caller: DomainId) -> Result<(), AccessError> {
        if self.managers.contains(&caller) {
            Ok(())
        } else {
            Err(AccessError::ManagementDenied(caller))
        }
    }

    fn method_label(&self, id: MethodId) -> Arc<str> {
        self.table
            .label(id)
            .cloned()
            .unwrap_or_else(|| id.to_string().into())
    }

    /// Privileged: invalidates the proxy permanently. After this returns,
    /// no in-flight or future invocation passes the check.
    pub fn revoke(&self, caller: DomainId) -> Result<(), AccessError> {
        self.require_manager(caller)?;
        self.revoked.store(true, Ordering::SeqCst);
        self.journal.with(|j, resource| {
            j.append(Event::ProxyRevoke {
                resource: resource.clone(),
                holder: self.holder,
            })
        });
        Ok(())
    }

    /// Privileged: removes one method id from the enabled set
    /// ("selectively revoke ... permissions for specific methods of a
    /// given proxy"). Returns whether the method had been enabled.
    pub fn disable_id(&self, caller: DomainId, method: MethodId) -> Result<bool, AccessError> {
        self.require_manager(caller)?;
        let MethodId(id) = method;
        if id < MASK_BITS {
            let bit = 1u64 << id;
            Ok(self.enabled_mask.fetch_and(!bit, Ordering::SeqCst) & bit != 0)
        } else {
            Ok(self.enabled_spill.write().remove(&id))
        }
    }

    /// Privileged: adds one method id to the enabled set ("or add
    /// permissions"). Returns whether the method was newly enabled.
    pub fn enable_id(&self, caller: DomainId, method: MethodId) -> Result<bool, AccessError> {
        self.require_manager(caller)?;
        let MethodId(id) = method;
        if id < MASK_BITS {
            let bit = 1u64 << id;
            Ok(self.enabled_mask.fetch_or(bit, Ordering::SeqCst) & bit == 0)
        } else {
            Ok(self.enabled_spill.write().insert(id))
        }
    }

    /// String-keyed shim over [`ProxyControl::disable_id`]. Disabling a
    /// method the interface does not have returns `Ok(false)` (it was
    /// never enabled).
    pub fn disable_method(&self, caller: DomainId, method: &str) -> Result<bool, AccessError> {
        match self.table.id(method) {
            Some(id) => self.disable_id(caller, id),
            None => {
                self.require_manager(caller)?;
                Ok(false)
            }
        }
    }

    /// String-keyed shim over [`ProxyControl::enable_id`]. Enabling a
    /// method the interface does not have returns `Ok(false)`: such a
    /// method could never be dispatched, so there is no bit to set. (The
    /// pre-interning design would store the useless name; this is the one
    /// deliberate semantic change of the interning refactor.)
    pub fn enable_method(
        &self,
        caller: DomainId,
        method: impl Into<String>,
    ) -> Result<bool, AccessError> {
        let method = method.into();
        match self.table.id(&method) {
            Some(id) => self.enable_id(caller, id),
            None => {
                self.require_manager(caller)?;
                Ok(false)
            }
        }
    }

    /// Privileged: changes the expiry instant (`None` = never).
    pub fn set_expiry(&self, caller: DomainId, not_after: Option<u64>) -> Result<(), AccessError> {
        self.require_manager(caller)?;
        self.not_after
            .store(not_after.unwrap_or(NEVER), Ordering::Release);
        Ok(())
    }

    /// Whether the proxy has been revoked.
    pub fn is_revoked(&self) -> bool {
        self.revoked.load(Ordering::SeqCst)
    }

    /// Whether one method id is currently enabled.
    pub fn is_enabled(&self, method: MethodId) -> bool {
        let MethodId(id) = method;
        if id < MASK_BITS {
            self.enabled_mask.load(Ordering::Acquire) & (1 << id) != 0
        } else {
            self.enabled_spill.read().contains(&id)
        }
    }

    /// Snapshot of currently enabled methods, lexicographically sorted.
    pub fn enabled_methods(&self) -> Vec<String> {
        let mask = self.enabled_mask.load(Ordering::Acquire);
        let spill = self.enabled_spill.read();
        let mut names: Vec<String> = self
            .table
            .iter()
            .filter(|(MethodId(id), _)| {
                if *id < MASK_BITS {
                    mask & (1 << id) != 0
                } else {
                    spill.contains(id)
                }
            })
            .map(|(_, name)| name.to_string())
            .collect();
        names.sort_unstable();
        names
    }
}

/// The proxy object handed to an agent (Fig. 5's `BufferProxy`,
/// generalized). The underlying resource reference is private.
#[derive(Clone)]
pub struct ResourceProxy {
    resource: Arc<dyn Resource>,
    control: Arc<ProxyControl>,
}

impl ResourceProxy {
    /// Assembles a proxy. Called from `get_proxy` implementations.
    pub fn new(resource: Arc<dyn Resource>, control: Arc<ProxyControl>) -> Self {
        ResourceProxy { resource, control }
    }

    /// The proxied resource's name (safe metadata, not the object).
    pub fn resource_name(&self) -> &Urn {
        self.resource.name()
    }

    /// The shared control block — the handle a resource manager retains
    /// for revocation and accounting. Management methods on it are
    /// ACL-guarded, so exposing it to the agent is harmless.
    pub fn control(&self) -> &Arc<ProxyControl> {
        &self.control
    }

    /// Resolves a method name against the proxied interface — the
    /// bind-time step. Callers that hold the returned id invoke through
    /// [`ResourceProxy::invoke_id`] without ever re-resolving the name.
    pub fn method_id(&self, method: &str) -> Option<MethodId> {
        self.control.table().id(method)
    }

    /// Invokes an interned method through the proxy: access checks,
    /// dispatch, metering. This is the fast path — checks and metering
    /// are atomics only (no lock, no heap allocation on the grant path);
    /// the id → name resolution for dispatch is an array index.
    ///
    /// Argument validation is the resource's own job (every
    /// [`Resource::invoke`] implementation begins with `check_args`), so
    /// the proxy adds **only** the access-control cost — which is what
    /// experiment X4 measures.
    ///
    /// `caller` is the invoking protection domain (supplied by the agent
    /// environment, never by agent code), `now` the current virtual time.
    pub fn invoke_id(
        &self,
        caller: DomainId,
        method: MethodId,
        args: &[Value],
        now: u64,
    ) -> Result<Value, AccessError> {
        // When a journal is attached (bound, server-side proxies), the
        // access check is itself timed into the ProxyCheck histogram;
        // detached proxies (standalone benches) pay one atomic load.
        if self.control.journal.is_attached() {
            let t0 = std::time::Instant::now();
            let checked = self.control.check_id(caller, method, now);
            let dt = t0.elapsed().as_nanos() as u64;
            self.control.journal.with(|j, _| {
                j.histos()
                    .record(crate::telemetry::HistoPath::ProxyCheck, dt)
            });
            checked?;
        } else {
            self.control.check_id(caller, method, now)?;
        }
        let name = self
            .control
            .table()
            .name(method)
            .ok_or(AccessError::Resource(ResourceError::NoSuchMethod(
                String::new(),
            )))?;
        let timed = self.control.meter().mode() == MeterMode::CountAndTime;
        let start = timed.then(std::time::Instant::now);
        let result = self.resource.invoke(name, args)?;
        let elapsed = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        self.control.record_use_id(method, elapsed);
        Ok(result)
    }

    /// String-keyed compatibility shim over [`ResourceProxy::invoke_id`]:
    /// resolves `method` through the method table per call. Prefer
    /// resolving once with [`ResourceProxy::method_id`] and invoking by
    /// id.
    pub fn invoke(
        &self,
        caller: DomainId,
        method: &str,
        args: &[Value],
        now: u64,
    ) -> Result<Value, AccessError> {
        match self.control.table().id(method) {
            Some(id) => self.invoke_id(caller, id, args, now),
            None => {
                // Unknown method: run the same check order against a
                // never-enabled id so revocation/expiry/confinement errors
                // surface identically, then name the method in the error.
                self.control.check(caller, method, now)?;
                Err(AccessError::Resource(ResourceError::NoSuchMethod(
                    method.to_string(),
                )))
            }
        }
    }
}

impl std::fmt::Debug for ResourceProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceProxy")
            .field("resource", self.resource.name())
            .field("holder", &self.control.holder())
            .field("revoked", &self.control.is_revoked())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::MethodSpec;
    use ajanta_vm::Ty;

    /// A counter resource with get/add/reset.
    struct Counter {
        name: Urn,
        owner: Urn,
        table: Arc<MethodTable>,
        value: RwLock<i64>,
    }

    impl Counter {
        fn new() -> Arc<Self> {
            Arc::new(Counter {
                name: Urn::resource("x.org", ["counter"]).unwrap(),
                owner: Urn::owner("x.org", ["admin"]).unwrap(),
                table: MethodTable::new(["get", "add", "reset"]),
                value: RwLock::new(0),
            })
        }
    }

    impl Resource for Counter {
        fn name(&self) -> &Urn {
            &self.name
        }
        fn owner(&self) -> &Urn {
            &self.owner
        }
        fn methods(&self) -> Vec<MethodSpec> {
            vec![
                MethodSpec::new("get", [], Ty::Int),
                MethodSpec::new("add", [Ty::Int], Ty::Int),
                MethodSpec::new("reset", [], Ty::Int),
            ]
        }
        fn method_table(&self) -> Arc<MethodTable> {
            Arc::clone(&self.table)
        }
        fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, ResourceError> {
            self.check_args(method, args)?;
            match method {
                "get" => Ok(Value::Int(*self.value.read())),
                "add" => {
                    let mut v = self.value.write();
                    *v += args[0].as_int().expect("checked");
                    Ok(Value::Int(*v))
                }
                "reset" => {
                    *self.value.write() = 0;
                    Ok(Value::Int(0))
                }
                other => Err(ResourceError::NoSuchMethod(other.into())),
            }
        }
    }

    const AGENT: DomainId = DomainId(7);
    const OTHER: DomainId = DomainId(8);

    fn proxy(enabled: &[&str], not_after: Option<u64>, meter: Meter) -> ResourceProxy {
        let counter = Counter::new();
        let control = ProxyControl::new_named(
            AGENT,
            [],
            counter.method_table(),
            enabled.iter().copied(),
            not_after,
            meter,
        );
        ResourceProxy::new(counter, control)
    }

    #[test]
    fn enabled_methods_pass_through() {
        let p = proxy(&["get", "add"], None, Meter::off());
        assert_eq!(
            p.invoke(AGENT, "add", &[Value::Int(5)], 0).unwrap(),
            Value::Int(5)
        );
        assert_eq!(p.invoke(AGENT, "get", &[], 0).unwrap(), Value::Int(5));
    }

    #[test]
    fn interned_invocation_matches_string_invocation() {
        let p = proxy(&["get", "add"], None, Meter::off());
        let add = p.method_id("add").unwrap();
        let get = p.method_id("get").unwrap();
        assert_eq!(
            p.invoke_id(AGENT, add, &[Value::Int(5)], 0).unwrap(),
            Value::Int(5)
        );
        assert_eq!(p.invoke_id(AGENT, get, &[], 0).unwrap(), Value::Int(5));
        // Ids outside the interface are never enabled.
        assert!(matches!(
            p.invoke_id(AGENT, MethodId(999), &[], 0),
            Err(AccessError::MethodDisabled(_))
        ));
    }

    #[test]
    fn disabled_method_raises_security_exception() {
        let p = proxy(&["get"], None, Meter::off());
        assert_eq!(
            p.invoke(AGENT, "reset", &[], 0),
            Err(AccessError::MethodDisabled("reset".into()))
        );
        // "get" still works — restriction is per-method.
        p.invoke(AGENT, "get", &[], 0).unwrap();
    }

    #[test]
    fn expiry_enforced_per_invocation() {
        let p = proxy(&["get"], Some(100), Meter::off());
        p.invoke(AGENT, "get", &[], 100).unwrap();
        assert_eq!(
            p.invoke(AGENT, "get", &[], 101),
            Err(AccessError::Expired {
                not_after: 100,
                now: 101
            })
        );
    }

    #[test]
    fn confinement_rejects_other_domains() {
        let p = proxy(&["get"], None, Meter::off());
        // The proxy reference is Clone; leak it to another agent.
        let leaked = p.clone();
        assert_eq!(
            leaked.invoke(OTHER, "get", &[], 0),
            Err(AccessError::NotHolder {
                holder: AGENT,
                caller: OTHER
            })
        );
        // Original holder unaffected.
        p.invoke(AGENT, "get", &[], 0).unwrap();
    }

    #[test]
    fn revocation_is_immediate_and_permanent() {
        let p = proxy(&["get"], None, Meter::off());
        p.invoke(AGENT, "get", &[], 0).unwrap();
        p.control().revoke(DomainId::SERVER).unwrap();
        assert_eq!(p.invoke(AGENT, "get", &[], 0), Err(AccessError::Revoked));
        assert!(p.control().is_revoked());
    }

    #[test]
    fn selective_method_revocation_and_addition() {
        let p = proxy(&["get", "add"], None, Meter::off());
        assert!(p.control().disable_method(DomainId::SERVER, "add").unwrap());
        assert_eq!(
            p.invoke(AGENT, "add", &[Value::Int(1)], 0),
            Err(AccessError::MethodDisabled("add".into()))
        );
        assert!(p
            .control()
            .enable_method(DomainId::SERVER, "reset")
            .unwrap());
        p.invoke(AGENT, "reset", &[], 0).unwrap();
        // Enabled set reflects the changes.
        assert_eq!(p.control().enabled_methods(), ["get", "reset"]);
    }

    #[test]
    fn enabling_a_method_outside_the_interface_is_a_noop() {
        let p = proxy(&["get"], None, Meter::off());
        // Such a method could never be dispatched; there is no bit for it.
        assert!(!p
            .control()
            .enable_method(DomainId::SERVER, "ghost")
            .unwrap());
        assert!(!p
            .control()
            .disable_method(DomainId::SERVER, "ghost")
            .unwrap());
        // Management ACL still enforced on the shim path.
        assert_eq!(
            p.control().enable_method(AGENT, "ghost"),
            Err(AccessError::ManagementDenied(AGENT))
        );
    }

    #[test]
    fn management_requires_acl_membership() {
        let p = proxy(&["get"], None, Meter::off());
        // The holding agent itself is NOT a manager.
        assert_eq!(
            p.control().revoke(AGENT),
            Err(AccessError::ManagementDenied(AGENT))
        );
        assert_eq!(
            p.control().disable_method(OTHER, "get"),
            Err(AccessError::ManagementDenied(OTHER))
        );
        assert_eq!(
            p.control().set_expiry(AGENT, Some(5)),
            Err(AccessError::ManagementDenied(AGENT))
        );
        // Proxy still live.
        p.invoke(AGENT, "get", &[], 0).unwrap();
    }

    #[test]
    fn extra_manager_domains_work() {
        let manager = DomainId(99);
        let counter = Counter::new();
        let control = ProxyControl::new_named(
            AGENT,
            [manager],
            counter.method_table(),
            ["get"],
            None,
            Meter::off(),
        );
        let p = ResourceProxy::new(counter, control);
        p.control().revoke(manager).unwrap();
        assert!(p.control().is_revoked());
    }

    #[test]
    fn set_expiry_takes_effect() {
        let p = proxy(&["get"], None, Meter::off());
        p.control().set_expiry(DomainId::SERVER, Some(10)).unwrap();
        assert!(matches!(
            p.invoke(AGENT, "get", &[], 11),
            Err(AccessError::Expired { .. })
        ));
        p.control().set_expiry(DomainId::SERVER, None).unwrap();
        p.invoke(AGENT, "get", &[], 11).unwrap();
    }

    #[test]
    fn counting_meter_accumulates_per_method_and_tariffs() {
        let meter = Meter::counting(1).with_tariff("add", 5);
        let p = proxy(&["get", "add"], None, meter);
        p.invoke(AGENT, "get", &[], 0).unwrap();
        p.invoke(AGENT, "add", &[Value::Int(1)], 0).unwrap();
        p.invoke(AGENT, "add", &[Value::Int(1)], 0).unwrap();
        let r = p.control().meter().reading();
        assert_eq!(r.total, 3);
        assert_eq!(r.per_method["get"], 1);
        assert_eq!(r.per_method["add"], 2);
        assert_eq!(r.charge, 1 + 5 + 5);
        assert_eq!(r.elapsed_ns, 0); // counting mode does not time
    }

    #[test]
    fn denied_calls_are_not_charged() {
        let p = proxy(&["get"], None, Meter::counting(1));
        let _ = p.invoke(AGENT, "reset", &[], 0);
        let _ = p.invoke(OTHER, "get", &[], 0);
        assert_eq!(p.control().meter().reading().total, 0);
    }

    #[test]
    fn failed_resource_calls_are_not_charged() {
        let p = proxy(&["add"], None, Meter::counting(1));
        // Wrong arity: resource-level failure after access checks pass.
        let err = p.invoke(AGENT, "add", &[], 0).unwrap_err();
        assert!(matches!(err, AccessError::Resource(_)));
        assert_eq!(p.control().meter().reading().total, 0);
    }

    #[test]
    fn timed_meter_accumulates_elapsed() {
        let p = proxy(&["get"], None, Meter::timed(0));
        for _ in 0..50 {
            p.invoke(AGENT, "get", &[], 0).unwrap();
        }
        let r = p.control().meter().reading();
        assert_eq!(r.total, 50);
        assert!(r.elapsed_ns > 0, "elapsed time should accumulate");
    }

    #[test]
    fn check_order_revocation_before_confinement() {
        // A revoked proxy reports Revoked even to a non-holder — no
        // information leak about holders, and deterministic ordering.
        let p = proxy(&["get"], None, Meter::off());
        p.control().revoke(DomainId::SERVER).unwrap();
        assert_eq!(p.invoke(OTHER, "get", &[], 0), Err(AccessError::Revoked));
        // Same for a method outside the interface entirely.
        assert_eq!(p.invoke(OTHER, "ghost", &[], 0), Err(AccessError::Revoked));
    }

    #[test]
    fn argument_checks_happen_after_access_checks() {
        let p = proxy(&["add"], None, Meter::off());
        // Bad args from the holder: resource error.
        assert!(matches!(
            p.invoke(AGENT, "add", &[Value::str("x")], 0),
            Err(AccessError::Resource(ResourceError::BadArguments { .. }))
        ));
        // Bad args from a non-holder: confinement error, args never seen.
        assert!(matches!(
            p.invoke(OTHER, "add", &[Value::str("x")], 0),
            Err(AccessError::NotHolder { .. })
        ));
    }

    #[test]
    fn spill_path_handles_wide_interfaces() {
        // A synthetic 100-method interface: ids ≥ 64 live in the spill
        // set, and enable/disable/check work identically across the seam.
        let table = MethodTable::new((0..100).map(|i| format!("m{i}")));
        let control = ProxyControl::new(
            AGENT,
            [],
            Arc::clone(&table),
            [MethodId(3), MethodId(63), MethodId(64), MethodId(99)],
            None,
            Meter::off(),
        );
        for id in [3u16, 63, 64, 99] {
            assert!(
                control.is_enabled(MethodId(id)),
                "id {id} should be enabled"
            );
            assert!(control.check_id(AGENT, MethodId(id), 0).is_ok());
        }
        for id in [0u16, 62, 65, 98] {
            assert!(
                !control.is_enabled(MethodId(id)),
                "id {id} should be disabled"
            );
        }
        assert!(control.disable_id(DomainId::SERVER, MethodId(99)).unwrap());
        assert!(!control.is_enabled(MethodId(99)));
        assert!(control.enable_id(DomainId::SERVER, MethodId(98)).unwrap());
        assert!(control.check_id(AGENT, MethodId(98), 0).is_ok());
        let enabled = control.enabled_methods();
        assert!(enabled.contains(&"m64".to_string()));
        assert!(enabled.contains(&"m98".to_string()));
        assert!(!enabled.contains(&"m99".to_string()));
    }

    #[test]
    fn attached_journal_receives_charge_revoke_and_expiry_events() {
        use crate::telemetry::Counter as TCounter;
        let p = proxy(&["get"], Some(100), Meter::counting(3));
        let journal = Arc::new(Journal::new());
        p.control()
            .attach_journal(Arc::clone(&journal), p.resource_name().clone());
        p.invoke(AGENT, "get", &[], 0).unwrap();
        let _ = p.invoke(AGENT, "get", &[], 101); // expired
        p.control().revoke(DomainId::SERVER).unwrap();
        assert_eq!(journal.counter(TCounter::MeterCharges), 1);
        assert_eq!(journal.counter(TCounter::ChargeUnits), 3);
        assert_eq!(journal.counter(TCounter::ProxyExpiries), 1);
        assert_eq!(journal.counter(TCounter::ProxyRevocations), 1);
        let snap = journal.snapshot();
        assert!(matches!(
            &snap[0].event,
            Event::MeterCharge { method, amount: 3, .. } if &**method == "get"
        ));
    }

    #[test]
    fn detached_proxy_emits_nothing_and_still_meters() {
        let p = proxy(&["get"], None, Meter::counting(1));
        p.invoke(AGENT, "get", &[], 0).unwrap();
        assert_eq!(p.control().meter().reading().charge, 1);
    }

    #[test]
    fn unknown_method_with_live_proxy_reports_no_such_method() {
        let p = proxy(&["get"], None, Meter::off());
        assert_eq!(
            p.invoke(AGENT, "ghost", &[], 0),
            Err(AccessError::MethodDisabled("ghost".to_string()))
        );
    }
}
