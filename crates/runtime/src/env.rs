//! The agent environment — the `host` reference of paper Section 4.
//!
//! *"The agent environment provides services to agents in the form of
//! primitive operations. At the most basic level, mobility is supported by
//! the `go` function ... Other primitives provided by the agent server
//! include facilities for installing and accessing resources,
//! communicating with other agents, monitoring the status of child agents,
//! issuing control commands to them, etc."*
//!
//! Every primitive is a host call from verified agent byte-code into this
//! module, always executed with the agent's [`DomainId`] attached — agent
//! code can never claim another identity, because the identity is supplied
//! by the environment, not by the agent.
//!
//! # Host-call ABI
//!
//! | import | signature | semantics |
//! |---|---|---|
//! | `env.go` | `(bytes dest, bytes entry) -> int` | migrate; never returns |
//! | `env.go_tour` | `(bytes itinerary, bytes entry) -> int` | migrate to the itinerary's head, carrying the tail as recovery fallbacks |
//! | `env.get_resource` | `(bytes name) -> int` | bind; returns proxy handle |
//! | `env.invoke` | `(int handle, bytes method, bytes args) -> bytes` | call through proxy; result encoding below |
//! | `env.args0..` | various | build `args` payloads |
//! | `env.res_*` | various | inspect `env.invoke` results |
//! | `env.log` | `(bytes) -> int` | append to the server's per-agent log |
//! | `env.self_name` / `env.here` / `env.home` | `() -> bytes` | identities |
//! | `env.time` | `() -> int` | virtual now (ns) |
//! | `env.send` | `(bytes agent, bytes data) -> int` | mail a co-located agent |
//! | `env.send_remote` | `(bytes server, bytes agent, bytes data) -> int` | mail via the network |
//! | `env.recv` | `() -> bytes` | oldest mail payload ("" if none) |
//! | `env.sender` | `() -> bytes` | sender of the last `env.recv` |
//! | `env.install_resource` | `(bytes name, bytes module) -> int` | dynamic extension |
//! | `env.dispatch` | `(bytes dest, bytes entry, bytes payload) -> bytes` | launch a child agent; returns its name |
//! | `env.itin_head` / `env.itin_tail` | `(bytes) -> bytes` | itinerary helpers |
//! | `env.rand` | `(int bound) -> int` | deterministic per-agent randomness |
//!
//! `env.invoke` results are `[0] ‖ wire(Value)` on success or
//! `[1] ‖ wire(string)` for an **application-level** resource error
//! (agents may retry). Security violations — disabled method, revoked or
//! expired proxy, confinement breach — do *not* produce a result: they
//! raise the security exception that kills the invocation, exactly as the
//! paper's proxies throw.

use std::collections::HashMap;
use std::sync::Arc;

use ajanta_core::{
    AccessError, Credentials, DomainId, MethodId, Requester, ResourceError, ResourceProxy, Rights,
    SpanContext, SpanKind,
};
use ajanta_naming::Urn;
use ajanta_vm::{HostError, HostImport, HostInterface, HostResponse, Module, Ty, Value};
use ajanta_wire::{decode_seq, encode_seq, Decoder, Encoder, Wire};

use crate::itinerary;
use crate::server::Shared;

/// Declares the full `env.*` import set on a [`ajanta_vm::ModuleBuilder`]
/// in a canonical order, returning nothing — agents import only what they
/// use; this helper exists for workloads that want everything.
pub fn declare_all_imports(b: &mut ajanta_vm::ModuleBuilder) {
    for (name, params, ret) in IMPORTS {
        b.import(*name, params.to_vec(), *ret);
    }
}

/// The ABI table (name, params, ret).
pub const IMPORTS: &[(&str, &[Ty], Ty)] = &[
    ("env.go", &[Ty::Bytes, Ty::Bytes], Ty::Int),
    ("env.go_tour", &[Ty::Bytes, Ty::Bytes], Ty::Int),
    ("env.get_resource", &[Ty::Bytes], Ty::Int),
    ("env.invoke", &[Ty::Int, Ty::Bytes, Ty::Bytes], Ty::Bytes),
    ("env.args0", &[], Ty::Bytes),
    ("env.args_i", &[Ty::Int], Ty::Bytes),
    ("env.args_b", &[Ty::Bytes], Ty::Bytes),
    ("env.args_ii", &[Ty::Int, Ty::Int], Ty::Bytes),
    ("env.args_bb", &[Ty::Bytes, Ty::Bytes], Ty::Bytes),
    ("env.args_bi", &[Ty::Bytes, Ty::Int], Ty::Bytes),
    ("env.res_ok", &[Ty::Bytes], Ty::Int),
    ("env.res_int", &[Ty::Bytes], Ty::Int),
    ("env.res_bytes", &[Ty::Bytes], Ty::Bytes),
    ("env.res_err", &[Ty::Bytes], Ty::Bytes),
    ("env.log", &[Ty::Bytes], Ty::Int),
    ("env.self_name", &[], Ty::Bytes),
    ("env.here", &[], Ty::Bytes),
    ("env.home", &[], Ty::Bytes),
    ("env.time", &[], Ty::Int),
    ("env.send", &[Ty::Bytes, Ty::Bytes], Ty::Int),
    (
        "env.send_remote",
        &[Ty::Bytes, Ty::Bytes, Ty::Bytes],
        Ty::Int,
    ),
    ("env.recv", &[], Ty::Bytes),
    ("env.sender", &[], Ty::Bytes),
    ("env.install_resource", &[Ty::Bytes, Ty::Bytes], Ty::Int),
    (
        "env.dispatch",
        &[Ty::Bytes, Ty::Bytes, Ty::Bytes],
        Ty::Bytes,
    ),
    ("env.itin_head", &[Ty::Bytes], Ty::Bytes),
    ("env.itin_tail", &[Ty::Bytes], Ty::Bytes),
    ("env.rand", &[Ty::Int], Ty::Int),
];

/// Encodes an invoke result: success.
pub fn encode_ok(v: &Value) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(0);
    v.encode(&mut e);
    e.finish()
}

/// Encodes an invoke result: recoverable application error.
pub fn encode_err(msg: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(1);
    e.put_str(msg);
    e.finish()
}

/// Decodes an invoke result (host-side counterpart used by tests and the
/// `env.res_*` helpers).
pub fn decode_result(bytes: &[u8]) -> Option<Result<Value, String>> {
    let mut d = Decoder::new(bytes);
    match d.get_u8().ok()? {
        0 => {
            let v = Value::decode(&mut d).ok()?;
            d.expect_end().ok()?;
            Some(Ok(v))
        }
        1 => {
            let s = d.get_str().ok()?;
            d.expect_end().ok()?;
            Some(Err(s))
        }
        _ => None,
    }
}

/// Where the agent asked to go (set by a successful `env.go` or
/// `env.go_tour`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingGo {
    /// Destination server.
    pub dest: Urn,
    /// Entry function to resume at.
    pub entry: String,
    /// Later itinerary stops, in order — the recovery plan if `dest`
    /// stays unreachable after the transfer layer's retries exhaust
    /// (`env.go_tour` fills this; plain `env.go` leaves it empty).
    pub fallbacks: Vec<Urn>,
}

/// The per-agent environment: implements [`HostInterface`] for one agent
/// execution on one server.
pub struct AgentEnv {
    shared: Arc<Shared>,
    domain: DomainId,
    /// The executing identity (the credentialed agent, or a child name
    /// within its subtree).
    identity: Urn,
    credentials: Credentials,
    rights: Rights,
    /// The agent's own code, needed to package children it dispatches.
    module: Option<Arc<ajanta_vm::VerifiedModule>>,
    proxies: Vec<ResourceProxy>,
    /// Access-span details built so far, by (proxy index, method,
    /// outcome): every access journals a span, and repeated accesses
    /// share one detail instead of formatting it per call.
    access_details: HashMap<(usize, MethodId, &'static str), Arc<str>>,
    pending_go: Option<PendingGo>,
    last_sender: Vec<u8>,
    children: u64,
    rng_state: u64,
    /// Consecutive empty `env.recv` polls since the last delivery — the
    /// idleness signal hibernation keys off.
    mail_misses: u32,
    /// Set when an explicit wake revived this agent: idle hibernation
    /// passes it over until mail arrives, so the wake is not undone at
    /// the next yield (a hibernate request still spills it).
    held_awake: bool,
    /// This stay's admission span: every bind, access, dispatch, and
    /// report the agent performs here descends from it in the trace.
    ctx: SpanContext,
}

impl AgentEnv {
    /// Builds the environment for an admitted agent.
    pub(crate) fn new(
        shared: Arc<Shared>,
        domain: DomainId,
        identity: Urn,
        credentials: Credentials,
        rights: Rights,
        ctx: SpanContext,
    ) -> Self {
        // Per-agent deterministic randomness derived from the identity,
        // so reruns of an experiment reproduce identical agent behaviour.
        let mut h = ajanta_crypto::Sha256::new();
        h.update(b"agent.rng");
        h.update(identity.to_string().as_bytes());
        let rng_state = h.finalize().prefix_u64();
        AgentEnv {
            shared,
            domain,
            identity,
            credentials,
            rights,
            module: None,
            proxies: Vec::new(),
            access_details: HashMap::new(),
            pending_go: None,
            last_sender: Vec::new(),
            children: 0,
            rng_state,
            mail_misses: 0,
            held_awake: false,
            ctx,
        }
    }

    /// Attaches the agent's verified module, enabling `env.dispatch`.
    pub(crate) fn set_module(&mut self, module: Arc<ajanta_vm::VerifiedModule>) {
        self.module = Some(module);
    }

    /// The migration request, if the last run ended in `env.go`.
    pub fn pending_go(&self) -> Option<&PendingGo> {
        self.pending_go.as_ref()
    }

    /// Number of live proxies (bindings) this agent holds.
    pub fn binding_count(&self) -> usize {
        self.proxies.len()
    }

    /// Consecutive empty `env.recv` polls since the last delivered mail.
    pub fn mail_misses(&self) -> u32 {
        self.mail_misses
    }

    /// Whether an explicit wake still holds this agent awake (see
    /// [`Self::hold_awake`]).
    pub(crate) fn held_awake(&self) -> bool {
        self.held_awake
    }

    /// Keeps idle hibernation off this agent until its next delivered
    /// mail.
    pub(crate) fn hold_awake(&mut self) {
        self.held_awake = true;
    }

    /// The session state that must ride in a hibernation bundle:
    /// `(rng_state, children, last_sender)`. Everything else in the
    /// environment is rebuilt from the admission inputs on wake.
    pub(crate) fn export_session(&self) -> (u64, u64, Vec<u8>) {
        (self.rng_state, self.children, self.last_sender.clone())
    }

    /// Restores the counterpart of [`AgentEnv::export_session`] into a
    /// freshly built environment, making the woken agent's observable
    /// behaviour identical to one that never hibernated.
    pub(crate) fn restore_session(&mut self, rng_state: u64, children: u64, last_sender: Vec<u8>) {
        self.rng_state = rng_state;
        self.children = children;
        self.last_sender = last_sender;
    }

    fn now(&self) -> u64 {
        self.shared.clock_now()
    }

    fn parse_urn(bytes: &[u8], what: &str) -> Result<Urn, HostError> {
        std::str::from_utf8(bytes)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| HostError::Failed(format!("malformed {what} urn")))
    }

    fn next_rand(&mut self) -> u64 {
        // SplitMix64 step, kept local so the environment is Send.
        self.rng_state = self.rng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl HostInterface for AgentEnv {
    fn call(&mut self, import: &HostImport, args: &[Value]) -> Result<HostResponse, HostError> {
        // An agent controls its own import declarations; before trusting
        // the argument shapes, pin the declaration to the canonical ABI.
        // A mismatch is a (failed) attack on the host-call boundary.
        match IMPORTS.iter().find(|(n, _, _)| *n == import.name) {
            Some((_, params, ret)) => {
                if import.params.as_slice() != *params || import.ret != *ret {
                    return Err(HostError::Denied(format!(
                        "import {:?} declared with a non-ABI signature",
                        import.name
                    )));
                }
            }
            None => {
                return Err(HostError::Denied(format!(
                    "import {:?} is not provided by this server",
                    import.name
                )))
            }
        }
        let val = |v: Value| Ok(HostResponse::Value(v));
        match import.name.as_str() {
            "env.go" => {
                let dest = Self::parse_urn(args[0].as_bytes().expect("verified"), "destination")?;
                let entry = String::from_utf8(args[1].as_bytes().expect("verified").to_vec())
                    .map_err(|_| HostError::Failed("malformed entry name".into()))?;
                self.pending_go = Some(PendingGo {
                    dest,
                    entry,
                    fallbacks: Vec::new(),
                });
                Ok(HostResponse::Stop(Value::Int(0)))
            }
            "env.go_tour" => {
                // Like env.go, but the agent hands over its whole
                // remaining itinerary: head = next stop, tail = the
                // recovery plan the transfer layer may fall back to.
                let plan = itinerary::Itinerary::decode(args[0].as_bytes().expect("verified"))
                    .map_err(|e| HostError::Failed(format!("go_tour: {e}")))?;
                let entry = String::from_utf8(args[1].as_bytes().expect("verified").to_vec())
                    .map_err(|_| HostError::Failed("malformed entry name".into()))?;
                let (dest, rest) = plan.next_stop();
                let dest =
                    dest.ok_or_else(|| HostError::Failed("go_tour: empty itinerary".into()))?;
                self.pending_go = Some(PendingGo {
                    dest,
                    entry,
                    fallbacks: rest.stops().to_vec(),
                });
                Ok(HostResponse::Stop(Value::Int(0)))
            }
            "env.get_resource" => {
                let name = Self::parse_urn(args[0].as_bytes().expect("verified"), "resource")?;
                let requester = Requester {
                    agent: self.identity.clone(),
                    owner: self.credentials.owner.clone(),
                    domain: self.domain,
                    rights: self.rights.clone(),
                };
                let proxy = self
                    .shared
                    .bind_resource(
                        &requester,
                        &name,
                        self.now(),
                        Some((self.ctx.trace, self.ctx.span)),
                    )
                    .map_err(HostError::Denied)?;
                self.proxies.push(proxy);
                val(Value::Int(self.proxies.len() as i64))
            }
            "env.invoke" => {
                let handle = args[0].as_int().expect("verified");
                let (index, proxy) = usize::try_from(handle)
                    .ok()
                    .and_then(|h| h.checked_sub(1))
                    .and_then(|h| self.proxies.get(h).map(|p| (h, p)))
                    .ok_or_else(|| HostError::Failed(format!("bad proxy handle {handle}")))?;
                // Borrow the method name in place: the VM→proxy hot path
                // must not allocate per call.
                let method = std::str::from_utf8(args[1].as_bytes().expect("verified"))
                    .map_err(|_| HostError::Failed("malformed method name".into()))?;
                let mut d = Decoder::new(args[2].as_bytes().expect("verified"));
                let call_args: Vec<Value> = decode_seq(&mut d)
                    .map_err(|e| HostError::Failed(format!("malformed args: {e}")))?;
                let id = proxy.method_id(method);
                let t0 = std::time::Instant::now();
                let result = match id {
                    Some(id) => proxy.invoke_id(self.domain, id, &call_args, self.now()),
                    None => proxy.invoke(self.domain, method, &call_args, self.now()),
                };
                // Each access is a child span of the admission; the
                // detail's three whitespace-separated tokens (resource,
                // method, outcome) are what `tracectl`'s anomaly scan
                // parses to spot accesses that postdate a revocation.
                // Known methods build that text once per proxy and
                // outcome; an unknown name is formatted where it fails.
                let outcome = match &result {
                    Ok(_) => "ok",
                    Err(AccessError::Resource(_)) => "app-err",
                    Err(_) => "denied",
                };
                let span = SpanContext {
                    trace: self.ctx.trace,
                    span: self.shared.journal.mint_span(),
                    parent: Some(self.ctx.span),
                };
                let text = || format!("{} {} {}", proxy.resource_name(), method, outcome);
                let detail: Arc<str> = match id {
                    Some(id) => Arc::clone(
                        self.access_details
                            .entry((index, id, outcome))
                            .or_insert_with(|| text().into()),
                    ),
                    None => text().into(),
                };
                self.shared.emit_span(
                    span,
                    SpanKind::Access,
                    &self.identity,
                    detail,
                    self.now(),
                    t0.elapsed().as_nanos() as u64,
                );
                match result {
                    Ok(v) => val(Value::Bytes(encode_ok(&v))),
                    // Application-level failures are recoverable results…
                    Err(AccessError::Resource(ResourceError::WouldBlock)) => {
                        val(Value::Bytes(encode_err("would block")))
                    }
                    Err(AccessError::Resource(e)) => val(Value::Bytes(encode_err(&e.to_string()))),
                    // …security violations raise, as the paper's proxies
                    // throw security exceptions.
                    Err(e) => Err(HostError::Denied(e.to_string())),
                }
            }
            "env.args0" => {
                let mut e = Encoder::new();
                encode_seq::<Value>(&[], &mut e);
                val(Value::Bytes(e.finish()))
            }
            "env.args_i" | "env.args_b" => {
                let mut e = Encoder::new();
                encode_seq(&[args[0].clone()], &mut e);
                val(Value::Bytes(e.finish()))
            }
            "env.args_ii" | "env.args_bb" | "env.args_bi" => {
                let mut e = Encoder::new();
                encode_seq(&[args[0].clone(), args[1].clone()], &mut e);
                val(Value::Bytes(e.finish()))
            }
            "env.res_ok" => {
                let r = decode_result(args[0].as_bytes().expect("verified"));
                val(Value::Int(matches!(r, Some(Ok(_))) as i64))
            }
            "env.res_int" => match decode_result(args[0].as_bytes().expect("verified")) {
                Some(Ok(Value::Int(i))) => val(Value::Int(i)),
                other => Err(HostError::Failed(format!(
                    "result is not an int: {other:?}"
                ))),
            },
            "env.res_bytes" => match decode_result(args[0].as_bytes().expect("verified")) {
                Some(Ok(Value::Bytes(b))) => val(Value::Bytes(b)),
                other => Err(HostError::Failed(format!("result is not bytes: {other:?}"))),
            },
            "env.res_err" => match decode_result(args[0].as_bytes().expect("verified")) {
                Some(Err(msg)) => val(Value::Bytes(msg.into_bytes())),
                _ => val(Value::Bytes(Vec::new())),
            },
            "env.log" => {
                let text =
                    String::from_utf8_lossy(args[0].as_bytes().expect("verified")).into_owned();
                self.shared.log(&self.identity, text);
                val(Value::Int(0))
            }
            "env.self_name" => val(Value::str(self.identity.to_string())),
            "env.here" => val(Value::str(self.shared.name().to_string())),
            "env.home" => val(Value::str(self.credentials.home.to_string())),
            "env.time" => val(Value::Int(self.now() as i64)),
            "env.send" => {
                let to = Self::parse_urn(args[0].as_bytes().expect("verified"), "agent")?;
                let data = args[1].as_bytes().expect("verified").to_vec();
                let delivered = self.shared.local_mail(self.identity.clone(), to, data);
                val(Value::Int(delivered as i64))
            }
            "env.send_remote" => {
                let server = Self::parse_urn(args[0].as_bytes().expect("verified"), "server")?;
                let to = Self::parse_urn(args[1].as_bytes().expect("verified"), "agent")?;
                let data = args[2].as_bytes().expect("verified").to_vec();
                match self
                    .shared
                    .remote_mail(self.identity.clone(), server, to, data)
                {
                    Ok(()) => val(Value::Int(1)),
                    Err(e) => Err(HostError::Failed(e)),
                }
            }
            "env.recv" => match self.shared.take_mail(&self.identity) {
                Some((from, data)) => {
                    self.mail_misses = 0;
                    self.held_awake = false;
                    self.last_sender = from.to_string().into_bytes();
                    val(Value::Bytes(data))
                }
                None => {
                    self.mail_misses = self.mail_misses.saturating_add(1);
                    self.last_sender.clear();
                    val(Value::Bytes(Vec::new()))
                }
            },
            "env.sender" => val(Value::Bytes(self.last_sender.clone())),
            "env.install_resource" => {
                let name = Self::parse_urn(args[0].as_bytes().expect("verified"), "resource")?;
                let module = Module::from_bytes(args[1].as_bytes().expect("verified"))
                    .map_err(|e| HostError::Failed(format!("malformed module: {e}")))?;
                self.shared
                    .install_vm_resource(self.domain, &self.identity, name, module)
                    .map_err(HostError::Denied)?;
                val(Value::Int(0))
            }
            "env.dispatch" => {
                let dest = Self::parse_urn(args[0].as_bytes().expect("verified"), "destination")?;
                let entry = String::from_utf8(args[1].as_bytes().expect("verified").to_vec())
                    .map_err(|_| HostError::Failed("malformed entry name".into()))?;
                let payload = args[2].as_bytes().expect("verified").to_vec();
                if payload.is_empty() {
                    return Err(HostError::Failed(
                        "dispatch payload must be non-empty (it is the child's argument)".into(),
                    ));
                }
                let module = self
                    .module
                    .as_ref()
                    .ok_or_else(|| HostError::Failed("dispatch unavailable here".into()))?
                    .module()
                    .clone();
                self.children += 1;
                let child = self
                    .shared
                    .dispatch_child(
                        self.domain,
                        &self.identity,
                        &self.credentials,
                        module,
                        &dest,
                        entry,
                        payload,
                        self.children,
                        Some((self.ctx.trace, self.ctx.span)),
                    )
                    .map_err(HostError::Denied)?;
                val(Value::str(child.to_string()))
            }
            "env.itin_head" => val(Value::Bytes(
                itinerary::head(args[0].as_bytes().expect("verified")).to_vec(),
            )),
            "env.itin_tail" => val(Value::Bytes(
                itinerary::tail(args[0].as_bytes().expect("verified")).to_vec(),
            )),
            "env.rand" => {
                let bound = args[0].as_int().expect("verified");
                if bound <= 0 {
                    return Err(HostError::Failed("rand bound must be positive".into()));
                }
                val(Value::Int((self.next_rand() % bound as u64) as i64))
            }
            other => Err(HostError::Denied(format!(
                "import {other:?} is not provided by this server"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_encoding_roundtrip() {
        let ok = encode_ok(&Value::Int(42));
        assert_eq!(decode_result(&ok), Some(Ok(Value::Int(42))));
        let ok = encode_ok(&Value::str("payload"));
        assert_eq!(decode_result(&ok), Some(Ok(Value::str("payload"))));
        let err = encode_err("would block");
        assert_eq!(decode_result(&err), Some(Err("would block".into())));
        assert_eq!(decode_result(&[7, 7, 7]), None);
        assert_eq!(decode_result(&[]), None);
    }

    #[test]
    fn import_table_is_well_formed() {
        let mut names = std::collections::BTreeSet::new();
        for (name, _, _) in IMPORTS {
            assert!(name.starts_with("env."));
            assert!(names.insert(*name), "duplicate import {name}");
        }
        assert!(names.len() >= 20);
    }

    #[test]
    fn declare_all_imports_matches_table() {
        let mut b = ajanta_vm::ModuleBuilder::new("t");
        declare_all_imports(&mut b);
        let m = b.build();
        assert_eq!(m.imports.len(), IMPORTS.len());
        for (im, (name, params, ret)) in m.imports.iter().zip(IMPORTS) {
            assert_eq!(im.name, *name);
            assert_eq!(im.params.as_slice(), *params);
            assert_eq!(im.ret, *ret);
        }
    }
}
