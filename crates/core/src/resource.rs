//! The `Resource` and `AccessProtocol` interfaces (paper Figs. 3 and 7).
//!
//! *"A resource is an object that acts as an interface to some service or
//! information available at the host"* (Section 4). The system-defined
//! interface provides *"generic functionality for all resources, such as
//! resource naming, ownership, charging protocols"* (Fig. 3); each
//! application resource also implements the access protocol — a
//! `get_proxy` method that consults policy and manufactures a restricted
//! proxy for the requesting agent (Fig. 7).
//!
//! Agents are mobile programs, so the general invocation surface is
//! dynamic: methods are named, arguments are [`Value`]s. (The statically
//! typed face of the same design — the paper's Java code — is mirrored in
//! [`crate::buffer`], whose `BufferProxy` is hand-written exactly like
//! Fig. 5.)

use std::collections::HashMap;
use std::sync::Arc;

use ajanta_naming::Urn;
use ajanta_vm::{Ty, Value};

use crate::domain::DomainId;
use crate::proxy::ResourceProxy;
use crate::rights::Rights;

/// Interned identifier of one method within a resource interface.
///
/// Ids are assigned by the resource's [`MethodTable`] in declaration order
/// and are stable for the lifetime of the resource. All per-invocation
/// access machinery ([`crate::proxy::ProxyControl`], metering) operates on
/// ids, so the invoke fast path never touches a string; names are resolved
/// to ids once, at bind time (the paper's Fig. 6 step 4), and resolved back
/// only on cold paths (error messages, meter snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodId(pub u16);

impl std::fmt::Display for MethodId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m#{}", self.0)
    }
}

/// The interned method universe of one resource interface: a bijection
/// between method names and dense [`MethodId`]s, built once per resource.
///
/// `id()` (name → id) is the bind-time direction; `name()` (id → name) is
/// an array index, so even cold-path reverse lookups never allocate. Each
/// name is interned once as an `Arc<str>`, so journal records that carry
/// a method name ([`MethodTable::label`]) share it instead of copying it.
#[derive(Debug, Default)]
pub struct MethodTable {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u16>,
}

impl MethodTable {
    /// Interns `names` in order. Duplicates keep their first id. Panics if
    /// the interface exceeds `u16::MAX` methods.
    pub fn new<I, S>(names: I) -> Arc<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut table = MethodTable::default();
        for name in names {
            let name: Arc<str> = name.into().into();
            if table.index.contains_key(&name) {
                continue;
            }
            let id = u16::try_from(table.names.len()).expect("method table overflow");
            table.index.insert(Arc::clone(&name), id);
            table.names.push(name);
        }
        Arc::new(table)
    }

    /// Interns the names of `specs` (the common construction).
    pub fn from_specs(specs: &[MethodSpec]) -> Arc<Self> {
        Self::new(specs.iter().map(|s| s.name.clone()))
    }

    /// Resolves a method name to its id, if the interface has it.
    pub fn id(&self, name: &str) -> Option<MethodId> {
        self.index.get(name).copied().map(MethodId)
    }

    /// Resolves an id back to its name (an array index — no allocation).
    pub fn name(&self, id: MethodId) -> Option<&str> {
        self.names.get(id.0 as usize).map(|n| &**n)
    }

    /// The interned name of `id`, shared: cloning it bumps a reference
    /// count.
    pub fn label(&self, id: MethodId) -> Option<&Arc<str>> {
        self.names.get(id.0 as usize)
    }

    /// Number of interned methods.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the interface has no methods.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (MethodId(i as u16), &**n))
    }
}

/// Signature of one resource method, used for interface discovery and for
/// checking invocation arity/types before dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSpec {
    /// Method name (unique per resource).
    pub name: String,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
}

impl MethodSpec {
    /// A method spec with no parameters.
    pub fn new(name: impl Into<String>, params: impl Into<Vec<Ty>>, ret: Ty) -> Self {
        MethodSpec {
            name: name.into(),
            params: params.into(),
            ret,
        }
    }
}

/// Failures raised by resource method bodies (distinct from access-control
/// failures, which are [`crate::proxy::AccessError`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// No such method on this resource.
    NoSuchMethod(String),
    /// Argument count or types did not match the method spec.
    BadArguments {
        /// Method that was invoked.
        method: String,
        /// What went wrong.
        detail: String,
    },
    /// The method ran and failed (application-defined).
    Failed(String),
    /// The method cannot complete now (e.g. take on an empty buffer) —
    /// agents may retry.
    WouldBlock,
}

impl std::fmt::Display for ResourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceError::NoSuchMethod(m) => write!(f, "no such method: {m}"),
            ResourceError::BadArguments { method, detail } => {
                write!(f, "bad arguments to {method}: {detail}")
            }
            ResourceError::Failed(m) => write!(f, "resource operation failed: {m}"),
            ResourceError::WouldBlock => f.write_str("operation would block"),
        }
    }
}

impl std::error::Error for ResourceError {}

/// The generic resource interface (Fig. 3's `Resource` +
/// `ResourceImpl`): naming, ownership, interface discovery, invocation.
pub trait Resource: Send + Sync {
    /// The resource's global name.
    fn name(&self) -> &Urn;

    /// The owning principal (controls registry entries and proxy
    /// management rights).
    fn owner(&self) -> &Urn;

    /// The callable interface.
    fn methods(&self) -> Vec<MethodSpec>;

    /// The interned method universe of this interface. The default builds
    /// a fresh table from [`Resource::methods`]; resources on the hot path
    /// override it to return one table built at construction, so binding
    /// (name → id resolution) shares a single interning pass.
    fn method_table(&self) -> Arc<MethodTable> {
        MethodTable::from_specs(&self.methods())
    }

    /// Invokes `method`. Implementations are responsible for validating
    /// their own arguments — begin with [`Resource::check_args`] — since
    /// proxies deliberately add only access-control checks, not argument
    /// checks (a single validation point keeps the per-call proxy
    /// overhead to exactly the security cost).
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, ResourceError>;

    /// Checks `args` against the spec for `method`. Provided.
    fn check_args(&self, method: &str, args: &[Value]) -> Result<(), ResourceError> {
        let specs = self.methods();
        let spec = specs
            .iter()
            .find(|m| m.name == method)
            .ok_or_else(|| ResourceError::NoSuchMethod(method.to_string()))?;
        if args.len() != spec.params.len() {
            return Err(ResourceError::BadArguments {
                method: method.to_string(),
                detail: format!("expected {} args, got {}", spec.params.len(), args.len()),
            });
        }
        for (i, (a, &p)) in args.iter().zip(&spec.params).enumerate() {
            if a.ty() != p {
                return Err(ResourceError::BadArguments {
                    method: method.to_string(),
                    detail: format!("arg {i} expected {p}, got {}", a.ty()),
                });
            }
        }
        Ok(())
    }
}

/// Identity of a requesting agent as seen by `get_proxy`: the validated
/// facts the resource's embedded policy can rely on.
#[derive(Debug, Clone)]
pub struct Requester {
    /// The agent's name (from verified credentials).
    pub agent: Urn,
    /// Its owner.
    pub owner: Urn,
    /// Its protection domain at this server.
    pub domain: DomainId,
    /// The agent's **effective rights** (owner delegation ∩ endorsements ∩
    /// server policy), as computed at admission.
    pub rights: Rights,
}

/// The access protocol (Fig. 7): how a resource manufactures a restricted
/// proxy for an agent.
///
/// *"This method is responsible for creating the proxy and selectively
/// disabling some of its methods, based on the calling agent's
/// credentials."* (Section 5.5)
pub trait AccessProtocol: Resource {
    /// Creates a proxy for `requester`, or refuses. `now` is the current
    /// virtual time, used to stamp expiry.
    fn get_proxy(
        self: Arc<Self>,
        requester: &Requester,
        now: u64,
    ) -> Result<ResourceProxy, crate::proxy::AccessError>;
}

/// Object-safe alias for what the registry stores.
pub trait ProtectedResource: AccessProtocol {}
impl<T: AccessProtocol + ?Sized> ProtectedResource for T {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal resource used to exercise the provided methods.
    struct Echo {
        name: Urn,
        owner: Urn,
    }

    impl Resource for Echo {
        fn name(&self) -> &Urn {
            &self.name
        }
        fn owner(&self) -> &Urn {
            &self.owner
        }
        fn methods(&self) -> Vec<MethodSpec> {
            vec![
                MethodSpec::new("echo", [Ty::Bytes], Ty::Bytes),
                MethodSpec::new("length", [Ty::Bytes], Ty::Int),
            ]
        }
        fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, ResourceError> {
            self.check_args(method, args)?;
            match method {
                "echo" => Ok(args[0].clone()),
                "length" => Ok(Value::Int(args[0].as_bytes().unwrap().len() as i64)),
                _ => Err(ResourceError::NoSuchMethod(method.into())),
            }
        }
    }

    fn echo() -> Echo {
        Echo {
            name: Urn::resource("x.org", ["echo"]).unwrap(),
            owner: Urn::owner("x.org", ["admin"]).unwrap(),
        }
    }

    #[test]
    fn invoke_dispatches_by_name() {
        let e = echo();
        assert_eq!(
            e.invoke("echo", &[Value::str("hi")]).unwrap(),
            Value::str("hi")
        );
        assert_eq!(
            e.invoke("length", &[Value::str("hello")]).unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn unknown_method_rejected() {
        assert_eq!(
            echo().invoke("ghost", &[]),
            Err(ResourceError::NoSuchMethod("ghost".into()))
        );
    }

    #[test]
    fn arity_checked() {
        assert!(matches!(
            echo().invoke("echo", &[]),
            Err(ResourceError::BadArguments { .. })
        ));
        assert!(matches!(
            echo().invoke("echo", &[Value::str("a"), Value::str("b")]),
            Err(ResourceError::BadArguments { .. })
        ));
    }

    #[test]
    fn types_checked() {
        let err = echo().invoke("echo", &[Value::Int(1)]).unwrap_err();
        match err {
            ResourceError::BadArguments { detail, .. } => {
                assert!(detail.contains("expected bytes"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn method_specs_describe_interface() {
        let specs = echo().methods();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "echo");
        assert_eq!(specs[0].ret, Ty::Bytes);
    }

    #[test]
    fn method_table_interns_in_declaration_order() {
        let t = echo().method_table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.id("echo"), Some(MethodId(0)));
        assert_eq!(t.id("length"), Some(MethodId(1)));
        assert_eq!(t.id("ghost"), None);
        assert_eq!(t.name(MethodId(0)), Some("echo"));
        assert_eq!(t.name(MethodId(9)), None);
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, [(MethodId(0), "echo"), (MethodId(1), "length")]);
    }

    #[test]
    fn method_table_dedups_keeping_first_id() {
        let t = MethodTable::new(["a", "b", "a", "c"]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.id("a"), Some(MethodId(0)));
        assert_eq!(t.id("c"), Some(MethodId(2)));
    }
}
