//! The `ajn:` URN type and its grammar.
//!
//! Grammar (all lowercase, canonical on construction):
//!
//! ```text
//! urn       := "ajn://" authority "/" kind ( "/" segment )+
//! authority := label ( "." label )*
//! kind      := "agent" | "server" | "resource" | "group" | "owner"
//! label     := [a-z0-9] [a-z0-9-]*
//! segment   := [a-z0-9._-]+
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::NameError;

/// The kind of object a [`Urn`] names.
///
/// The paper's principal taxonomy (Section 2) includes agents, their owners,
/// service providers (servers), groups representing roles, and the resources
/// themselves (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NameKind {
    /// A mobile agent instance.
    Agent,
    /// An agent server process.
    Server,
    /// An application-level resource hosted by a server.
    Resource,
    /// A group of principals aggregated under a common role.
    Group,
    /// A human principal: the owner of agents, resources or servers.
    Owner,
}

impl NameKind {
    /// Canonical lowercase spelling used in the URN text form.
    pub fn as_str(self) -> &'static str {
        match self {
            NameKind::Agent => "agent",
            NameKind::Server => "server",
            NameKind::Resource => "resource",
            NameKind::Group => "group",
            NameKind::Owner => "owner",
        }
    }

    /// All kinds, in canonical order. Useful for exhaustive tests.
    pub const ALL: [NameKind; 5] = [
        NameKind::Agent,
        NameKind::Server,
        NameKind::Resource,
        NameKind::Group,
        NameKind::Owner,
    ];
}

impl FromStr for NameKind {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "agent" => Ok(NameKind::Agent),
            "server" => Ok(NameKind::Server),
            "resource" => Ok(NameKind::Resource),
            "group" => Ok(NameKind::Group),
            "owner" => Ok(NameKind::Owner),
            other => Err(NameError::BadKind(other.to_string())),
        }
    }
}

impl fmt::Display for NameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A global, location-independent name.
///
/// `Urn` is the identity currency of the whole system: credentials bind
/// agent URNs to owner URNs, the resource registry is keyed by resource
/// URNs, and access-control policy is expressed over URNs and group URNs.
///
/// Instances are canonical by construction — parsing and the builder
/// constructors reject anything outside the grammar, so two equal names
/// always have identical text forms.
///
/// A name is an immutable shared handle: cloning one bumps a reference
/// count and never copies its text. Names are cloned into every journal
/// record, proxy and message, so this keeps the per-access path free of
/// heap traffic. Equality, ordering and hashing follow the components in
/// the order authority, kind, path.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Urn(Arc<Parts>);

#[derive(PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Parts {
    authority: String,
    kind: NameKind,
    path: Vec<String>,
}

impl fmt::Debug for Urn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Urn")
            .field("authority", &self.0.authority)
            .field("kind", &self.0.kind)
            .field("path", &self.0.path)
            .finish()
    }
}

impl Urn {
    /// Builds a name after validating every component.
    pub fn new<A, I, S>(authority: A, kind: NameKind, path: I) -> Result<Self, NameError>
    where
        A: AsRef<str>,
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let authority = authority.as_ref();
        validate_authority(authority)?;
        let path: Vec<String> = path
            .into_iter()
            .map(|s| {
                let s = s.as_ref();
                validate_segment(s).map(|_| s.to_string())
            })
            .collect::<Result<_, _>>()?;
        if path.is_empty() {
            return Err(NameError::EmptyPath);
        }
        Ok(Urn::from_parts(authority, kind, path))
    }

    /// Convenience constructor for [`NameKind::Agent`] names.
    pub fn agent<A: AsRef<str>, I: IntoIterator<Item = S>, S: AsRef<str>>(
        authority: A,
        path: I,
    ) -> Result<Self, NameError> {
        Self::new(authority, NameKind::Agent, path)
    }

    /// Convenience constructor for [`NameKind::Server`] names.
    pub fn server<A: AsRef<str>, I: IntoIterator<Item = S>, S: AsRef<str>>(
        authority: A,
        path: I,
    ) -> Result<Self, NameError> {
        Self::new(authority, NameKind::Server, path)
    }

    /// Convenience constructor for [`NameKind::Resource`] names.
    pub fn resource<A: AsRef<str>, I: IntoIterator<Item = S>, S: AsRef<str>>(
        authority: A,
        path: I,
    ) -> Result<Self, NameError> {
        Self::new(authority, NameKind::Resource, path)
    }

    /// Convenience constructor for [`NameKind::Group`] names.
    pub fn group<A: AsRef<str>, I: IntoIterator<Item = S>, S: AsRef<str>>(
        authority: A,
        path: I,
    ) -> Result<Self, NameError> {
        Self::new(authority, NameKind::Group, path)
    }

    /// Convenience constructor for [`NameKind::Owner`] names.
    pub fn owner<A: AsRef<str>, I: IntoIterator<Item = S>, S: AsRef<str>>(
        authority: A,
        path: I,
    ) -> Result<Self, NameError> {
        Self::new(authority, NameKind::Owner, path)
    }

    /// The registering organization, e.g. `umn.edu`.
    pub fn authority(&self) -> &str {
        &self.0.authority
    }

    /// The kind tag.
    pub fn kind(&self) -> NameKind {
        self.0.kind
    }

    /// Path segments below the kind, always non-empty.
    pub fn path(&self) -> &[String] {
        &self.0.path
    }

    /// The final path segment — the object's local name.
    pub fn leaf(&self) -> &str {
        self.path().last().expect("path is never empty")
    }

    /// Derives a child name by appending one segment, e.g. naming the
    /// `i`-th clone of an agent.
    pub fn child<S: AsRef<str>>(&self, segment: S) -> Result<Self, NameError> {
        let s = segment.as_ref();
        validate_segment(s)?;
        let mut path = self.path().to_vec();
        path.push(s.to_string());
        Ok(Urn::from_parts(self.authority(), self.kind(), path))
    }

    /// True when `self` names an object inside `ancestor`'s subtree
    /// (same authority and kind, `ancestor.path` a strict or equal prefix).
    ///
    /// Used by policies granting rights over whole name subtrees.
    pub fn is_within(&self, ancestor: &Urn) -> bool {
        let (path, prefix) = (self.path(), ancestor.path());
        self.authority() == ancestor.authority()
            && self.kind() == ancestor.kind()
            && path.len() >= prefix.len()
            && path[..prefix.len()] == prefix[..]
    }

    fn from_parts(authority: &str, kind: NameKind, path: Vec<String>) -> Self {
        Urn(Arc::new(Parts {
            authority: authority.to_string(),
            kind,
            path,
        }))
    }
}

impl fmt::Display for Urn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ajn://{}/{}", self.authority(), self.kind())?;
        for seg in self.path() {
            write!(f, "/{seg}")?;
        }
        Ok(())
    }
}

impl FromStr for Urn {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s.strip_prefix("ajn://").ok_or(NameError::BadScheme)?;
        let mut parts = rest.split('/');
        let authority = parts.next().unwrap_or_default();
        validate_authority(authority)?;
        let kind: NameKind = parts
            .next()
            .ok_or(NameError::EmptyPath)?
            .parse::<NameKind>()?;
        let path: Vec<String> = parts
            .map(|seg| validate_segment(seg).map(|_| seg.to_string()))
            .collect::<Result<_, _>>()?;
        if path.is_empty() {
            return Err(NameError::EmptyPath);
        }
        Ok(Urn::from_parts(authority, kind, path))
    }
}

fn validate_authority(a: &str) -> Result<(), NameError> {
    if a.is_empty() {
        return Err(NameError::BadAuthority(a.to_string()));
    }
    for label in a.split('.') {
        let ok = !label.is_empty()
            && label
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
            && !label.starts_with('-')
            && !label.ends_with('-');
        if !ok {
            return Err(NameError::BadAuthority(a.to_string()));
        }
    }
    Ok(())
}

fn validate_segment(s: &str) -> Result<(), NameError> {
    let ok = !s.is_empty()
        && s.bytes().all(|b| {
            b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'.' | b'_' | b'-')
        });
    if ok {
        Ok(())
    } else {
        Err(NameError::BadSegment(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_simple() {
        let text = "ajn://umn.edu/agent/shopper/42";
        let urn: Urn = text.parse().unwrap();
        assert_eq!(urn.authority(), "umn.edu");
        assert_eq!(urn.kind(), NameKind::Agent);
        assert_eq!(urn.path(), ["shopper".to_string(), "42".to_string()]);
        assert_eq!(urn.leaf(), "42");
        assert_eq!(urn.to_string(), text);
    }

    #[test]
    fn builder_equals_parser() {
        let built = Urn::resource("acme.com", ["catalog", "books"]).unwrap();
        let parsed: Urn = "ajn://acme.com/resource/catalog/books".parse().unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn all_kinds_parse() {
        for kind in NameKind::ALL {
            let text = format!("ajn://x.org/{kind}/leaf");
            let urn: Urn = text.parse().unwrap();
            assert_eq!(urn.kind(), kind);
        }
    }

    #[test]
    fn rejects_missing_scheme() {
        assert_eq!(
            "http://x.org/agent/a".parse::<Urn>(),
            Err(NameError::BadScheme)
        );
        assert_eq!(
            "ajn:/x.org/agent/a".parse::<Urn>(),
            Err(NameError::BadScheme)
        );
    }

    #[test]
    fn rejects_bad_authority() {
        for bad in [
            "ajn:///agent/a",
            "ajn://UPPER/agent/a",
            "ajn://-x/agent/a",
            "ajn://x./agent/a",
        ] {
            assert!(
                matches!(bad.parse::<Urn>(), Err(NameError::BadAuthority(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn rejects_bad_kind() {
        assert!(matches!(
            "ajn://x.org/applet/a".parse::<Urn>(),
            Err(NameError::BadKind(_))
        ));
    }

    #[test]
    fn rejects_empty_path() {
        assert_eq!(
            "ajn://x.org/agent".parse::<Urn>(),
            Err(NameError::EmptyPath)
        );
        assert!(Urn::agent("x.org", Vec::<String>::new()).is_err());
    }

    #[test]
    fn rejects_bad_segment() {
        assert!(matches!(
            "ajn://x.org/agent/a//b".parse::<Urn>(),
            Err(NameError::BadSegment(_))
        ));
        assert!(matches!(
            "ajn://x.org/agent/A".parse::<Urn>(),
            Err(NameError::BadSegment(_))
        ));
        assert!(matches!(
            "ajn://x.org/agent/a b".parse::<Urn>(),
            Err(NameError::BadSegment(_))
        ));
    }

    #[test]
    fn child_extends_path() {
        let parent = Urn::agent("x.org", ["tour"]).unwrap();
        let child = parent.child("leg-1").unwrap();
        assert_eq!(child.to_string(), "ajn://x.org/agent/tour/leg-1");
        assert!(child.is_within(&parent));
        assert!(!parent.is_within(&child));
    }

    #[test]
    fn child_rejects_bad_segment() {
        let parent = Urn::agent("x.org", ["tour"]).unwrap();
        assert!(parent.child("Bad Seg").is_err());
    }

    #[test]
    fn is_within_requires_same_kind_and_authority() {
        let a = Urn::agent("x.org", ["t"]).unwrap();
        let r = Urn::resource("x.org", ["t"]).unwrap();
        let other = Urn::agent("y.org", ["t"]).unwrap();
        assert!(a.is_within(&a));
        assert!(!a.is_within(&r));
        assert!(!a.is_within(&other));
    }

    #[test]
    fn debug_prints_the_components() {
        let urn = Urn::agent("x.org", ["tour", "leg-1"]).unwrap();
        assert_eq!(
            format!("{urn:?}"),
            r#"Urn { authority: "x.org", kind: Agent, path: ["tour", "leg-1"] }"#
        );
    }

    #[test]
    fn clones_share_their_text() {
        let urn = Urn::resource("x.org", ["db"]).unwrap();
        let copy = urn.clone();
        assert_eq!(copy, urn);
        assert!(std::ptr::eq(copy.authority(), urn.authority()));
        assert!(std::ptr::eq(copy.path(), urn.path()));
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut names: Vec<Urn> = [
            "ajn://b.org/agent/a",
            "ajn://a.org/server/s",
            "ajn://a.org/agent/b",
            "ajn://a.org/agent/a",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        names.sort();
        let rendered: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        assert_eq!(
            rendered,
            [
                "ajn://a.org/agent/a",
                "ajn://a.org/agent/b",
                "ajn://a.org/server/s",
                "ajn://b.org/agent/a",
            ]
        );
    }
}
