//! X14 — credential operations (Section 5.2).
//!
//! Construction, verification (including certificate-chain validation),
//! endorsement (the forwarding "subcontract"), and verification of an
//! endorsed chain.

use std::time::Instant;

use ajanta_core::{Credentials, CredentialsBuilder, Rights};
use ajanta_crypto::cert::Certificate;
use ajanta_crypto::{sig, DetRng, KeyPair, RootOfTrust};
use ajanta_naming::Urn;

/// One operation's cost.
#[derive(Debug, Clone)]
pub struct CredentialRow {
    /// Operation.
    pub op: &'static str,
    /// Mean cost, ns.
    pub ns: f64,
    /// Signature checks per operation (certificate chains included).
    pub checks: u64,
}

struct Fixture {
    roots: RootOfTrust,
    owner_keys: KeyPair,
    owner: Urn,
    chain: Vec<Certificate>,
    server: Urn,
    server_keys: KeyPair,
    server_chain: Vec<Certificate>,
    rng: DetRng,
}

fn fixture() -> Fixture {
    let mut rng = DetRng::new(0x14);
    let ca = KeyPair::generate(&mut rng);
    let mut roots = RootOfTrust::new();
    roots.trust("ca", ca.public);
    let owner = Urn::owner("users.org", ["alice"]).unwrap();
    let owner_keys = KeyPair::generate(&mut rng);
    let cert = Certificate::issue(
        owner.to_string(),
        owner_keys.public,
        "ca",
        &ca,
        u64::MAX,
        1,
        &mut rng,
    );
    let server = Urn::server("site.org", ["s"]).unwrap();
    let server_keys = KeyPair::generate(&mut rng);
    let server_cert = Certificate::issue(
        server.to_string(),
        server_keys.public,
        "ca",
        &ca,
        u64::MAX,
        2,
        &mut rng,
    );
    Fixture {
        roots,
        owner_keys,
        owner,
        chain: vec![cert],
        server,
        server_keys,
        server_chain: vec![server_cert],
        rng,
    }
}

fn mint(fx: &mut Fixture, i: u64) -> Credentials {
    CredentialsBuilder::new(
        Urn::agent("users.org", ["bench", &format!("{i}")]).unwrap(),
        fx.owner.clone(),
    )
    .owner_chain(fx.chain.clone())
    .delegate(Rights::on_subtree(
        Urn::resource("stores.org", ["catalog"]).unwrap(),
    ))
    .expires_at(u64::MAX)
    .sign(&fx.owner_keys, &mut fx.rng)
}

/// Runs `op` `iters` times: (mean ns, signature checks per call).
fn measure(iters: u64, mut op: impl FnMut(u64)) -> (f64, u64) {
    let checks = sig::checks_on_this_thread();
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    (ns, (sig::checks_on_this_thread() - checks) / iters)
}

/// Measures each operation `iters` times.
pub fn run(iters: u64) -> Vec<CredentialRow> {
    let mut fx = fixture();

    let mint_cost = measure(iters, |i| {
        std::hint::black_box(mint(&mut fx, i));
    });

    let creds = mint(&mut fx, u64::MAX);
    let verify_cost = measure(iters, |_| {
        std::hint::black_box(creds.verify(&fx.roots, 0).unwrap());
    });

    let restriction = Rights::none().grant_method(
        Urn::resource("stores.org", ["catalog", "books"]).unwrap(),
        "query",
    );
    let endorse_cost = measure(iters, |_| {
        std::hint::black_box(creds.endorse(
            &fx.server,
            &fx.server_keys,
            fx.server_chain.clone(),
            restriction.clone(),
            &mut fx.rng,
        ));
    });

    let endorsed = creds.endorse(
        &fx.server,
        &fx.server_keys,
        fx.server_chain.clone(),
        restriction,
        &mut fx.rng,
    );
    let verify_endorsed_cost = measure(iters, |_| {
        std::hint::black_box(endorsed.verify(&fx.roots, 0).unwrap());
    });

    [
        ("mint (sign)", mint_cost),
        ("verify (chain + signature)", verify_cost),
        ("endorse (forwarding restriction)", endorse_cost),
        ("verify with one endorsement", verify_endorsed_cost),
    ]
    .into_iter()
    .map(|(op, (ns, checks))| CredentialRow { op, ns, checks })
    .collect()
}

/// Renders the table.
pub fn table(iters: u64) -> String {
    let rows = run(iters);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.op.to_string(), crate::fmt_ns(r.ns), r.checks.to_string()])
        .collect();
    crate::render_table(
        &format!("X14 — credential operations ({iters} iterations)"),
        &["operation", "mean cost", "signature checks"],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endorsed_verification_costs_more() {
        // Counted, not timed: the endorsement adds its certificate chain
        // and its layer signature to the owner's chain and signature.
        let rows = run(10);
        let checks: Vec<u64> = rows.iter().map(|r| r.checks).collect();
        assert_eq!(checks, [0, 2, 0, 4], "signature checks per operation");
    }
}
