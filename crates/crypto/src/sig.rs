//! Schnorr signatures over a safe-prime group (simulation-grade).
//!
//! Parameters: `p = 2q + 1` a 62-bit safe prime, `g = 4` generating the
//! order-`q` subgroup of `Z_p^*`. A unit test re-proves primality of both
//! constants with the deterministic Miller–Rabin in [`crate::modmath`].
//!
//! Scheme (hash = SHA-256):
//!
//! ```text
//! keygen:  x ←$ [1, q),  y = g^x mod p
//! sign:    k ←$ [1, q),  r = g^k mod p,  e = H(domain ‖ r ‖ m) mod q,
//!          s = (k + x·e) mod q,          signature = (e, s)
//! verify:  r' = g^s · y^(q−e) mod p,     accept iff e == H(domain ‖ r' ‖ m) mod q
//! ```
//!
//! The 62-bit group is **not secure** (see the crate-level caveat); it
//! exists so that credentials and channel handshakes carry real
//! verify-or-reject semantics against the simulated adversaries, with the
//! honest-path behaviour (and relative costs) of public-key signatures.

use std::cell::Cell;

use serde::{Deserialize, Serialize};

use crate::modmath::{add_mod, mul_mod, pow_mod};
use crate::rng::DetRng;
use crate::sha256::Sha256;

/// The 62-bit safe prime modulus `p`.
pub const P: u64 = 0x3fff_ffff_ffff_d6bb;
/// The subgroup order `q = (p − 1) / 2`, also prime.
pub const Q: u64 = 0x1fff_ffff_ffff_eb5d;
/// Generator of the order-`q` subgroup (`g = 2² mod p`).
pub const G: u64 = 4;

/// Domain-separation prefix folded into every signature hash, so signatures
/// from this module can never be confused with HMAC tags or other hashes.
const DOMAIN: &[u8] = b"ajanta.sig.v1";

/// A public verification key (a group element `y = g^x`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PublicKey(pub u64);

/// A secret signing key (an exponent in `[1, q)`).
///
/// Deliberately not `Copy`, does not implement `Display`, and debug-prints
/// redacted, to make accidental leakage in logs harder.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey(u64);

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

/// A Schnorr signature `(e, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    /// Challenge hash reduced mod `q`.
    pub e: u64,
    /// Response scalar.
    pub s: u64,
}

/// Errors from signature operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// The signature did not verify against the key and message.
    BadSignature,
    /// The public key is not a valid group element.
    BadKey,
}

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureError::BadSignature => f.write_str("signature verification failed"),
            SignatureError::BadKey => f.write_str("public key is not a valid group element"),
        }
    }
}

impl std::error::Error for SignatureError {}

/// A signing/verification key pair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// The public half, freely shareable.
    pub public: PublicKey,
    secret: SecretKey,
}

impl KeyPair {
    /// Generates a key pair from the given RNG.
    pub fn generate(rng: &mut DetRng) -> Self {
        let x = rng.range_inclusive(1, Q - 1);
        let y = pow_mod(G, x, P);
        KeyPair {
            public: PublicKey(y),
            secret: SecretKey(x),
        }
    }

    /// Borrow the secret key for signing.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// Signs `msg` with a nonce drawn from `rng`.
    pub fn sign(&self, msg: &[u8], rng: &mut DetRng) -> Signature {
        sign(&self.secret, msg, rng)
    }

    /// Diffie–Hellman with the static secret: `base^x mod p`. Used by the
    /// sealed-datagram scheme in `ajanta-net`, where a sender encrypts to
    /// this key pair's public half.
    pub fn raise(&self, base: u64) -> u64 {
        pow_mod(base, self.secret.0, P)
    }
}

/// Checks that `y` lies in the order-`q` subgroup (and is not the
/// identity), i.e. it is a possible public key.
pub fn valid_public_key(key: &PublicKey) -> bool {
    let y = key.0;
    y > 1 && y < P && pow_mod(y, Q, P) == 1
}

/// Hash-to-scalar: `H(DOMAIN ‖ r ‖ m) mod q`.
fn challenge(r: u64, msg: &[u8]) -> u64 {
    let mut h = Sha256::new();
    h.update(DOMAIN);
    h.update(r.to_be_bytes());
    h.update(msg);
    h.finalize().prefix_u64() % Q
}

/// Signs `msg` under `sk`.
pub fn sign(sk: &SecretKey, msg: &[u8], rng: &mut DetRng) -> Signature {
    loop {
        let k = rng.range_inclusive(1, Q - 1);
        let r = pow_mod(G, k, P);
        let e = challenge(r, msg);
        if e == 0 {
            // Degenerate challenge would leak k; resample (astronomically rare).
            continue;
        }
        let s = add_mod(k, mul_mod(sk.0, e, Q), Q);
        return Signature { e, s };
    }
}

thread_local! {
    static CHECKS: Cell<u64> = const { Cell::new(0) };
}

/// How many times [`verify`] has run on the calling thread: the
/// deterministic cost unit of credential and certificate validation,
/// which a caller reads before and after an operation.
pub fn checks_on_this_thread() -> u64 {
    CHECKS.with(Cell::get)
}

/// Verifies `sig` over `msg` under `pk`.
pub fn verify(pk: &PublicKey, msg: &[u8], sig: &Signature) -> Result<(), SignatureError> {
    CHECKS.with(|c| c.set(c.get() + 1));
    if !valid_public_key(pk) {
        return Err(SignatureError::BadKey);
    }
    if sig.e == 0 || sig.e >= Q || sig.s >= Q {
        return Err(SignatureError::BadSignature);
    }
    // r' = g^s * y^(q - e)  (y has order q, so y^(q-e) = y^(-e))
    let gs = pow_mod(G, sig.s, P);
    let y_ne = pow_mod(pk.0, Q - sig.e, P);
    let r = mul_mod(gs, y_ne, P);
    if challenge(r, msg) == sig.e {
        Ok(())
    } else {
        Err(SignatureError::BadSignature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modmath::is_prime;

    fn pair(seed: u64) -> (KeyPair, DetRng) {
        let mut rng = DetRng::new(seed);
        let kp = KeyPair::generate(&mut rng);
        (kp, rng)
    }

    /// The hardcoded group parameters really are a safe-prime group.
    #[test]
    fn group_parameters_are_sound() {
        assert!(is_prime(P), "p must be prime");
        assert!(is_prime(Q), "q must be prime");
        assert_eq!(P, 2 * Q + 1, "p must be a safe prime 2q+1");
        assert_eq!(pow_mod(G, Q, P), 1, "g must have order q");
        assert_ne!(G, 1);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (kp, mut rng) = pair(100);
        for msg in [b"".as_slice(), b"a", b"agent credentials", &[0u8; 1000]] {
            let sig = kp.sign(msg, &mut rng);
            verify(&kp.public, msg, &sig).unwrap();
        }
    }

    #[test]
    fn wrong_message_rejected() {
        let (kp, mut rng) = pair(101);
        let sig = kp.sign(b"original", &mut rng);
        assert_eq!(
            verify(&kp.public, b"tampered", &sig),
            Err(SignatureError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let (kp1, mut rng) = pair(102);
        let kp2 = KeyPair::generate(&mut rng);
        let sig = kp1.sign(b"msg", &mut rng);
        assert_eq!(
            verify(&kp2.public, b"msg", &sig),
            Err(SignatureError::BadSignature)
        );
    }

    #[test]
    fn perturbed_signature_rejected() {
        let (kp, mut rng) = pair(103);
        let msg = b"perturbation test";
        let sig = kp.sign(msg, &mut rng);
        for bit in 0..62 {
            let bad_e = Signature {
                e: sig.e ^ (1 << bit),
                s: sig.s,
            };
            let bad_s = Signature {
                e: sig.e,
                s: sig.s ^ (1 << bit),
            };
            assert!(
                verify(&kp.public, msg, &bad_e).is_err(),
                "flipped e bit {bit}"
            );
            assert!(
                verify(&kp.public, msg, &bad_s).is_err(),
                "flipped s bit {bit}"
            );
        }
    }

    #[test]
    fn out_of_range_components_rejected() {
        let (kp, mut rng) = pair(104);
        let sig = kp.sign(b"m", &mut rng);
        for bad in [
            Signature { e: 0, s: sig.s },
            Signature { e: Q, s: sig.s },
            Signature { e: sig.e, s: Q },
        ] {
            assert_eq!(
                verify(&kp.public, b"m", &bad),
                Err(SignatureError::BadSignature)
            );
        }
    }

    #[test]
    fn invalid_public_keys_rejected() {
        let (kp, mut rng) = pair(105);
        let sig = kp.sign(b"m", &mut rng);
        for y in [0u64, 1, P, P + 5] {
            assert_eq!(
                verify(&PublicKey(y), b"m", &sig),
                Err(SignatureError::BadKey),
                "y={y}"
            );
        }
        // An element of the full group that is NOT in the order-q subgroup:
        // any quadratic non-residue, e.g. g' = 2 (since 2^q mod p != 1 for
        // this group) — verify that validity check catches it.
        assert_ne!(pow_mod(2, Q, P), 1, "2 must be a non-residue for this test");
        assert_eq!(
            verify(&PublicKey(2), b"m", &sig),
            Err(SignatureError::BadKey)
        );
    }

    #[test]
    fn signatures_are_randomized() {
        let (kp, mut rng) = pair(106);
        let s1 = kp.sign(b"m", &mut rng);
        let s2 = kp.sign(b"m", &mut rng);
        assert_ne!(s1, s2, "distinct nonces must give distinct signatures");
        verify(&kp.public, b"m", &s1).unwrap();
        verify(&kp.public, b"m", &s2).unwrap();
    }

    #[test]
    fn keygen_is_deterministic_per_seed() {
        let (kp1, _) = pair(200);
        let (kp2, _) = pair(200);
        let (kp3, _) = pair(201);
        assert_eq!(kp1.public, kp2.public);
        assert_ne!(kp1.public, kp3.public);
    }

    #[test]
    fn public_keys_are_valid_group_elements() {
        let mut rng = DetRng::new(300);
        for _ in 0..20 {
            let kp = KeyPair::generate(&mut rng);
            assert!(valid_public_key(&kp.public));
        }
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let (kp, _) = pair(400);
        assert_eq!(format!("{:?}", kp.secret()), "SecretKey(<redacted>)");
    }
}
