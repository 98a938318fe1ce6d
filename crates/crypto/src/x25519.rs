//! X25519 Diffie-Hellman key exchange (RFC 7748).
//!
//! Vuvuzela performs one fresh X25519 exchange per onion layer per round
//! (paper Algorithm 1 step 2 and Algorithm 2 step 1) — this function
//! dominates server CPU time (paper §8.2), so its cost model is the basis
//! for the throughput/latency extrapolations in the benchmark harness.

use crate::field::Fe;
use rand::{CryptoRng, RngCore};

/// The length in bytes of scalars, public keys and shared secrets.
pub const KEY_LEN: usize = 32;

/// The X25519 base point (u = 9).
pub const BASE_POINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// A Curve25519 secret scalar.
///
/// Stored unclamped; clamping happens inside the ladder, per RFC 7748.
#[derive(Clone)]
pub struct SecretKey([u8; 32]);

/// A Curve25519 public key (Montgomery u-coordinate).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub [u8; 32]);

/// A 32-byte Diffie-Hellman shared secret.
///
/// Callers should pass this through a KDF ([`crate::hkdf`]) before using it
/// as a cipher key; [`crate::onion`] does so internally.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SharedSecret(pub [u8; 32]);

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SecretKey(..)") // never print key material
    }
}

impl core::fmt::Debug for SharedSecret {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SharedSecret(..)")
    }
}

impl core::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "PublicKey({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl SecretKey {
    /// Generates a fresh random secret key.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> SecretKey {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        SecretKey(bytes)
    }

    /// Builds a secret key from raw bytes (useful for tests and key
    /// derivation); the bytes are clamped when used.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> SecretKey {
        SecretKey(bytes)
    }

    /// The raw (unclamped) scalar bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Derives the corresponding public key: `X25519(sk, 9)`.
    ///
    /// Uses the fixed-base comb table ([`x25519_base`]) rather than the
    /// general ladder — keygen is the half of every onion layer's cost
    /// that *can* exploit a fixed base.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        PublicKey(x25519_base(&self.0))
    }

    /// Computes the Diffie-Hellman shared secret with a peer public key.
    ///
    /// The all-zero output (low-order peer point) is *not* rejected here —
    /// Vuvuzela's onion layer rejects it at KDF time so the mixnet can still
    /// count the malformed request. See
    /// [`CryptoError::DegenerateSharedSecret`](crate::CryptoError).
    #[must_use]
    pub fn diffie_hellman(&self, peer: &PublicKey) -> SharedSecret {
        SharedSecret(x25519(&self.0, &peer.0))
    }
}

impl PublicKey {
    /// Builds a public key from its 32-byte u-coordinate encoding.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> PublicKey {
        PublicKey(bytes)
    }

    /// The raw u-coordinate bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// A keypair convenience bundle.
#[derive(Clone, Debug)]
pub struct Keypair {
    /// The secret half.
    pub secret: SecretKey,
    /// The public half.
    pub public: PublicKey,
}

impl Keypair {
    /// Generates a fresh random keypair (comb-table keygen).
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> Keypair {
        let secret = SecretKey::generate(rng);
        let public = secret.public_key();
        Keypair { secret, public }
    }

    /// Generates a keypair deriving the public key through the general
    /// Montgomery ladder instead of the fixed-base table. Bit-identical
    /// keys and identical RNG consumption; pre-refactor cost. Used by the
    /// reference onion path so benchmarks measure the seed
    /// implementation's real price.
    pub fn generate_reference<R: RngCore + CryptoRng>(rng: &mut R) -> Keypair {
        let secret = SecretKey::generate(rng);
        let public = PublicKey(x25519(&secret.0, &BASE_POINT));
        Keypair { secret, public }
    }
}

/// A precomputed Diffie-Hellman accelerator for one long-lived public
/// key: `DhTable::new(pk)` builds an Edwards comb table once, after which
/// [`DhTable::diffie_hellman`] computes `sk · pk` with the scalar comb,
/// bit-identically to the ladder. Mix servers keep one per downstream
/// server so cover-traffic wrapping (a fresh ephemeral scalar against the
/// same server keys, thousands of times per round) runs at comb speed:
/// the bulk noise path ([`crate::onion::wrap_noise_chunk_into`]) walks
/// eight scalars at a time over this table on AVX-512 IFMA, and the
/// scalar comb elsewhere (see [`batch_kernel`]).
///
/// Construction returns `None` for u-coordinates on the curve's
/// quadratic twist (the Edwards form cannot represent them); callers fall
/// back to [`SecretKey::diffie_hellman`], which handles both.
pub struct DhTable {
    inner: crate::edwards::PointTable,
}

impl DhTable {
    /// Builds the table (≈1 ms; amortized over a key's lifetime).
    #[must_use]
    pub fn new(pk: &PublicKey) -> Option<DhTable> {
        crate::edwards::PointTable::new(&pk.0).map(|inner| DhTable { inner })
    }

    /// `sk · pk`, bit-identical to [`SecretKey::diffie_hellman`] with the
    /// key this table was built from.
    #[must_use]
    pub fn diffie_hellman(&self, sk: &SecretKey) -> SharedSecret {
        SharedSecret(self.inner.scalarmult_u(&clamp(sk.0)))
    }

    /// The comb table, for the batched onion wrapper.
    pub(crate) fn table(&self) -> &crate::edwards::PointTable {
        &self.inner
    }
}

/// Resolves deferred scalar-multiplication results into `out` with one
/// shared field inversion (Montgomery's trick).
pub(crate) fn resolve_pending_into(pending: &[crate::edwards::PendingU], out: &mut [[u8; 32]]) {
    crate::edwards::resolve_batch_into(pending, out);
}

/// Clamps a scalar per RFC 7748 §5: clear the low 3 bits, clear bit 255,
/// set bit 254.
#[must_use]
pub(crate) fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// Fixed-base X25519: computes `X25519(scalar, 9)` (public-key
/// derivation / ephemeral keygen) via the precomputed Edwards comb table
/// in [`crate::edwards`] — about a fifth of the field multiplications of
/// the general [`x25519`] ladder against the base point. Bit-identical
/// results to `x25519(scalar, &BASE_POINT)`. One scalar at a time; the
/// noise wrapper runs eight per AVX-512 IFMA call instead.
#[must_use]
pub fn x25519_base(scalar: &[u8; 32]) -> [u8; 32] {
    crate::edwards::scalarmult_base_u(&clamp(*scalar))
}

/// The X25519 function: scalar multiplication on the Montgomery curve,
/// implemented with the RFC 7748 ladder.
#[must_use]
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let pending = ladder(&clamp(*scalar), u);
    let mut out = [[0u8; 32]];
    resolve_pending_into(&[pending], &mut out);
    out[0]
}

/// The batch kernel this CPU runs: `"ifma8"` or `"fe4"`. One CPU check
/// selects both batch paths:
///
/// * the variable-base ladder of [`x25519_batch`] and the onion peeler
///   ([`crate::onion::peel_chunk_in_place`]): eight ladders per AVX-512
///   IFMA call on `"ifma8"`, four per [`crate::fe4::Fe4`] call on
///   `"fe4"`;
/// * the fixed-point comb of the noise wrapper
///   ([`crate::onion::wrap_noise_chunk_into`]), for its keygens and its
///   DHs against server keys: eight comb walks per AVX-512 IFMA call on
///   `"ifma8"`, the scalar comb on `"fe4"`.
///
/// CPU feature detection is the only selector; see [`crate::batch`].
#[must_use]
pub fn batch_kernel() -> &'static str {
    crate::batch::Kernel::detect().name()
}

/// Batched X25519: computes `X25519(scalars[i], us[i])` for parallel
/// slices of scalars and u-coordinates. The ladders run eight-wide on
/// AVX-512 IFMA where the CPU has it and four-wide over
/// [`crate::fe4::Fe4`] otherwise, with the scalar ladder for leftovers
/// (see [`batch_kernel`]). The final field inversions are shared across
/// sub-batches of [`crate::edwards::MAX_RESOLVE_BATCH`] via Montgomery's
/// trick. Bit-identical to calling [`x25519`] element-wise — low-order
/// inputs yield the all-zero output in their lane without disturbing
/// the rest of the batch.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn x25519_batch(scalars: &[[u8; 32]], us: &[[u8; 32]]) -> Vec<[u8; 32]> {
    assert_eq!(scalars.len(), us.len(), "parallel slices must match");
    let n = scalars.len();
    let mut pending = vec![crate::edwards::PendingU::PLACEHOLDER; n];
    crate::batch::ladders_into(
        crate::batch::Kernel::detect(),
        |i| clamp(scalars[i]),
        us,
        &mut pending,
    );

    let mut out = vec![[0u8; 32]; n];
    for (pending_chunk, out_chunk) in pending
        .chunks(crate::edwards::MAX_RESOLVE_BATCH)
        .zip(out.chunks_mut(crate::edwards::MAX_RESOLVE_BATCH))
    {
        resolve_pending_into(pending_chunk, out_chunk);
    }
    out
}

/// The raw RFC 7748 Montgomery ladder, stopping before the final
/// `x2 · z2⁻¹` inversion. A low-order input leaves `z2 = 0`, which the
/// batch resolver maps to the all-zero output exactly as
/// `Fe::invert(0) == 0` does on the immediate path.
pub(crate) fn ladder(k: &[u8; 32], u: &[u8; 32]) -> crate::edwards::PendingU {
    let x1 = Fe::from_bytes(u);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = u64::from((k[t / 8] >> (t % 8)) & 1);
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(121_665)));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);

    crate::edwards::PendingU::from_ratio(x2, z2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("valid hex");
        }
        out
    }

    /// RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector_1() {
        let scalar = hex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = hex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let want = hex32("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
        assert_eq!(x25519(&scalar, &u), want);
    }

    /// RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector_2() {
        let scalar = hex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = hex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let want = hex32("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
        assert_eq!(x25519(&scalar, &u), want);
    }

    /// RFC 7748 §5.2 iterated ladder, 1 iteration.
    #[test]
    fn rfc7748_iterated_once() {
        let k = BASE_POINT;
        let u = BASE_POINT;
        let want = hex32("422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
        assert_eq!(x25519(&k, &u), want);
    }

    /// RFC 7748 §5.2 iterated ladder, 1000 iterations (slow-ish; still
    /// comfortably fast at opt-level >= 1).
    #[test]
    fn rfc7748_iterated_1000() {
        let mut k = BASE_POINT;
        let mut u = BASE_POINT;
        for _ in 0..1000 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
        }
        let want = hex32("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
        assert_eq!(k, want);
    }

    /// RFC 7748 §6.1 Diffie-Hellman test vectors (Alice/Bob).
    #[test]
    fn rfc7748_dh_alice_bob() {
        let alice_sk = SecretKey::from_bytes(hex32(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        ));
        let bob_sk = SecretKey::from_bytes(hex32(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        ));
        let alice_pk = alice_sk.public_key();
        let bob_pk = bob_sk.public_key();
        assert_eq!(
            alice_pk.0,
            hex32("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
        );
        assert_eq!(
            bob_pk.0,
            hex32("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
        );
        let k1 = alice_sk.diffie_hellman(&bob_pk);
        let k2 = bob_sk.diffie_hellman(&alice_pk);
        let want = hex32("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
        assert_eq!(k1.0, want);
        assert_eq!(k2.0, want);
    }

    #[test]
    fn dh_is_commutative_for_random_keys() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..8 {
            let a = Keypair::generate(&mut rng);
            let b = Keypair::generate(&mut rng);
            assert_eq!(
                a.secret.diffie_hellman(&b.public).0,
                b.secret.diffie_hellman(&a.public).0
            );
        }
    }

    #[test]
    fn low_order_point_yields_zero_secret() {
        let sk = SecretKey::from_bytes([0x42; 32]);
        let zero_point = PublicKey::from_bytes([0u8; 32]);
        assert_eq!(sk.diffie_hellman(&zero_point).0, [0u8; 32]);
    }

    #[test]
    fn batch_matches_scalar_across_sizes_and_tails() {
        // Sizes 1..=9 cover, on the kernel this CPU picks, a padded and
        // a full octet plus the lone scalar leftover (IFMA), or empty and
        // exact quads plus 1–3-lane scalar tails (Fe4); every output must
        // equal the scalar ladder's.
        let mut rng = StdRng::seed_from_u64(11);
        for n in 1usize..=9 {
            let mut scalars = vec![[0u8; 32]; n];
            let mut us = vec![[0u8; 32]; n];
            for i in 0..n {
                rng.fill_bytes(&mut scalars[i]);
                rng.fill_bytes(&mut us[i]);
            }
            let batch = x25519_batch(&scalars, &us);
            for i in 0..n {
                assert_eq!(batch[i], x25519(&scalars[i], &us[i]), "n {n} lane {i}");
            }
        }
        assert!(x25519_batch(&[], &[]).is_empty());
    }

    #[test]
    fn batch_lanes_carry_rfc7748_vectors() {
        // The two RFC 7748 §5.2 vectors placed in every lane position of
        // one quad, padded with random pairs.
        let s1 = hex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u1 = hex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let w1 = hex32("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
        let s2 = hex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u2 = hex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let w2 = hex32("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
        let mut rng = StdRng::seed_from_u64(12);
        for position in 0..4 {
            let mut scalars = vec![[0u8; 32]; 4];
            let mut us = vec![[0u8; 32]; 4];
            for i in 0..4 {
                rng.fill_bytes(&mut scalars[i]);
                rng.fill_bytes(&mut us[i]);
            }
            scalars[position] = s1;
            us[position] = u1;
            scalars[(position + 2) % 4] = s2;
            us[(position + 2) % 4] = u2;
            let batch = x25519_batch(&scalars, &us);
            assert_eq!(batch[position], w1, "vector 1 in lane {position}");
            assert_eq!(batch[(position + 2) % 4], w2, "vector 2 in lane {position}");
        }
    }

    #[test]
    fn batch_low_order_lanes_resolve_to_zero() {
        // Low-order u-coordinates (0 and 1) must produce the all-zero
        // secret in their lane — including an all-low-order quad, the
        // inverse-of-zero edge the shared batch inversion must survive —
        // without corrupting honest lanes.
        let mut rng = StdRng::seed_from_u64(13);
        let mut scalars = vec![[0u8; 32]; 6];
        let mut us = vec![[0u8; 32]; 6];
        for i in 0..6 {
            rng.fill_bytes(&mut scalars[i]);
            rng.fill_bytes(&mut us[i]);
        }
        us[1] = [0u8; 32]; // the identity
        us[3] = {
            let mut u = [0u8; 32];
            u[0] = 1; // order-4 point
            u
        };
        let batch = x25519_batch(&scalars, &us);
        for i in 0..6 {
            assert_eq!(batch[i], x25519(&scalars[i], &us[i]), "lane {i}");
        }
        assert_eq!(batch[1], [0u8; 32]);
        assert_eq!(batch[3], [0u8; 32]);

        let zeros = vec![[0u8; 32]; 4];
        let all_low = x25519_batch(&scalars[..4], &zeros);
        assert_eq!(all_low, vec![[0u8; 32]; 4], "all-low-order quad");
    }

    #[test]
    fn secret_key_debug_redacts() {
        let sk = SecretKey::from_bytes([0xAA; 32]);
        let dbg = format!("{sk:?}");
        assert!(!dbg.contains("aa"), "secret bytes must not leak via Debug");
    }
}
