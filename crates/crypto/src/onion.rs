//! Layered ("onion") encryption for the Vuvuzela server chain.
//!
//! Implements Algorithm 1 step 2 (client-side wrapping), Algorithm 2
//! step 1 (server-side peeling) and Algorithm 2 step 4 / Algorithm 1
//! step 3 (the reply path) from the paper.
//!
//! Wire layout of one request layer:
//!
//! ```text
//! ┌────────────────────┬──────────────────────────────────┐
//! │ ephemeral pk (32B) │ ChaCha20-Poly1305(inner) (…+16B) │
//! └────────────────────┴──────────────────────────────────┘
//! ```
//!
//! The client generates a fresh X25519 keypair *per layer per round*; the
//! layer key is `HKDF(DH(eph_sk, server_pk))`. The same layer key encrypts
//! the server's reply on the way back (with a direction-separated nonce),
//! which is the "temporary key for that server to use to encrypt the
//! user's result on the way back" of §4.1. Each request layer therefore
//! adds [`LAYER_OVERHEAD`] bytes, and each reply layer adds
//! [`REPLY_LAYER_OVERHEAD`] bytes.

use crate::aead;
use crate::batch::Kernel;
use crate::hkdf::hkdf;
use crate::x25519::{DhTable, Keypair, PublicKey, SecretKey, SharedSecret};
use crate::CryptoError;
use rand::{CryptoRng, RngCore};

/// Bytes added per onion layer on the request path (ephemeral public key
/// plus AEAD tag).
pub const LAYER_OVERHEAD: usize = 32 + aead::TAG_LEN;

/// Bytes added per onion layer on the reply path (AEAD tag only; the key
/// was established on the way in).
pub const REPLY_LAYER_OVERHEAD: usize = aead::TAG_LEN;

/// HKDF domain-separation label for onion layer keys.
const LAYER_INFO: &[u8] = b"vuvuzela/onion/layer/v1";

/// Direction of travel through the chain, used for nonce separation so the
/// request and reply under one layer key never share a nonce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Client → last server.
    Request,
    /// Last server → client.
    Reply,
}

/// Builds the deterministic per-round nonce for one direction.
///
/// Safe because every layer key is fresh per round: a (key, nonce) pair is
/// never reused.
#[must_use]
pub fn round_nonce(round: u64, direction: Direction) -> [u8; aead::NONCE_LEN] {
    let mut nonce = [0u8; aead::NONCE_LEN];
    nonce[0] = match direction {
        Direction::Request => 0x01,
        Direction::Reply => 0x02,
    };
    nonce[4..12].copy_from_slice(&round.to_le_bytes());
    nonce
}

/// The symmetric key shared between a client and one server for one round.
#[derive(Clone)]
pub struct LayerKey(pub [u8; 32]);

impl core::fmt::Debug for LayerKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "LayerKey(..)")
    }
}

/// Derives a layer key from a DH exchange, rejecting degenerate (all-zero)
/// shared secrets produced by low-order public keys.
///
/// # Errors
///
/// [`CryptoError::DegenerateSharedSecret`] when the DH output is zero.
pub fn derive_layer_key(
    my_secret: &SecretKey,
    their_public: &PublicKey,
    eph_public: &PublicKey,
    server_public: &PublicKey,
) -> Result<LayerKey, CryptoError> {
    layer_key_from_shared(
        &my_secret.diffie_hellman(their_public),
        eph_public,
        server_public,
    )
}

/// The KDF half of [`derive_layer_key`], for callers that computed the
/// shared secret through a precomputed table.
///
/// # Errors
///
/// [`CryptoError::DegenerateSharedSecret`] when the DH output is zero.
pub fn layer_key_from_shared(
    shared: &SharedSecret,
    eph_public: &PublicKey,
    server_public: &PublicKey,
) -> Result<LayerKey, CryptoError> {
    if shared.0 == [0u8; 32] {
        return Err(CryptoError::DegenerateSharedSecret);
    }
    // Salt binds the key to the specific (ephemeral, server) pair.
    let mut salt = [0u8; 64];
    salt[..32].copy_from_slice(eph_public.as_bytes());
    salt[32..].copy_from_slice(server_public.as_bytes());
    Ok(LayerKey(hkdf(&salt, &shared.0, LAYER_INFO)))
}

/// A chain server's public key plus (when the key lies on the curve
/// proper) a precomputed Edwards comb table accelerating the per-onion
/// `eph_sk · server_pk` Diffie-Hellman. Built once per long-lived server
/// key; used by the bulk noise-wrapping path, which performs this DH for
/// every cover onion, every round, eight onions per AVX-512 IFMA comb
/// call where the CPU has IFMA ([`wrap_noise_chunk_into`]).
pub struct PrecomputedServer {
    /// The server's long-term public key.
    pub public: PublicKey,
    table: Option<DhTable>,
}

impl PrecomputedServer {
    /// Precomputes for one server key (falls back to the plain ladder at
    /// use time if the key is a twist point, which honest servers never
    /// publish).
    #[must_use]
    pub fn new(public: PublicKey) -> PrecomputedServer {
        PrecomputedServer {
            table: DhTable::new(&public),
            public,
        }
    }
}

/// Client side: onion-wraps `payload` for the given server chain.
///
/// `server_pks[0]` is the first server (outermost layer). Returns the wire
/// bytes and the per-layer keys (ordered like `server_pks`) needed to
/// decrypt the reply with [`unwrap_reply_layers`].
///
/// This is the **pre-refactor reference path**: ladder keygen, one heap
/// allocation per layer. [`wrap_into`] / [`wrap_into_with`] produce
/// byte-identical onions (equal RNG state) without the allocations and
/// with table-accelerated scalar multiplication; the equivalence property
/// tests and the round benchmarks hold the two sides against each other.
pub fn wrap<R: RngCore + CryptoRng>(
    rng: &mut R,
    server_pks: &[PublicKey],
    round: u64,
    payload: &[u8],
) -> (Vec<u8>, Vec<LayerKey>) {
    let nonce = round_nonce(round, Direction::Request);
    let mut keys = Vec::with_capacity(server_pks.len());
    // Generate layer keys in forward order so `keys[i]` belongs to server i.
    let mut headers: Vec<(PublicKey, LayerKey)> = Vec::with_capacity(server_pks.len());
    for server_pk in server_pks {
        let eph = Keypair::generate_reference(rng);
        let key = derive_layer_key(&eph.secret, server_pk, &eph.public, server_pk)
            .expect("freshly generated ephemeral key cannot be low-order");
        headers.push((eph.public, key.clone()));
        keys.push(key);
    }

    // Encrypt from the innermost (last server) outwards.
    let mut onion = payload.to_vec();
    for (eph_pk, key) in headers.iter().rev() {
        let sealed = aead::seal(&key.0, &nonce, &[], &onion);
        let mut layer = Vec::with_capacity(32 + sealed.len());
        layer.extend_from_slice(eph_pk.as_bytes());
        layer.extend_from_slice(&sealed);
        onion = layer;
    }
    (onion, keys)
}

/// Client side: onion-wraps a payload **in place**, without allocating.
///
/// The caller places the payload at
/// `buf[32 * chain_len .. 32 * chain_len + payload_len]` and provides at
/// least [`wrapped_len`]`(payload_len, chain_len)` bytes of buffer; on
/// return the finished onion occupies `buf[..wrapped_len(..)]`. Output is
/// byte-identical to [`wrap`] for the same RNG state (the allocating
/// version is kept as the reference the property tests compare against).
///
/// Returns the per-layer keys, ordered like `server_pks`.
///
/// # Panics
///
/// Panics if `buf` is too short — a caller bug, since every round buffer
/// reserves the full onion stride up front.
pub fn wrap_into<R: RngCore + CryptoRng>(
    rng: &mut R,
    server_pks: &[PublicKey],
    round: u64,
    buf: &mut [u8],
    payload_len: usize,
) -> Vec<LayerKey> {
    // Transient untabled servers: the per-layer DH falls back to the
    // ladder, everything else shares the stack-batched core.
    let servers: Vec<PrecomputedServer> = server_pks
        .iter()
        .map(|pk| PrecomputedServer {
            public: *pk,
            table: None,
        })
        .collect();
    wrap_into_with(rng, &servers, round, buf, payload_len)
}

/// Like [`wrap_into`], but performing each layer's Diffie-Hellman through
/// the servers' precomputed comb tables — the bulk cover-traffic path,
/// where the same chain suffix is wrapped thousands of times per round.
/// Byte-identical output and RNG consumption.
pub fn wrap_into_with<R: RngCore + CryptoRng>(
    rng: &mut R,
    servers: &[PrecomputedServer],
    round: u64,
    buf: &mut [u8],
    payload_len: usize,
) -> Vec<LayerKey> {
    let mut keys = vec![LayerKey([0u8; 32]); servers.len()];
    wrap_one(rng, servers, round, buf, payload_len, |layer, key| {
        keys[layer] = LayerKey(*key);
    });
    keys
}

/// [`wrap_into_with`] for callers that discard the layer keys — the bulk
/// cover-traffic path, which never sees a reply to its own noise. Runs
/// entirely on the stack (zero heap allocations per onion); identical RNG
/// consumption and output bytes.
///
/// # Panics
///
/// Panics if `buf` is too short or the chain exceeds [`MAX_CHAIN`]
/// servers.
pub fn wrap_noise_into<R: RngCore + CryptoRng>(
    rng: &mut R,
    servers: &[PrecomputedServer],
    round: u64,
    buf: &mut [u8],
    payload_len: usize,
) {
    wrap_one(rng, servers, round, buf, payload_len, |_, _| {});
}

/// Noise-wraps **every slot of a chunk** in place: slot `i` occupies
/// `chunk[i * stride .. i * stride + width]`, holds its payload at
/// offset `32 * servers.len()` (where [`wrap_into`] expects it), and
/// draws its ephemeral secrets from `rngs[i]`. Per slot, the bytes and
/// the RNG consumption are identical to [`wrap_noise_into`] on
/// `rngs[i]`.
///
/// The chunk's scalar multiplications run batched: per layer, the
/// slots' keygens (`k·B`) and their DHs against the layer's server
/// (`k·server_pk`) run eight at a time on the AVX-512 IFMA comb where
/// the CPU has IFMA (the scalar comb otherwise; see
/// [`crate::x25519::batch_kernel`]), and the final field inversions are
/// shared across every 32 pending values of the chunk. A server without
/// a comb table (a twist key) takes the ladder for its DHs.
///
/// # Panics
///
/// Panics if the chain exceeds [`MAX_CHAIN`] servers, if `width` is
/// below [`wrapped_len`]`(payload_len, servers.len())` or above
/// `stride`, or if `chunk` is too short for `rngs.len()` slots.
pub fn wrap_noise_chunk_into<R: RngCore + CryptoRng>(
    rngs: &mut [R],
    servers: &[PrecomputedServer],
    round: u64,
    chunk: &mut [u8],
    stride: usize,
    width: usize,
    payload_len: usize,
) {
    wrap_core(
        Kernel::detect(),
        rngs,
        servers,
        round,
        (chunk, stride, width),
        payload_len,
        |_, _, _| {},
    );
}

/// [`wrap_noise_chunk_into`] over the scalar comb, one scalar
/// multiplication at a time — the reference the equivalence tests hold
/// the eight-lane kernel to. Same bytes, same RNG consumption.
///
/// # Panics
///
/// As [`wrap_noise_chunk_into`].
pub fn wrap_noise_chunk_into_reference<R: RngCore + CryptoRng>(
    rngs: &mut [R],
    servers: &[PrecomputedServer],
    round: u64,
    chunk: &mut [u8],
    stride: usize,
    width: usize,
    payload_len: usize,
) {
    wrap_core(
        Kernel::Scalar,
        rngs,
        servers,
        round,
        (chunk, stride, width),
        payload_len,
        |_, _, _| {},
    );
}

/// Longest chain the stack-batched wrapping paths support (the paper
/// evaluates up to 6 servers).
pub const MAX_CHAIN: usize = 16;

/// Most (slot, layer) pairs one group of [`wrap_core`] holds on the
/// stack: 32 slots for chains up to four servers, fewer for longer
/// chains.
const GROUP_LAYERS: usize = 4 * MAX_RESOLVE_BATCH;

/// Width of one shared field inversion, from [`crate::edwards`].
const MAX_RESOLVE_BATCH: usize = crate::edwards::MAX_RESOLVE_BATCH;

/// One slot through [`wrap_core`]: the single-onion wrappers.
fn wrap_one<R: RngCore + CryptoRng>(
    rng: &mut R,
    servers: &[PrecomputedServer],
    round: u64,
    buf: &mut [u8],
    payload_len: usize,
    mut on_key: impl FnMut(usize, &[u8; 32]),
) {
    let width = wrapped_len(payload_len, servers.len());
    assert!(buf.len() >= width, "wrapping needs the full onion stride");
    let stride = buf.len();
    wrap_core(
        Kernel::detect(),
        core::slice::from_mut(rng),
        servers,
        round,
        (buf, stride, width),
        payload_len,
        |_, layer, key| on_key(layer, key),
    );
}

/// The one onion-wrapping core behind [`wrap_into_with`],
/// [`wrap_noise_into`] and [`wrap_noise_chunk_into`]. Per group of
/// slots:
///
/// 1. each slot draws its `chain_len` ephemeral secrets from its own
///    RNG, in layer order (the same RNG order as [`wrap`]);
/// 2. per layer, the group's keygens and then its DHs run through
///    [`crate::batch::combs_into`] (the ladder for an untabled server),
///    inversions deferred; every 32 pending values, in that order,
///    share one inversion;
/// 3. each slot derives its layer keys and seals innermost-outwards in
///    place: each layer encrypts where it stands, appends its tag, and
///    prefixes its ephemeral key.
///
/// Slot `i` is `chunk[i * stride .. i * stride + width]`, as in
/// [`wrap_noise_chunk_into`]; `on_key(slot, layer, key)` sees every
/// layer key.
fn wrap_core<R: RngCore + CryptoRng>(
    kernel: Kernel,
    rngs: &mut [R],
    servers: &[PrecomputedServer],
    round: u64,
    (chunk, stride, width): (&mut [u8], usize, usize),
    payload_len: usize,
    mut on_key: impl FnMut(usize, usize, &[u8; 32]),
) {
    let chain_len = servers.len();
    assert!(chain_len <= MAX_CHAIN, "chain too long for stack batching");
    assert!(
        width >= wrapped_len(payload_len, chain_len) && width <= stride,
        "each slot needs the full onion width"
    );
    let count = rngs.len();
    if chain_len == 0 || count == 0 {
        return;
    }
    assert!(
        chunk.len() >= (count - 1) * stride + width,
        "chunk too short for its slots"
    );
    let nonce = round_nonce(round, Direction::Request);
    let group = (GROUP_LAYERS / chain_len).min(MAX_RESOLVE_BATCH);

    for first in (0..count).step_by(group) {
        let n = (count - first).min(group);
        // Layer `l`'s secret for slot `j` is `secrets[l * n + j]`.
        let mut secrets = [[0u8; 32]; GROUP_LAYERS];
        for (j, rng) in rngs[first..first + n].iter_mut().enumerate() {
            for layer in 0..chain_len {
                rng.fill_bytes(&mut secrets[layer * n + j]);
            }
        }

        // Layer `l` fills pending[2ln .. 2ln + n] with the keygens and
        // pending[2ln + n .. 2(l+1)n] with the DHs.
        let mut pending = [crate::edwards::PendingU::PLACEHOLDER; 2 * GROUP_LAYERS];
        for (layer, server) in servers.iter().enumerate() {
            let k = |j: usize| crate::x25519::clamp(secrets[layer * n + j]);
            let (keygens, dhs) = pending[2 * layer * n..2 * (layer + 1) * n].split_at_mut(n);
            crate::batch::combs_into(kernel, crate::edwards::base_table(), k, keygens);
            match &server.table {
                Some(table) => crate::batch::combs_into(kernel, table.table(), k, dhs),
                None => {
                    let us = [server.public.0; MAX_RESOLVE_BATCH];
                    crate::batch::ladders_into(kernel, k, &us[..n], dhs);
                }
            }
        }
        let total = 2 * chain_len * n;
        let mut resolved = [[0u8; 32]; 2 * GROUP_LAYERS];
        for (p, out) in pending[..total]
            .chunks(MAX_RESOLVE_BATCH)
            .zip(resolved[..total].chunks_mut(MAX_RESOLVE_BATCH))
        {
            crate::x25519::resolve_pending_into(p, out);
        }

        for j in 0..n {
            let slot = &mut chunk[(first + j) * stride..][..width];
            let mut start = 32 * chain_len;
            let mut content_len = payload_len;
            for (layer, server) in servers.iter().enumerate().rev() {
                let eph_public = resolved[2 * layer * n + j];
                let shared = SharedSecret(resolved[2 * layer * n + n + j]);
                let key = layer_key_from_shared(
                    &shared,
                    &PublicKey::from_bytes(eph_public),
                    &server.public,
                )
                .expect("freshly generated ephemeral key cannot be low-order");
                on_key(first + j, layer, &key.0);
                let sealed =
                    aead::seal_in_place(&key.0, &nonce, &[], &mut slot[start..], content_len);
                slot[start - 32..start].copy_from_slice(&eph_public);
                start -= 32;
                content_len = sealed + 32;
            }
        }
    }
}

/// The exact on-the-wire size of a request onion for a given inner payload
/// size and chain length.
#[must_use]
pub const fn wrapped_len(payload_len: usize, chain_len: usize) -> usize {
    payload_len + chain_len * LAYER_OVERHEAD
}

/// The size of a fully-wrapped reply for a given result payload size.
#[must_use]
pub const fn reply_len(payload_len: usize, chain_len: usize) -> usize {
    payload_len + chain_len * REPLY_LAYER_OVERHEAD
}

/// Server side: peels one onion layer.
///
/// Returns the layer key (to be kept for the reply path) and the inner
/// onion destined for the next server.
///
/// # Errors
///
/// * [`CryptoError::BadLength`] if the layer is too short to contain a key
///   and a tag.
/// * [`CryptoError::DegenerateSharedSecret`] for low-order ephemeral keys.
/// * [`CryptoError::DecryptFailed`] if authentication fails.
pub fn peel(
    server_secret: &SecretKey,
    server_public: &PublicKey,
    round: u64,
    layer: &[u8],
) -> Result<(LayerKey, Vec<u8>), CryptoError> {
    if layer.len() < LAYER_OVERHEAD {
        return Err(CryptoError::BadLength {
            expected: LAYER_OVERHEAD,
            got: layer.len(),
        });
    }
    let mut eph_bytes = [0u8; 32];
    eph_bytes.copy_from_slice(&layer[..32]);
    let eph_pk = PublicKey::from_bytes(eph_bytes);
    let key = derive_layer_key(server_secret, &eph_pk, &eph_pk, server_public)?;
    let nonce = round_nonce(round, Direction::Request);
    let inner = aead::open(&key.0, &nonce, &[], &layer[32..])?;
    Ok((key, inner))
}

/// Server side: peels one onion layer **in place**.
///
/// The layer occupies `slot[..width]`; on success the inner onion is
/// moved to `slot[..width - LAYER_OVERHEAD]` and the layer key is
/// returned. On failure the slot contents are unspecified but the same
/// length, and nothing was decrypted (authentication runs first).
///
/// Byte-identical results to [`peel`], which is kept as the allocating
/// reference.
///
/// # Errors
///
/// Same conditions as [`peel`].
pub fn peel_in_place(
    server_secret: &SecretKey,
    server_public: &PublicKey,
    round: u64,
    slot: &mut [u8],
    width: usize,
) -> Result<(LayerKey, usize), CryptoError> {
    if width < LAYER_OVERHEAD || slot.len() < width {
        return Err(CryptoError::BadLength {
            expected: LAYER_OVERHEAD,
            got: width.min(slot.len()),
        });
    }
    let mut eph_bytes = [0u8; 32];
    eph_bytes.copy_from_slice(&slot[..32]);
    let eph_pk = PublicKey::from_bytes(eph_bytes);
    let key = derive_layer_key(server_secret, &eph_pk, &eph_pk, server_public)?;
    let nonce = round_nonce(round, Direction::Request);
    let inner_len = aead::open_in_place(&key.0, &nonce, &[], &mut slot[32..], width - 32)?;
    // Slide the inner onion to the front of the slot so the next layer
    // starts at offset 0 again.
    slot.copy_within(32..32 + inner_len, 0);
    Ok((key, inner_len))
}

/// Server side: peels one layer of **every onion in a chunk of slots**,
/// in place. Slot `i` occupies `chunk[i * stride .. i * stride + width]`;
/// per slot the semantics — success, error classification, and every
/// output byte — are identical to calling [`peel_in_place`]. Two batch
/// optimisations stack on the hot path:
///
/// * the variable-base x25519 ladders run **eight onions per AVX-512
///   IFMA kernel call** where the CPU has IFMA, and four in lockstep
///   over the limb-sliced [`crate::fe4::Fe4`] type otherwise, with the
///   scalar ladder for leftovers (see
///   [`crate::x25519::batch_kernel`]);
/// * each ladder's final field inversion is deferred and batched across
///   the whole chunk (Montgomery's trick, sub-batched at
///   [`crate::edwards`]'s resolver width): `n` slots pay one
///   `Fe::invert` (~250 squarings) plus `3(n−1)` multiplications
///   instead of `n` inversions.
///
/// This is the peel hot path's entry point: the worker pool hands each
/// worker a chunk of contiguous slots rather than one slot at a time.
/// [`peel_chunk_in_place_reference`] runs the same chunk protocol over
/// the scalar ladder and is held byte-identical by the equivalence
/// tests.
///
/// Returns one result per slot, in slot order.
pub fn peel_chunk_in_place(
    server_secret: &SecretKey,
    server_public: &PublicKey,
    round: u64,
    chunk: &mut [u8],
    stride: usize,
    width: usize,
) -> Vec<Result<(LayerKey, usize), CryptoError>> {
    peel_chunk_core(
        server_secret,
        server_public,
        round,
        chunk,
        stride,
        width,
        Kernel::detect(),
    )
}

/// [`peel_chunk_in_place`] over the scalar (one-onion-at-a-time)
/// Montgomery ladder — the committed pre-batching peel path, kept so
/// the equivalence tests can hold the batch kernels to byte-identical
/// outputs and the round benchmarks can price the batching honestly.
pub fn peel_chunk_in_place_reference(
    server_secret: &SecretKey,
    server_public: &PublicKey,
    round: u64,
    chunk: &mut [u8],
    stride: usize,
    width: usize,
) -> Vec<Result<(LayerKey, usize), CryptoError>> {
    peel_chunk_core(
        server_secret,
        server_public,
        round,
        chunk,
        stride,
        width,
        Kernel::Scalar,
    )
}

/// Shared chunk-peel engine behind every ladder kernel.
#[allow(clippy::too_many_arguments)]
fn peel_chunk_core(
    server_secret: &SecretKey,
    server_public: &PublicKey,
    round: u64,
    chunk: &mut [u8],
    stride: usize,
    width: usize,
    kernel: Kernel,
) -> Vec<Result<(LayerKey, usize), CryptoError>> {
    assert!(stride > 0, "stride must be positive");
    let count = chunk.len().div_ceil(stride);
    let mut results: Vec<Result<(LayerKey, usize), CryptoError>> = Vec::with_capacity(count);
    let nonce = round_nonce(round, Direction::Request);
    // Every lane's scalar is the server's one secret.
    let k = crate::x25519::clamp(*server_secret.as_bytes());

    const GROUP: usize = crate::edwards::MAX_RESOLVE_BATCH;
    let chunk_len = chunk.len();
    for group_start in (0..count).step_by(GROUP) {
        let group_len = (count - group_start).min(GROUP);
        // Slot `j` of the group: its offset, its length, and whether it
        // is long enough to peel (otherwise BadLength, like peel_in_place).
        let slot = |j: usize| {
            let start = (group_start + j) * stride;
            let slot_len = (chunk_len - start).min(stride);
            (
                start,
                slot_len,
                width >= LAYER_OVERHEAD && slot_len >= width,
            )
        };

        // Pass 1: gather the admitted slots' ephemeral keys contiguously
        // so their ladders can run batched.
        let mut eph = [[0u8; 32]; GROUP];
        let mut admitted = 0usize;
        for j in 0..group_len {
            if let (start, _, true) = slot(j) {
                eph[admitted].copy_from_slice(&chunk[start..start + 32]);
                admitted += 1;
            }
        }

        // The ladders, inversions deferred, then one shared inversion
        // for the whole group.
        let mut pending = [crate::edwards::PendingU::PLACEHOLDER; GROUP];
        crate::batch::ladders_into(kernel, |_| k, &eph[..admitted], &mut pending[..admitted]);
        let mut shared = [[0u8; 32]; GROUP];
        crate::x25519::resolve_pending_into(&pending[..admitted], &mut shared[..admitted]);

        // Pass 2: KDF + in-place AEAD open per admitted slot; `next` walks
        // the admitted slots' compacted keys.
        let mut next = 0usize;
        for j in 0..group_len {
            let (start, slot_len, admit) = slot(j);
            if !admit {
                results.push(Err(CryptoError::BadLength {
                    expected: LAYER_OVERHEAD,
                    got: width.min(slot_len),
                }));
                continue;
            }
            let eph_pk = PublicKey::from_bytes(eph[next]);
            let result = layer_key_from_shared(&SharedSecret(shared[next]), &eph_pk, server_public)
                .and_then(|key| {
                    let slot = &mut chunk[start..start + slot_len];
                    let inner_len =
                        aead::open_in_place(&key.0, &nonce, &[], &mut slot[32..], width - 32)?;
                    slot.copy_within(32..32 + inner_len, 0);
                    Ok((key, inner_len))
                });
            next += 1;
            results.push(result);
        }
    }
    results
}

/// Server side: wraps a reply payload under a layer key captured by
/// [`peel`] on the request path.
#[must_use]
pub fn wrap_reply_layer(key: &LayerKey, round: u64, payload: &[u8]) -> Vec<u8> {
    let nonce = round_nonce(round, Direction::Reply);
    aead::seal(&key.0, &nonce, &[], payload)
}

/// Server side: wraps a reply layer **in place**. The payload occupies
/// `slot[..payload_len]`; the sealed reply overwrites
/// `slot[..payload_len + REPLY_LAYER_OVERHEAD]` and its length is
/// returned. Byte-identical to [`wrap_reply_layer`].
///
/// # Panics
///
/// Panics if the slot lacks [`REPLY_LAYER_OVERHEAD`] bytes of headroom —
/// reply buffers reserve the full chain's overhead up front.
pub fn wrap_reply_in_place(
    key: &LayerKey,
    round: u64,
    slot: &mut [u8],
    payload_len: usize,
) -> usize {
    let nonce = round_nonce(round, Direction::Reply);
    aead::seal_in_place(&key.0, &nonce, &[], slot, payload_len)
}

/// Client side: unwraps all reply layers (server 1's layer is outermost).
///
/// # Errors
///
/// [`CryptoError::DecryptFailed`] / [`CryptoError::BadLength`] if any layer
/// fails to authenticate.
pub fn unwrap_reply_layers(
    keys: &[LayerKey],
    round: u64,
    reply: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let nonce = round_nonce(round, Direction::Reply);
    let mut current = reply.to_vec();
    for key in keys {
        current = aead::open(&key.0, &nonce, &[], &current)?;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain(n: usize, rng: &mut StdRng) -> Vec<Keypair> {
        (0..n).map(|_| Keypair::generate(rng)).collect()
    }

    #[test]
    fn wrap_peel_roundtrip_three_servers() {
        let mut rng = StdRng::seed_from_u64(1);
        let servers = chain(3, &mut rng);
        let pks: Vec<PublicKey> = servers.iter().map(|kp| kp.public).collect();
        let payload = b"dead drop request".to_vec();

        let (mut onion, keys) = wrap(&mut rng, &pks, 42, &payload);
        assert_eq!(onion.len(), wrapped_len(payload.len(), 3));
        assert_eq!(keys.len(), 3);

        let mut server_keys = Vec::new();
        for kp in &servers {
            let (k, inner) = peel(&kp.secret, &kp.public, 42, &onion).expect("peel");
            server_keys.push(k);
            onion = inner;
        }
        assert_eq!(onion, payload);

        // Reply path: last server seals first, then back through the chain.
        let mut reply = b"dead drop result".to_vec();
        for k in server_keys.iter().rev() {
            reply = wrap_reply_layer(k, 42, &reply);
        }
        assert_eq!(reply.len(), reply_len(16, 3));
        let out = unwrap_reply_layers(&keys, 42, &reply).expect("unwrap replies");
        assert_eq!(out, b"dead drop result");
    }

    #[test]
    fn single_server_chain() {
        let mut rng = StdRng::seed_from_u64(2);
        let server = Keypair::generate(&mut rng);
        let (onion, keys) = wrap(&mut rng, &[server.public], 0, b"x");
        let (k, inner) = peel(&server.secret, &server.public, 0, &onion).expect("peel");
        assert_eq!(inner, b"x");
        let reply = wrap_reply_layer(&k, 0, b"y");
        assert_eq!(unwrap_reply_layers(&keys, 0, &reply).expect("reply"), b"y");
    }

    #[test]
    fn wrong_round_fails() {
        let mut rng = StdRng::seed_from_u64(3);
        let server = Keypair::generate(&mut rng);
        let (onion, _) = wrap(&mut rng, &[server.public], 7, b"payload");
        assert!(peel(&server.secret, &server.public, 8, &onion).is_err());
    }

    #[test]
    fn wrong_server_fails() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Keypair::generate(&mut rng);
        let b = Keypair::generate(&mut rng);
        let (onion, _) = wrap(&mut rng, &[a.public], 7, b"payload");
        assert!(peel(&b.secret, &b.public, 7, &onion).is_err());
    }

    #[test]
    fn tampered_layer_fails() {
        let mut rng = StdRng::seed_from_u64(5);
        let server = Keypair::generate(&mut rng);
        let (mut onion, _) = wrap(&mut rng, &[server.public], 7, b"payload");
        let last = onion.len() - 1;
        onion[last] ^= 1;
        assert!(peel(&server.secret, &server.public, 7, &onion).is_err());
    }

    #[test]
    fn too_short_layer_is_bad_length() {
        let mut rng = StdRng::seed_from_u64(6);
        let server = Keypair::generate(&mut rng);
        let err = peel(&server.secret, &server.public, 0, &[0u8; 10]).unwrap_err();
        assert!(matches!(err, CryptoError::BadLength { .. }));
    }

    #[test]
    fn low_order_ephemeral_is_rejected_not_panicking() {
        let mut rng = StdRng::seed_from_u64(7);
        let server = Keypair::generate(&mut rng);
        // An attacker-crafted layer with an all-zero "ephemeral key".
        let mut forged = vec![0u8; LAYER_OVERHEAD + 8];
        forged[32..].fill(0xAB);
        let err = peel(&server.secret, &server.public, 0, &forged).unwrap_err();
        assert_eq!(err, CryptoError::DegenerateSharedSecret);
    }

    #[test]
    fn request_and_reply_nonces_differ() {
        assert_ne!(
            round_nonce(5, Direction::Request),
            round_nonce(5, Direction::Reply)
        );
        assert_ne!(
            round_nonce(5, Direction::Request),
            round_nonce(6, Direction::Request)
        );
    }

    #[test]
    fn wrap_into_matches_wrap_bytewise() {
        for chain_len in 1..=4usize {
            let mut rng = StdRng::seed_from_u64(100 + chain_len as u64);
            let servers = chain(chain_len, &mut rng);
            let pks: Vec<PublicKey> = servers.iter().map(|kp| kp.public).collect();
            let payload = b"equivalence payload".to_vec();

            // Identical RNG states feed both paths.
            let mut rng_a = StdRng::seed_from_u64(7_000 + chain_len as u64);
            let mut rng_b = rng_a.clone();
            let (reference, ref_keys) = wrap(&mut rng_a, &pks, 9, &payload);

            let mut buf = vec![0u8; wrapped_len(payload.len(), chain_len)];
            buf[32 * chain_len..32 * chain_len + payload.len()].copy_from_slice(&payload);
            let keys = wrap_into(&mut rng_b, &pks, 9, &mut buf, payload.len());

            assert_eq!(buf, reference, "chain_len {chain_len}");
            assert_eq!(keys.len(), ref_keys.len());
            for (a, b) in keys.iter().zip(ref_keys.iter()) {
                assert_eq!(a.0, b.0);
            }
        }
    }

    #[test]
    fn wrap_into_with_tables_matches_wrap_bytewise() {
        for chain_len in 1..=3usize {
            let mut rng = StdRng::seed_from_u64(400 + chain_len as u64);
            let servers = chain(chain_len, &mut rng);
            let pks: Vec<PublicKey> = servers.iter().map(|kp| kp.public).collect();
            let precomp: Vec<PrecomputedServer> =
                pks.iter().map(|pk| PrecomputedServer::new(*pk)).collect();
            let payload = b"table-accelerated".to_vec();

            let mut rng_a = StdRng::seed_from_u64(9_000 + chain_len as u64);
            let mut rng_b = rng_a.clone();
            let (reference, ref_keys) = wrap(&mut rng_a, &pks, 3, &payload);

            let mut buf = vec![0u8; wrapped_len(payload.len(), chain_len)];
            buf[32 * chain_len..32 * chain_len + payload.len()].copy_from_slice(&payload);
            let keys = wrap_into_with(&mut rng_b, &precomp, 3, &mut buf, payload.len());

            assert_eq!(buf, reference, "chain_len {chain_len}");
            for (a, b) in keys.iter().zip(ref_keys.iter()) {
                assert_eq!(a.0, b.0);
            }
        }
    }

    /// Wraps `count` payloads for `servers` through [`wrap_core`] on
    /// `kernel`, one seeded RNG per slot, and holds every slot to the
    /// reference [`wrap`] on a clone of the same RNG: the bytes, and the
    /// RNG state afterwards.
    fn assert_chunk_matches_wrap(kernel: Kernel, servers: &[PrecomputedServer], count: usize) {
        let pks: Vec<PublicKey> = servers.iter().map(|s| s.public).collect();
        let chain_len = servers.len();
        let payload_len = 21;
        let width = wrapped_len(payload_len, chain_len);
        let stride = width + 5;
        let mut rngs: Vec<StdRng> = (0..count)
            .map(|i| StdRng::seed_from_u64(5_000 + 97 * i as u64 + chain_len as u64))
            .collect();
        let mut reference_rngs = rngs.clone();
        let mut chunk = vec![0xEEu8; count * stride - 5];
        let mut want = Vec::new();
        for (i, rng) in reference_rngs.iter_mut().enumerate() {
            let payload: Vec<u8> = (0..payload_len).map(|b| (b * 7 + i) as u8).collect();
            let offset = i * stride + 32 * chain_len;
            chunk[offset..offset + payload_len].copy_from_slice(&payload);
            want.push(wrap(rng, &pks, 17, &payload).0);
        }
        wrap_core(
            kernel,
            &mut rngs,
            servers,
            17,
            (&mut chunk, stride, width),
            payload_len,
            |_, _, _| {},
        );
        for (i, (rng, reference_rng)) in rngs.iter_mut().zip(&mut reference_rngs).enumerate() {
            let slot = &chunk[i * stride..i * stride + width];
            assert_eq!(
                slot,
                &want[i][..],
                "{kernel:?} chain {chain_len} count {count} slot {i}"
            );
            assert_eq!(
                rng.next_u64(),
                reference_rng.next_u64(),
                "{kernel:?} chain {chain_len} count {count} slot {i}: RNG state"
            );
            if i + 1 < count {
                // The stride's headroom is left alone.
                assert!(chunk[i * stride + width..(i + 1) * stride]
                    .iter()
                    .all(|&b| b == 0xEE));
            }
        }
    }

    #[test]
    fn wrap_noise_chunk_matches_per_slot_wrap() {
        // Chains 1–4 keep 32-slot groups; chain 5 groups 25 slots and
        // chain 16 (MAX_CHAIN) groups 8, so 40 slots cross group
        // boundaries at every length. The forced scalar comb stays under
        // test on CPUs that pick IFMA.
        let mut rng = StdRng::seed_from_u64(93);
        let keys = chain(MAX_CHAIN, &mut rng);
        let servers: Vec<PrecomputedServer> = keys
            .iter()
            .map(|kp| PrecomputedServer::new(kp.public))
            .collect();
        for (chain_len, counts) in [
            (1usize, &[1usize, 2, 7, 8, 9, 31, 32, 33, 40][..]),
            (2, &[1, 3, 16, 32, 40]),
            (3, &[5, 32, 33]),
            (4, &[9, 40]),
            (5, &[24, 25, 26, 40]),
            (MAX_CHAIN, &[1, 9, 17]),
        ] {
            for &count in counts {
                for kernel in [Kernel::Ifma8, Kernel::Scalar] {
                    assert_chunk_matches_wrap(kernel, &servers[..chain_len], count);
                }
            }
        }
    }

    #[test]
    fn wrap_noise_chunk_falls_back_to_the_ladder_for_twist_keys() {
        // A server key on the quadratic twist has no comb table; its DHs
        // take the ladder, batched like the peel path, and the bytes
        // still match the reference.
        let mut rng = StdRng::seed_from_u64(94);
        let twist = loop {
            let mut u = [0u8; 32];
            rng.fill_bytes(&mut u);
            u[31] &= 0x7f;
            if DhTable::new(&PublicKey(u)).is_none() {
                break PublicKey(u);
            }
        };
        let honest = chain(2, &mut rng);
        let servers = vec![
            PrecomputedServer::new(honest[0].public),
            PrecomputedServer::new(twist),
            PrecomputedServer::new(honest[1].public),
        ];
        assert!(servers[1].table.is_none());
        for count in [1, 2, 9, 33] {
            for kernel in [Kernel::Ifma8, Kernel::Fe4, Kernel::Scalar] {
                assert_chunk_matches_wrap(kernel, &servers, count);
            }
        }
    }

    #[test]
    fn peel_in_place_matches_peel() {
        let mut rng = StdRng::seed_from_u64(31);
        let servers = chain(3, &mut rng);
        let pks: Vec<PublicKey> = servers.iter().map(|kp| kp.public).collect();
        let (onion_bytes, _) = wrap(&mut rng, &pks, 4, b"roundtrip me");

        let mut flat = onion_bytes.clone();
        let mut reference = onion_bytes;
        let mut width = flat.len();
        for kp in &servers {
            let (ref_key, ref_inner) = peel(&kp.secret, &kp.public, 4, &reference).expect("peel");
            let (key, new_width) =
                peel_in_place(&kp.secret, &kp.public, 4, &mut flat, width).expect("peel_in_place");
            assert_eq!(key.0, ref_key.0);
            assert_eq!(new_width, ref_inner.len());
            assert_eq!(&flat[..new_width], &ref_inner[..]);
            width = new_width;
            reference = ref_inner;
        }
        assert_eq!(&flat[..width], b"roundtrip me");
    }

    #[test]
    fn peel_in_place_rejects_what_peel_rejects() {
        let mut rng = StdRng::seed_from_u64(32);
        let server = Keypair::generate(&mut rng);
        let (mut onion_bytes, _) = wrap(&mut rng, &[server.public], 7, b"payload");
        let width = onion_bytes.len();
        onion_bytes[width - 1] ^= 1;
        assert!(peel_in_place(&server.secret, &server.public, 7, &mut onion_bytes, width).is_err());
        let mut short = [0u8; 10];
        assert!(matches!(
            peel_in_place(&server.secret, &server.public, 0, &mut short, 10),
            Err(CryptoError::BadLength { .. })
        ));
    }

    #[test]
    fn wrap_reply_in_place_matches_wrap_reply_layer() {
        let mut rng = StdRng::seed_from_u64(33);
        let server = Keypair::generate(&mut rng);
        let (onion_bytes, _) = wrap(&mut rng, &[server.public], 2, b"req");
        let (key, _) = peel(&server.secret, &server.public, 2, &onion_bytes).expect("peel");

        let payload = b"reply body".to_vec();
        let reference = wrap_reply_layer(&key, 2, &payload);

        let mut slot = vec![0u8; payload.len() + REPLY_LAYER_OVERHEAD];
        slot[..payload.len()].copy_from_slice(&payload);
        let sealed = wrap_reply_in_place(&key, 2, &mut slot, payload.len());
        assert_eq!(&slot[..sealed], &reference[..]);
    }

    #[test]
    fn peel_chunk_matches_per_slot_peel() {
        // A chunk mixing valid onions, corrupted onions, and a forged
        // low-order ephemeral must classify and transform every slot
        // exactly like the per-slot path — across group boundaries (the
        // batch resolver's width is 32, so 70 slots span three groups).
        let mut rng = StdRng::seed_from_u64(90);
        let server = Keypair::generate(&mut rng);
        let (sample, _) = wrap(&mut rng, &[server.public], 6, b"chunk me");
        let width = sample.len();
        let stride = width + 8; // headroom, like a real round arena

        let count = 70;
        let mut chunk = vec![0u8; count * stride];
        let mut reference: Vec<Vec<u8>> = Vec::new();
        for i in 0..count {
            let onion = match i % 5 {
                // Forged all-zero ephemeral: degenerate shared secret.
                3 => vec![0u8; width],
                // Bit-flipped ciphertext: authentication failure.
                4 => {
                    let (mut o, _) = wrap(&mut rng, &[server.public], 6, b"chunk me");
                    o[40] ^= 1;
                    o
                }
                _ => wrap(&mut rng, &[server.public], 6, b"chunk me").0,
            };
            chunk[i * stride..i * stride + width].copy_from_slice(&onion);
            reference.push(onion);
        }

        let results =
            peel_chunk_in_place(&server.secret, &server.public, 6, &mut chunk, stride, width);
        assert_eq!(results.len(), count);
        for (i, result) in results.iter().enumerate() {
            let mut slot = reference[i].clone();
            let expected = peel_in_place(&server.secret, &server.public, 6, &mut slot, width);
            match (result, expected) {
                (Ok((key, len)), Ok((ref_key, ref_len))) => {
                    assert_eq!(key.0, ref_key.0, "slot {i} key");
                    assert_eq!(*len, ref_len, "slot {i} length");
                    assert_eq!(
                        &chunk[i * stride..i * stride + len],
                        &slot[..ref_len],
                        "slot {i} payload"
                    );
                }
                (Err(e), Err(ref_e)) => assert_eq!(*e, ref_e, "slot {i} error"),
                (got, want) => panic!("slot {i}: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn peel_chunk_small_sizes_match_per_slot() {
        // Chunks of 1–10 slots through both batch kernels cover full and
        // padded octets, the lone scalar leftover, full quads and the
        // 1–3-onion scalar tail. The Fe4 kernel runs here even on CPUs
        // that would pick IFMA, so the fallback stays tested. Every slot
        // must match the scalar-ladder chunk reference and the per-slot
        // path bytewise.
        let mut rng = StdRng::seed_from_u64(91);
        let server = Keypair::generate(&mut rng);
        for count in 1..=10usize {
            let (sample, _) = wrap(&mut rng, &[server.public], 11, b"tail case");
            let width = sample.len();
            let stride = width + 4;
            let mut original = vec![0u8; count * stride];
            let mut slots: Vec<Vec<u8>> = Vec::new();
            for i in 0..count {
                let (onion, _) = wrap(&mut rng, &[server.public], 11, b"tail case");
                original[i * stride..i * stride + width].copy_from_slice(&onion);
                slots.push(onion);
            }
            let mut chunk_ref = original.clone();
            let ref_results = peel_chunk_in_place_reference(
                &server.secret,
                &server.public,
                11,
                &mut chunk_ref,
                stride,
                width,
            );
            for kernel in [Kernel::Ifma8, Kernel::Fe4] {
                let mut chunk = original.clone();
                let results = peel_chunk_core(
                    &server.secret,
                    &server.public,
                    11,
                    &mut chunk,
                    stride,
                    width,
                    kernel,
                );
                assert_eq!(results.len(), count, "count {count}");
                assert_eq!(
                    chunk, chunk_ref,
                    "{kernel:?} count {count}: kernels diverged"
                );
                for (i, (result, ref_result)) in results.iter().zip(&ref_results).enumerate() {
                    let (key, len) = result.as_ref().expect("valid onion");
                    let (ref_key, ref_len) = ref_result.as_ref().expect("valid onion");
                    assert_eq!((key.0, len), (ref_key.0, ref_len), "count {count} slot {i}");
                    let mut slot = slots[i].clone();
                    let (want_key, want_len) =
                        peel_in_place(&server.secret, &server.public, 11, &mut slot, width)
                            .expect("per-slot");
                    assert_eq!(key.0, want_key.0, "count {count} slot {i} key");
                    assert_eq!(*len, want_len, "count {count} slot {i} len");
                    assert_eq!(
                        &chunk[i * stride..i * stride + len],
                        &slot[..want_len],
                        "count {count} slot {i} payload"
                    );
                }
            }
        }
    }

    #[test]
    fn peel_chunk_all_low_order_batch() {
        // A whole chunk of forged low-order ephemerals (u = 0 and the
        // order-4 point u = 1): every ladder lane ends with z2 = 0, the
        // shared batch inversion must survive the inverse-of-zero edge
        // in all lanes at once, and every slot must be classified
        // DegenerateSharedSecret exactly like the per-slot path.
        let mut rng = StdRng::seed_from_u64(92);
        let server = Keypair::generate(&mut rng);
        let (sample, _) = wrap(&mut rng, &[server.public], 12, b"low order");
        let width = sample.len();
        let stride = width;
        for count in [1usize, 4, 5, 8, 9, 17] {
            let mut chunk = vec![0u8; count * stride];
            for i in 0..count {
                // Alternate the two low-order encodings; the rest of the
                // slot is arbitrary ciphertext bytes.
                chunk[i * stride + 32..(i + 1) * stride].fill(0xCD);
                if i % 2 == 1 {
                    chunk[i * stride] = 1;
                }
            }
            let results = peel_chunk_in_place(
                &server.secret,
                &server.public,
                12,
                &mut chunk,
                stride,
                width,
            );
            assert_eq!(results.len(), count);
            for (i, result) in results.iter().enumerate() {
                assert_eq!(
                    result.as_ref().unwrap_err(),
                    &CryptoError::DegenerateSharedSecret,
                    "count {count} slot {i}"
                );
            }
        }
    }

    #[test]
    fn onions_are_unlinkable_across_wraps() {
        // Same payload, same chain, two wraps: every byte of the onion
        // should differ (fresh ephemerals + pseudorandom ciphertexts).
        let mut rng = StdRng::seed_from_u64(8);
        let servers = chain(2, &mut rng);
        let pks: Vec<PublicKey> = servers.iter().map(|kp| kp.public).collect();
        let (a, _) = wrap(&mut rng, &pks, 1, b"same payload");
        let (b, _) = wrap(&mut rng, &pks, 1, b"same payload");
        assert_ne!(a, b);
    }
}
