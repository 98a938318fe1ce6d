//! Property-based tests for the field arithmetic and primitives.
//!
//! The 51-bit-limb field implementation is the foundation under every
//! onion layer; these properties (ring laws, canonical encoding,
//! inversion) would catch the classic carry/reduction bugs that
//! hand-rolled curve arithmetic is prone to.

use proptest::prelude::*;
use vuvuzela_crypto::fe4::Fe4;
use vuvuzela_crypto::field::Fe;
use vuvuzela_crypto::{chacha20, poly1305, sha256};

/// Strategy: arbitrary canonical field elements (from 32 bytes, top bit
/// masked by the decoder).
fn fe_strategy() -> impl Strategy<Value = Fe> {
    any::<[u8; 32]>().prop_map(|b| Fe::from_bytes(&b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn addition_commutes(a in fe_strategy(), b in fe_strategy()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn multiplication_commutes(a in fe_strategy(), b in fe_strategy()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn addition_associates(a in fe_strategy(), b in fe_strategy(), c in fe_strategy()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn multiplication_associates(a in fe_strategy(), b in fe_strategy(), c in fe_strategy()) {
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn multiplication_distributes(a in fe_strategy(), b in fe_strategy(), c in fe_strategy()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn add_sub_cancel(a in fe_strategy(), b in fe_strategy()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
        prop_assert_eq!(a.sub(&b).add(&b), a);
    }

    #[test]
    fn square_matches_self_multiplication(a in fe_strategy()) {
        prop_assert_eq!(a.square(), a.mul(&a));
    }

    #[test]
    fn inversion_roundtrips(a in fe_strategy()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.mul(&a.invert()), Fe::ONE);
        prop_assert_eq!(a.invert().invert(), a);
    }

    #[test]
    fn encoding_is_canonical_fixed_point(a in fe_strategy()) {
        // to_bytes ∘ from_bytes is idempotent: encodings are canonical.
        let bytes = a.to_bytes();
        prop_assert_eq!(Fe::from_bytes(&bytes).to_bytes(), bytes);
        // And canonical encodings are < p (top byte ≤ 0x7f trivially;
        // full check: re-decoding preserves equality).
        prop_assert_eq!(Fe::from_bytes(&bytes), a);
    }

    #[test]
    fn identities(a in fe_strategy()) {
        prop_assert_eq!(a.add(&Fe::ZERO), a);
        prop_assert_eq!(a.mul(&Fe::ONE), a);
        prop_assert_eq!(a.mul(&Fe::ZERO), Fe::ZERO);
        prop_assert_eq!(a.sub(&a), Fe::ZERO);
    }

    #[test]
    fn mul_small_is_repeated_addition(a in fe_strategy(), n in 0u32..50) {
        let mut sum = Fe::ZERO;
        for _ in 0..n {
            sum = sum.add(&a);
        }
        prop_assert_eq!(a.mul_small(n), sum);
    }

    /// Every `Fe4` lane operation must agree with four independent
    /// scalar `Fe` operations — the four-wide Montgomery ladder's
    /// correctness reduces to exactly this property.
    #[test]
    fn fe4_ops_match_four_scalar_ops(
        a0 in fe_strategy(), a1 in fe_strategy(), a2 in fe_strategy(), a3 in fe_strategy(),
        b0 in fe_strategy(), b1 in fe_strategy(), b2 in fe_strategy(), b3 in fe_strategy(),
        n in 0u32..200_000,
        swap_bits in 0u8..16,
    ) {
        let swap = [
            swap_bits & 1 != 0,
            swap_bits & 2 != 0,
            swap_bits & 4 != 0,
            swap_bits & 8 != 0,
        ];
        let a = [a0, a1, a2, a3];
        let b = [b0, b1, b2, b3];
        let va = Fe4::from_fes(a);
        let vb = Fe4::from_fes(b);
        for lane in 0..4 {
            prop_assert_eq!(va.lane(lane), a[lane], "from_fes/lane roundtrip");
            prop_assert_eq!(va.add(&vb).lane(lane), a[lane].add(&b[lane]), "add");
            prop_assert_eq!(va.sub(&vb).lane(lane), a[lane].sub(&b[lane]), "sub");
            prop_assert_eq!(va.mul(&vb).lane(lane), a[lane].mul(&b[lane]), "mul");
            prop_assert_eq!(va.square().lane(lane), a[lane].square(), "square");
            prop_assert_eq!(va.mul_small(n).lane(lane), a[lane].mul_small(n), "mul_small");
            prop_assert_eq!(
                va.mul_small_add(n, &vb).lane(lane),
                b[lane].add(&a[lane].mul_small(n)),
                "mul_small_add"
            );
            prop_assert_eq!(va.carry().lane(lane), a[lane], "carry");
        }
        // The ladder's composition shape: lazy add/sub straight into
        // mul/square, still exact lane-wise.
        let prod = va.add(&vb).mul(&va.sub(&vb));
        let sq = va.sub(&vb).square();
        for lane in 0..4 {
            prop_assert_eq!(
                prod.lane(lane),
                a[lane].add(&b[lane]).mul(&a[lane].sub(&b[lane])),
                "lazy add/sub feeding mul"
            );
            prop_assert_eq!(sq.lane(lane), a[lane].sub(&b[lane]).square(), "lazy sub feeding square");
        }
        // Per-lane conditional swap.
        let mut x = va;
        let mut y = vb;
        let masks = [
            u64::from(swap[0]), u64::from(swap[1]), u64::from(swap[2]), u64::from(swap[3]),
        ];
        Fe4::cswap(&masks, &mut x, &mut y);
        for lane in 0..4 {
            let (want_x, want_y) = if swap[lane] { (b[lane], a[lane]) } else { (a[lane], b[lane]) };
            prop_assert_eq!(x.lane(lane), want_x, "cswap x");
            prop_assert_eq!(y.lane(lane), want_y, "cswap y");
        }
    }

    /// The batched (IFMA octets or `Fe4` quads, plus the shared
    /// inversion) X25519 must be bit-identical to the scalar ladder for
    /// arbitrary per-lane scalars and u-coordinates, at every batch size
    /// that exercises full and padded octets, quads and scalar tails,
    /// including low-order points mixed into arbitrary lanes.
    #[test]
    fn x25519_batch_matches_scalar(
        seed in any::<u64>(),
        count in 1usize..20,
        low_order_lane in any::<Option<(u8, bool)>>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scalars = vec![[0u8; 32]; count];
        let mut us = vec![[0u8; 32]; count];
        for i in 0..count {
            rng.fill_bytes(&mut scalars[i]);
            rng.fill_bytes(&mut us[i]);
        }
        if let Some((lane, order4)) = low_order_lane {
            let lane = lane as usize % count;
            us[lane] = [0u8; 32];
            if order4 {
                us[lane][0] = 1;
            }
        }
        let batch = vuvuzela_crypto::x25519::x25519_batch(&scalars, &us);
        for i in 0..count {
            prop_assert_eq!(
                batch[i],
                vuvuzela_crypto::x25519::x25519(&scalars[i], &us[i]),
                "lane {} of {}", i, count
            );
        }
    }

    /// ChaCha20 is length-preserving XOR: double application is identity.
    #[test]
    fn chacha_is_involution(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        counter in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut buf = data.clone();
        chacha20::xor_stream(&key, counter, &nonce, &mut buf);
        chacha20::xor_stream(&key, counter, &nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// Poly1305 incremental equals one-shot for arbitrary chunkings.
    #[test]
    fn poly1305_chunking_invariant(
        key in any::<[u8; 32]>(),
        data in proptest::collection::vec(any::<u8>(), 0..200),
        split in 0usize..200,
    ) {
        let oneshot = poly1305::poly1305(&key, &data);
        let cut = split.min(data.len());
        let mut st = poly1305::Poly1305::new(&key);
        st.update(&data[..cut]);
        st.update(&data[cut..]);
        prop_assert_eq!(st.finalize(), oneshot);
    }

    /// SHA-256 incremental equals one-shot for arbitrary chunkings.
    #[test]
    fn sha256_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        split in 0usize..300,
    ) {
        let oneshot = sha256::sha256(&data);
        let cut = split.min(data.len());
        let mut h = sha256::Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }
}

mod in_place {
    //! The in-place AEAD/onion fast paths must be byte-identical to the
    //! allocating reference versions for arbitrary inputs — the round
    //! pipeline's correctness rests on this.

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use vuvuzela_crypto::x25519::{Keypair, PublicKey};
    use vuvuzela_crypto::{aead, onion};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn seal_in_place_matches_seal(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..48),
            payload in proptest::collection::vec(any::<u8>(), 0..400),
        ) {
            let reference = aead::seal(&key, &nonce, &aad, &payload);
            let mut buf = vec![0u8; payload.len() + aead::TAG_LEN];
            buf[..payload.len()].copy_from_slice(&payload);
            let sealed = aead::seal_in_place(&key, &nonce, &aad, &mut buf, payload.len());
            prop_assert_eq!(sealed, reference.len());
            prop_assert_eq!(&buf[..sealed], &reference[..]);
        }

        #[test]
        fn open_in_place_matches_open(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..48),
            payload in proptest::collection::vec(any::<u8>(), 0..400),
            flip in any::<Option<(u16, u8)>>(),
        ) {
            let mut boxed = aead::seal(&key, &nonce, &aad, &payload);
            if let Some((byte, bit)) = flip {
                let i = byte as usize % boxed.len();
                boxed[i] ^= 1 << (bit % 8);
            }
            let reference = aead::open(&key, &nonce, &aad, &boxed);
            let mut buf = boxed.clone();
            let boxed_len = buf.len();
            match aead::open_in_place(&key, &nonce, &aad, &mut buf, boxed_len) {
                Ok(n) => {
                    let opened = reference.expect("reference agrees on success");
                    prop_assert_eq!(&buf[..n], &opened[..]);
                }
                Err(e) => {
                    prop_assert_eq!(reference.expect_err("reference agrees on failure"), e);
                    prop_assert_eq!(&buf, &boxed, "failed open must not mutate");
                }
            }
        }

        #[test]
        fn onion_wrap_into_and_peel_in_place_match_reference(
            chain_len in 1usize..=5,
            round in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            seed in any::<u64>(),
        ) {
            let mut key_rng = StdRng::seed_from_u64(seed);
            let servers: Vec<Keypair> =
                (0..chain_len).map(|_| Keypair::generate(&mut key_rng)).collect();
            let pks: Vec<PublicKey> = servers.iter().map(|kp| kp.public).collect();

            // Same RNG state for both wrap paths → identical onions.
            let mut rng_a = StdRng::seed_from_u64(seed ^ 0xABCD);
            let mut rng_b = rng_a.clone();
            let (reference, _) = onion::wrap(&mut rng_a, &pks, round, &payload);
            let mut flat = vec![0u8; onion::wrapped_len(payload.len(), chain_len)];
            flat[32 * chain_len..32 * chain_len + payload.len()].copy_from_slice(&payload);
            let _keys = onion::wrap_into(&mut rng_b, &pks, round, &mut flat, payload.len());
            prop_assert_eq!(&flat, &reference);

            // Peel both ways down the whole chain.
            let mut width = flat.len();
            let mut reference_onion = reference;
            for kp in &servers {
                let (ref_key, ref_inner) =
                    onion::peel(&kp.secret, &kp.public, round, &reference_onion).expect("peel");
                let (key, new_width) =
                    onion::peel_in_place(&kp.secret, &kp.public, round, &mut flat, width)
                        .expect("peel_in_place");
                prop_assert_eq!(key.0, ref_key.0);
                prop_assert_eq!(&flat[..new_width], &ref_inner[..]);
                width = new_width;
                reference_onion = ref_inner;
            }
            prop_assert_eq!(&flat[..width], &payload[..]);
        }

        /// The chunk noise wrapper, on the CPU's kernel and on the
        /// forced scalar comb, must give every slot the reference
        /// `onion::wrap` bytes for the same child RNG and leave that RNG
        /// in the same state. Chains 1–4 and 1–40 slots cross full and
        /// padded comb octets and the 32-slot group boundary.
        #[test]
        fn noise_chunk_wrap_matches_per_slot_reference(
            chain_len in 1usize..=4,
            count in 1usize..=40,
            round in any::<u64>(),
            payload_len in 0usize..80,
            headroom in 0usize..9,
            seed in any::<u64>(),
        ) {
            let mut key_rng = StdRng::seed_from_u64(seed);
            let pks: Vec<PublicKey> =
                (0..chain_len).map(|_| Keypair::generate(&mut key_rng).public).collect();
            let servers: Vec<onion::PrecomputedServer> =
                pks.iter().map(|pk| onion::PrecomputedServer::new(*pk)).collect();
            let width = onion::wrapped_len(payload_len, chain_len);
            let stride = width + headroom;

            let mut chunk = vec![0u8; count * stride];
            let mut want = Vec::new();
            let mut reference_rngs = Vec::new();
            let rngs: Vec<StdRng> =
                (0..count).map(|i| StdRng::seed_from_u64(seed ^ ((i as u64 + 1) << 20))).collect();
            for (i, rng) in rngs.iter().enumerate() {
                let payload: Vec<u8> = (0..payload_len).map(|_| key_rng.gen()).collect();
                let offset = i * stride + 32 * chain_len;
                chunk[offset..offset + payload_len].copy_from_slice(&payload);
                let mut reference_rng = rng.clone();
                want.push(onion::wrap(&mut reference_rng, &pks, round, &payload).0);
                reference_rngs.push(reference_rng);
            }

            let mut fast = (chunk.clone(), rngs.clone());
            onion::wrap_noise_chunk_into(
                &mut fast.1, &servers, round, &mut fast.0, stride, width, payload_len);
            let mut scalar = (chunk, rngs);
            onion::wrap_noise_chunk_into_reference(
                &mut scalar.1, &servers, round, &mut scalar.0, stride, width, payload_len);

            for (name, (bytes, mut rngs)) in [("detected", fast), ("scalar", scalar)] {
                for (i, rng) in rngs.iter_mut().enumerate() {
                    prop_assert_eq!(
                        &bytes[i * stride..i * stride + width], &want[i][..],
                        "{} kernel slot {}", name, i);
                    prop_assert_eq!(
                        rng.next_u64(), reference_rngs[i].clone().next_u64(),
                        "{} kernel slot {} RNG state", name, i);
                }
            }
        }

        /// The batched-ladder chunk peel must classify and transform
        /// every slot exactly like the scalar-ladder chunk reference
        /// and the per-slot path, over arbitrary mixes of valid,
        /// corrupted and low-order slots. Chunk sizes 1–40
        /// cross octet, quad and tail boundaries (full and padded IFMA
        /// octets, `Fe4` quads on CPUs without IFMA) and the 32-slot
        /// group boundary, including the shared inversion's
        /// zero-denominator edges.
        #[test]
        fn peel_chunk_batched_matches_scalar_reference(
            seed in any::<u64>(),
            count in 1usize..41,
            round in any::<u64>(),
            kinds in proptest::collection::vec(0u8..4, 40),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let server = Keypair::generate(&mut rng);
            let payload = b"proptest payload";
            let (sample, _) = onion::wrap(&mut rng, &[server.public], round, payload);
            let width = sample.len();
            let stride = width + 3;
            let mut chunk = vec![0u8; count * stride];
            let mut slots: Vec<Vec<u8>> = Vec::new();
            for i in 0..count {
                let mut onion_bytes = match kinds[i] {
                    // Forged low-order ephemeral (identity or order-4).
                    1 => {
                        let mut o = vec![0u8; width];
                        o[32..].fill(0x5A);
                        o[0] = u8::from(i % 2 == 0);
                        o
                    }
                    _ => onion::wrap(&mut rng, &[server.public], round, payload).0,
                };
                if kinds[i] == 2 {
                    // Bit-flip: authentication failure.
                    onion_bytes[34] ^= 1;
                }
                chunk[i * stride..i * stride + width].copy_from_slice(&onion_bytes);
                slots.push(onion_bytes);
            }
            let mut chunk_ref = chunk.clone();

            let results = onion::peel_chunk_in_place(
                &server.secret, &server.public, round, &mut chunk, stride, width);
            let ref_results = onion::peel_chunk_in_place_reference(
                &server.secret, &server.public, round, &mut chunk_ref, stride, width);

            prop_assert_eq!(results.len(), count);
            prop_assert_eq!(&chunk, &chunk_ref, "arena bytes diverged between ladder modes");
            for (i, (got, want)) in results.iter().zip(&ref_results).enumerate() {
                // Per-slot reference for ground truth.
                let mut slot = slots[i].clone();
                let per_slot = onion::peel_in_place(
                    &server.secret, &server.public, round, &mut slot, width);
                match (got, want, per_slot) {
                    (Ok((k1, l1)), Ok((k2, l2)), Ok((k3, l3))) => {
                        prop_assert_eq!(k1.0, k2.0, "slot {} key (modes)", i);
                        prop_assert_eq!(k1.0, k3.0, "slot {} key (per-slot)", i);
                        prop_assert_eq!((l1, l2), (&l3, &l3), "slot {} len", i);
                        prop_assert_eq!(
                            &chunk[i * stride..i * stride + l1],
                            &slot[..l3],
                            "slot {} payload", i
                        );
                    }
                    (Err(e1), Err(e2), Err(e3)) => {
                        prop_assert_eq!(e1, e2, "slot {} error (modes)", i);
                        prop_assert_eq!(e1, &e3, "slot {} error (per-slot)", i);
                    }
                    (g, w, p) => panic!("slot {i} disagreement: {g:?} vs {w:?} vs {p:?}"),
                }
            }
        }

        #[test]
        fn reply_wrap_in_place_matches_reference(
            round in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            key_bytes in any::<[u8; 32]>(),
        ) {
            let key = onion::LayerKey(key_bytes);
            let reference = onion::wrap_reply_layer(&key, round, &payload);
            let mut slot = vec![0u8; payload.len() + onion::REPLY_LAYER_OVERHEAD];
            slot[..payload.len()].copy_from_slice(&payload);
            let sealed = onion::wrap_reply_in_place(&key, round, &mut slot, payload.len());
            prop_assert_eq!(&slot[..sealed], &reference[..]);
        }
    }
}
