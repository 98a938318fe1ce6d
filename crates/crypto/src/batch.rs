//! Batched X25519 scalar multiplications, dispatched on the CPU.
//!
//! Two batch shapes share one CPU check ([`Kernel::detect`]):
//!
//! * [`ladders_into`], variable-base ladders: the batch consumers
//!   [`crate::x25519::x25519_batch`] and the onion peeler
//!   ([`crate::onion::peel_chunk_in_place`]).
//! * [`combs_into`], fixed-point combs over a precomputed
//!   [`PointTable`]: the noise wrapper's keygens (`k·B`) and its DHs
//!   against downstream server keys
//!   ([`crate::onion::wrap_noise_chunk_into`]).
//!
//! [`ladders_into`] picks one of three shapes per run of inputs:
//!
//! * **octets**: eight ladders per AVX-512 IFMA kernel call
//!   ([`vuvuzela_crypto_simd::ladder8`]). A partial octet with at least
//!   two live lanes runs padded with the base point (u = 9): on a
//!   2-core Xeon with AVX-512 IFMA one kernel call took ~50 µs and one
//!   scalar ladder ~38 µs, so padding wins from two live lanes on.
//! * **quads**: four ladders in lockstep over the safe-Rust
//!   [`crate::fe4::Fe4`], the fallback on CPUs without IFMA.
//! * **scalar**: the RFC 7748 ladder, for whatever is left (at most one
//!   input after octets, at most three after quads).
//!
//! [`combs_into`] runs octets of the eight-lane comb
//! ([`vuvuzela_crypto_simd::comb8`]) and the scalar comb for the rest.
//! One comb call took ~15 µs and one scalar comb ~14 µs on the same
//! Xeon, so a partial octet runs padded from two live lanes on, as for
//! the ladders. `Fe4` has no comb, so [`Kernel::Fe4`] and
//! [`Kernel::Scalar`] run the scalar comb throughout.
//!
//! [`Kernel::detect`] chooses between octets and quads from the CPU's
//! features alone; nothing else selects it. Every shape leaves the
//! final inversion deferred as a [`PendingU`] and yields the same bytes
//! once resolved.

use crate::edwards::{d2_limbs, signed_radix16, PendingU, PointTable};
use crate::fe4::Fe4;
use crate::field::Fe;
use crate::x25519::{ladder, BASE_POINT};
use vuvuzela_crypto_simd as simd;

/// The batch shape, for ladders and combs alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Octets on AVX-512 IFMA, then the scalar ladder or comb for a
    /// lone leftover.
    Ifma8,
    /// Ladder quads over [`Fe4`], then the scalar ladder for the tail;
    /// the scalar comb for every comb.
    Fe4,
    /// The scalar ladder or comb for every input: the reference path.
    Scalar,
}

impl Kernel {
    /// The fastest kernel this CPU runs: [`Kernel::Ifma8`] when it has
    /// AVX-512F and AVX-512 IFMA, otherwise [`Kernel::Fe4`].
    pub(crate) fn detect() -> Kernel {
        if simd::ifma_available() {
            Kernel::Ifma8
        } else {
            Kernel::Fe4
        }
    }

    /// The kernel's label in bench artefacts.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kernel::Ifma8 => "ifma8",
            Kernel::Fe4 => "fe4",
            Kernel::Scalar => "scalar",
        }
    }
}

/// Fewest live lanes worth a padded octet: one ladder runs faster on
/// the scalar path than eight padded lanes.
const MIN_OCTET_LANES: usize = 2;

/// Runs `X25519(k(i), us[i])` for every `i`, leaving each final
/// inversion deferred in `out[i]`. `k(i)` must return a clamped scalar.
/// Low-order inputs leave a zero denominator in their own slot only.
///
/// # Panics
///
/// Panics if `us` and `out` differ in length.
pub(crate) fn ladders_into(
    kernel: Kernel,
    k: impl Fn(usize) -> [u8; 32],
    us: &[[u8; 32]],
    out: &mut [PendingU],
) {
    assert_eq!(us.len(), out.len(), "one output per input");
    let n = us.len();
    let mut done = 0;
    if kernel == Kernel::Ifma8 {
        while n - done >= MIN_OCTET_LANES {
            let live = (n - done).min(simd::LANES);
            if !octet(
                &k,
                done,
                &us[done..done + live],
                &mut out[done..done + live],
            ) {
                break; // no IFMA after all: the quads take over
            }
            done += live;
        }
    }
    if kernel != Kernel::Scalar {
        while n - done >= crate::fe4::LANES {
            let ks: [[u8; 32]; 4] = core::array::from_fn(|l| k(done + l));
            let quad = ladder4(
                core::array::from_fn(|l| &ks[l]),
                core::array::from_fn(|l| &us[done + l]),
            );
            out[done..done + 4].copy_from_slice(&quad);
            done += 4;
        }
    }
    for i in done..n {
        out[i] = ladder(&k(i), &us[i]);
    }
}

/// Runs `k(i) · P` for every `i` over `table`, the comb table of `P`,
/// leaving each final inversion deferred in `out[i]`. `k(i)` must
/// return a clamped scalar. Octets first when `kernel` is
/// [`Kernel::Ifma8`] (a partial octet with at least two live lanes runs
/// padded with lane 0's scalar), then the scalar comb.
pub(crate) fn combs_into(
    kernel: Kernel,
    table: &PointTable,
    k: impl Fn(usize) -> [u8; 32],
    out: &mut [PendingU],
) {
    let n = out.len();
    let mut done = 0;
    if kernel == Kernel::Ifma8 {
        while n - done >= MIN_OCTET_LANES {
            let live = (n - done).min(simd::LANES);
            if !comb_octet(table, &k, done, &mut out[done..done + live]) {
                break; // no IFMA after all: the scalar comb takes over
            }
            done += live;
        }
    }
    for (i, slot) in out.iter_mut().enumerate().skip(done) {
        *slot = table.scalarmult_pending(&k(i));
    }
}

/// One eight-lane comb call over `out.len()` (1..=8) live lanes starting
/// at input index `base`; idle lanes repeat lane 0's digits and are
/// discarded. Returns `false`, writing nothing, when the CPU lacks IFMA.
fn comb_octet(
    table: &PointTable,
    k: &impl Fn(usize) -> [u8; 32],
    base: usize,
    out: &mut [PendingU],
) -> bool {
    let live = out.len();
    let digits: [simd::Digits; simd::LANES] =
        core::array::from_fn(|l| signed_radix16(&k(base + if l < live { l } else { 0 })));
    let Some(r) = simd::comb8(table.rows(), &d2_limbs(), &digits) else {
        return false;
    };
    // Carried kernel limbs are below 2^51 + 2^18, inside `Fe`'s loose
    // (< 2^52) invariant.
    for (l, slot) in out.iter_mut().enumerate() {
        *slot = PendingU::from_ratio(Fe(r.x[l]), Fe(r.z[l]));
    }
    true
}

/// One IFMA kernel call over `us.len()` (1..=8) live lanes starting at
/// input index `base`; idle lanes compute `k(base) · 9` and are
/// discarded. Returns `false`, writing nothing, when the CPU lacks
/// IFMA.
fn octet(
    k: &impl Fn(usize) -> [u8; 32],
    base: usize,
    us: &[[u8; 32]],
    out: &mut [PendingU],
) -> bool {
    let live = us.len();
    let scalars: [[u8; 32]; simd::LANES] =
        core::array::from_fn(|l| k(base + if l < live { l } else { 0 }));
    let x1: simd::Lanes =
        core::array::from_fn(|l| Fe::from_bytes(us.get(l).unwrap_or(&BASE_POINT)).0);
    let Some(r) = simd::ladder8(&scalars, &x1) else {
        return false;
    };
    // Carried kernel limbs are below 2^51 + 2^18, inside `Fe`'s loose
    // (< 2^52) invariant.
    for (l, slot) in out.iter_mut().enumerate() {
        *slot = PendingU::from_ratio(Fe(r.x[l]), Fe(r.z[l]));
    }
    true
}

/// The RFC 7748 Montgomery ladder stepped **four-wide**: one
/// [`Fe4`] operation per formula line advances four independent
/// `(scalar, u)` ladders at once. The arithmetic sequence per lane is
/// exactly [`ladder`]'s — same formulas, same swap schedule — but the
/// adds and subs between multiplications run carry-free under `Fe4`'s
/// lazy-reduction contract (see [`crate::fe4`]), and the four
/// multiplication chains interleave instead of serializing. Low-order
/// inputs leave `z2 = 0` in their lane, resolving to zero exactly like
/// the scalar path.
fn ladder4(ks: [&[u8; 32]; 4], us: [&[u8; 32]; 4]) -> [PendingU; 4] {
    const LANES: usize = crate::fe4::LANES;

    /// One full ladder step: conditional swap plus the differential
    /// add-and-double formulas. Kept `inline(never)` deliberately — the
    /// nine field operations fuse inside this one medium-sized function
    /// (good scheduling, no 160-byte argument copies per op), while the
    /// 255-iteration loop stays a tight call site instead of a
    /// several-thousand-instruction body that overflows the µop cache.
    /// Measured on the 1-core bench box this shape beats both
    /// per-operation calls and full inlining into the loop.
    #[inline(never)]
    fn step(swap: &[u64; LANES], x1: &Fe4, x2: &mut Fe4, z2: &mut Fe4, x3: &mut Fe4, z3: &mut Fe4) {
        Fe4::cswap(swap, x2, x3);
        Fe4::cswap(swap, z2, z3);

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        *x3 = da.add(&cb).square();
        *z3 = x1.mul(&da.sub(&cb).square());
        *x2 = aa.mul(&bb);
        *z2 = e.mul(&e.mul_small_add(121_665, &aa));
    }

    let x1 = Fe4::from_fes(core::array::from_fn(|l| Fe::from_bytes(us[l])));

    let mut x2 = Fe4::splat(Fe::ONE);
    let mut z2 = Fe4::splat(Fe::ZERO);
    let mut x3 = x1;
    let mut z3 = Fe4::splat(Fe::ONE);
    let mut swap = [0u64; LANES];

    for t in (0..255).rev() {
        let mut k_t = [0u64; LANES];
        for (lane, k) in ks.iter().enumerate() {
            k_t[lane] = u64::from((k[t / 8] >> (t % 8)) & 1);
            swap[lane] ^= k_t[lane];
        }
        step(&swap, &x1, &mut x2, &mut z2, &mut x3, &mut z3);
        swap = k_t;
    }
    Fe4::cswap(&swap, &mut x2, &mut x3);
    Fe4::cswap(&swap, &mut z2, &mut z3);

    core::array::from_fn(|l| PendingU::from_ratio(x2.lane(l), z2.lane(l)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x25519::{clamp, resolve_pending_into, x25519};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Every input through `kernel`, resolved.
    fn run(kernel: Kernel, scalars: &[[u8; 32]], us: &[[u8; 32]]) -> Vec<[u8; 32]> {
        let mut pending = vec![PendingU::PLACEHOLDER; us.len()];
        ladders_into(kernel, |i| clamp(scalars[i]), us, &mut pending);
        let mut out = vec![[0u8; 32]; us.len()];
        for (p, o) in pending.chunks(32).zip(out.chunks_mut(32)) {
            resolve_pending_into(p, o);
        }
        out
    }

    fn random_inputs(seed: u64, n: usize) -> (Vec<[u8; 32]>, Vec<[u8; 32]>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scalars = vec![[0u8; 32]; n];
        let mut us = vec![[0u8; 32]; n];
        for i in 0..n {
            rng.fill_bytes(&mut scalars[i]);
            rng.fill_bytes(&mut us[i]);
        }
        (scalars, us)
    }

    fn scalar_reference(scalars: &[[u8; 32]], us: &[[u8; 32]]) -> Vec<[u8; 32]> {
        scalars.iter().zip(us).map(|(k, u)| x25519(k, u)).collect()
    }

    #[test]
    fn detect_names_a_batch_kernel() {
        let kernel = Kernel::detect();
        assert_ne!(kernel, Kernel::Scalar);
        assert_eq!(kernel == Kernel::Ifma8, simd::ifma_available());
        assert_eq!(
            kernel.name(),
            if simd::ifma_available() {
                "ifma8"
            } else {
                "fe4"
            }
        );
    }

    #[test]
    fn every_kernel_matches_scalar_across_sizes() {
        // 1..=19 covers, per kernel: empty and full octets, padded
        // octets with 2–7 live lanes, the lone scalar leftover, full
        // quads and 1–3-lane scalar tails. The Fe4 fallback stays under
        // test on CPUs that would pick IFMA.
        for n in 1..=19 {
            let (scalars, us) = random_inputs(n as u64, n);
            let want = scalar_reference(&scalars, &us);
            for kernel in [Kernel::Ifma8, Kernel::Fe4, Kernel::Scalar] {
                assert_eq!(run(kernel, &scalars, &us), want, "{kernel:?} n {n}");
            }
        }
    }

    #[test]
    fn ifma_forced_without_the_cpu_feature_falls_back() {
        // On a CPU without IFMA the octet call declines and the quads
        // take the whole batch; on one with IFMA this is the normal
        // path. Either way the bytes match the scalar ladder.
        let (scalars, us) = random_inputs(77, 11);
        assert_eq!(
            run(Kernel::Ifma8, &scalars, &us),
            scalar_reference(&scalars, &us)
        );
    }

    #[test]
    fn octets_at_edge_inputs() {
        // Non-canonical u ≥ p, u with bit 255 set (masked on decode),
        // and the low-order points u = 0 and u = 1, which must resolve
        // to all-zero in their own lane only.
        let p = {
            let mut b = [0xffu8; 32];
            b[0] = 0xed;
            b[31] = 0x7f;
            b
        };
        let p_plus = |add: u8| {
            let mut b = p;
            b[0] += add;
            b
        };
        let all_ones = [0xffu8; 32]; // 2^256 − 1: bit 255 set and ≥ p
        let mut bit255 = [0x5au8; 32];
        bit255[31] |= 0x80;
        let mut one = [0u8; 32];
        one[0] = 1;
        let edges = [p, p_plus(1), p_plus(9), all_ones, bit255, [0u8; 32], one];

        let (scalars, mut us) = random_inputs(78, 8);
        for (lane, edge) in edges.iter().enumerate() {
            for position in [lane, 7 - lane] {
                let saved = us[position];
                us[position] = *edge;
                let got = run(Kernel::Ifma8, &scalars, &us);
                assert_eq!(
                    got,
                    scalar_reference(&scalars, &us),
                    "edge {lane} at {position}"
                );
                // p ≡ 0 and p + 1 ≡ 1 are low order too.
                let low_order = [[0u8; 32], one, p, p_plus(1)].contains(edge);
                for (i, out) in got.iter().enumerate() {
                    let zero = *out == [0u8; 32];
                    assert_eq!(zero, i == position && low_order, "edge {lane} lane {i}");
                }
                us[position] = saved;
            }
        }
    }

    #[test]
    fn padded_octets_with_one_to_seven_live_lanes() {
        for live in 1..=7 {
            let (scalars, us) = random_inputs(100 + live as u64, live);
            let mut pending = vec![PendingU::PLACEHOLDER; live];
            let k = |i: usize| clamp(scalars[i]);
            if !octet(&k, 0, &us, &mut pending) {
                return; // no IFMA on this CPU
            }
            let mut got = vec![[0u8; 32]; live];
            resolve_pending_into(&pending, &mut got);
            assert_eq!(got, scalar_reference(&scalars, &us), "live {live}");
        }
    }

    /// Every input through [`combs_into`] on `kernel`, resolved.
    fn run_combs(kernel: Kernel, table: &PointTable, scalars: &[[u8; 32]]) -> Vec<[u8; 32]> {
        let mut pending = vec![PendingU::PLACEHOLDER; scalars.len()];
        combs_into(kernel, table, |i| clamp(scalars[i]), &mut pending);
        let mut out = vec![[0u8; 32]; scalars.len()];
        for (p, o) in pending.chunks(32).zip(out.chunks_mut(32)) {
            resolve_pending_into(p, o);
        }
        out
    }

    /// The base table (u = 9) and the point tables of three server keys,
    /// each with its point's u-coordinate for the ladder oracle.
    fn comb_tables() -> Vec<(&'static PointTable, [u8; 32])> {
        let mut rng = StdRng::seed_from_u64(300);
        let mut tables = vec![(crate::edwards::base_table(), BASE_POINT)];
        for _ in 0..3 {
            let mut sk = [0u8; 32];
            rng.fill_bytes(&mut sk);
            let u = x25519(&sk, &BASE_POINT);
            let table = PointTable::new(&u).expect("a public key has a table");
            tables.push((Box::leak(Box::new(table)), u));
        }
        tables
    }

    /// Clamped scalars whose signed radix-16 digits hit the comb's
    /// edges. Each is checked against the digit shape it is meant to
    /// have, so the comb tests below cover what they claim.
    fn edge_scalars() -> Vec<[u8; 32]> {
        let digits = |k: &[u8; 32]| signed_radix16(&clamp(*k));
        // The clamped minimum 2^254: 63 zero digits, then 4.
        let mut min = [0u8; 32];
        min[31] = 0x40;
        assert!(digits(&min)[..63].iter().all(|&d| d == 0) && digits(&min)[63] == 4);
        // The clamped maximum: the carry out of digit 0 (8 → −8)
        // ripples through every digit (15 + 1 → 0), ending on +8.
        let max = clamp([0xff; 32]);
        let d = digits(&max);
        assert!(d[0] == -8 && d[1..63].iter().all(|&d| d == 0) && d[63] == 8);
        // Nibbles 8, 7, 7, …: every digit −8 but the last, +8.
        let mut minus_eights = [0x77u8; 32];
        minus_eights[0] = 0x78;
        let d = digits(&minus_eights);
        assert!(d[..63].iter().all(|&d| d == -8) && d[63] == 8);
        // 0x69 and 0x96 bytes: alternating signs (±7) in both phases.
        let alternating = [0x69u8; 32];
        assert!(digits(&alternating)[1..63]
            .iter()
            .enumerate()
            .all(|(i, &d)| d == if i % 2 == 0 { 7 } else { -7 }));
        let alternating_shifted = [0x96u8; 32];
        assert!(digits(&alternating_shifted)[1..63]
            .iter()
            .enumerate()
            .all(|(i, &d)| d == if i % 2 == 0 { -7 } else { 7 }));
        // Long runs of zero digits between isolated ±1 and ±8 digits.
        let mut sparse = min;
        sparse[5] = 0x08;
        sparse[17] = 0x80;
        sparse[26] = 0x01;
        assert_eq!(digits(&sparse).iter().filter(|&&d| d != 0).count(), 6);
        // Two scalars whose zero digits are exactly each other's
        // non-zero ones, so one octet step mixes both cases.
        let mut rng = StdRng::seed_from_u64(301);
        let mut even_zero = [0u8; 32];
        let mut odd_zero = [0u8; 32];
        for i in 0..32 {
            let mut nibble = || 1 + (rng.next_u32() % 7) as u8; // 1..=7: no carries
            even_zero[i] = nibble() << 4;
            odd_zero[i] = nibble();
        }
        even_zero[31] = 0x40 | (even_zero[31] & 0x30);
        odd_zero[0] = 0; // clamped: digit 0 is zero too
        odd_zero[31] = 0x40 | (odd_zero[31] & 0x07);
        let (e, o) = (digits(&even_zero), digits(&odd_zero));
        for i in 1..63 {
            assert!((e[i] == 0) == (i % 2 == 0), "even_zero digit {i}");
            assert!((o[i] == 0) == (i % 2 == 1), "odd_zero digit {i}");
        }
        vec![
            min,
            max,
            minus_eights,
            alternating,
            alternating_shifted,
            sparse,
            even_zero,
            odd_zero,
        ]
    }

    #[test]
    fn combs_at_edge_scalars() {
        // Every edge scalar in every lane position of a full octet (the
        // eight rotations), over the base table and three server keys'
        // tables: the kernel, the forced scalar comb and the ladder agree.
        let edges = edge_scalars();
        for (t, (table, u)) in comb_tables().into_iter().enumerate() {
            for rotation in 0..edges.len() {
                let mut scalars = edges.clone();
                scalars.rotate_left(rotation);
                let want: Vec<[u8; 32]> = scalars.iter().map(|k| x25519(k, &u)).collect();
                for kernel in [Kernel::Ifma8, Kernel::Scalar] {
                    assert_eq!(
                        run_combs(kernel, table, &scalars),
                        want,
                        "{kernel:?} table {t} rotation {rotation}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_kernel_combs_match_the_ladder_across_sizes() {
        // 1..=19 covers full and padded octets, the lone scalar
        // leftover, and the scalar comb the Fe4 and Scalar kernels run
        // even on CPUs that would pick IFMA.
        let tables = comb_tables();
        for n in 1..=19 {
            let (scalars, _) = random_inputs(200 + n as u64, n);
            for (t, (table, u)) in tables.iter().enumerate().take(2) {
                let want: Vec<[u8; 32]> = scalars.iter().map(|k| x25519(k, u)).collect();
                for kernel in [Kernel::Ifma8, Kernel::Fe4, Kernel::Scalar] {
                    assert_eq!(
                        run_combs(kernel, table, &scalars),
                        want,
                        "{kernel:?} table {t} n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn padded_comb_octets_with_one_to_seven_live_lanes() {
        let edges = edge_scalars();
        for (t, (table, u)) in comb_tables().into_iter().enumerate() {
            for live in 1..=7 {
                let scalars = &edges[8 - live..];
                let mut pending = vec![PendingU::PLACEHOLDER; live];
                let k = |i: usize| clamp(scalars[i]);
                if !comb_octet(table, &k, 0, &mut pending) {
                    return; // no IFMA on this CPU
                }
                let mut got = vec![[0u8; 32]; live];
                resolve_pending_into(&pending, &mut got);
                let want: Vec<[u8; 32]> = scalars.iter().map(|k| x25519(k, &u)).collect();
                assert_eq!(got, want, "table {t} live {live}");
            }
        }
    }

    /// Eight elements with every limb drawn from the top `span` values
    /// below `bound` (or, with `full`, anywhere below it).
    fn lanes_near(rng: &mut StdRng, bound: u64, span: u64, full: bool) -> simd::Lanes {
        core::array::from_fn(|_| {
            core::array::from_fn(|_| {
                let r = rng.next_u64();
                if full {
                    r % bound
                } else {
                    bound - 1 - r % span
                }
            })
        })
    }

    /// The scalar reference for one IFMA op on one lane.
    fn scalar_op(op: simd::Op, a: Fe, b: Fe) -> Fe {
        match op {
            simd::Op::Add => a.add(&b),
            simd::Op::Sub => a.sub(&b),
            simd::Op::Mul => a.mul(&b),
            simd::Op::Square => a.square(),
            simd::Op::A24 => a.add(&b.mul_small(121_665)),
            simd::Op::Carry => a,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each kernel op against scalar `Fe`, lane-wise, with limbs at
        /// the top of the kernel's documented input bounds (a mix of
        /// lanes pinned to the top 2^20 values below the bound and
        /// lanes spread over the whole range). Outputs must be carried
        /// and canonically equal to the scalar result.
        #[test]
        fn ifma_ops_match_scalar_at_limb_bounds(seed in any::<u64>(), spread in any::<bool>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops = [
                simd::Op::Add,
                simd::Op::Sub,
                simd::Op::Mul,
                simd::Op::Square,
                simd::Op::A24,
            ];
            let a = lanes_near(&mut rng, simd::LIMB_BOUND, 1 << 20, spread);
            let b = lanes_near(&mut rng, simd::LIMB_BOUND, 1 << 20, false);
            for op in ops {
                let Some(out) = simd::op8(op, &a, &b) else {
                    return Ok(()); // no IFMA on this CPU
                };
                for lane in 0..simd::LANES {
                    prop_assert!(out[lane].iter().all(|&l| l < simd::LIMB_BOUND), "{:?} bound", op);
                    prop_assert_eq!(
                        Fe(out[lane]),
                        scalar_op(op, Fe(a[lane]), Fe(b[lane])),
                        "{:?} lane {}", op, lane
                    );
                }
            }
            // The weak carry takes the widest values a folded product
            // can hold (< 2^62).
            let wide = lanes_near(&mut rng, 1 << 62, 1 << 40, spread);
            if let Some(out) = simd::op8(simd::Op::Carry, &wide, &wide) {
                for lane in 0..simd::LANES {
                    prop_assert!(out[lane].iter().all(|&l| l < simd::LIMB_BOUND), "carry bound");
                    prop_assert_eq!(Fe(out[lane]), Fe(wide[lane]).carry(), "carry lane {}", lane);
                }
            }
            // Per-lane conditional swap.
            let swap: [bool; simd::LANES] = core::array::from_fn(|l| (seed >> l) & 1 == 1);
            if let Some((x, y)) = simd::cswap8(&swap, &a, &b) {
                for lane in 0..simd::LANES {
                    let (want_x, want_y) = if swap[lane] { (b[lane], a[lane]) } else { (a[lane], b[lane]) };
                    prop_assert_eq!((x[lane], y[lane]), (want_x, want_y), "cswap lane {}", lane);
                }
            }
        }
    }
}
