//! An eight-lane X25519 Montgomery ladder on AVX-512 IFMA.
//!
//! The mix servers' hot path is one variable-base X25519 per onion per
//! round. `vuvuzela-crypto` steps those ladders four at a time over its
//! safe-Rust `Fe4` type, which is bound by the scalar 64-bit
//! multiplier. AVX-512 IFMA (`vpmadd52luq` / `vpmadd52huq`) multiplies
//! eight 52-bit lane pairs per instruction, so this crate steps **eight
//! independent ladders** in lockstep, one per 64-bit lane of a
//! `__m512i`.
//!
//! The kernel is chosen at run time: [`ladder8`] checks
//! `is_x86_feature_detected!("avx512f")` and `("avx512ifma")` and
//! returns `None` when the CPU lacks either, and the whole crate
//! compiles to that stub off x86-64. Callers keep a portable fallback.
//! No cargo feature, environment variable or config field selects the
//! kernel; the CPU's features are the only input. All of the crypto
//! stack's `unsafe` lives here: the calls into `#[target_feature]`
//! code after detection, and the vector stores that unpack results.
//!
//! # Representation
//!
//! A field element of GF(2^255 − 19) is five limbs in radix 2^51, as in
//! the crypto crate's scalar `Fe`. Eight elements are limb-sliced into
//! five `__m512i`: vector `i` holds limb `i` of every lane. A product
//! `a_i · b_j` of two limbs below 2^52 is at most 104 bits wide;
//! `madd52lo` yields its low 52 bits and `madd52hi` its high 52. Since
//! 2^52 = 2 · 2^51, the low half accumulates into limb `i + j` and the
//! high half into limb `i + j + 1`, doubled. Limbs 5..9 of the product
//! fold back into limbs 0..4 times 19 (2^255 ≡ 19), computed as
//! `(x << 4) + (x << 1) + x`.
//!
//! # Limb bounds
//!
//! **The hazard is silent truncation.** `vpmadd52` ignores every input
//! bit at position 52 or above. An operand limb of 2^52 or more does not
//! trap or saturate; the product is simply wrong. Two loose limbs can
//! sum past 2^52, so an add that skipped its carry would corrupt rare
//! inputs that random tests do not reach. Every operation therefore
//! ends with a *weak carry*: all five limbs shift out their bits above
//! 51 in parallel, each carry lands on the next limb, and the carry out
//! of limb 4 lands on limb 0 times 19.
//!
//! *Carried* means every limb is below [`LIMB_BOUND`] = 2^51 + 2^18.
//! The weak carry maps any `u64` limbs to carried limbs: each carry is
//! below 2^13, so limbs 1..4 stay below 2^51 + 2^13 and limb 0 below
//! 2^51 + 19 · 2^13 < 2^51 + 2^18. Per operation (see [`Op`]):
//!
//! | op | inputs | before its weak carry | output |
//! |----|--------|-----------------------|--------|
//! | add `a + b` | carried | < 2^52 + 2^19 | carried |
//! | sub `a − b` (adds 2p) | carried; `b` ≤ 2p limb-wise, which carried limbs are | < 2^53 | carried |
//! | mul `a · b` | carried (< 2^52, so no IFMA input truncates) | < 2^61 after the ×19 fold | carried |
//! | square `a²` | carried | same terms as `mul(a, a)` | carried |
//! | a24 `a + 121665 · b` | carried | < 2^53 | carried |
//! | carry | any `u64` limbs | n/a | carried |
//!
//! The mul bound: a product position collects at most 5 low halves
//! (each < 2^52) and 5 doubled high halves (each < 2^53), and no
//! position holds more than 14 · 2^52 < 2^56. Folding position `k + 5`
//! into `k` gives less than 20 · 14 · 2^52 < 2^61. Squaring doubles the
//! cross-term accumulators instead of an input limb, because a doubled
//! limb could reach 2^53 and truncate.
//!
//! Every value the ladder feeds into a multiplication is therefore
//! carried, so below 2^52. The input u-coordinate must be carried too;
//! decoding 32 bytes with bit 255 masked gives limbs below 2^51. The
//! ladder's outputs `x2` and `z2` are carried, which meets the crypto
//! crate's loose `Fe` invariant (every limb below 2^52). The bound tests
//! in `vuvuzela-crypto` drive every op with limbs at the top of these
//! ranges against the scalar `Fe` arithmetic.
//!
//! # Constant time
//!
//! The conditional swap masks are computed arithmetically from the
//! scalar bits (`0 − bit` per lane). The ladder has no branch and no
//! memory index that depends on a secret; the only data-dependent
//! values are vector register contents.

#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

/// Number of ladders stepped in lockstep.
pub const LANES: usize = 8;

/// Exclusive upper bound on every limb of a carried element:
/// 2^51 + 2^18. See the module docs.
pub const LIMB_BOUND: u64 = (1 << 51) + (1 << 18);

/// One field element as five radix-2^51 limbs, least significant first.
pub type Limbs = [u64; 5];

/// Eight field elements, one per lane.
pub type Lanes = [Limbs; LANES];

/// The ladder's projective result per lane: `u = x / z`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Projective8 {
    /// The numerator `x2`, carried.
    pub x: Lanes,
    /// The denominator `z2`, carried. Zero (mod p) exactly when the
    /// lane's input point has low order.
    pub z: Lanes,
}

/// One lane-wise field operation, exposed so the bound tests can hold
/// each kernel operation against scalar arithmetic. Input and output
/// bounds are in the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `a + b`.
    Add,
    /// `a − b`, computed as `a + 2p − b`.
    Sub,
    /// `a · b`.
    Mul,
    /// `a²`; ignores `b`.
    Square,
    /// `a + 121665 · b`: the ladder's `AA + a24 · E` line.
    A24,
    /// One weak carry of `a`; ignores `b`.
    Carry,
}

/// Whether this CPU runs the IFMA kernel (AVX-512F and AVX-512 IFMA).
/// Always `false` off x86-64.
#[must_use]
pub fn ifma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Eight RFC 7748 Montgomery ladders in lockstep, stopping before the
/// final inversion. Lane `l` computes `scalars[l] · u_l`, where `x1[l]`
/// holds the carried limbs of `u_l`. Each scalar must already be
/// clamped; the ladder reads bits 254 down to 0, as the scalar ladder
/// does. The formula sequence and swap schedule match the scalar
/// ladder line for line, so after the division `x / z` every lane is
/// byte-identical to it.
///
/// Returns `None` when the CPU lacks AVX-512 IFMA.
#[must_use]
pub fn ladder8(scalars: &[[u8; 32]; LANES], x1: &Lanes) -> Option<Projective8> {
    debug_assert!(x1.iter().flatten().all(|&limb| limb < LIMB_BOUND));
    #[cfg(target_arch = "x86_64")]
    if ifma_available() {
        // SAFETY: `ifma::ladder8` is compiled for avx512f + avx512ifma,
        // and both were detected on this CPU just above.
        return Some(unsafe { ifma::ladder8(scalars, x1) });
    }
    let _ = scalars;
    None
}

/// Applies `op` lane-wise. Returns `None` when the CPU lacks AVX-512
/// IFMA.
#[must_use]
pub fn op8(op: Op, a: &Lanes, b: &Lanes) -> Option<Lanes> {
    #[cfg(target_arch = "x86_64")]
    if ifma_available() {
        // SAFETY: compiled for avx512f + avx512ifma, both detected just
        // above.
        return Some(unsafe { ifma::op8(op, a, b) });
    }
    let _ = (op, a, b);
    None
}

/// Swaps lane `l` of `a` and `b` iff `swap[l]`, with the ladder's
/// arithmetic mask. Returns `None` when the CPU lacks AVX-512 IFMA.
#[must_use]
pub fn cswap8(swap: &[bool; LANES], a: &Lanes, b: &Lanes) -> Option<(Lanes, Lanes)> {
    #[cfg(target_arch = "x86_64")]
    if ifma_available() {
        // SAFETY: compiled for avx512f + avx512ifma, both detected just
        // above.
        return Some(unsafe { ifma::cswap8(swap, a, b) });
    }
    let _ = (swap, a, b);
    None
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    //! The kernel. Every function here is `#[target_feature]`-gated and
    //! reached only through the detecting wrappers above.
    //!
    //! # Safety
    //!
    //! Calling any of the three `pub(super)` entry points requires a CPU
    //! with AVX-512F and AVX-512 IFMA; the wrappers check both with
    //! `is_x86_feature_detected!` first. Given that, the functions have
    //! no other precondition: out-of-bound limbs give wrong field
    //! values, never undefined behaviour.

    use super::{Lanes, Op, Projective8, LANES};
    use core::arch::x86_64::*;

    /// Eight field elements, limb-sliced: `.0[i]` is limb `i` of every
    /// lane. Carried between operations (see the module docs).
    #[derive(Clone, Copy)]
    struct Fe8([__m512i; 5]);

    /// Limbs of 2p = 2^256 − 38, for the borrow-free subtraction.
    const TWO_P0: i64 = (1 << 52) - 38;
    const TWO_P1234: i64 = (1 << 52) - 2;
    const LOW_51: i64 = (1 << 51) - 1;

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn pack(lanes: &Lanes) -> Fe8 {
        let limb = |i: usize| {
            let l = |lane: usize| lanes[lane][i] as i64;
            _mm512_setr_epi64(l(0), l(1), l(2), l(3), l(4), l(5), l(6), l(7))
        };
        Fe8([limb(0), limb(1), limb(2), limb(3), limb(4)])
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn unpack(fe: &Fe8) -> Lanes {
        let mut out = [[0u64; 5]; LANES];
        for (i, limb) in fe.0.iter().enumerate() {
            let mut lane_values = [0u64; LANES];
            // SAFETY: `lane_values` is 64 writable bytes, exactly one
            // unaligned 512-bit store.
            unsafe { _mm512_storeu_si512(lane_values.as_mut_ptr().cast(), *limb) };
            for (lane, value) in lane_values.into_iter().enumerate() {
                out[lane][i] = value;
            }
        }
        out
    }

    /// `19 · x` by shifts and adds.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn times19(x: __m512i) -> __m512i {
        let x16 = _mm512_slli_epi64::<4>(x);
        let x2 = _mm512_slli_epi64::<1>(x);
        _mm512_add_epi64(_mm512_add_epi64(x16, x2), x)
    }

    /// The weak carry: every limb sheds its bits above 51 in parallel;
    /// limb 4's carry re-enters limb 0 times 19. Any `u64` limbs in,
    /// carried limbs out.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn carry(t: [__m512i; 5]) -> Fe8 {
        let mask = _mm512_set1_epi64(LOW_51);
        let c0 = _mm512_srli_epi64::<51>(t[0]);
        let c1 = _mm512_srli_epi64::<51>(t[1]);
        let c2 = _mm512_srli_epi64::<51>(t[2]);
        let c3 = _mm512_srli_epi64::<51>(t[3]);
        let c4 = _mm512_srli_epi64::<51>(t[4]);
        Fe8([
            _mm512_add_epi64(_mm512_and_si512(t[0], mask), times19(c4)),
            _mm512_add_epi64(_mm512_and_si512(t[1], mask), c0),
            _mm512_add_epi64(_mm512_and_si512(t[2], mask), c1),
            _mm512_add_epi64(_mm512_and_si512(t[3], mask), c2),
            _mm512_add_epi64(_mm512_and_si512(t[4], mask), c3),
        ])
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn add(a: &Fe8, b: &Fe8) -> Fe8 {
        carry([
            _mm512_add_epi64(a.0[0], b.0[0]),
            _mm512_add_epi64(a.0[1], b.0[1]),
            _mm512_add_epi64(a.0[2], b.0[2]),
            _mm512_add_epi64(a.0[3], b.0[3]),
            _mm512_add_epi64(a.0[4], b.0[4]),
        ])
    }

    /// `a + 2p − b`: no limb underflows because every carried limb of
    /// `b` is at most the matching limb of 2p.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn sub(a: &Fe8, b: &Fe8) -> Fe8 {
        let p0 = _mm512_set1_epi64(TWO_P0);
        let p = _mm512_set1_epi64(TWO_P1234);
        let d =
            |i: usize, two_p: __m512i| _mm512_sub_epi64(_mm512_add_epi64(a.0[i], two_p), b.0[i]);
        carry([d(0, p0), d(1, p), d(2, p), d(3, p), d(4, p)])
    }

    /// Folds a ten-position product back to five carried limbs. `lo[k]`
    /// holds the low halves landing at position `k`; `hi[k]` the high
    /// halves of the products at position `k`, which belong at `k + 1`
    /// doubled.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn reduce(lo: [__m512i; 9], hi: [__m512i; 9]) -> Fe8 {
        let two = |x: __m512i| _mm512_slli_epi64::<1>(x);
        let t0 = lo[0];
        let t1 = _mm512_add_epi64(lo[1], two(hi[0]));
        let t2 = _mm512_add_epi64(lo[2], two(hi[1]));
        let t3 = _mm512_add_epi64(lo[3], two(hi[2]));
        let t4 = _mm512_add_epi64(lo[4], two(hi[3]));
        let t5 = _mm512_add_epi64(lo[5], two(hi[4]));
        let t6 = _mm512_add_epi64(lo[6], two(hi[5]));
        let t7 = _mm512_add_epi64(lo[7], two(hi[6]));
        let t8 = _mm512_add_epi64(lo[8], two(hi[7]));
        let t9 = two(hi[8]);
        carry([
            _mm512_add_epi64(t0, times19(t5)),
            _mm512_add_epi64(t1, times19(t6)),
            _mm512_add_epi64(t2, times19(t7)),
            _mm512_add_epi64(t3, times19(t8)),
            _mm512_add_epi64(t4, times19(t9)),
        ])
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn mul(a: &Fe8, b: &Fe8) -> Fe8 {
        let mut lo = [_mm512_setzero_si512(); 9];
        let mut hi = [_mm512_setzero_si512(); 9];
        for i in 0..5 {
            for j in 0..5 {
                lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a.0[i], b.0[j]);
                hi[i + j] = _mm512_madd52hi_epu64(hi[i + j], a.0[i], b.0[j]);
            }
        }
        reduce(lo, hi)
    }

    /// Squaring: the ten cross products are accumulated once and the
    /// accumulators doubled (doubling an input limb could push it past
    /// 2^52), then the five diagonal products are added.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn square(a: &Fe8) -> Fe8 {
        let mut lo = [_mm512_setzero_si512(); 9];
        let mut hi = [_mm512_setzero_si512(); 9];
        for i in 0..5 {
            for j in i + 1..5 {
                lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a.0[i], a.0[j]);
                hi[i + j] = _mm512_madd52hi_epu64(hi[i + j], a.0[i], a.0[j]);
            }
        }
        for k in 0..9 {
            lo[k] = _mm512_slli_epi64::<1>(lo[k]);
            hi[k] = _mm512_slli_epi64::<1>(hi[k]);
        }
        for i in 0..5 {
            lo[2 * i] = _mm512_madd52lo_epu64(lo[2 * i], a.0[i], a.0[i]);
            hi[2 * i] = _mm512_madd52hi_epu64(hi[2 * i], a.0[i], a.0[i]);
        }
        reduce(lo, hi)
    }

    /// `a + 121665 · b`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn a24(a: &Fe8, b: &Fe8) -> Fe8 {
        let k = _mm512_set1_epi64(121_665);
        let zero = _mm512_setzero_si512();
        let lo = |i: usize| _mm512_madd52lo_epu64(a.0[i], b.0[i], k);
        let hi2 = |i: usize| _mm512_slli_epi64::<1>(_mm512_madd52hi_epu64(zero, b.0[i], k));
        carry([
            _mm512_add_epi64(lo(0), times19(hi2(4))),
            _mm512_add_epi64(lo(1), hi2(0)),
            _mm512_add_epi64(lo(2), hi2(1)),
            _mm512_add_epi64(lo(3), hi2(2)),
            _mm512_add_epi64(lo(4), hi2(3)),
        ])
    }

    /// Exchanges the lanes of `a` and `b` where `mask` is all ones.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn cswap(mask: __m512i, a: &mut Fe8, b: &mut Fe8) {
        for i in 0..5 {
            let x = _mm512_and_si512(mask, _mm512_xor_si512(a.0[i], b.0[i]));
            a.0[i] = _mm512_xor_si512(a.0[i], x);
            b.0[i] = _mm512_xor_si512(b.0[i], x);
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn ladder8(scalars: &[[u8; 32]; LANES], x1: &Lanes) -> Projective8 {
        // words[w] holds 64-bit word w of every lane's scalar.
        let word = |w: usize| {
            let l = |lane: usize| {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&scalars[lane][8 * w..8 * w + 8]);
                i64::from_le_bytes(bytes)
            };
            _mm512_setr_epi64(l(0), l(1), l(2), l(3), l(4), l(5), l(6), l(7))
        };
        let words = [word(0), word(1), word(2), word(3)];
        let one = _mm512_set1_epi64(1);
        let zero = _mm512_setzero_si512();

        let x1 = pack(x1);
        let one_fe = Fe8([one, zero, zero, zero, zero]);
        let mut x2 = one_fe;
        let mut z2 = Fe8([zero; 5]);
        let mut x3 = x1;
        let mut z3 = one_fe;
        let mut swap = zero;

        for t in (0..255usize).rev() {
            // Bit t of each lane's scalar, as 0 or 1. The shift count is
            // the public loop index.
            let shift = _mm512_set1_epi64((t % 64) as i64);
            let k_t = _mm512_and_si512(_mm512_srlv_epi64(words[t / 64], shift), one);
            swap = _mm512_xor_si512(swap, k_t);
            let mask = _mm512_sub_epi64(zero, swap);
            cswap(mask, &mut x2, &mut x3);
            cswap(mask, &mut z2, &mut z3);
            swap = k_t;

            let a = add(&x2, &z2);
            let aa = square(&a);
            let b = sub(&x2, &z2);
            let bb = square(&b);
            let e = sub(&aa, &bb);
            let c = add(&x3, &z3);
            let d = sub(&x3, &z3);
            let da = mul(&d, &a);
            let cb = mul(&c, &b);
            x3 = square(&add(&da, &cb));
            z3 = mul(&x1, &square(&sub(&da, &cb)));
            x2 = mul(&aa, &bb);
            z2 = mul(&e, &a24(&aa, &e));
        }
        let mask = _mm512_sub_epi64(zero, swap);
        cswap(mask, &mut x2, &mut x3);
        cswap(mask, &mut z2, &mut z3);

        Projective8 {
            x: unpack(&x2),
            z: unpack(&z2),
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn op8(op: Op, a: &Lanes, b: &Lanes) -> Lanes {
        let (a, b) = (pack(a), pack(b));
        let out = match op {
            Op::Add => add(&a, &b),
            Op::Sub => sub(&a, &b),
            Op::Mul => mul(&a, &b),
            Op::Square => square(&a),
            Op::A24 => a24(&a, &b),
            Op::Carry => carry(a.0),
        };
        unpack(&out)
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn cswap8(swap: &[bool; LANES], a: &Lanes, b: &Lanes) -> (Lanes, Lanes) {
        let bit = |lane: usize| i64::from(swap[lane]);
        let bits = _mm512_setr_epi64(
            bit(0),
            bit(1),
            bit(2),
            bit(3),
            bit(4),
            bit(5),
            bit(6),
            bit(7),
        );
        let mask = _mm512_sub_epi64(_mm512_setzero_si512(), bits);
        let (mut a, mut b) = (pack(a), pack(b));
        cswap(mask, &mut a, &mut b);
        (unpack(&a), unpack(&b))
    }
}

#[cfg(test)]
mod tests {
    //! Self-contained checks of the dispatch and of the weak carry over
    //! the whole `u64` range. The ladder and the op-by-op bound tests
    //! against the scalar field live in `vuvuzela-crypto`, which owns
    //! that field.

    use super::*;

    const LOW_51: u64 = (1 << 51) - 1;

    /// Canonical little-endian encoding of any `u64` limbs, via `u128`.
    fn encode(limbs: &Limbs) -> [u8; 32] {
        // Carry in u128, folding the top carry back times 19 twice.
        let mut h = [0u64; 5];
        let mut c = 0u128;
        for (out, &limb) in h.iter_mut().zip(limbs) {
            let v = u128::from(limb) + c;
            *out = (v as u64) & LOW_51;
            c = v >> 51;
        }
        for _ in 0..2 {
            let mut fold = 19 * c;
            c = 0;
            for limb in &mut h {
                let v = u128::from(*limb) + fold;
                *limb = (v as u64) & LOW_51;
                fold = v >> 51;
            }
            c += fold;
        }
        // Subtract p once if the value is still ≥ p.
        let mut q = (h[0] + 19) >> 51;
        for limb in &h[1..] {
            q = (limb + q) >> 51;
        }
        h[0] += 19 * q;
        let mut carry = 0;
        for limb in &mut h {
            *limb += carry;
            carry = *limb >> 51;
            *limb &= LOW_51;
        }
        let mut out = [0u8; 32];
        for bit in 0..255 {
            if (h[bit / 51] >> (bit % 51)) & 1 == 1 {
                out[bit / 8] |= 1 << (bit % 8);
            }
        }
        out
    }

    #[test]
    fn dispatch_matches_detection() {
        let zero = [[0u64; 5]; LANES];
        assert_eq!(
            ladder8(&[[0u8; 32]; LANES], &zero).is_some(),
            ifma_available()
        );
        assert_eq!(op8(Op::Add, &zero, &zero).is_some(), ifma_available());
        assert_eq!(
            cswap8(&[false; LANES], &zero, &zero).is_some(),
            ifma_available()
        );
    }

    #[test]
    fn carry_takes_any_u64_limbs() {
        let extremes = [u64::MAX, u64::MAX - 1, 1 << 63, (1 << 52) - 1, 0];
        let mut a = [[0u64; 5]; LANES];
        for (lane, limbs) in a.iter_mut().enumerate() {
            for (i, limb) in limbs.iter_mut().enumerate() {
                *limb = extremes[(lane + i) % extremes.len()];
            }
        }
        let Some(out) = op8(Op::Carry, &a, &a) else {
            return; // no IFMA on this CPU
        };
        for lane in 0..LANES {
            assert!(out[lane].iter().all(|&l| l < LIMB_BOUND), "lane {lane}");
            assert_eq!(encode(&out[lane]), encode(&a[lane]), "lane {lane}");
        }
    }
}
