//! Eight-lane X25519 kernels on AVX-512 IFMA: a Montgomery ladder and a
//! fixed-point comb.
//!
//! The mix servers' hot paths are one variable-base X25519 per onion per
//! round (peeling) and, per layer of every cover onion they generate,
//! one fixed-base keygen `k·B` and one DH `k·server_pk` against a known
//! server key (noise). `vuvuzela-crypto` runs them in safe Rust: the
//! ladder four at a time over its `Fe4` type, the fixed-point products
//! one at a time over a signed-radix-16 comb table; both are bound by the
//! scalar 64-bit multiplier. AVX-512 IFMA (`vpmadd52luq` /
//! `vpmadd52huq`) multiplies eight 52-bit lane pairs per instruction, so
//! this crate runs **eight independent scalar multiplications** in
//! lockstep, one per 64-bit lane of a `__m512i`:
//!
//! * [`ladder8`]: eight RFC 7748 ladders, eight u-coordinates;
//! * [`comb8`]: eight comb walks over one point's table (the base point
//!   or a server key), eight scalars.
//!
//! The kernels are chosen at run time: each entry point checks
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
//! | comb select | table limbs **fully reduced, < 2^51** | n/a | < 2^51, or carried where `0 − 2dxy` was taken |
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
//! The comb's table entries go straight into multiplications and, for a
//! negative digit, into `0 − 2dxy` (a `sub`, whose `b` must not exceed
//! 2p limb-wise), so [`comb8`] takes tables whose limbs are fully
//! reduced, below 2^51; `d2` must be carried. Everything else it feeds
//! into a multiplication is the output of a carried operation.
//!
//! # The comb
//!
//! A table ([`CombTable`]) holds, for one point `P`, 32 rows of the
//! eight multiples `j · 16^(2i) · P` (`j = 1..=8`) in Niels form
//! `(y+x, y−x, 2d·x·y)`, laid out `[row][coordinate limb][entry]` so one
//! coordinate limb of a whole row is one 64-byte vector. A clamped scalar
//! becomes 64 signed digits in `[−8, 8]` ([`Digits`]); the walk adds one
//! selected entry per odd digit, doubles four times (×16), then adds one
//! per even digit — 64 mixed additions (7 multiplications each) and 4
//! doublings (9 each) against the ladder's 255 steps of 10. Its result
//! `(Z+Y) / (Z−Y)` is the Montgomery u-coordinate.
//!
//! # Constant time
//!
//! The conditional swap masks are computed arithmetically from the
//! scalar bits (`0 − bit` per lane). The ladder has no branch and no
//! memory index that depends on a secret; the only data-dependent
//! values are vector register contents.
//!
//! The comb's row select loads all fifteen limb vectors of the row for
//! every digit, so the addresses it reads depend only on the public
//! row number. Within the registers, `vpermq` picks entry `|digit| − 1`
//! per lane, and mask blends, with masks from lane-wise compares of the
//! digits, apply the sign (swap `y+x` with `y−x`, take `0 − 2dxy`) and
//! the zero digit (the identity `(1, 1, 0)`). Every lane runs the same
//! instructions whatever its digits; no branch or memory index depends
//! on a secret.

#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

/// Number of scalar multiplications (ladders or comb walks) run in
/// lockstep.
pub const LANES: usize = 8;

/// Exclusive upper bound on every limb of a carried element:
/// 2^51 + 2^18. See the module docs.
pub const LIMB_BOUND: u64 = (1 << 51) + (1 << 18);

/// One field element as five radix-2^51 limbs, least significant first.
pub type Limbs = [u64; 5];

/// Eight field elements, one per lane.
pub type Lanes = [Limbs; LANES];

/// A projective Montgomery u-coordinate per lane, `u = x / z`: the
/// ladder's `(x2, z2)` or the comb's `(Z+Y, Z−Y)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Projective8 {
    /// The numerator, carried.
    pub x: Lanes,
    /// The denominator, carried. For the ladder, zero (mod p) exactly
    /// when the lane's input point has low order; for the comb, exactly
    /// when the lane's result is the identity.
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

/// Rows in a signed-radix-16 comb table: row `i` holds the multiples
/// of `16^(2i) · P`.
pub const COMB_ROWS: usize = 32;

/// Coordinate limbs per comb entry: the Niels form `(y+x, y−x, 2d·x·y)`
/// of an affine point, five limbs each, in that order.
pub const COMB_LIMBS: usize = 15;

/// Entries per comb row, the multiples `1·P ..= 8·P` of the row's point.
/// Equal to [`LANES`], so one coordinate limb of a whole row fills one
/// `__m512i` and the kernel selects an entry per lane with one permute.
pub const COMB_ENTRIES: usize = LANES;

/// One comb row, limb-major: `row[c][e]` is coordinate limb `c` of entry
/// `e`, the point `(e + 1) · 16^(2i) · P`. Every limb is fully reduced
/// (below 2^51).
pub type CombRow = [[u64; COMB_ENTRIES]; COMB_LIMBS];

/// A whole comb table for one point `P`, rows in order.
pub type CombTable = [CombRow; COMB_ROWS];

/// A clamped scalar as 64 signed radix-16 digits in `[−8, 8]`, least
/// significant first: `k = Σ digits[i] · 16^i`.
pub type Digits = [i8; 64];

/// Eight fixed-point scalar multiplications `k_l · P` in lockstep over
/// the comb table `rows` of `P`, stopping before the final inversion.
/// Lane `l` walks `digits[l]` as the crypto crate's scalar comb does:
/// odd digits, four doublings with the full addition formula (`d2` is
/// the curve's `2d`, carried), even digits. The result is the lane's
/// Montgomery u-coordinate as the ratio `x / z = (Z+Y) / (Z−Y)`, both
/// carried; `z` is zero exactly when the lane's result is the identity.
///
/// A zero digit adds the identity `(1, 1, 0)` where the scalar comb
/// skips the addition, which scales the lane's projective coordinates
/// but not the point, so the resolved u-coordinate is byte-identical.
///
/// Returns `None` when the CPU lacks AVX-512 IFMA.
#[must_use]
pub fn comb8(rows: &CombTable, d2: &Limbs, digits: &[Digits; LANES]) -> Option<Projective8> {
    debug_assert!(rows.iter().flatten().flatten().all(|&limb| limb < 1 << 51));
    debug_assert!(digits.iter().flatten().all(|d| (-8..=8).contains(d)));
    #[cfg(target_arch = "x86_64")]
    if ifma_available() {
        // SAFETY: `ifma::comb8` is compiled for avx512f + avx512ifma,
        // and both were detected on this CPU just above.
        return Some(unsafe { ifma::comb8(rows, d2, digits) });
    }
    let _ = (rows, d2, digits);
    None
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    //! The kernel. Every function here is `#[target_feature]`-gated and
    //! reached only through the detecting wrappers above.
    //!
    //! # Safety
    //!
    //! Calling any of the `pub(super)` entry points requires a CPU
    //! with AVX-512F and AVX-512 IFMA; the wrappers check both with
    //! `is_x86_feature_detected!` first. Given that, the functions have
    //! no other precondition: out-of-bound limbs give wrong field
    //! values, never undefined behaviour.

    use super::{CombRow, CombTable, Digits, Lanes, Limbs, Op, Projective8, LANES};
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

    /// An extended twisted Edwards point per lane, `(X : Y : Z : T)`
    /// with `x = X/Z`, `y = Y/Z`, `T = XY/Z`; every limb carried.
    #[derive(Clone, Copy)]
    struct Ext8 {
        x: Fe8,
        y: Fe8,
        z: Fe8,
        t: Fe8,
    }

    /// A selected table entry per lane in Niels form.
    struct Niels8 {
        y_plus_x: Fe8,
        y_minus_x: Fe8,
        t2d: Fe8,
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn splat(limbs: &Limbs) -> Fe8 {
        Fe8(core::array::from_fn(|i| _mm512_set1_epi64(limbs[i] as i64)))
    }

    /// Lane-wise `mask ? b : a`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn blend(mask: __mmask8, a: &Fe8, b: &Fe8) -> Fe8 {
        Fe8(core::array::from_fn(|i| {
            _mm512_mask_blend_epi64(mask, a.0[i], b.0[i])
        }))
    }

    /// Per lane, entry `|digit| − 1` of `row`, negated where the digit
    /// is negative and replaced by the identity `(1, 1, 0)` where it is
    /// zero. One permute across the row's eight entries picks each
    /// lane's entry and mask blends apply the sign and zero cases, so no
    /// branch and no memory index depends on a digit: all fifteen limb
    /// vectors of the row are loaded for every lane.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn select(row: &CombRow, digit: __m512i) -> Niels8 {
        let zero = _mm512_setzero_si512();
        let one = _mm512_set1_epi64(1);
        // A zero digit gives index −1; the permute reads only its low
        // three bits (entry 7) and the zero blend below discards it.
        let index = _mm512_sub_epi64(_mm512_abs_epi64(digit), one);
        let entry = |c: usize| {
            // SAFETY: `row[c]` is eight `u64`s, exactly one unaligned
            // 512-bit load.
            let limbs = unsafe { _mm512_loadu_si512(row[c].as_ptr().cast()) };
            _mm512_permutexvar_epi64(index, limbs)
        };
        let coordinate = |first: usize| Fe8(core::array::from_fn(|i| entry(first + i)));
        let (y_plus_x, y_minus_x, t2d) = (coordinate(0), coordinate(5), coordinate(10));

        // −(x, y) = (−x, y): y+x and y−x trade places and 2d·x·y flips
        // sign. Table limbs are below 2^51, so `0 − t2d` meets `sub`'s
        // bound.
        let negative = _mm512_cmplt_epi64_mask(digit, zero);
        let zero_fe = Fe8([zero; 5]);
        let minus_t2d = sub(&zero_fe, &t2d);
        let signed = Niels8 {
            y_plus_x: blend(negative, &y_plus_x, &y_minus_x),
            y_minus_x: blend(negative, &y_minus_x, &y_plus_x),
            t2d: blend(negative, &t2d, &minus_t2d),
        };

        let is_zero = _mm512_cmpeq_epi64_mask(digit, zero);
        let one_fe = Fe8([one, zero, zero, zero, zero]);
        Niels8 {
            y_plus_x: blend(is_zero, &signed.y_plus_x, &one_fe),
            y_minus_x: blend(is_zero, &signed.y_minus_x, &one_fe),
            t2d: blend(is_zero, &signed.t2d, &zero_fe),
        }
    }

    /// Mixed addition with a Niels point, line for line the crypto
    /// crate's `Extended::add_niels`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn add_niels(p: &Ext8, n: &Niels8) -> Ext8 {
        let a = mul(&sub(&p.y, &p.x), &n.y_minus_x);
        let b = mul(&add(&p.y, &p.x), &n.y_plus_x);
        let c = mul(&p.t, &n.t2d);
        let d = add(&p.z, &p.z);
        let e = sub(&b, &a);
        let f = sub(&d, &c);
        let g = add(&d, &c);
        let h = add(&b, &a);
        Ext8 {
            x: mul(&e, &f),
            y: mul(&g, &h),
            z: mul(&f, &g),
            t: mul(&e, &h),
        }
    }

    /// The full unified addition, line for line the crypto crate's
    /// `Extended::add`; the comb doubles with `add(p, p)`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    fn add_extended(p: &Ext8, q: &Ext8, d2: &Fe8) -> Ext8 {
        let a = mul(&sub(&p.y, &p.x), &sub(&q.y, &q.x));
        let b = mul(&add(&p.y, &p.x), &add(&q.y, &q.x));
        let c = mul(&mul(&p.t, d2), &q.t);
        let d = mul(&p.z, &q.z);
        let d = add(&d, &d);
        let e = sub(&b, &a);
        let f = sub(&d, &c);
        let g = add(&d, &c);
        let h = add(&b, &a);
        Ext8 {
            x: mul(&e, &f),
            y: mul(&g, &h),
            z: mul(&f, &g),
            t: mul(&e, &h),
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn comb8(rows: &CombTable, d2: &Limbs, digits: &[Digits; LANES]) -> Projective8 {
        // Digit `i` of every lane, sign-extended to 64 bits.
        let digit = |i: usize| {
            let d = |lane: usize| i64::from(digits[lane][i]);
            _mm512_setr_epi64(d(0), d(1), d(2), d(3), d(4), d(5), d(6), d(7))
        };
        let d2 = splat(d2);
        let zero = Fe8([_mm512_setzero_si512(); 5]);
        let one = Fe8([
            _mm512_set1_epi64(1),
            _mm512_setzero_si512(),
            _mm512_setzero_si512(),
            _mm512_setzero_si512(),
            _mm512_setzero_si512(),
        ]);
        let mut h = Ext8 {
            x: zero,
            y: one,
            z: one,
            t: zero,
        };
        for i in (1..64).step_by(2) {
            h = add_niels(&h, &select(&rows[i / 2], digit(i)));
        }
        for _ in 0..4 {
            h = add_extended(&h, &h, &d2);
        }
        for i in (0..64).step_by(2) {
            h = add_niels(&h, &select(&rows[i / 2], digit(i)));
        }
        Projective8 {
            x: unpack(&add(&h.z, &h.y)),
            z: unpack(&sub(&h.z, &h.y)),
        }
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
