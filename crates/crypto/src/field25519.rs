//! Arithmetic in GF(2²⁵⁵ − 19), the base field of Curve25519/Ed25519.
//!
//! Elements are five 51-bit limbs in `u64`s (the "ref10 radix-51"
//! representation); products are accumulated in `u128`. Reduction is
//! lazy: `add` does not carry, so limbs grow past 51 bits between
//! operations, and the only full reduction happens in
//! [`FieldElement::to_bytes`]. Every step stays free of overflow under
//! one limb contract:
//!
//! * a *reduced* element has limbs below 2^52. `mul`, `square`,
//!   `mul_small`, `sub`, `from_bytes` and every constant return one;
//! * the inputs of `mul`, `square` and `mul_small` have limbs below
//!   2^54, which covers any sum of up to four reduced elements;
//! * the subtrahend of `sub` is at most 16p limb by limb, just under
//!   2^55.
//!
//! The carries of a product pass through `u64`, where a broken contract
//! would truncate silently rather than overflow, so `debug_assert!`s
//! check the input bounds. They run in debug builds, also while the
//! compiler evaluates the curve constants.
//!
//! Everything the curve constants need is a `const fn`, so d, √−1, the
//! Edwards basepoint and its fixed-base table are computed by the compiler
//! from the same code that runs at run time. Those fns stay inside the
//! workspace MSRV (1.75): no `&mut`, no `for` loops, no trait calls.

/// 51-bit limb mask.
const MASK: u64 = (1u64 << 51) - 1;

/// The largest limbs `mul`, `square` and `mul_small` accept: 2^54 − 1.
const MUL_INPUT_MAX: [u64; 5] = [(1 << 54) - 1; 5];

/// 16p in radix-51: `sub` adds it so no limb underflows.
const SIXTEEN_P: [u64; 5] = [16 * (MASK - 18), 16 * MASK, 16 * MASK, 16 * MASK, 16 * MASK];

/// An element of GF(2²⁵⁵ − 19).
#[derive(Clone, Copy, Debug)]
pub struct FieldElement(pub(crate) [u64; 5]);

/// Widening limb product.
#[inline(always)]
const fn m(x: u64, y: u64) -> u128 {
    x as u128 * y as u128
}

/// Is every limb of `h` at most the matching limb of `max`?
const fn limbs_at_most(h: &[u64; 5], max: &[u64; 5]) -> bool {
    h[0] <= max[0] && h[1] <= max[1] && h[2] <= max[2] && h[3] <= max[3] && h[4] <= max[4]
}

/// One carry pass: every limb below 2^51, plus the carry out of the top
/// limb.
#[inline(always)]
const fn carry(mut h: [u64; 5]) -> ([u64; 5], u64) {
    let mut c = 0;
    let mut i = 0;
    while i < 5 {
        let t = h[i] + c;
        h[i] = t & MASK;
        c = t >> 51;
        i += 1;
    }
    (h, c)
}

/// Equality of two encodings, without early exit.
pub(crate) const fn bytes_eq(a: &[u8; 32], b: &[u8; 32]) -> bool {
    let mut diff = 0;
    let mut i = 0;
    while i < 32 {
        diff |= a[i] ^ b[i];
        i += 1;
    }
    diff == 0
}

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0, 0]);
    /// √(−1) = 2^((p−1)/4), computed at compile time.
    pub const SQRT_M1: FieldElement = {
        // (p-1)/4 = 2^253 - 5 = 2*(2^252 - 3) + 1
        let two = FieldElement::from_u64(2);
        two.pow22523().square().mul(&two)
    };

    /// Construct from a small integer.
    pub const fn from_u64(v: u64) -> Self {
        FieldElement([v & MASK, v >> 51, 0, 0, 0])
    }

    /// Decode 32 little-endian bytes; the top bit (bit 255) is ignored,
    /// per convention.
    pub const fn from_bytes(bytes: &[u8; 32]) -> Self {
        const fn load(b: &[u8; 32], i: usize) -> u64 {
            u64::from_le_bytes([
                b[i],
                b[i + 1],
                b[i + 2],
                b[i + 3],
                b[i + 4],
                b[i + 5],
                b[i + 6],
                b[i + 7],
            ])
        }
        FieldElement([
            load(bytes, 0) & MASK,
            (load(bytes, 6) >> 3) & MASK,
            (load(bytes, 12) >> 6) & MASK,
            (load(bytes, 19) >> 1) & MASK,
            (load(bytes, 24) >> 12) & MASK,
        ])
    }

    /// Encode as 32 little-endian bytes with the canonical (fully reduced)
    /// representative.
    pub const fn to_bytes(self) -> [u8; 32] {
        // Two carry passes leave limbs 1–4 below 2^51 and limb 0 below
        // 2^51 + 19, so the value is below 2p.
        let mut h = self.weak_reduce().weak_reduce().0;
        // Compute h + 19, and use its bit 255 as the quotient estimate:
        // q = 1 iff h >= p.
        let mut q = (h[0] + 19) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;
        h[0] += 19 * q;
        // The carry out (the 2^255 bit) is discarded: subtracting p is
        // exactly "add 19 and drop the 2^255 bit".
        let (h, _) = carry(h);
        let words = [
            h[0] | (h[1] << 51),
            (h[1] >> 13) | (h[2] << 38),
            (h[2] >> 26) | (h[3] << 25),
            (h[3] >> 39) | (h[4] << 12),
        ];
        let mut out = [0u8; 32];
        let mut i = 0;
        while i < 32 {
            out[i] = (words[i / 8] >> (8 * (i % 8))) as u8;
            i += 1;
        }
        out
    }

    /// `self + other`, limb by limb and without a carry: the sum of two
    /// reduced elements is not reduced, but is a valid `mul` input.
    #[inline(always)]
    pub const fn add(&self, other: &Self) -> Self {
        let (a, b) = (self.0, other.0);
        FieldElement([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// `self - other`, biased by 16p so that no limb underflows, then
    /// carried once: the result is reduced.
    #[inline(always)]
    pub const fn sub(&self, other: &Self) -> Self {
        let (a, b) = (self.0, other.0);
        debug_assert!(
            limbs_at_most(&b, &SIXTEEN_P),
            "field sub: subtrahend limb above 16p"
        );
        FieldElement([
            a[0] + SIXTEEN_P[0] - b[0],
            a[1] + SIXTEEN_P[1] - b[1],
            a[2] + SIXTEEN_P[2] - b[2],
            a[3] + SIXTEEN_P[3] - b[3],
            a[4] + SIXTEEN_P[4] - b[4],
        ])
        .weak_reduce()
    }

    /// Negation.
    pub const fn neg(&self) -> Self {
        Self::ZERO.sub(self)
    }

    /// One carry pass, with the top carry folded back into limb 0 as ×19.
    #[inline(always)]
    const fn weak_reduce(self) -> Self {
        let (mut h, c) = carry(self.0);
        h[0] += 19 * c;
        FieldElement(h)
    }

    /// Carry the five `u128` column sums of a product down to a reduced
    /// element. For inputs below 2^54 each column is below 2^115, so every
    /// carry fits a `u64`; limb 1 keeps an excess below 2^13.
    #[inline(always)]
    const fn reduce_wide(r: [u128; 5]) -> Self {
        let [r0, mut r1, mut r2, mut r3, mut r4] = r;
        r1 += ((r0 >> 51) as u64) as u128;
        r2 += ((r1 >> 51) as u64) as u128;
        r3 += ((r2 >> 51) as u64) as u128;
        r4 += ((r3 >> 51) as u64) as u128;
        let c = (r4 >> 51) as u64;
        let mut h = [
            r0 as u64 & MASK,
            r1 as u64 & MASK,
            r2 as u64 & MASK,
            r3 as u64 & MASK,
            r4 as u64 & MASK,
        ];
        // c < 2^60, so 19·c still fits beside limb 0.
        h[0] += 19 * c;
        h[1] += h[0] >> 51;
        h[0] &= MASK;
        FieldElement(h)
    }

    /// Field multiplication.
    #[inline(always)]
    pub const fn mul(&self, other: &Self) -> Self {
        debug_assert!(
            limbs_at_most(&self.0, &MUL_INPUT_MAX) && limbs_at_most(&other.0, &MUL_INPUT_MAX),
            "field mul: input limb at or above 2^54"
        );
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = other.0;
        // Limbs below 2^54 keep each ×19 inside a u64.
        let (b1_19, b2_19, b3_19, b4_19) = (19 * b1, 19 * b2, 19 * b3, 19 * b4);
        Self::reduce_wide([
            m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19),
            m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19),
            m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19),
            m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19),
            m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0),
        ])
    }

    /// Field squaring: the column sums of [`FieldElement::mul`] with each
    /// symmetric pair of products taken once and doubled, 15 products in
    /// place of 25. The result is limb-for-limb `self.mul(self)`.
    #[inline(always)]
    pub const fn square(&self) -> Self {
        debug_assert!(
            limbs_at_most(&self.0, &MUL_INPUT_MAX),
            "field square: input limb at or above 2^54"
        );
        let [a0, a1, a2, a3, a4] = self.0;
        // Limbs below 2^54 keep each ×19 inside a u64.
        let (a3_19, a4_19) = (19 * a3, 19 * a4);
        Self::reduce_wide([
            m(a0, a0) + 2 * (m(a1, a4_19) + m(a2, a3_19)),
            m(a3, a3_19) + 2 * (m(a0, a1) + m(a2, a4_19)),
            m(a1, a1) + 2 * (m(a0, a2) + m(a4, a3_19)),
            m(a4, a4_19) + 2 * (m(a0, a3) + m(a1, a2)),
            m(a2, a2) + 2 * (m(a0, a4) + m(a1, a3)),
        ])
    }

    /// Multiply by a small constant (used for ×121665 in the X25519 ladder).
    #[inline(always)]
    pub const fn mul_small(&self, k: u32) -> Self {
        debug_assert!(
            limbs_at_most(&self.0, &MUL_INPUT_MAX),
            "field mul_small: input limb at or above 2^54"
        );
        let [a0, a1, a2, a3, a4] = self.0;
        let k = k as u64;
        Self::reduce_wide([m(a0, k), m(a1, k), m(a2, k), m(a3, k), m(a4, k)])
    }

    /// Repeated squaring: `self^(2^k)`.
    pub const fn pow2k(&self, k: usize) -> Self {
        let mut out = *self;
        let mut i = 0;
        while i < k {
            out = out.square();
            i += 1;
        }
        out
    }

    /// Shared prefix of the inversion/pow22523 addition chains:
    /// returns `(self^(2^250 - 1), self^11, self^(2^50 - 1))`.
    const fn chain_common(&self) -> (Self, Self, Self) {
        let z = *self;
        let z2 = z.square(); // 2
        let z9 = z2.pow2k(2).mul(&z); // 9
        let z11 = z9.mul(&z2); // 11
        let z2_5_0 = z11.square().mul(&z9); // 2^5 - 1
        let z2_10_0 = z2_5_0.pow2k(5).mul(&z2_5_0); // 2^10 - 1
        let z2_20_0 = z2_10_0.pow2k(10).mul(&z2_10_0); // 2^20 - 1
        let z2_40_0 = z2_20_0.pow2k(20).mul(&z2_20_0); // 2^40 - 1
        let z2_50_0 = z2_40_0.pow2k(10).mul(&z2_10_0); // 2^50 - 1
        let z2_100_0 = z2_50_0.pow2k(50).mul(&z2_50_0); // 2^100 - 1
        let z2_200_0 = z2_100_0.pow2k(100).mul(&z2_100_0); // 2^200 - 1
        let z2_250_0 = z2_200_0.pow2k(50).mul(&z2_50_0); // 2^250 - 1
        (z2_250_0, z11, z2_50_0)
    }

    /// Multiplicative inverse, `self^(p-2)`. Returns zero for zero input.
    pub const fn invert(&self) -> Self {
        let (z2_250_0, z11, _) = self.chain_common();
        // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11
        z2_250_0.pow2k(5).mul(&z11)
    }

    /// `self^((p-5)/8) = self^(2^252 - 3)`, the exponent used in square-root
    /// extraction (RFC 8032 §5.1.3).
    pub const fn pow22523(&self) -> Self {
        let (z2_250_0, _, _) = self.chain_common();
        // 2^252 - 3 = (2^250 - 1) * 4 + 1
        z2_250_0.pow2k(2).mul(self)
    }

    /// Canonical equality (via full reduction).
    pub const fn ct_eq(&self, other: &Self) -> bool {
        bytes_eq(&self.to_bytes(), &other.to_bytes())
    }

    /// Is this the canonical zero?
    pub const fn is_zero(&self) -> bool {
        bytes_eq(&self.to_bytes(), &[0u8; 32])
    }

    /// Parity of the canonical representative (bit 0).
    pub const fn is_odd(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Constant-time-ish conditional swap (used by the Montgomery ladder).
    /// The mask comes from `swap` by arithmetic, with no branch on it.
    pub fn cswap(swap: bool, a: &mut Self, b: &mut Self) {
        let mask = (swap as u64).wrapping_neg();
        for i in 0..5 {
            let t = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= t;
            b.0[i] ^= t;
        }
    }

    /// Constant-time-ish conditional assignment: `self = other` when
    /// `choice` is set (used by the fixed-base comb's table scan).
    pub(crate) fn cmov(&mut self, other: &Self, choice: bool) {
        let mask = (choice as u64).wrapping_neg();
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a ^= mask & (*a ^ b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::BigUint;
    use proptest::prelude::*;

    fn fe(v: u64) -> FieldElement {
        FieldElement::from_u64(v)
    }

    #[test]
    fn zero_one_encoding() {
        assert_eq!(FieldElement::ZERO.to_bytes(), [0u8; 32]);
        let mut one = [0u8; 32];
        one[0] = 1;
        assert_eq!(FieldElement::ONE.to_bytes(), one);
        assert!(FieldElement::ZERO.is_zero());
        assert!(!FieldElement::ONE.is_zero());
    }

    #[test]
    fn p_reduces_to_zero() {
        // p = 2^255 - 19 in little-endian bytes.
        let mut p = [0xffu8; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        let z = FieldElement::from_bytes(&p);
        assert!(z.is_zero(), "p must encode to the canonical zero");
        // p + 1 reduces to 1.
        p[0] = 0xee;
        assert!(FieldElement::from_bytes(&p).ct_eq(&FieldElement::ONE));
    }

    #[test]
    fn bytes_roundtrip_below_p() {
        let mut b = [0u8; 32];
        b[0] = 42;
        b[10] = 0xaa;
        b[31] = 0x70; // < 2^255 - 19
        assert_eq!(FieldElement::from_bytes(&b).to_bytes(), b);
    }

    #[test]
    fn add_sub_mul_small_values() {
        assert!(fe(5).add(&fe(7)).ct_eq(&fe(12)));
        assert!(fe(7).sub(&fe(5)).ct_eq(&fe(2)));
        assert!(fe(5).sub(&fe(7)).add(&fe(2)).is_zero());
        assert!(fe(6).mul(&fe(7)).ct_eq(&fe(42)));
        assert!(fe(9).square().ct_eq(&fe(81)));
        assert!(fe(3).mul_small(121666).ct_eq(&fe(3 * 121666)));
    }

    #[test]
    fn minus_one_times_minus_one() {
        let m1 = FieldElement::ZERO.sub(&FieldElement::ONE);
        assert!(m1.mul(&m1).ct_eq(&FieldElement::ONE));
        assert!(m1.neg().ct_eq(&FieldElement::ONE));
    }

    #[test]
    fn inversion() {
        for v in [1u64, 2, 3, 121665, 0xffff_ffff] {
            let x = fe(v);
            assert!(x.mul(&x.invert()).ct_eq(&FieldElement::ONE), "v={v}");
        }
        assert!(FieldElement::ZERO.invert().is_zero());
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = FieldElement::SQRT_M1;
        let m1 = FieldElement::ZERO.sub(&FieldElement::ONE);
        assert!(i.square().ct_eq(&m1));
    }

    #[test]
    fn pow22523_consistency() {
        // For a quadratic residue u = x², u^((p-5)/8) relates to the square
        // root: (u * candidate²)² must be u² where candidate = u^((p+3)/8)
        // = u * u^((p-5)/8).
        let x = fe(123456789);
        let u = x.square();
        let cand = u.mul(&u.pow22523());
        // cand² = ±u
        let c2 = cand.square();
        assert!(c2.ct_eq(&u) || c2.neg().ct_eq(&u));
    }

    #[test]
    fn cswap_swaps() {
        let mut a = fe(1);
        let mut b = fe(2);
        FieldElement::cswap(false, &mut a, &mut b);
        assert!(a.ct_eq(&fe(1)) && b.ct_eq(&fe(2)));
        FieldElement::cswap(true, &mut a, &mut b);
        assert!(a.ct_eq(&fe(2)) && b.ct_eq(&fe(1)));
    }

    /// A full-width element: all five limbs drawn, so the ×19 wrap-around
    /// columns of `mul`/`square` see nonzero products.
    fn fe_wide(bytes: &[u8]) -> FieldElement {
        let mut buf = [0u8; 32];
        buf.copy_from_slice(bytes);
        FieldElement::from_bytes(&buf)
    }

    fn wide() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 32)
    }

    /// p = 2²⁵⁵ − 19.
    fn p_big() -> BigUint {
        BigUint::one().shl(255).sub(&BigUint::from_u64(19))
    }

    /// The integer that `x`'s limbs denote, Σ xᵢ·2^(51i), built by
    /// `bigint` alone: the oracle shares no code with the limb arithmetic.
    fn big(x: &FieldElement) -> BigUint {
        x.0.iter().rev().fold(BigUint::zero(), |acc, &limb| {
            acc.shl(51).add(&BigUint::from_u64(limb))
        })
    }

    /// The canonical encoding of `v mod p`, as `to_bytes` gives it.
    fn encode(v: &BigUint) -> [u8; 32] {
        let mut out = [0u8; 32];
        let be = v.rem(&p_big()).to_bytes_be_padded(32);
        for (o, b) in out.iter_mut().zip(be.iter().rev()) {
            *o = *b;
        }
        out
    }

    /// Elements across the limb contract: canonical ones, sums of four
    /// reduced ones (a product's limb 1 and a difference's limb 0 carry
    /// an excess), and elements whose limbs reach 2^54 − 1.
    fn contract_edge() -> impl Strategy<Value = FieldElement> {
        let limb = 0..=MUL_INPUT_MAX[0];
        prop_oneof![
            wide().prop_map(|b| FieldElement::from_bytes(&fe_wide(&b).to_bytes())),
            (wide(), wide(), wide(), wide()).prop_map(|(a, b, c, d)| {
                let (a, b, c, d) = (fe_wide(&a), fe_wide(&b), fe_wide(&c), fe_wide(&d));
                a.mul(&b)
                    .add(&c.sub(&d))
                    .add(&d.square())
                    .add(&a.mul_small(121665))
            }),
            (limb.clone(), limb.clone(), limb.clone(), limb.clone(), limb)
                .prop_map(|(l0, l1, l2, l3, l4)| FieldElement([l0, l1, l2, l3, l4])),
            Just(FieldElement(MUL_INPUT_MAX)),
        ]
    }

    fn is_reduced(x: &FieldElement) -> bool {
        limbs_at_most(&x.0, &[(1 << 52) - 1; 5])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every operation against `bigint` arithmetic mod p, on inputs
        /// anywhere inside the limb contract; the operations that promise
        /// a reduced result must give one.
        #[test]
        fn ops_match_bigint_mod_p(a in contract_edge(), b in contract_edge()) {
            let p = p_big();
            let (x, y) = (big(&a), big(&b));
            prop_assert_eq!(a.add(&b).to_bytes(), encode(&x.add(&y)));
            let d = a.sub(&b);
            prop_assert!(is_reduced(&d));
            prop_assert_eq!(d.to_bytes(), encode(&x.submod(&y, &p)));
            // The largest subtrahend the contract allows.
            prop_assert_eq!(a.sub(&FieldElement(SIXTEEN_P)).to_bytes(), encode(&x));
            let ab = a.mul(&b);
            prop_assert!(is_reduced(&ab));
            prop_assert_eq!(ab.to_bytes(), encode(&x.mul(&y)));
            let aa = a.square();
            prop_assert!(is_reduced(&aa));
            prop_assert_eq!(aa.to_bytes(), encode(&x.mul(&x)));
            let a121665 = a.mul_small(121665);
            prop_assert!(is_reduced(&a121665));
            prop_assert_eq!(a121665.to_bytes(), encode(&x.mul(&BigUint::from_u64(121665))));
            let inv = a.invert();
            prop_assert!(is_reduced(&inv));
            prop_assert_eq!(inv.to_bytes(), encode(&x.modpow(&p.sub(&BigUint::from_u64(2)), &p)));
        }
    }

    proptest! {
        #[test]
        fn field_laws(a in wide(), b in wide(), c in wide()) {
            let (a, b, c) = (fe_wide(&a), fe_wide(&b), fe_wide(&c));
            // Commutativity and associativity.
            prop_assert!(a.add(&b).ct_eq(&b.add(&a)));
            prop_assert!(a.mul(&b).ct_eq(&b.mul(&a)));
            prop_assert!(a.add(&b).add(&c).ct_eq(&a.add(&b.add(&c))));
            prop_assert!(a.mul(&b).mul(&c).ct_eq(&a.mul(&b.mul(&c))));
            // Distributivity.
            prop_assert!(a.mul(&b.add(&c)).ct_eq(&a.mul(&b).add(&a.mul(&c))));
            // Subtraction inverts addition.
            prop_assert!(a.add(&b).sub(&b).ct_eq(&a));
            // Squaring is multiplication by self, limb for limb, also on
            // the unreduced limbs that `add`, `sub` and `mul` hand on.
            for x in [a, a.add(&b), a.sub(&b), a.mul(&b), a.neg()] {
                prop_assert_eq!(x.square().0, x.mul(&x).0);
            }
            // (a + b)² = a² + 2ab + b².
            let ab = a.mul(&b);
            prop_assert!(a.add(&b).square().ct_eq(&a.square().add(&ab.add(&ab)).add(&b.square())));
        }

        #[test]
        fn pow2k_and_invert_laws(a in wide(), b in wide(), k in 0usize..12, j in 0usize..12) {
            let (a, b) = (fe_wide(&a), fe_wide(&b));
            // pow2k(k) is k squarings, and exponents add.
            let mut sq = a;
            for _ in 0..k {
                sq = sq.mul(&sq);
            }
            prop_assert!(a.pow2k(k).ct_eq(&sq));
            prop_assert!(a.pow2k(j).pow2k(k).ct_eq(&a.pow2k(j + k)));
            prop_assume!(!a.is_zero() && !b.is_zero());
            // Inversion: a·a⁻¹ = 1, (a⁻¹)⁻¹ = a, (ab)⁻¹ = a⁻¹b⁻¹.
            let ai = a.invert();
            prop_assert!(a.mul(&ai).ct_eq(&FieldElement::ONE));
            prop_assert!(ai.invert().ct_eq(&a));
            prop_assert!(a.mul(&b).invert().ct_eq(&ai.mul(&b.invert())));
        }

        #[test]
        fn invert_random(bytes in proptest::collection::vec(any::<u8>(), 32)) {
            let mut buf = [0u8; 32];
            buf.copy_from_slice(&bytes);
            buf[31] &= 0x7f;
            let x = FieldElement::from_bytes(&buf);
            prop_assume!(!x.is_zero());
            prop_assert!(x.mul(&x.invert()).ct_eq(&FieldElement::ONE));
        }

        #[test]
        fn roundtrip_random(bytes in proptest::collection::vec(any::<u8>(), 32)) {
            let mut buf = [0u8; 32];
            buf.copy_from_slice(&bytes);
            buf[31] &= 0x7f;
            let x = FieldElement::from_bytes(&buf);
            // from(to(x)) is the canonical representative of x.
            let y = FieldElement::from_bytes(&x.to_bytes());
            prop_assert!(x.ct_eq(&y));
        }
    }
}
