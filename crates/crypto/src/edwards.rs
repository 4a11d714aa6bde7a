//! The Ed25519 twisted Edwards group: −x² + y² = 1 + d·x²y² over
//! GF(2²⁵⁵ − 19), used as the prime-order group for the VOPRF in
//! [`crate::oprf`] (the cryptographic heart of Privacy Pass) and, through
//! the birational map to Curve25519, for X25519 public keys.
//!
//! Points are held in extended homogeneous coordinates (X : Y : Z : T) with
//! x = X/Z, y = Y/Z, T = XY/Z. Addition uses the complete `add-2008-hwcd-3`
//! formulas; doubling uses `dbl-2008-hwcd`. There are three scalar
//! multiplications:
//!
//! * [`EdwardsPoint::mul_base`], `k·B` for the fixed basepoint, is the ref10
//!   `ge_scalarmult_base` comb: signed radix-16 digits of `k`, a 32×8 table
//!   of `(j+1)·256^i·B` in affine Niels form that the compiler builds from
//!   the same const fns, 64 mixed additions and 4 doublings. Every table
//!   lookup scans all 8 entries and negates conditionally, so the sequence
//!   of operations does not depend on `k`.
//! * `CombPoint::mul_bytes`, `k·P` for a point that is used many times,
//!   is the same comb over a table of P's multiples that `CombPoint::new`
//!   builds at run time, on the heap. Its lookups are as uniform in `k` as
//!   the basepoint's; building the table depends only on P, which is
//!   public wherever it is used ([`crate::x25519::PreparedKey`]).
//! * [`EdwardsPoint::mul`], `k·P` for any point, is a straightforward
//!   variable-time double-and-add — see the crate-level note on timing.

use crate::field25519::{bytes_eq, FieldElement};
use crate::scalar::Scalar;
use crate::sha256::sha256_multi;
use crate::{CryptoError, Result};

/// Length of a compressed point.
pub const POINT_LEN: usize = 32;

/// Curve constant d = −121665/121666.
const D: FieldElement = FieldElement::from_u64(121665)
    .neg()
    .mul(&FieldElement::from_u64(121666).invert());

/// 2d, used in point addition.
const D2: FieldElement = D.add(&D);

/// The standard basepoint B (y = 4/5, even x).
const BASEPOINT: EdwardsPoint = {
    let y = FieldElement::from_u64(4).mul(&FieldElement::from_u64(5).invert());
    // The canonical encoding has sign bit 0: even x.
    match EdwardsPoint::decompress(&y.to_bytes()) {
        Ok(b) => b,
        Err(_) => panic!("basepoint decompression"),
    }
};

/// `table[i][j] = (j+1)·256^i·P` for one point P: the comb's table
/// (≈30 KB).
type CombTable = [[AffineNiels; 8]; 32];

/// The fixed-base comb's table for B, computed at compile time.
static BASEPOINT_TABLE: CombTable = basepoint_table();

/// A point on the Ed25519 curve, in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// An affine point as (y + x, y − x, 2d·x·y): the addend of a mixed
/// addition, which then needs neither Z₂ nor the product by 2d.
#[derive(Clone, Copy, Debug)]
struct AffineNiels {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    xy2d: FieldElement,
}

impl AffineNiels {
    const IDENTITY: AffineNiels = AffineNiels {
        y_plus_x: FieldElement::ONE,
        y_minus_x: FieldElement::ONE,
        xy2d: FieldElement::ZERO,
    };

    /// `p` in affine-Niels form, given `zinv` = 1/Z.
    const fn from_extended(p: &EdwardsPoint, zinv: &FieldElement) -> Self {
        let x = p.x.mul(zinv);
        let y = p.y.mul(zinv);
        AffineNiels {
            y_plus_x: y.add(&x),
            y_minus_x: y.sub(&x),
            xy2d: x.mul(&y).mul(&D2),
        }
    }

    /// `digit·P` for `digit` in [−8, 8], where `row[j] = (j+1)·P`. Scans
    /// all 8 entries and negates by conditional moves, so the work done
    /// does not depend on `digit`.
    fn select(row: &[AffineNiels; 8], digit: i8) -> AffineNiels {
        let sign = digit >> 7; // 0 or −1
        let abs = ((digit ^ sign) - sign) as u8;
        let mut t = AffineNiels::IDENTITY;
        for (j, entry) in (1u8..).zip(row) {
            let hit = abs == j;
            t.y_plus_x.cmov(&entry.y_plus_x, hit);
            t.y_minus_x.cmov(&entry.y_minus_x, hit);
            t.xy2d.cmov(&entry.xy2d, hit);
        }
        // −(x, y) = (−x, y): swap y ± x and negate 2d·x·y.
        let negative = sign != 0;
        FieldElement::cswap(negative, &mut t.y_plus_x, &mut t.y_minus_x);
        let minus_xy2d = t.xy2d.neg();
        t.xy2d.cmov(&minus_xy2d, negative);
        t
    }
}

/// One row of a comb table in extended coordinates: `(j+1)·P` for j in
/// 0..8.
const fn row_multiples(p: &EdwardsPoint) -> [EdwardsPoint; 8] {
    let mut row = [*p; 8];
    let mut j = 1;
    while j < 8 {
        row[j] = row[j - 1].add(p);
        j += 1;
    }
    row
}

/// `256·P`, the base of the next row.
const fn times_256(p: &EdwardsPoint) -> EdwardsPoint {
    let mut q = *p;
    let mut k = 0;
    while k < 8 {
        q = q.double();
        k += 1;
    }
    q
}

/// Build [`BASEPOINT_TABLE`]: the 256 multiples in extended coordinates,
/// then one batched inversion (Montgomery's trick) of their Z coordinates
/// to reach affine form. [`CombPoint::new`] takes the same steps at run
/// time into heap buffers; this by-value builder would put ≈80 KB of
/// temporaries on the stack.
const fn basepoint_table() -> CombTable {
    let mut points = [[EdwardsPoint::identity(); 8]; 32];
    let mut base = BASEPOINT; // 256^i·B
    let mut i = 0;
    while i < 32 {
        points[i] = row_multiples(&base);
        base = times_256(&base);
        i += 1;
    }

    // prefix[n] = Z_0·…·Z_{n−1}.
    let mut prefix = [FieldElement::ONE; 256];
    let mut acc = FieldElement::ONE;
    let mut n = 0;
    while n < 256 {
        prefix[n] = acc;
        acc = acc.mul(&points[n / 8][n % 8].z);
        n += 1;
    }
    // inv = 1/(Z_0·…·Z_{n−1}) as n walks back down.
    let mut inv = acc.invert();
    let mut table = [[AffineNiels::IDENTITY; 8]; 32];
    while n > 0 {
        n -= 1;
        let p = points[n / 8][n % 8];
        let zinv = inv.mul(&prefix[n]);
        inv = inv.mul(&p.z);
        table[n / 8][n % 8] = AffineNiels::from_extended(&p, &zinv);
    }
    table
}

/// `k·P` by the comb over P's `table`, for a little-endian `k < 2^255`:
/// Σ e[2i+1]·256^i·P, times 16, plus Σ e[2i]·256^i·P.
fn comb(table: &CombTable, k: &[u8; 32]) -> EdwardsPoint {
    assert!(k[31] < 0x80, "the comb needs k < 2^255");
    let e = radix16(k);
    let mut h = EdwardsPoint::identity();
    for (row, digits) in table.iter().zip(e.chunks_exact(2)) {
        h = h.add_affine_niels(&AffineNiels::select(row, digits[1]));
    }
    h = h.double().double().double().double();
    for (row, digits) in table.iter().zip(e.chunks_exact(2)) {
        h = h.add_affine_niels(&AffineNiels::select(row, digits[0]));
    }
    h
}

/// A point with its comb table built, so that each later `k·P` costs
/// what `k·B` does. The build (about three Montgomery ladders) is
/// variable-time in P only.
pub(crate) struct CombPoint(Box<CombTable>);

impl CombPoint {
    /// Build P's table: [`basepoint_table`]'s steps, into heap buffers.
    pub(crate) fn new(p: &EdwardsPoint) -> Self {
        let mut points = Vec::with_capacity(256);
        let mut base = *p;
        for _ in 0..32 {
            points.extend(row_multiples(&base));
            base = times_256(&base);
        }
        let mut prefix = Vec::with_capacity(256);
        let mut acc = FieldElement::ONE;
        for q in &points {
            prefix.push(acc);
            acc = acc.mul(&q.z);
        }
        let mut inv = acc.invert();
        let mut table = vec![[AffineNiels::IDENTITY; 8]; 32];
        for (n, q) in points.iter().enumerate().rev() {
            let zinv = inv.mul(&prefix[n]);
            inv = inv.mul(&q.z);
            table[n / 8][n % 8] = AffineNiels::from_extended(q, &zinv);
        }
        CombPoint(table.into_boxed_slice().try_into().expect("32 rows"))
    }

    /// `k·P` for a little-endian `k < 2^255`, by the comb.
    pub(crate) fn mul_bytes(&self, k: &[u8; 32]) -> EdwardsPoint {
        comb(&self.0, k)
    }
}

/// Signed radix-16 digits of a little-endian `k < 2^255`:
/// `k = Σ e[i]·16^i` with every `e[i]` in [−8, 8].
fn radix16(k: &[u8; 32]) -> [i8; 64] {
    let mut e = [0i8; 64];
    for (i, byte) in k.iter().enumerate() {
        e[2 * i] = (byte & 15) as i8;
        e[2 * i + 1] = (byte >> 4) as i8;
    }
    // Recentre each digit from [0, 16) to [−8, 8) by carrying into the
    // next; the top digit absorbs the last carry and stays in [0, 8]
    // because k's top bit is clear.
    let mut carry = 0;
    for d in &mut e[..63] {
        *d += carry;
        carry = (*d + 8) >> 4;
        *d -= carry << 4;
    }
    e[63] += carry;
    e
}

impl EdwardsPoint {
    /// The identity (neutral) element.
    pub const fn identity() -> Self {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The standard basepoint B (y = 4/5, even x).
    pub fn basepoint() -> Self {
        BASEPOINT
    }

    /// Is this the identity?
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y.ct_eq(&self.z)
    }

    /// Group equality (projective cross-multiplication).
    pub fn eq_point(&self, other: &Self) -> bool {
        self.x.mul(&other.z).ct_eq(&other.x.mul(&self.z))
            && self.y.mul(&other.z).ct_eq(&other.y.mul(&self.z))
    }

    /// Point negation.
    pub fn neg(&self) -> Self {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Point addition (`add-2008-hwcd-3`, complete for a = −1).
    pub const fn add(&self, other: &Self) -> Self {
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let c = self.t.mul(&D2).mul(&other.t);
        let dd = self.z.mul(&other.z);
        Self::add_finish(a, b, c, dd.add(&dd))
    }

    /// Mixed addition `self + q` for an affine `q`: [`EdwardsPoint::add`]
    /// with Z₂ = 1 and 2d·T₂ precomputed, 7 multiplications in place of 9.
    fn add_affine_niels(&self, q: &AffineNiels) -> Self {
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = self.t.mul(&q.xy2d);
        Self::add_finish(a, b, c, self.z.add(&self.z))
    }

    /// The common tail of both additions, from A = (Y₁−X₁)(Y₂−X₂),
    /// B = (Y₁+X₁)(Y₂+X₂), C = 2d·T₁T₂ and D = 2Z₁Z₂.
    const fn add_finish(
        a: FieldElement,
        b: FieldElement,
        c: FieldElement,
        dd: FieldElement,
    ) -> Self {
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Point subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// Point doubling (`dbl-2008-hwcd` with a = −1).
    pub const fn double(&self) -> Self {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square();
        let c = c.add(&c);
        let da = a.neg(); // a·A with a = −1
        let e = self.x.add(&self.y).square().sub(&a).sub(&b);
        let g = da.add(&b);
        let f = g.sub(&c);
        let h = da.sub(&b);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Scalar multiplication `k·P` (variable-time double-and-add).
    pub fn mul(&self, k: &Scalar) -> Self {
        let mut acc = EdwardsPoint::identity();
        for bit in k.bits_msb_first() {
            acc = acc.double();
            if bit {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// `k·B` for the standard basepoint, by the fixed-base comb.
    pub fn mul_base(k: &Scalar) -> Self {
        Self::mul_base_bytes(&k.to_bytes())
    }

    /// `k·B` for a little-endian integer `k < 2^255`: a scalar below ℓ,
    /// or a clamped X25519 private key.
    pub(crate) fn mul_base_bytes(k: &[u8; 32]) -> Self {
        comb(&BASEPOINT_TABLE, k)
    }

    /// The Montgomery u-coordinate (1 + y)/(1 − y) = (Z + Y)/(Z − Y) of
    /// this point on Curve25519, encoded as X25519 encodes it (the identity
    /// maps to 0, as in the ladder).
    pub(crate) fn to_montgomery_u(self) -> [u8; 32] {
        self.z
            .add(&self.y)
            .mul(&self.z.sub(&self.y).invert())
            .to_bytes()
    }

    /// A point whose Montgomery u-coordinate is `u` (top bit masked, as
    /// X25519 reads it), by y = (u − 1)/(u + 1): the inverse of
    /// [`EdwardsPoint::to_montgomery_u`]. X25519 reads only u, so either
    /// of ±P serves; this is the one with even x. `None` when u lies on
    /// the quadratic twist (no x exists) and at u = −1, the map's pole.
    /// Variable-time in `u`.
    pub(crate) fn from_montgomery_u(u: &[u8; 32]) -> Option<Self> {
        let u = FieldElement::from_bytes(u);
        let u_plus_1 = u.add(&FieldElement::ONE);
        if u_plus_1.is_zero() {
            return None;
        }
        let y = u.sub(&FieldElement::ONE).mul(&u_plus_1.invert());
        EdwardsPoint::decompress(&y.to_bytes()).ok()
    }

    /// Multiply by the cofactor 8 (three doublings), mapping any curve point
    /// into the prime-order subgroup.
    pub fn mul_by_cofactor(&self) -> Self {
        self.double().double().double()
    }

    /// Compress to 32 bytes: the y-coordinate with the parity of x in the
    /// top bit.
    pub fn compress(&self) -> [u8; POINT_LEN] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_odd() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompress per RFC 8032 §5.1.3. Fails for encodings that are not on
    /// the curve, and for non-canonical ones (y ≥ p).
    pub const fn decompress(bytes: &[u8; POINT_LEN]) -> Result<Self> {
        let sign = bytes[31] >> 7;
        let y = FieldElement::from_bytes(bytes); // masks the sign bit
        let mut canonical = y.to_bytes();
        canonical[31] |= sign << 7;
        if !bytes_eq(&canonical, bytes) {
            return Err(CryptoError::InvalidPoint);
        }

        // x² = (y² − 1) / (d·y² + 1)
        let yy = y.square();
        let u = yy.sub(&FieldElement::ONE);
        let v = D.mul(&yy).add(&FieldElement::ONE);

        // Candidate root: x = u·v³·(u·v⁷)^((p−5)/8)
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow22523());

        let vxx = v.mul(&x.square());
        if vxx.ct_eq(&u) {
            // x is already a root.
        } else if vxx.ct_eq(&u.neg()) {
            x = x.mul(&FieldElement::SQRT_M1);
        } else {
            return Err(CryptoError::InvalidPoint);
        }

        if x.is_zero() && sign == 1 {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_odd() != (sign == 1) {
            x = x.neg();
        }

        Ok(EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(&y),
        })
    }

    /// Verify the curve equation −x² + y² = 1 + d·x²y² (affine check).
    pub fn is_on_curve(&self) -> bool {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let xx = x.square();
        let yy = y.square();
        let lhs = yy.sub(&xx);
        let rhs = FieldElement::ONE.add(&D.mul(&xx).mul(&yy));
        lhs.ct_eq(&rhs)
    }

    /// Deterministic hash-to-group via try-and-increment, followed by
    /// cofactor clearing. The output lies in the prime-order subgroup and is
    /// never the identity. Variable time in the *public* input only.
    pub fn hash_to_group(domain: &[u8], msg: &[u8]) -> Self {
        for counter in 0u16..=512 {
            let h = sha256_multi(&[b"dcp-h2g:", domain, &counter.to_be_bytes(), msg]);
            let mut candidate = [0u8; POINT_LEN];
            candidate.copy_from_slice(&h);
            // Derive the sign bit from a second hash byte so it is uniform.
            let sign = sha256_multi(&[b"dcp-h2g-sign:", &h])[0] & 1;
            candidate[31] = (candidate[31] & 0x7f) | (sign << 7);
            if let Ok(p) = EdwardsPoint::decompress(&candidate) {
                let q = p.mul_by_cofactor();
                if !q.is_identity() {
                    return q;
                }
            }
        }
        unreachable!("try-and-increment failed 512 times (probability ≈ 2^-512)")
    }

    /// A random point in the prime-order subgroup.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let k = Scalar::random(rng);
        Self::mul_base(&k)
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        self.eq_point(other)
    }
}
impl Eq for EdwardsPoint {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn basepoint_is_on_curve() {
        let b = EdwardsPoint::basepoint();
        assert!(b.is_on_curve());
        assert!(!b.is_identity());
    }

    #[test]
    fn identity_laws() {
        let id = EdwardsPoint::identity();
        let b = EdwardsPoint::basepoint();
        assert!(id.is_on_curve());
        assert!(b.add(&id).eq_point(&b));
        assert!(id.add(&b).eq_point(&b));
        assert!(id.double().is_identity());
    }

    #[test]
    fn order_annihilates_basepoint() {
        // ℓ·B = identity; (ℓ−1)·B = −B.
        let l_minus_1 = Scalar::zero().sub(&Scalar::one()); // ℓ − 1 mod ℓ ≡ −1
        let p = EdwardsPoint::mul_base(&l_minus_1);
        assert!(p.eq_point(&EdwardsPoint::basepoint().neg()));
        assert!(p.add(&EdwardsPoint::basepoint()).is_identity());
    }

    #[test]
    fn double_matches_add_self() {
        let b = EdwardsPoint::basepoint();
        assert!(b.double().eq_point(&b.add(&b)));
        let p = b.double().add(&b); // 3B
        assert!(p.double().eq_point(&p.add(&p)));
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        // (a+b)·B = a·B + b·B
        let lhs = EdwardsPoint::mul_base(&a.add(&b));
        let rhs = EdwardsPoint::mul_base(&a).add(&EdwardsPoint::mul_base(&b));
        assert!(lhs.eq_point(&rhs));
        // a·(b·B) = (a·b)·B
        let lhs = EdwardsPoint::mul_base(&b).mul(&a);
        let rhs = EdwardsPoint::mul_base(&a.mul(&b));
        assert!(lhs.eq_point(&rhs));
    }

    #[test]
    fn small_scalar_mults() {
        let b = EdwardsPoint::basepoint();
        assert!(b.mul(&Scalar::zero()).is_identity());
        assert!(b.mul(&Scalar::one()).eq_point(&b));
        assert!(b.mul(&Scalar::from_u64(2)).eq_point(&b.double()));
        assert!(b
            .mul(&Scalar::from_u64(5))
            .eq_point(&b.double().double().add(&b)));
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..8 {
            let p = EdwardsPoint::random(&mut rng);
            let enc = p.compress();
            let q = EdwardsPoint::decompress(&enc).unwrap();
            assert!(p.eq_point(&q));
            assert!(q.is_on_curve());
            assert_eq!(q.compress(), enc);
        }
    }

    #[test]
    fn decompress_rejects_off_curve() {
        // An encoding where (y²−1)/(dy²+1) is a non-residue must fail; find
        // one by scanning.
        let mut found_invalid = false;
        for i in 0u8..64 {
            let mut enc = [0u8; 32];
            enc[0] = i;
            enc[1] = 0xd3;
            if EdwardsPoint::decompress(&enc).is_err() {
                found_invalid = true;
                break;
            }
        }
        assert!(found_invalid, "expected at least one invalid encoding");
    }

    #[test]
    fn negation_cancels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let p = EdwardsPoint::random(&mut rng);
        assert!(p.add(&p.neg()).is_identity());
        assert!(p.sub(&p).is_identity());
        assert!(p.neg().neg().eq_point(&p));
    }

    #[test]
    fn hash_to_group_properties() {
        let p = EdwardsPoint::hash_to_group(b"test", b"input-1");
        let q = EdwardsPoint::hash_to_group(b"test", b"input-1");
        let r = EdwardsPoint::hash_to_group(b"test", b"input-2");
        let s = EdwardsPoint::hash_to_group(b"other", b"input-1");
        assert!(p.eq_point(&q), "deterministic");
        assert!(!p.eq_point(&r), "input separated");
        assert!(!p.eq_point(&s), "domain separated");
        assert!(p.is_on_curve());
        assert!(!p.is_identity());
        // Must lie in the prime-order subgroup: (−1)·P + P = 0 is trivial;
        // instead check ℓ·P = 0 via (ℓ−1)·P = −P.
        let l_minus_1 = Scalar::zero().sub(&Scalar::one());
        assert!(p.mul(&l_minus_1).eq_point(&p.neg()));
    }

    #[test]
    fn mul_by_cofactor_lands_in_subgroup() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let p = EdwardsPoint::random(&mut rng).mul_by_cofactor();
        let l_minus_1 = Scalar::zero().sub(&Scalar::one());
        assert!(p.mul(&l_minus_1).eq_point(&p.neg()));
    }

    #[test]
    fn decompress_rejects_non_canonical_y() {
        // y = p + r for r < 19 fits in 255 bits but is not reduced; RFC
        // 8032 §5.1.3 rejects all 38 such encodings (either sign bit).
        for r in 0u8..19 {
            for sign in [0u8, 0x80] {
                let mut enc = [0xffu8; 32];
                enc[0] = 0xed + r;
                enc[31] = 0x7f | sign;
                assert_eq!(
                    EdwardsPoint::decompress(&enc),
                    Err(CryptoError::InvalidPoint),
                    "y = p + {r}, sign {sign:#x}"
                );
            }
        }
    }

    #[test]
    fn basepoint_table_matches_runtime_multiples() {
        let b = EdwardsPoint::basepoint();
        for (i, row) in BASEPOINT_TABLE.iter().enumerate() {
            for (j, entry) in row.iter().enumerate() {
                // (j+1)·256^i as little-endian bytes, below ℓ.
                let mut k = [0u8; 32];
                k[i] = j as u8 + 1;
                let p = b.mul(&Scalar::from_bytes_mod_order(&k));
                let zinv = p.z.invert();
                let (x, y) = (p.x.mul(&zinv), p.y.mul(&zinv));
                assert!(entry.y_plus_x.ct_eq(&y.add(&x)), "[{i}][{j}] y+x");
                assert!(entry.y_minus_x.ct_eq(&y.sub(&x)), "[{i}][{j}] y-x");
                assert!(entry.xy2d.ct_eq(&x.mul(&y).mul(&D2)), "[{i}][{j}] 2dxy");
            }
        }
    }

    #[test]
    fn runtime_builder_matches_basepoint_table() {
        let built = CombPoint::new(&EdwardsPoint::basepoint());
        for (i, (row, built_row)) in BASEPOINT_TABLE.iter().zip(built.0.iter()).enumerate() {
            for (j, (entry, got)) in row.iter().zip(built_row).enumerate() {
                assert_eq!(entry.y_plus_x.0, got.y_plus_x.0, "[{i}][{j}] y+x");
                assert_eq!(entry.y_minus_x.0, got.y_minus_x.0, "[{i}][{j}] y-x");
                assert_eq!(entry.xy2d.0, got.xy2d.0, "[{i}][{j}] 2dxy");
            }
        }
    }

    #[test]
    fn mul_base_matches_double_and_add_at_the_edges() {
        let b = EdwardsPoint::basepoint();
        let l_minus_1 = Scalar::zero().sub(&Scalar::one());
        // 8 recodes to the digits (−8, 1): the negated lookup.
        for k in [
            Scalar::zero(),
            Scalar::one(),
            Scalar::from_u64(8),
            l_minus_1,
        ] {
            assert!(EdwardsPoint::mul_base(&k).eq_point(&b.mul(&k)), "{k:?}");
        }
    }

    proptest! {
        #[test]
        fn mul_base_matches_double_and_add(bytes in proptest::collection::vec(any::<u8>(), 64)) {
            let k = Scalar::from_bytes_mod_order(&bytes);
            let p = EdwardsPoint::mul_base(&k);
            prop_assert!(p.eq_point(&EdwardsPoint::basepoint().mul(&k)));
            prop_assert!(p.is_on_curve());
        }

        #[test]
        fn decompress_accepts_only_what_compress_emits(bytes in proptest::collection::vec(any::<u8>(), 32)) {
            let mut enc = [0u8; 32];
            enc.copy_from_slice(&bytes);
            if let Ok(p) = EdwardsPoint::decompress(&enc) {
                prop_assert_eq!(p.compress(), enc);
            }
        }
    }

    #[test]
    fn compressed_basepoint_matches_rfc8032() {
        // The standard Ed25519 basepoint encoding.
        let enc = EdwardsPoint::basepoint().compress();
        assert_eq!(
            crate::util::hex_encode(&enc),
            "5866666666666666666666666666666666666666666666666666666666666666"
        );
    }
}
