//! Prio-style private aggregation between a leader and a helper.
//!
//! A client's value `x ∈ [0, 2^k)` is bit-decomposed; each bit is
//! additively shared to the two aggregators. The aggregators verify each
//! shared bit really is a bit by jointly computing `b·(b − 1)` with a
//! Beaver-triple multiplication and opening the (data-independent) result:
//! it must be zero. Valid contributions are folded into per-aggregator
//! accumulators; the collector reconstructs only the final sum.
//!
//! **Substitution note (DESIGN.md):** Prio proper replaces the triple
//! dealer with client-generated SNIP proofs so that *no* trusted setup is
//! needed. The dealer here is a standard MPC preprocessing assumption that
//! preserves what the decoupling analysis needs — neither aggregator alone
//! learns anything about `x`, and malformed contributions are rejected
//! without revealing them.

use rand::Rng;

use crate::field::Fe;
use crate::share::{reconstruct, share};

/// A Beaver multiplication triple, shared between the two aggregators.
#[derive(Clone, Copy, Debug)]
pub struct TripleShare {
    /// Share of a.
    pub a: Fe,
    /// Share of b.
    pub b: Fe,
    /// Share of c = a·b.
    pub c: Fe,
}

/// Deal one triple into two shares.
pub fn deal_triple<R: Rng + ?Sized>(rng: &mut R) -> [TripleShare; 2] {
    let a = Fe::random(rng);
    let b = Fe::random(rng);
    let c = a.mul(b);
    let a_s = share(rng, a, 2);
    let b_s = share(rng, b, 2);
    let c_s = share(rng, c, 2);
    [
        TripleShare {
            a: a_s[0],
            b: b_s[0],
            c: c_s[0],
        },
        TripleShare {
            a: a_s[1],
            b: b_s[1],
            c: c_s[1],
        },
    ]
}

/// One aggregator's view of a client submission: a share of each bit plus
/// a triple share per bit for verification.
#[derive(Clone, Debug)]
pub struct SubmissionShare {
    /// Bit shares, least significant first.
    pub bits: Vec<Fe>,
    /// One triple share per bit.
    pub triples: Vec<TripleShare>,
}

/// Client: encode `value` (must fit in `k` bits) into two submission
/// shares.
pub fn submit<R: Rng + ?Sized>(rng: &mut R, value: u64, k: usize) -> [SubmissionShare; 2] {
    assert!(k <= 32, "bit width");
    assert!(value < (1u64 << k), "value out of declared range");
    let mut s0 = SubmissionShare {
        bits: Vec::with_capacity(k),
        triples: Vec::with_capacity(k),
    };
    let mut s1 = s0.clone();
    for i in 0..k {
        let bit = Fe::new((value >> i) & 1);
        let sh = share(rng, bit, 2);
        s0.bits.push(sh[0]);
        s1.bits.push(sh[1]);
        let [t0, t1] = deal_triple(rng);
        s0.triples.push(t0);
        s1.triples.push(t1);
    }
    [s0, s1]
}

/// A *cheating* client: submits a non-bit "bit" share (e.g. the value 2 in
/// a single slot), inflating its contribution. Used by robustness tests.
pub fn submit_malicious<R: Rng + ?Sized>(rng: &mut R, k: usize) -> [SubmissionShare; 2] {
    let mut shares = submit(rng, 1, k);
    // Overwrite bit 0 shares so they reconstruct to 2 instead of 0/1.
    let sh = share(rng, Fe::new(2), 2);
    shares[0].bits[0] = sh[0];
    shares[1].bits[0] = sh[1];
    shares
}

/// Verification round 1 message: `(d, e)` openings for every bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyMsg {
    /// d = share(b) − share(a) per bit.
    pub d: Vec<Fe>,
    /// e = share(b−1) − share(b_triple) per bit.
    pub e: Vec<Fe>,
}

/// A peer's verification message, or a submission's triples, whose
/// length differs from the submission's bit count. Such a message is
/// refused without touching the accumulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LengthMismatch;

/// One aggregator (party 0 = leader, party 1 = helper).
pub struct Aggregator {
    party: usize,
    /// Accumulated sum share over accepted submissions.
    pub accum: Fe,
    /// Count of accepted submissions.
    pub accepted: usize,
    /// Count of rejected submissions.
    pub rejected: usize,
}

impl Aggregator {
    /// Create aggregator `party` (0 or 1).
    pub fn new(party: usize) -> Self {
        assert!(party < 2);
        Aggregator {
            party,
            accum: Fe::ZERO,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Step 1: compute this party's `(d, e)` openings for a submission.
    pub fn verify_round1(&self, sub: &SubmissionShare) -> VerifyMsg {
        let one_share = if self.party == 0 { Fe::ONE } else { Fe::ZERO };
        let mut msg = VerifyMsg::default();
        for (bit, t) in sub.bits.iter().zip(sub.triples.iter()) {
            // x = b, y = b − 1 (the constant 1 belongs to party 0).
            let x = *bit;
            let y = bit.sub(one_share);
            msg.d.push(x.sub(t.a));
            msg.e.push(y.sub(t.b));
        }
        msg
    }

    /// Step 2: with both parties' openings, compute this party's share of
    /// each `b·(b−1)` product. Openings or triples that do not match the
    /// submission's bit count are a [`LengthMismatch`].
    pub fn verify_round2(
        &self,
        sub: &SubmissionShare,
        mine: &VerifyMsg,
        theirs: &VerifyMsg,
    ) -> Result<Vec<Fe>, LengthMismatch> {
        let k = sub.bits.len();
        let lens = [
            sub.triples.len(),
            mine.d.len(),
            mine.e.len(),
            theirs.d.len(),
            theirs.e.len(),
        ];
        if lens.iter().any(|&n| n != k) {
            return Err(LengthMismatch);
        }
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let d = mine.d[i].add(theirs.d[i]);
            let e = mine.e[i].add(theirs.e[i]);
            let t = &sub.triples[i];
            // z_i = c_i + d·b_i + e·a_i (+ d·e for party 0)
            let mut z = t.c.add(d.mul(t.b)).add(e.mul(t.a));
            if self.party == 0 {
                z = z.add(d.mul(e));
            }
            out.push(z);
        }
        Ok(out)
    }

    /// Step 3 (both parties run it identically): accept iff every opened
    /// product is zero. On accept, fold the value share into the
    /// accumulator. Product shares that do not match the submission's bit
    /// count are a [`LengthMismatch`], and neither counted nor folded.
    pub fn finish(
        &mut self,
        sub: &SubmissionShare,
        my_z: &[Fe],
        their_z: &[Fe],
    ) -> Result<bool, LengthMismatch> {
        if !products_match(sub, my_z, their_z)? {
            self.rejected += 1;
            return Ok(false);
        }
        // Value share = Σ bit_i · 2^i, each place value doubled in the
        // field, so no width overflows a shift.
        let mut v = Fe::ZERO;
        let mut place = Fe::ONE;
        for &b in &sub.bits {
            v = v.add(b.mul(place));
            place = place.add(place);
        }
        self.accum = self.accum.add(v);
        self.accepted += 1;
        Ok(true)
    }
}

/// Whether every opened product `b·(b−1)` is zero: one share of each from
/// either party, one product per bit of `sub`.
fn products_match(
    sub: &SubmissionShare,
    my_z: &[Fe],
    their_z: &[Fe],
) -> Result<bool, LengthMismatch> {
    if my_z.len() != sub.bits.len() || their_z.len() != sub.bits.len() {
        return Err(LengthMismatch);
    }
    Ok(my_z
        .iter()
        .zip(their_z)
        .all(|(&a, &b)| a.add(b) == Fe::ZERO))
}

/// Collector: reconstruct the aggregate from both accumulator shares.
pub fn collect(leader_share: Fe, helper_share: Fe) -> u64 {
    reconstruct(&[leader_share, helper_share]).value()
}

/// Convenience: run the whole verification pipeline locally (used by unit
/// tests and the benches; the simulator scenario exchanges the same
/// messages over the network).
pub fn process_locally(
    leader: &mut Aggregator,
    helper: &mut Aggregator,
    shares: &[SubmissionShare; 2],
) -> bool {
    let m0 = leader.verify_round1(&shares[0]);
    let m1 = helper.verify_round1(&shares[1]);
    let (Ok(z0), Ok(z1)) = (
        leader.verify_round2(&shares[0], &m0, &m1),
        helper.verify_round2(&shares[1], &m1, &m0),
    ) else {
        return false; // shares of different widths: nothing to verify
    };
    let a = leader.finish(&shares[0], &z0, &z1);
    let b = helper.finish(&shares[1], &z1, &z0);
    assert_eq!(a, b, "aggregators must agree on validity");
    a == Ok(true)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Both legs of one submission whose bits are those of `parts`'
    /// honest `(value, width)` submissions laid end to end, low first.
    pub(crate) fn laid(rng: &mut StdRng, parts: &[(u64, usize)]) -> [SubmissionShare; 2] {
        let mut legs = submit(rng, 0, 0);
        for &(value, k) in parts {
            for (leg, part) in legs.iter_mut().zip(submit(rng, value, k)) {
                leg.bits.extend(part.bits);
                leg.triples.extend(part.triples);
            }
        }
        legs
    }

    #[test]
    fn any_width_folds_by_place_value_without_panicking() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut leader = Aggregator::new(0);
        let mut helper = Aggregator::new(1);
        let forty = laid(&mut rng, &[(7, 32), (200, 8)]);
        assert!(process_locally(&mut leader, &mut helper, &forty));
        assert_eq!(collect(leader.accum, helper.accum), 7 + (200 << 32));
        // Bit 64 is worth 2^64 in the field, where a `u64` place value
        // would overflow its shift.
        let sixty_five = laid(&mut rng, &[(0, 32), (0, 32), (1, 1)]);
        assert!(process_locally(&mut leader, &mut helper, &sixty_five));
        let two_to_64 = Fe::new(1 << 63).add(Fe::new(1 << 63));
        let sum = Fe::new(7 + (200 << 32)).add(two_to_64);
        assert_eq!(collect(leader.accum, helper.accum), sum.value());
    }

    #[test]
    fn honest_submissions_aggregate_correctly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut leader = Aggregator::new(0);
        let mut helper = Aggregator::new(1);
        let values = [3u64, 7, 0, 15, 8];
        for &v in &values {
            let shares = submit(&mut rng, v, 4);
            assert!(process_locally(&mut leader, &mut helper, &shares));
        }
        assert_eq!(leader.accepted, 5);
        assert_eq!(collect(leader.accum, helper.accum), 33);
    }

    #[test]
    fn malicious_submission_rejected_without_learning_it() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut leader = Aggregator::new(0);
        let mut helper = Aggregator::new(1);
        let good = submit(&mut rng, 5, 4);
        let bad = submit_malicious(&mut rng, 4);
        assert!(process_locally(&mut leader, &mut helper, &good));
        assert!(!process_locally(&mut leader, &mut helper, &bad));
        assert_eq!(leader.rejected, 1);
        // The aggregate contains only the honest value.
        assert_eq!(collect(leader.accum, helper.accum), 5);
    }

    #[test]
    #[should_panic(expected = "out of declared range")]
    fn oversized_value_rejected_client_side() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let _ = submit(&mut rng, 16, 4);
    }

    #[test]
    fn single_aggregator_view_is_uniform_shares() {
        // The leader's bit shares for value 0 and value 15 are both just
        // random field elements — compare distributions by checking the
        // shares differ run-to-run while reconstruction is exact.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = submit(&mut rng, 0, 4);
        let b = submit(&mut rng, 15, 4);
        assert_ne!(a[0].bits, b[0].bits);
        for i in 0..4 {
            let bit_a = reconstruct(&[a[0].bits[i], a[1].bits[i]]).value();
            let bit_b = reconstruct(&[b[0].bits[i], b[1].bits[i]]).value();
            assert_eq!(bit_a, 0);
            assert_eq!(bit_b, 1);
        }
    }

    #[test]
    fn beaver_triples_multiply_correctly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Direct check of the triple identity.
        for _ in 0..8 {
            let [t0, t1] = deal_triple(&mut rng);
            let a = t0.a.add(t1.a);
            let b = t0.b.add(t1.b);
            let c = t0.c.add(t1.c);
            assert_eq!(a.mul(b), c);
        }
    }

    #[test]
    fn round2_refuses_a_short_peer_opening() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let shares = submit(&mut rng, 5, 4);
        let leader = Aggregator::new(0);
        let helper = Aggregator::new(1);
        let mine = leader.verify_round1(&shares[0]);
        let mut theirs = helper.verify_round1(&shares[1]);
        theirs.d.truncate(2);
        theirs.e.truncate(2);
        assert_eq!(
            leader.verify_round2(&shares[0], &mine, &theirs),
            Err(LengthMismatch)
        );
        assert_eq!(
            helper.verify_round2(&shares[1], &theirs, &mine),
            Err(LengthMismatch)
        );
    }

    #[test]
    fn finish_refuses_an_empty_peer_product_without_touching_the_accumulator() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let shares = submit(&mut rng, 5, 4);
        let mut leader = Aggregator::new(0);
        let helper = Aggregator::new(1);
        let m0 = leader.verify_round1(&shares[0]);
        let m1 = helper.verify_round1(&shares[1]);
        let z0 = leader.verify_round2(&shares[0], &m0, &m1).unwrap();
        assert_eq!(leader.finish(&shares[0], &z0, &[]), Err(LengthMismatch));
        assert_eq!(
            (leader.accum, leader.accepted, leader.rejected),
            (Fe::ZERO, 0, 0)
        );
        let mut hist = HistAggregator::new(0, 4);
        let s0 = hist.sum_share(&shares[0]);
        assert_eq!(
            hist.finish(&shares[0], &z0, &[], s0, Fe::ZERO),
            Err(LengthMismatch)
        );
        assert_eq!((hist.accepted, hist.rejected), (0, 0));
    }

    #[test]
    fn shares_of_different_widths_are_not_accepted() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut leader = Aggregator::new(0);
        let mut helper = Aggregator::new(1);
        let [wide, _] = submit(&mut rng, 5, 4);
        let [_, narrow] = submit(&mut rng, 1, 2);
        assert!(!process_locally(&mut leader, &mut helper, &[wide, narrow]));
        assert_eq!((leader.accum, helper.accum), (Fe::ZERO, Fe::ZERO));
    }

    proptest! {
        #[test]
        fn any_valid_value_accepted_and_summed(v in 0u64..256, seed in any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut leader = Aggregator::new(0);
            let mut helper = Aggregator::new(1);
            let shares = submit(&mut rng, v, 8);
            prop_assert!(process_locally(&mut leader, &mut helper, &shares));
            prop_assert_eq!(collect(leader.accum, helper.accum), v);
        }
    }
}

// ------------------------------------------------------------ histograms --

/// A histogram aggregator: per-bucket accumulators over one-hot
/// submissions. Validity = every indicator is a bit (Beaver-checked)
/// *and* the indicators sum to exactly one (checked by opening the sum,
/// which is public information for honest reports).
pub struct HistAggregator {
    party: usize,
    /// Per-bucket accumulated shares.
    pub accum: Vec<Fe>,
    /// Accepted submissions.
    pub accepted: usize,
    /// Rejected submissions.
    pub rejected: usize,
}

/// Client: encode a one-hot histogram contribution for `bucket` of
/// `n_buckets`.
pub fn submit_histogram<R: Rng + ?Sized>(
    rng: &mut R,
    bucket: usize,
    n_buckets: usize,
) -> [SubmissionShare; 2] {
    assert!(bucket < n_buckets);
    let mut s0 = SubmissionShare {
        bits: Vec::with_capacity(n_buckets),
        triples: Vec::with_capacity(n_buckets),
    };
    let mut s1 = s0.clone();
    for i in 0..n_buckets {
        let ind = Fe::new(u64::from(i == bucket));
        let sh = share(rng, ind, 2);
        s0.bits.push(sh[0]);
        s1.bits.push(sh[1]);
        let [t0, t1] = deal_triple(rng);
        s0.triples.push(t0);
        s1.triples.push(t1);
    }
    [s0, s1]
}

/// A cheating histogram client (`kind` 0: votes twice; 1: votes zero
/// times; 2: single bucket with weight 2).
pub fn submit_histogram_malicious<R: Rng + ?Sized>(
    rng: &mut R,
    n_buckets: usize,
    kind: u8,
) -> [SubmissionShare; 2] {
    let mut shares = submit_histogram(rng, 0, n_buckets);
    match kind {
        0 => {
            // Second one in bucket 1: both pass bit checks, sum = 2.
            let sh = share(rng, Fe::ONE, 2);
            shares[0].bits[1] = sh[0];
            shares[1].bits[1] = sh[1];
        }
        1 => {
            // Clear bucket 0: sum = 0.
            let sh = share(rng, Fe::ZERO, 2);
            shares[0].bits[0] = sh[0];
            shares[1].bits[0] = sh[1];
        }
        _ => {
            // Weight 2 in a single bucket: fails the bit check itself.
            let sh = share(rng, Fe::new(2), 2);
            shares[0].bits[0] = sh[0];
            shares[1].bits[0] = sh[1];
        }
    }
    shares
}

impl HistAggregator {
    /// Create histogram aggregator `party` with `n_buckets`.
    pub fn new(party: usize, n_buckets: usize) -> Self {
        assert!(party < 2);
        HistAggregator {
            party,
            accum: vec![Fe::ZERO; n_buckets],
            accepted: 0,
            rejected: 0,
        }
    }

    /// Round 1 — identical mechanics to the sum type.
    pub fn verify_round1(&self, sub: &SubmissionShare) -> VerifyMsg {
        Aggregator::new(self.party).verify_round1(sub)
    }

    /// Round 2 — identical mechanics to the sum type.
    pub fn verify_round2(
        &self,
        sub: &SubmissionShare,
        mine: &VerifyMsg,
        theirs: &VerifyMsg,
    ) -> Result<Vec<Fe>, LengthMismatch> {
        Aggregator::new(self.party).verify_round2(sub, mine, theirs)
    }

    /// This party's share of the indicator sum (exchanged for the
    /// one-hotness check).
    pub fn sum_share(&self, sub: &SubmissionShare) -> Fe {
        sub.bits.iter().fold(Fe::ZERO, |a, &b| a.add(b))
    }

    /// Final decision: all products zero AND indicator sum == 1. A
    /// submission with another bucket count, or product shares of another
    /// length, is a [`LengthMismatch`], and neither counted nor folded.
    pub fn finish(
        &mut self,
        sub: &SubmissionShare,
        my_z: &[Fe],
        their_z: &[Fe],
        my_sum: Fe,
        their_sum: Fe,
    ) -> Result<bool, LengthMismatch> {
        if sub.bits.len() != self.accum.len() {
            return Err(LengthMismatch);
        }
        let bits_ok = products_match(sub, my_z, their_z)?;
        let one_hot = my_sum.add(their_sum) == Fe::ONE;
        if !(bits_ok && one_hot) {
            self.rejected += 1;
            return Ok(false);
        }
        for (slot, &b) in self.accum.iter_mut().zip(sub.bits.iter()) {
            *slot = slot.add(b);
        }
        self.accepted += 1;
        Ok(true)
    }
}

/// Reconstruct the histogram from both parties' accumulators.
pub fn collect_histogram(leader: &[Fe], helper: &[Fe]) -> Vec<u64> {
    leader
        .iter()
        .zip(helper.iter())
        .map(|(&a, &b)| a.add(b).value())
        .collect()
}

/// Local histogram pipeline (tests/benches; the network version exchanges
/// the same four messages).
pub fn process_histogram_locally(
    leader: &mut HistAggregator,
    helper: &mut HistAggregator,
    shares: &[SubmissionShare; 2],
) -> bool {
    let m0 = leader.verify_round1(&shares[0]);
    let m1 = helper.verify_round1(&shares[1]);
    let (Ok(z0), Ok(z1)) = (
        leader.verify_round2(&shares[0], &m0, &m1),
        helper.verify_round2(&shares[1], &m1, &m0),
    ) else {
        return false; // shares of different widths: nothing to verify
    };
    let s0 = leader.sum_share(&shares[0]);
    let s1 = helper.sum_share(&shares[1]);
    let a = leader.finish(&shares[0], &z0, &z1, s0, s1);
    let b = helper.finish(&shares[1], &z1, &z0, s1, s0);
    assert_eq!(a, b);
    a == Ok(true)
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn honest_votes_tally_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        let mut leader = HistAggregator::new(0, 4);
        let mut helper = HistAggregator::new(1, 4);
        for &bucket in &[0usize, 2, 2, 3, 1, 2] {
            let shares = submit_histogram(&mut rng, bucket, 4);
            assert!(process_histogram_locally(&mut leader, &mut helper, &shares));
        }
        assert_eq!(
            collect_histogram(&leader.accum, &helper.accum),
            vec![1, 1, 3, 1]
        );
    }

    #[test]
    fn double_vote_rejected_by_sum_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let mut leader = HistAggregator::new(0, 3);
        let mut helper = HistAggregator::new(1, 3);
        let bad = submit_histogram_malicious(&mut rng, 3, 0);
        assert!(!process_histogram_locally(&mut leader, &mut helper, &bad));
        assert_eq!(leader.rejected, 1);
    }

    #[test]
    fn empty_vote_rejected_by_sum_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(62);
        let mut leader = HistAggregator::new(0, 3);
        let mut helper = HistAggregator::new(1, 3);
        let bad = submit_histogram_malicious(&mut rng, 3, 1);
        assert!(!process_histogram_locally(&mut leader, &mut helper, &bad));
    }

    #[test]
    fn weighted_vote_rejected_by_bit_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(63);
        let mut leader = HistAggregator::new(0, 3);
        let mut helper = HistAggregator::new(1, 3);
        let bad = submit_histogram_malicious(&mut rng, 3, 2);
        assert!(!process_histogram_locally(&mut leader, &mut helper, &bad));
    }

    #[test]
    fn poisoned_tally_excludes_only_bad_votes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        let mut leader = HistAggregator::new(0, 2);
        let mut helper = HistAggregator::new(1, 2);
        for _ in 0..3 {
            let good = submit_histogram(&mut rng, 1, 2);
            process_histogram_locally(&mut leader, &mut helper, &good);
        }
        for kind in 0..3u8 {
            let bad = submit_histogram_malicious(&mut rng, 2, kind);
            process_histogram_locally(&mut leader, &mut helper, &bad);
        }
        assert_eq!(leader.accepted, 3);
        assert_eq!(leader.rejected, 3);
        assert_eq!(collect_histogram(&leader.accum, &helper.accum), vec![0, 3]);
    }
}
