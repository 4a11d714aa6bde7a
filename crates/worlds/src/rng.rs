//! A serializable deterministic RNG for population engines.
//!
//! The vendored `rand::StdRng` does not expose its internal state, so a
//! checkpointed run could not resume its random stream. The population
//! engine instead draws from this SplitMix64 generator: one `u64` of
//! state, trivially serialized, bit-for-bit portable. (Same finalizer as
//! `dcp_core::sweep::derive_seed`, so the whole workspace shares one
//! mixing function.)

/// SplitMix64: 64 bits of state, full-period, excellent diffusion —
/// ideal for simulation streams (not for cryptography, which this
/// workspace gets from `dcp-crypto`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The raw state, for checkpointing.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuild from a checkpointed state.
    pub fn from_state(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_restorable() {
        let mut a = SplitMix64::new(7);
        let x = a.next_u64();
        let saved = a.state();
        let y = a.next_u64();
        let mut b = SplitMix64::from_state(saved);
        assert_eq!(b.next_u64(), y, "resume mid-stream");
        assert_ne!(x, y);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(99);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
