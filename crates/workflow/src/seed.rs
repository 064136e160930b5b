//! The one seeded mixer: SplitMix64 (Steele, Lea and Flood, 2014).
//!
//! Every reproducible stream and hash in the workspace goes through this
//! module: fault outcomes in the offload runtime, ring points and
//! arrival seeds in the serving tier, and knob sampling in the dataset
//! factory and the surrogate explorer. [`mix`] is the stateless
//! finalizer (decorrelates structured words such as `(seed, index)`
//! combinations); [`next`] is the stream step built on it. Both are
//! `#[inline]` because they sit on per-call hot paths in other crates.

/// The SplitMix64 stream increment, 2^64 / φ rounded to odd.
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer of `z + GAMMA`: a bijective, well-mixed hash
/// of one 64-bit word.
#[inline]
pub fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of the SplitMix64 stream: advances `state` by [`GAMMA`] and
/// returns the mixed new state.
#[inline]
pub fn next(state: &mut u64) -> u64 {
    let out = mix(*state);
    *state = state.wrapping_add(GAMMA);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_matches_pinned_outputs() {
        // Pinned so reproducible streams (dataset rows, fault plans,
        // ring points) cannot drift silently.
        assert_eq!(mix(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(mix(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }

    #[test]
    fn stream_matches_the_reference_splitmix64_sequence() {
        // The first outputs of SplitMix64 seeded with 0, as published
        // with the reference C implementation.
        let mut state = 0;
        let got: Vec<u64> = (0..3).map(|_| next(&mut state)).collect();
        assert_eq!(got, [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]);
        assert_eq!(state, GAMMA.wrapping_mul(3));
    }
}
