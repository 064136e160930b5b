//! Pins the PTDR Monte-Carlo kernel bit for bit. `PtdrEngine::estimate`
//! is a pure function of (route, departure, samples, seed, LANES); any
//! change to its RNG draw order or to the order of its float operations
//! moves the FNV-1a digests below. A faster fill loop must reproduce
//! them exactly.
//!
//! The corpus covers the empty and the 1-edge route, sample counts on
//! both sides of a 32-lane block (1, 31, 32, 33, 250, 5 000), lane
//! counts 1, 7 and 32, departures that wrap past midnight or sit beyond
//! 2³² hours, and enough draws that the ziggurat's rejection paths run
//! often: over the three lane counts an instrumented build counted
//! 3 898 272 first words, 107 808 of them (2.77%) leaving the fast path
//! and 2 328 (0.06%) entering the tail sampler.

use everest_apps::traffic::serve::{LoadGen, ServeConfig, ServeTier, ShedPolicy};
use everest_apps::traffic::service::PtdrEngine;
use everest_apps::traffic::{generate_fcd, shortest_route, RoadNetwork, SpeedProfiles};

/// FNV-1a, 64-bit, folded over 8-byte words.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn city() -> (RoadNetwork, SpeedProfiles) {
    let network = RoadNetwork::grid(9, 8, 1.0);
    let fcd = generate_fcd(&network, 4, 60_000);
    let profiles = SpeedProfiles::learn(&network, &fcd);
    (network, profiles)
}

/// Digest of `mean_h`/`p95_h`/`std_h` bits over the whole corpus at one
/// lane count.
fn corpus_digest<const LANES: usize>(network: &RoadNetwork, profiles: &SpeedProfiles) -> u64 {
    let long = shortest_route(network, profiles, 0, network.nodes.len() - 1, 8).unwrap();
    assert!(long.len() >= 10, "corpus route too short: {}", long.len());
    let routes: [&[usize]; 3] = [&[], &long[..1], &long];
    let mut engine: PtdrEngine<LANES> = PtdrEngine::new();
    let mut hash = FNV_OFFSET;
    for route in routes {
        for samples in [1, 31, 32, 33, 250, 5_000] {
            for depart_hour in [0.0, 8.25, 23.9, 4.5e9] {
                for seed in 0..4u64 {
                    let s = engine.estimate(network, profiles, route, depart_hour, samples, seed);
                    for v in [s.mean_h, s.p95_h, s.std_h] {
                        hash = fnv1a(hash, v.to_bits());
                    }
                }
            }
        }
    }
    hash
}

#[test]
fn estimates_match_the_recorded_digests() {
    let (network, profiles) = city();
    let digests = [
        corpus_digest::<1>(&network, &profiles),
        corpus_digest::<7>(&network, &profiles),
        corpus_digest::<32>(&network, &profiles),
    ];
    assert_eq!(
        digests,
        [0x4f79_5c80_c991_058a, 0xa5d8_2fe6_1a25_f1c9, 0x7aa5_b35e_f723_056b],
        "digests (LANES 1, 7, 32): {digests:#018x?}"
    );
}

#[test]
fn serving_day_fingerprint_matches_at_jobs_1_and_2() {
    let (network, profiles) = city();
    let generator = LoadGen::new(&network, &profiles, 16, 3);
    let day = generator.generate(2, 20_000.0, 0.05, 2_000);
    assert!(!day.is_empty() && day.len() < 2_000, "day of {} arrivals", day.len());
    let run = |jobs: usize| {
        let mut config = ServeConfig::new(3);
        config.seed = 11;
        config.jobs = jobs;
        config.queue_depth = 16;
        config.policy = ShedPolicy::ShedOldest;
        let tier = ServeTier::new(network.clone(), profiles.clone(), config);
        let text = tier.run(&day).fingerprint();
        text.bytes().fold(FNV_OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    };
    let fingerprints = [run(1), run(2)];
    assert_eq!(fingerprints, [0xb61c_e885_df1b_4107; 2], "fingerprints: {fingerprints:#018x?}");
}
