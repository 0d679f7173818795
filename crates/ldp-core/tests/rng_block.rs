//! The batched-RNG equivalence contract.
//!
//! Everything the streaming pipelines gained from [`RngBlock`] rests on one
//! property: a block is a bit-exact, capacity-independent prefix of its
//! inner generator's stream. These tests pin that property three ways —
//! against the scalar paths of the bounded-index draw and the geometric-gap
//! walk under fixed seeds, through the full perturbation stack (reports,
//! not just raw draws), and as a proptest over random seeds and block
//! sizes.

use ldp_core::multidim::{SamplingPerturber, SparseReport};
use ldp_core::rng::{
    bernoulli, for_each_bernoulli_index, sample_distinct_into, seeded_rng, uniform_index, RngBlock,
};
use ldp_core::{AttrSpec, AttrValue, CategoricalReport, Epsilon, NumericKind, OracleKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngCore;

/// Exhaustive scalar-vs-batched equivalence of `uniform_index` over every
/// bound in a dense range.
#[test]
fn uniform_index_matches_scalar_path_exhaustively() {
    for seed in [0u64, 1, 42, 20190408] {
        let mut scalar = seeded_rng(seed);
        let mut batched = RngBlock::<_, 19>::new(seeded_rng(seed));
        for bound in 1..=512u32 {
            assert_eq!(
                uniform_index(&mut scalar, bound),
                uniform_index(&mut batched, bound),
                "seed={seed} bound={bound}"
            );
        }
    }
}

/// The geometric-gap walk (the unary oracles' underflow fallback) visits
/// identical indices through either path.
#[test]
fn bernoulli_index_walk_matches_scalar_path() {
    let mut scalar = seeded_rng(9);
    let mut batched = RngBlock::<_, 3>::new(seeded_rng(9));
    for _ in 0..200 {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for_each_bernoulli_index(&mut scalar, 96, 0.13, |i| a.push(i));
        for_each_bernoulli_index(&mut batched, 96, 0.13, |i| b.push(i));
        assert_eq!(a, b);
    }
}

/// Full-stack equivalence: a SamplingPerturber over a mixed schema produces
/// bit-identical sparse reports whether driven by the bare generator (the
/// scalar path) or any capacity of RngBlock (the batched path).
#[test]
fn perturber_reports_are_identical_scalar_vs_batched() {
    let specs = vec![
        AttrSpec::Numeric,
        AttrSpec::Categorical { k: 24 },
        AttrSpec::Categorical { k: 7 },
        AttrSpec::Numeric,
    ];
    for oracle in [OracleKind::Oue, OracleKind::Sue, OracleKind::Grr] {
        let p = SamplingPerturber::with_k(
            Epsilon::new(2.0).unwrap(),
            specs.clone(),
            NumericKind::Hybrid,
            oracle,
            3,
        )
        .unwrap();
        let tuple = vec![
            AttrValue::Numeric(0.4),
            AttrValue::Categorical(11),
            AttrValue::Categorical(0),
            AttrValue::Numeric(-0.9),
        ];
        let mut scalar = seeded_rng(314);
        let mut batched = RngBlock::<_, 11>::new(seeded_rng(314));
        let mut report_a = SparseReport::with_capacity(p.d(), p.k());
        let mut report_b = SparseReport::with_capacity(p.d(), p.k());
        let mut scratch_a = p.scratch();
        let mut scratch_b = p.scratch();
        for round in 0..300 {
            p.perturb_into(&tuple, &mut scalar, &mut report_a, &mut scratch_a)
                .unwrap();
            p.perturb_into(&tuple, &mut batched, &mut report_b, &mut scratch_b)
                .unwrap();
            assert_eq!(
                report_a.entries, report_b.entries,
                "{oracle:?} round {round}"
            );
        }
    }
}

/// Same contract one layer down: every oracle and every numeric mechanism,
/// through its one handle, draws identically from an RngBlock and from the
/// bare generator.
#[test]
fn any_handles_match_across_block_and_bare_rng() {
    let eps = Epsilon::new(1.3).unwrap();
    for kind in [OracleKind::Oue, OracleKind::Sue, OracleKind::Grr] {
        let oracle = kind.build(eps, 33).unwrap();
        let mut rng_a: RngBlock<StdRng> = RngBlock::new(seeded_rng(77));
        let mut rng_b = seeded_rng(77);
        let mut out_a = CategoricalReport::Value(0);
        let mut out_b = CategoricalReport::Value(0);
        for v in (0..33).cycle().take(500) {
            oracle.perturb_into(v, &mut rng_a, &mut out_a).unwrap();
            oracle.perturb_into(v, &mut rng_b, &mut out_b).unwrap();
            assert_eq!(out_a, out_b, "{kind:?} v={v}");
        }
    }
    for kind in NumericKind::ALL {
        let mech = kind.build(eps);
        let mut rng_a = RngBlock::<_, 13>::new(seeded_rng(78));
        let mut rng_b = seeded_rng(78);
        for round in 0..500 {
            // Inputs sweep [-1, 1], both endpoints included.
            let t = -1.0 + 2.0 * f64::from(round % 101) / 100.0;
            let a = mech.perturb(t, &mut rng_a).unwrap();
            let b = mech.perturb(t, &mut rng_b).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} round {round}");
        }
    }
}

/// The first `draws` outputs of a `LEN`-buffered block under `seed`.
fn stream<const LEN: usize>(seed: u64, draws: usize) -> Vec<u64> {
    let mut block = RngBlock::<_, LEN>::new(seeded_rng(seed));
    (0..draws).map(|_| block.next_u64()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Block-size invariance: every buffer length — 1, coprime sizes, the
    /// default, and sizes far larger than the number of draws — yields the
    /// same stream for the same seed, and that stream is the bare
    /// generator's.
    #[test]
    fn block_size_never_changes_the_stream(
        seed in 0u64..u64::MAX,
        draws in 1usize..800,
    ) {
        let mut bare = seeded_rng(seed);
        let reference: Vec<u64> = (0..draws).map(|_| bare.next_u64()).collect();
        prop_assert_eq!(&stream::<1>(seed, draws), &reference);
        prop_assert_eq!(&stream::<2>(seed, draws), &reference);
        prop_assert_eq!(&stream::<7>(seed, draws), &reference);
        prop_assert_eq!(&stream::<19>(seed, draws), &reference);
        prop_assert_eq!(&stream::<256>(seed, draws), &reference);
        prop_assert_eq!(&stream::<1009>(seed, draws), &reference);
    }

    /// Block-seeded perturbation runs are invariant to block size: the same
    /// user sequence through differently-sized RngBlocks produces the same
    /// distinct-index samples (the draw pattern Algorithm 4's sampling step
    /// makes per user).
    #[test]
    fn block_seeded_sampling_invariant_to_block_size(
        seed in 0u64..u64::MAX,
        d in 2usize..64,
    ) {
        let k = 1 + d / 3;
        let mut reference = RngBlock::<_, 64>::new(seeded_rng(seed));
        let mut small = RngBlock::<_, 5>::new(seeded_rng(seed));
        let mut large = RngBlock::<_, 2048>::new(seeded_rng(seed));
        let mut buf_a = Vec::new();
        let mut buf_b = Vec::new();
        let mut buf_c = Vec::new();
        for _ in 0..20 {
            sample_distinct_into(&mut reference, d, k, &mut buf_a);
            sample_distinct_into(&mut small, d, k, &mut buf_b);
            sample_distinct_into(&mut large, d, k, &mut buf_c);
            prop_assert_eq!(&buf_a, &buf_b);
            prop_assert_eq!(&buf_a, &buf_c);
            let coin = bernoulli(&mut reference, 0.4);
            prop_assert_eq!(coin, bernoulli(&mut small, 0.4));
            prop_assert_eq!(coin, bernoulli(&mut large, 0.4));
        }
    }
}
