//! Property-based equivalence tests for the word-histogram aggregation
//! plane.
//!
//! The contract under test is *exactness*: absorbing unary reports by
//! 64-bit words into the bit-sliced [`WordHistogram`] — across any domain
//! size (word-multiple or not), any plane depth / flush boundary, any
//! split of the stream into merged shards, and any oracle — must leave
//! counts and estimates **bit-identical** to the per-set-bit scatter it
//! replaced. No tolerance anywhere: these are integer counters and a
//! shared one-shot debias.

use ldp_analytics::{FrequencyAccumulator, WordHistogram};
use ldp_core::rng::seeded_rng;
use ldp_core::{BitVec, CategoricalReport, Epsilon, OracleKind};
use proptest::prelude::*;
use rand::RngCore;

/// A random well-formed k-bit vector with roughly `density` of its bits
/// set (word-RNG masked down, tail bits cleared).
fn random_bits(k: u32, density: u32, rng: &mut impl RngCore) -> BitVec {
    let words = (k as usize).div_ceil(64);
    let mut ws: Vec<u64> = (0..words)
        .map(|_| {
            // AND of `density` random words: P[bit set] = 2^-density.
            let mut w = rng.next_u64();
            for _ in 1..density {
                w &= rng.next_u64();
            }
            w
        })
        .collect();
    let tail = k % 64;
    if tail != 0 {
        ws[words - 1] &= (1u64 << tail) - 1;
    }
    BitVec::from_words(k, ws).expect("masked to well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Raw kernel equivalence: `WordHistogram::add_words` counts exactly
    /// like a per-set-bit walk, for any k in 1..=300 (including
    /// non-word-multiple domains), any plane depth (so the stream crosses
    /// plane flushes every ≲ 2^planes reports), and with partially-filled
    /// batches and pending planes at read time.
    #[test]
    fn word_histogram_matches_scatter_for_any_domain_and_flush_boundary(
        k in 1u32..=300,
        planes in 4u32..=6,
        density in 1u32..=3,
        reports in 1usize..200,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = seeded_rng(seed);
        let mut hist = WordHistogram::with_planes(k, planes);
        let mut reference = vec![0u64; k as usize];
        for _ in 0..reports {
            let bits = random_bits(k, density, &mut rng);
            for v in bits.iter_ones() {
                reference[v as usize] += 1;
            }
            hist.add_bits(&bits);
        }
        prop_assert_eq!(hist.counts(), reference);
    }

    /// Accumulator-level equivalence across every oracle kind: absorbing a
    /// report stream via `count_report` leaves exactly the counts of a
    /// plain per-bit walk, whichever unary route the oracle's density
    /// picks (k and ε span both sides of the routing rule) — and so does
    /// chopping the stream into shards and merging them in a rotated
    /// (out-of-order) order, with bit-identical estimates.
    #[test]
    fn absorb_paths_and_merge_orders_are_bit_identical(
        oracle_pick in 0usize..3,
        k in 2u32..=300,
        eps in 0.4f64..6.0,
        reports in 1usize..150,
        shards in 1usize..6,
        rotate in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let oracle_kind = [OracleKind::Oue, OracleKind::Sue, OracleKind::Grr][oracle_pick];
        let eps = Epsilon::new(eps).unwrap();
        let oracle = oracle_kind.build(eps, k).unwrap();
        let debias = oracle.debias_params();
        let scale = 1.75; // arbitrary protocol scale, shared by all sides
        let mut rng = seeded_rng(seed);

        let mut by_count = FrequencyAccumulator::new(k, scale, debias);
        let mut parts: Vec<FrequencyAccumulator> = (0..shards)
            .map(|_| FrequencyAccumulator::new(k, scale, debias))
            .collect();

        // The semantic reference: one count per set bit or reported value.
        let mut reference = vec![0u64; k as usize];
        let mut rep = CategoricalReport::Value(0);
        for i in 0..reports {
            oracle.perturb_into(i as u32 % k, &mut rng, &mut rep).unwrap();
            match &rep {
                CategoricalReport::Bits(bits) => {
                    for v in 0..k {
                        reference[v as usize] += u64::from(bits.get(v));
                    }
                }
                CategoricalReport::Value(x) => reference[*x as usize] += 1,
            }
            by_count.count_report(&rep);
            parts[i % shards].count_report(&rep);
        }
        prop_assert_eq!(by_count.reports(), reports);
        prop_assert_eq!(&by_count.counts(), &reference);

        // Merge the shards starting from an arbitrary rotation: integer
        // counts make any merge order exact.
        let mut merged = FrequencyAccumulator::new(k, scale, debias);
        for s in 0..shards {
            merged.merge(&parts[(s + rotate) % shards]).unwrap();
        }
        prop_assert_eq!(merged.reports(), reports);
        prop_assert_eq!(&merged.counts(), &reference);

        // And the one-shot debias sees identical integers, so estimates are
        // bit-identical (not merely close).
        prop_assert_eq!(merged.estimate().unwrap(), by_count.estimate().unwrap());
    }
}
