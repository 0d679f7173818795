//! Property tests for the client/aggregator session split.
//!
//! The contract under test: driving the public [`ClientEncoder`] /
//! [`Aggregator`] API over the public block plan ([`block_partition`] +
//! [`block_rng`]) reproduces [`Collector::run`] **bit for bit** — for both
//! protocol families, every oracle, across ε, d, k and shard counts — and
//! the per-block partials may be merged in any order (the ordinal-keyed
//! fold makes out-of-order merges exact, not approximate).

use ldp_analytics::{
    block_partition, block_rng, Aggregator, BestEffortNumeric, ClientEncoder, CollectionResult,
    Collector, Protocol, BLOCK_USERS,
};
use ldp_core::rng::{seeded_rng, RngBlock};
use ldp_core::{AttrValue, Epsilon, NumericKind, OracleKind};
use ldp_data::{Attribute, Column, Dataset, Schema};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;

/// A mixed dataset: `d_num` numeric attributes in `[-1, 1]` and one
/// categorical attribute per entry of `doms`.
fn mixed_dataset(n: usize, d_num: usize, doms: &[u32], seed: u64) -> Dataset {
    let mut rng = seeded_rng(seed);
    let mut attrs = Vec::new();
    let mut columns = Vec::new();
    for a in 0..d_num {
        attrs.push(Attribute::numeric(&format!("x{a}"), -1.0, 1.0).unwrap());
        columns.push(Column::Numeric(
            (0..n).map(|_| rng.random_range(-1.0..=1.0)).collect(),
        ));
    }
    for (a, &k) in doms.iter().enumerate() {
        attrs.push(Attribute::categorical(&format!("c{a}"), k).unwrap());
        columns.push(Column::Categorical(
            (0..n).map(|_| rng.random_range(0..k)).collect(),
        ));
    }
    Dataset::new(Schema::new(attrs).unwrap(), columns).unwrap()
}

/// Reproduces one `Collector::run` through the public session API alone:
/// per block of the public partition, a fresh `RngBlock` over the public
/// per-block seed, a `ClientEncoder` producing a materialized [`Report`]
/// per user (`encode_into`), and an [`Aggregator`] partial keyed by the
/// block ordinal (`absorb`). The partials are then merged in the order
/// given by `merge_order_seed` — deliberately *not* block order.
fn session_run(
    protocol: Protocol,
    eps: Epsilon,
    dataset: &Dataset,
    seed: u64,
    shards: usize,
    merge_order_seed: u64,
) -> CollectionResult {
    let encoder = ClientEncoder::new(protocol, eps, dataset.schema().attr_specs()).unwrap();
    let blocks = block_partition(dataset.n(), shards);
    let mut partials: Vec<Aggregator> = blocks
        .iter()
        .enumerate()
        .map(|(b, range)| {
            let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(seed, b));
            let mut agg = encoder.aggregator().unwrap().with_ordinal(b as u64);
            let mut report = encoder.empty_report();
            let mut scratch = encoder.scratch();
            let mut tuple: Vec<AttrValue> = Vec::new();
            for i in range.clone() {
                dataset.canonical_tuple_into(i, &mut tuple);
                encoder
                    .encode_into(&tuple, &mut rng, &mut report, &mut scratch)
                    .unwrap();
                agg.absorb(&report).unwrap();
            }
            agg
        })
        .collect();
    partials.shuffle(&mut seeded_rng(merge_order_seed));
    let mut total = encoder.aggregator().unwrap();
    for p in partials {
        total.merge(p).unwrap();
    }
    total.snapshot().unwrap()
}

fn assert_bit_identical(a: &CollectionResult, b: &CollectionResult, label: &str) {
    assert_eq!(a.n, b.n, "{label}: population");
    let (ma, mb) = (a.mean_vector(), b.mean_vector());
    assert_eq!(ma.len(), mb.len(), "{label}: mean arity");
    for (j, (x, y)) in ma.iter().zip(&mb).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: mean[{j}] {x} vs {y}");
    }
    assert_eq!(a.frequencies.len(), b.frequencies.len(), "{label}");
    for ((ja, fa), (jb, fb)) in a.frequencies.iter().zip(&b.frequencies) {
        assert_eq!(ja, jb, "{label}: frequency attribute order");
        for (v, (x, y)) in fa.iter().zip(fb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: freq[{ja}][{v}] {x} vs {y}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sampling (HM + every oracle): the session split reproduces the
    /// collector bit-identically across ε, d, k, shard counts and merge
    /// orders.
    #[test]
    fn sampling_session_reproduces_collector(
        seed in 0u64..1_000_000,
        merge_order_seed in 0u64..1_000_000,
        eps in 0.5f64..6.0,
        n in 200usize..900,
        d_num in 0usize..3,
        doms in prop::collection::vec(2u32..40, 0..3),
        shards in 1usize..5,
        oracle_pick in 0u8..3,
    ) {
        prop_assume!(d_num + doms.len() > 0);
        let oracle = [OracleKind::Oue, OracleKind::Sue, OracleKind::Grr][oracle_pick as usize];
        let protocol = Protocol::Sampling { numeric: NumericKind::Hybrid, oracle };
        let eps = Epsilon::new(eps).unwrap();
        let dataset = mixed_dataset(n, d_num, &doms, seed ^ 0xDA7A);
        let reference = Collector::new(protocol, eps)
            .with_shards(shards)
            .run(&dataset, seed)
            .unwrap();
        let session = session_run(protocol, eps, &dataset, seed, shards, merge_order_seed);
        assert_bit_identical(&reference, &session, &format!("{oracle:?}"));
    }

    /// Composition (Laplace + OUE, the §VI-A budget-splitting baseline):
    /// same bit-exact reproduction through the dense report path.
    #[test]
    fn composition_session_reproduces_collector(
        seed in 0u64..1_000_000,
        merge_order_seed in 0u64..1_000_000,
        eps in 0.5f64..6.0,
        n in 200usize..900,
        d_num in 0usize..3,
        doms in prop::collection::vec(2u32..40, 0..3),
        shards in 1usize..5,
        duchi in prop::bool::ANY,
    ) {
        prop_assume!(d_num + doms.len() > 0);
        // Duchi's joint mechanism needs a numeric block to act on.
        prop_assume!(!duchi || d_num > 0);
        let numeric = if duchi {
            BestEffortNumeric::DuchiMultidim
        } else {
            BestEffortNumeric::PerAttribute(NumericKind::Laplace)
        };
        let protocol = Protocol::BestEffort { numeric, oracle: OracleKind::Oue };
        let eps = Epsilon::new(eps).unwrap();
        let dataset = mixed_dataset(n, d_num, &doms, seed ^ 0xC0DE);
        let reference = Collector::new(protocol, eps)
            .with_shards(shards)
            .run(&dataset, seed)
            .unwrap();
        let session = session_run(protocol, eps, &dataset, seed, shards, merge_order_seed);
        assert_bit_identical(&reference, &session, if duchi { "Duchi" } else { "Laplace" });
    }
}

/// Out-of-order partial merges at *block* granularity: force shard ranges
/// larger than [`BLOCK_USERS`] so shards split into several seeded blocks,
/// then merge the per-block partials in reversed and shuffled orders.
#[test]
fn multi_block_out_of_order_merge_is_bit_identical() {
    let n = 2 * BLOCK_USERS + 777;
    let doms = [7u32];
    let dataset = mixed_dataset(n, 1, &doms, 99);
    let protocol = Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    };
    let eps = Epsilon::new(4.0).unwrap();
    let shards = 2; // 2 shards → 2–3 blocks each
    assert!(
        block_partition(n, shards).len() > shards,
        "test must exercise multiple blocks per shard"
    );
    let reference = Collector::new(protocol, eps)
        .with_shards(shards)
        .run(&dataset, 21)
        .unwrap();
    for merge_order_seed in [1u64, 2, 3] {
        let session = session_run(protocol, eps, &dataset, 21, shards, merge_order_seed);
        assert_bit_identical(&reference, &session, "multi-block");
    }
}

/// Tree reduction: merging partials pairwise up a reduction tree gives the
/// same bits as a flat fold — the property a sharded or federated deployment
/// relies on.
#[test]
fn tree_reduction_matches_flat_merge() {
    let dataset = mixed_dataset(1_000, 1, &[5, 3], 7);
    let protocol = Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    };
    let eps = Epsilon::new(2.0).unwrap();
    let encoder = ClientEncoder::new(protocol, eps, dataset.schema().attr_specs()).unwrap();
    let blocks = block_partition(dataset.n(), 4);
    let partials: Vec<Aggregator> = blocks
        .iter()
        .enumerate()
        .map(|(b, range)| {
            let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(7, b));
            let mut agg = encoder.aggregator().unwrap().with_ordinal(b as u64);
            let mut scratch = encoder.scratch();
            let mut tuple = Vec::new();
            for i in range.clone() {
                dataset.canonical_tuple_into(i, &mut tuple);
                agg.absorb_with(&encoder, &tuple, &mut rng, &mut scratch)
                    .unwrap();
            }
            agg
        })
        .collect();
    // Flat fold, in block order.
    let mut flat = encoder.aggregator().unwrap();
    for p in partials.iter().cloned() {
        flat.merge(p).unwrap();
    }
    // Tree: (0 ⊕ 2) ⊕ (3 ⊕ 1).
    let mut left = partials[0].clone();
    left.merge(partials[2].clone()).unwrap();
    let mut right = partials[3].clone();
    right.merge(partials[1].clone()).unwrap();
    left.merge(right).unwrap();
    assert_bit_identical(
        &flat.snapshot().unwrap(),
        &left.snapshot().unwrap(),
        "tree reduction",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full-layout wire codec of `Report::Composition` round-trips
    /// genuine encoder output — unary and direct payloads, word-straddling
    /// domains, numeric-only and categorical-only schemas alike — and its
    /// encoded size is exactly the canonical `full_report_bits` accounting.
    #[test]
    fn composition_wire_codec_round_trips(
        seed in 0u64..1_000_000,
        eps in 0.4f64..8.0,
        d_num in 0usize..3,
        doms in prop::collection::vec(2u32..200, 0..4),
        grr in prop::bool::ANY,
    ) {
        use ldp_analytics::Report;
        use ldp_core::multidim::wire;
        use ldp_core::AttrSpec;
        prop_assume!(d_num + doms.len() > 0);
        let mut specs: Vec<AttrSpec> = (0..d_num).map(|_| AttrSpec::Numeric).collect();
        specs.extend(doms.iter().map(|&k| AttrSpec::Categorical { k }));
        let oracle = if grr { OracleKind::Grr } else { OracleKind::Oue };
        let encoder = ClientEncoder::new(
            Protocol::BestEffort {
                numeric: BestEffortNumeric::PerAttribute(NumericKind::Laplace),
                oracle,
            },
            Epsilon::new(eps).unwrap(),
            specs.clone(),
        )
        .unwrap();
        let mut rng = seeded_rng(seed);
        let tuple: Vec<AttrValue> = specs
            .iter()
            .map(|s| match s {
                AttrSpec::Numeric => AttrValue::Numeric(0.4),
                AttrSpec::Categorical { k } => AttrValue::Categorical(k - 1),
            })
            .collect();
        for _ in 0..4 {
            let Report::Composition(report) = encoder.encode(&tuple, &mut rng).unwrap() else {
                unreachable!("composition protocol");
            };
            let bytes = wire::encode_full(&report, &specs);
            prop_assert_eq!(
                bytes.len(),
                wire::full_report_bits(&specs, !grr).div_ceil(8),
                "encoded size must equal the canonical accounting"
            );
            let back = wire::decode_full(&specs, &bytes, !grr).unwrap();
            prop_assert_eq!(&back, &report, "codec round trip diverged");
        }
    }
}
