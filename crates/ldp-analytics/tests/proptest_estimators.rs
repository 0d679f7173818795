//! Property-based tests for the aggregator-side estimators.
//!
//! The statistical properties use `ldp_core::testutil`'s confidence-bounded
//! assertions instead of hand-tuned tolerances: the allowed error is
//! derived from the estimator's analytic variance at a ~1e-5 tail z-score,
//! and every RNG stream is seeded, so a failure means a wrong estimator,
//! not an unlucky draw.

use ldp_analytics::{FrequencyAccumulator, MeanAccumulator};
use ldp_core::multidim::SparseReport;
use ldp_core::numeric::Hybrid;
use ldp_core::rng::seeded_rng;
use ldp_core::{
    assert_within_ci, AnyOracle, AttrReport, CategoricalReport, Epsilon, NumericMechanism,
    OracleKind,
};
use proptest::prelude::*;
use rand::rngs::StdRng;

/// A report carrying one numeric entry per attribute.
fn row(values: &[f64]) -> SparseReport {
    SparseReport {
        d: values.len(),
        entries: (0..)
            .zip(values)
            .map(|(j, &x)| (j, AttrReport::Numeric(x)))
            .collect(),
    }
}

/// Absorbs one report of `v` from the oracle's sampler into `acc`.
fn absorb(acc: &mut FrequencyAccumulator, oracle: &AnyOracle, v: u32, rng: &mut StdRng) {
    let mut rep = CategoricalReport::Value(0);
    oracle.perturb_into(v, rng, &mut rep).unwrap();
    acc.count_report(&rep);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The mean estimate is exactly the arithmetic average of the absorbed
    /// dense reports (no hidden scaling).
    #[test]
    fn mean_accumulator_is_plain_average(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3), 1..50),
    ) {
        let mut acc = MeanAccumulator::new(3);
        for values in &rows {
            acc.add_sparse(&row(values)).unwrap();
        }
        let est = acc.estimate().unwrap();
        for j in 0..3 {
            let expect: f64 = rows.iter().map(|r| r[j]).sum::<f64>() / rows.len() as f64;
            prop_assert!((est[j] - expect).abs() < 1e-9);
        }
        // Clamped estimates are the same values clipped to [-1, 1].
        for (c, e) in acc.estimate_clamped().unwrap().iter().zip(&est) {
            prop_assert_eq!(*c, e.clamp(-1.0, 1.0));
        }
    }

    /// Merging any 2-way split of the reports gives the same estimate as
    /// sequential accumulation (up to addition order).
    #[test]
    fn mean_merge_is_associative(
        rows in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 2), 2..60),
        cut in 1usize..59,
    ) {
        prop_assume!(cut < rows.len());
        let mut whole = MeanAccumulator::new(2);
        let mut left = MeanAccumulator::new(2);
        let mut right = MeanAccumulator::new(2);
        for (i, values) in rows.iter().enumerate() {
            whole.add_sparse(&row(values)).unwrap();
            if i < cut { &mut left } else { &mut right }.add_sparse(&row(values)).unwrap();
        }
        left.merge(&right).unwrap();
        prop_assert_eq!(left.n(), whole.n());
        for (a, b) in left.estimate().unwrap().iter().zip(whole.estimate().unwrap()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Frequency estimates are linear in the declared population: doubling
    /// n halves every estimate.
    #[test]
    fn frequency_population_scaling(seed in 0u64..200, k in 2u32..12) {
        let oracle = OracleKind::Oue.build(Epsilon::new(1.0).unwrap(), k).unwrap();
        let mut rng = seeded_rng(seed);
        let mut acc = FrequencyAccumulator::new(k, 1.0, oracle.debias_params());
        for i in 0..20u32 {
            absorb(&mut acc, &oracle, i % k, &mut rng);
        }
        acc.set_population(100);
        let at_100 = acc.estimate().unwrap();
        acc.set_population(200);
        let at_200 = acc.estimate().unwrap();
        for (a, b) in at_100.iter().zip(&at_200) {
            prop_assert!((a - 2.0 * b).abs() < 1e-12);
        }
    }

    /// Debiased OUE frequency estimates concentrate around the truth at
    /// the CLT rate for every (seed, k, ε): the error stays inside the
    /// confidence bound derived from the oracle's support variance.
    #[test]
    fn oue_estimates_within_analytic_ci(seed in 0u64..1000, k in 2u32..10, eps in 0.4f64..4.0) {
        let oracle = OracleKind::Oue.build(Epsilon::new(eps).unwrap(), k).unwrap();
        let mut rng = seeded_rng(seed);
        let n = 20_000usize;
        let mut acc = FrequencyAccumulator::new(k, 1.0, oracle.debias_params());
        // Deterministic round-robin values: the true frequency of each
        // category is known exactly, so only response noise remains.
        for i in 0..n as u32 {
            absorb(&mut acc, &oracle, i % k, &mut rng);
        }
        let est = acc.estimate().unwrap();
        for target in 0..k {
            let truth =
                (0..n as u32).filter(|i| i % k == target).count() as f64 / n as f64;
            // With values fixed, `support_variance(truth)` upper-bounds the
            // per-report variance (Jensen: x(1−x) is concave), so the CLT
            // interval is conservative.
            assert_within_ci!(
                est[target as usize],
                truth,
                oracle.as_dyn().support_variance(truth),
                n,
                "k={k} eps={eps} target={target}"
            );
        }
    }

    /// Mean estimation from HM reports lands inside the CLT interval built
    /// from the mechanism's own `variance(t)` for every (seed, t, ε).
    #[test]
    fn hm_mean_estimates_within_analytic_ci(
        seed in 0u64..1000,
        t in -1.0f64..=1.0,
        eps in 0.4f64..6.0,
    ) {
        let hm = Hybrid::new(Epsilon::new(eps).unwrap());
        let mut rng = seeded_rng(seed);
        let n = 20_000usize;
        let mut acc = MeanAccumulator::new(1);
        for _ in 0..n {
            acc.add_sparse(&row(&[hm.perturb(t, &mut rng).unwrap()])).unwrap();
        }
        let est = acc.estimate().unwrap();
        assert_within_ci!(est[0], t, hm.variance(t), n, "eps={eps} t={t}");
    }

    /// Normalized frequency estimates always form a probability vector.
    #[test]
    fn normalized_estimates_on_simplex(seed in 0u64..200, k in 2u32..12, n in 1usize..40) {
        let oracle = OracleKind::Oue.build(Epsilon::new(0.5).unwrap(), k).unwrap();
        let mut rng = seeded_rng(seed);
        let mut acc = FrequencyAccumulator::new(k, 1.0, oracle.debias_params());
        for i in 0..n as u32 {
            absorb(&mut acc, &oracle, i % k, &mut rng);
        }
        let est = acc.estimate_normalized().unwrap();
        prop_assert!((est.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(est.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }
}
