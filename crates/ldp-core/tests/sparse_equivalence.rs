//! Distribution-equivalence tests for the sparse unary samplers.
//!
//! OUE/SUE's one sampler (`AnyOracle::perturb_into`) draws the number of
//! flipped non-true bits and places them with Floyd's algorithm (O(k·q)
//! draws) instead of the naive per-bit Bernoulli loop that
//! `ldp_core::testutil::perturb_naive` keeps as the reference. The two
//! paths must be identical in distribution; these tests pin the per-bit
//! marginals and the popcount moments of both paths to the analytic values
//! with CI-bounded assertions (`ldp_core::testutil`), at fixed seeds.

use ldp_core::testutil::{fixture_rng, perturb_naive};
use ldp_core::{assert_within_ci, AnyOracle, CategoricalReport, Epsilon, OracleKind};
use rand::rngs::StdRng;

/// Per-bit empirical one-frequencies and mean/variance of the popcount.
struct BitStats {
    ones_freq: Vec<f64>,
    popcount_mean: f64,
    popcount_var: f64,
}

fn collect_stats<F>(k: u32, n: usize, mut draw: F) -> BitStats
where
    F: FnMut() -> CategoricalReport,
{
    let mut ones = vec![0usize; k as usize];
    let mut pop_sum = 0.0f64;
    let mut pop_sq = 0.0f64;
    for _ in 0..n {
        let CategoricalReport::Bits(bits) = draw() else {
            panic!("unary oracle must emit bit reports");
        };
        assert_eq!(bits.len(), k);
        for v in bits.iter_ones() {
            ones[v as usize] += 1;
        }
        let c = f64::from(bits.count_ones());
        pop_sum += c;
        pop_sq += c * c;
    }
    let popcount_mean = pop_sum / n as f64;
    BitStats {
        ones_freq: ones.iter().map(|&c| c as f64 / n as f64).collect(),
        popcount_mean,
        popcount_var: pop_sq / n as f64 - popcount_mean * popcount_mean,
    }
}

/// One report from the oracle's sampler.
fn perturb(oracle: &AnyOracle, value: u32, rng: &mut StdRng) -> CategoricalReport {
    let mut out = CategoricalReport::Value(0);
    oracle.perturb_into(value, rng, &mut out).unwrap();
    out
}

/// Asserts both sampling paths match the analytic per-bit marginals
/// `Pr[b_true = 1] = p`, `Pr[b_other = 1] = q` and the popcount moments
/// `mean = p + (k−1)q`, `var = p(1−p) + (k−1)q(1−q)`.
fn assert_paths_match(oracle: &AnyOracle, seed_tag: &str) {
    let k = oracle.k();
    let value = k / 2;
    let n = 60_000;
    let params = oracle.debias_params();
    let (p, q) = (params.p, params.q);
    let mut rng_sparse = fixture_rng(&format!("{seed_tag}::sparse"));
    let mut rng_naive = fixture_rng(&format!("{seed_tag}::naive"));
    let sparse = collect_stats(k, n, || perturb(oracle, value, &mut rng_sparse));
    let naive = collect_stats(k, n, || {
        perturb_naive(oracle, value, &mut rng_naive).unwrap()
    });
    for stats in [&sparse, &naive] {
        for (v, &freq) in stats.ones_freq.iter().enumerate() {
            let expect = if v as u32 == value { p } else { q };
            assert_within_ci!(
                freq,
                expect,
                expect * (1.0 - expect),
                n,
                "{seed_tag} bit {v}"
            );
        }
        let mean = p + f64::from(k - 1) * q;
        let var = p * (1.0 - p) + f64::from(k - 1) * q * (1.0 - q);
        assert_within_ci!(stats.popcount_mean, mean, var, n, "{seed_tag} popcount");
        // The empirical variance of n popcounts concentrates with standard
        // deviation ≈ var·√(2/n) for the near-Gaussian popcount sum.
        assert!(
            (stats.popcount_var - var).abs() <= 4.4172 * var * (2.0 / n as f64).sqrt(),
            "{seed_tag}: popcount variance {} vs {}",
            stats.popcount_var,
            var
        );
    }
}

#[test]
fn oue_sparse_matches_naive_marginals() {
    for (eps, k) in [(0.5, 8u32), (1.0, 64), (4.0, 128)] {
        let oracle = OracleKind::Oue
            .build(Epsilon::new(eps).unwrap(), k)
            .unwrap();
        assert_paths_match(&oracle, &format!("sparse_eq::oue::{eps}::{k}"));
    }
}

#[test]
fn sue_sparse_matches_naive_marginals() {
    for (eps, k) in [(1.0, 16u32), (2.0, 96)] {
        let oracle = OracleKind::Sue
            .build(Epsilon::new(eps).unwrap(), k)
            .unwrap();
        assert_paths_match(&oracle, &format!("sparse_eq::sue::{eps}::{k}"));
    }
}

#[test]
fn sparse_and_naive_support_sums_agree_statistically() {
    // End-to-end: debiased support sums from both paths estimate the same
    // frequencies. All users hold the same value, so the estimate of that
    // value must be ≈ 1 under both samplers.
    let eps = Epsilon::new(1.0).unwrap();
    let k = 32u32;
    let oracle = OracleKind::Oue.build(eps, k).unwrap();
    let described = oracle.as_dyn();
    let n = 40_000;
    let mut rng = fixture_rng("sparse_eq::support_sums");
    let mut sum_sparse = 0.0;
    let mut sum_naive = 0.0;
    for _ in 0..n {
        sum_sparse += described.support(&perturb(&oracle, 7, &mut rng), 7);
        sum_naive += described.support(&perturb_naive(&oracle, 7, &mut rng).unwrap(), 7);
    }
    let var = described.support_variance(1.0);
    assert_within_ci!(sum_sparse / n as f64, 1.0, var, n, "sparse path");
    assert_within_ci!(sum_naive / n as f64, 1.0, var, n, "naive path");
}
