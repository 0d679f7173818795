//! Shared test support: seeded RNG fixtures, confidence-bounded
//! statistical assertions, and the naive reference sampler for the
//! frequency oracles.
//!
//! Statistical tests in this workspace run at **fixed seeds** (the RNG is
//! fully deterministic — see `shims/README.md`), so an assertion either
//! always passes or always fails for a given seed. The helpers here replace
//! hand-tuned tolerances ("`< 0.05`, seems to work") with explicit
//! CLT/Chernoff-style confidence bounds: the tolerance is derived from the
//! estimator's analytic variance and the sample size, at a z-score whose
//! two-sided tail mass is ≈ 1e-5. A fixed seed landing outside such a bound
//! is then overwhelming evidence of an estimator bug (bias or mis-scaled
//! variance), not bad luck — which is exactly what a statistical test
//! should mean. (Arcolezi et al.'s audit of multidimensional-LDP analyses
//! is the cautionary tale for eyeballed tolerances.)

use crate::categorical::{check_category, AnyOracle};
use crate::error::Result;
use crate::mechanism::{BitVec, CategoricalReport, DebiasParams};
use crate::rng::{bernoulli, seeded_rng};
use rand::rngs::StdRng;
use rand::RngCore;

/// z-score used by every confidence bound here: `P(|Z| > 4.4172) ≈ 1e-5`
/// for a standard normal.
pub const Z_CI: f64 = 4.4172;

/// A deterministic RNG fixture derived from a test's name, so distinct
/// tests get decorrelated (but reproducible) streams without hand-picking
/// integer seeds. FNV-1a over the name, fed to [`seeded_rng`]. (The
/// proptest shim carries its own copy of this hash — it stands in for a
/// crates.io package and cannot depend on this crate.)
pub fn fixture_rng(test_name: &str) -> StdRng {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    seeded_rng(hash)
}

/// Half-width of the CLT confidence interval for a mean of `n` independent
/// samples with per-sample variance `var`: `Z_CI · √(var/n)`.
///
/// # Panics
/// Panics if `var` is negative or `n == 0`.
pub fn clt_half_width(var: f64, n: usize) -> f64 {
    assert!(var >= 0.0, "variance must be non-negative, got {var}");
    assert!(n > 0, "need at least one sample");
    Z_CI * (var / n as f64).sqrt()
}

/// Confidence bounds for an **empirical MSE** built from `cells`
/// (attribute × run) squared errors whose expected value is at most
/// `expected_mse_hi` and at least `expected_mse_lo`.
///
/// Each squared error of an (approximately) Gaussian estimator is
/// `var · χ²(1)`; averaging `cells` of them concentrates like
/// `χ²(cells)/cells`, which has standard deviation `√(2/cells)`. The
/// returned interval is `[lo·(1 − Z√(2/c))⁺, hi·(1 + Z√(2/c))]`.
pub fn mse_ci_bounds(expected_mse_lo: f64, expected_mse_hi: f64, cells: usize) -> (f64, f64) {
    assert!(cells > 0, "need at least one squared-error cell");
    assert!(
        expected_mse_lo >= 0.0 && expected_mse_hi >= expected_mse_lo,
        "need 0 ≤ lo ≤ hi, got [{expected_mse_lo}, {expected_mse_hi}]"
    );
    let spread = Z_CI * (2.0 / cells as f64).sqrt();
    let lo = expected_mse_lo * (1.0 - spread).max(0.0);
    let hi = expected_mse_hi * (1.0 + spread);
    (lo, hi)
}

/// The naive reference sampler for a frequency oracle: for a unary
/// encoding, one Bernoulli draw per bit — `p` at the true category, `q`
/// everywhere else, from the oracle's [`DebiasParams`]; for GRR, its
/// [`crate::categorical::Grr::sample`] kernel. The sparse unary sampler
/// behind [`AnyOracle::perturb_into`] must match it in distribution (the
/// `sparse_equivalence` tests pin that), and the throughput bench's
/// `reference` arm times it.
///
/// # Errors
/// [`crate::LdpError::InvalidCategory`] if `value ≥ k`.
pub fn perturb_naive<R: RngCore + ?Sized>(
    oracle: &AnyOracle,
    value: u32,
    rng: &mut R,
) -> Result<CategoricalReport> {
    if let Some(grr) = oracle.as_grr() {
        return Ok(CategoricalReport::Value(grr.sample(value, rng)?));
    }
    let k = oracle.k();
    check_category(value, k)?;
    let DebiasParams { p, q } = oracle.debias_params();
    let mut bits = BitVec::zeros(k);
    for i in 0..k {
        if bernoulli(rng, if i == value { p } else { q }) {
            bits.set(i, true);
        }
    }
    Ok(CategoricalReport::Bits(bits))
}

/// Asserts that `estimate` lies within the CLT confidence interval around
/// `truth` for a mean of `n` samples with per-sample variance `var`:
///
/// ```
/// use ldp_core::assert_within_ci;
/// use ldp_core::rng::seeded_rng;
/// use ldp_core::{numeric::Hybrid, Epsilon, NumericMechanism};
///
/// let eps = Epsilon::new(1.0)?;
/// let hm = Hybrid::new(eps);
/// let mut rng = seeded_rng(7);
/// let (t, n) = (0.25, 50_000);
/// let mean = (0..n).map(|_| hm.perturb(t, &mut rng).unwrap()).sum::<f64>() / n as f64;
/// assert_within_ci!(mean, t, hm.variance(t), n);
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
///
/// Extra context, `format!`-style, can follow the required arguments.
#[macro_export]
macro_rules! assert_within_ci {
    ($estimate:expr, $truth:expr, $var:expr, $n:expr $(,)?) => {
        $crate::assert_within_ci!($estimate, $truth, $var, $n, "")
    };
    ($estimate:expr, $truth:expr, $var:expr, $n:expr, $($ctx:tt)+) => {{
        let (est, truth) = ($estimate as f64, $truth as f64);
        let half = $crate::testutil::clt_half_width($var, $n);
        assert!(
            (est - truth).abs() <= half,
            "estimate {est} outside CI [{}, {}] (truth {truth}, half-width {half}): {}",
            truth - half,
            truth + half,
            format_args!($($ctx)+)
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn fixture_rng_is_deterministic_and_name_sensitive() {
        let mut a = fixture_rng("some::test");
        let mut b = fixture_rng("some::test");
        let mut c = fixture_rng("other::test");
        let (xa, xb, xc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn half_width_scales_with_root_n() {
        let w1 = clt_half_width(4.0, 100);
        let w2 = clt_half_width(4.0, 400);
        assert!((w1 / w2 - 2.0).abs() < 1e-12);
        assert!((w1 - Z_CI * 0.2).abs() < 1e-12);
    }

    #[test]
    fn mse_bounds_bracket_expectation() {
        let (lo, hi) = mse_ci_bounds(1.0, 2.0, 8);
        assert!(lo < 1.0 && hi > 2.0);
        // Huge cell counts collapse the interval onto [lo, hi].
        let (lo, hi) = mse_ci_bounds(1.0, 2.0, 10_000_000);
        assert!(lo > 0.99 && hi < 2.01);
    }

    #[test]
    fn within_ci_accepts_sample_mean_of_unit_uniform() {
        use rand::Rng;
        let mut rng = fixture_rng("testutil::unit_uniform");
        let n = 100_000;
        let mean = (0..n).map(|_| rng.random::<f64>()).sum::<f64>() / n as f64;
        // Uniform [0,1): mean 1/2, variance 1/12.
        assert_within_ci!(mean, 0.5, 1.0 / 12.0, n);
    }

    #[test]
    #[should_panic(expected = "outside CI")]
    fn within_ci_rejects_biased_estimate() {
        // 10σ bias: must fail at the 4.4σ bound.
        let n = 10_000;
        let bias = 10.0 * (1.0f64 / n as f64).sqrt();
        assert_within_ci!(bias, 0.0, 1.0, n);
    }
}
