//! Generalized randomized response (k-RR / direct encoding).

use crate::budget::Epsilon;
use crate::categorical::{check_category, check_domain_size};
use crate::error::Result;
use crate::math::ConstMod;
use crate::mechanism::{CategoricalReport, DebiasParams, FrequencyOracle};
use crate::rng::{bernoulli_from_threshold, bernoulli_threshold};
use rand::RngCore;

/// k-ary randomized response: report the true category with probability
/// `p = e^ε/(e^ε + k − 1)`, otherwise one of the `k−1` other categories
/// uniformly (each with probability `q = 1/(e^ε + k − 1)`).
///
/// The `p/q = e^ε` ratio gives ε-LDP directly. GRR's estimator variance
/// grows linearly in `k`, so it loses to OUE once `k > 3e^ε + 2`; it is
/// included as the classic baseline and for small domains (e.g. binary
/// attributes) where it is optimal.
#[derive(Debug, Clone)]
pub struct Grr {
    epsilon: Epsilon,
    k: u32,
    p: f64,
    q: f64,
    /// `⌈p·2⁵³⌉` — decides the truth coin from one raw word, exactly like
    /// the f64 compare ([`bernoulli_threshold`]).
    p_threshold: u64,
    /// Precomputed `% (k−1)` for the lie draw — same consumed word, same
    /// remainder as the hardware division, ~5× cheaper
    /// ([`ConstMod`]).
    lie_mod: ConstMod,
}

impl Grr {
    /// Creates the oracle for domain size `k ≥ 2` and budget `ε`.
    ///
    /// # Errors
    /// [`crate::LdpError::InvalidParameter`] if `k < 2`.
    pub fn new(epsilon: Epsilon, k: u32) -> Result<Self> {
        check_domain_size(k)?;
        let e = epsilon.exp();
        let denom = e + k as f64 - 1.0;
        // p ∈ (0, 1) strictly: e > 0 and k ≥ 2, so the threshold form is
        // always valid.
        let p = e / denom;
        Ok(Grr {
            epsilon,
            k,
            p,
            q: 1.0 / denom,
            p_threshold: bernoulli_threshold(p),
            lie_mod: ConstMod::new(u64::from(k - 1)),
        })
    }

    /// Probability of reporting the true category.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability of reporting any *specific* other category.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The GRR kernel: perturbs `value` and returns the reported category
    /// *ordinal* without materializing a [`CategoricalReport`] at all —
    /// one Bernoulli coin, then (only on a lie) one range draw. Every GRR
    /// perturbation runs it: Algorithm 4's encoder writes the ordinal
    /// straight into its report entry, and [`Grr::perturb_into`] wraps it
    /// in a caller-owned report.
    ///
    /// Both draws use precomputed forms of the plain arithmetic — the
    /// baked-in integer coin threshold instead of a float compare
    /// (`bernoulli(rng, p)`), and the [`ConstMod`] magic-multiply
    /// remainder instead of a hardware 64-bit division for the uniform lie
    /// (`rng.random_range(0..k−1)`). Both are exact, not approximations:
    /// they consume the same raw words and report the same category as the
    /// plain form, which a unit test keeps as the reference.
    ///
    /// # Errors
    /// [`crate::LdpError::InvalidCategory`] if `v ≥ k`.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, value: u32, rng: &mut R) -> Result<u32> {
        check_category(value, self.k)?;
        Ok(if bernoulli_from_threshold(rng, self.p_threshold) {
            value
        } else {
            // Same word, same remainder as `rng.random_range(0..k-1)`.
            let r = self.lie_mod.rem(rng.next_u64()) as u32;
            if r >= value {
                r + 1
            } else {
                r
            }
        })
    }

    /// Perturbs a category `v ∈ {0, …, k-1}` into a caller-owned report —
    /// the [`Grr::sample`] kernel, with its ordinal written into `out` as a
    /// direct report.
    ///
    /// # Errors
    /// As [`Grr::sample`].
    #[inline]
    pub fn perturb_into<R: RngCore + ?Sized>(
        &self,
        value: u32,
        rng: &mut R,
        out: &mut CategoricalReport,
    ) -> Result<()> {
        *out = CategoricalReport::Value(self.sample(value, rng)?);
        Ok(())
    }
}

impl FrequencyOracle for Grr {
    fn k(&self) -> u32 {
        self.k
    }

    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    fn name(&self) -> &'static str {
        "GRR"
    }

    fn debias_params(&self) -> DebiasParams {
        DebiasParams {
            p: self.p,
            q: self.q,
        }
    }

    fn log_likelihood(&self, report: &CategoricalReport, value: u32) -> Result<f64> {
        check_category(value, self.k)?;
        match report {
            CategoricalReport::Value(x) => {
                check_category(*x, self.k)?;
                Ok(if *x == value {
                    self.p.ln()
                } else {
                    self.q.ln()
                })
            }
            // GRR never emits unary reports, and the provided per-bit
            // independence model would be wrong for direct encoding —
            // reject rather than return a silently bogus likelihood.
            CategoricalReport::Bits(_) => Err(crate::LdpError::InvalidParameter {
                name: "report",
                message: "GRR emits direct reports; a unary report has no GRR likelihood".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::rngs::StdRng;

    fn oracle(eps: f64, k: u32) -> Grr {
        Grr::new(Epsilon::new(eps).unwrap(), k).unwrap()
    }

    /// One report from the oracle's sampler.
    fn perturb(o: &Grr, value: u32, rng: &mut StdRng) -> CategoricalReport {
        let mut out = CategoricalReport::Value(0);
        o.perturb_into(value, rng, &mut out).unwrap();
        out
    }

    #[test]
    fn probabilities_sum_to_one() {
        let o = oracle(1.0, 7);
        let total = o.p() + (o.k() - 1) as f64 * o.q();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((o.p() / o.q() - 1.0f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn truthful_report_rate_matches_p() {
        let o = oracle(2.0, 5);
        let mut rng = seeded_rng(90);
        let n = 200_000;
        let truthful = (0..n)
            .filter(|_| matches!(perturb(&o, 3, &mut rng), CategoricalReport::Value(3)))
            .count();
        let frac = truthful as f64 / n as f64;
        assert!((frac - o.p()).abs() < 0.01, "{frac} vs {}", o.p());
    }

    #[test]
    fn lies_are_uniform_over_other_categories() {
        let o = oracle(1.0, 4);
        let mut rng = seeded_rng(91);
        let n = 300_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            if let CategoricalReport::Value(x) = perturb(&o, 1, &mut rng) {
                counts[x as usize] += 1;
            }
        }
        // Categories 0, 2, 3 should each appear with probability q.
        for v in [0usize, 2, 3] {
            let frac = counts[v] as f64 / n as f64;
            assert!((frac - o.q()).abs() < 0.01, "v={v}: {frac}");
        }
        assert_eq!(counts[1] + counts[0] + counts[2] + counts[3], n);
    }

    #[test]
    fn support_is_unbiased() {
        let o = oracle(1.5, 6);
        let mut rng = seeded_rng(92);
        let n = 200_000;
        let mut sum_true = 0.0;
        let mut sum_other = 0.0;
        for _ in 0..n {
            let r = perturb(&o, 4, &mut rng);
            sum_true += o.support(&r, 4);
            sum_other += o.support(&r, 0);
        }
        assert!((sum_true / n as f64 - 1.0).abs() < 0.03);
        assert!((sum_other / n as f64).abs() < 0.03);
    }

    #[test]
    fn support_variance_matches_simulation() {
        let o = oracle(1.0, 4);
        let mut rng = seeded_rng(93);
        let n = 200_000;
        let vals: Vec<f64> = (0..n)
            .map(|_| o.support(&perturb(&o, 2, &mut rng), 2))
            .collect();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let var = vals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let expect = o.support_variance(1.0);
        assert!((var - expect).abs() / expect < 0.05, "{var} vs {expect}");
    }

    #[test]
    fn sample_is_draw_identical_to_plain_arithmetic() {
        // The plain form of GRR — an f64 coin compare, then a
        // hardware-division range draw for the lie — kept here as the
        // reference the precomputed kernel is pinned against.
        use crate::rng::bernoulli;
        use rand::Rng;
        let plain = |o: &Grr, value: u32, rng: &mut dyn RngCore| {
            if bernoulli(rng, o.p()) {
                value
            } else {
                let r = rng.random_range(0..o.k() - 1);
                if r >= value {
                    r + 1
                } else {
                    r
                }
            }
        };
        for (eps, k) in [(1.0, 9), (0.5, 2), (3.0, 1000)] {
            let o = oracle(eps, k);
            let mut rng_a = seeded_rng(94);
            let mut rng_b = seeded_rng(94);
            let mut out = CategoricalReport::Value(0);
            for i in 0..5_000u32 {
                let direct = o.sample(i % k, &mut rng_a).unwrap();
                assert_eq!(direct, plain(&o, i % k, &mut rng_b), "k={k} round {i}");
                o.perturb_into(i % k, &mut rng_a, &mut out).unwrap();
                assert_eq!(
                    out,
                    CategoricalReport::Value(plain(&o, i % k, &mut rng_b)),
                    "k={k} round {i}"
                );
            }
            assert!(o.sample(k, &mut rng_a).is_err());
        }
    }

    #[test]
    fn binary_domain_equals_classic_randomized_response() {
        let o = oracle(1.0, 2);
        // Warner's RR: truthful with e^ε/(e^ε+1).
        assert!((o.p() - 1.0f64.exp() / (1.0f64.exp() + 1.0)).abs() < 1e-12);
    }
}
