//! The Staircase mechanism of Geng et al. (§III-A).

use crate::budget::Epsilon;
use crate::error::Result;
use crate::mechanism::{check_unit_interval, NumericMechanism};
use crate::numeric::stepped::SteppedNoise;
use rand::RngCore;

/// The Staircase mechanism: `t* = t + noise`, with stepped noise
/// (Equation 2) parameterized by
///
/// * `m = 2 / (1 + e^{ε/2})` (i.e. `γ* = 1/(1+e^{ε/2})` scaled by the
///   sensitivity Δ = 2), and
/// * `a(m) = (1 − e^{−ε}) / (2m + 4e^{−ε} − 2m e^{−ε})`.
///
/// Geng et al. prove this is the optimal additive data-independent noise for
/// *unbounded* inputs; as the paper notes, the optimality does not carry over
/// to the bounded domain `[-1, 1]`, where PM/HM win.
#[derive(Debug, Clone)]
pub struct Staircase {
    epsilon: Epsilon,
    noise: SteppedNoise,
}

impl Staircase {
    /// Creates the mechanism for budget `ε`.
    pub fn new(epsilon: Epsilon) -> Self {
        let eps = epsilon.value();
        let em = (-eps).exp();
        let m = 2.0 / (1.0 + (eps / 2.0).exp());
        let a = (1.0 - em) / (2.0 * m + 4.0 * em - 2.0 * m * em);
        Staircase {
            epsilon,
            noise: SteppedNoise::new(eps, m, a),
        }
    }

    /// Centre half-width `m` of the noise density.
    pub fn m(&self) -> f64 {
        self.noise.m
    }

    /// Centre density `a(m)`.
    pub fn a(&self) -> f64 {
        self.noise.a
    }

    /// The noise density `f(x)` (the output density is `f(x − t)`).
    pub fn noise_pdf(&self, x: f64) -> f64 {
        self.noise.pdf(x)
    }

    /// Perturbs a single value `t ∈ [-1, 1]`: this mechanism's one
    /// sampler, generic over the rng so concrete generators (e.g.
    /// [`crate::rng::RngBlock`]) inline every draw.
    ///
    /// # Errors
    /// [`crate::LdpError::OutOfDomain`] if `t` is NaN or outside `[-1, 1]`.
    pub fn perturb<R: RngCore + ?Sized>(&self, input: f64, rng: &mut R) -> Result<f64> {
        check_unit_interval(input)?;
        Ok(input + self.noise.sample(rng))
    }
}

impl NumericMechanism for Staircase {
    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    fn name(&self) -> &'static str {
        "Staircase"
    }

    fn variance(&self, _input: f64) -> f64 {
        self.noise.variance()
    }

    fn worst_case_variance(&self) -> f64 {
        self.noise.variance()
    }

    fn output_bound(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn parameters_match_geng_formulas() {
        let eps = 2.0f64;
        let m = Staircase::new(Epsilon::new(eps).unwrap());
        assert!((m.m() - 2.0 / (1.0 + 1.0f64.exp())).abs() < 1e-12);
        // Normalization: 2am + 4a e^{-ε}/(1-e^{-ε}) = 1.
        let em = (-eps).exp();
        let total = 2.0 * m.a() * m.m() + 4.0 * m.a() * em / (1.0 - em);
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unbiased() {
        let m = Staircase::new(Epsilon::new(1.0).unwrap());
        let mut rng = seeded_rng(70);
        let t = 0.8;
        let n = 300_000;
        let mean: f64 = (0..n).map(|_| m.perturb(t, &mut rng).unwrap()).sum::<f64>() / n as f64;
        assert!((mean - t).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn beats_laplace_for_large_eps() {
        // Staircase's raison d'être: quadratically better than Laplace as
        // ε grows (Geng et al. Theorem 4 gives Θ(e^{-ε/2}) vs Θ(1/ε²)… here
        // we only need the direction).
        for eps in [2.0, 4.0, 8.0] {
            let m = Staircase::new(Epsilon::new(eps).unwrap());
            assert!(m.worst_case_variance() < 8.0 / (eps * eps), "eps={eps}");
        }
    }

    #[test]
    fn worse_than_pm_on_bounded_domain() {
        // The paper's §III-B claim (and Figure 1): PM dominates the additive
        // unbounded-noise mechanisms on [-1, 1] for small/moderate ε.
        use crate::numeric::Piecewise;
        for eps in [0.5, 1.0, 2.0] {
            let st = Staircase::new(Epsilon::new(eps).unwrap());
            let pm = Piecewise::new(Epsilon::new(eps).unwrap());
            assert!(
                pm.worst_case_variance() < st.worst_case_variance(),
                "eps={eps}: PM {} vs Staircase {}",
                pm.worst_case_variance(),
                st.worst_case_variance()
            );
        }
    }

    #[test]
    fn noise_density_satisfies_shift_ldp() {
        let eps = 0.9;
        let m = Staircase::new(Epsilon::new(eps).unwrap());
        let bound = eps.exp() * (1.0 + 1e-9);
        for ti in [-1.0, -0.3, 0.4, 1.0] {
            for tj in [-1.0, 0.0, 1.0] {
                for k in -200..=200 {
                    let x = k as f64 * 0.05;
                    assert!(
                        m.noise_pdf(x - ti) <= bound * m.noise_pdf(x - tj),
                        "t={ti}, t'={tj}, x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn variance_is_data_independent_and_positive() {
        let m = Staircase::new(Epsilon::new(0.5).unwrap());
        assert!(m.variance(0.0) > 0.0);
        assert_eq!(m.variance(-1.0), m.variance(1.0));
    }
}
