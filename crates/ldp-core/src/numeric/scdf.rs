//! SCDF — Soria-Comas & Domingo-Ferrer's data-independent noise (§III-A).

use crate::budget::Epsilon;
use crate::error::Result;
use crate::mechanism::{check_unit_interval, NumericMechanism};
use crate::numeric::stepped::SteppedNoise;
use rand::RngCore;

/// The SCDF mechanism: `t* = t + noise`, with stepped noise (Equation 2)
/// parameterized by
///
/// * `m = 2(1 − e^{−ε} − ε e^{−ε}) / (ε(1 − e^{−ε}))`, and
/// * `a(m) = ε/4`.
///
/// Like the Laplace mechanism, the noise is data-independent and unbounded;
/// its variance decays as `O(1/ε²)` with a smaller constant for moderate ε
/// but still blows up for small ε (Figure 4 of the paper groups it with
/// Laplace for exactly this reason).
#[derive(Debug, Clone)]
pub struct Scdf {
    epsilon: Epsilon,
    noise: SteppedNoise,
}

impl Scdf {
    /// Creates the mechanism for budget `ε`.
    pub fn new(epsilon: Epsilon) -> Self {
        let eps = epsilon.value();
        let em = (-eps).exp();
        let m = 2.0 * (1.0 - em - eps * em) / (eps * (1.0 - em));
        let a = eps / 4.0;
        Scdf {
            epsilon,
            noise: SteppedNoise::new(eps, m, a),
        }
    }

    /// Centre half-width `m` of the noise density.
    pub fn m(&self) -> f64 {
        self.noise.m
    }

    /// Centre density `a = ε/4`.
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

impl NumericMechanism for Scdf {
    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    fn name(&self) -> &'static str {
        "SCDF"
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
    fn parameters_match_formulas() {
        let eps = 1.0f64;
        let m = Scdf::new(Epsilon::new(eps).unwrap());
        let em = (-eps).exp();
        let expect_m = 2.0 * (1.0 - em - eps * em) / (eps * (1.0 - em));
        assert!((m.m() - expect_m).abs() < 1e-12);
        assert!((m.a() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn m_is_nonnegative_for_all_eps() {
        for eps in [0.01, 0.1, 0.5, 1.0, 4.0, 8.0] {
            let m = Scdf::new(Epsilon::new(eps).unwrap());
            assert!(m.m() >= 0.0, "eps={eps}: m={}", m.m());
        }
    }

    #[test]
    fn unbiased() {
        let m = Scdf::new(Epsilon::new(1.0).unwrap());
        let mut rng = seeded_rng(60);
        let t = -0.6;
        let n = 300_000;
        let mean: f64 = (0..n).map(|_| m.perturb(t, &mut rng).unwrap()).sum::<f64>() / n as f64;
        assert!((mean - t).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn variance_between_pm_and_laplace_shapes() {
        // SCDF improves on Laplace for moderate ε (its design goal) …
        for eps in [1.0, 2.0, 4.0] {
            let m = Scdf::new(Epsilon::new(eps).unwrap());
            assert!(
                m.worst_case_variance() < 8.0 / (eps * eps),
                "eps={eps}: {} vs Laplace {}",
                m.worst_case_variance(),
                8.0 / (eps * eps)
            );
        }
    }

    #[test]
    fn variance_is_data_independent() {
        let m = Scdf::new(Epsilon::new(2.0).unwrap());
        assert_eq!(m.variance(-1.0), m.variance(0.0));
        assert_eq!(m.variance(0.0), m.variance(1.0));
    }

    #[test]
    fn noise_density_satisfies_shift_ldp() {
        // For any t, t' ∈ [-1,1] and output x: f(x−t) ≤ e^ε f(x−t').
        let eps = 1.3;
        let m = Scdf::new(Epsilon::new(eps).unwrap());
        let bound = eps.exp() * (1.0 + 1e-9);
        for ti in [-1.0, -0.5, 0.0, 0.5, 1.0] {
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
    fn rejects_out_of_domain() {
        let m = Scdf::new(Epsilon::new(1.0).unwrap());
        let mut rng = seeded_rng(61);
        assert!(m.perturb(-2.0, &mut rng).is_err());
    }
}
