//! The Laplace mechanism applied to the LDP setting (§III-A).

use crate::budget::Epsilon;
use crate::error::Result;
use crate::mechanism::{check_unit_interval, NumericMechanism};
use rand::{Rng, RngCore};

/// Laplace mechanism for a value `t ∈ [-1, 1]`.
///
/// Outputs `t* = t + Lap(2/ε)`: the domain `[-1, 1]` has sensitivity 2, so
/// scale `λ = 2/ε` yields ε-LDP. The output is unbiased with constant
/// variance `2λ² = 8/ε²`, *unbounded*, and — as Figure 1 of the paper shows —
/// dominated by PM for every ε and by Duchi et al.'s mechanism for small ε.
#[derive(Debug, Clone)]
pub struct Laplace {
    epsilon: Epsilon,
    scale: f64,
}

impl Laplace {
    /// Creates the mechanism for budget `ε`.
    pub fn new(epsilon: Epsilon) -> Self {
        Laplace {
            epsilon,
            scale: 2.0 / epsilon.value(),
        }
    }

    /// The noise scale `λ = 2/ε`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Draws one Laplace(0, λ) noise value by inverse-CDF sampling.
    fn sample_noise<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // u ∈ [-0.5, 0.5); splitting on the sign gives the two exponential
        // tails. `1 - 2|u|` is in (0, 1], so ln is finite.
        let u: f64 = rng.random::<f64>() - 0.5;
        let magnitude = -self.scale * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln();
        if u >= 0.0 {
            magnitude
        } else {
            -magnitude
        }
    }

    /// Perturbs a single value `t ∈ [-1, 1]`: this mechanism's one
    /// sampler, generic over the rng so concrete generators (e.g.
    /// [`crate::rng::RngBlock`]) inline every draw.
    ///
    /// # Errors
    /// [`crate::LdpError::OutOfDomain`] if `t` is NaN or outside `[-1, 1]`.
    pub fn perturb<R: RngCore + ?Sized>(&self, input: f64, rng: &mut R) -> Result<f64> {
        check_unit_interval(input)?;
        Ok(input + self.sample_noise(rng))
    }

    /// Log-density of the output `x` given true value `t`:
    /// `ln f(x|t) = −|x−t|/λ − ln(2λ)`.
    ///
    /// Used by the empirical privacy auditor (`ldp-audit`) to form exact
    /// likelihood ratios between neighboring inputs.
    ///
    /// # Errors
    /// Returns [`crate::LdpError::OutOfDomain`] if `t ∉ [-1, 1]`.
    pub fn log_density(&self, x: f64, t: f64) -> Result<f64> {
        check_unit_interval(t)?;
        Ok(-(x - t).abs() / self.scale - (2.0 * self.scale).ln())
    }
}

impl NumericMechanism for Laplace {
    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    fn name(&self) -> &'static str {
        "Laplace"
    }

    fn variance(&self, _input: f64) -> f64 {
        2.0 * self.scale * self.scale
    }

    fn worst_case_variance(&self) -> f64 {
        // Data-independent noise: the variance 8/ε² is already worst-case.
        self.variance(0.0)
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
    fn variance_is_eight_over_eps_squared() {
        let m = Laplace::new(Epsilon::new(2.0).unwrap());
        assert!((m.variance(0.3) - 2.0).abs() < 1e-12);
        assert!((m.worst_case_variance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_out_of_domain_input() {
        let m = Laplace::new(Epsilon::new(1.0).unwrap());
        let mut rng = seeded_rng(0);
        assert!(m.perturb(1.5, &mut rng).is_err());
        assert!(m.perturb(f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn empirical_mean_and_variance_match_theory() {
        let eps = Epsilon::new(1.0).unwrap();
        let m = Laplace::new(eps);
        let mut rng = seeded_rng(11);
        let t = 0.4;
        let n = 400_000;
        let samples: Vec<f64> = (0..n).map(|_| m.perturb(t, &mut rng).unwrap()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - t).abs() < 0.02, "mean {mean}");
        // Var = 8/ε² = 8.
        assert!((var - 8.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn noise_is_symmetric() {
        let m = Laplace::new(Epsilon::new(0.5).unwrap());
        let mut rng = seeded_rng(12);
        let n = 200_000;
        let pos = (0..n)
            .filter(|_| m.perturb(0.0, &mut rng).unwrap() > 0.0)
            .count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }

    #[test]
    fn name_and_bound() {
        let m = Laplace::new(Epsilon::new(1.0).unwrap());
        assert_eq!(m.name(), "Laplace");
        assert_eq!(m.output_bound(), None);
        assert_eq!(m.epsilon().value(), 1.0);
        assert!((m.scale() - 2.0).abs() < 1e-15);
    }
}
