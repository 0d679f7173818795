//! Duchi et al.'s mechanism for one-dimensional numeric data (Algorithm 1).

use crate::budget::Epsilon;
use crate::error::Result;
use crate::mechanism::{check_unit_interval, NumericMechanism};
use crate::rng::bernoulli;
use rand::RngCore;

/// Duchi et al.'s binary mechanism for `t ∈ [-1, 1]`.
///
/// Outputs `±(e^ε+1)/(e^ε−1)`, choosing `+` with probability
/// `(e^ε−1)/(2e^ε+2)·t + 1/2` (Equation 3). The output is unbiased with
/// variance `((e^ε+1)/(e^ε−1))² − t²` (Equation 4), which *increases* as
/// `|t| → 0` — the mirror image of PM's behaviour, and the reason the Hybrid
/// Mechanism mixes the two.
#[derive(Debug, Clone)]
pub struct Duchi1d {
    epsilon: Epsilon,
    /// The output magnitude `(e^ε+1)/(e^ε−1)`.
    magnitude: f64,
    /// The slope `(e^ε−1)/(2e^ε+2)` of the head probability in `t`.
    slope: f64,
}

impl Duchi1d {
    /// Creates the mechanism for budget `ε`.
    pub fn new(epsilon: Epsilon) -> Self {
        let e = epsilon.exp();
        Duchi1d {
            epsilon,
            magnitude: (e + 1.0) / (e - 1.0),
            slope: (e - 1.0) / (2.0 * e + 2.0),
        }
    }

    /// The two-point support magnitude `(e^ε+1)/(e^ε−1)`.
    pub fn magnitude(&self) -> f64 {
        self.magnitude
    }

    /// `Pr[t* = +magnitude | t]`.
    pub fn head_probability(&self, t: f64) -> f64 {
        self.slope * t + 0.5
    }

    /// Log-mass of the output atom `x` given true value `t`.
    ///
    /// The support is exactly two points, `±magnitude`, compared bitwise:
    /// `x` must be the *same float* the mechanism emits (honest reports are;
    /// anything else has probability zero and yields `-∞`).
    ///
    /// # Errors
    /// Returns [`crate::LdpError::OutOfDomain`] if `t ∉ [-1, 1]`.
    pub fn log_mass(&self, x: f64, t: f64) -> Result<f64> {
        check_unit_interval(t)?;
        if x == self.magnitude {
            Ok(self.head_probability(t).ln())
        } else if x == -self.magnitude {
            Ok((1.0 - self.head_probability(t)).ln())
        } else {
            Ok(f64::NEG_INFINITY)
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
        if bernoulli(rng, self.head_probability(input)) {
            Ok(self.magnitude)
        } else {
            Ok(-self.magnitude)
        }
    }
}

impl NumericMechanism for Duchi1d {
    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    fn name(&self) -> &'static str {
        "Duchi"
    }

    fn variance(&self, input: f64) -> f64 {
        self.magnitude * self.magnitude - input * input
    }

    fn worst_case_variance(&self) -> f64 {
        // Equation 4: maximized at t = 0.
        self.magnitude * self.magnitude
    }

    fn output_bound(&self) -> Option<f64> {
        Some(self.magnitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn outputs_are_two_point() {
        let m = Duchi1d::new(Epsilon::new(1.0).unwrap());
        let mut rng = seeded_rng(20);
        let mag = m.magnitude();
        for _ in 0..1000 {
            let x = m.perturb(0.37, &mut rng).unwrap();
            assert!(x == mag || x == -mag, "{x}");
        }
    }

    #[test]
    fn magnitude_matches_formula() {
        let eps = 2.0f64;
        let m = Duchi1d::new(Epsilon::new(eps).unwrap());
        let expect = (eps.exp() + 1.0) / (eps.exp() - 1.0);
        assert!((m.magnitude() - expect).abs() < 1e-12);
    }

    #[test]
    fn head_probability_is_valid_on_domain() {
        let m = Duchi1d::new(Epsilon::new(4.0).unwrap());
        for t in [-1.0, -0.5, 0.0, 0.5, 1.0] {
            let p = m.head_probability(t);
            assert!((0.0..=1.0).contains(&p), "t={t}, p={p}");
        }
        assert!((m.head_probability(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn unbiased_estimator() {
        let m = Duchi1d::new(Epsilon::new(1.0).unwrap());
        let mut rng = seeded_rng(21);
        for t in [-0.8, 0.0, 0.6] {
            let n = 300_000;
            let mean: f64 = (0..n).map(|_| m.perturb(t, &mut rng).unwrap()).sum::<f64>() / n as f64;
            // σ ≈ magnitude ≈ 2.16 for ε = 1, so 4σ/√n ≈ 0.016.
            assert!((mean - t).abs() < 0.02, "t={t}, mean={mean}");
        }
    }

    #[test]
    fn empirical_variance_matches_equation_4() {
        let m = Duchi1d::new(Epsilon::new(1.5).unwrap());
        let mut rng = seeded_rng(22);
        let t = 0.5;
        let n = 300_000;
        let samples: Vec<f64> = (0..n).map(|_| m.perturb(t, &mut rng).unwrap()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(
            (var - m.variance(t)).abs() / m.variance(t) < 0.02,
            "var {var}"
        );
    }

    #[test]
    fn worst_case_at_zero() {
        let m = Duchi1d::new(Epsilon::new(1.0).unwrap());
        assert!(m.variance(0.0) > m.variance(0.9));
        assert_eq!(m.worst_case_variance(), m.variance(0.0));
    }

    #[test]
    fn variance_always_above_one() {
        // §III-A: Duchi's variance exceeds 1 at t=0 regardless of ε, because
        // the output magnitude is > 1.
        for eps in [0.1, 1.0, 4.0, 8.0, 32.0] {
            let m = Duchi1d::new(Epsilon::new(eps).unwrap());
            assert!(m.worst_case_variance() > 1.0, "eps={eps}");
        }
    }

    #[test]
    fn satisfies_ldp_on_two_point_support() {
        // Discrete check of Definition 1: for any t, t' and both outputs,
        // Pr[x|t] ≤ e^ε Pr[x|t'].
        let eps = 0.7;
        let m = Duchi1d::new(Epsilon::new(eps).unwrap());
        let grid: Vec<f64> = (-10..=10).map(|i| i as f64 / 10.0).collect();
        for &t in &grid {
            for &u in &grid {
                for (pt, pu) in [
                    (m.head_probability(t), m.head_probability(u)),
                    (1.0 - m.head_probability(t), 1.0 - m.head_probability(u)),
                ] {
                    assert!(pt <= eps.exp() * pu + 1e-12, "t={t}, u={u}");
                }
            }
        }
    }
}
