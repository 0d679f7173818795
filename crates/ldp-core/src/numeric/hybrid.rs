//! The Hybrid Mechanism (HM) — §III-C of the paper.

use crate::budget::Epsilon;
use crate::error::Result;
use crate::math::epsilon_star;
use crate::mechanism::{check_unit_interval, NumericMechanism};
use crate::numeric::{Duchi1d, Piecewise};
use crate::rng::bernoulli;
use rand::RngCore;

/// The paper's Hybrid Mechanism: a coin-flip mixture of [`Piecewise`] and
/// [`Duchi1d`].
///
/// With probability `α` the input is perturbed by PM, otherwise by Duchi
/// et al.'s mechanism. Lemma 3 shows the worst-case variance is minimized by
///
/// * `α = 1 − e^{−ε/2}` when `ε > ε* ≈ 0.61`, and
/// * `α = 0` (pure Duchi) when `ε ≤ ε*`.
///
/// With the optimal `α`, the `t²` terms of the two component variances cancel
/// exactly, so HM's variance is *constant in the input* (Equation 8), and by
/// Corollary 1 its worst case is never above either component's.
///
/// ```
/// use ldp_core::{numeric::Hybrid, Epsilon, NumericMechanism};
/// let hm = Hybrid::new(Epsilon::new(2.0)?);
/// assert!(hm.worst_case_variance() < hm.pm().worst_case_variance());
/// assert!(hm.worst_case_variance() < hm.duchi().worst_case_variance());
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Hybrid {
    epsilon: Epsilon,
    alpha: f64,
    pm: Piecewise,
    duchi: Duchi1d,
}

impl Hybrid {
    /// Creates the mechanism with the optimal mixing weight of Lemma 3.
    pub fn new(epsilon: Epsilon) -> Self {
        let alpha = if epsilon.value() > epsilon_star() {
            1.0 - (-epsilon.value() / 2.0).exp()
        } else {
            0.0
        };
        Hybrid::with_alpha(epsilon, alpha)
    }

    /// Creates the mechanism with an explicit mixing weight `α ∈ [0, 1]`
    /// (exposed for the `ablation_alpha` bench, which sweeps α to confirm
    /// Lemma 3's optimum).
    ///
    /// # Panics
    /// Panics if `α` is not in `[0, 1]`.
    pub fn with_alpha(epsilon: Epsilon, alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha must be in [0,1], got {alpha}"
        );
        Hybrid {
            epsilon,
            alpha,
            pm: Piecewise::new(epsilon),
            duchi: Duchi1d::new(epsilon),
        }
    }

    /// The mixing weight `α` in use.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The PM component (budget ε, same as the mixture).
    pub fn pm(&self) -> &Piecewise {
        &self.pm
    }

    /// The Duchi component.
    pub fn duchi(&self) -> &Duchi1d {
        &self.duchi
    }

    /// Log-likelihood of output `x` given true value `t`, under the mixed
    /// output measure.
    ///
    /// HM's output law is `(1−α)` of Duchi's two-point atoms plus `α` of PM's
    /// continuous density. With the reference measure "Lebesgue + the two
    /// atoms", the likelihood at an atom is the atom's mass (the continuous
    /// component contributes zero mass to a point) and elsewhere it is the
    /// PM density scaled by `α`. Atoms are detected by bitwise float
    /// equality, exactly as [`Duchi1d::log_mass`] — honest reports reproduce
    /// the emitted float verbatim. Likelihood *ratios* between two inputs are
    /// therefore exact, which is all the `ldp-audit` attacker needs.
    ///
    /// # Errors
    /// Returns [`crate::LdpError::OutOfDomain`] if `t ∉ [-1, 1]`.
    pub fn log_density(&self, x: f64, t: f64) -> Result<f64> {
        check_unit_interval(t)?;
        if x == self.duchi.magnitude() || x == -self.duchi.magnitude() {
            Ok((1.0 - self.alpha).ln() + self.duchi.log_mass(x, t)?)
        } else {
            // α = 0 (pure Duchi below ε*) makes this -∞: honest reports are
            // then always atoms, so the branch is unreachable for them.
            Ok(self.alpha.ln() + self.pm.log_density(x, t)?)
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
        // Mixing two ε-LDP mechanisms with an input-independent coin is
        // ε-LDP: the output density is the α-convex combination of two
        // densities that each satisfy the e^ε ratio bound.
        if bernoulli(rng, self.alpha) {
            self.pm.perturb(input, rng)
        } else {
            self.duchi.perturb(input, rng)
        }
    }
}

impl NumericMechanism for Hybrid {
    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    fn name(&self) -> &'static str {
        "HM"
    }

    fn variance(&self, input: f64) -> f64 {
        self.alpha * self.pm.variance(input) + (1.0 - self.alpha) * self.duchi.variance(input)
    }

    fn worst_case_variance(&self) -> f64 {
        // Equation 8. For ε > ε* the variance is constant in t; evaluating
        // the mixture at t = 0 (or any t) gives the closed form. For ε ≤ ε*
        // HM is pure Duchi, whose worst case is at t = 0.
        if self.alpha == 0.0 {
            self.duchi.worst_case_variance()
        } else {
            // Constant in t — but guard against a caller-supplied α from
            // `with_alpha`, where the max sits at one of the extremes.
            self.variance(0.0).max(self.variance(1.0))
        }
    }

    fn output_bound(&self) -> Option<f64> {
        // PM's bound C dominates Duchi's magnitude? Not in general:
        // C = (e^{ε/2}+1)/(e^{ε/2}−1) vs (e^ε+1)/(e^ε−1); C is larger, since
        // x ↦ (x+1)/(x−1) is decreasing and e^{ε/2} < e^ε.
        Some(self.pm.c())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn hm(eps: f64) -> Hybrid {
        Hybrid::new(Epsilon::new(eps).unwrap())
    }

    #[test]
    fn alpha_matches_lemma_3() {
        let below = hm(0.5);
        assert_eq!(below.alpha(), 0.0, "ε ≤ ε* must use pure Duchi");
        let above = hm(1.0);
        assert!((above.alpha() - (1.0 - (-0.5f64).exp())).abs() < 1e-12);
        // Just above the threshold the optimal α jumps to 1 − e^{−ε/2}.
        let eps_star = crate::math::epsilon_star();
        let just_above = hm(eps_star + 1e-6);
        assert!(just_above.alpha() > 0.0);
    }

    #[test]
    fn variance_constant_in_t_when_alpha_optimal() {
        // The t² cancellation of Equation 8.
        for eps in [0.7, 1.0, 2.0, 4.0] {
            let m = hm(eps);
            let v0 = m.variance(0.0);
            for t in [0.25, 0.5, 0.75, 1.0] {
                assert!((m.variance(t) - v0).abs() < 1e-12, "eps={eps}, t={t}");
            }
        }
    }

    #[test]
    fn worst_case_matches_equation_8() {
        for eps in [1.0f64, 2.0, 4.0] {
            let m = hm(eps);
            let eh = (eps / 2.0).exp();
            let e = eps.exp();
            let expect = (eh + 3.0) / (3.0 * eh * (eh - 1.0))
                + (e + 1.0) * (e + 1.0) / (eh * (e - 1.0) * (e - 1.0));
            assert!(
                (m.worst_case_variance() - expect).abs() < 1e-12,
                "eps={eps}: {} vs {expect}",
                m.worst_case_variance()
            );
        }
        // Below ε*: HM = Duchi.
        let m = hm(0.4);
        let e = 0.4f64.exp();
        let expect = ((e + 1.0) / (e - 1.0)).powi(2);
        assert!((m.worst_case_variance() - expect).abs() < 1e-12);
    }

    #[test]
    fn corollary_1_dominates_components() {
        let eps_star = crate::math::epsilon_star();
        for eps in [0.7, 1.0, 1.29, 2.0, 4.0, 8.0] {
            assert!(eps > eps_star);
            let m = hm(eps);
            assert!(
                m.worst_case_variance() < m.pm().worst_case_variance(),
                "eps={eps}: HM must beat PM"
            );
            assert!(
                m.worst_case_variance() < m.duchi().worst_case_variance(),
                "eps={eps}: HM must beat Duchi"
            );
        }
        for eps in [0.2, 0.4, 0.6] {
            let m = hm(eps);
            assert_eq!(m.worst_case_variance(), m.duchi().worst_case_variance());
            assert!(m.worst_case_variance() < m.pm().worst_case_variance());
        }
    }

    #[test]
    fn unbiased_and_variance_matches_mixture() {
        let m = hm(1.5);
        let mut rng = seeded_rng(41);
        let t = -0.35;
        let n = 400_000;
        let samples: Vec<f64> = (0..n).map(|_| m.perturb(t, &mut rng).unwrap()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - t).abs() < 0.02, "mean {mean}");
        let expect = m.variance(t);
        assert!((var - expect).abs() / expect < 0.03, "{var} vs {expect}");
    }

    #[test]
    fn with_alpha_validates() {
        let eps = Epsilon::new(1.0).unwrap();
        let m = Hybrid::with_alpha(eps, 0.5);
        assert_eq!(m.alpha(), 0.5);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn with_alpha_rejects_out_of_range() {
        Hybrid::with_alpha(Epsilon::new(1.0).unwrap(), 1.5);
    }

    #[test]
    fn optimal_alpha_minimizes_worst_case() {
        // Lemma 3 sanity: sweeping α around the optimum never improves the
        // worst-case variance.
        for eps in [1.0, 2.0, 4.0] {
            let e = Epsilon::new(eps).unwrap();
            let best = Hybrid::new(e);
            let opt = best.worst_case_variance();
            for da in [-0.2, -0.05, 0.05, 0.2] {
                let a = (best.alpha() + da).clamp(0.0, 1.0);
                let other = Hybrid::with_alpha(e, a);
                assert!(
                    other.worst_case_variance() >= opt - 1e-12,
                    "eps={eps}, alpha={a}: {} < {opt}",
                    other.worst_case_variance()
                );
            }
        }
    }

    #[test]
    fn output_bound_contains_both_supports() {
        let m = hm(1.0);
        let b = m.output_bound().unwrap();
        assert!(b >= m.pm().c() - 1e-12);
        assert!(b >= m.duchi().magnitude() - 1e-12);
    }

    #[test]
    fn rejects_invalid_input() {
        let m = hm(1.0);
        let mut rng = seeded_rng(42);
        assert!(m.perturb(2.0, &mut rng).is_err());
    }
}
