//! The Piecewise Mechanism (PM) — Algorithm 2 and Lemma 1 of the paper.

use crate::budget::Epsilon;
use crate::error::Result;
use crate::mechanism::{check_unit_interval, NumericMechanism};
use crate::rng::{bernoulli, uniform};
use rand::RngCore;

/// The paper's Piecewise Mechanism for `t ∈ [-1, 1]`.
///
/// Outputs a value in `[-C, C]` with `C = (e^{ε/2}+1)/(e^{ε/2}−1)`, drawn
/// from the three-piece density of Equation 5: a high-density centre piece
/// `[ℓ(t), r(t)]` of width `C−1` containing the input, and two low-density
/// side pieces (density ratio exactly `e^ε`, which is what makes the
/// mechanism ε-LDP).
///
/// Unbiased, with variance (Lemma 1)
/// `Var[t*|t] = t²/(e^{ε/2}−1) + (e^{ε/2}+3)/(3(e^{ε/2}−1)²)`,
/// which *decreases* as `|t| → 0` — the opposite of Duchi et al.'s mechanism,
/// and the reason PM shines on small-magnitude data such as SGD gradients.
///
/// ```
/// use ldp_core::{numeric::Piecewise, Epsilon, NumericMechanism, rng::seeded_rng};
/// let pm = Piecewise::new(Epsilon::new(1.0)?);
/// let report = pm.perturb(0.3, &mut seeded_rng(1))?;
/// assert!(report.abs() <= pm.c());
/// assert!(pm.variance(0.0) < pm.variance(1.0)); // small inputs are cheaper
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Piecewise {
    epsilon: Epsilon,
    /// Output bound `C = (e^{ε/2}+1)/(e^{ε/2}−1)`.
    c: f64,
    /// Probability that the output falls in the centre piece:
    /// `e^{ε/2}/(e^{ε/2}+1)` (line 2 of Algorithm 2).
    center_prob: f64,
    /// Density of the centre piece, `p = e^{ε/2}(e^{ε/2}−1)/(2(e^{ε/2}+1))`.
    p: f64,
    /// `e^{ε/2}` cached for the variance formula.
    exp_half: f64,
}

impl Piecewise {
    /// Creates the mechanism for budget `ε`.
    pub fn new(epsilon: Epsilon) -> Self {
        let exp_half = (epsilon.value() / 2.0).exp();
        let c = (exp_half + 1.0) / (exp_half - 1.0);
        // Algebraically identical to (e^ε − e^{ε/2}) / (2e^{ε/2} + 2) but
        // avoids computing e^ε, which overflows ~140 budget units earlier.
        let p = exp_half * (exp_half - 1.0) / (2.0 * (exp_half + 1.0));
        let center_prob = exp_half / (exp_half + 1.0);
        Piecewise {
            epsilon,
            c,
            center_prob,
            p,
            exp_half,
        }
    }

    /// The output bound `C`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Left end `ℓ(t) = (C+1)/2·t − (C−1)/2` of the centre piece.
    pub fn left(&self, t: f64) -> f64 {
        (self.c + 1.0) / 2.0 * t - (self.c - 1.0) / 2.0
    }

    /// Right end `r(t) = ℓ(t) + C − 1` of the centre piece.
    pub fn right(&self, t: f64) -> f64 {
        self.left(t) + self.c - 1.0
    }

    /// The output density `pdf(t* = x | t)` of Equation 5.
    ///
    /// Returns 0 outside `[-C, C]`. Exposed publicly so that Figure 2 can be
    /// regenerated and so that the ε-LDP inequality can be property-tested
    /// directly on the density.
    pub fn pdf(&self, x: f64, t: f64) -> f64 {
        if !(-self.c..=self.c).contains(&x) {
            return 0.0;
        }
        if (self.left(t)..=self.right(t)).contains(&x) {
            self.p
        } else {
            self.p / self.epsilon.exp()
        }
    }

    /// Log-density `ln pdf(t* = x | t)` of Equation 5.
    ///
    /// Returns `-∞` for `x` outside `[-C, C]` (honest reports never are).
    /// Used by the empirical privacy auditor (`ldp-audit`) to form exact
    /// likelihood ratios between neighboring inputs.
    ///
    /// # Errors
    /// Returns [`crate::LdpError::OutOfDomain`] if `t ∉ [-1, 1]`.
    pub fn log_density(&self, x: f64, t: f64) -> Result<f64> {
        check_unit_interval(t)?;
        Ok(self.pdf(x, t).ln())
    }

    /// Perturbs a single value `t ∈ [-1, 1]`: this mechanism's one
    /// sampler, generic over the rng so concrete generators (e.g.
    /// [`crate::rng::RngBlock`]) inline every draw.
    ///
    /// # Errors
    /// [`crate::LdpError::OutOfDomain`] if `t` is NaN or outside `[-1, 1]`.
    pub fn perturb<R: RngCore + ?Sized>(&self, input: f64, rng: &mut R) -> Result<f64> {
        check_unit_interval(input)?;
        let l = self.left(input);
        let r = self.right(input);
        if bernoulli(rng, self.center_prob) {
            // Centre piece [ℓ(t), r(t)] — width C−1 > 0 always.
            Ok(uniform(rng, l, r))
        } else {
            // Side pieces [-C, ℓ) ∪ (r, C], chosen proportionally to length.
            // At t = ±1 one side has length 0 and is never chosen.
            let left_len = l - (-self.c);
            let right_len = self.c - r;
            let u = uniform(rng, 0.0, left_len + right_len);
            if u < left_len {
                Ok(-self.c + u)
            } else {
                Ok(r + (u - left_len))
            }
        }
    }
}

impl NumericMechanism for Piecewise {
    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    fn name(&self) -> &'static str {
        "PM"
    }

    fn variance(&self, input: f64) -> f64 {
        // Lemma 1.
        let eh = self.exp_half;
        input * input / (eh - 1.0) + (eh + 3.0) / (3.0 * (eh - 1.0) * (eh - 1.0))
    }

    fn worst_case_variance(&self) -> f64 {
        // Maximized at |t| = 1: 4e^{ε/2} / (3(e^{ε/2}−1)²).
        let eh = self.exp_half;
        4.0 * eh / (3.0 * (eh - 1.0) * (eh - 1.0))
    }

    fn output_bound(&self) -> Option<f64> {
        Some(self.c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn pm(eps: f64) -> Piecewise {
        Piecewise::new(Epsilon::new(eps).unwrap())
    }

    #[test]
    fn geometry_of_pieces() {
        let m = pm(1.0);
        // Centre piece has constant width C−1 for every input.
        for t in [-1.0, -0.4, 0.0, 0.7, 1.0] {
            assert!((m.right(t) - m.left(t) - (m.c() - 1.0)).abs() < 1e-12);
            assert!(m.left(t) >= -m.c() - 1e-12);
            assert!(m.right(t) <= m.c() + 1e-12);
        }
        // At t = 1 the right piece vanishes (r = C); at t = -1, ℓ = -C.
        assert!((m.right(1.0) - m.c()).abs() < 1e-12);
        assert!((m.left(-1.0) + m.c()).abs() < 1e-12);
    }

    #[test]
    fn pdf_integrates_to_one() {
        for eps in [0.3, 1.0, 4.0] {
            let m = pm(eps);
            for t in [-1.0, -0.3, 0.0, 0.5, 1.0] {
                let steps = 400_000;
                let h = 2.0 * m.c() / steps as f64;
                let integral: f64 = (0..steps)
                    .map(|i| m.pdf(-m.c() + (i as f64 + 0.5) * h, t) * h)
                    .sum();
                assert!(
                    (integral - 1.0).abs() < 1e-3,
                    "eps={eps}, t={t}: {integral}"
                );
            }
        }
    }

    #[test]
    fn pdf_ratio_bounded_by_exp_eps() {
        // Definition 1 checked directly on the density (the paper's Lemma 1
        // privacy claim). Grid over inputs and outputs.
        for eps in [0.5, 1.29, 3.0] {
            let m = pm(eps);
            let bound = eps.exp() * (1.0 + 1e-12);
            let inputs: Vec<f64> = (-4..=4).map(|i| i as f64 / 4.0).collect();
            let outputs: Vec<f64> = (0..200)
                .map(|i| -m.c() + 2.0 * m.c() * i as f64 / 199.0)
                .collect();
            for &t in &inputs {
                for &u in &inputs {
                    for &x in &outputs {
                        let (a, b) = (m.pdf(x, t), m.pdf(x, u));
                        assert!(a <= bound * b, "eps={eps} t={t} u={u} x={x}");
                    }
                }
            }
        }
    }

    #[test]
    fn outputs_bounded_by_c() {
        let m = pm(0.8);
        let mut rng = seeded_rng(31);
        for _ in 0..20_000 {
            let x = m.perturb(0.5, &mut rng).unwrap();
            assert!(x.abs() <= m.c() + 1e-12);
        }
    }

    #[test]
    fn unbiased_for_several_inputs() {
        let m = pm(1.0);
        let mut rng = seeded_rng(32);
        for t in [-1.0, -0.5, 0.0, 0.5, 1.0] {
            let n = 300_000;
            let mean: f64 = (0..n).map(|_| m.perturb(t, &mut rng).unwrap()).sum::<f64>() / n as f64;
            assert!((mean - t).abs() < 0.02, "t={t}, mean={mean}");
        }
    }

    #[test]
    fn empirical_variance_matches_lemma_1() {
        let m = pm(2.0);
        let mut rng = seeded_rng(33);
        for t in [0.0, 0.6, 1.0] {
            let n = 400_000;
            let samples: Vec<f64> = (0..n).map(|_| m.perturb(t, &mut rng).unwrap()).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            let expect = m.variance(t);
            assert!(
                (var - expect).abs() / expect < 0.03,
                "t={t}: {var} vs {expect}"
            );
        }
    }

    #[test]
    fn variance_decreases_with_magnitude() {
        let m = pm(1.0);
        assert!(m.variance(0.0) < m.variance(0.5));
        assert!(m.variance(0.5) < m.variance(1.0));
        assert!((m.worst_case_variance() - m.variance(1.0)).abs() < 1e-12);
    }

    #[test]
    fn worst_case_beats_laplace_everywhere() {
        // §III-B: PM's worst-case variance is strictly smaller than the
        // Laplace mechanism's 8/ε² for every ε.
        for eps in [0.1, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let m = pm(eps);
            assert!(
                m.worst_case_variance() < 8.0 / (eps * eps),
                "eps={eps}: {} vs {}",
                m.worst_case_variance(),
                8.0 / (eps * eps)
            );
        }
    }

    #[test]
    fn rejects_invalid_input() {
        let m = pm(1.0);
        let mut rng = seeded_rng(34);
        assert!(m.perturb(-1.01, &mut rng).is_err());
        assert!(m.perturb(f64::INFINITY, &mut rng).is_err());
    }

    #[test]
    fn center_probability_matches_algorithm_2() {
        // Empirically, the output should land in [ℓ(t), r(t)] with
        // probability e^{ε/2}/(e^{ε/2}+1).
        let m = pm(1.0);
        let mut rng = seeded_rng(35);
        let t = 0.25;
        let n = 200_000;
        let inside = (0..n)
            .filter(|_| {
                let x = m.perturb(t, &mut rng).unwrap();
                (m.left(t)..=m.right(t)).contains(&x)
            })
            .count();
        let frac = inside as f64 / n as f64;
        let expect = (0.5f64).exp() / ((0.5f64).exp() + 1.0);
        assert!((frac - expect).abs() < 0.005, "{frac} vs {expect}");
    }
}
