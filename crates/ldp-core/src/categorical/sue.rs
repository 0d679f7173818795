//! Symmetric Unary Encoding (SUE) — the "basic RAPPOR" configuration.

use crate::budget::Epsilon;
use crate::categorical::{check_category, check_domain_size, UnaryEncoder};
use crate::error::Result;
use crate::mechanism::{CategoricalReport, DebiasParams, FrequencyOracle};

/// SUE perturbs the one-hot encoding with *symmetric* flip probabilities:
/// every bit is reported truthfully with probability `e^{ε/2}/(e^{ε/2}+1)`,
/// i.e. `p = e^{ε/2}/(e^{ε/2}+1)` for the true bit being 1 and
/// `q = 1/(e^{ε/2}+1)` for any other bit being 1, with `p + q = 1`.
///
/// SUE splits the budget evenly between "the true bit is 1" and "a false bit
/// is 0" events; OUE's asymmetric choice strictly improves on it, which our
/// `ablation_frequency_oracles` bench demonstrates empirically.
#[derive(Debug, Clone)]
pub struct Sue {
    epsilon: Epsilon,
    k: u32,
    p: f64,
    q: f64,
    /// Shared sparse unary sampler (owns the precomputed flip-count CDF).
    enc: UnaryEncoder,
}

impl Sue {
    /// Creates the oracle for domain size `k ≥ 2` and budget `ε`.
    ///
    /// # Errors
    /// [`crate::LdpError::InvalidParameter`] if `k < 2`.
    pub fn new(epsilon: Epsilon, k: u32) -> Result<Self> {
        check_domain_size(k)?;
        let eh = (epsilon.value() / 2.0).exp();
        let p = eh / (eh + 1.0);
        let q = 1.0 / (eh + 1.0);
        Ok(Sue {
            epsilon,
            k,
            p,
            q,
            enc: UnaryEncoder::new(k, p, q),
        })
    }

    /// Probability that the true bit is reported 1.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability that a non-true bit is reported 1.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Perturbs a category `v ∈ {0, …, k-1}` into a caller-owned report —
    /// SUE's one sampler; see [`crate::categorical::Oue::perturb_into`]
    /// (SUE only differs in `(p, q)`).
    ///
    /// # Errors
    /// [`crate::LdpError::InvalidCategory`] if `v ≥ k`.
    #[inline]
    pub fn perturb_into<R: crate::rng::DrawSource + ?Sized>(
        &self,
        value: u32,
        rng: &mut R,
        out: &mut CategoricalReport,
    ) -> Result<()> {
        check_category(value, self.k)?;
        self.enc.fill_report(self.k, value, rng, out);
        Ok(())
    }
}

impl FrequencyOracle for Sue {
    fn k(&self) -> u32 {
        self.k
    }

    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    fn name(&self) -> &'static str {
        "SUE"
    }

    fn debias_params(&self) -> DebiasParams {
        DebiasParams {
            p: self.p,
            q: self.q,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn oracle(eps: f64, k: u32) -> Sue {
        Sue::new(Epsilon::new(eps).unwrap(), k).unwrap()
    }

    #[test]
    fn p_plus_q_is_one() {
        let o = oracle(1.0, 5);
        assert!((o.p() + o.q() - 1.0).abs() < 1e-12);
        assert!((o.p() / o.q() - 0.5f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn support_is_unbiased() {
        let o = oracle(1.0, 4);
        let mut rng = seeded_rng(100);
        let n = 200_000;
        let mut sum_true = 0.0;
        let mut sum_other = 0.0;
        for _ in 0..n {
            let mut r = CategoricalReport::Value(0);
            o.perturb_into(0, &mut rng, &mut r).unwrap();
            sum_true += o.support(&r, 0);
            sum_other += o.support(&r, 3);
        }
        assert!((sum_true / n as f64 - 1.0).abs() < 0.05);
        assert!((sum_other / n as f64).abs() < 0.05);
    }

    #[test]
    fn oue_variance_never_worse_than_sue() {
        // Wang et al.'s analysis at f → 0: OUE's 4e^ε/(e^ε−1)² vs SUE's
        // e^{ε/2}/(e^{ε/2}−1)². Verify via the support_variance interface.
        use crate::categorical::Oue;
        for eps in [0.5, 1.0, 2.0, 4.0] {
            let e = Epsilon::new(eps).unwrap();
            let sue = Sue::new(e, 10).unwrap();
            let oue = Oue::new(e, 10).unwrap();
            assert!(
                oue.support_variance(0.0) <= sue.support_variance(0.0) + 1e-12,
                "eps={eps}: OUE {} vs SUE {}",
                oue.support_variance(0.0),
                sue.support_variance(0.0)
            );
        }
    }

    #[test]
    fn full_report_ldp_ratio_bounded() {
        // Changing the input flips the roles of two bits; worst-case ratio is
        // (p/q)·((1-q)/(1-p)) = (p/q)² since p+q=1 ⇒ exactly e^ε.
        for eps in [0.5, 2.0] {
            let o = oracle(eps, 4);
            let ratio = (o.p() / o.q()) * ((1.0 - o.q()) / (1.0 - o.p()));
            assert!((ratio - eps.exp()).abs() < 1e-9, "eps={eps}: {ratio}");
        }
    }
}
