//! Optimized Unary Encoding (OUE) — Wang et al., USENIX Security 2017.

use crate::budget::Epsilon;
use crate::categorical::{check_category, check_domain_size, UnaryEncoder};
use crate::error::Result;
use crate::mechanism::{CategoricalReport, DebiasParams, FrequencyOracle};

/// OUE perturbs the one-hot encoding of a category bit-by-bit with
/// *asymmetric* flip probabilities:
///
/// * the true bit stays 1 with `p = 1/2`, and
/// * every other bit becomes 1 with `q = 1/(e^ε + 1)`.
///
/// Each bit's two transition probabilities differ by a factor ≤ e^ε in both
/// directions, and only the true bit's distribution depends on the input, so
/// the report satisfies ε-LDP. The `(p, q)` choice minimizes the estimator
/// variance `4e^ε / (n(e^ε−1)²)` at small true frequencies, which is why the
/// paper calls OUE the state of the art for frequency estimation (§IV-C).
#[derive(Debug, Clone)]
pub struct Oue {
    epsilon: Epsilon,
    k: u32,
    /// `q = 1/(e^ε+1)`; `p` is the constant 1/2.
    q: f64,
    /// Shared sparse unary sampler (owns the precomputed flip-count CDF).
    enc: UnaryEncoder,
}

/// The probability that the true bit remains set.
const P_TRUE: f64 = 0.5;

impl Oue {
    /// Creates the oracle for domain size `k ≥ 2` and budget `ε`.
    ///
    /// # Errors
    /// [`crate::LdpError::InvalidParameter`] if `k < 2`.
    pub fn new(epsilon: Epsilon, k: u32) -> Result<Self> {
        check_domain_size(k)?;
        let q = 1.0 / (epsilon.exp() + 1.0);
        Ok(Oue {
            epsilon,
            k,
            q,
            enc: UnaryEncoder::new(k, P_TRUE, q),
        })
    }

    /// The perturbation probability `q = 1/(e^ε+1)` for non-true bits.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The retention probability `p = 1/2` for the true bit.
    pub fn p(&self) -> f64 {
        P_TRUE
    }

    /// Perturbs a category `v ∈ {0, …, k-1}` into a caller-owned report —
    /// OUE's one sampler. It reuses `out`'s bit vector when it has the
    /// right length and draws only the non-true bits that come up 1 —
    /// O(k·q) expected work instead of k Bernoulli draws. Generic over the
    /// rng, so hot loops driven by a [`crate::rng::RngBlock`] pay no
    /// virtual call per draw.
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

impl FrequencyOracle for Oue {
    fn k(&self) -> u32 {
        self.k
    }

    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    fn name(&self) -> &'static str {
        "OUE"
    }

    fn debias_params(&self) -> DebiasParams {
        DebiasParams {
            p: P_TRUE,
            q: self.q,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::rngs::StdRng;

    fn oracle(eps: f64, k: u32) -> Oue {
        Oue::new(Epsilon::new(eps).unwrap(), k).unwrap()
    }

    /// One freshly allocated report from the oracle's sampler.
    fn perturb(o: &Oue, value: u32, rng: &mut StdRng) -> Result<CategoricalReport> {
        let mut out = CategoricalReport::Value(0);
        o.perturb_into(value, rng, &mut out)?;
        Ok(out)
    }

    #[test]
    fn rejects_tiny_domain_and_bad_category() {
        assert!(Oue::new(Epsilon::new(1.0).unwrap(), 1).is_err());
        let o = oracle(1.0, 4);
        let mut rng = seeded_rng(80);
        assert!(perturb(&o, 4, &mut rng).is_err());
        assert!(perturb(&o, 3, &mut rng).is_ok());
    }

    #[test]
    fn report_has_k_bits() {
        let o = oracle(1.0, 10);
        let mut rng = seeded_rng(81);
        match perturb(&o, 3, &mut rng).unwrap() {
            CategoricalReport::Bits(b) => assert_eq!(b.len(), 10),
            _ => panic!("OUE must produce bit reports"),
        }
    }

    #[test]
    fn bit_probabilities_match_p_and_q() {
        let o = oracle(1.0, 5);
        let mut rng = seeded_rng(82);
        let n = 100_000;
        let mut true_bit = 0usize;
        let mut other_bit = 0usize;
        for _ in 0..n {
            match perturb(&o, 2, &mut rng).unwrap() {
                CategoricalReport::Bits(b) => {
                    if b.get(2) {
                        true_bit += 1;
                    }
                    if b.get(0) {
                        other_bit += 1;
                    }
                }
                _ => unreachable!(),
            }
        }
        let p_hat = true_bit as f64 / n as f64;
        let q_hat = other_bit as f64 / n as f64;
        assert!((p_hat - 0.5).abs() < 0.01, "p̂ = {p_hat}");
        assert!((q_hat - o.q()).abs() < 0.01, "q̂ = {q_hat} vs {}", o.q());
    }

    #[test]
    fn support_is_unbiased_indicator() {
        // E[support(report, v)] should equal 1 if v is the true value, 0
        // otherwise.
        let o = oracle(1.0, 4);
        let mut rng = seeded_rng(83);
        let n = 200_000;
        let mut sums = [0.0f64; 4];
        for _ in 0..n {
            let r = perturb(&o, 1, &mut rng).unwrap();
            for v in 0..4 {
                sums[v as usize] += o.support(&r, v);
            }
        }
        for (v, s) in sums.iter().enumerate() {
            let mean = s / n as f64;
            let expect = if v == 1 { 1.0 } else { 0.0 };
            assert!((mean - expect).abs() < 0.03, "v={v}: {mean}");
        }
    }

    #[test]
    fn support_variance_matches_simulation() {
        let o = oracle(2.0, 3);
        let mut rng = seeded_rng(84);
        let n = 200_000;
        // All users hold the target value, so f = 1.
        let vals: Vec<f64> = (0..n)
            .map(|_| o.support(&perturb(&o, 0, &mut rng).unwrap(), 0))
            .collect();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let var = vals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let expect = o.support_variance(1.0);
        assert!((var - expect).abs() / expect < 0.05, "{var} vs {expect}");
    }

    #[test]
    fn per_bit_ldp_ratio_bounded() {
        // Each bit's report distribution depends on the input only through
        // whether the bit is the true one. The likelihood ratio of a full
        // report between two inputs v, v' involves exactly two differing
        // bits; verify the worst-case product is within e^ε.
        for eps in [0.5, 1.0, 4.0] {
            let o = oracle(eps, 6);
            let p = o.p();
            let q = o.q();
            // Worst case: bit v reported 1 & bit v' reported 0 under input v
            // vs input v': ratio = [p/q] · [(1-q)/(1-p)].
            let ratio = (p / q) * ((1.0 - q) / (1.0 - p));
            assert!(ratio <= eps.exp() * (1.0 + 1e-12), "eps={eps}: {ratio}");
            // And the construction is tight: ratio = e^ε exactly.
            assert!((ratio - eps.exp()).abs() < 1e-9, "eps={eps}: {ratio}");
        }
    }
}
