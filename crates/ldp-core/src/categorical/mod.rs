//! Frequency oracles for a single categorical attribute with domain
//! `{0, …, k-1}`.
//!
//! * [`Oue`] — Optimized Unary Encoding (Wang et al., USENIX Security 2017),
//!   the oracle the paper plugs into Algorithm 4 (§IV-C, §VI-A).
//! * [`Grr`] — generalized (k-ary) randomized response, the classic direct
//!   mechanism; better than OUE when `k < 3e^ε + 2`.
//! * [`Sue`] — symmetric unary encoding (basic RAPPOR), included as an
//!   ablation baseline.

mod grr;
mod oue;
mod sue;

pub use grr::Grr;
pub use oue::Oue;
pub use sue::Sue;

use crate::budget::Epsilon;
use crate::error::{LdpError, Result};
use crate::kinds::OracleKind;
use crate::mechanism::{CategoricalReport, DebiasParams, FrequencyOracle};
use crate::rng::DrawSource;

/// The one handle on a frequency oracle: enum dispatch over the concrete
/// oracles, built by [`OracleKind::build`].
///
/// [`AnyOracle::perturb_into`] is one predictable match per report, then
/// the concrete oracle's one sampler, generic over the rng so the whole
/// sampling loop inlines when driven by an [`crate::rng::RngBlock`].
/// The object-safe [`FrequencyOracle`] description (debiasing pair,
/// supports, likelihoods) is reached through [`AnyOracle::as_dyn`].
#[derive(Debug, Clone)]
pub enum AnyOracle {
    /// Optimized unary encoding (the paper's choice).
    Oue(Oue),
    /// k-ary randomized response.
    Grr(Grr),
    /// Symmetric unary encoding (basic RAPPOR).
    Sue(Sue),
}

impl AnyOracle {
    /// Borrows the oracle as a trait object, for the object-safe half of the
    /// API (supports, likelihoods, harness tables, diagnostics).
    pub fn as_dyn(&self) -> &dyn FrequencyOracle {
        match self {
            AnyOracle::Oue(o) => o,
            AnyOracle::Grr(o) => o,
            AnyOracle::Sue(o) => o,
        }
    }

    /// The GRR oracle when this is the direct-encoding variant,
    /// `None` for the unary encodings. A direct report needs no payload
    /// buffer: [`Grr::sample`] hands back the reported category ordinal,
    /// which Algorithm 4's encoder writes straight into the report entry
    /// and the privacy auditor and the naive reference sampler read as is.
    #[inline]
    pub fn as_grr(&self) -> Option<&Grr> {
        match self {
            AnyOracle::Grr(o) => Some(o),
            _ => None,
        }
    }

    /// Domain size `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.as_dyn().k()
    }

    /// The oracle's `(p, q)` debiasing pair.
    #[inline]
    pub fn debias_params(&self) -> DebiasParams {
        self.as_dyn().debias_params()
    }

    /// Log-likelihood of a report given a true value — see
    /// [`FrequencyOracle::log_likelihood`].
    ///
    /// # Errors
    /// As [`FrequencyOracle::log_likelihood`].
    #[inline]
    pub fn log_likelihood(&self, report: &CategoricalReport, value: u32) -> Result<f64> {
        self.as_dyn().log_likelihood(report, value)
    }

    /// Perturbs a category `v ∈ {0, …, k-1}` into a caller-owned report,
    /// reusing its storage (the bit vector of a unary report) when it
    /// already has the right shape.
    ///
    /// # Errors
    /// [`LdpError::InvalidCategory`] if `v ≥ k`.
    #[inline]
    pub fn perturb_into<R: DrawSource + ?Sized>(
        &self,
        value: u32,
        rng: &mut R,
        out: &mut CategoricalReport,
    ) -> Result<()> {
        match self {
            AnyOracle::Oue(o) => o.perturb_into(value, rng, out),
            AnyOracle::Grr(o) => o.perturb_into(value, rng, out),
            AnyOracle::Sue(o) => o.perturb_into(value, rng, out),
        }
    }
}

/// Wang et al.'s (USENIX Security 2017) selection rule: GRR has lower
/// estimator variance than OUE exactly when `k − 2 < 3e^ε` (GRR's variance
/// grows with `k`, OUE's does not), so pick GRR for small domains and OUE
/// otherwise.
///
/// ```
/// use ldp_core::{categorical::best_oracle, Epsilon, OracleKind};
/// let eps = Epsilon::new(1.0)?;
/// assert_eq!(best_oracle(eps, 2), OracleKind::Grr);   // binary: classic RR
/// assert_eq!(best_oracle(eps, 27), OracleKind::Oue);  // large domain: OUE
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
pub fn best_oracle(epsilon: Epsilon, k: u32) -> OracleKind {
    if (f64::from(k) - 2.0) < 3.0 * epsilon.exp() {
        OracleKind::Grr
    } else {
        OracleKind::Oue
    }
}

/// The shared client-side sampler of the unary encodings (OUE and SUE
/// differ only in their `(p, q)` pair): the true bit is set with
/// probability `p`, every other bit independently with probability `q`.
///
/// [`UnaryEncoder::fill_sparse`] draws reports in O(k·q) expected work
/// instead of `k−1` Bernoulli draws:
///
/// 1. the number of flipped non-true bits comes from Binomial(k−1, q) via
///    one uniform and a binary search over a CDF precomputed at
///    construction (no transcendentals, no per-draw recurrence);
/// 2. the flips are placed with Floyd's distinct-index sampling, using the
///    bit vector itself as the membership structure (the true bit cannot
///    collide: placement indices skip it).
///
/// A uniformly random m-subset with `m ~ Binomial(n, q)` is exactly `n`
/// independent Bernoulli(q) coins, so marginals are identical to the naive
/// per-bit sampler ([`crate::testutil::perturb_naive`]); the
/// `sparse_equivalence` integration tests pin that equivalence. When
/// `(1−q)^{k−1}` underflows f64 (astronomically dense reports), a
/// geometric-gap walk ([`crate::rng::for_each_bernoulli_index`]) covers the
/// tail.
#[derive(Debug, Clone)]
pub(crate) struct UnaryEncoder {
    p: f64,
    q: f64,
    /// CDF of Binomial(k−1, q), truncated 12σ past the mean (tail mass
    /// < 1e-30); empty when the inversion must fall back to the walk.
    flip_cdf: Vec<f64>,
}

impl UnaryEncoder {
    pub(crate) fn new(k: u32, p: f64, q: f64) -> Self {
        let n = k - 1;
        let mut flip_cdf = Vec::new();
        if n > 0 && q > 0.0 && q < 1.0 {
            let ln_1q = (-q).ln_1p();
            // p0 = (1−q)^n must be representable: once n·ln(1−q) falls
            // to −700 (≈ ln f64::MIN_POSITIVE), exp() lands in (or near)
            // the subnormal range, where p0's large relative error would
            // scale the whole CDF and bias the flip counts — use the
            // geometric walk instead.
            if f64::from(n) * ln_1q > -700.0 {
                let p0 = (f64::from(n) * ln_1q).exp();
                let mean = f64::from(n) * q;
                let sd = (mean * (1.0 - q)).sqrt();
                let cap = ((mean + 12.0 * sd + 16.0).ceil() as u32).min(n);
                let r = q / (1.0 - q);
                let mut c = p0;
                let mut cum = 0.0f64;
                flip_cdf.reserve(cap as usize + 1);
                for m in 0..=cap {
                    if m > 0 {
                        c *= r * f64::from(n - m + 1) / f64::from(m);
                    }
                    cum += c;
                    flip_cdf.push(cum);
                }
            }
        }
        UnaryEncoder { p, q, flip_cdf }
    }

    /// Sparse-samples one unary report into a caller-owned
    /// [`crate::mechanism::CategoricalReport`], reusing its bit vector when
    /// it already has length `k` and replacing it otherwise. This is the
    /// shared implementation behind OUE's and SUE's `perturb_into`.
    /// Generic over the rng so concrete generators (e.g.
    /// [`crate::rng::RngBlock`]) monomorphize the whole sampling loop and
    /// serve the placement draws as buffer slices.
    #[inline]
    pub(crate) fn fill_report<R: DrawSource + ?Sized>(
        &self,
        k: u32,
        value: u32,
        rng: &mut R,
        out: &mut crate::mechanism::CategoricalReport,
    ) {
        use crate::mechanism::{BitVec, CategoricalReport};
        let bits = match out {
            CategoricalReport::Bits(bits) if bits.len() == k => bits,
            _ => {
                *out = CategoricalReport::Bits(BitVec::zeros(k));
                let CategoricalReport::Bits(bits) = out else {
                    unreachable!("just assigned Bits");
                };
                bits
            }
        };
        self.fill_sparse(bits, value, rng);
    }

    /// O(k·q) sparse report sampling into `bits` (see the type docs).
    #[inline]
    pub(crate) fn fill_sparse<R: DrawSource + ?Sized>(
        &self,
        bits: &mut crate::mechanism::BitVec,
        value: u32,
        rng: &mut R,
    ) {
        use rand::Rng;
        bits.clear();
        if crate::rng::bernoulli(rng, self.p) {
            bits.set(value, true);
        }
        let n = bits.len() - 1; // non-true positions
        if n == 0 || self.q <= 0.0 {
            return;
        }
        // Indices over the n non-true positions; at or past `value` they
        // shift by one to skip the true bit.
        let place = |idx: u32| if idx >= value { idx + 1 } else { idx };
        if self.flip_cdf.is_empty() {
            // Underflow/extreme regime: geometric-gap walk.
            crate::rng::for_each_bernoulli_index(rng, n, self.q, |idx| {
                bits.set(place(idx), true);
            });
            return;
        }
        let u = rng.random::<f64>();
        let m = (self.flip_cdf.partition_point(|&c| c <= u) as u32).min(n);
        // Floyd's algorithm, with the report itself as the "already chosen"
        // set: bit place(t) is set iff flip-index t was already chosen,
        // because place() never lands on the true bit. (Each iteration sets
        // exactly one previously-unset bit: on a collision it falls back to
        // place(j), and j cannot have been chosen in an earlier iteration —
        // all earlier picks are < j.) The m placement draws stream through
        // `with_raw`: a batched source hands them over as buffer slices, so
        // this loop walks plain memory instead of paying per-draw generator
        // bookkeeping.
        let mut j = n - m;
        rng.with_raw(m, |chunk| {
            for &raw in chunk {
                let t = place(crate::rng::index_from_raw(raw, j + 1));
                if bits.get(t) {
                    bits.set(place(j), true);
                } else {
                    bits.set(t, true);
                }
                j += 1;
            }
        });
    }
}

/// Validates a category against a domain of size `k`.
#[inline]
pub(crate) fn check_category(value: u32, k: u32) -> Result<()> {
    if value < k {
        Ok(())
    } else {
        Err(LdpError::InvalidCategory { value, k })
    }
}

/// Validates a domain size (`k ≥ 2`: a one-value attribute carries no
/// information and would divide by zero in the estimators).
pub(crate) fn check_domain_size(k: u32) -> Result<()> {
    if k >= 2 {
        Ok(())
    } else {
        Err(LdpError::InvalidParameter {
            name: "k",
            message: format!("categorical domain needs k ≥ 2, got {k}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_validation() {
        assert!(check_category(0, 3).is_ok());
        assert!(check_category(2, 3).is_ok());
        assert!(check_category(3, 3).is_err());
    }

    #[test]
    fn domain_size_validation() {
        assert!(check_domain_size(2).is_ok());
        assert!(check_domain_size(100).is_ok());
        assert!(check_domain_size(1).is_err());
        assert!(check_domain_size(0).is_err());
    }

    use crate::mechanism::FrequencyOracle;

    #[test]
    fn unary_encoder_falls_back_to_walk_when_cdf_would_underflow() {
        // ε = 1 ⇒ q = 1/(e+1); at k−1 = 2400, n·ln(1−q) ≈ −751.8 < −700, so
        // (1−q)^n is (sub)normal-garbage territory and the CDF must not be
        // built — the geometric walk covers this regime.
        let q = 1.0 / (1.0f64.exp() + 1.0);
        let enc = UnaryEncoder::new(2401, 0.5, q);
        assert!(enc.flip_cdf.is_empty(), "CDF must not be built past −700");
        // And the walk still produces the right popcount mean.
        let n = 2400u32;
        let mut bits = crate::mechanism::BitVec::zeros(2401);
        let mut rng = crate::rng::seeded_rng(77);
        let trials = 2_000;
        let mut total = 0.0f64;
        for _ in 0..trials {
            enc.fill_sparse(&mut bits, 7, &mut rng);
            total += f64::from(bits.count_ones());
        }
        let mean = 0.5 + f64::from(n) * q;
        let var = 0.25 + f64::from(n) * q * (1.0 - q);
        crate::assert_within_ci!(total / trials as f64, mean, var, trials);
        // Just inside the bound the CDF is built and carries ≈ unit mass.
        let safe = UnaryEncoder::new(2201, 0.5, q);
        assert!(!safe.flip_cdf.is_empty());
        let last = *safe.flip_cdf.last().unwrap();
        assert!((last - 1.0).abs() < 1e-9, "CDF mass {last}");
    }

    #[test]
    fn best_oracle_rule_matches_variance_comparison() {
        // The selection rule must agree with the oracles' own
        // support_variance at f → 0 (the regime the rule optimizes).
        for eps in [0.5, 1.0, 2.0, 4.0] {
            let e = Epsilon::new(eps).unwrap();
            for k in [2u32, 4, 8, 16, 32, 64, 128] {
                let chosen = best_oracle(e, k);
                let grr = Grr::new(e, k).unwrap().support_variance(0.0);
                let oue = Oue::new(e, k).unwrap().support_variance(0.0);
                let better = if grr <= oue {
                    OracleKind::Grr
                } else {
                    OracleKind::Oue
                };
                assert_eq!(chosen, better, "eps={eps} k={k}: grr={grr} oue={oue}");
            }
        }
    }

    #[test]
    fn best_oracle_threshold_is_sharp() {
        // At the boundary k = 3e^ε + 2 the variances coincide (up to the
        // integrality of k); check the rule flips within one step of it.
        let e = Epsilon::new(1.0).unwrap();
        let boundary = (3.0 * 1.0f64.exp() + 2.0).floor() as u32; // 10
        assert_eq!(best_oracle(e, boundary), OracleKind::Grr);
        assert_eq!(best_oracle(e, boundary + 1), OracleKind::Oue);
    }
}
