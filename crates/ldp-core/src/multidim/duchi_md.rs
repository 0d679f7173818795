//! Duchi et al.'s mechanism for multidimensional numeric data (Algorithm 3).

use crate::budget::Epsilon;
use crate::error::{LdpError, Result};
use crate::math::ln_binomial;
use crate::mechanism::check_unit_interval;
use crate::rng::{bernoulli, sample_distinct_into, sample_weighted};
use rand::RngCore;

/// Caller-owned scratch for [`DuchiMultidim::perturb_into`]: the direction
/// vector and agreement-set buffers, reused across calls.
#[derive(Debug, Clone, Default)]
pub struct DuchiScratch {
    v: Vec<f64>,
    agree: Vec<u32>,
}

/// Duchi et al.'s solution for a tuple `t ∈ [-1, 1]^d`.
///
/// The output is a vertex of the hypercube `{-B, B}^d`, where
/// `B = (e^ε+1)/(e^ε−1) · C_d` and `C_d` is the combinatorial constant of
/// Equation 9. Sampling follows Algorithm 3 exactly:
///
/// 1. draw `v ∈ {-1, 1}^d` with `Pr[v_j = 1] = 1/2 + t_j/2`;
/// 2. with probability `e^ε/(e^ε+1)` sample uniformly from
///    `T⁺ = {s·B : s·v ≥ 0}`, otherwise from `T⁻ = {s·B : s·v ≤ 0}`.
///
/// Per-coordinate variance is `B² − t_j²` (Equation 13). The error is
/// asymptotically optimal, but the constant is larger than Algorithm 4's
/// (Corollary 2) — reproducing that gap is the point of Figure 3.
#[derive(Debug, Clone)]
pub struct DuchiMultidim {
    epsilon: Epsilon,
    d: usize,
    b: f64,
    /// Probability of sampling from T⁺.
    plus_prob: f64,
    /// Unnormalized weights over the number of coordinates of `s` that agree
    /// with `v`, for uniform sampling over T⁺ (see [`sample_halfspace`]).
    agree_weights_plus: Vec<f64>,
}

impl DuchiMultidim {
    /// Creates the mechanism for dimensionality `d ≥ 1` and budget `ε`.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] if `d == 0`.
    pub fn new(epsilon: Epsilon, d: usize) -> Result<Self> {
        if d == 0 {
            return Err(LdpError::InvalidParameter {
                name: "d",
                message: "dimensionality must be at least 1".into(),
            });
        }
        let e = epsilon.exp();
        let b = (e + 1.0) / (e - 1.0) * Self::c_d(d);
        // Number of agreements A with v determines s·v = 2A − d; s ∈ T⁺ iff
        // A ≥ d/2. Within a fixed A, all C(d, A) sign vectors are equally
        // likely under uniform sampling from T⁺. Weights are computed in log
        // space and rescaled by the max for numerical stability at large d.
        let lo = d.div_ceil(2);
        let logs: Vec<f64> = (lo..=d).map(|a| ln_binomial(d as u64, a as u64)).collect();
        let max = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let agree_weights_plus = logs.iter().map(|l| (l - max).exp()).collect();
        Ok(DuchiMultidim {
            epsilon,
            d,
            b,
            plus_prob: e / (e + 1.0),
            agree_weights_plus,
        })
    }

    /// The combinatorial constant `C_d` of Equation 9.
    pub fn c_d(d: usize) -> f64 {
        let dm = d as u64 - 1;
        if d % 2 == 1 {
            // 2^{d-1} / C(d-1, (d-1)/2)
            ((d as f64 - 1.0) * std::f64::consts::LN_2 - ln_binomial(dm, dm / 2)).exp()
        } else {
            // (2^{d-1} + C(d, d/2)/2) / C(d-1, d/2), kept in log space until
            // the final exp — both terms overflow f64 beyond d ≈ 1020.
            let ln_pow = (d as f64 - 1.0) * std::f64::consts::LN_2;
            let ln_central = ln_binomial(d as u64, d as u64 / 2) - std::f64::consts::LN_2;
            let m = ln_pow.max(ln_central);
            let ln_num = m + ((ln_pow - m).exp() + (ln_central - m).exp()).ln();
            (ln_num - ln_binomial(dm, d as u64 / 2)).exp()
        }
    }

    /// The output magnitude `B` of Equation 10.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The privacy budget.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Per-coordinate output variance `B² − t_j²` (Equation 13).
    pub fn variance(&self, t_j: f64) -> f64 {
        self.b * self.b - t_j * t_j
    }

    /// Worst-case per-coordinate variance `B²` (at `t_j = 0`).
    pub fn worst_case_variance(&self) -> f64 {
        self.b * self.b
    }

    /// A scratch buffer sized for this mechanism, enabling the
    /// zero-allocation [`DuchiMultidim::perturb_into`] loop.
    pub fn scratch(&self) -> DuchiScratch {
        DuchiScratch {
            v: Vec::with_capacity(self.d),
            agree: Vec::with_capacity(self.d),
        }
    }

    /// Perturbs a tuple `t ∈ [-1, 1]^d` into a vertex of `{-B, B}^d`,
    /// written into `out` (cleared and refilled) with no allocation once the
    /// caller's buffers are warm. Generic over the rng so a concrete
    /// generator (e.g. [`crate::rng::RngBlock`]) monomorphizes the whole
    /// sampling chain — direction coins, halfspace choice, agreement-set
    /// placement — with no virtual call per draw.
    ///
    /// # Errors
    /// [`LdpError::DimensionMismatch`] for wrong tuple length,
    /// [`LdpError::OutOfDomain`] for out-of-range coordinates.
    pub fn perturb_into<R: RngCore + ?Sized>(
        &self,
        t: &[f64],
        rng: &mut R,
        out: &mut Vec<f64>,
        scratch: &mut DuchiScratch,
    ) -> Result<()> {
        if t.len() != self.d {
            return Err(LdpError::DimensionMismatch {
                expected: self.d,
                actual: t.len(),
            });
        }
        for &x in t {
            check_unit_interval(x)?;
        }
        // Step 1: the input-dependent direction vector v.
        scratch.v.clear();
        for &x in t {
            scratch.v.push(if bernoulli(&mut *rng, 0.5 + 0.5 * x) {
                1.0
            } else {
                -1.0
            });
        }
        // Step 2: pick the halfspace, then sample s uniformly within it.
        let positive = bernoulli(rng, self.plus_prob);
        self.sample_halfspace_into(positive, rng, out, scratch);
        out.iter_mut().for_each(|x| *x *= self.b);
        Ok(())
    }

    /// Uniformly samples `s ∈ {-1,1}^d` with `s·v ≥ 0` (or `≤ 0`), where `v`
    /// is `scratch.v`, writing the sign vector into `out`.
    ///
    /// Uniformity over the halfspace factorizes: condition on the number of
    /// agreeing coordinates `A` (weight `C(d, A)`), then choose which `A`
    /// coordinates agree uniformly. By symmetry this is exactly uniform over
    /// `T⁺` (resp. `T⁻`), in deterministic `O(d)` time — unlike rejection
    /// sampling, whose worst case is unbounded.
    fn sample_halfspace_into<R: RngCore + ?Sized>(
        &self,
        positive: bool,
        rng: &mut R,
        out: &mut Vec<f64>,
        scratch: &mut DuchiScratch,
    ) {
        let d = self.d;
        let lo = d.div_ceil(2);
        let idx = sample_weighted(&mut *rng, &self.agree_weights_plus);
        let agreements = lo + idx;
        sample_distinct_into(rng, d, agreements, &mut scratch.agree);
        out.clear();
        out.extend(scratch.v.iter().map(|&x| -x));
        for &i in &scratch.agree {
            out[i as usize] = scratch.v[i as usize];
        }
        if !positive {
            // T⁻ is the mirror image of T⁺: s·v ≤ 0 ⟺ (-s)·v ≥ 0, and the
            // map is a bijection, so negating a uniform T⁺ sample is uniform
            // over T⁻.
            out.iter_mut().for_each(|x| *x = -*x);
        }
    }

    /// Test-facing wrapper returning the sampled sign vector.
    #[cfg(test)]
    fn sample_halfspace(&self, v: &[f64], positive: bool, rng: &mut dyn RngCore) -> Vec<f64> {
        let mut scratch = self.scratch();
        scratch.v.extend_from_slice(v);
        let mut out = Vec::with_capacity(self.d);
        self.sample_halfspace_into(positive, rng, &mut out, &mut scratch);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn mech(eps: f64, d: usize) -> DuchiMultidim {
        DuchiMultidim::new(Epsilon::new(eps).unwrap(), d).unwrap()
    }

    /// One perturbation through fresh buffers.
    fn perturb(md: &DuchiMultidim, t: &[f64], rng: &mut dyn RngCore) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        md.perturb_into(t, rng, &mut out, &mut md.scratch())?;
        Ok(out)
    }

    #[test]
    fn c_d_small_values() {
        // d=1 (odd): 2^0 / C(0,0) = 1.
        assert!((DuchiMultidim::c_d(1) - 1.0).abs() < 1e-12);
        // d=2 (even): (2 + C(2,1)/2) / C(1,1) = 3.
        assert!((DuchiMultidim::c_d(2) - 3.0).abs() < 1e-10);
        // d=3 (odd): 4 / C(2,1) = 2.
        assert!((DuchiMultidim::c_d(3) - 2.0).abs() < 1e-10);
        // d=4 (even): (8 + 6/2) / C(3,2) = 11/3.
        assert!((DuchiMultidim::c_d(4) - 11.0 / 3.0).abs() < 1e-10);
        // d=5 (odd): 16 / C(4,2) = 8/3.
        assert!((DuchiMultidim::c_d(5) - 8.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn c_d_grows_like_sqrt_d() {
        // C_d ~ √(πd/2) asymptotically, approached from above with an O(1/√d)
        // correction (the even-d formula adds +1 exactly: C_d = √(πd/2)+1+o(1)).
        let limit = (std::f64::consts::PI / 2.0).sqrt();
        let mut prev = f64::INFINITY;
        for d in [50usize, 100, 400, 1600] {
            let r = DuchiMultidim::c_d(d) / (d as f64).sqrt();
            assert!(r < prev, "ratio must decrease toward the limit");
            assert!(r > limit, "ratio must stay above the limit");
            prev = r;
        }
        // At d = 1600 the +1 correction is 1/40 ≈ 0.025.
        assert!((prev - limit) < 0.05, "{prev} vs {limit}");
    }

    #[test]
    fn d1_reduces_to_algorithm_1() {
        let md = mech(1.0, 1);
        let oned = crate::numeric::Duchi1d::new(Epsilon::new(1.0).unwrap());
        assert!((md.b() - oned.magnitude()).abs() < 1e-10);
        // Empirical head probability must match Algorithm 1's.
        let mut rng = seeded_rng(110);
        let t = 0.4;
        let n = 200_000;
        let heads = (0..n)
            .filter(|_| perturb(&md, &[t], &mut rng).unwrap()[0] > 0.0)
            .count();
        let frac = heads as f64 / n as f64;
        assert!((frac - oned.head_probability(t)).abs() < 0.01, "{frac}");
    }

    #[test]
    fn outputs_are_hypercube_vertices() {
        let md = mech(1.0, 5);
        let mut rng = seeded_rng(111);
        let t = [0.2, -0.7, 0.0, 1.0, -1.0];
        for _ in 0..500 {
            let out = perturb(&md, &t, &mut rng).unwrap();
            assert_eq!(out.len(), 5);
            for x in out {
                assert!((x.abs() - md.b()).abs() < 1e-12, "{x}");
            }
        }
    }

    #[test]
    fn unbiased_per_coordinate() {
        for d in [2usize, 3, 4, 8] {
            let md = mech(2.0, d);
            let mut rng = seeded_rng(112 + d as u64);
            let t: Vec<f64> = (0..d).map(|j| (j as f64 / d as f64) * 1.6 - 0.8).collect();
            let n = 200_000;
            let mut sums = vec![0.0; d];
            for _ in 0..n {
                for (s, x) in sums.iter_mut().zip(perturb(&md, &t, &mut rng).unwrap()) {
                    *s += x;
                }
            }
            for j in 0..d {
                let mean = sums[j] / n as f64;
                // σ per coordinate is ≈ B (≈ 2–6 here); 5σ/√n margin.
                let margin = 5.0 * md.b() / (n as f64).sqrt();
                assert!(
                    (mean - t[j]).abs() < margin.max(0.03),
                    "d={d}, j={j}: mean={mean} vs {}",
                    t[j]
                );
            }
        }
    }

    #[test]
    fn empirical_variance_matches_equation_13() {
        let md = mech(1.0, 4);
        let mut rng = seeded_rng(120);
        let t = [0.5, 0.0, -0.9, 0.25];
        let n = 300_000;
        let mut sums = [0.0; 4];
        let mut sq = [0.0; 4];
        for _ in 0..n {
            for (j, x) in perturb(&md, &t, &mut rng).unwrap().into_iter().enumerate() {
                sums[j] += x;
                sq[j] += x * x;
            }
        }
        for j in 0..4 {
            let mean = sums[j] / n as f64;
            let var = sq[j] / n as f64 - mean * mean;
            let expect = md.variance(t[j]);
            assert!(
                (var - expect).abs() / expect < 0.02,
                "j={j}: {var} vs {expect}"
            );
        }
    }

    #[test]
    fn halfspace_sampling_is_uniform() {
        // Enumerate d=3: T⁺ for v=(1,1,1) has the 4 vectors with ≥2 ones
        // (s·v ≥ 0 ⟺ #agree ≥ 1.5). Each must appear with probability 1/4.
        let md = mech(1.0, 3);
        let mut rng = seeded_rng(121);
        let v = [1.0, 1.0, 1.0];
        let n = 120_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            let s = md.sample_halfspace(&v, true, &mut rng);
            let key: Vec<i8> = s.iter().map(|&x| x as i8).collect();
            assert!(s.iter().zip(&v).map(|(a, b)| a * b).sum::<f64>() >= 0.0);
            *counts.entry(key).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4, "T+ of d=3 has exactly 4 elements");
        for (key, c) in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.25).abs() < 0.01, "{key:?}: {frac}");
        }
    }

    #[test]
    fn perturb_into_recycled_buffers_match_fresh_ones() {
        let md = mech(1.5, 7);
        let t = [0.3, -0.3, 0.9, 0.0, -1.0, 1.0, 0.5];
        let mut rng_a = seeded_rng(777);
        let mut rng_b = seeded_rng(777);
        let mut out = Vec::new();
        let mut scratch = md.scratch();
        for round in 0..300 {
            let fresh = perturb(&md, &t, &mut rng_a).unwrap();
            md.perturb_into(&t, &mut rng_b, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(out, fresh, "round {round}");
        }
    }

    #[test]
    fn validates_inputs() {
        let md = mech(1.0, 3);
        let mut rng = seeded_rng(122);
        assert!(matches!(
            perturb(&md, &[0.0, 0.0], &mut rng),
            Err(LdpError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(perturb(&md, &[0.0, 2.0, 0.0], &mut rng).is_err());
        assert!(DuchiMultidim::new(Epsilon::new(1.0).unwrap(), 0).is_err());
    }

    #[test]
    fn large_d_constructs_without_overflow() {
        // d = 94 is the MX one-hot dimensionality; C(93, 46) overflows u64.
        let md = mech(1.0, 94);
        assert!(md.b().is_finite() && md.b() > 0.0);
        let mut rng = seeded_rng(123);
        let t = vec![0.1; 94];
        let out = perturb(&md, &t, &mut rng).unwrap();
        assert_eq!(out.len(), 94);
    }
}
