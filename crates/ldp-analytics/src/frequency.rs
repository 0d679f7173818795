//! Aggregator-side frequency estimation for categorical attributes.
//!
//! Every frequency oracle has a debiased per-report `support`, but that
//! support is *affine* in the report's raw hit bit (see
//! [`ldp_core::DebiasParams`]), so the accumulator never evaluates it per
//! report: it counts raw hits per category and debiases once at estimation
//! time with `(c − n·q)/(p − q)`. [`FrequencyAccumulator::count_report`]
//! is the one place a categorical report is counted — on the wire, in log
//! replay and in simulation alike. A direct report is a single increment.
//! A unary report takes one of two exact routes, chosen once per
//! accumulator from the oracle's expected set bits: dense reports are
//! absorbed *by backing word* into a bit-sliced [`WordHistogram`] plane —
//! O(words) carry-save adds per report, with the per-category scatter
//! deferred to plane flushes — and sparse ones by a scan of their set
//! bits. The estimator is `scale/n · Σ support` where `scale = 1` for
//! dense protocols and `d/k` for Algorithm 4 (§IV-C: only a `k/d` fraction
//! of users report any given attribute, and the scaling restores
//! unbiasedness).

use crate::wordhist::{add_set_bits, WordHistogram};
use ldp_core::multidim::wire::{BitReader, BitWriter};
use ldp_core::{CategoricalReport, DebiasParams, LdpError, Result};

/// Expected set bits per unary report at or above which an accumulator
/// absorbs unary reports whole-word through the [`WordHistogram`] plane
/// instead of scanning their set bits. Both routes count identically
/// (exact integers), so this is purely a routing choice: the plane's
/// per-report cost is flat in density, while a handful of set bits is
/// cheaper to scan — the same trade [`WordHistogram`]'s own sparse-scatter
/// shortcut makes per report.
const WORD_LEVEL_MIN_HITS: f64 = 8.0;

/// Streaming accumulator for the value frequencies of one categorical
/// attribute.
///
/// Internally count-based: direct hits are single integer increments, and
/// a unary report costs either O(words) word operations in a
/// [`WordHistogram`] plane or O(set bits) increments, whichever the
/// oracle's density favours, instead of the O(k) support loop a naive
/// aggregator pays. All counts are exact `u64`s, so the route never moves
/// an estimate by a bit.
#[derive(Debug, Clone)]
pub struct FrequencyAccumulator {
    /// Raw hit counts per category: direct reports and scanned unary
    /// reports. Plane-absorbed unary counts live in `hist`;
    /// [`FrequencyAccumulator::counts`] sums the two.
    counts: Vec<u64>,
    /// Whether unary reports go through the word plane: true exactly when
    /// the declared oracle expects at least [`WORD_LEVEL_MIN_HITS`] set
    /// bits per report. Otherwise they are scanned into `counts`.
    word_level: bool,
    /// The word plane, created on a word-level accumulator's first unary
    /// report (an accumulator that never sees one never pays for it).
    hist: Option<WordHistogram>,
    /// Number of reports absorbed (users who actually reported this
    /// attribute).
    reports: usize,
    /// Total population `n` the estimate divides by (≥ `reports` under
    /// attribute sampling). Set by [`FrequencyAccumulator::set_population`];
    /// defaults to the report count.
    population: Option<usize>,
    scale: f64,
    /// The `(p, q)` debiasing pair of the oracle that produces the absorbed
    /// reports.
    debias: DebiasParams,
}

impl FrequencyAccumulator {
    /// An empty accumulator for a `k`-value attribute with the given
    /// protocol scale (`1.0` dense, `d/k` for Algorithm 4) and the `(p, q)`
    /// debiasing pair of the oracle whose reports it will absorb. No report
    /// carries the pair, so it is declared here, once; [`Self::merge`]
    /// rejects an accumulator declared with any other pair. The pair also
    /// fixes the unary route: a report of this oracle sets `p + (k−1)·q`
    /// bits on average, whatever the true value.
    pub fn new(k: u32, scale: f64, debias: DebiasParams) -> Self {
        let expected_hits = debias.p + f64::from(k.saturating_sub(1)) * debias.q;
        FrequencyAccumulator {
            counts: vec![0; k as usize],
            word_level: expected_hits >= WORD_LEVEL_MIN_HITS,
            hist: None,
            reports: 0,
            population: None,
            scale,
            debias,
        }
    }

    /// Counts one report, to be debiased with the pair declared at
    /// construction: a direct report's value, or every set bit of a unary
    /// report (through the word plane or a set-bit scan, whichever route
    /// [`FrequencyAccumulator::new`] chose).
    ///
    /// # Panics
    /// Panics if a unary report's length differs from the domain or a
    /// direct report's value is out of domain (callers holding untrusted
    /// reports should validate first).
    pub fn count_report(&mut self, report: &CategoricalReport) {
        match report {
            CategoricalReport::Bits(bits) => {
                assert_eq!(bits.len(), self.k(), "report/accumulator domain mismatch");
                if self.word_level {
                    let k = self.k();
                    let hist = self.hist.get_or_insert_with(|| WordHistogram::new(k));
                    hist.add_words(bits.words());
                } else {
                    add_set_bits(&mut self.counts, bits.words());
                }
            }
            CategoricalReport::Value(x) => {
                self.counts[*x as usize] += 1;
            }
        }
        self.reports += 1;
    }

    /// Domain size.
    pub fn k(&self) -> u32 {
        self.counts.len() as u32
    }

    /// Number of absorbed reports.
    pub fn reports(&self) -> usize {
        self.reports
    }

    /// Raw per-category hit counts absorbed so far: direct and scanned
    /// hits plus the word plane's flushed and pending unary counts. Exact
    /// integers — identical to what a per-set-bit walk would have counted.
    pub fn counts(&self) -> Vec<u64> {
        let mut out = self.counts.clone();
        if let Some(hist) = &self.hist {
            hist.add_to(&mut out);
        }
        out
    }

    /// The `(p, q)` debias pair declared at construction: the pair of the
    /// oracle whose reports this accumulator absorbs.
    pub fn debias_params(&self) -> DebiasParams {
        self.debias
    }

    /// The protocol scale (`d/k` under attribute sampling, 1 otherwise)
    /// applied at estimation time.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The declared population, if [`FrequencyAccumulator::set_population`]
    /// was called.
    pub fn population(&self) -> Option<usize> {
        self.population
    }

    /// Exact serialized size of [`FrequencyAccumulator::encode_state`] in
    /// bits: the report count plus one exact 64-bit hit count per category.
    /// `k`, `scale` and the debias pair are *not* on the wire — both sides
    /// derive them from the shared session schema — so a checkpoint can
    /// never smuggle in mismatched debias parameters.
    pub fn state_bits(k: u32) -> usize {
        64 + 64 * k as usize
    }

    /// Appends the accumulator's count state — `reports`, then each
    /// category's folded hit count (the same exact integers
    /// [`FrequencyAccumulator::counts`] returns) — to
    /// `w`. All counts are exact `u64`s, so a decode on a same-schema
    /// accumulator reproduces every future estimate bit for bit.
    pub fn encode_state(&self, w: &mut BitWriter) {
        w.write_bits(self.reports as u64, 64);
        for c in self.counts() {
            w.write_bits(c, 64);
        }
    }

    /// Overwrites this accumulator's count state with state read from `r`
    /// (inverse of [`FrequencyAccumulator::encode_state`]). The folded
    /// counts land in `counts` and the word plane resets — exactly the
    /// count-preserving fold [`FrequencyAccumulator::merge`] performs —
    /// while `k`, `scale`, the debias pair and the unary route stay the
    /// ones this accumulator was constructed with.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] on a truncated buffer.
    pub fn decode_state(&mut self, r: &mut BitReader<'_>) -> Result<()> {
        self.reports = r.read_bits(64)? as usize;
        self.hist = None;
        for c in &mut self.counts {
            *c = r.read_bits(64)?;
        }
        Ok(())
    }

    /// Declares the total population `n` (including users who sampled other
    /// attributes and therefore sent nothing for this one).
    pub fn set_population(&mut self, n: usize) {
        self.population = Some(n);
    }

    /// Merges another accumulator (for sharded aggregation). Populations are
    /// not merged — call [`FrequencyAccumulator::set_population`] on the
    /// result.
    ///
    /// # Errors
    /// [`LdpError::DimensionMismatch`] on differing domain sizes,
    /// [`LdpError::DebiasMismatch`] when the two sides were declared with
    /// different debiasing parameters, and
    /// [`LdpError::InvalidParameter`] when they disagree on the protocol
    /// scale — either mixture would silently bias the merged estimates.
    pub fn merge(&mut self, other: &FrequencyAccumulator) -> Result<()> {
        if other.counts.len() != self.counts.len() {
            return Err(LdpError::DimensionMismatch {
                expected: self.counts.len(),
                actual: other.counts.len(),
            });
        }
        if other.scale != self.scale {
            return Err(LdpError::InvalidParameter {
                name: "scale",
                message: format!(
                    "cannot merge accumulators with scales {} and {}",
                    self.scale, other.scale
                ),
            });
        }
        if other.debias != self.debias {
            return Err(LdpError::DebiasMismatch {
                expected: self.debias,
                actual: other.debias,
            });
        }
        // Exact integer folds, so merge order can never move an estimate:
        // the other side's counts and word plane (flushed + pending) land
        // in this side's counts.
        for (s, o) in self.counts.iter_mut().zip(&other.counts) {
            *s += o;
        }
        if let Some(hist) = &other.hist {
            hist.add_to(&mut self.counts);
        }
        self.reports += other.reports;
        Ok(())
    }

    /// The unbiased frequency estimates `scale/n · Σ support`, computed from
    /// the raw counts via the one-shot debias `(c − reports·q)/(p − q)`.
    ///
    /// # Errors
    /// [`LdpError::EmptyInput`] if no reports arrived and no population was
    /// declared.
    pub fn estimate(&self) -> Result<Vec<f64>> {
        let n = self.population.unwrap_or(self.reports);
        if n == 0 {
            return Err(LdpError::EmptyInput("reports"));
        }
        Ok(self
            .counts()
            .into_iter()
            .map(|c| self.scale * self.debias.debias_count(c, self.reports) / n as f64)
            .collect())
    }

    /// Post-processed estimates: clamped to `[0, 1]` and renormalized to sum
    /// to one (post-processing preserves LDP and reduces error when the raw
    /// estimates stray outside the simplex).
    ///
    /// # Errors
    /// As [`FrequencyAccumulator::estimate`].
    pub fn estimate_normalized(&self) -> Result<Vec<f64>> {
        let mut est: Vec<f64> = self
            .estimate()?
            .into_iter()
            .map(|f| f.clamp(0.0, 1.0))
            .collect();
        let total: f64 = est.iter().sum();
        if total > 0.0 {
            for f in &mut est {
                *f /= total;
            }
        } else {
            // Degenerate all-clamped-to-zero case: fall back to uniform.
            let k = est.len() as f64;
            est.iter_mut().for_each(|f| *f = 1.0 / k);
        }
        Ok(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::assert_within_ci;
    use ldp_core::rng::seeded_rng;
    use ldp_core::testutil::fixture_rng;
    use ldp_core::{AnyOracle, Epsilon, OracleKind};
    use rand::rngs::StdRng;
    use rand::Rng;

    fn sample_value(rng: &mut impl Rng, freqs: &[f64]) -> u32 {
        let mut u: f64 = rng.random();
        for (v, f) in freqs.iter().enumerate() {
            u -= f;
            if u <= 0.0 {
                return v as u32;
            }
        }
        freqs.len() as u32 - 1
    }

    /// One report from the oracle's sampler.
    fn perturb(oracle: &AnyOracle, v: u32, rng: &mut StdRng) -> CategoricalReport {
        let mut out = CategoricalReport::Value(0);
        oracle.perturb_into(v, rng, &mut out).unwrap();
        out
    }

    /// An empty accumulator for `oracle`'s reports.
    fn accumulator(oracle: &AnyOracle, scale: f64) -> FrequencyAccumulator {
        FrequencyAccumulator::new(oracle.k(), scale, oracle.debias_params())
    }

    #[test]
    fn oue_frequencies_converge() {
        let eps = Epsilon::new(1.0).unwrap();
        let oracle = OracleKind::Oue.build(eps, 4).unwrap();
        let truth = [0.55, 0.25, 0.15, 0.05];
        let mut rng = fixture_rng("frequency::oue_frequencies_converge");
        let mut acc = accumulator(&oracle, 1.0);
        let n = 150_000;
        for _ in 0..n {
            let v = sample_value(&mut rng, &truth);
            acc.count_report(&perturb(&oracle, v, &mut rng));
        }
        let est = acc.estimate().unwrap();
        for (v, (&e, &t)) in est.iter().zip(&truth).enumerate() {
            // Values are drawn from `truth`, so the per-report variance is
            // exactly `support_variance(t)` (data + response randomness).
            assert_within_ci!(e, t, oracle.as_dyn().support_variance(t), n, "v={v}");
        }
    }

    #[test]
    fn accessors_expose_debias_state_read_only() {
        let eps = Epsilon::new(1.0).unwrap();
        let oracle = OracleKind::Oue.build(eps, 4).unwrap();
        let mut acc = accumulator(&oracle, 2.0);

        // Empty accumulator: the declared pair, and all-zero counts.
        assert_eq!(acc.debias_params(), oracle.debias_params());
        assert_eq!(acc.counts(), vec![0; 4]);
        assert_eq!(acc.scale(), 2.0);
        assert_eq!(acc.population(), None);

        let mut rng = fixture_rng("frequency::accessors_read_only");
        for _ in 0..100 {
            acc.count_report(&perturb(&oracle, 1, &mut rng));
        }
        assert_eq!(acc.debias_params(), oracle.debias_params());
        acc.set_population(250);
        assert_eq!(acc.population(), Some(250));
    }

    #[test]
    fn grr_frequencies_converge() {
        let eps = Epsilon::new(2.0).unwrap();
        let oracle = OracleKind::Grr.build(eps, 3).unwrap();
        let truth = [0.7, 0.2, 0.1];
        let mut rng = fixture_rng("frequency::grr_frequencies_converge");
        let mut acc = accumulator(&oracle, 1.0);
        let n = 150_000;
        for _ in 0..n {
            let v = sample_value(&mut rng, &truth);
            acc.count_report(&perturb(&oracle, v, &mut rng));
        }
        let est = acc.estimate().unwrap();
        for (v, (&e, &t)) in est.iter().zip(&truth).enumerate() {
            assert_within_ci!(e, t, oracle.as_dyn().support_variance(t), n, "v={v}");
        }
    }

    #[test]
    fn sampling_scale_restores_unbiasedness() {
        // Simulate Algorithm 4 with d = 3, k = 1: each user reports this
        // attribute with probability 1/3; the d/k = 3 scaling must undo that.
        let eps = Epsilon::new(1.0).unwrap();
        let oracle = OracleKind::Oue.build(eps, 3).unwrap();
        let truth = [0.5, 0.3, 0.2];
        let mut rng = fixture_rng("frequency::sampling_scale_restores_unbiasedness");
        let n = 240_000;
        let mut acc = accumulator(&oracle, 3.0);
        for _ in 0..n {
            if rng.random::<f64>() < 1.0 / 3.0 {
                let v = sample_value(&mut rng, &truth);
                acc.count_report(&perturb(&oracle, v, &mut rng));
            }
        }
        acc.set_population(n);
        let est = acc.estimate().unwrap();
        for (v, (&e, &t)) in est.iter().zip(&truth).enumerate() {
            // Per-user contribution is `(d/k)·B·s` with `B ~ Bernoulli(k/d)`
            // and `d/k = 3`, so `Var = 3·E[s²] − t² = 3·support_variance(t)
            // + 2t²` — the sampling step triples the response variance and
            // adds a `2t²` thinning term.
            let var = 3.0 * oracle.as_dyn().support_variance(t) + 2.0 * t * t;
            assert_within_ci!(e, t, var, n, "v={v}");
        }
    }

    #[test]
    fn count_based_estimates_match_support_path_exactly() {
        // The count-based accumulator must reproduce the legacy per-report
        // support()-loop estimates to f64 summation tolerance: the support
        // is affine in the hit bit, so `Σ support = (c − n·q)/(p − q)`
        // exactly up to floating-point associativity.
        let eps = Epsilon::new(1.2).unwrap();
        let k = 9u32;
        for kind in OracleKind::ALL {
            let oracle = kind.build(eps, k).unwrap();
            let described = oracle.as_dyn();
            let mut rng = fixture_rng("frequency::count_vs_support");
            let mut acc = accumulator(&oracle, 2.5);
            let mut supports = vec![0.0f64; k as usize];
            let n = 4_000;
            for i in 0..n {
                let rep = perturb(&oracle, i % k, &mut rng);
                acc.count_report(&rep);
                for v in 0..k {
                    supports[v as usize] += described.support(&rep, v);
                }
            }
            acc.set_population(2 * n as usize);
            let est = acc.estimate().unwrap();
            for (v, (&e, &s)) in est.iter().zip(&supports).enumerate() {
                let legacy = 2.5 * s / (2 * n as usize) as f64;
                assert!(
                    (e - legacy).abs() <= 1e-9 * legacy.abs().max(1.0),
                    "{}: v={v}: count-path {e} vs support-path {legacy}",
                    described.name()
                );
            }
        }
    }

    #[test]
    fn merge_rejects_mismatched_debias_params() {
        let eps = Epsilon::new(1.0).unwrap();
        let k = 4u32;
        let o1 = OracleKind::Oue.build(eps, k).unwrap();
        let o2 = OracleKind::Oue
            .build(Epsilon::new(3.0).unwrap(), k)
            .unwrap();
        let mut rng = seeded_rng(500);
        let mut a = accumulator(&o1, 1.0);
        let mut b = accumulator(&o2, 1.0);
        a.count_report(&perturb(&o1, 0, &mut rng));
        b.count_report(&perturb(&o2, 1, &mut rng));
        // Typed rejection: callers can match on the mismatch specifically.
        assert!(
            matches!(a.merge(&b), Err(LdpError::DebiasMismatch { .. })),
            "different ε ⇒ different (p, q)"
        );
        // Mismatched protocol scales are the same silent-bias class.
        let scaled = accumulator(&o1, 3.0);
        assert!(a.merge(&scaled).is_err(), "different scales must not merge");
        // An empty accumulator with the same pair absorbs the other side.
        let mut c = accumulator(&o1, 1.0);
        c.merge(&a).unwrap();
        assert_eq!(c.reports(), 1);
        assert_eq!(c.counts(), a.counts());
    }

    #[test]
    fn count_report_routes_by_density_and_counts_every_set_bit() {
        // OUE and SUE on both sides of WORD_LEVEL_MIN_HITS, with the
        // expected set bits per report: (oracle, ε, k, word plane?).
        let cases = [
            (OracleKind::Oue, 4.0, 16, false),  // 0.77
            (OracleKind::Oue, 4.0, 256, false), // 5.09, over four words
            (OracleKind::Oue, 1.0, 70, true),   // 19.06, straddles a word
            (OracleKind::Oue, 1.0, 256, true),  // 69.08
            (OracleKind::Sue, 4.0, 16, false),  // 2.67
            (OracleKind::Sue, 4.0, 256, true),  // 31.28
            (OracleKind::Sue, 1.0, 70, true),   // 26.67
            (OracleKind::Sue, 1.0, 256, true),  // 96.9
        ];
        for (kind, eps, k, word_plane) in cases {
            let label = format!("{kind:?} ε={eps} k={k}");
            let oracle = kind.build(Epsilon::new(eps).unwrap(), k).unwrap();
            let mut acc = accumulator(&oracle, 1.0);
            assert_eq!(acc.word_level, word_plane, "{label}");
            let mut rng = seeded_rng(606);
            let mut reference = vec![0u64; k as usize];
            for i in 0..500 {
                let rep = perturb(&oracle, i % k, &mut rng);
                let CategoricalReport::Bits(bits) = &rep else {
                    unreachable!("unary oracle");
                };
                for v in 0..k {
                    reference[v as usize] += u64::from(bits.get(v));
                }
                acc.count_report(&rep);
            }
            assert_eq!(acc.reports(), 500, "{label}");
            assert_eq!(acc.counts(), reference, "{label}");
            // The plane never flushes within 500 reports, so the merge
            // folds its pending planes and its part-filled batch.
            let mut merged = accumulator(&oracle, 1.0);
            merged.merge(&acc).unwrap();
            merged.merge(&acc).unwrap();
            let doubled: Vec<u64> = reference.iter().map(|c| 2 * c).collect();
            assert_eq!(merged.counts(), doubled, "{label}");
        }
    }

    #[test]
    fn normalized_estimates_form_distribution() {
        let eps = Epsilon::new(0.5).unwrap();
        let oracle = OracleKind::Oue.build(eps, 5).unwrap();
        let mut rng = seeded_rng(313);
        let mut acc = accumulator(&oracle, 1.0);
        for _ in 0..500 {
            acc.count_report(&perturb(&oracle, 0, &mut rng));
        }
        let est = acc.estimate_normalized().unwrap();
        assert!((est.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(est.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn empty_and_merge_behaviour() {
        let eps = Epsilon::new(1.0).unwrap();
        let oracle = OracleKind::Oue.build(eps, 3).unwrap();
        let acc = accumulator(&oracle, 1.0);
        assert!(acc.estimate().is_err());

        let mut rng = seeded_rng(314);
        let mut a = accumulator(&oracle, 1.0);
        let mut b = accumulator(&oracle, 1.0);
        let mut whole = accumulator(&oracle, 1.0);
        for i in 0..50 {
            let rep = perturb(&oracle, i % 3, &mut rng);
            whole.count_report(&rep);
            if i % 2 == 0 { &mut a } else { &mut b }.count_report(&rep);
        }
        a.merge(&b).unwrap();
        assert_eq!(a.reports(), whole.reports());
        // Merged and sequential sums differ only in addition order.
        for (x, y) in a.estimate().unwrap().iter().zip(whole.estimate().unwrap()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
        let bad = FrequencyAccumulator::new(4, 1.0, oracle.debias_params());
        assert!(a.merge(&bad).is_err());
    }
}
