//! Core traits implemented by every perturbation primitive.

use crate::budget::Epsilon;
use crate::error::{LdpError, Result};

/// The object-safe description of a one-dimensional ε-LDP mechanism for
/// numeric values in `[-1, 1]`: its name, budget, variances and output
/// support.
///
/// Sampling is not part of the trait. Each concrete mechanism has one
/// inherent `perturb`, generic over the rng, and
/// [`crate::numeric::AnyNumeric`] dispatches to it; the
/// [`crate::numeric::AnyNumeric::as_dyn`] view forwards here.
/// Every sampler must be unbiased (`E[perturb(t)] = t`) and must satisfy
/// ε-local differential privacy in the sense of Definition 1 of the paper:
/// for any inputs `t, t'` and output `x`, `pdf(x|t) ≤ e^ε · pdf(x|t')`.
/// Both properties are exercised by the crate's statistical and property
/// tests for every implementation.
pub trait NumericMechanism: Send + Sync {
    /// The privacy budget this mechanism was constructed with.
    fn epsilon(&self) -> Epsilon;

    /// Short stable name used in experiment output ("PM", "HM", "Duchi", …).
    fn name(&self) -> &'static str;

    /// Closed-form output variance `Var[t* | t]` for the given input.
    ///
    /// The value is meaningful only for `t ∈ [-1, 1]`.
    fn variance(&self, input: f64) -> f64;

    /// `max_{t ∈ [-1,1]} Var[t* | t]` — the quantity Table I and Figures 1
    /// and 3 of the paper compare across mechanisms.
    fn worst_case_variance(&self) -> f64;

    /// If the output support is bounded, its symmetric bound `b`
    /// (i.e. `|t*| ≤ b`); `None` for mechanisms with unbounded output such as
    /// Laplace, SCDF and Staircase.
    fn output_bound(&self) -> Option<f64>;
}

/// Validates a numeric input against the canonical domain `[-1, 1]`.
#[inline]
pub fn check_unit_interval(t: f64) -> Result<()> {
    if t.is_finite() && (-1.0..=1.0).contains(&t) {
        Ok(())
    } else {
        Err(LdpError::OutOfDomain {
            value: t,
            lo: -1.0,
            hi: 1.0,
        })
    }
}

/// The affine debiasing coefficients of a frequency oracle.
///
/// Every oracle in this crate reports, for each category `v`, a Bernoulli
/// "hit bit" `b_v` (the bit of a unary report, or the indicator `x == v` of
/// a direct report) with `Pr[b_v = 1] = p` when `v` is the true value and
/// `q` otherwise. The debiased per-report support is therefore the *affine*
/// function `(b_v − q)/(p − q)` — which is what lets the aggregator
/// accumulate raw hit counts and debias once at estimation time instead of
/// paying an O(k) virtual-call loop per report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DebiasParams {
    /// Probability that the true category's hit bit is 1.
    pub p: f64,
    /// Probability that any other category's hit bit is 1.
    pub q: f64,
}

impl DebiasParams {
    /// The debiased support value for a raw hit bit.
    #[inline]
    pub fn support_of(&self, hit: bool) -> f64 {
        let b = if hit { 1.0 } else { 0.0 };
        (b - self.q) / (self.p - self.q)
    }

    /// Debiases an aggregate hit count over `reports` reports:
    /// `(count − reports·q)/(p − q)`, the sum of per-report supports.
    #[inline]
    pub fn debias_count(&self, count: u64, reports: usize) -> f64 {
        (count as f64 - reports as f64 * self.q) / (self.p - self.q)
    }
}

/// The object-safe description of a mechanism for one categorical
/// attribute with domain `{0, …, k-1}`, supporting frequency estimation
/// ("frequency oracle" in the LDP literature; the paper plugs OUE into
/// Algorithm 4 in §IV-C): its domain, budget, debiasing pair, supports and
/// likelihoods.
///
/// Sampling is not part of the trait. Each concrete oracle has one
/// inherent `perturb_into`, generic over the rng, and
/// [`crate::AnyOracle`] dispatches to it; the [`crate::AnyOracle::as_dyn`]
/// view forwards here.
pub trait FrequencyOracle: Send + Sync {
    /// Domain size `k ≥ 2`.
    fn k(&self) -> u32;

    /// The privacy budget this oracle was constructed with.
    fn epsilon(&self) -> Epsilon;

    /// Short stable name used in experiment output ("OUE", "GRR", "SUE").
    fn name(&self) -> &'static str;

    /// The `(p, q)` pair making the oracle's support affine in the hit bit —
    /// see [`DebiasParams`].
    fn debias_params(&self) -> DebiasParams;

    /// The *debiased* contribution of `report` to the count estimate of
    /// category `v`: summing this over all reports and dividing by `n` yields
    /// an unbiased estimate of the frequency of `v`.
    ///
    /// Provided in terms of [`FrequencyOracle::debias_params`]: unary
    /// reports contribute their bit at `v`, direct reports the indicator
    /// `x == v`.
    fn support(&self, report: &CategoricalReport, v: u32) -> f64 {
        let hit = match report {
            CategoricalReport::Bits(bits) => bits.get(v),
            CategoricalReport::Value(x) => *x == v,
        };
        self.debias_params().support_of(hit)
    }

    /// Per-report variance of [`FrequencyOracle::support`] when the true
    /// frequency of the target category is `f` (used for accuracy analysis
    /// and tested against simulation).
    ///
    /// Provided: `Var[(b−q)/(p−q)]` with `b ~ Bernoulli(f·p + (1−f)·q)`.
    fn support_variance(&self, f: f64) -> f64 {
        let DebiasParams { p, q } = self.debias_params();
        let p_one = f * p + (1.0 - f) * q;
        p_one * (1.0 - p_one) / ((p - q) * (p - q))
    }

    /// Log-likelihood `ln Pr[report | true value = value]` of a report this
    /// oracle produced.
    ///
    /// Provided in terms of [`FrequencyOracle::debias_params`]: a direct
    /// report contributes `ln p` when it equals `value` and `ln q`
    /// otherwise; a unary report is a product of independent per-bit
    /// Bernoullis — `p` at `value`, `q` everywhere else. The independence
    /// model fits the unary encodings (OUE, SUE); GRR overrides this to
    /// reject `Bits` reports, which it never emits and whose bits would not
    /// be independent under direct encoding. The `ldp-audit` attacker
    /// subtracts two of these to form an exact log likelihood ratio between
    /// neighboring inputs.
    ///
    /// # Errors
    /// * [`LdpError::InvalidCategory`] if `value ≥ k`, or if a direct
    ///   report's category is `≥ k`.
    /// * [`LdpError::DimensionMismatch`] if a unary report's length is
    ///   not `k`.
    fn log_likelihood(&self, report: &CategoricalReport, value: u32) -> Result<f64> {
        let k = self.k();
        if value >= k {
            return Err(LdpError::InvalidCategory { value, k });
        }
        let DebiasParams { p, q } = self.debias_params();
        match report {
            CategoricalReport::Value(x) => {
                if *x >= k {
                    return Err(LdpError::InvalidCategory { value: *x, k });
                }
                Ok(if *x == value { p.ln() } else { q.ln() })
            }
            CategoricalReport::Bits(bits) => {
                if bits.len() != k {
                    return Err(LdpError::DimensionMismatch {
                        expected: k as usize,
                        actual: bits.len() as usize,
                    });
                }
                let hit = bits.get(value);
                let other_ones = f64::from(bits.count_ones() - u32::from(hit));
                let other_zeros = f64::from(k - 1) - other_ones;
                let head = if hit { p.ln() } else { (1.0 - p).ln() };
                Ok(head + other_ones * q.ln() + other_zeros * (1.0 - q).ln())
            }
        }
    }
}

/// The perturbed message a user sends for one categorical attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CategoricalReport {
    /// A single perturbed category (direct encoding, e.g. GRR).
    Value(u32),
    /// A perturbed bit per category (unary encodings: OUE, SUE).
    Bits(BitVec),
}

/// A compact fixed-length bit vector used by unary-encoding oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    len: u32,
    words: Box<[u64]>,
}

impl BitVec {
    /// An all-zero bit vector of length `len`.
    pub fn zeros(len: u32) -> Self {
        let words = vec![0u64; (len as usize).div_ceil(64)].into_boxed_slice();
        BitVec { len, words }
    }

    /// Builds a bit vector directly from its backing words (least
    /// significant bit of `words[0]` is bit 0) — the word-level counterpart
    /// of [`BitVec::zeros`] + [`BitVec::set`], used by word-oriented codecs
    /// and benches that produce whole words at a time.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when the storage would violate the
    /// type's invariants: a word count other than `⌈len/64⌉`, or a set bit
    /// at or beyond `len` (the word-level walks assume both).
    pub fn from_words(len: u32, words: Vec<u64>) -> Result<Self> {
        let candidate = BitVec {
            len,
            words: words.into_boxed_slice(),
        };
        if candidate.is_well_formed() {
            Ok(candidate)
        } else {
            Err(LdpError::InvalidParameter {
                name: "words",
                message: format!(
                    "{} backing words with bits beyond {} violate the BitVec invariants",
                    candidate.words.len(),
                    len
                ),
            })
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: u32, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let word = &mut self.words[(i / 64) as usize];
        if value {
            *word |= 1 << (i % 64);
        } else {
            *word &= !(1 << (i % 64));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Clears every bit (word-at-a-time; the length is unchanged).
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates over all bits in index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterates over the indices of set bits in increasing order, touching
    /// each backing word once (O(words + ones), not O(len)). This is the
    /// single canonical set-bit walk — count-based aggregation sits on top
    /// of it, so it must stay branch-light (an explicit word cursor, not an
    /// iterator-combinator chain).
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        struct IterOnes<'a> {
            words: &'a [u64],
            wi: usize,
            current: u64,
        }
        impl Iterator for IterOnes<'_> {
            type Item = u32;
            #[inline]
            fn next(&mut self) -> Option<u32> {
                while self.current == 0 {
                    self.wi += 1;
                    self.current = *self.words.get(self.wi)?;
                }
                let tz = self.current.trailing_zeros();
                self.current &= self.current - 1;
                Some(self.wi as u32 * 64 + tz)
            }
        }
        IterOnes {
            words: &self.words,
            wi: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The backing 64-bit words, least-significant bit first. Bits at or
    /// beyond [`BitVec::len`] are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reshapes the vector to `len` bits and hands back its words for the
    /// caller to overwrite, every one of them, with no bit set at or
    /// beyond `len`. The allocation is kept whenever the word count
    /// matches, so a decoder refilling one report allocates nothing.
    pub(crate) fn refill(&mut self, len: u32) -> &mut [u64] {
        let words = (len as usize).div_ceil(64);
        if self.words.len() != words {
            self.words = vec![0; words].into_boxed_slice();
        }
        self.len = len;
        &mut self.words
    }

    /// True when the backing storage satisfies the type's invariants:
    /// exactly `⌈len/64⌉` words, with no set bit at or beyond
    /// [`BitVec::len`]. Vectors built by this crate always are; aggregators
    /// must check this on externally deserialized reports before trusting
    /// the word-level walks (`iter_ones`, `count_ones`), which assume it.
    pub fn is_well_formed(&self) -> bool {
        if self.words.len() != (self.len as usize).div_ceil(64) {
            return false;
        }
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(&last) = self.words.last() {
                if last >> tail != 0 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_unit_interval_accepts_boundary() {
        assert!(check_unit_interval(-1.0).is_ok());
        assert!(check_unit_interval(1.0).is_ok());
        assert!(check_unit_interval(0.0).is_ok());
    }

    #[test]
    fn check_unit_interval_rejects_bad_values() {
        for v in [1.0000001, -1.1, f64::NAN, f64::INFINITY] {
            assert!(check_unit_interval(v).is_err(), "{v}");
        }
    }

    #[test]
    fn bitvec_set_get_roundtrip() {
        let mut b = BitVec::zeros(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        for i in [0u32, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i, true);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 8);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 7);
    }

    #[test]
    fn bitvec_iter_matches_get() {
        let mut b = BitVec::zeros(70);
        b.set(3, true);
        b.set(69, true);
        let collected: Vec<bool> = b.iter().collect();
        assert_eq!(collected.len(), 70);
        for (i, &bit) in collected.iter().enumerate() {
            assert_eq!(bit, b.get(i as u32));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitvec_get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn bitvec_iter_ones_matches_iter() {
        let mut b = BitVec::zeros(200);
        for i in [0u32, 1, 62, 63, 64, 100, 127, 128, 199] {
            b.set(i, true);
        }
        let ones: Vec<u32> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 1, 62, 63, 64, 100, 127, 128, 199]);
        let from_iter: Vec<u32> = b
            .iter()
            .enumerate()
            .filter_map(|(i, bit)| bit.then_some(i as u32))
            .collect();
        assert_eq!(ones, from_iter);
        assert_eq!(b.words().len(), 4);
        b.clear();
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
        assert_eq!(b.len(), 200);
    }

    #[test]
    fn debias_params_support_and_count_agree() {
        let dp = DebiasParams { p: 0.5, q: 0.2 };
        assert!((dp.support_of(true) - (1.0 - 0.2) / 0.3).abs() < 1e-12);
        assert!((dp.support_of(false) - (0.0 - 0.2) / 0.3).abs() < 1e-12);
        // Count debias = sum of per-report supports: 3 hits out of 10.
        let sum = 3.0 * dp.support_of(true) + 7.0 * dp.support_of(false);
        assert!((dp.debias_count(3, 10) - sum).abs() < 1e-12);
    }

    #[test]
    fn bitvec_well_formedness_detects_violated_invariants() {
        let mut ok = BitVec::zeros(70);
        ok.set(69, true);
        assert!(ok.is_well_formed());
        assert!(BitVec::zeros(0).is_well_formed());
        assert!(BitVec::zeros(64).is_well_formed());
        // Stray bit past `len` in the tail word (what a hostile
        // deserialized report could carry).
        let stray = BitVec {
            len: 5,
            words: vec![u64::MAX].into_boxed_slice(),
        };
        assert!(!stray.is_well_formed());
        // Wrong word count for the length.
        let short = BitVec {
            len: 70,
            words: vec![0].into_boxed_slice(),
        };
        assert!(!short.is_well_formed());
        let long = BitVec {
            len: 3,
            words: vec![0, 0].into_boxed_slice(),
        };
        assert!(!long.is_well_formed());
    }

    #[test]
    fn bitvec_from_words_round_trips_and_validates() {
        let mut reference = BitVec::zeros(70);
        for i in [0u32, 63, 64, 69] {
            reference.set(i, true);
        }
        let rebuilt = BitVec::from_words(70, reference.words().to_vec()).unwrap();
        assert_eq!(rebuilt, reference);
        // Wrong word count and stray tail bits are rejected, not trusted.
        assert!(BitVec::from_words(70, vec![0]).is_err());
        assert!(BitVec::from_words(5, vec![u64::MAX]).is_err());
        assert!(BitVec::from_words(64, vec![u64::MAX]).is_ok());
        assert!(BitVec::from_words(0, vec![]).is_ok());
    }

    #[test]
    fn bitvec_zero_length() {
        let b = BitVec::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter().count(), 0);
    }
}
