//! Word-level histogram accumulation for unary (bit-vector) reports.
//!
//! Counting a unary report by its set bits costs one scattered increment
//! per bit: cheap for sparse reports, and the aggregator's hot loop for
//! dense ones (OUE at ε = 1 sets about a quarter of the bits). So
//! [`crate::FrequencyAccumulator::count_report`] sends the reports of a
//! dense oracle here, and scans only the sparse ones. [`WordHistogram`]
//! replaces the scatter with *bit-sliced* counters in the style of
//! Harley–Seal / positional-popcount accumulation:
//!
//! 1. incoming reports buffer whole, eight at a time, as raw 64-bit words
//!    (one column per report word);
//! 2. a full batch reduces each word column through a fixed carry-save
//!    adder network — ~30 word-wide XOR/AND ops turn eight 1-bit lanes
//!    into a 4-bit column sum, with **no data-dependent branches**, which
//!    is what the per-report carry loop this design replaced kept
//!    mispredicting on;
//! 3. the 4-bit column sums carry-save into `L` counter planes
//!    (`plane[l]` holds bit `l` of every category's running count), and
//!    the planes flush into ordinary `u64` per-category counts every
//!    ≤ `2^L` reports (a `count_ones`-style gather, amortized to nothing).
//!
//! Absorption therefore costs O(words) word-wide operations per report —
//! independent of how dense the report is — instead of O(popcount)
//! scattered increments. And the histogram is exact integer arithmetic end
//! to end: its counts are **identical** — not approximately, but bit for
//! bit — to the scattered walk's, which is what lets the accumulator pick
//! either route without moving a single estimate. The proptest suite pins
//! that equivalence across oracles, domain sizes, batch and flush
//! boundaries, and merge orders.

use ldp_core::BitVec;

/// Counter planes per word column: lane counts fit `PLANES` bits, so the
/// planes must flush before a batch could push a lane past `2^PLANES − 1`.
const PLANES: u32 = 16;

/// Reports buffered per carry-save batch.
const BATCH: usize = 8;

/// Reports with at most this many set bits scatter straight into the
/// flushed counts instead of buffering: a popcount is ~one op per word,
/// and a handful of increments undercuts even the amortized column fold.
/// Purely a routing choice between two exact kernels — counts are
/// identical either way.
const SCATTER_CUTOFF: u32 = 8;

/// Adds one to `counts[i]` for every set bit `i` of `words` (least
/// significant bit of `words[0]` first): the per-set-bit scan behind
/// [`WordHistogram`]'s sparse-report shortcut and the sparse route of
/// [`crate::FrequencyAccumulator::count_report`].
///
/// The first two set bits of each word are counted without a branch (a
/// word with fewer adds zero to its first counter), so a sparse report —
/// rarely more than two bits in a word — skips the loop exit a
/// bit-by-bit walk mispredicts once per word. On 4-word reports with
/// about five set bits that took the scan from ~40 to ~15 ns (2-vCPU
/// x86-64 VM).
///
/// # Panics
/// Panics if a set bit lies beyond `counts`, or `counts` is shorter than
/// `64 · (words.len() − 1) + 1`.
#[inline]
pub(crate) fn add_set_bits(counts: &mut [u64], words: &[u64]) {
    for (wi, &word) in words.iter().enumerate() {
        let base = wi * 64;
        let mut m = word;
        for _ in 0..2 {
            counts[base + (m.trailing_zeros() as usize & 63)] += u64::from(m != 0);
            m &= m.wrapping_sub(1);
        }
        while m != 0 {
            counts[base + m.trailing_zeros() as usize] += 1;
            m &= m - 1;
        }
    }
}

/// A bit-sliced per-category counter for fixed-length unary reports: the
/// word-level aggregation plane beneath [`crate::FrequencyAccumulator`].
///
/// Absorbing a report costs O(words) branchless word operations (buffer
/// store + amortized share of the batch adder network), not O(set bits)
/// scattered increments; counts are exact `u64`s, bit-identical to a
/// per-bit walk.
///
/// ```
/// use ldp_analytics::WordHistogram;
/// use ldp_core::BitVec;
///
/// let mut hist = WordHistogram::new(130);
/// let mut report = BitVec::zeros(130);
/// report.set(3, true);
/// report.set(129, true);
/// for _ in 0..5 {
///     hist.add_bits(&report);
/// }
/// let counts = hist.counts();
/// assert_eq!(counts[3], 5);
/// assert_eq!(counts[129], 5);
/// assert_eq!(counts.iter().sum::<u64>(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct WordHistogram {
    /// Domain size (bits per report).
    k: u32,
    /// Words per report: `⌈k/64⌉`.
    words: usize,
    /// Column-major batch buffer: report `r`'s word `w` at `buf[w·8 + r]`.
    buf: Vec<u64>,
    /// Reports currently sitting in `buf` (< [`BATCH`]).
    buffered: usize,
    /// Plane-major bit-sliced counters: `planes[l·words + w]` holds bit `l`
    /// of the running count for every category in word column `w`.
    planes: Vec<u64>,
    /// Reports folded into the planes since the last flush.
    pending: u32,
    /// Plane flush threshold: folding another batch past this could
    /// overflow a 2^planes−1 lane count.
    flush_at: u32,
    /// Flushed per-category counts (also the direct target of the
    /// sparse-report scatter shortcut).
    counts: Vec<u64>,
}

/// Carry-save full adder: `a + b + c = sum + 2·carry`, per bit lane.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let axb = a ^ b;
    (axb ^ c, (a & b) | (axb & c))
}

impl WordHistogram {
    /// An empty histogram for `k`-bit reports with the default plane depth
    /// (flushes every ≤ `2^16` reports).
    pub fn new(k: u32) -> Self {
        Self::with_planes(k, PLANES)
    }

    /// An empty histogram with an explicit plane depth in `4..=16` —
    /// exposed so tests can force flush boundaries every `≲ 2^planes`
    /// reports without absorbing tens of thousands of them. (The batch
    /// adder produces 4-bit column sums, hence the lower bound of 4.)
    ///
    /// # Panics
    /// Panics if `planes` is outside `4..=16`.
    pub fn with_planes(k: u32, planes: u32) -> Self {
        assert!(
            (4..=PLANES).contains(&planes),
            "plane depth must be in 4..={PLANES}, got {planes}"
        );
        let words = (k as usize).div_ceil(64);
        WordHistogram {
            k,
            words,
            buf: vec![0; BATCH * words],
            buffered: 0,
            planes: vec![0; planes as usize * words],
            pending: 0,
            // After folding a batch (pending += 8), every lane count is
            // ≤ pending; the next fold adds ≤ 8 more, so flush once
            // pending + 8 could exceed 2^planes − 1.
            flush_at: (1u32 << planes) - 1 - BATCH as u32,
            counts: vec![0; k as usize],
        }
    }

    /// Domain size (bits per absorbed report).
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Absorbs one report given as its backing words (least-significant bit
    /// first, `⌈k/64⌉` words, no bit set at or beyond `k` — i.e. exactly
    /// [`BitVec::words`] of a well-formed `k`-bit vector).
    ///
    /// This is the kernel: the words land in the batch buffer, and every
    /// eighth report folds the batch through the branchless carry-save
    /// network into the planes (flushing them into the `u64` counts as
    /// they fill).
    ///
    /// # Panics
    /// Panics when `report` has the wrong word count (one predictable
    /// compare — noise next to the column adds). Stray bits beyond `k`
    /// accumulate in the planes and panic at the next flush/gather;
    /// callers holding untrusted vectors must validate with
    /// [`BitVec::is_well_formed`] first (in-tree oracles always produce
    /// well-formed vectors).
    #[inline]
    pub fn add_words(&mut self, report: &[u64]) {
        assert_eq!(report.len(), self.words, "report/histogram width mismatch");
        let ones: u32 = report.iter().map(|w| w.count_ones()).sum();
        if ones <= SCATTER_CUTOFF {
            // Nearly-empty report: a few direct increments beat the batch
            // machinery. Same exact counts, different route.
            add_set_bits(&mut self.counts, report);
            return;
        }
        let r = self.buffered;
        for (wi, &word) in report.iter().enumerate() {
            self.buf[wi * BATCH + r] = word;
        }
        self.buffered = r + 1;
        if self.buffered == BATCH {
            self.fold_batch();
        }
    }

    /// Absorbs one report given as a bit vector (must be `k` bits long).
    #[inline]
    pub fn add_bits(&mut self, bits: &BitVec) {
        debug_assert_eq!(bits.len(), self.k, "report/histogram domain mismatch");
        self.add_words(bits.words());
    }

    /// Reduces the eight buffered reports into the planes: per word
    /// column, a fixed adder network turns the eight 1-bit lanes into a
    /// 4-bit column sum (`s0 + 2·s1 + 4·s2 + 8·s3`), which carry-saves
    /// into the planes. Entirely branchless except the (rare, short)
    /// high-plane carry tail.
    fn fold_batch(&mut self) {
        let words = self.words;
        for wi in 0..words {
            let b = &self.buf[wi * BATCH..wi * BATCH + BATCH];
            // Pairwise half-adders, then a carry-save tree: exact 4-bit
            // per-lane sum of eight bits.
            let (x01, c01) = (b[0] ^ b[1], b[0] & b[1]);
            let (x23, c23) = (b[2] ^ b[3], b[2] & b[3]);
            let (x45, c45) = (b[4] ^ b[5], b[4] & b[5]);
            let (x67, c67) = (b[6] ^ b[7], b[6] & b[7]);
            let (s0a, c2a) = (x01 ^ x23, x01 & x23);
            let (s0b, c2b) = (x45 ^ x67, x45 & x67);
            let (t_a, f_a) = csa(c01, c23, c2a);
            let (t_b, f_b) = csa(c45, c67, c2b);
            let (s0, c2c) = (s0a ^ s0b, s0a & s0b);
            let (s1, f_c) = csa(t_a, t_b, c2c);
            let (s2, s3) = csa(f_a, f_b, f_c);
            // Carry-save the column sum into the planes, level-aligned.
            let p = &mut self.planes[wi..];
            let (n0, carry0) = (p[0] ^ s0, p[0] & s0);
            p[0] = n0;
            let (n1, carry1) = csa(p[words], s1, carry0);
            p[words] = n1;
            let (n2, carry2) = csa(p[2 * words], s2, carry1);
            p[2 * words] = n2;
            let (n3, mut carry) = csa(p[3 * words], s3, carry2);
            p[3 * words] = n3;
            // Tail: a carry past plane 3 happens for a lane only once per
            // 16 folded reports, so this loop almost never iterates.
            let mut slot = 4 * words;
            while carry != 0 {
                let plane = &mut p[slot];
                let sum = *plane ^ carry;
                carry &= *plane;
                *plane = sum;
                slot += words;
            }
        }
        self.buffered = 0;
        self.pending += BATCH as u32;
        if self.pending > self.flush_at {
            self.flush();
        }
    }

    /// Drains the pending planes (and any partially-filled batch) into the
    /// flushed per-category counts. Called automatically as the planes
    /// fill; public so benches can charge the gather to the timed region
    /// explicitly.
    pub fn flush(&mut self) {
        if self.pending == 0 && self.buffered == 0 {
            return;
        }
        let mut counts = std::mem::take(&mut self.counts);
        self.gather_into(&mut counts);
        self.counts = counts;
        self.planes.iter_mut().for_each(|p| *p = 0);
        self.pending = 0;
        self.buffered = 0;
    }

    /// The exact per-category counts absorbed so far (flushed, plane-held
    /// and batch-buffered alike).
    pub fn counts(&self) -> Vec<u64> {
        let mut out = self.counts.clone();
        self.gather_into(&mut out);
        out
    }

    /// Adds this histogram's total counts into `out`, without mutating the
    /// histogram — the merge primitive [`crate::FrequencyAccumulator`]
    /// folds shards with.
    ///
    /// # Panics
    /// Panics if `out` is shorter than the domain.
    pub fn add_to(&self, out: &mut [u64]) {
        assert!(
            out.len() >= self.counts.len(),
            "output slice shorter than the {}-category domain",
            self.counts.len()
        );
        for (o, &c) in out.iter_mut().zip(&self.counts) {
            *o += c;
        }
        self.gather_into(out);
    }

    /// Adds the un-flushed state — plane contributions plus the partially
    /// filled batch buffer — into `out`.
    fn gather_into(&self, out: &mut [u64]) {
        if self.pending > 0 {
            for (l, plane) in self.planes.chunks_exact(self.words).enumerate() {
                let weight = 1u64 << l;
                for (wi, &bits) in plane.iter().enumerate() {
                    let mut m = bits;
                    while m != 0 {
                        let tz = m.trailing_zeros() as usize;
                        out[wi * 64 + tz] += weight;
                        m &= m - 1;
                    }
                }
            }
        }
        for r in 0..self.buffered {
            for wi in 0..self.words {
                let mut m = self.buf[wi * BATCH + r];
                while m != 0 {
                    let tz = m.trailing_zeros() as usize;
                    out[wi * 64 + tz] += 1;
                    m &= m - 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::rng::seeded_rng;
    use rand::RngCore;

    /// A random well-formed k-bit vector (~half the bits set).
    fn random_bits(k: u32, rng: &mut impl RngCore) -> BitVec {
        let words = (k as usize).div_ceil(64);
        let mut ws: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
        let tail = k % 64;
        if tail != 0 {
            ws[words - 1] &= (1u64 << tail) - 1;
        }
        BitVec::from_words(k, ws).expect("masked to well-formed")
    }

    #[test]
    fn matches_scattered_walk_across_batch_and_flush_boundaries() {
        for (k, planes) in [(1u32, 4u32), (5, 4), (64, 5), (130, 4), (256, 6)] {
            let mut rng = seeded_rng(u64::from(k) * 31 + u64::from(planes));
            let mut hist = WordHistogram::with_planes(k, planes);
            let mut reference = vec![0u64; k as usize];
            // Enough reports to cross several flushes (every ≲ 2^planes) and
            // leave a partially-filled batch at the end.
            for _ in 0..((1usize << planes) * 5 + 3) {
                let bits = random_bits(k, &mut rng);
                for v in bits.iter_ones() {
                    reference[v as usize] += 1;
                }
                hist.add_bits(&bits);
            }
            assert_eq!(hist.counts(), reference, "k={k} planes={planes}");
            // add_to folds flushed + pending + buffered into a total.
            let mut merged = vec![7u64; k as usize];
            hist.add_to(&mut merged);
            for (m, r) in merged.iter().zip(&reference) {
                assert_eq!(*m, r + 7);
            }
            // Explicit flush is a no-op on the observable counts.
            hist.flush();
            assert_eq!(hist.counts(), reference);
            hist.flush();
            assert_eq!(hist.counts(), reference);
        }
    }

    #[test]
    fn adder_network_is_exact_for_every_lane_pattern() {
        // Feed eight reports that enumerate every possible 8-bit column
        // pattern across 256 lanes: lane c receives bit r of c at report r,
        // so its count must equal popcount(c).
        let k = 256u32;
        let mut hist = WordHistogram::new(k);
        for r in 0..8u32 {
            let mut bits = BitVec::zeros(k);
            for c in 0..k {
                if (c >> r) & 1 == 1 {
                    bits.set(c, true);
                }
            }
            hist.add_bits(&bits);
        }
        let counts = hist.counts();
        for c in 0..k {
            assert_eq!(counts[c as usize], u64::from(c.count_ones()), "lane {c}");
        }
    }

    #[test]
    fn empty_histogram_counts_zero() {
        let hist = WordHistogram::new(70);
        assert_eq!(hist.k(), 70);
        assert_eq!(hist.counts(), vec![0u64; 70]);
    }

    #[test]
    #[should_panic(expected = "plane depth")]
    fn rejects_shallow_planes() {
        WordHistogram::with_planes(8, 3);
    }
}
