//! Randomness helpers shared by all mechanisms.
//!
//! Every sampler in the crate — each mechanism's one `perturb` or
//! `perturb_into`, and the helpers here — is generic over
//! `R: RngCore + ?Sized`. It monomorphizes fully (every draw inlined, no
//! virtual calls) when handed a concrete generator such as
//! [`RngBlock`]`<StdRng>`. Tests and examples use seeded [`StdRng`]s for
//! reproducibility.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic RNG for tests, examples, and benchmarks.
///
/// Two calls with the same seed yield identical streams across platforms
/// (StdRng is documented as reproducible for a fixed rand major version).
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Default number of 64-bit draws an [`RngBlock`] buffers per refill.
///
/// 256 words = 2 KiB — comfortably L1-resident next to the report buffers
/// the hot loops carry, yet large enough that the refill loop amortizes to
/// nothing per draw.
pub const RNG_BLOCK_LEN: usize = 256;

/// A batching adapter over a concrete [`RngCore`]: fills an inline buffer
/// of raw 64-bit uniforms in one monomorphized pass and serves subsequent
/// draws from it.
///
/// The per-user hot loops make dozens of draws per report (Floyd placement,
/// binomial inversion, Bernoulli coins); routed through `&mut dyn RngCore`
/// each draw is an uninlinable virtual call into the generator's state
/// update. `RngBlock` moves that state update into the batched refill —
/// the generator is cloned into a local so its state lives in registers for
/// the whole fill, immune to aliasing with the buffer writes — and reduces
/// a served draw to one compare against the const length and one load from
/// an inline array (no heap indirection: the buffer lives inside the
/// struct, so `LEN` is a compile-time constant and the serve path carries
/// no pointer chase). Combined with the generic helpers in this module it
/// removes dyn dispatch from the hot loop entirely.
///
/// The stream is a bit-exact prefix of the inner generator's: draw `i` from
/// an `RngBlock` equals draw `i` from the bare `R` under the same seed,
/// regardless of `LEN`. Pipelines can therefore switch between the scalar
/// and batched paths without changing any estimate (the `rng_block`
/// integration tests pin this).
#[derive(Debug, Clone)]
pub struct RngBlock<R: RngCore + Clone, const LEN: usize = RNG_BLOCK_LEN> {
    inner: R,
    buf: [u64; LEN],
    pos: usize,
}

impl<R: RngCore + Clone, const LEN: usize> RngBlock<R, LEN> {
    /// Wraps `inner`. `LEN` is a performance knob only (it never affects
    /// the draw stream); the [`RNG_BLOCK_LEN`] default is right for the
    /// simulation hot loops.
    ///
    /// # Panics
    /// Panics if `LEN == 0`.
    pub fn new(inner: R) -> Self {
        assert!(LEN > 0, "RngBlock needs a positive buffer length");
        RngBlock {
            inner,
            // Start exhausted so construction costs nothing when few draws
            // follow; the first draw pays the first refill.
            buf: [0; LEN],
            pos: LEN,
        }
    }

    /// One whole-buffer batched fill — the only place the concrete `R`'s
    /// state update runs. The generator is cloned into a local first: the
    /// optimizer then keeps its state in registers across all `LEN` steps
    /// (a borrow-based fill would reload it each iteration, since the
    /// compiler cannot rule out aliasing between the generator and the
    /// buffer being written). Deliberately *not* `#[cold]`: it runs every
    /// `LEN` draws, and cold functions are optimized for size, which would
    /// gut the fill loop this type exists for.
    #[inline(never)]
    fn refill(&mut self) {
        let mut local = self.inner.clone();
        for slot in self.buf.iter_mut() {
            *slot = local.next_u64();
        }
        self.inner = local;
        self.pos = 0;
    }

    /// Returns the wrapped generator, discarding any buffered draws.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: RngCore + Clone, const LEN: usize> RngCore for RngBlock<R, LEN> {
    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        if self.pos == LEN {
            self.refill();
        }
        let x = self.buf[self.pos];
        self.pos += 1;
        x
    }

    #[inline(always)]
    fn next_u32(&mut self) -> u32 {
        // Matches StdRng's convention (high word) so conversions that go
        // through next_u32 stay aligned with the unbatched stream.
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// A draw source that can stream runs of raw 64-bit draws.
///
/// The unary oracles' Floyd placement loop consumes one raw draw per
/// flipped bit. Through [`RngCore`] alone, each of those draws pays the
/// source's per-call bookkeeping (for [`RngBlock`], a buffer-cursor
/// check). `DrawSource::with_raw` lets a
/// source hand the loop a whole *slice* of upcoming draws instead:
/// [`RngBlock`] serves its internal buffer directly — one cursor update per
/// chunk rather than per draw, with the placement loop iterating plain
/// memory — while scalar sources fall back to one-draw chunks, making the
/// fallback exactly the per-draw loop they always ran.
///
/// Implementations must deliver the draws in stream order: consuming `n`
/// draws through `with_raw` leaves the source in the same state as `n`
/// calls to `next_u64`, so scalar and batched paths stay bit-compatible.
pub trait DrawSource: RngCore {
    /// Streams the next `n` raw draws to `f`, in order, in whatever chunk
    /// sizes the source can serve cheaply. `f` sees every draw exactly
    /// once; chunk boundaries carry no meaning.
    fn with_raw(&mut self, n: u32, f: impl FnMut(&[u64]));
}

/// One-draw-at-a-time fallback used by the scalar implementations.
#[inline]
fn singles<R: RngCore + ?Sized>(rng: &mut R, n: u32, mut f: impl FnMut(&[u64])) {
    for _ in 0..n {
        f(&[rng.next_u64()]);
    }
}

impl DrawSource for StdRng {
    #[inline]
    fn with_raw(&mut self, n: u32, f: impl FnMut(&[u64])) {
        singles(self, n, f);
    }
}

impl<R: DrawSource + ?Sized> DrawSource for &mut R {
    #[inline]
    fn with_raw(&mut self, n: u32, f: impl FnMut(&[u64])) {
        (**self).with_raw(n, f);
    }
}

impl<R: RngCore + Clone, const LEN: usize> DrawSource for RngBlock<R, LEN> {
    #[inline]
    fn with_raw(&mut self, n: u32, mut f: impl FnMut(&[u64])) {
        let mut remaining = n as usize;
        while remaining > 0 {
            if self.pos == LEN {
                self.refill();
            }
            let take = remaining.min(LEN - self.pos);
            f(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            remaining -= take;
        }
    }
}

/// Maps one raw 64-bit draw to `{0, …, bound-1}` (Lemire multiply-shift) —
/// the conversion behind [`uniform_index`], exposed for loops that consume
/// pre-fetched draws from [`DrawSource::with_raw`].
#[inline]
pub fn index_from_raw(raw: u64, bound: u32) -> u32 {
    debug_assert!(bound > 0, "index_from_raw needs a positive bound");
    ((u128::from(raw) * u128::from(bound)) >> 64) as u32
}

/// Draws `true` with probability `p` (clamped to `[0, 1]`).
#[inline]
pub fn bernoulli<R: RngCore + ?Sized>(rng: &mut R, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    rng.random::<f64>() < p
}

/// The integer threshold making [`bernoulli_from_threshold`] decide
/// **exactly** like [`bernoulli`] on the same consumed word, for
/// `p ∈ (0, 1)`.
///
/// `bernoulli` compares the 53-bit draw `x = next_u64() >> 11` (exact as
/// f64) against `p` after scaling by `2⁻⁵³`; both the draw and the
/// power-of-two product `p·2⁵³` are exact f64 values, so for integer `x`:
/// `x·2⁻⁵³ < p  ⟺  x < ⌈p·2⁵³⌉`. Precomputing the ceiling turns the
/// per-draw int→float convert + float compare into one integer compare —
/// the hot-path form mechanisms with a fixed `p` (e.g. the GRR fast
/// kernel) bake in at construction.
pub fn bernoulli_threshold(p: f64) -> u64 {
    debug_assert!(p > 0.0 && p < 1.0, "threshold form needs p in (0, 1)");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Decides a Bernoulli trial from one raw generator word and a
/// precomputed [`bernoulli_threshold`], consuming exactly the draw
/// [`bernoulli`] would and returning exactly its answer (pinned by tests).
#[inline]
pub fn bernoulli_from_threshold<R: RngCore + ?Sized>(rng: &mut R, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// Uniform draw from `[lo, hi)`. Requires `lo < hi` (checked in debug).
#[inline]
pub fn uniform<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo < hi, "uniform requires lo < hi, got [{lo}, {hi})");
    lo + (hi - lo) * rng.random::<f64>()
}

/// Draws `±1` with equal probability.
#[inline]
pub fn random_sign<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    if rng.random::<bool>() {
        1.0
    } else {
        -1.0
    }
}

/// Uniform draw from `{0, …, bound-1}` via Lemire's multiply-shift: one
/// 64-bit draw, a widening multiply, no division. The mapping bias is
/// O(bound/2^64) — immeasurably small for any domain this crate handles —
/// which buys back the ~20-cycle hardware divide a `%`-based range draw
/// pays, in loops that make one draw per flipped bit.
#[inline]
pub fn uniform_index<R: RngCore + ?Sized>(rng: &mut R, bound: u32) -> u32 {
    index_from_raw(rng.next_u64(), bound)
}

/// Samples `k` distinct indices uniformly from `{0, …, d-1}` (Floyd's
/// algorithm), in O(k) expected time and O(k) space. The result is sorted,
/// which makes downstream report layouts deterministic.
///
/// Thin wrapper over [`sample_distinct_into`] that allocates a fresh vector;
/// hot loops should hold a reusable buffer and call the `_into` variant.
///
/// # Panics
/// Panics in debug builds if `k > d`.
pub fn sample_distinct<R: RngCore + ?Sized>(rng: &mut R, d: usize, k: usize) -> Vec<u32> {
    let mut chosen = Vec::with_capacity(k);
    sample_distinct_into(rng, d, k, &mut chosen);
    chosen
}

/// Buffer-reusing form of [`sample_distinct`]: clears `out` and fills it
/// with `k` sorted distinct indices from `{0, …, d-1}`.
///
/// The buffer is kept sorted during Floyd's walk, so membership tests are
/// O(log k) binary searches instead of the O(k) linear probes a scratch-free
/// implementation would need — and the output needs no final sort. Draws
/// map raw 64-bit outputs through [`uniform_index`]'s multiply-shift rather
/// than the modulo reduction earlier revisions used, so seeded streams are
/// *not* bit-compatible with pre-optimization outputs (the distribution is
/// the same; fixed-seed statistical tests re-validate it).
///
/// # Panics
/// Panics in debug builds if `k > d`.
pub fn sample_distinct_into<R: RngCore + ?Sized>(
    rng: &mut R,
    d: usize,
    k: usize,
    out: &mut Vec<u32>,
) {
    debug_assert!(k <= d, "cannot sample {k} distinct indices from {d}");
    out.clear();
    out.reserve(k);
    // For small k relative to d, Floyd's algorithm touches only k slots.
    for j in (d - k)..d {
        let t = uniform_index(rng, j as u32 + 1);
        match out.binary_search(&t) {
            // `t` already chosen: take `j` instead. Every element chosen so
            // far is < j, so appending keeps the buffer sorted.
            Ok(_) => out.push(j as u32),
            Err(pos) => out.insert(pos, t),
        }
    }
}

/// Visits each index in `{0, …, n-1}` that an independent Bernoulli(`q`)
/// coin marks as a success, in increasing order, via geometric gap sampling:
/// the number of skipped indices between successes is `⌊ln U / ln(1−q)⌋`
/// with `U ~ Uniform(0, 1]`, so the walk costs O(n·q) RNG draws instead of
/// the `n` draws of a per-index loop. The unary oracles' sparse sampler
/// falls back to this walk when its precomputed Binomial CDF would
/// underflow (see `categorical::UnaryEncoder`); it is also the
/// position-streaming alternative when no flip-count table is available.
pub fn for_each_bernoulli_index<R: RngCore + ?Sized, F: FnMut(u32)>(
    rng: &mut R,
    n: u32,
    q: f64,
    mut f: F,
) {
    if n == 0 || q <= 0.0 {
        return;
    }
    if q >= 1.0 {
        (0..n).for_each(f);
        return;
    }
    // ln(1−q), computed as ln_1p(−q) for accuracy at small q.
    let ln_1q = (-q).ln_1p();
    let mut i: u64 = 0;
    while i < u64::from(n) {
        let u = 1.0 - rng.random::<f64>(); // (0, 1]
        let gap = (u.ln() / ln_1q).floor();
        // `gap` is non-negative; a huge or infinite gap means no further
        // successes in range.
        if gap >= f64::from(n) {
            return;
        }
        i += gap as u64;
        if i >= u64::from(n) {
            return;
        }
        f(i as u32);
        i += 1;
    }
}

/// Samples an index from an unnormalized weight slice.
///
/// Used by the exact (non-rejection) sampler for Duchi et al.'s
/// multidimensional mechanism. Weights must be non-negative with a positive
/// sum (checked in debug builds).
pub fn sample_weighted<R: RngCore + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0 && total.is_finite(), "bad weight sum {total}");
    let mut u = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = seeded_rng(1);
        assert!(!bernoulli(&mut rng, 0.0));
        assert!(bernoulli(&mut rng, 1.0));
        assert!(!bernoulli(&mut rng, -0.5));
        assert!(bernoulli(&mut rng, 1.5));
    }

    #[test]
    fn bernoulli_threshold_form_is_decision_identical() {
        // Same consumed word, same answer, across probabilities with and
        // without exact 53-bit representations — the equivalence the GRR
        // fast kernel's baked-in threshold relies on.
        for p in [1e-12, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7308951, 1.0 - 1e-12] {
            let t = bernoulli_threshold(p);
            let mut a = seeded_rng(9_000 + (p * 1e7) as u64);
            let mut b = a.clone();
            for i in 0..50_000 {
                assert_eq!(
                    bernoulli(&mut a, p),
                    bernoulli_from_threshold(&mut b, t),
                    "p={p} trial {i}"
                );
            }
        }
    }

    #[test]
    fn bernoulli_frequency_close_to_p() {
        let mut rng = seeded_rng(2);
        let n = 200_000;
        let hits = (0..n).filter(|_| bernoulli(&mut rng, 0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = seeded_rng(3);
        for _ in 0..10_000 {
            let x = uniform(&mut rng, -2.5, 7.0);
            assert!((-2.5..7.0).contains(&x));
        }
    }

    #[test]
    fn random_sign_is_balanced() {
        let mut rng = seeded_rng(4);
        let n = 100_000;
        let pos = (0..n).filter(|_| random_sign(&mut rng) > 0.0).count();
        let freq = pos as f64 / n as f64;
        assert!((freq - 0.5).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = seeded_rng(5);
        for (d, k) in [(10usize, 3usize), (10, 10), (100, 1), (5, 0)] {
            let s = sample_distinct(&mut rng, d, k);
            assert_eq!(s.len(), k);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted distinct: {s:?}");
            assert!(s.iter().all(|&i| (i as usize) < d));
        }
    }

    #[test]
    fn sample_distinct_is_uniform_over_indices() {
        // Each index should be chosen with probability k/d.
        let mut rng = seeded_rng(6);
        let (d, k, trials) = (8usize, 3usize, 80_000usize);
        let mut counts = vec![0usize; d];
        for _ in 0..trials {
            for i in sample_distinct(&mut rng, d, k) {
                counts[i as usize] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / d as f64;
        for (i, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.03, "index {i}: count {c}, expected {expected}");
        }
    }

    #[test]
    fn sample_distinct_into_reuses_buffer_and_matches_wrapper() {
        let mut buf = Vec::new();
        for (d, k) in [(10usize, 3usize), (100, 10), (7, 7), (5, 0)] {
            // Same seed through both paths must yield the same index set.
            let mut a = seeded_rng(1000 + d as u64);
            let mut b = seeded_rng(1000 + d as u64);
            let owned = sample_distinct(&mut a, d, k);
            sample_distinct_into(&mut b, d, k, &mut buf);
            assert_eq!(owned, buf, "d={d} k={k}");
            assert!(buf.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn bernoulli_indices_edge_cases() {
        let mut rng = seeded_rng(20);
        let collect = |rng: &mut dyn RngCore, n: u32, q: f64| {
            let mut buf = Vec::new();
            for_each_bernoulli_index(rng, n, q, |i| buf.push(i));
            buf
        };
        assert!(collect(&mut rng, 0, 0.5).is_empty());
        assert!(collect(&mut rng, 10, 0.0).is_empty());
        assert_eq!(collect(&mut rng, 10, 1.0), (0..10).collect::<Vec<u32>>());
        let buf = collect(&mut rng, 64, 0.3);
        assert!(buf.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
        assert!(buf.iter().all(|&i| i < 64));
    }

    #[test]
    fn bernoulli_indices_marginals_match_q() {
        // Each index must be included with probability q, independently —
        // the property the sparse OUE/SUE sampler relies on.
        let mut rng = seeded_rng(21);
        let (n, q, trials) = (48u32, 0.21f64, 60_000usize);
        let mut counts = vec![0usize; n as usize];
        let mut total = 0usize;
        for _ in 0..trials {
            for_each_bernoulli_index(&mut rng, n, q, |i| {
                counts[i as usize] += 1;
                total += 1;
            });
        }
        let var = q * (1.0 - q);
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            crate::assert_within_ci!(freq, q, var, trials, "index {i}");
        }
        // Total set-bit count has mean n·q and variance n·q(1−q).
        let mean_total = total as f64 / trials as f64;
        crate::assert_within_ci!(mean_total, f64::from(n) * q, f64::from(n) * var, trials);
    }

    #[test]
    fn rng_block_is_a_bit_exact_prefix_of_the_inner_stream() {
        // Draw i from the block equals draw i from the bare generator, for
        // any buffer length — the property that lets pipelines swap the
        // scalar and batched paths without changing a single estimate.
        fn check<const LEN: usize>() {
            let mut bare = seeded_rng(99);
            let mut block = RngBlock::<_, LEN>::new(seeded_rng(99));
            for i in 0..2_000 {
                assert_eq!(bare.next_u64(), block.next_u64(), "len={LEN} i={i}");
            }
        }
        check::<1>();
        check::<2>();
        check::<7>();
        check::<64>();
        check::<256>();
        check::<1000>();
    }

    #[test]
    fn rng_block_next_u32_and_fill_bytes_match_stdrng() {
        let mut bare = seeded_rng(7);
        let mut block: RngBlock<StdRng> = RngBlock::new(seeded_rng(7));
        for _ in 0..100 {
            assert_eq!(bare.next_u32(), block.next_u32());
        }
        let mut a = [0u8; 37];
        let mut b = [0u8; 37];
        bare.fill_bytes(&mut a);
        block.fill_bytes(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn rng_block_serves_generic_helpers_identically() {
        // The generic helpers must draw the same values through a block as
        // through the bare rng: uniform_index, bernoulli, distinct.
        let mut bare = seeded_rng(1234);
        let mut block = RngBlock::<_, 17>::new(seeded_rng(1234));
        let mut buf_a = Vec::new();
        let mut buf_b = Vec::new();
        for round in 0..500 {
            assert_eq!(
                uniform_index(&mut bare, 97),
                uniform_index(&mut block, 97),
                "round {round}"
            );
            assert_eq!(bernoulli(&mut bare, 0.37), bernoulli(&mut block, 0.37));
            sample_distinct_into(&mut bare, 50, 6, &mut buf_a);
            sample_distinct_into(&mut block, 50, 6, &mut buf_b);
            assert_eq!(buf_a, buf_b);
        }
    }

    #[test]
    fn rng_block_into_inner_returns_the_generator() {
        let mut block = RngBlock::<_, 8>::new(seeded_rng(5));
        let _ = block.next_u64();
        // The inner rng has advanced by one full buffer (8 draws).
        let mut inner = block.into_inner();
        let mut reference = seeded_rng(5);
        for _ in 0..8 {
            reference.next_u64();
        }
        assert_eq!(inner.next_u64(), reference.next_u64());
    }

    #[test]
    fn sample_weighted_respects_weights() {
        let mut rng = seeded_rng(7);
        let weights = [1.0, 3.0, 6.0];
        let n = 150_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[sample_weighted(&mut rng, &weights)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let freq = counts[i] as f64 / n as f64;
            let expect = w / 10.0;
            assert!(
                (freq - expect).abs() < 0.01,
                "i={i} freq={freq} expect={expect}"
            );
        }
    }
}
