//! Attribute domains and rescaling between user domains and the canonical
//! `[-1, 1]` interval all numeric mechanisms operate on.
//!
//! The paper (§III-B, remark after Algorithm 2) assumes each user knows the
//! public domain `[-r, r]` of her attribute, normalizes to `[-1, 1]`,
//! perturbs, and the aggregator rescales. [`NumericDomain`] generalizes this
//! to an arbitrary interval `[lo, hi]` via an affine map, which keeps
//! unbiasedness: if `E[t*] = t` on `[-1, 1]`, then
//! `E[denormalize(t*)] = denormalize(t)`.

use crate::error::{LdpError, Result};

/// A public, bounded numeric attribute domain `[lo, hi]` with `lo < hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericDomain {
    lo: f64,
    hi: f64,
}

impl NumericDomain {
    /// Creates a domain, validating `lo < hi` and finiteness.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for non-finite or empty intervals.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(LdpError::InvalidParameter {
                name: "domain",
                message: format!("need finite lo < hi, got [{lo}, {hi}]"),
            });
        }
        Ok(NumericDomain { lo, hi })
    }

    /// Lower bound.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Interval width `hi - lo`.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Interval midpoint.
    #[inline]
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Whether `x` lies in the (closed) domain.
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        x.is_finite() && x >= self.lo && x <= self.hi
    }

    /// Affinely maps `x ∈ [lo, hi]` to `[-1, 1]`.
    ///
    /// # Errors
    /// [`LdpError::OutOfDomain`] if `x` is outside the domain.
    pub fn normalize(&self, x: f64) -> Result<f64> {
        if !self.contains(x) {
            return Err(LdpError::OutOfDomain {
                value: x,
                lo: self.lo,
                hi: self.hi,
            });
        }
        // Clamp to absorb floating-point rounding at the edges.
        Ok(((2.0 * (x - self.lo) / self.width()) - 1.0).clamp(-1.0, 1.0))
    }

    /// Inverse of [`NumericDomain::normalize`]; accepts any real `y`
    /// (mechanism outputs routinely fall outside `[-1, 1]`).
    #[inline]
    pub fn denormalize(&self, y: f64) -> f64 {
        self.mid() + 0.5 * self.width() * y
    }

    /// Clamps `x` into the domain (used when cleaning raw data, never on
    /// mechanism outputs — clamping outputs would bias the estimates).
    #[inline]
    pub fn clamp(&self, x: f64) -> f64 {
        x.clamp(self.lo, self.hi)
    }

    /// Lowers `x` to one of `g` equal-width grid cells over the domain.
    ///
    /// Cell `i` covers `[lo + i·w/g, lo + (i+1)·w/g)` with the last cell
    /// closed at `hi`. Out-of-domain values clamp to the nearest cell, so
    /// grid lowering never fails on raw survey data.
    ///
    /// # Panics
    /// Panics if `g == 0`.
    #[inline]
    pub fn grid_cell(&self, x: f64, g: usize) -> u32 {
        assert!(g > 0, "grid granularity must be positive");
        let t = (self.clamp(x) - self.lo) / self.width();
        (((t * g as f64).floor() as i64).clamp(0, g as i64 - 1)) as u32
    }

    /// The sub-interval `[lo_i, hi_i]` covered by grid cell `i` out of `g`.
    ///
    /// # Panics
    /// Panics if `g == 0` or `i ≥ g`.
    #[inline]
    pub fn cell_bounds(&self, i: u32, g: usize) -> (f64, f64) {
        assert!(g > 0 && (i as usize) < g, "cell {i} out of range {g}");
        let w = self.width() / g as f64;
        (self.lo + i as f64 * w, self.lo + (i as f64 + 1.0) * w)
    }

    /// Fraction of grid cell `i` (out of `g`) covered by the query interval
    /// `[qlo, qhi]` — the partial-cell weight used by range decomposition.
    /// Returns a value in `[0, 1]`; degenerate queries (`qhi ≤ qlo`) get 0.
    ///
    /// # Panics
    /// Panics if `g == 0` or `i ≥ g`.
    #[inline]
    pub fn cell_overlap(&self, i: u32, g: usize, qlo: f64, qhi: f64) -> f64 {
        let (clo, chi) = self.cell_bounds(i, g);
        let lo = qlo.max(clo);
        let hi = qhi.min(chi);
        ((hi - lo) / (chi - clo)).clamp(0.0, 1.0)
    }
}

impl std::fmt::Display for NumericDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_domains() {
        assert!(NumericDomain::new(1.0, 1.0).is_err());
        assert!(NumericDomain::new(2.0, 1.0).is_err());
        assert!(NumericDomain::new(f64::NAN, 1.0).is_err());
        assert!(NumericDomain::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn normalize_maps_endpoints_and_midpoint() {
        let d = NumericDomain::new(10.0, 30.0).unwrap();
        assert_eq!(d.normalize(10.0).unwrap(), -1.0);
        assert_eq!(d.normalize(30.0).unwrap(), 1.0);
        assert_eq!(d.normalize(20.0).unwrap(), 0.0);
    }

    #[test]
    fn normalize_rejects_out_of_domain() {
        let d = NumericDomain::new(0.0, 1.0).unwrap();
        assert!(d.normalize(-0.1).is_err());
        assert!(d.normalize(1.1).is_err());
        assert!(d.normalize(f64::NAN).is_err());
    }

    #[test]
    fn denormalize_inverts_normalize() {
        let d = NumericDomain::new(-5.0, 3.0).unwrap();
        for x in [-5.0, -1.25, 0.0, 2.9999, 3.0] {
            let y = d.normalize(x).unwrap();
            assert!((d.denormalize(y) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn denormalize_accepts_out_of_unit_values() {
        // PM outputs reach ±C > 1; denormalize must extrapolate linearly.
        let d = NumericDomain::new(0.0, 10.0).unwrap();
        assert_eq!(d.denormalize(3.0), 20.0);
        assert_eq!(d.denormalize(-3.0), -10.0);
    }

    #[test]
    fn unit_domain_is_identity() {
        let d = NumericDomain::new(-1.0, 1.0).unwrap();
        for x in [-1.0, -0.3, 0.7, 1.0] {
            assert!((d.normalize(x).unwrap() - x).abs() < 1e-15);
            assert!((d.denormalize(x) - x).abs() < 1e-15);
        }
    }

    #[test]
    fn grid_cell_partitions_the_domain() {
        let d = NumericDomain::new(15.0, 90.0).unwrap();
        assert_eq!(d.grid_cell(15.0, 5), 0);
        assert_eq!(d.grid_cell(89.999, 5), 4);
        // hi lands in the last cell (closed at the top), not a phantom cell g.
        assert_eq!(d.grid_cell(90.0, 5), 4);
        // Out-of-domain values clamp instead of erroring.
        assert_eq!(d.grid_cell(-3.0, 5), 0);
        assert_eq!(d.grid_cell(1e9, 5), 4);
        // Interior boundaries are half-open: 30.0 starts cell 1 of 5.
        assert_eq!(d.grid_cell(30.0, 5), 1);
        assert_eq!(d.grid_cell(29.999_999, 5), 0);
    }

    #[test]
    fn grid_cell_coarsening_is_consistent() {
        // When g1 = c·g2, the coarse cell is the fine cell divided by c —
        // the alignment the 2-D↔1-D marginal repair relies on.
        let d = NumericDomain::new(0.0, 1.0).unwrap();
        let (g1, g2) = (12, 4);
        let c = g1 / g2;
        for k in 0..1000 {
            let x = k as f64 / 1000.0;
            assert_eq!(d.grid_cell(x, g2), d.grid_cell(x, g1) / c as u32, "x = {x}");
        }
    }

    #[test]
    fn cell_bounds_tile_the_domain() {
        let d = NumericDomain::new(-5.0, 3.0).unwrap();
        let g = 7;
        let (first_lo, _) = d.cell_bounds(0, g);
        let (_, last_hi) = d.cell_bounds(g as u32 - 1, g);
        assert!((first_lo - d.lo()).abs() < 1e-12);
        assert!((last_hi - d.hi()).abs() < 1e-12);
        for i in 1..g as u32 {
            let (_, prev_hi) = d.cell_bounds(i - 1, g);
            let (lo, _) = d.cell_bounds(i, g);
            assert!((prev_hi - lo).abs() < 1e-12);
        }
    }

    #[test]
    fn cell_overlap_weights_partial_cells() {
        let d = NumericDomain::new(0.0, 10.0).unwrap();
        // Cell 1 of 5 covers [2, 4]; query [3, 9] covers half of it.
        assert!((d.cell_overlap(1, 5, 3.0, 9.0) - 0.5).abs() < 1e-12);
        // Fully covered and fully disjoint cells.
        assert_eq!(d.cell_overlap(2, 5, 3.0, 9.0), 1.0);
        assert_eq!(d.cell_overlap(0, 5, 3.0, 9.0), 0.0);
        // Degenerate query.
        assert_eq!(d.cell_overlap(2, 5, 6.0, 5.0), 0.0);
    }

    #[test]
    fn clamp_is_idempotent() {
        let d = NumericDomain::new(-1.0, 1.0).unwrap();
        assert_eq!(d.clamp(5.0), 1.0);
        assert_eq!(d.clamp(-5.0), -1.0);
        assert_eq!(d.clamp(0.5), 0.5);
        assert_eq!(d.clamp(d.clamp(7.0)), 1.0);
    }
}
