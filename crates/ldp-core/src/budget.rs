//! Privacy-budget bookkeeping.
//!
//! Every mechanism takes an [`Epsilon`] rather than a bare `f64`, so that the
//! "finite and strictly positive" invariant is checked exactly once, at the
//! edge of the API. Budget arithmetic (splitting across attributes for the
//! sequential-composition baselines of §IV, or across sampled attributes in
//! Algorithm 4) is expressed as methods, which keeps the accounting auditable.

use crate::error::{LdpError, Result};

/// A validated privacy budget `ε > 0`.
///
/// `Epsilon` is a transparent wrapper over `f64`; copying it is free.
///
/// # Examples
/// ```
/// use ldp_core::Epsilon;
/// let eps = Epsilon::new(1.0).unwrap();
/// assert_eq!(eps.value(), 1.0);
/// assert!(Epsilon::new(0.0).is_err());
/// assert!(Epsilon::new(f64::NAN).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Validates and wraps a privacy budget.
    ///
    /// # Errors
    /// Returns [`LdpError::InvalidEpsilon`] unless `value` is finite and `> 0`.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && value > 0.0 {
            Ok(Epsilon(value))
        } else {
            Err(LdpError::InvalidEpsilon { value })
        }
    }

    /// The raw budget value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// `e^ε`, the likelihood-ratio bound of Definition 1.
    #[inline]
    pub fn exp(self) -> f64 {
        self.0.exp()
    }

    /// Splits the budget evenly over `parts` sub-mechanisms.
    ///
    /// By the sequential composition theorem, running each sub-mechanism with
    /// `ε/parts` yields an `ε`-LDP mechanism overall. This is the
    /// "straightforward solution" of §IV that the paper's Algorithm 4 improves
    /// upon.
    ///
    /// # Errors
    /// Returns [`LdpError::InvalidParameter`] if `parts == 0`.
    pub fn split(self, parts: usize) -> Result<Epsilon> {
        if parts == 0 {
            return Err(LdpError::InvalidParameter {
                name: "parts",
                message: "cannot split a budget into zero parts".into(),
            });
        }
        Epsilon::new(self.0 / parts as f64)
    }

    /// Allocates `fraction` of the budget (used by the §VI-A best-effort
    /// baseline, which gives `ε·d_num/d` to the numeric block).
    ///
    /// # Errors
    /// Returns an error when `fraction` is not in `(0, 1]`.
    pub fn fraction(self, fraction: f64) -> Result<Epsilon> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(LdpError::InvalidParameter {
                name: "fraction",
                message: format!("budget fraction must be in (0, 1], got {fraction}"),
            });
        }
        Epsilon::new(self.0 * fraction)
    }
}

impl TryFrom<f64> for Epsilon {
    type Error = LdpError;
    fn try_from(value: f64) -> Result<Self> {
        Epsilon::new(value)
    }
}

impl From<Epsilon> for f64 {
    fn from(eps: Epsilon) -> f64 {
        eps.value()
    }
}

impl std::fmt::Display for Epsilon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_positive_finite() {
        for v in [1e-9, 0.5, 1.0, 8.0, 1e6] {
            assert_eq!(Epsilon::new(v).unwrap().value(), v);
        }
    }

    #[test]
    fn rejects_non_positive_and_non_finite() {
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                Epsilon::new(v),
                Err(LdpError::InvalidEpsilon { .. })
            ));
        }
    }

    #[test]
    fn split_divides_evenly() {
        let eps = Epsilon::new(4.0).unwrap();
        assert_eq!(eps.split(4).unwrap().value(), 1.0);
        assert!(eps.split(0).is_err());
    }

    #[test]
    fn fraction_validates_range() {
        let eps = Epsilon::new(2.0).unwrap();
        assert_eq!(eps.fraction(0.5).unwrap().value(), 1.0);
        assert_eq!(eps.fraction(1.0).unwrap().value(), 2.0);
        assert!(eps.fraction(0.0).is_err());
        assert!(eps.fraction(1.5).is_err());
        assert!(eps.fraction(f64::NAN).is_err());
    }

    #[test]
    fn exp_matches_std() {
        let eps = Epsilon::new(1.25).unwrap();
        assert_eq!(eps.exp(), 1.25f64.exp());
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(Epsilon::new(0.5).unwrap().to_string(), "ε=0.5");
    }

    #[test]
    fn f64_conversions_round_trip_and_reject_invalid() {
        let eps = Epsilon::new(1.5).unwrap();
        assert_eq!(f64::from(eps), 1.5);
        assert_eq!(Epsilon::try_from(1.5).unwrap(), eps);
        assert!(Epsilon::try_from(-3.0).is_err());
    }
}
