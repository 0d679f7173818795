//! Mechanisms for d-dimensional tuples (§IV of the paper).
//!
//! * [`DuchiMultidim`] — Duchi et al.'s Algorithm 3, the prior
//!   state of the art for multiple *numeric* attributes.
//! * [`SamplingPerturber`] — the paper's Algorithm 4 and its §IV-C extension
//!   to tuples mixing numeric and categorical attributes.
//!
//! The budget-splitting baseline (ε/d per attribute) that §IV's
//! introduction shows is sub-optimal is Algorithm 4 with every attribute
//! sampled (`k = d`, so the `d/k` scale is 1). It has no perturber of its
//! own: `ldp_analytics::ClientEncoder` builds its per-attribute mechanisms
//! next to Algorithm 4's, and its report is a [`SparseReport`] holding
//! all `d` entries in schema order, which [`wire`] encodes in its full
//! layout.

mod duchi_md;
mod sampling;
pub mod wire;

pub use duchi_md::{DuchiMultidim, DuchiScratch};
pub use sampling::{optimal_k, SamplingPerturber, SparseReport, SparseScratch};

use crate::error::{LdpError, Result};
use crate::mechanism::CategoricalReport;

/// The type (and domain) of one attribute in a tuple, as known publicly by
/// both users and the aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrSpec {
    /// A numeric attribute, pre-normalized to `[-1, 1]`.
    Numeric,
    /// A categorical attribute with domain `{0, …, k-1}`.
    Categorical {
        /// Domain size (`k ≥ 2`).
        k: u32,
    },
}

impl AttrSpec {
    /// True for [`AttrSpec::Numeric`].
    pub fn is_numeric(&self) -> bool {
        matches!(self, AttrSpec::Numeric)
    }
}

/// One attribute value of a user tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// A numeric value in `[-1, 1]`.
    Numeric(f64),
    /// A category in `{0, …, k-1}`.
    Categorical(u32),
}

impl AttrValue {
    /// Checks the value against its spec (`index` only labels the error).
    ///
    /// # Errors
    /// Out-of-domain values and type mismatches.
    #[inline]
    pub fn validate(&self, spec: &AttrSpec, index: usize) -> Result<()> {
        match (self, spec) {
            (AttrValue::Numeric(x), AttrSpec::Numeric) => crate::mechanism::check_unit_interval(*x),
            (AttrValue::Categorical(v), AttrSpec::Categorical { k }) => {
                if v < k {
                    Ok(())
                } else {
                    Err(LdpError::InvalidCategory { value: *v, k: *k })
                }
            }
            _ => Err(LdpError::InvalidParameter {
                name: "tuple",
                message: format!("attribute {index} does not match its schema type"),
            }),
        }
    }
}

/// The perturbed message for one sampled attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrReport {
    /// A perturbed numeric value, already scaled by `d/k` as in line 6 of
    /// Algorithm 4.
    Numeric(f64),
    /// A frequency-oracle report for a categorical attribute (the `d/k`
    /// scaling for categorical attributes happens in the aggregator's
    /// frequency estimator, since a bit vector cannot be scaled).
    Categorical(CategoricalReport),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_value_validation() {
        assert!(AttrValue::Numeric(0.5)
            .validate(&AttrSpec::Numeric, 0)
            .is_ok());
        assert!(AttrValue::Numeric(1.5)
            .validate(&AttrSpec::Numeric, 0)
            .is_err());
        assert!(AttrValue::Categorical(2)
            .validate(&AttrSpec::Categorical { k: 3 }, 0)
            .is_ok());
        assert!(AttrValue::Categorical(3)
            .validate(&AttrSpec::Categorical { k: 3 }, 0)
            .is_err());
        // Type mismatches.
        assert!(AttrValue::Numeric(0.0)
            .validate(&AttrSpec::Categorical { k: 3 }, 0)
            .is_err());
        assert!(AttrValue::Categorical(0)
            .validate(&AttrSpec::Numeric, 0)
            .is_err());
    }

    #[test]
    fn attr_spec_is_numeric() {
        assert!(AttrSpec::Numeric.is_numeric());
        assert!(!AttrSpec::Categorical { k: 4 }.is_numeric());
    }
}
