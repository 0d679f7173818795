//! # ldp-data — datasets and workload generators for LDP experiments
//!
//! Provides the data substrate for reproducing Wang et al. (ICDE 2019):
//!
//! * [`schema`] / [`dataset`] — typed schemas and columnar datasets with
//!   canonical-form ([-1, 1] / `{0..k}`) tuple views.
//! * [`synthetic`] — the Figure 5/6 workloads: truncated Gaussians, uniform,
//!   and the `(x+2)^{-10}` power law.
//! * [`census`] — synthetic BR/MX census microdata replacing the paper's
//!   registration-gated IPUMS extracts (same attribute counts, domain sizes,
//!   one-hot dimensionalities, and income learnability).
//! * [`encoding`] — §VI-B one-hot design matrices with `total_income` as the
//!   dependent variable.
//! * [`queries`] — conjunctive range-query workloads (OLAP-style filters)
//!   with exact plaintext selectivities as ground truth.
//! * [`split`] — shuffled k-fold cross validation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod census;
pub mod dataset;
pub mod encoding;
pub mod queries;
pub mod schema;
pub mod split;
pub mod synthetic;

pub use dataset::{Column, Dataset};
pub use encoding::{DesignMatrix, TargetKind};
pub use queries::{RangeClause, RangeQuery};
pub use schema::{Attribute, AttributeKind, Schema};
pub use split::{train_test_split, KFold, Split};
