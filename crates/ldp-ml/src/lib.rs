//! # ldp-ml — empirical risk minimization under local differential privacy
//!
//! The §V case study of Wang et al. (ICDE 2019): training linear regression,
//! logistic regression, and SVM classifiers by stochastic gradient descent
//! where each gradient is collected from users under ε-LDP.
//!
//! * [`loss`] — the three losses with analytically-verified gradients.
//! * [`gradient`] — the `[-1,1]` clipping that bounds mechanism inputs.
//! * [`sgd`] — [`sgd::NonPrivateSgd`] (baseline) and [`sgd::LdpSgd`], which
//!   collects each group's clipped gradients through the
//!   `ldp_analytics` session API (one `ClientEncoder`, one `Aggregator`
//!   per group) and consumes each user at most once (no budget splitting
//!   across iterations; §V shows `m > 1` participation only hurts).
//! * [`eval`] — misclassification / regression-MSE metrics and the 10-fold
//!   cross-validation harness of §VI-B.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod eval;
pub mod gradient;
pub mod loss;
pub mod sgd;

pub use eval::{cross_validate, misclassification_rate, regression_mse};
pub use gradient::clip_unit;
pub use loss::LossKind;
pub use sgd::{GradientMechanism, LdpSgd, NonPrivateSgd, SgdConfig};
