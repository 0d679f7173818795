//! # ldp-core — mechanisms for local differential privacy
//!
//! A faithful implementation of the mechanisms in *Wang et al., "Collecting
//! and Analyzing Multidimensional Data with Local Differential Privacy",
//! ICDE 2019*, together with the baselines the paper compares against.
//!
//! ## One numeric attribute (§III)
//!
//! Six mechanisms perturb a value `t ∈ [-1, 1]` under ε-LDP. Each has one
//! sampler, reached through one handle, [`AnyNumeric`] (built by
//! [`NumericKind::build`]); the object-safe [`NumericMechanism`] trait
//! describes them (name, ε, variances, output bound):
//!
//! | Mechanism | Output support | Worst-case variance |
//! |---|---|---|
//! | [`numeric::Laplace`] | unbounded | `8/ε²` |
//! | [`numeric::Scdf`] | unbounded | data-independent stepped noise |
//! | [`numeric::Staircase`] | unbounded | data-independent stepped noise |
//! | [`numeric::Duchi1d`] | `{±(e^ε+1)/(e^ε−1)}` | `((e^ε+1)/(e^ε−1))²` |
//! | [`numeric::Piecewise`] (PM) | `[-C, C]` | `4e^{ε/2}/(3(e^{ε/2}−1)²)` |
//! | [`numeric::Hybrid`] (HM) | `[-C, C]` | Equation 8 — never worse than PM or Duchi |
//!
//! ## Multidimensional tuples (§IV)
//!
//! * [`multidim::SamplingPerturber`] — the paper's Algorithm 4: sample
//!   `k = max(1, min(d, ⌊ε/2.5⌋))` attributes, spend `ε/k` on each, scale by
//!   `d/k`. Handles mixed numeric/categorical schemas (§IV-C).
//! * [`multidim::DuchiMultidim`] — Duchi et al.'s Algorithm 3 baseline.
//!
//! The naive ε/d splitting baseline has no perturber of its own:
//! `ldp_analytics::ClientEncoder` builds its per-attribute mechanisms from
//! the same 1-D mechanisms and oracles.
//!
//! ## Categorical attributes
//!
//! Frequency oracles, each with one sampler reached through one handle,
//! [`AnyOracle`] (built by [`OracleKind::build`]), and described by the
//! object-safe [`FrequencyOracle`] trait: [`categorical::Oue`] (the paper's
//! choice), [`categorical::Grr`], and [`categorical::Sue`].
//!
//! ## Quick example
//!
//! ```
//! use ldp_core::{Epsilon, NumericMechanism, numeric::Hybrid, rng::seeded_rng};
//!
//! let eps = Epsilon::new(1.0)?;
//! let hm = Hybrid::new(eps);
//! let mut rng = seeded_rng(7);
//! let noisy = hm.perturb(0.25, &mut rng)?;
//! assert!(noisy.abs() <= hm.output_bound().unwrap());
//! # Ok::<(), ldp_core::LdpError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod budget;
mod domain;
mod error;
mod kinds;
mod mechanism;

pub mod audit;
pub mod categorical;
pub mod frame;
pub mod fsio;
pub mod math;
pub mod multidim;
pub mod numeric;
pub mod rng;
pub mod testutil;
pub mod theory;
pub mod variance;

pub use budget::Epsilon;
pub use categorical::AnyOracle;
pub use domain::NumericDomain;
pub use error::{IoFault, LdpError, Result};
pub use kinds::{NumericKind, OracleKind};
pub use mechanism::{
    check_unit_interval, BitVec, CategoricalReport, DebiasParams, FrequencyOracle, NumericMechanism,
};
pub use multidim::{AttrReport, AttrSpec, AttrValue};
pub use numeric::AnyNumeric;
