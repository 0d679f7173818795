//! One-dimensional ε-LDP mechanisms for numeric values in `[-1, 1]`.
//!
//! * [`Laplace`] — classic additive noise with scale `2/ε` (§III-A).
//! * [`Scdf`] — Soria-Comas & Domingo-Ferrer's piecewise-constant noise.
//! * [`Staircase`] — Geng et al.'s staircase noise with `γ* = 1/(1+e^{ε/2})`.
//! * [`Duchi1d`] — Duchi et al.'s binary mechanism (Algorithm 1).
//! * [`Piecewise`] — the paper's Piecewise Mechanism (Algorithm 2).
//! * [`Hybrid`] — the paper's Hybrid Mechanism (§III-C).

mod duchi;
mod hybrid;
mod laplace;
mod piecewise;
mod scdf;
mod staircase;
mod stepped;

pub use duchi::Duchi1d;
pub use hybrid::Hybrid;
pub use laplace::Laplace;
pub use piecewise::Piecewise;
pub use scdf::Scdf;
pub use staircase::Staircase;

use crate::budget::Epsilon;
use crate::error::Result;
use crate::mechanism::NumericMechanism;
use rand::RngCore;

/// The one handle on a 1-D numeric mechanism: enum dispatch over the
/// concrete mechanisms, built by [`crate::NumericKind::build`] — the numeric
/// counterpart of [`crate::AnyOracle`].
///
/// [`AnyNumeric::perturb`] is one predictable match per value, then the
/// concrete mechanism's one sampler, generic over the rng so the whole
/// numeric draw inlines when driven by an [`crate::rng::RngBlock`]. The
/// object-safe [`NumericMechanism`] description (name, ε, variances,
/// output bound) is reached through [`AnyNumeric::as_dyn`].
///
/// ```
/// use ldp_core::{Epsilon, NumericKind, rng::seeded_rng};
/// let hm = NumericKind::Hybrid.build(Epsilon::new(1.0)?);
/// let noisy = hm.perturb(0.25, &mut seeded_rng(7))?;
/// assert!(noisy.abs() <= hm.output_bound().unwrap());
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone)]
pub enum AnyNumeric {
    /// Laplace mechanism with scale 2/ε.
    Laplace(Laplace),
    /// Soria-Comas & Domingo-Ferrer stepped noise.
    Scdf(Scdf),
    /// Geng et al.'s staircase noise.
    Staircase(Staircase),
    /// Duchi et al.'s binary mechanism (Algorithm 1).
    Duchi(Duchi1d),
    /// The paper's Piecewise Mechanism (Algorithm 2).
    Piecewise(Piecewise),
    /// The paper's Hybrid Mechanism (§III-C).
    Hybrid(Hybrid),
}

impl AnyNumeric {
    /// Borrows the mechanism as a trait object, for the object-safe half of
    /// the API (harness tables, diagnostics, variance plots).
    pub fn as_dyn(&self) -> &dyn NumericMechanism {
        match self {
            AnyNumeric::Laplace(m) => m,
            AnyNumeric::Scdf(m) => m,
            AnyNumeric::Staircase(m) => m,
            AnyNumeric::Duchi(m) => m,
            AnyNumeric::Piecewise(m) => m,
            AnyNumeric::Hybrid(m) => m,
        }
    }

    /// Perturbs a single value `t ∈ [-1, 1]`: one match, then the concrete
    /// mechanism's sampler.
    ///
    /// # Errors
    /// [`crate::LdpError::OutOfDomain`] if `t` is NaN or outside `[-1, 1]`.
    #[inline]
    pub fn perturb<R: RngCore + ?Sized>(&self, input: f64, rng: &mut R) -> Result<f64> {
        match self {
            AnyNumeric::Laplace(m) => m.perturb(input, rng),
            AnyNumeric::Scdf(m) => m.perturb(input, rng),
            AnyNumeric::Staircase(m) => m.perturb(input, rng),
            AnyNumeric::Duchi(m) => m.perturb(input, rng),
            AnyNumeric::Piecewise(m) => m.perturb(input, rng),
            AnyNumeric::Hybrid(m) => m.perturb(input, rng),
        }
    }

    /// Log-likelihood of output `x` given true value `t`, under each
    /// mechanism's natural output measure (density for [`Laplace`] and
    /// [`Piecewise`], point mass for [`Duchi1d`], the mixed measure for
    /// [`Hybrid`]). The `ldp-audit` attacker subtracts two of these to get
    /// an exact log likelihood ratio between neighboring inputs.
    ///
    /// # Errors
    /// * [`crate::LdpError::OutOfDomain`] if `t ∉ [-1, 1]`.
    /// * [`crate::LdpError::InvalidParameter`] for [`Scdf`] and
    ///   [`Staircase`], whose auditing likelihoods are not implemented (they
    ///   are §III baselines, not part of any audited protocol grid).
    pub fn log_density(&self, x: f64, t: f64) -> Result<f64> {
        match self {
            AnyNumeric::Laplace(m) => m.log_density(x, t),
            AnyNumeric::Duchi(m) => m.log_mass(x, t),
            AnyNumeric::Piecewise(m) => m.log_density(x, t),
            AnyNumeric::Hybrid(m) => m.log_density(x, t),
            AnyNumeric::Scdf(_) | AnyNumeric::Staircase(_) => {
                Err(crate::LdpError::InvalidParameter {
                    name: "mechanism",
                    message: format!("log_density not implemented for {}", self.name()),
                })
            }
        }
    }

    /// The privacy budget this mechanism was constructed with.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.as_dyn().epsilon()
    }

    /// Short stable name ("PM", "HM", "Duchi", …).
    #[inline]
    pub fn name(&self) -> &'static str {
        self.as_dyn().name()
    }

    /// Closed-form output variance `Var[t* | t]` for the given input.
    #[inline]
    pub fn variance(&self, input: f64) -> f64 {
        self.as_dyn().variance(input)
    }

    /// `max_{t ∈ [-1,1]} Var[t* | t]`.
    #[inline]
    pub fn worst_case_variance(&self) -> f64 {
        self.as_dyn().worst_case_variance()
    }

    /// The symmetric output bound `b` with `|t*| ≤ b`, if bounded.
    #[inline]
    pub fn output_bound(&self) -> Option<f64> {
        self.as_dyn().output_bound()
    }
}

#[cfg(test)]
mod any_tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::NumericKind;

    #[test]
    fn any_numeric_rejects_out_of_domain() {
        let m = NumericKind::Piecewise.build(Epsilon::new(1.0).unwrap());
        let mut rng = seeded_rng(3);
        assert!(m.perturb(1.5, &mut rng).is_err());
        assert!(m.perturb(f64::NAN, &mut rng).is_err());
    }
}
