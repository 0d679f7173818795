//! Runtime-selectable mechanism families.
//!
//! Protocols, the experiment harness and the tests select mechanisms by
//! kind; these enums are the single place where a kind is turned into a
//! mechanism — an [`AnyNumeric`] or an [`AnyOracle`], the one handle each
//! family has.

use crate::budget::Epsilon;
use crate::categorical::{AnyOracle, Grr, Oue, Sue};
use crate::error::Result;
use crate::numeric::{AnyNumeric, Duchi1d, Hybrid, Laplace, Piecewise, Scdf, Staircase};

/// The one-dimensional numeric mechanisms of §III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumericKind {
    /// Laplace mechanism with scale 2/ε.
    Laplace,
    /// Soria-Comas & Domingo-Ferrer stepped noise.
    Scdf,
    /// Geng et al.'s staircase noise.
    Staircase,
    /// Duchi et al.'s binary mechanism (Algorithm 1).
    Duchi,
    /// The paper's Piecewise Mechanism (Algorithm 2).
    Piecewise,
    /// The paper's Hybrid Mechanism (§III-C).
    Hybrid,
}

impl NumericKind {
    /// All kinds, in the order the paper's figures list them.
    pub const ALL: [NumericKind; 6] = [
        NumericKind::Laplace,
        NumericKind::Scdf,
        NumericKind::Staircase,
        NumericKind::Duchi,
        NumericKind::Piecewise,
        NumericKind::Hybrid,
    ];

    /// Instantiates the mechanism for budget `ε`.
    pub fn build(self, epsilon: Epsilon) -> AnyNumeric {
        match self {
            NumericKind::Laplace => AnyNumeric::Laplace(Laplace::new(epsilon)),
            NumericKind::Scdf => AnyNumeric::Scdf(Scdf::new(epsilon)),
            NumericKind::Staircase => AnyNumeric::Staircase(Staircase::new(epsilon)),
            NumericKind::Duchi => AnyNumeric::Duchi(Duchi1d::new(epsilon)),
            NumericKind::Piecewise => AnyNumeric::Piecewise(Piecewise::new(epsilon)),
            NumericKind::Hybrid => AnyNumeric::Hybrid(Hybrid::new(epsilon)),
        }
    }

    /// The mechanism's display name ("PM", "HM", "Duchi", …).
    pub fn name(self) -> &'static str {
        match self {
            NumericKind::Laplace => "Laplace",
            NumericKind::Scdf => "SCDF",
            NumericKind::Staircase => "Staircase",
            NumericKind::Duchi => "Duchi",
            NumericKind::Piecewise => "PM",
            NumericKind::Hybrid => "HM",
        }
    }
}

/// The categorical frequency oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Optimized unary encoding (the paper's choice).
    Oue,
    /// k-ary randomized response.
    Grr,
    /// Symmetric unary encoding (basic RAPPOR).
    Sue,
}

impl OracleKind {
    /// All kinds.
    pub const ALL: [OracleKind; 3] = [OracleKind::Oue, OracleKind::Grr, OracleKind::Sue];

    /// Instantiates the oracle for budget `ε` and domain size `k`.
    ///
    /// # Errors
    /// Propagates the oracle constructor's validation (`k ≥ 2`).
    pub fn build(self, epsilon: Epsilon, k: u32) -> Result<AnyOracle> {
        Ok(match self {
            OracleKind::Oue => AnyOracle::Oue(Oue::new(epsilon, k)?),
            OracleKind::Grr => AnyOracle::Grr(Grr::new(epsilon, k)?),
            OracleKind::Sue => AnyOracle::Sue(Sue::new(epsilon, k)?),
        })
    }

    /// The oracle's display name.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Oue => "OUE",
            OracleKind::Grr => "GRR",
            OracleKind::Sue => "SUE",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_kinds_build_with_consistent_names() {
        let eps = Epsilon::new(1.0).unwrap();
        for kind in NumericKind::ALL {
            let m = kind.build(eps);
            assert_eq!(m.name(), kind.name());
            assert_eq!(m.epsilon(), eps);
        }
    }

    #[test]
    fn oracle_kinds_build_with_consistent_names() {
        let eps = Epsilon::new(1.0).unwrap();
        for kind in OracleKind::ALL {
            let o = kind.build(eps, 5).unwrap();
            assert_eq!(o.as_dyn().name(), kind.name());
            assert_eq!(o.k(), 5);
        }
    }

    #[test]
    fn oracle_kinds_propagate_validation() {
        let eps = Epsilon::new(1.0).unwrap();
        for kind in OracleKind::ALL {
            assert!(kind.build(eps, 1).is_err());
        }
    }
}
