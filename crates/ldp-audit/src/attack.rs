//! The likelihood-ratio attacker.
//!
//! Given a cell's [`ClientEncoder`], [`Attacker`] reads the exact
//! per-attribute mechanisms the client perturbs with — Algorithm 4's `ε/k`
//! mechanisms and `d/k` numeric scale under
//! [`Protocol::Sampling`](ldp_analytics::Protocol::Sampling), the `ε/d`
//! ones under [`Protocol::BestEffort`](ldp_analytics::Protocol::BestEffort)
//! — and scores any [`Report`] with the exact log likelihood ratio between
//! the two adversarial inputs of [`ldp_core::audit::worst_case_pair`].
//!
//! Soundness does not depend on the attacker being *right* about the
//! client's internals: any deterministic guessing rule yields a valid
//! high-confidence lower bound on the privacy loss (a wrong model only
//! weakens the attack). Nor does the privacy gate trust the encoder: the
//! theoretical ε it compares against comes from the audited cell, so an
//! encoder that overspends its budget hands the attacker a *sharper*
//! likelihood model and certifies above that ε. Being exact is what makes
//! the 1-D oracle cells *tight* — for GRR/OUE/SUE the induced acceptance
//! region achieves the likelihood-ratio bound `e^ε` with equality, so the
//! certified ε approaches the theoretical ε as trials grow.

use ldp_analytics::{ClientEncoder, Report};
use ldp_core::audit::worst_case_pair;
use ldp_core::multidim::{AttrReport, AttrSpec, AttrValue};
use ldp_core::{AnyNumeric, AnyOracle, LdpError, Result};

/// A likelihood-ratio distinguishing attacker for one (protocol, ε, schema)
/// cell.
#[derive(Debug, Clone)]
pub struct Attacker {
    specs: Vec<AttrSpec>,
    v1: Vec<AttrValue>,
    v2: Vec<AttrValue>,
    /// The client's numeric sub-mechanism, if the schema has numeric
    /// attributes.
    numeric: Option<AnyNumeric>,
    /// Per schema slot: the client's oracle (`None` for numeric slots).
    oracles: Vec<Option<AnyOracle>>,
    /// Algorithm 4's `d/k` numeric scaling (1.0 for composition).
    scale: f64,
}

impl Attacker {
    /// Builds the attacker for the cell `encoder` encodes, from the
    /// encoder's own per-attribute mechanisms.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for numeric schemas under
    /// [`BestEffortNumeric::DuchiMultidim`](ldp_analytics::BestEffortNumeric::DuchiMultidim),
    /// whose joint report has no per-attribute likelihood factorization
    /// implemented here.
    pub fn new(encoder: &ClientEncoder) -> Result<Self> {
        let specs = encoder.specs();
        let numeric = encoder.numeric_mechanism().cloned();
        if numeric.is_none() && specs.iter().any(AttrSpec::is_numeric) {
            return Err(LdpError::InvalidParameter {
                name: "protocol",
                message: "DuchiMultidim joint reports are not auditable per-attribute".into(),
            });
        }
        let (v1, v2) = worst_case_pair(specs);
        Ok(Attacker {
            specs: specs.to_vec(),
            v1,
            v2,
            numeric,
            oracles: (0..specs.len())
                .map(|j| encoder.oracle(j).cloned())
                .collect(),
            scale: encoder.numeric_scale(),
        })
    }

    /// The adversarial input pair `(v1, v2)` the attacker distinguishes.
    pub fn pair(&self) -> (&[AttrValue], &[AttrValue]) {
        (&self.v1, &self.v2)
    }

    /// Log likelihood ratio `ln (Pr[report | v1] / Pr[report | v2])`.
    ///
    /// Attribute draws are independent given the sampled set, and the
    /// sampled-index distribution itself is input-independent, so the ratio
    /// factorizes over report entries — the `k` sampled ones under
    /// Algorithm 4, all `d` under composition; entries for attributes where
    /// `v1` and `v2` agree contribute zero and unsampled attributes
    /// contribute nothing. Numeric sampling entries arrive pre-scaled by `d/k` (line 6
    /// of Algorithm 4); the scaling is a fixed bijection, so it cancels in
    /// the ratio and is inverted here before density evaluation — with the
    /// two-point / mixed supports matched bitwise by recomputing
    /// `scale · (±magnitude)` exactly as the client multiplies.
    ///
    /// # Errors
    /// Shape mismatches between the report and the schema (wrong entry
    /// type, out-of-range attribute index or category).
    pub fn ln_likelihood_ratio(&self, report: &Report) -> Result<f64> {
        let (Report::Sampling(sparse) | Report::Composition(sparse)) = report;
        let mut lnlr = 0.0;
        for (attr, entry) in &sparse.entries {
            lnlr += self.entry_lnlr(*attr as usize, entry)?;
        }
        Ok(lnlr)
    }

    fn attr_values(&self, attr: usize) -> Result<(&AttrValue, &AttrValue)> {
        match (self.v1.get(attr), self.v2.get(attr)) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(LdpError::DimensionMismatch {
                expected: self.specs.len(),
                actual: attr + 1,
            }),
        }
    }

    fn entry_lnlr(&self, attr: usize, entry: &AttrReport) -> Result<f64> {
        let (v1, v2) = self.attr_values(attr)?;
        match (entry, v1, v2) {
            (AttrReport::Numeric(y), AttrValue::Numeric(t1), AttrValue::Numeric(t2)) => {
                self.numeric_lnlr(*y, *t1, *t2)
            }
            (
                AttrReport::Categorical(rep),
                AttrValue::Categorical(c1),
                AttrValue::Categorical(c2),
            ) => {
                let oracle = self.oracles[attr]
                    .as_ref()
                    .ok_or(LdpError::InvalidParameter {
                        name: "report",
                        message: format!("categorical entry for numeric attribute {attr}"),
                    })?;
                Ok(oracle.log_likelihood(rep, *c1)? - oracle.log_likelihood(rep, *c2)?)
            }
            _ => Err(LdpError::InvalidParameter {
                name: "report",
                message: format!("entry type for attribute {attr} does not match the schema"),
            }),
        }
    }

    /// Ratio for one numeric draw `y = scale · t*`.
    fn numeric_lnlr(&self, y: f64, t1: f64, t2: f64) -> Result<f64> {
        let mech = self.numeric.as_ref().ok_or(LdpError::InvalidParameter {
            name: "report",
            message: "numeric entry under an all-categorical attacker".into(),
        })?;
        let x = self.unscale(mech, y);
        Ok(mech.log_density(x, t1)? - mech.log_density(x, t2)?)
    }

    /// Maps a (possibly `d/k`-scaled) report value back onto the
    /// mechanism's own output support. Atom-valued outputs (Duchi, the
    /// Duchi side of HM) must survive the round trip *bitwise*, so the atom
    /// is matched in scaled space by recomputing `scale · atom` — IEEE
    /// multiplication is deterministic, so the client's multiply and ours
    /// agree exactly — and only non-atom values take the `y / scale` path
    /// (where the densities are piecewise constant and rounding is
    /// harmless).
    fn unscale(&self, mech: &AnyNumeric, y: f64) -> f64 {
        if self.scale == 1.0 {
            return y;
        }
        let atom = match mech {
            AnyNumeric::Duchi(m) => Some(m.magnitude()),
            AnyNumeric::Hybrid(m) => Some(m.duchi().magnitude()),
            _ => None,
        };
        if let Some(mag) = atom {
            if y == self.scale * mag {
                return mag;
            }
            if y == self.scale * (-mag) {
                return -mag;
            }
        }
        y / self.scale
    }

    /// The attacker's deterministic guess for a report: `true` = "input was
    /// `v1`", chosen iff the log likelihood ratio is strictly positive
    /// (ties go to `v2`, making the rule a fixed Neyman-Pearson threshold
    /// test).
    ///
    /// # Errors
    /// As [`Attacker::ln_likelihood_ratio`].
    pub fn guess_is_v1(&self, report: &Report) -> Result<bool> {
        Ok(self.ln_likelihood_ratio(report)? > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_analytics::{BestEffortNumeric, Protocol};
    use ldp_core::rng::seeded_rng;
    use ldp_core::{Epsilon, NumericKind, OracleKind};

    fn sampling_hm_oue() -> Protocol {
        Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        }
    }

    #[test]
    fn honest_reports_always_score_finite_or_infinite_consistently() {
        // Every honest report must produce a non-NaN score: the two
        // log-likelihoods can individually be -inf only off the support,
        // where honest reports never land.
        let specs = vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 16 },
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 16 },
        ];
        let eps = Epsilon::new(4.0).unwrap();
        let encoder = ClientEncoder::new(sampling_hm_oue(), eps, specs).unwrap();
        let attacker = Attacker::new(&encoder).unwrap();
        let (v1, v2) = (attacker.v1.clone(), attacker.v2.clone());
        let mut rng = seeded_rng(99);
        for i in 0..500 {
            let input = if i % 2 == 0 { &v1 } else { &v2 };
            let report = encoder.encode(input, &mut rng).unwrap();
            let score = attacker.ln_likelihood_ratio(&report).unwrap();
            assert!(!score.is_nan(), "trial {i}");
        }
    }

    #[test]
    fn grr_ratio_is_symmetric_and_bounded_by_eps() {
        // 1-D GRR: the ratio for "reported v1" must be exactly +ε/1 of the
        // per-attribute budget, and -ε for "reported v2".
        let specs = vec![AttrSpec::Categorical { k: 16 }];
        let eps = Epsilon::new(1.0).unwrap();
        let protocol = Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Grr,
        };
        let attacker = Attacker::new(&ClientEncoder::new(protocol, eps, specs).unwrap()).unwrap();
        use ldp_core::multidim::SparseReport;
        use ldp_core::CategoricalReport;
        let mk = |cat: u32| {
            Report::Sampling(SparseReport {
                d: 1,
                entries: vec![(0, AttrReport::Categorical(CategoricalReport::Value(cat)))],
            })
        };
        let up = attacker.ln_likelihood_ratio(&mk(0)).unwrap();
        let down = attacker.ln_likelihood_ratio(&mk(15)).unwrap();
        let mid = attacker.ln_likelihood_ratio(&mk(7)).unwrap();
        assert!((up - 1.0).abs() < 1e-12, "{up}");
        assert!((down + 1.0).abs() < 1e-12, "{down}");
        assert_eq!(mid, 0.0);
        assert!(attacker.guess_is_v1(&mk(0)).unwrap());
        assert!(!attacker.guess_is_v1(&mk(7)).unwrap(), "ties go to v2");
        assert!(!attacker.guess_is_v1(&mk(15)).unwrap());
    }

    #[test]
    fn duchi_multidim_is_rejected_for_numeric_schemas() {
        let protocol = Protocol::BestEffort {
            numeric: BestEffortNumeric::DuchiMultidim,
            oracle: OracleKind::Oue,
        };
        let eps = Epsilon::new(1.0).unwrap();
        let joint = ClientEncoder::new(protocol, eps, vec![AttrSpec::Numeric]).unwrap();
        assert!(Attacker::new(&joint).is_err());
        // Without numeric attributes there is no joint block to audit.
        let categorical = vec![AttrSpec::Categorical { k: 4 }];
        let oracles_only = ClientEncoder::new(protocol, eps, categorical).unwrap();
        assert!(Attacker::new(&oracles_only).is_ok());
    }
}
