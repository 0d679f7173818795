//! The paper's Algorithm 4 and its §IV-C mixed-type extension.

use crate::budget::Epsilon;
use crate::categorical::AnyOracle;
use crate::error::{LdpError, Result};
use crate::kinds::{NumericKind, OracleKind};
use crate::mechanism::CategoricalReport;
use crate::multidim::{AttrReport, AttrSpec, AttrValue};
use crate::numeric::AnyNumeric;
use crate::rng::sample_distinct_into;

/// The paper's choice of the number of sampled attributes (Equation 12):
/// `k = max(1, min(d, ⌊ε/2.5⌋))`.
///
/// Sampling `k` of `d` attributes raises the per-attribute budget from `ε/d`
/// to `ε/k` at the cost of sampling error; Equation 12 balances the two to
/// minimize worst-case variance.
pub fn optimal_k(epsilon: Epsilon, d: usize) -> usize {
    ((epsilon.value() / 2.5).floor() as usize).clamp(1, d.max(1))
}

/// The sparse perturbed tuple a user submits under Algorithm 4.
///
/// Exactly `k` of the `d` attributes carry a report; numeric entries are
/// already scaled by `d/k` (line 6 of Algorithm 4), so the aggregator's mean
/// estimator is a plain average with zeros for missing entries.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseReport {
    /// Total number of attributes in the schema.
    pub d: usize,
    /// `(attribute index, report)` pairs, sorted by index, one per sampled
    /// attribute.
    pub entries: Vec<(u32, AttrReport)>,
}

impl SparseReport {
    /// An empty report shell with entry capacity for `k` attributes, meant
    /// to be (re)filled by [`SamplingPerturber::perturb_into`].
    pub fn with_capacity(d: usize, k: usize) -> Self {
        SparseReport {
            d,
            entries: Vec::with_capacity(k),
        }
    }
}

/// Algorithm 4 with the §IV-C extension: perturbs tuples over an arbitrary
/// mixed numeric/categorical schema by sampling `k` attributes and spending
/// `ε/k` on each through a 1-D mechanism (numeric) or frequency oracle
/// (categorical).
///
/// Privacy: each sampled attribute's sub-report is `ε/k`-LDP, the `k`
/// sampled indices are chosen independently of the data, and each attribute
/// is perturbed at most once, so by composition the full report is ε-LDP.
///
/// Collections build it through `ldp_analytics::ClientEncoder`, which owns
/// the session's budget split. A direct caller keeps one report + scratch
/// pair per perturber and refills it user after user:
///
/// ```
/// use ldp_core::multidim::{SamplingPerturber, SparseReport};
/// use ldp_core::{AttrSpec, AttrValue, Epsilon, NumericKind, OracleKind, rng::seeded_rng};
///
/// let specs = vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 4 }, AttrSpec::Numeric];
/// let perturber = SamplingPerturber::new(
///     Epsilon::new(1.0)?, specs, NumericKind::Hybrid, OracleKind::Oue)?;
/// let mut report = SparseReport::with_capacity(perturber.d(), perturber.k());
/// let mut scratch = perturber.scratch();
/// let tuple = [AttrValue::Numeric(0.2), AttrValue::Categorical(3), AttrValue::Numeric(-0.9)];
/// perturber.perturb_into(&tuple, &mut seeded_rng(1), &mut report, &mut scratch)?;
/// assert_eq!(report.entries.len(), perturber.k()); // k sampled attributes
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Clone)]
pub struct SamplingPerturber {
    epsilon: Epsilon,
    specs: Vec<AttrSpec>,
    k: usize,
    /// The shared ε/k numeric mechanism (None for all-categorical schemas).
    numeric: Option<AnyNumeric>,
    /// One oracle per attribute slot (None for numeric slots), all at ε/k.
    oracles: Vec<Option<AnyOracle>>,
    scale: f64,
}

impl SamplingPerturber {
    /// Builds the perturber with the optimal `k` of Equation 12.
    ///
    /// `numeric_kind` selects the 1-D mechanism used for numeric attributes
    /// (the paper evaluates PM and HM here); `oracle_kind` the frequency
    /// oracle for categorical ones (the paper uses OUE).
    ///
    /// # Errors
    /// Fails on an empty schema or invalid categorical domain sizes.
    pub fn new(
        epsilon: Epsilon,
        specs: Vec<AttrSpec>,
        numeric_kind: NumericKind,
        oracle_kind: OracleKind,
    ) -> Result<Self> {
        let k = optimal_k(epsilon, specs.len());
        Self::with_k(epsilon, specs, numeric_kind, oracle_kind, k)
    }

    /// Builds the perturber with an explicit `k`: [`SamplingPerturber::new`]
    /// passes Equation 12's, and tests pin other values.
    ///
    /// # Errors
    /// Fails if `k` is not in `{1, …, d}` or the schema is invalid.
    pub fn with_k(
        epsilon: Epsilon,
        specs: Vec<AttrSpec>,
        numeric_kind: NumericKind,
        oracle_kind: OracleKind,
        k: usize,
    ) -> Result<Self> {
        let d = specs.len();
        if d == 0 {
            return Err(LdpError::InvalidParameter {
                name: "specs",
                message: "schema must contain at least one attribute".into(),
            });
        }
        if k == 0 || k > d {
            return Err(LdpError::InvalidParameter {
                name: "k",
                message: format!("k must be in 1..={d}, got {k}"),
            });
        }
        let per_attr = epsilon.split(k)?;
        let any_numeric = specs.iter().any(AttrSpec::is_numeric);
        let numeric = any_numeric.then(|| numeric_kind.build(per_attr));
        let oracles = specs
            .iter()
            .map(|spec| match spec {
                AttrSpec::Numeric => Ok(None),
                AttrSpec::Categorical { k: dom } => oracle_kind.build(per_attr, *dom).map(Some),
            })
            .collect::<Result<Vec<_>>>()?;
        let scale = d as f64 / k as f64;
        Ok(SamplingPerturber {
            epsilon,
            specs,
            k,
            numeric,
            oracles,
            scale,
        })
    }

    /// Total privacy budget.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Number of attributes `d`.
    pub fn d(&self) -> usize {
        self.specs.len()
    }

    /// Number of sampled attributes `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The scaling factor `d/k` applied to numeric reports (and to
    /// categorical supports by the aggregator).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The schema this perturber was built for.
    pub fn specs(&self) -> &[AttrSpec] {
        &self.specs
    }

    /// A scratch buffer sized for this perturber, enabling the
    /// zero-allocation [`SamplingPerturber::perturb_into`] loop.
    pub fn scratch(&self) -> SparseScratch {
        SparseScratch {
            sampled: Vec::with_capacity(self.k),
            pool: self
                .specs
                .iter()
                .map(|spec| match spec {
                    AttrSpec::Numeric => None,
                    // Placeholder; the oracle's `perturb_into` right-sizes it
                    // (e.g. to a k-bit vector) on first use, after which it
                    // is recycled user after user.
                    AttrSpec::Categorical { .. } => Some(CategoricalReport::Value(0)),
                })
                .collect(),
        }
    }

    /// Perturbs one user tuple: refills `report` in place with the `k`
    /// sampled entries, recycling the previous call's entry vector and
    /// categorical payloads (bit vectors) through `scratch`. After the first
    /// call per attribute, steady-state perturbation performs no heap
    /// allocation at all.
    ///
    /// Generic over the rng: a bare generator is the scalar path, while
    /// [`crate::rng::RngBlock`] monomorphizes the categorical sampling loop
    /// end to end and serves its draws from a buffer. Both consume
    /// identical draw streams, so they produce bit-identical reports under
    /// the same seed.
    ///
    /// `report` and `scratch` may start empty (see
    /// [`SparseReport::with_capacity`] and [`SamplingPerturber::scratch`])
    /// but must then stay paired with this perturber: payload buffers
    /// shuttle between the two across calls.
    ///
    /// # Errors
    /// Rejects tuples whose length or attribute types do not match the
    /// schema, or whose values are out of domain.
    pub fn perturb_into<R: crate::rng::DrawSource + ?Sized>(
        &self,
        tuple: &[AttrValue],
        rng: &mut R,
        report: &mut SparseReport,
        scratch: &mut SparseScratch,
    ) -> Result<()> {
        let d = self.specs.len();
        if tuple.len() != d {
            return Err(LdpError::DimensionMismatch {
                expected: d,
                actual: tuple.len(),
            });
        }
        debug_assert_eq!(scratch.pool.len(), d, "scratch built for another schema");
        for (i, (value, spec)) in tuple.iter().zip(&self.specs).enumerate() {
            value.validate(spec, i)?;
        }
        // Recycle the previous report's categorical payloads into the pool,
        // so their bit vectors are reused instead of reallocated.
        for (j, rep) in report.entries.drain(..) {
            if let AttrReport::Categorical(cat) = rep {
                scratch.pool[j as usize] = Some(cat);
            }
        }
        sample_distinct_into(&mut *rng, d, self.k, &mut scratch.sampled);
        for &j in &scratch.sampled {
            let entry = match tuple[j as usize] {
                AttrValue::Numeric(x) => {
                    // Lines 5–6 of Algorithm 4: perturb with budget ε/k and
                    // scale by d/k.
                    let mech = self
                        .numeric
                        .as_ref()
                        .expect("schema has numeric attributes");
                    AttrReport::Numeric(self.scale * mech.perturb(x, &mut *rng)?)
                }
                AttrValue::Categorical(v) => {
                    let oracle = self.oracles[j as usize]
                        .as_ref()
                        .expect("schema marks this attribute categorical");
                    let cat = if let Some(grr) = oracle.as_grr() {
                        // A direct report is one ordinal: no payload
                        // buffer to recycle.
                        CategoricalReport::Value(grr.sample(v, &mut *rng)?)
                    } else {
                        let mut cat = scratch.pool[j as usize]
                            .take()
                            .unwrap_or(CategoricalReport::Value(0));
                        oracle.perturb_into(v, &mut *rng, &mut cat)?;
                        cat
                    };
                    AttrReport::Categorical(cat)
                }
            };
            report.entries.push((j, entry));
        }
        report.d = d;
        Ok(())
    }

    /// The oracle for attribute `j`, if categorical.
    pub fn any_oracle(&self, j: usize) -> Option<&AnyOracle> {
        self.oracles.get(j).and_then(Option::as_ref)
    }

    /// The ε/k numeric mechanism, if the schema has numeric attributes.
    pub fn any_numeric(&self) -> Option<&AnyNumeric> {
        self.numeric.as_ref()
    }
}

/// Caller-owned scratch space for [`SamplingPerturber::perturb_into`]:
/// the reusable sampled-index buffer plus a per-attribute pool of
/// categorical payload buffers (bit vectors for unary oracles) that shuttle
/// between the pool and the report across calls.
#[derive(Debug, Clone)]
pub struct SparseScratch {
    sampled: Vec<u32>,
    pool: Vec<Option<CategoricalReport>>,
}

impl std::fmt::Debug for SamplingPerturber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplingPerturber")
            .field("epsilon", &self.epsilon)
            .field("d", &self.specs.len())
            .field("k", &self.k)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn numeric_specs(d: usize) -> Vec<AttrSpec> {
        vec![AttrSpec::Numeric; d]
    }

    #[test]
    fn optimal_k_matches_equation_12() {
        let e = |v: f64| Epsilon::new(v).unwrap();
        assert_eq!(optimal_k(e(1.0), 10), 1); // ⌊0.4⌋ = 0 → clamped to 1
        assert_eq!(optimal_k(e(2.5), 10), 1);
        assert_eq!(optimal_k(e(5.0), 10), 2);
        assert_eq!(optimal_k(e(25.0), 10), 10);
        assert_eq!(optimal_k(e(100.0), 10), 10); // capped at d
        assert_eq!(optimal_k(e(7.6), 2), 2); // ⌊3.04⌋ = 3 → capped at d = 2
    }

    #[test]
    fn report_has_exactly_k_sorted_entries() {
        let p = SamplingPerturber::with_k(
            Epsilon::new(4.0).unwrap(),
            numeric_specs(8),
            NumericKind::Piecewise,
            OracleKind::Oue,
            3,
        )
        .unwrap();
        let mut rng = seeded_rng(130);
        let tuple = [AttrValue::Numeric(0.1); 8];
        let mut rep = SparseReport::with_capacity(p.d(), p.k());
        let mut scratch = p.scratch();
        for _ in 0..200 {
            p.perturb_into(&tuple, &mut rng, &mut rep, &mut scratch)
                .unwrap();
            assert_eq!(rep.entries.len(), 3);
            assert!(rep.entries.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn dense_report_is_unbiased() {
        // E[t*_j] = t_j: the d/k scaling compensates for sampling.
        let d = 6;
        let p = SamplingPerturber::new(
            Epsilon::new(5.0).unwrap(), // k = 2
            numeric_specs(d),
            NumericKind::Piecewise,
            OracleKind::Oue,
        )
        .unwrap();
        assert_eq!(p.k(), 2);
        let mut rng = seeded_rng(131);
        let t: Vec<f64> = vec![-0.9, -0.5, -0.1, 0.2, 0.6, 1.0];
        let tuple: Vec<AttrValue> = t.iter().map(|&x| AttrValue::Numeric(x)).collect();
        let mut rep = SparseReport::with_capacity(p.d(), p.k());
        let mut scratch = p.scratch();
        let n = 300_000;
        // Unsampled attributes report zero, so summing the sampled entries
        // sums Algorithm 4's dense output tuple.
        let mut sums = vec![0.0; d];
        for _ in 0..n {
            p.perturb_into(&tuple, &mut rng, &mut rep, &mut scratch)
                .unwrap();
            for (j, entry) in &rep.entries {
                let AttrReport::Numeric(x) = entry else {
                    unreachable!("numeric schema");
                };
                sums[*j as usize] += x;
            }
        }
        for j in 0..d {
            let mean = sums[j] / n as f64;
            assert!((mean - t[j]).abs() < 0.05, "j={j}: {mean} vs {}", t[j]);
        }
    }

    #[test]
    fn mixed_schema_routes_by_type() {
        let specs = vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 4 },
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 7 },
        ];
        let p = SamplingPerturber::with_k(
            Epsilon::new(2.0).unwrap(),
            specs,
            NumericKind::Hybrid,
            OracleKind::Oue,
            4,
        )
        .unwrap();
        let tuple = vec![
            AttrValue::Numeric(0.3),
            AttrValue::Categorical(2),
            AttrValue::Numeric(-0.6),
            AttrValue::Categorical(6),
        ];
        let mut rng = seeded_rng(132);
        let mut rep = SparseReport::with_capacity(p.d(), p.k());
        p.perturb_into(&tuple, &mut rng, &mut rep, &mut p.scratch())
            .unwrap();
        assert_eq!(rep.entries.len(), 4);
        for (j, r) in &rep.entries {
            match (*j, r) {
                (0 | 2, AttrReport::Numeric(_)) => {}
                (1 | 3, AttrReport::Categorical(_)) => {}
                other => panic!("wrong report type: {other:?}"),
            }
        }
        assert!(p.any_oracle(1).is_some());
        assert!(p.any_oracle(0).is_none());
        assert_eq!(p.any_oracle(3).unwrap().k(), 7);
    }

    #[test]
    fn perturb_into_recycled_buffers_match_fresh_ones() {
        let specs = vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 6 },
            AttrSpec::Categorical { k: 3 },
            AttrSpec::Numeric,
        ];
        let p = SamplingPerturber::with_k(
            Epsilon::new(3.0).unwrap(),
            specs,
            NumericKind::Hybrid,
            OracleKind::Oue,
            3,
        )
        .unwrap();
        let tuple = vec![
            AttrValue::Numeric(0.1),
            AttrValue::Categorical(5),
            AttrValue::Categorical(0),
            AttrValue::Numeric(-0.4),
        ];
        // Identical RNG streams through fresh buffers every call and one
        // recycled report + scratch pair must produce identical reports.
        let mut rng_a = seeded_rng(555);
        let mut rng_b = seeded_rng(555);
        let mut report = SparseReport::with_capacity(p.d(), p.k());
        let mut scratch = p.scratch();
        for round in 0..200 {
            let mut fresh = SparseReport::with_capacity(p.d(), p.k());
            p.perturb_into(&tuple, &mut rng_a, &mut fresh, &mut p.scratch())
                .unwrap();
            p.perturb_into(&tuple, &mut rng_b, &mut report, &mut scratch)
                .unwrap();
            assert_eq!(report, fresh, "round {round}");
        }
        // Validation errors still surface through the streaming path.
        assert!(p
            .perturb_into(
                &tuple[..2],
                &mut rng_b,
                &mut SparseReport::with_capacity(p.d(), p.k()),
                &mut p.scratch()
            )
            .is_err());
    }

    #[test]
    fn validates_schema_and_values() {
        let p = SamplingPerturber::new(
            Epsilon::new(1.0).unwrap(),
            vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 3 }],
            NumericKind::Piecewise,
            OracleKind::Oue,
        )
        .unwrap();
        let mut rng = seeded_rng(133);
        let mut perturb = |tuple: &[AttrValue]| {
            let mut rep = SparseReport::with_capacity(p.d(), p.k());
            p.perturb_into(tuple, &mut rng, &mut rep, &mut p.scratch())
        };
        // Wrong arity.
        assert!(perturb(&[AttrValue::Numeric(0.0)]).is_err());
        // Type mismatch.
        assert!(perturb(&[AttrValue::Categorical(0), AttrValue::Categorical(0)]).is_err());
        // Out-of-domain values.
        assert!(perturb(&[AttrValue::Numeric(1.5), AttrValue::Categorical(0)]).is_err());
        assert!(perturb(&[AttrValue::Numeric(0.0), AttrValue::Categorical(3)]).is_err());
    }

    #[test]
    fn constructor_validation() {
        let e = Epsilon::new(1.0).unwrap();
        assert!(
            SamplingPerturber::new(e, vec![], NumericKind::Piecewise, OracleKind::Oue).is_err()
        );
        assert!(SamplingPerturber::with_k(
            e,
            numeric_specs(3),
            NumericKind::Piecewise,
            OracleKind::Oue,
            0
        )
        .is_err());
        assert!(SamplingPerturber::with_k(
            e,
            numeric_specs(3),
            NumericKind::Piecewise,
            OracleKind::Oue,
            4
        )
        .is_err());
        assert!(SamplingPerturber::new(
            e,
            vec![AttrSpec::Categorical { k: 1 }],
            NumericKind::Piecewise,
            OracleKind::Oue
        )
        .is_err());
    }

    #[test]
    fn per_attribute_budget_is_eps_over_k() {
        let p = SamplingPerturber::with_k(
            Epsilon::new(6.0).unwrap(),
            vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 3 }],
            NumericKind::Piecewise,
            OracleKind::Oue,
            2,
        )
        .unwrap();
        assert_eq!(p.any_oracle(1).unwrap().as_dyn().epsilon().value(), 3.0);
    }
}
