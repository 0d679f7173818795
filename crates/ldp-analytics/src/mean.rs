//! Aggregator-side mean estimation.
//!
//! All mechanisms in this library produce *unbiased* per-user reports, so
//! the aggregator's estimator is a plain average (§III: `1/n Σ t*_i`;
//! Algorithm 4's `d/k` scaling already happened user-side). The accumulator
//! is mergeable so the pipeline can shard users across threads.

use ldp_core::multidim::wire::{BitReader, BitWriter};
use ldp_core::multidim::SparseReport;
use ldp_core::{AttrReport, CategoricalReport, LdpError, Result};

/// Streaming accumulator for per-attribute means of numeric reports.
#[derive(Debug, Clone)]
pub struct MeanAccumulator {
    sums: Vec<f64>,
    n: usize,
}

impl MeanAccumulator {
    /// An empty accumulator over `d` attributes.
    pub fn new(d: usize) -> Self {
        MeanAccumulator {
            sums: vec![0.0; d],
            n: 0,
        }
    }

    /// Number of attributes tracked.
    pub fn d(&self) -> usize {
        self.sums.len()
    }

    /// Number of reports absorbed.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Absorbs the numeric entries of an Algorithm 4 sparse report.
    /// Unsampled attributes contribute zero; categorical entries are
    /// ignored (they flow to the frequency accumulators).
    ///
    /// # Errors
    /// * [`LdpError::DimensionMismatch`] if the report's `d` differs.
    /// * [`LdpError::InvalidParameter`] if an entry's attribute index is
    ///   not below `d`.
    ///
    /// A rejected report leaves the accumulator unchanged.
    pub fn add_sparse(&mut self, report: &SparseReport) -> Result<()> {
        let d = self.sums.len();
        if report.d != d {
            return Err(LdpError::DimensionMismatch {
                expected: d,
                actual: report.d,
            });
        }
        if let Some((j, _)) = report.entries.iter().find(|(j, _)| *j as usize >= d) {
            return Err(LdpError::InvalidParameter {
                name: "report",
                message: format!("attribute index {j} out of range {d}"),
            });
        }
        self.add_checked(report, |_, _| {});
        Ok(())
    }

    /// [`MeanAccumulator::add_sparse`] for a report whose indices are
    /// already checked against this accumulator's `d`, in one pass over
    /// its entries: each numeric entry lands in its sum, and each
    /// categorical entry is handed to `categorical` with its attribute
    /// index.
    pub(crate) fn add_checked(
        &mut self,
        report: &SparseReport,
        mut categorical: impl FnMut(u32, &CategoricalReport),
    ) {
        for (j, rep) in &report.entries {
            match rep {
                AttrReport::Numeric(x) => self.sums[*j as usize] += x,
                AttrReport::Categorical(cat) => categorical(*j, cat),
            }
        }
        self.n += 1;
    }

    /// Merges another accumulator (for sharded aggregation).
    ///
    /// # Errors
    /// [`LdpError::DimensionMismatch`] if the dimensionalities differ.
    pub fn merge(&mut self, other: &MeanAccumulator) -> Result<()> {
        if other.sums.len() != self.sums.len() {
            return Err(LdpError::DimensionMismatch {
                expected: self.sums.len(),
                actual: other.sums.len(),
            });
        }
        for (s, o) in self.sums.iter_mut().zip(&other.sums) {
            *s += o;
        }
        self.n += other.n;
        Ok(())
    }

    /// The per-attribute mean estimates `1/n Σ t*_i`.
    ///
    /// # Errors
    /// [`LdpError::EmptyInput`] before any report arrives.
    pub fn estimate(&self) -> Result<Vec<f64>> {
        if self.n == 0 {
            return Err(LdpError::EmptyInput("reports"));
        }
        Ok(self.sums.iter().map(|s| s / self.n as f64).collect())
    }

    /// Estimates clamped into the attribute domain `[-1, 1]` — a standard
    /// aggregator-side post-processing step (post-processing preserves LDP)
    /// that can only reduce error since the true mean lies in `[-1, 1]`.
    ///
    /// # Errors
    /// As [`MeanAccumulator::estimate`].
    pub fn estimate_clamped(&self) -> Result<Vec<f64>> {
        Ok(self
            .estimate()?
            .into_iter()
            .map(|x| x.clamp(-1.0, 1.0))
            .collect())
    }

    /// Exact serialized size of [`MeanAccumulator::encode_state`] in bits:
    /// the report count plus one IEEE-754 word per attribute. `d` is *not*
    /// on the wire — both sides derive it from the shared schema — which is
    /// what lets checkpoint decoding reject any length mismatch outright.
    pub fn state_bits(d: usize) -> usize {
        64 + 64 * d
    }

    /// Appends the accumulator state — `n`, then each running sum as its
    /// raw `f64::to_bits` word — to `w`. Bit-exact: decoding on a
    /// same-shape accumulator reproduces every future estimate to the bit,
    /// which is the property epoch checkpoints are gated on.
    pub fn encode_state(&self, w: &mut BitWriter) {
        w.write_bits(self.n as u64, 64);
        for s in &self.sums {
            w.write_bits(s.to_bits(), 64);
        }
    }

    /// Overwrites this accumulator with state read from `r` (inverse of
    /// [`MeanAccumulator::encode_state`]); the dimensionality stays the one
    /// this accumulator was constructed with.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] on a truncated buffer.
    pub fn decode_state(&mut self, r: &mut BitReader<'_>) -> Result<()> {
        self.n = r.read_bits(64)? as usize;
        for s in &mut self.sums {
            *s = f64::from_bits(r.read_bits(64)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::assert_within_ci;
    use ldp_core::multidim::SamplingPerturber;
    use ldp_core::testutil::fixture_rng;
    use ldp_core::{AttrSpec, Epsilon, NumericKind, OracleKind};

    /// A report carrying one numeric entry per attribute.
    fn row(values: &[f64]) -> SparseReport {
        SparseReport {
            d: values.len(),
            entries: (0..)
                .zip(values)
                .map(|(j, &x)| (j, AttrReport::Numeric(x)))
                .collect(),
        }
    }

    #[test]
    fn dense_average() {
        let mut acc = MeanAccumulator::new(2);
        acc.add_sparse(&row(&[1.0, -1.0])).unwrap();
        acc.add_sparse(&row(&[0.0, 1.0])).unwrap();
        assert_eq!(acc.estimate().unwrap(), vec![0.5, 0.0]);
        assert_eq!(acc.n(), 2);
        assert!(acc.add_sparse(&row(&[0.0])).is_err());
    }

    #[test]
    fn empty_estimate_fails() {
        let acc = MeanAccumulator::new(3);
        assert!(matches!(acc.estimate(), Err(LdpError::EmptyInput(_))));
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = MeanAccumulator::new(2);
        let mut b = MeanAccumulator::new(2);
        let mut whole = MeanAccumulator::new(2);
        for i in 0..10 {
            let values = [i as f64 / 10.0, -(i as f64) / 20.0];
            whole.add_sparse(&row(&values)).unwrap();
            if i % 2 == 0 {
                a.add_sparse(&row(&values)).unwrap();
            } else {
                b.add_sparse(&row(&values)).unwrap();
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a.estimate().unwrap(), whole.estimate().unwrap());
        let bad = MeanAccumulator::new(3);
        assert!(a.merge(&bad).is_err());
    }

    #[test]
    fn clamped_estimate_stays_in_domain() {
        let mut acc = MeanAccumulator::new(1);
        acc.add_sparse(&row(&[5.0])).unwrap();
        assert_eq!(acc.estimate().unwrap(), vec![5.0]);
        assert_eq!(acc.estimate_clamped().unwrap(), vec![1.0]);
    }

    #[test]
    fn sparse_reports_estimate_means_end_to_end() {
        // Algorithm 4 (k < d) through the accumulator: the estimate should
        // converge to the true per-attribute means.
        let d = 4;
        let n = 120_000;
        let eps = Epsilon::new(6.0).unwrap(); // k = 2
        let p = SamplingPerturber::new(
            eps,
            vec![AttrSpec::Numeric; d],
            NumericKind::Hybrid,
            OracleKind::Oue,
        )
        .unwrap();
        assert_eq!(p.k(), 2);
        let mut rng = fixture_rng("mean::sparse_reports_estimate_means_end_to_end");
        let t = [0.8, -0.2, 0.0, 0.4];
        let tuple: Vec<_> = t.iter().map(|&x| ldp_core::AttrValue::Numeric(x)).collect();
        let mut acc = MeanAccumulator::new(d);
        let mut report = SparseReport::with_capacity(d, p.k());
        let mut scratch = p.scratch();
        for _ in 0..n {
            p.perturb_into(&tuple, &mut rng, &mut report, &mut scratch)
                .unwrap();
            acc.add_sparse(&report).unwrap();
        }
        let est = acc.estimate().unwrap();
        for j in 0..d {
            // Equation 15 gives the per-user variance of the d/k-scaled
            // sparse estimate; the CI bound replaces the old `< 0.05`.
            assert_within_ci!(
                est[j],
                t[j],
                ldp_core::variance::hm_md_with_k(eps.value(), d, p.k(), t[j]),
                n,
                "j={j}"
            );
        }
    }

    #[test]
    fn sparse_dimension_mismatch() {
        let mut acc = MeanAccumulator::new(2);
        let report = SparseReport {
            d: 3,
            entries: vec![],
        };
        assert!(acc.add_sparse(&report).is_err());
        // A deserialized report can name an attribute past `d`: rejected
        // with a typed error, before any sum moves.
        let out_of_range = SparseReport {
            d: 2,
            entries: vec![(0, AttrReport::Numeric(0.5)), (5, AttrReport::Numeric(1.0))],
        };
        assert!(matches!(
            acc.add_sparse(&out_of_range),
            Err(LdpError::InvalidParameter { .. })
        ));
        assert_eq!(acc.n(), 0);
        acc.add_sparse(&row(&[0.0, 0.0])).unwrap();
        assert_eq!(acc.estimate().unwrap(), vec![0.0, 0.0]);
    }
}
