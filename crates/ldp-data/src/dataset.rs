//! Columnar in-memory datasets.
//!
//! Columns are stored as plain vectors (`Vec<f64>` / `Vec<u32>`): the
//! experiment harness streams millions of tuples through the perturbers, and
//! columnar layout keeps the per-user tuple assembly cache-friendly without
//! any row-object allocation.

use crate::schema::{AttributeKind, Schema};
use ldp_core::{AttrValue, LdpError, Result};

/// One column of raw (un-normalized) data.
#[derive(Debug, Clone)]
pub enum Column {
    /// Raw numeric values in the attribute's declared domain.
    Numeric(Vec<f64>),
    /// Category codes in `{0, …, k-1}`.
    Categorical(Vec<u32>),
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Categorical(v) => v.len(),
        }
    }
}

/// A schema-validated columnar dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    columns: Vec<Column>,
    n: usize,
}

impl Dataset {
    /// Builds a dataset, validating column count, equal lengths, value
    /// domains, and type agreement with the schema.
    ///
    /// # Errors
    /// Any mismatch yields a descriptive [`LdpError`].
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if columns.len() != schema.d() {
            return Err(LdpError::DimensionMismatch {
                expected: schema.d(),
                actual: columns.len(),
            });
        }
        let n = columns.first().map_or(0, Column::len);
        for (j, (col, attr)) in columns.iter().zip(schema.attributes()).enumerate() {
            if col.len() != n {
                return Err(LdpError::InvalidParameter {
                    name: "columns",
                    message: format!(
                        "column {j} (`{}`) has {} rows, expected {n}",
                        attr.name,
                        col.len()
                    ),
                });
            }
            match (col, &attr.kind) {
                (Column::Numeric(values), AttributeKind::Numeric { domain }) => {
                    if let Some(bad) = values.iter().find(|v| !domain.contains(**v)) {
                        return Err(LdpError::OutOfDomain {
                            value: *bad,
                            lo: domain.lo(),
                            hi: domain.hi(),
                        });
                    }
                }
                (Column::Categorical(values), AttributeKind::Categorical { k }) => {
                    if let Some(bad) = values.iter().find(|v| **v >= *k) {
                        return Err(LdpError::InvalidCategory { value: *bad, k: *k });
                    }
                }
                _ => {
                    return Err(LdpError::InvalidParameter {
                        name: "columns",
                        message: format!("column {j} (`{}`) type mismatch", attr.name),
                    });
                }
            }
        }
        Ok(Dataset { schema, columns, n })
    }

    /// Number of tuples (users).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Raw column `j`.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    pub fn column(&self, j: usize) -> &Column {
        &self.columns[j]
    }

    /// Assembles user `i`'s tuple in `ldp-core` canonical form (numeric
    /// values normalized to `[-1, 1]`) into `buf`, reusing its allocation.
    ///
    /// # Panics
    /// Panics if `i ≥ n` (row indices are internal, callers iterate `0..n`).
    pub fn canonical_tuple_into(&self, i: usize, buf: &mut Vec<AttrValue>) {
        assert!(i < self.n, "row {i} out of range {}", self.n);
        buf.clear();
        for (col, attr) in self.columns.iter().zip(self.schema.attributes()) {
            match (col, &attr.kind) {
                (Column::Numeric(v), AttributeKind::Numeric { domain }) => {
                    let x = domain.normalize(v[i]).expect("validated at construction");
                    buf.push(AttrValue::Numeric(x));
                }
                (Column::Categorical(v), _) => buf.push(AttrValue::Categorical(v[i])),
                _ => unreachable!("validated at construction"),
            }
        }
    }

    /// The canonical (normalized) numeric column `j`.
    ///
    /// # Errors
    /// Fails if attribute `j` is not numeric.
    pub fn canonical_numeric_column(&self, j: usize) -> Result<Vec<f64>> {
        match (&self.columns[j], &self.schema.attribute(j).kind) {
            (Column::Numeric(v), AttributeKind::Numeric { domain }) => Ok(v
                .iter()
                .map(|&x| domain.normalize(x).expect("validated at construction"))
                .collect()),
            _ => Err(LdpError::InvalidParameter {
                name: "j",
                message: format!("attribute {j} is not numeric"),
            }),
        }
    }

    /// True mean of numeric attribute `j` in canonical `[-1, 1]` scale —
    /// the ground truth the MSE metrics compare against.
    ///
    /// # Errors
    /// Fails if attribute `j` is not numeric or the dataset is empty.
    pub fn true_mean(&self, j: usize) -> Result<f64> {
        if self.n == 0 {
            return Err(LdpError::EmptyInput("rows"));
        }
        let col = self.canonical_numeric_column(j)?;
        Ok(col.iter().sum::<f64>() / self.n as f64)
    }

    /// True frequency of every value of categorical attribute `j`.
    ///
    /// # Errors
    /// Fails if attribute `j` is not categorical or the dataset is empty.
    pub fn true_frequencies(&self, j: usize) -> Result<Vec<f64>> {
        if self.n == 0 {
            return Err(LdpError::EmptyInput("rows"));
        }
        match (&self.columns[j], &self.schema.attribute(j).kind) {
            (Column::Categorical(v), AttributeKind::Categorical { k }) => {
                let mut counts = vec![0usize; *k as usize];
                for &x in v {
                    counts[x as usize] += 1;
                }
                Ok(counts
                    .into_iter()
                    .map(|c| c as f64 / self.n as f64)
                    .collect())
            }
            _ => Err(LdpError::InvalidParameter {
                name: "j",
                message: format!("attribute {j} is not categorical"),
            }),
        }
    }

    /// A dataset restricted to the given attribute indices, in the given
    /// order (used by the Figure 8 sweep to build mixed-type prefixes).
    ///
    /// # Errors
    /// Rejects empty, duplicate, or out-of-range index lists.
    pub fn select_attributes(&self, indices: &[usize]) -> Result<Dataset> {
        if indices.is_empty() {
            return Err(LdpError::EmptyInput("attribute indices"));
        }
        for (i, &j) in indices.iter().enumerate() {
            if j >= self.schema.d() {
                return Err(LdpError::InvalidParameter {
                    name: "indices",
                    message: format!("attribute index {j} out of range {}", self.schema.d()),
                });
            }
            if indices[..i].contains(&j) {
                return Err(LdpError::InvalidParameter {
                    name: "indices",
                    message: format!("duplicate attribute index {j}"),
                });
            }
        }
        let schema = Schema::new(
            indices
                .iter()
                .map(|&j| self.schema.attribute(j).clone())
                .collect(),
        )?;
        let columns = indices.iter().map(|&j| self.columns[j].clone()).collect();
        Dataset::new(schema, columns)
    }

    /// A dataset containing only the first `n` rows (Figure 7 sweep).
    ///
    /// # Errors
    /// Rejects `n = 0` or `n > self.n()`.
    pub fn head(&self, n: usize) -> Result<Dataset> {
        if n == 0 || n > self.n {
            return Err(LdpError::InvalidParameter {
                name: "n",
                message: format!("head length must be in 1..={}, got {n}", self.n),
            });
        }
        let columns = self
            .columns
            .iter()
            .map(|c| match c {
                Column::Numeric(v) => Column::Numeric(v[..n].to_vec()),
                Column::Categorical(v) => Column::Categorical(v[..n].to_vec()),
            })
            .collect();
        Dataset::new(self.schema.clone(), columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn small_dataset() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::numeric("age", 0.0, 100.0).unwrap(),
            Attribute::categorical("color", 3).unwrap(),
        ])
        .unwrap();
        Dataset::new(
            schema,
            vec![
                Column::Numeric(vec![0.0, 50.0, 100.0, 25.0]),
                Column::Categorical(vec![0, 1, 2, 1]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validates_construction() {
        let schema = Schema::new(vec![Attribute::numeric("x", 0.0, 1.0).unwrap()]).unwrap();
        // Wrong column count.
        assert!(Dataset::new(schema.clone(), vec![]).is_err());
        // Out-of-domain value.
        assert!(Dataset::new(schema.clone(), vec![Column::Numeric(vec![2.0])]).is_err());
        // Type mismatch.
        assert!(Dataset::new(schema.clone(), vec![Column::Categorical(vec![0])]).is_err());
        // Unequal lengths.
        let schema2 = Schema::new(vec![
            Attribute::numeric("x", 0.0, 1.0).unwrap(),
            Attribute::numeric("y", 0.0, 1.0).unwrap(),
        ])
        .unwrap();
        assert!(Dataset::new(
            schema2,
            vec![Column::Numeric(vec![0.0]), Column::Numeric(vec![0.0, 1.0])]
        )
        .is_err());
        // Bad category code.
        let schema3 = Schema::new(vec![Attribute::categorical("c", 2).unwrap()]).unwrap();
        assert!(Dataset::new(schema3, vec![Column::Categorical(vec![0, 2])]).is_err());
    }

    #[test]
    fn canonical_tuples_are_normalized() {
        let ds = small_dataset();
        let mut buf = Vec::new();
        ds.canonical_tuple_into(0, &mut buf);
        assert_eq!(
            buf,
            vec![AttrValue::Numeric(-1.0), AttrValue::Categorical(0)]
        );
        ds.canonical_tuple_into(2, &mut buf);
        assert_eq!(
            buf,
            vec![AttrValue::Numeric(1.0), AttrValue::Categorical(2)]
        );
    }

    #[test]
    fn true_statistics() {
        let ds = small_dataset();
        // ages normalized: -1, 0, 1, -0.5 → mean -0.125.
        assert!((ds.true_mean(0).unwrap() + 0.125).abs() < 1e-12);
        let freqs = ds.true_frequencies(1).unwrap();
        assert_eq!(freqs, vec![0.25, 0.5, 0.25]);
        // Type errors.
        assert!(ds.true_mean(1).is_err());
        assert!(ds.true_frequencies(0).is_err());
    }

    #[test]
    fn head_keeps_leading_rows() {
        let ds = small_dataset();
        let h = ds.head(2).unwrap();
        assert_eq!(h.n(), 2);
        assert!((h.true_mean(0).unwrap() + 0.5).abs() < 1e-12);
        assert!(ds.head(0).is_err());
        assert!(ds.head(5).is_err());
    }

    #[test]
    fn select_attributes_reorders() {
        let ds = small_dataset();
        let sel = ds.select_attributes(&[1, 0]).unwrap();
        assert_eq!(sel.schema().attribute(0).name, "color");
        assert_eq!(sel.schema().attribute(1).name, "age");
        assert_eq!(sel.n(), 4);
        assert!(ds.select_attributes(&[]).is_err());
        assert!(ds.select_attributes(&[0, 0]).is_err());
        assert!(ds.select_attributes(&[2]).is_err());
    }
}
