//! Attribute schemas shared between users and the aggregator.
//!
//! LDP protocols assume the *schema* (attribute names, types, public domains)
//! is common knowledge, while the *values* are private. A [`Schema`] is the
//! bridge between raw datasets (arbitrary numeric domains, categorical codes)
//! and `ldp-core`'s canonical representation (`[-1, 1]` numerics,
//! `{0, …, k-1}` categories).

use ldp_core::{AttrSpec, LdpError, NumericDomain, Result};

/// The declared type of one attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttributeKind {
    /// Numeric with a public bounded domain.
    Numeric {
        /// The public domain users normalize against.
        domain: NumericDomain,
    },
    /// Categorical with `k` distinct values coded `0..k`.
    Categorical {
        /// Domain size (`k ≥ 2`).
        k: u32,
    },
}

/// One named attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Human-readable name ("age", "total_income", …).
    pub name: String,
    /// Type and public domain.
    pub kind: AttributeKind,
}

impl Attribute {
    /// A numeric attribute over `[lo, hi]`.
    ///
    /// # Errors
    /// Propagates domain validation.
    pub fn numeric(name: &str, lo: f64, hi: f64) -> Result<Self> {
        Ok(Attribute {
            name: name.to_owned(),
            kind: AttributeKind::Numeric {
                domain: NumericDomain::new(lo, hi)?,
            },
        })
    }

    /// A categorical attribute with `k` values.
    ///
    /// # Errors
    /// Rejects `k < 2`.
    pub fn categorical(name: &str, k: u32) -> Result<Self> {
        if k < 2 {
            return Err(LdpError::InvalidParameter {
                name: "k",
                message: format!("attribute `{name}` needs k ≥ 2, got {k}"),
            });
        }
        Ok(Attribute {
            name: name.to_owned(),
            kind: AttributeKind::Categorical { k },
        })
    }

    /// True for numeric attributes.
    pub fn is_numeric(&self) -> bool {
        matches!(self.kind, AttributeKind::Numeric { .. })
    }
}

/// An ordered list of attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema, rejecting empty attribute lists and duplicate names.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] on an empty list or duplicate name.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self> {
        if attributes.is_empty() {
            return Err(LdpError::InvalidParameter {
                name: "attributes",
                message: "schema must have at least one attribute".into(),
            });
        }
        for (i, a) in attributes.iter().enumerate() {
            if attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(LdpError::InvalidParameter {
                    name: "attributes",
                    message: format!("duplicate attribute name `{}`", a.name),
                });
            }
        }
        Ok(Schema { attributes })
    }

    /// Number of attributes `d`.
    pub fn d(&self) -> usize {
        self.attributes.len()
    }

    /// All attributes in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// The attribute at position `j`.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    pub fn attribute(&self, j: usize) -> &Attribute {
        &self.attributes[j]
    }

    /// Index of the attribute named `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }

    /// Indices of the numeric attributes.
    pub fn numeric_indices(&self) -> Vec<usize> {
        (0..self.d())
            .filter(|&j| self.attributes[j].is_numeric())
            .collect()
    }

    /// Indices of the categorical attributes.
    pub fn categorical_indices(&self) -> Vec<usize> {
        (0..self.d())
            .filter(|&j| !self.attributes[j].is_numeric())
            .collect()
    }

    /// The `ldp-core` specs (numeric attributes become canonical `[-1, 1]`).
    pub fn attr_specs(&self) -> Vec<AttrSpec> {
        self.attributes
            .iter()
            .map(|a| match a.kind {
                AttributeKind::Numeric { .. } => AttrSpec::Numeric,
                AttributeKind::Categorical { k } => AttrSpec::Categorical { k },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::numeric("age", 15.0, 90.0).unwrap(),
            Attribute::categorical("gender", 2).unwrap(),
            Attribute::numeric("income", 0.0, 1e5).unwrap(),
            Attribute::categorical("region", 27).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        assert!(Schema::new(vec![]).is_err());
        let a = Attribute::categorical("x", 3).unwrap();
        assert!(Schema::new(vec![a.clone(), a]).is_err());
    }

    #[test]
    fn rejects_bad_attributes() {
        assert!(Attribute::numeric("x", 5.0, 5.0).is_err());
        assert!(Attribute::categorical("x", 1).is_err());
    }

    #[test]
    fn indices_and_lookup() {
        let s = schema();
        assert_eq!(s.d(), 4);
        assert_eq!(s.numeric_indices(), vec![0, 2]);
        assert_eq!(s.categorical_indices(), vec![1, 3]);
        assert_eq!(s.index_of("income"), Some(2));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.attribute(3).name, "region");
    }

    #[test]
    fn specs_match_kinds() {
        let s = schema();
        let specs = s.attr_specs();
        assert_eq!(specs[0], AttrSpec::Numeric);
        assert_eq!(specs[1], AttrSpec::Categorical { k: 2 });
        assert_eq!(specs[3], AttrSpec::Categorical { k: 27 });
    }
}
