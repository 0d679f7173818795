//! Grid specification: choosing 1-D and 2-D granularities from `(ε, n, d)`
//! and lowering numeric attributes onto categorical grid domains.
//!
//! Following the HDG construction (Yang et al., "Answering Multi-Dimensional
//! Range Queries under LDP"), each queryable numeric attribute gets a 1-D
//! grid of `g1` equal-width cells, and each attribute *pair* gets a 2-D grid
//! of `g2 × g2` cells. Every grid is lowered to one categorical attribute
//! (`k = g1` or `k = g2²`), so the existing attribute-sampling protocol —
//! `ClientEncoder` → `Aggregator` → `WordHistogram` plane — aggregates all
//! grids unchanged, under the unchanged block-scheduler determinism contract.
//!
//! ## Granularity choice
//!
//! The paper balances two error sources for a range query. With per-cell
//! noise variance `V`, a 1-D range covering `~g/2` cells accumulates noise
//! variance `≈ (g/2)·V`, while the *non-uniformity* error from the two
//! partially-covered boundary cells shrinks as `(β/g)²` (cells get narrower
//! as `g` grows). Minimizing `g·V/2 + (β/g)²` in `g` gives `g1 ∝ V^{-1/3}`;
//! the 2-D analogue `g²·V/4 + (β/g)²` gives `g2 ∝ V^{-1/4}`. Here
//! `V = v(ε') · m / (k·n)` where `v(ε') = 4e^{ε'}/(e^{ε'}-1)²` is the OUE
//! variance factor at the per-attribute budget `ε' = ε/k`, `m` is the number
//! of grids, and `k = optimal_k(ε, m)` the sampling width — i.e. exactly the
//! noise the existing frequency plane will add. `g1` is then rounded to a
//! multiple of `g2` so each 2-D axis groups *whole* 1-D cells — the
//! alignment the marginal-consistency repair relies on.

use ldp_core::multidim::optimal_k;
use ldp_core::{AttrSpec, Epsilon, LdpError, NumericDomain, Result};
use ldp_data::schema::AttributeKind;
use ldp_data::{Attribute, Column, Dataset, Schema};

/// Granularity clamps: grids must be non-trivial but each lowered
/// categorical domain has to stay cheap for unary oracles.
const G1_MAX: usize = 64;
const G2_MIN: usize = 2;
const G2_MAX: usize = 16;

/// One gridded attribute: its index in the *source* schema plus its public
/// numeric domain.
#[derive(Debug, Clone)]
pub struct GridDim {
    /// Index of the attribute in the source dataset's schema.
    pub attr: usize,
    /// Attribute name (used for lowered-schema attribute names).
    pub name: String,
    /// Public domain the grid tiles.
    pub domain: NumericDomain,
}

/// The grid layout for a set of queryable numeric attributes: which 1-D and
/// 2-D grids exist, their granularities, and how raw tuples lower onto them.
#[derive(Debug, Clone)]
pub struct GridSpec {
    dims: Vec<GridDim>,
    /// Dim-index pairs `(a, b)` with `a < b`, in lexicographic order.
    pairs: Vec<(usize, usize)>,
    g1: usize,
    g2: usize,
    /// Analytic per-cell noise variance of the lowered frequency estimates.
    cell_var: f64,
}

impl GridSpec {
    /// Builds the HDG layout for `attrs` (source-schema indices of numeric
    /// attributes) at privacy budget `epsilon` with `n` reporting users.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] if `attrs` is empty, repeats an index,
    /// or names a non-numeric attribute; [`LdpError::EmptyInput`] if `n = 0`.
    pub fn build(schema: &Schema, attrs: &[usize], epsilon: Epsilon, n: usize) -> Result<Self> {
        if attrs.is_empty() {
            return Err(LdpError::EmptyInput("grid attributes"));
        }
        if n == 0 {
            return Err(LdpError::EmptyInput("population"));
        }
        let mut dims = Vec::with_capacity(attrs.len());
        for &j in attrs {
            if dims.iter().any(|d: &GridDim| d.attr == j) {
                return Err(LdpError::InvalidParameter {
                    name: "attrs",
                    message: format!("attribute {j} listed twice"),
                });
            }
            let attr = schema
                .attributes()
                .get(j)
                .ok_or(LdpError::InvalidParameter {
                    name: "attrs",
                    message: format!("attribute index {j} out of range {}", schema.d()),
                })?;
            let AttributeKind::Numeric { domain } = attr.kind else {
                return Err(LdpError::InvalidParameter {
                    name: "attrs",
                    message: format!(
                        "attribute `{}` is categorical; grids need numeric",
                        attr.name
                    ),
                });
            };
            dims.push(GridDim {
                attr: j,
                name: attr.name.clone(),
                domain,
            });
        }
        let d = dims.len();
        let pairs: Vec<(usize, usize)> = (0..d)
            .flat_map(|a| (a + 1..d).map(move |b| (a, b)))
            .collect();
        let m = d + pairs.len();
        let cell_var = cell_variance(epsilon, m, n);
        let (g1, g2) = choose_granularities(cell_var);
        Ok(GridSpec {
            dims,
            pairs,
            g1,
            g2,
            cell_var,
        })
    }

    /// A degenerate layout with *only* 1-D grids of `g` cells and no pairs —
    /// the naive full-domain-histogram baseline the bench compares against.
    ///
    /// # Errors
    /// As [`GridSpec::build`], plus `g < 2`.
    pub fn one_dimensional(
        schema: &Schema,
        attrs: &[usize],
        epsilon: Epsilon,
        n: usize,
        g: usize,
    ) -> Result<Self> {
        if g < 2 {
            return Err(LdpError::InvalidParameter {
                name: "g",
                message: format!("need at least 2 cells, got {g}"),
            });
        }
        let mut spec = Self::build(schema, attrs, epsilon, n)?;
        let m = spec.dims.len();
        spec.pairs.clear();
        spec.g1 = g;
        spec.g2 = g;
        spec.cell_var = cell_variance(epsilon, m, n);
        Ok(spec)
    }

    /// The gridded dimensions, in declaration order.
    pub fn dims(&self) -> &[GridDim] {
        &self.dims
    }

    /// The 2-D grid pairs as dim indices, lexicographic.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// 1-D granularity (a multiple of [`GridSpec::g2`]).
    pub fn g1(&self) -> usize {
        self.g1
    }

    /// Per-axis 2-D granularity.
    pub fn g2(&self) -> usize {
        self.g2
    }

    /// How many consecutive 1-D cells form one 2-D-axis coarse cell.
    pub fn group(&self) -> usize {
        self.g1 / self.g2
    }

    /// Total number of grids `m = d + d(d−1)/2` — the lowered schema width.
    pub fn grids(&self) -> usize {
        self.dims.len() + self.pairs.len()
    }

    /// Analytic per-cell noise variance of the lowered frequency estimates
    /// (the `V` of the granularity analysis) — used for evidence weighting
    /// and confidence intervals.
    pub fn cell_var(&self) -> f64 {
        self.cell_var
    }

    /// Position of the dim gridding source attribute `attr`, if any.
    pub fn dim_of_attr(&self, attr: usize) -> Option<usize> {
        self.dims.iter().position(|d| d.attr == attr)
    }

    /// Lowered-schema index of the 2-D grid for dim pair `(a, b)`, `a < b`.
    pub fn two_d_index(&self, a: usize, b: usize) -> Option<usize> {
        self.pairs
            .iter()
            .position(|&p| p == (a, b))
            .map(|i| self.dims.len() + i)
    }

    /// The `ldp-core` specs of the lowered schema: one categorical attribute
    /// per grid, dim `i`'s 1-D grid at index `i` (`k = g1`), then the 2-D
    /// grids at [`GridSpec::two_d_index`] (`k = g2²`).
    pub fn attr_specs(&self) -> Vec<AttrSpec> {
        let mut specs = Vec::with_capacity(self.grids());
        specs.extend(
            self.dims
                .iter()
                .map(|_| AttrSpec::Categorical { k: self.g1 as u32 }),
        );
        specs.extend(self.pairs.iter().map(|_| AttrSpec::Categorical {
            k: (self.g2 * self.g2) as u32,
        }));
        specs
    }

    /// The lowered schema itself (named grid attributes, for building a
    /// grid-valued [`Dataset`]).
    ///
    /// # Errors
    /// Never in practice — granularities are clamped to valid categorical
    /// domain sizes at construction.
    pub fn lowered_schema(&self) -> Result<Schema> {
        let mut attrs = Vec::with_capacity(self.grids());
        for d in &self.dims {
            attrs.push(Attribute::categorical(
                &format!("g1:{}", d.name),
                self.g1 as u32,
            )?);
        }
        for &(a, b) in &self.pairs {
            attrs.push(Attribute::categorical(
                &format!("g2:{}*{}", self.dims[a].name, self.dims[b].name),
                (self.g2 * self.g2) as u32,
            )?);
        }
        Schema::new(attrs)
    }

    /// Lowers every row of `dataset` onto the grids, producing an
    /// all-categorical dataset the existing collection pipeline aggregates
    /// unchanged. Row order is preserved, so block partitioning — and with
    /// it the per-block RNG streams and merge order — is identical to what
    /// any other collection over the same users sees.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] if a gridded attribute is missing or
    /// non-numeric in `dataset`; schema-construction errors propagate.
    pub fn lower_dataset(&self, dataset: &Dataset) -> Result<Dataset> {
        let n = dataset.n();
        let mut raw: Vec<&[f64]> = Vec::with_capacity(self.dims.len());
        for d in &self.dims {
            if d.attr >= dataset.schema().d() {
                return Err(LdpError::InvalidParameter {
                    name: "dataset",
                    message: format!("attribute {} out of range {}", d.attr, dataset.schema().d()),
                });
            }
            match dataset.column(d.attr) {
                Column::Numeric(v) => raw.push(v),
                Column::Categorical(_) => {
                    return Err(LdpError::InvalidParameter {
                        name: "dataset",
                        message: format!("attribute `{}` is categorical in this dataset", d.name),
                    })
                }
            }
        }
        let mut columns = Vec::with_capacity(self.grids());
        for (i, d) in self.dims.iter().enumerate() {
            let cells = raw[i].iter().map(|&x| d.domain.grid_cell(x, self.g1));
            columns.push(Column::Categorical(cells.collect()));
        }
        for &(a, b) in &self.pairs {
            let (da, db) = (&self.dims[a], &self.dims[b]);
            let mut cells = Vec::with_capacity(n);
            for (&xa, &xb) in raw[a].iter().zip(raw[b]) {
                let ca = da.domain.grid_cell(xa, self.g2);
                let cb = db.domain.grid_cell(xb, self.g2);
                cells.push(ca * self.g2 as u32 + cb);
            }
            columns.push(Column::Categorical(cells));
        }
        Dataset::new(self.lowered_schema()?, columns)
    }
}

/// The OUE variance factor `v(ε) = 4e^ε/(e^ε − 1)²` (worst-case per-report
/// support variance at budget `ε`).
fn oue_variance_factor(eps: f64) -> f64 {
    let e = eps.exp();
    4.0 * e / ((e - 1.0) * (e - 1.0))
}

/// Analytic per-cell variance of a lowered frequency estimate when `m`
/// grid-attributes are collected from `n` users under attribute sampling:
/// each grid sees `n·k/m` reports at budget `ε/k` and is scaled by `m/k`.
fn cell_variance(epsilon: Epsilon, m: usize, n: usize) -> f64 {
    let k = optimal_k(epsilon, m);
    let eps_k = epsilon.value() / k as f64;
    oue_variance_factor(eps_k) * m as f64 / (k as f64 * n as f64)
}

/// Balances noise against non-uniformity error (see the module docs):
/// `g1 ∝ V^{-1/3}`, `g2 ∝ (1/4·V)^{-1/4}`, clamped and aligned so
/// `g1` is a multiple of `g2`.
fn choose_granularities(cell_var: f64) -> (usize, usize) {
    let g2 = ((0.25 / cell_var).powf(0.25).round() as usize).clamp(G2_MIN, G2_MAX);
    let g1_raw = (1.0 / cell_var).powf(1.0 / 3.0).round() as usize;
    let g1_raw = g1_raw.clamp(g2, G1_MAX);
    // Round to the nearest multiple of g2 that stays within the clamps.
    let mult = ((g1_raw as f64 / g2 as f64).round() as usize).max(1);
    let mult = mult.min(G1_MAX / g2);
    (mult * g2, g2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_data::census::{br_schema, generate_br};

    fn br_attrs(schema: &Schema) -> Vec<usize> {
        ["age", "total_income", "hours_worked", "years_schooling"]
            .iter()
            .map(|n| schema.index_of(n).unwrap())
            .collect()
    }

    #[test]
    fn build_enumerates_grids_and_aligns_granularities() {
        let schema = br_schema();
        let eps = Epsilon::new(1.0).unwrap();
        let spec = GridSpec::build(&schema, &br_attrs(&schema), eps, 60_000).unwrap();
        assert_eq!(spec.dims().len(), 4);
        assert_eq!(spec.pairs().len(), 6);
        assert_eq!(spec.grids(), 10);
        assert_eq!(spec.g1() % spec.g2(), 0, "g1 must group whole g2 cells");
        assert!(spec.g2() >= G2_MIN && spec.g2() <= G2_MAX);
        assert!(spec.g1() <= G1_MAX);
        assert!(spec.cell_var() > 0.0);
    }

    #[test]
    fn granularities_grow_with_budget_and_population() {
        let schema = br_schema();
        let attrs = br_attrs(&schema);
        let lo = GridSpec::build(&schema, &attrs, Epsilon::new(1.0).unwrap(), 30_000).unwrap();
        let hi = GridSpec::build(&schema, &attrs, Epsilon::new(4.0).unwrap(), 30_000).unwrap();
        assert!(hi.g1() >= lo.g1());
        assert!(hi.g2() >= lo.g2());
        let big = GridSpec::build(&schema, &attrs, Epsilon::new(1.0).unwrap(), 3_000_000).unwrap();
        assert!(big.g1() >= lo.g1());
    }

    #[test]
    fn rejects_bad_attribute_lists() {
        let schema = br_schema();
        let eps = Epsilon::new(1.0).unwrap();
        assert!(GridSpec::build(&schema, &[], eps, 1_000).is_err());
        assert!(GridSpec::build(&schema, &[0, 0], eps, 1_000).is_err());
        let gender = schema.index_of("gender").unwrap();
        assert!(GridSpec::build(&schema, &[gender], eps, 1_000).is_err());
        assert!(GridSpec::build(&schema, &[999], eps, 1_000).is_err());
        assert!(GridSpec::build(&schema, &[0], eps, 0).is_err());
    }

    #[test]
    fn lowered_dataset_matches_manual_cells() {
        let ds = generate_br(500, 42).unwrap();
        let schema = ds.schema().clone();
        let attrs = br_attrs(&schema);
        let eps = Epsilon::new(1.0).unwrap();
        let spec = GridSpec::build(&schema, &attrs, eps, ds.n()).unwrap();
        let low = spec.lower_dataset(&ds).unwrap();
        assert_eq!(low.n(), ds.n());
        assert_eq!(low.schema().d(), spec.grids());

        // Spot-check: the first pair column is the g2×g2 product of the
        // first two dims' coarse cells.
        let Column::Numeric(age) = ds.column(attrs[0]) else {
            panic!("age is numeric")
        };
        let Column::Categorical(pair0) = low.column(spec.two_d_index(0, 1).unwrap()) else {
            panic!("pair grids are categorical")
        };
        let Column::Numeric(income) = ds.column(attrs[1]) else {
            panic!("income is numeric")
        };
        let (da, db) = (&spec.dims()[0], &spec.dims()[1]);
        for i in 0..ds.n() {
            let want = da.domain.grid_cell(age[i], spec.g2()) * spec.g2() as u32
                + db.domain.grid_cell(income[i], spec.g2());
            assert_eq!(pair0[i], want, "row {i}");
        }

        // And the 1-D columns coarsen consistently onto the 2-D axes.
        let Column::Categorical(fine_age) = low.column(0) else {
            panic!("1-D grids are categorical")
        };
        for i in 0..ds.n() {
            assert_eq!(
                fine_age[i] / spec.group() as u32,
                da.domain.grid_cell(age[i], spec.g2()),
                "row {i}"
            );
        }
    }

    #[test]
    fn one_dimensional_layout_has_no_pairs() {
        let schema = br_schema();
        let eps = Epsilon::new(1.0).unwrap();
        let spec =
            GridSpec::one_dimensional(&schema, &br_attrs(&schema), eps, 10_000, 256).unwrap();
        assert_eq!(spec.grids(), 4);
        assert_eq!(spec.g1(), 256);
        assert!(spec.pairs().is_empty());
        assert!(GridSpec::one_dimensional(&schema, &br_attrs(&schema), eps, 10_000, 1).is_err());
    }
}
