//! Synthetic census microdata standing in for the paper's IPUMS extracts.
//!
//! The paper evaluates on two IPUMS census extracts (see the link at the
//! bottom of this page): **BR** (Brazil,
//! 4M tuples, 16 attributes: 6 numeric + 10 categorical) and **MX** (Mexico,
//! 4M tuples, 19 attributes: 5 numeric + 14 categorical). IPUMS microdata is
//! registration-gated and cannot be redistributed, so this module generates
//! synthetic populations with the same *shape*:
//!
//! * identical attribute counts and kinds, with categorical domain sizes
//!   chosen so the one-hot encodings of §VI-B reach the paper's
//!   dimensionalities (BR → 90, MX → 94);
//! * skewed numeric marginals (log-normal income, truncated-normal age) and
//!   Zipf-like categorical marginals (each attribute's weight table is
//!   built once per [`generate_br`] / [`generate_mx`] call, not per draw);
//! * a latent socio-economic factor that makes `total_income` a learnable
//!   function of the remaining attributes, so the §VI-B regression and
//!   classification tasks behave like the paper's (non-private baseline well
//!   below the 50% random-guess error, LDP methods ordered by their noise).
//!
//! The estimation-error comparisons of §VI-A depend only on moment structure
//! (bounded, skewed attributes), not on the true census values, so method
//! orderings and crossovers are preserved.
//!
//! IPUMS: <https://www.ipums.org>

use crate::dataset::{Column, Dataset};
use crate::schema::{Attribute, Schema};
use ldp_core::rng::seeded_rng;
use ldp_core::Result;
use rand::rngs::StdRng;
use rand::Rng;

/// Maximum income in the BR domain (raw scale).
const BR_INCOME_CAP: f64 = 50_000.0;
/// Maximum income in the MX domain (raw scale).
const MX_INCOME_CAP: f64 = 60_000.0;

/// The BR schema: 6 numeric + 10 categorical attributes.
///
/// Categorical domain sizes sum to 95, so the §VI-B one-hot encoding (k−1
/// dummies each) plus the 5 non-target numeric attributes yields 90 features.
pub fn br_schema() -> Schema {
    Schema::new(vec![
        Attribute::numeric("age", 15.0, 90.0).expect("static domain"),
        Attribute::numeric("total_income", 0.0, BR_INCOME_CAP).expect("static domain"),
        Attribute::numeric("hours_worked", 0.0, 100.0).expect("static domain"),
        Attribute::numeric("years_schooling", 0.0, 20.0).expect("static domain"),
        Attribute::numeric("num_children", 0.0, 12.0).expect("static domain"),
        Attribute::numeric("rooms", 1.0, 20.0).expect("static domain"),
        Attribute::categorical("gender", 2).expect("static domain"),
        Attribute::categorical("urban", 2).expect("static domain"),
        Attribute::categorical("ownership", 3).expect("static domain"),
        Attribute::categorical("marital", 5).expect("static domain"),
        Attribute::categorical("religion", 6).expect("static domain"),
        Attribute::categorical("education_level", 10).expect("static domain"),
        Attribute::categorical("industry", 12).expect("static domain"),
        Attribute::categorical("language", 13).expect("static domain"),
        Attribute::categorical("occupation", 15).expect("static domain"),
        Attribute::categorical("region", 27).expect("static domain"),
    ])
    .expect("static schema is valid")
}

/// The MX schema: 5 numeric + 14 categorical attributes.
///
/// Categorical domain sizes sum to 104, so one-hot encoding plus the 4
/// non-target numeric attributes yields 94 features.
pub fn mx_schema() -> Schema {
    Schema::new(vec![
        Attribute::numeric("age", 15.0, 90.0).expect("static domain"),
        Attribute::numeric("total_income", 0.0, MX_INCOME_CAP).expect("static domain"),
        Attribute::numeric("hours_worked", 0.0, 100.0).expect("static domain"),
        Attribute::numeric("years_schooling", 0.0, 20.0).expect("static domain"),
        Attribute::numeric("household_size", 1.0, 15.0).expect("static domain"),
        Attribute::categorical("gender", 2).expect("static domain"),
        Attribute::categorical("urban", 2).expect("static domain"),
        Attribute::categorical("internet", 2).expect("static domain"),
        Attribute::categorical("ownership", 3).expect("static domain"),
        Attribute::categorical("employment_type", 3).expect("static domain"),
        Attribute::categorical("marital", 4).expect("static domain"),
        Attribute::categorical("dwelling", 5).expect("static domain"),
        Attribute::categorical("religion", 6).expect("static domain"),
        Attribute::categorical("education_level", 8).expect("static domain"),
        Attribute::categorical("language", 10).expect("static domain"),
        Attribute::categorical("industry", 12).expect("static domain"),
        Attribute::categorical("state_group", 13).expect("static domain"),
        Attribute::categorical("occupation", 16).expect("static domain"),
        Attribute::categorical("region", 18).expect("static domain"),
    ])
    .expect("static schema is valid")
}

/// One person's latent socio-economic profile, from which all observed
/// attributes are derived.
struct Latent {
    /// Education factor in `[0, 1]` (skewed low, like schooling years).
    edu: f64,
    /// Age in `[15, 90]`.
    age: f64,
    /// Urban resident?
    urban: bool,
    /// Female?
    female: bool,
}

impl Latent {
    fn sample(rng: &mut StdRng) -> Latent {
        // Education: power-transformed uniform, mass concentrated low.
        let edu = rng.random::<f64>().powf(1.4);
        let age = trunc_normal(rng, 38.0, 14.0, 15.0, 90.0);
        let urban = rng.random::<f64>() < (0.45 + 0.4 * edu).min(0.95);
        let female = rng.random::<f64>() < 0.52;
        Latent {
            edu,
            age,
            urban,
            female,
        }
    }

    /// Career-stage earnings hump peaking near age 48.
    fn age_hump(&self) -> f64 {
        let z = (self.age - 48.0) / 33.0;
        (1.0 - z * z).max(0.0)
    }
}

/// Truncated-normal sampling by redraw, falling back to clamping after a
/// bounded number of attempts (only reachable for extreme parameters).
fn trunc_normal(rng: &mut StdRng, mean: f64, std: f64, lo: f64, hi: f64) -> f64 {
    for _ in 0..64 {
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let x = mean + std * z;
        if (lo..=hi).contains(&x) {
            return x;
        }
    }
    mean.clamp(lo, hi)
}

/// Zipf-like distribution over `{0, …, k-1}` with weight `1/(rank+1)^s`.
///
/// The weight table and its total are built once per generator call;
/// each [`Zipf::draw`] is then one uniform and a scan of the table.
struct Zipf {
    weights: Vec<f64>,
    total: f64,
}

impl Zipf {
    fn new(k: u32, s: f64) -> Zipf {
        let weights: Vec<f64> = (0..k).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total = weights.iter().sum();
        Zipf { weights, total }
    }

    /// One draw, rotated by a latent shift so the modal category depends
    /// on the person.
    fn draw(&self, rng: &mut StdRng, shift: u32) -> u32 {
        let k = self.weights.len() as u32;
        let mut u = rng.random::<f64>() * self.total;
        for (r, w) in self.weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return (r as u32 + shift) % k;
            }
        }
        (k - 1 + shift) % k
    }
}

/// Buckets a `[0, 1]` factor into `{0, …, k-1}` with additive noise, so the
/// categorical attribute is informative about — but not identical to — the
/// latent factor.
fn noisy_bucket(rng: &mut StdRng, factor: f64, k: u32, noise: f64) -> u32 {
    let x = (factor + noise * (rng.random::<f64>() - 0.5)).clamp(0.0, 1.0 - 1e-12);
    (x * k as f64) as u32
}

/// Generates the BR-like dataset with `n` tuples.
///
/// # Errors
/// Propagates dataset validation (which cannot fire unless the generator
/// itself is broken — every value is clamped into its domain).
pub fn generate_br(n: usize, seed: u64) -> Result<Dataset> {
    let mut rng = seeded_rng(seed);
    let mut age = Vec::with_capacity(n);
    let mut income = Vec::with_capacity(n);
    let mut hours = Vec::with_capacity(n);
    let mut school = Vec::with_capacity(n);
    let mut children = Vec::with_capacity(n);
    let mut rooms = Vec::with_capacity(n);
    let mut gender = Vec::with_capacity(n);
    let mut urban = Vec::with_capacity(n);
    let mut ownership = Vec::with_capacity(n);
    let mut marital = Vec::with_capacity(n);
    let mut religion = Vec::with_capacity(n);
    let mut edu_level = Vec::with_capacity(n);
    let mut industry = Vec::with_capacity(n);
    let mut language = Vec::with_capacity(n);
    let mut occupation = Vec::with_capacity(n);
    let mut region = Vec::with_capacity(n);
    let sector_zipf = Zipf::new(12, 1.1);
    let language_zipf = Zipf::new(13, 2.2);
    let religion_zipf = Zipf::new(6, 1.6);
    let region_zipf = Zipf::new(27, 0.8);

    for _ in 0..n {
        let p = Latent::sample(&mut rng);
        let employed = rng.random::<f64>() < 0.92 - 0.1 * (1.0 - p.edu);
        let sector = sector_zipf.draw(&mut rng, (p.edu * 5.0) as u32);

        age.push(p.age);
        gender.push(u32::from(p.female));
        urban.push(u32::from(p.urban));
        edu_level.push(noisy_bucket(&mut rng, p.edu, 10, 0.25));
        school.push((p.edu * 20.0 + 2.0 * (rng.random::<f64>() - 0.5)).clamp(0.0, 20.0));
        occupation.push(noisy_bucket(&mut rng, 1.0 - p.edu, 15, 0.45));
        industry.push(sector);
        language.push(language_zipf.draw(&mut rng, 0));
        religion.push(religion_zipf.draw(&mut rng, 0));
        region.push(region_zipf.draw(&mut rng, 0));
        marital.push(marital_status(&mut rng, p.age, 5));
        ownership.push(if p.urban && rng.random::<f64>() < 0.4 + 0.3 * p.edu {
            0 // owned
        } else if rng.random::<f64>() < 0.6 {
            1 // rented
        } else {
            2 // other
        });
        let h = if employed {
            trunc_normal(&mut rng, 41.0, 11.0, 0.0, 100.0)
        } else {
            0.0
        };
        hours.push(h);
        let kids = ((p.age - 18.0).max(0.0) / 12.0 + 1.6 * rng.random::<f64>()) as u32;
        children.push((kids as f64).min(12.0));

        let sector_premium = 0.04 * (11 - sector) as f64;
        let ln_income = 6.1 + 2.0 * p.edu + 0.8 * p.age_hump() + 0.35 * f64::from(p.urban)
            - 0.18 * f64::from(p.female)
            + sector_premium
            + 0.55 * standard_normal(&mut rng);
        let raw = if employed {
            ln_income.exp()
        } else {
            0.3 * ln_income.exp()
        };
        income.push(raw.clamp(0.0, BR_INCOME_CAP));
        rooms.push(
            (2.0 + 4.0 * p.edu + 1.5 * f64::from(p.urban) + 2.0 * rng.random::<f64>())
                .clamp(1.0, 20.0),
        );
    }

    Dataset::new(
        br_schema(),
        vec![
            Column::Numeric(age),
            Column::Numeric(income),
            Column::Numeric(hours),
            Column::Numeric(school),
            Column::Numeric(children),
            Column::Numeric(rooms),
            Column::Categorical(gender),
            Column::Categorical(urban),
            Column::Categorical(ownership),
            Column::Categorical(marital),
            Column::Categorical(religion),
            Column::Categorical(edu_level),
            Column::Categorical(industry),
            Column::Categorical(language),
            Column::Categorical(occupation),
            Column::Categorical(region),
        ],
    )
}

/// Generates the MX-like dataset with `n` tuples.
///
/// # Errors
/// As [`generate_br`].
pub fn generate_mx(n: usize, seed: u64) -> Result<Dataset> {
    let mut rng = seeded_rng(seed.wrapping_add(0x4d58)); // decorrelate from BR
    let mut age = Vec::with_capacity(n);
    let mut income = Vec::with_capacity(n);
    let mut hours = Vec::with_capacity(n);
    let mut school = Vec::with_capacity(n);
    let mut household = Vec::with_capacity(n);
    let mut gender = Vec::with_capacity(n);
    let mut urban = Vec::with_capacity(n);
    let mut internet = Vec::with_capacity(n);
    let mut ownership = Vec::with_capacity(n);
    let mut employment = Vec::with_capacity(n);
    let mut marital = Vec::with_capacity(n);
    let mut dwelling = Vec::with_capacity(n);
    let mut religion = Vec::with_capacity(n);
    let mut edu_level = Vec::with_capacity(n);
    let mut language = Vec::with_capacity(n);
    let mut industry = Vec::with_capacity(n);
    let mut state_group = Vec::with_capacity(n);
    let mut occupation = Vec::with_capacity(n);
    let mut region = Vec::with_capacity(n);
    let sector_zipf = Zipf::new(12, 1.0);
    let language_zipf = Zipf::new(10, 2.0);
    let religion_zipf = Zipf::new(6, 1.8);
    let state_group_zipf = Zipf::new(13, 0.7);
    let region_zipf = Zipf::new(18, 0.9);
    let dwelling_zipf = Zipf::new(5, 1.2);
    let ownership_zipf = Zipf::new(3, 1.0);

    for _ in 0..n {
        let p = Latent::sample(&mut rng);
        let employed = rng.random::<f64>() < 0.9 - 0.12 * (1.0 - p.edu);
        let sector = sector_zipf.draw(&mut rng, (p.edu * 4.0) as u32);

        age.push(p.age);
        gender.push(u32::from(p.female));
        urban.push(u32::from(p.urban));
        internet.push(u32::from(rng.random::<f64>() < 0.25 + 0.6 * p.edu));
        edu_level.push(noisy_bucket(&mut rng, p.edu, 8, 0.25));
        school.push((p.edu * 20.0 + 2.0 * (rng.random::<f64>() - 0.5)).clamp(0.0, 20.0));
        occupation.push(noisy_bucket(&mut rng, 1.0 - p.edu, 16, 0.45));
        industry.push(sector);
        language.push(language_zipf.draw(&mut rng, 0));
        religion.push(religion_zipf.draw(&mut rng, 0));
        state_group.push(state_group_zipf.draw(&mut rng, 0));
        region.push(region_zipf.draw(&mut rng, 0));
        marital.push(marital_status(&mut rng, p.age, 4));
        dwelling.push(dwelling_zipf.draw(&mut rng, u32::from(p.urban)));
        ownership.push(ownership_zipf.draw(&mut rng, u32::from(!p.urban)));
        employment.push(if !employed {
            2
        } else {
            u32::from(rng.random::<f64>() < 0.35 + 0.3 * p.edu)
        });
        let h = if employed {
            trunc_normal(&mut rng, 43.0, 12.0, 0.0, 100.0)
        } else {
            0.0
        };
        hours.push(h);
        household.push((2.0 + 3.5 * (1.0 - p.edu) + 2.5 * rng.random::<f64>()).clamp(1.0, 15.0));

        let sector_premium = 0.05 * (11 - sector) as f64;
        let ln_income = 5.9 + 2.1 * p.edu + 0.75 * p.age_hump() + 0.4 * f64::from(p.urban)
            - 0.2 * f64::from(p.female)
            + sector_premium
            + 0.6 * standard_normal(&mut rng);
        let raw = if employed {
            ln_income.exp()
        } else {
            0.25 * ln_income.exp()
        };
        income.push(raw.clamp(0.0, MX_INCOME_CAP));
    }

    Dataset::new(
        mx_schema(),
        vec![
            Column::Numeric(age),
            Column::Numeric(income),
            Column::Numeric(hours),
            Column::Numeric(school),
            Column::Numeric(household),
            Column::Categorical(gender),
            Column::Categorical(urban),
            Column::Categorical(internet),
            Column::Categorical(ownership),
            Column::Categorical(employment),
            Column::Categorical(marital),
            Column::Categorical(dwelling),
            Column::Categorical(religion),
            Column::Categorical(edu_level),
            Column::Categorical(language),
            Column::Categorical(industry),
            Column::Categorical(state_group),
            Column::Categorical(occupation),
            Column::Categorical(region),
        ],
    )
}

/// Age-dependent marital status over `k` categories (0 = single, 1 =
/// married, then widowed/divorced/other).
fn marital_status(rng: &mut StdRng, age: f64, k: u32) -> u32 {
    let married_prob = ((age - 18.0) / 30.0).clamp(0.05, 0.72);
    let widowed_prob = ((age - 55.0) / 120.0).clamp(0.0, 0.25);
    let u: f64 = rng.random();
    if u < married_prob {
        1
    } else if u < married_prob + widowed_prob {
        2.min(k - 1)
    } else if u < married_prob + widowed_prob + 0.08 {
        3.min(k - 1)
    } else if k > 4 && u > 0.97 {
        4
    } else {
        0
    }
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// The per-draw Zipf sampler the tables replaced: rebuilds the weights
    /// on every call. Kept as the reference [`Zipf::draw`] must match.
    fn zipf(rng: &mut dyn RngCore, k: u32, s: f64, shift: u32) -> u32 {
        let weights: Vec<f64> = (0..k).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut u = rng.random::<f64>() * total;
        for (r, w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return (r as u32 + shift) % k;
            }
        }
        (k - 1 + shift) % k
    }

    #[test]
    fn zipf_table_draws_match_the_per_draw_reference() {
        // Every (k, s) pair `generate_br` and `generate_mx` use.
        let pairs = [
            (12, 1.1),
            (13, 2.2),
            (6, 1.6),
            (27, 0.8),
            (12, 1.0),
            (10, 2.0),
            (6, 1.8),
            (13, 0.7),
            (18, 0.9),
            (5, 1.2),
            (3, 1.0),
        ];
        for (k, s) in pairs {
            let table = Zipf::new(k, s);
            for shift in 0..k {
                let seed = u64::from(k) << 32 | u64::from(shift);
                let (mut a, mut b) = (seeded_rng(seed), seeded_rng(seed));
                for i in 0..10_000 {
                    assert_eq!(
                        table.draw(&mut a, shift),
                        zipf(&mut b, k, s, shift),
                        "k {k} s {s} shift {shift} draw {i}"
                    );
                }
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "rng state, k {k} s {s}");
            }
        }
    }

    #[test]
    fn schemas_match_paper_shape() {
        let br = br_schema();
        assert_eq!(br.d(), 16);
        assert_eq!(br.numeric_indices().len(), 6);
        assert_eq!(br.categorical_indices().len(), 10);
        let mx = mx_schema();
        assert_eq!(mx.d(), 19);
        assert_eq!(mx.numeric_indices().len(), 5);
        assert_eq!(mx.categorical_indices().len(), 14);
    }

    #[test]
    fn one_hot_dimensionalities_match_paper() {
        // §VI-B: BR → 90, MX → 94 after k−1 dummy coding, with
        // total_income held out as the dependent variable.
        for (schema, expect) in [(br_schema(), 90usize), (mx_schema(), 94usize)] {
            let income = schema.index_of("total_income").unwrap();
            let mut dim = 0usize;
            for (j, attr) in schema.attributes().iter().enumerate() {
                if j == income {
                    continue;
                }
                dim += match attr.kind {
                    crate::schema::AttributeKind::Numeric { .. } => 1,
                    crate::schema::AttributeKind::Categorical { k } => k as usize - 1,
                };
            }
            assert_eq!(dim, expect);
        }
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        let a = generate_br(2_000, 1).unwrap();
        let b = generate_br(2_000, 1).unwrap();
        assert_eq!(a.n(), 2_000);
        assert_eq!(a.true_mean(1).unwrap(), b.true_mean(1).unwrap());
        let c = generate_br(2_000, 2).unwrap();
        assert_ne!(a.true_mean(1).unwrap(), c.true_mean(1).unwrap());
        // Dataset::new validated all domains during generation already.
        let mx = generate_mx(2_000, 1).unwrap();
        assert_eq!(mx.n(), 2_000);
    }

    #[test]
    fn income_is_skewed_toward_small_normalized_values() {
        // §III-B/§VI: |t| tends to be small for income-like attributes after
        // normalization — the regime where PM beats Duchi.
        let ds = generate_br(20_000, 3).unwrap();
        let j = ds.schema().index_of("total_income").unwrap();
        let col = ds.canonical_numeric_column(j).unwrap();
        let mean_abs = col.iter().map(|x| x.abs()).sum::<f64>() / col.len() as f64;
        assert!(
            mean_abs < 0.9,
            "normalized income should not hug ±1: {mean_abs}"
        );
        let mean = ds.true_mean(j).unwrap();
        assert!(mean < 0.0, "income skews low in [-1,1]: {mean}");
    }

    #[test]
    fn categorical_marginals_are_skewed() {
        let ds = generate_mx(30_000, 4).unwrap();
        let j = ds.schema().index_of("language").unwrap();
        let freqs = ds.true_frequencies(j).unwrap();
        assert!((freqs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Dominant language should hold a clear majority; tail should exist.
        assert!(freqs[0] > 0.5, "{freqs:?}");
        assert!(freqs.iter().filter(|&&f| f > 0.0).count() >= 6);
    }

    #[test]
    fn income_correlates_with_education() {
        // Learnability precondition for §VI-B: within-group income means
        // must be ordered by education level.
        let ds = generate_br(50_000, 5).unwrap();
        let inc = ds.schema().index_of("total_income").unwrap();
        let edu = ds.schema().index_of("education_level").unwrap();
        let (Column::Numeric(income), Column::Categorical(edu_col)) =
            (ds.column(inc), ds.column(edu))
        else {
            panic!("column kinds");
        };
        let mut lo_sum = 0.0;
        let mut lo_n = 0usize;
        let mut hi_sum = 0.0;
        let mut hi_n = 0usize;
        for (x, &e) in income.iter().zip(edu_col) {
            if e <= 2 {
                lo_sum += x;
                lo_n += 1;
            } else if e >= 7 {
                hi_sum += x;
                hi_n += 1;
            }
        }
        assert!(
            lo_n > 100 && hi_n > 100,
            "both groups populated: {lo_n}, {hi_n}"
        );
        let (lo_mean, hi_mean) = (lo_sum / lo_n as f64, hi_sum / hi_n as f64);
        assert!(
            hi_mean > 1.5 * lo_mean,
            "income must rise with education: lo {lo_mean}, hi {hi_mean}"
        );
    }

    #[test]
    fn age_marital_relationship() {
        let ds = generate_br(30_000, 6).unwrap();
        let age_j = ds.schema().index_of("age").unwrap();
        let mar_j = ds.schema().index_of("marital").unwrap();
        let (Column::Numeric(ages), Column::Categorical(marital)) =
            (ds.column(age_j), ds.column(mar_j))
        else {
            panic!("column kinds");
        };
        let young_married = ages
            .iter()
            .zip(marital)
            .filter(|(a, _)| **a < 25.0)
            .filter(|(_, m)| **m == 1)
            .count() as f64
            / ages.iter().filter(|a| **a < 25.0).count().max(1) as f64;
        let older_married = ages
            .iter()
            .zip(marital)
            .filter(|(a, _)| **a >= 40.0)
            .filter(|(_, m)| **m == 1)
            .count() as f64
            / ages.iter().filter(|a| **a >= 40.0).count().max(1) as f64;
        assert!(
            older_married > young_married,
            "{older_married} vs {young_married}"
        );
    }
}
