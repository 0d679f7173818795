//! Table I of the paper: which mechanism wins the worst-case-variance
//! comparison in each `(d, ε)` regime.

use crate::math::{epsilon_sharp, epsilon_star};
use crate::variance;

/// The strict ordering regimes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// `d > 1, ε > 0` — `HM < PM < Duchi`.
    MultiDim,
    /// `d = 1, ε > ε#` — `HM < PM < Duchi`.
    OneDimLarge,
    /// `d = 1, ε = ε#` — `HM < PM = Duchi`.
    OneDimSharp,
    /// `d = 1, ε* < ε < ε#` — `HM < Duchi < PM`.
    OneDimMiddle,
    /// `d = 1, 0 < ε ≤ ε*` — `HM = Duchi < PM`.
    OneDimSmall,
}

impl Regime {
    /// The ordering string exactly as Table I prints it.
    pub fn ordering(self) -> &'static str {
        match self {
            Regime::MultiDim | Regime::OneDimLarge => "MaxVarHM < MaxVarPM < MaxVarDu",
            Regime::OneDimSharp => "MaxVarHM < MaxVarPM = MaxVarDu",
            Regime::OneDimMiddle => "MaxVarHM < MaxVarDu < MaxVarPM",
            Regime::OneDimSmall => "MaxVarHM = MaxVarDu < MaxVarPM",
        }
    }
}

/// One evaluated row of Table I: the three worst-case variances at `(d, ε)`
/// and the regime they fall into.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Dimensionality.
    pub d: usize,
    /// Privacy budget.
    pub eps: f64,
    /// `max_t Var` for the Hybrid Mechanism.
    pub hm: f64,
    /// `max_t Var` for the Piecewise Mechanism.
    pub pm: f64,
    /// `max_t Var` for Duchi et al.'s mechanism.
    pub duchi: f64,
    /// The regime of Table I this `(d, ε)` belongs to.
    pub regime: Regime,
}

/// Classifies `(d, ε)` into its Table I regime (analytically, from the
/// `ε*`/`ε#` thresholds) and evaluates the three worst-case variances.
///
/// # Panics
/// Panics if `d == 0` or `ε ≤ 0` — Table I is defined only for valid inputs.
pub fn table1_row(d: usize, eps: f64) -> Table1Row {
    assert!(d >= 1, "Table I requires d ≥ 1");
    assert!(eps > 0.0 && eps.is_finite(), "Table I requires ε > 0");
    const TOL: f64 = 1e-9;
    let regime = if d > 1 {
        Regime::MultiDim
    } else if eps <= epsilon_star() {
        Regime::OneDimSmall
    } else if (eps - epsilon_sharp()).abs() < TOL {
        Regime::OneDimSharp
    } else if eps < epsilon_sharp() {
        Regime::OneDimMiddle
    } else {
        Regime::OneDimLarge
    };
    let (hm, pm, duchi) = if d == 1 {
        (
            variance::hm_1d_worst(eps),
            variance::pm_1d_worst(eps),
            variance::duchi_1d_worst(eps),
        )
    } else {
        (
            variance::hm_md_worst(eps, d),
            variance::pm_md_worst(eps, d),
            variance::duchi_md_worst(eps, d),
        )
    };
    Table1Row {
        d,
        eps,
        hm,
        pm,
        duchi,
        regime,
    }
}

/// Checks that a row's measured variances satisfy its regime's ordering
/// (used by tests and by the `table1_regimes` binary to self-verify).
pub fn row_consistent(row: &Table1Row) -> bool {
    // `≤ with tolerance`: strictness is implied by the regime boundaries
    // being excluded from the grid, while equality needs a looser relative
    // tolerance because ε* and ε# are themselves rounded floats.
    let le = |a: f64, b: f64| a <= b + 1e-9 * b.abs().max(1.0);
    let eq = |a: f64, b: f64| (a - b).abs() <= 1e-6 * b.abs().max(1.0);
    match row.regime {
        Regime::MultiDim | Regime::OneDimLarge => le(row.hm, row.pm) && le(row.pm, row.duchi),
        Regime::OneDimSharp => le(row.hm, row.pm) && eq(row.pm, row.duchi),
        Regime::OneDimMiddle => le(row.hm, row.duchi) && le(row.duchi, row.pm),
        Regime::OneDimSmall => eq(row.hm, row.duchi) && le(row.duchi, row.pm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_dimensional_regimes_match_table_1() {
        assert_eq!(table1_row(1, 0.3).regime, Regime::OneDimSmall);
        assert_eq!(table1_row(1, epsilon_star()).regime, Regime::OneDimSmall);
        assert_eq!(table1_row(1, 0.9).regime, Regime::OneDimMiddle);
        assert_eq!(table1_row(1, epsilon_sharp()).regime, Regime::OneDimSharp);
        assert_eq!(table1_row(1, 2.0).regime, Regime::OneDimLarge);
        assert_eq!(table1_row(1, 8.0).regime, Regime::OneDimLarge);
    }

    #[test]
    fn multidimensional_always_hm_pm_duchi() {
        for d in [2usize, 5, 16, 40] {
            for eps in [0.2, 0.61, 1.0, 1.29, 4.0, 8.0] {
                let row = table1_row(d, eps);
                assert_eq!(row.regime, Regime::MultiDim);
                assert!(row_consistent(&row), "d={d}, eps={eps}: {row:?}");
            }
        }
    }

    #[test]
    fn every_regime_row_is_internally_consistent() {
        // Dense ε grid over (0, 8]: the numeric verification of Table I.
        for i in 1..=160 {
            let eps = i as f64 * 0.05;
            let row = table1_row(1, eps);
            assert!(row_consistent(&row), "eps={eps}: {row:?}");
        }
        // And the two exact thresholds.
        for eps in [epsilon_star(), epsilon_sharp()] {
            let row = table1_row(1, eps);
            assert!(row_consistent(&row), "threshold eps={eps}: {row:?}");
        }
    }

    #[test]
    fn ordering_strings_match_paper() {
        assert_eq!(
            table1_row(1, 2.0).regime.ordering(),
            "MaxVarHM < MaxVarPM < MaxVarDu"
        );
        assert_eq!(
            table1_row(1, 1.0).regime.ordering(),
            "MaxVarHM < MaxVarDu < MaxVarPM"
        );
        assert_eq!(
            table1_row(1, 0.4).regime.ordering(),
            "MaxVarHM = MaxVarDu < MaxVarPM"
        );
    }

    #[test]
    #[should_panic(expected = "d ≥ 1")]
    fn rejects_zero_dimension() {
        table1_row(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "ε > 0")]
    fn rejects_non_positive_eps() {
        table1_row(1, 0.0);
    }

    /// The defining identity of `ε#`: PM's and Duchi's one-dimensional
    /// worst-case variances cross *exactly* there (machine precision), with
    /// the strict ordering flipping on either side.
    #[test]
    fn pm_and_duchi_cross_exactly_at_epsilon_sharp() {
        let sharp = epsilon_sharp();
        let (pm, du) = (
            variance::pm_1d_worst(sharp),
            variance::duchi_1d_worst(sharp),
        );
        assert!(
            (pm - du).abs() <= 1e-12 * du,
            "variances at ε# differ: {pm} vs {du}"
        );
        let below = sharp - 1e-6;
        assert!(variance::pm_1d_worst(below) > variance::duchi_1d_worst(below));
        let above = sharp + 1e-6;
        assert!(variance::pm_1d_worst(above) < variance::duchi_1d_worst(above));
    }

    /// The defining identity of `ε*`: HM's interior (α > 0) worst-case
    /// branch meets Duchi's worst case *exactly* there, so `hm_1d_worst`
    /// pastes continuously, and α switches off at the threshold.
    #[test]
    fn hm_branches_paste_exactly_at_epsilon_star() {
        let star = epsilon_star();
        let interior = |eps: f64| {
            let eh = (eps / 2.0).exp();
            let e = eps.exp();
            (eh + 3.0) / (3.0 * eh * (eh - 1.0))
                + (e + 1.0) * (e + 1.0) / (eh * (e - 1.0) * (e - 1.0))
        };
        let du = variance::duchi_1d_worst(star);
        assert!(
            (interior(star) - du).abs() <= 1e-12 * du,
            "branches at ε* differ: {} vs {du}",
            interior(star)
        );
        // Below ε*, HM degenerates to Duchi identically (α = 0)…
        assert_eq!(variance::hm_alpha(star), 0.0);
        assert_eq!(
            variance::hm_1d_worst(star - 1e-6),
            variance::duchi_1d_worst(star - 1e-6)
        );
        // …and just above, α jumps positive while the interior branch is
        // already the smaller of the two (HM strictly wins).
        let above = star + 1e-6;
        assert!(variance::hm_alpha(above) > 0.0);
        assert!(variance::hm_1d_worst(above) < variance::duchi_1d_worst(above));
    }

    /// `table1_row`'s regime classification switches exactly at the two
    /// thresholds (with its documented 1e-9 tolerance window around ε#).
    #[test]
    fn regime_switches_exactly_at_thresholds() {
        let (star, sharp) = (epsilon_star(), epsilon_sharp());
        assert_eq!(table1_row(1, star).regime, Regime::OneDimSmall);
        assert_eq!(table1_row(1, star + 1e-8).regime, Regime::OneDimMiddle);
        assert_eq!(table1_row(1, sharp - 1e-8).regime, Regime::OneDimMiddle);
        assert_eq!(table1_row(1, sharp).regime, Regime::OneDimSharp);
        assert_eq!(table1_row(1, sharp + 5e-10).regime, Regime::OneDimSharp);
        assert_eq!(table1_row(1, sharp + 1e-8).regime, Regime::OneDimLarge);
    }
}

#[cfg(test)]
mod regime_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Table I's multidimensional row over a random (d, ε) grid:
        /// `HM ≤ PM ≤ Duchi` for every d > 1, with `row_consistent`
        /// agreeing.
        #[test]
        fn multidim_ordering_holds_on_random_grid(
            d in 2usize..128,
            eps in 0.05f64..10.0,
        ) {
            let row = table1_row(d, eps);
            prop_assert_eq!(row.regime, Regime::MultiDim);
            prop_assert!(row.hm <= row.pm * (1.0 + 1e-12),
                "d={} eps={}: HM {} > PM {}", d, eps, row.hm, row.pm);
            prop_assert!(row.pm <= row.duchi * (1.0 + 1e-12),
                "d={} eps={}: PM {} > Duchi {}", d, eps, row.pm, row.duchi);
            prop_assert!(row_consistent(&row), "inconsistent row {:?}", row);
        }

        /// The d = 1 rows are classified consistently for random ε, and the
        /// evaluated variances always satisfy the claimed ordering.
        #[test]
        fn one_dim_rows_consistent_on_random_grid(eps in 0.01f64..10.0) {
            let row = table1_row(1, eps);
            prop_assert!(row_consistent(&row), "inconsistent row {:?}", row);
            // HM never loses, in every regime.
            prop_assert!(row.hm <= row.pm * (1.0 + 1e-12), "{:?}", row);
            prop_assert!(row.hm <= row.duchi * (1.0 + 1e-12), "{:?}", row);
        }
    }
}
