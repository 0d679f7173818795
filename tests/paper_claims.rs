//! Integration tests pinning the paper's quantitative claims, end to end
//! through the facade crate.

use ldp::core::math::{epsilon_sharp, epsilon_star};
use ldp::core::rng::seeded_rng;
use ldp::core::theory::{row_consistent, table1_row, Regime};
use ldp::core::{variance, Epsilon, NumericKind};

/// Table I, reproduced row by row over the exact regime boundaries.
#[test]
fn table_1_regimes_exactly() {
    // d > 1, any ε: HM < PM < Duchi.
    for d in [2usize, 16, 94] {
        for eps in [0.1, 0.61, 1.29, 3.0, 8.0] {
            let row = table1_row(d, eps);
            assert_eq!(row.regime, Regime::MultiDim);
            assert!(row.hm < row.pm && row.pm < row.duchi, "{row:?}");
        }
    }
    // d = 1 regime walk.
    assert_eq!(
        table1_row(1, epsilon_star() - 1e-6).regime,
        Regime::OneDimSmall
    );
    assert_eq!(
        table1_row(1, epsilon_star() + 1e-6).regime,
        Regime::OneDimMiddle
    );
    assert_eq!(table1_row(1, epsilon_sharp()).regime, Regime::OneDimSharp);
    assert_eq!(
        table1_row(1, epsilon_sharp() + 1e-6).regime,
        Regime::OneDimLarge
    );
}

/// The paper's two constants to their printed precision.
#[test]
fn constants_match_paper() {
    assert!((epsilon_star() - 0.6094).abs() < 5e-4, "{}", epsilon_star());
    assert!(
        (epsilon_sharp() - 1.2898).abs() < 5e-4,
        "{}",
        epsilon_sharp()
    );
}

/// Figure 1's qualitative content: the variance order at representative ε.
#[test]
fn figure_1_orderings() {
    // Small ε: Duchi ≪ Laplace; large ε: Laplace < Duchi.
    assert!(variance::duchi_1d_worst(0.5) < variance::laplace(0.5));
    assert!(variance::laplace(6.0) < variance::duchi_1d_worst(6.0));
    // PM always below Laplace; HM always the minimum of the four.
    for i in 1..=80 {
        let eps = i as f64 * 0.1;
        assert!(variance::pm_1d_worst(eps) < variance::laplace(eps));
        let hm = variance::hm_1d_worst(eps);
        assert!(hm <= variance::pm_1d_worst(eps) + 1e-9);
        assert!(hm <= variance::duchi_1d_worst(eps) + 1e-9);
        assert!(hm <= variance::laplace(eps) + 1e-9);
    }
}

/// Lemma 1: PM's closed-form variance against a large-sample simulation,
/// across the ε grid of the experiments.
#[test]
fn lemma_1_variance_against_simulation() {
    let mut rng = seeded_rng(2024);
    for eps in [0.5, 1.0, 2.0, 4.0] {
        let pm = NumericKind::Piecewise.build(Epsilon::new(eps).unwrap());
        for t in [0.0, -0.7, 1.0] {
            let n = 200_000;
            let mut sum = 0.0;
            let mut sq = 0.0;
            for _ in 0..n {
                let x = pm.perturb(t, &mut rng).unwrap();
                sum += x;
                sq += x * x;
            }
            let mean = sum / n as f64;
            let var = sq / n as f64 - mean * mean;
            let expect = pm.variance(t);
            assert!(
                (var - expect).abs() / expect < 0.05,
                "eps={eps} t={t}: {var} vs {expect}"
            );
            assert!((mean - t).abs() < 0.03, "bias at eps={eps} t={t}: {mean}");
        }
    }
}

/// Equation 8: HM's worst-case formula against simulation at the worst
/// input (t = 0 below ε*, any t above — we use both endpoints).
#[test]
fn equation_8_against_simulation() {
    let mut rng = seeded_rng(2025);
    for eps in [0.4, 1.0, 3.0] {
        let hm = NumericKind::Hybrid.build(Epsilon::new(eps).unwrap());
        let worst = hm.worst_case_variance();
        for t in [0.0, 1.0] {
            let n = 200_000;
            let mut sum = 0.0;
            let mut sq = 0.0;
            for _ in 0..n {
                let x = hm.perturb(t, &mut rng).unwrap();
                sum += x;
                sq += x * x;
            }
            let mean = sum / n as f64;
            let var = sq / n as f64 - mean * mean;
            assert!(
                var <= worst * 1.05,
                "eps={eps} t={t}: simulated {var} exceeds worst-case {worst}"
            );
        }
    }
}

/// Equations 13–15 against simulation through the full multidimensional
/// perturbers (one spot-check per mechanism; the fine-grained grids live in
/// the unit tests).
#[test]
fn multidim_variance_formulas_against_simulation() {
    use ldp::core::multidim::{DuchiMultidim, SamplingPerturber, SparseReport};
    use ldp::core::{AttrReport, AttrSpec, AttrValue, OracleKind};
    let eps = Epsilon::new(4.0).unwrap();
    let d = 6usize;
    let t = [0.3, -0.5, 0.0, 0.8, -0.9, 0.1];
    let tuple = t.map(AttrValue::Numeric);
    let n = 150_000;
    // Per-coordinate empirical variance of the n reports against a closed
    // form.
    let check = |label: &str, sums: &[f64], sq: &[f64], formula: fn(f64, usize, f64) -> f64| {
        for j in 0..d {
            let mean = sums[j] / n as f64;
            let var = sq[j] / n as f64 - mean * mean;
            let expect = formula(eps.value(), d, t[j]);
            assert!(
                (var - expect).abs() / expect < 0.05,
                "{label} j={j}: {var} vs {expect}"
            );
        }
    };

    // Duchi MD (Equation 13).
    let md = DuchiMultidim::new(eps, d).unwrap();
    let mut rng = seeded_rng(2026);
    let mut sq = vec![0.0; d];
    let mut sums = vec![0.0; d];
    let (mut out, mut scratch) = (Vec::new(), md.scratch());
    for _ in 0..n {
        md.perturb_into(&t, &mut rng, &mut out, &mut scratch)
            .unwrap();
        for (j, x) in out.iter().enumerate() {
            sums[j] += x;
            sq[j] += x * x;
        }
    }
    check("Duchi", &sums, &sq, variance::duchi_md);

    // Algorithm 4 + PM (Equation 14) and + HM (Equation 15, with the
    // derived small-ε branch).
    let pm_md: fn(f64, usize, f64) -> f64 = variance::pm_md;
    for (label, kind, seed, formula) in [
        ("PM", NumericKind::Piecewise, 2027, pm_md),
        ("HM", NumericKind::Hybrid, 2028, variance::hm_md),
    ] {
        let p =
            SamplingPerturber::new(eps, vec![AttrSpec::Numeric; d], kind, OracleKind::Oue).unwrap();
        let mut rng = seeded_rng(seed);
        let mut sq = vec![0.0; d];
        let mut sums = vec![0.0; d];
        let (mut report, mut scratch) = (SparseReport::with_capacity(d, p.k()), p.scratch());
        for _ in 0..n {
            p.perturb_into(&tuple, &mut rng, &mut report, &mut scratch)
                .unwrap();
            // Unsampled attributes report zero and add nothing to either sum.
            for (j, entry) in &report.entries {
                let AttrReport::Numeric(x) = entry else {
                    unreachable!("numeric schema");
                };
                sums[*j as usize] += x;
                sq[*j as usize] += x * x;
            }
        }
        check(label, &sums, &sq, formula);
    }
}

/// §III-B: PM's variance falls as |t| falls, Duchi's rises — the asymmetry
/// HM exploits and the reason PM excels on near-zero gradients.
#[test]
fn variance_monotonicity_in_input_magnitude() {
    for eps in [0.5, 1.0, 4.0] {
        let mut prev_pm = -1.0;
        let mut prev_duchi = f64::INFINITY;
        for i in 0..=10 {
            let t = i as f64 / 10.0;
            let pm = variance::pm_1d(eps, t);
            let duchi = variance::duchi_1d(eps, t);
            assert!(pm >= prev_pm, "PM must rise with |t|");
            assert!(duchi <= prev_duchi, "Duchi must fall with |t|");
            prev_pm = pm;
            prev_duchi = duchi;
        }
    }
}

/// All regimes of Table I verified densely (the claim check behind the
/// `table1_regimes` binary).
#[test]
fn dense_regime_sweep_is_clean() {
    for d in [1usize, 3, 16] {
        for i in 1..=200 {
            let eps = i as f64 * 0.04;
            assert!(row_consistent(&table1_row(d, eps)), "d={d} eps={eps}");
        }
    }
}
