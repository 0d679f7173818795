//! End-to-end integration tests across all four crates: data generation →
//! perturbation → aggregation → analysis, and the full LDP-SGD loop.

use ldp::analytics::{categorical_mse, numeric_mse, BestEffortNumeric, Collector, Protocol};
use ldp::core::multidim::optimal_k;
use ldp::core::testutil::mse_ci_bounds;
use ldp::core::{variance, Epsilon, NumericKind, OracleKind};
use ldp::data::census::{generate_br, generate_mx};
use ldp::data::synthetic::{gaussian, numeric_dataset, paper_power_law};
use ldp::data::{DesignMatrix, KFold, TargetKind};
use ldp::ml::{
    cross_validate, misclassification_rate, regression_mse, GradientMechanism, LdpSgd, LossKind,
    NonPrivateSgd, SgdConfig,
};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Figure 4 in miniature: on both census datasets, the proposed protocol
/// beats the best-effort baseline on numeric AND categorical MSE.
#[test]
fn proposed_beats_baseline_on_both_censuses() {
    for (name, ds) in [
        ("BR", generate_br(25_000, 1).unwrap()),
        ("MX", generate_mx(25_000, 1).unwrap()),
    ] {
        let e = eps(1.0);
        let proposed = Collector::new(
            Protocol::Sampling {
                numeric: NumericKind::Hybrid,
                oracle: OracleKind::Oue,
            },
            e,
        );
        let baseline = Collector::new(
            Protocol::BestEffort {
                numeric: BestEffortNumeric::PerAttribute(NumericKind::Laplace),
                oracle: OracleKind::Oue,
            },
            e,
        );
        let runs = 4;
        let (mut pn, mut pc, mut bn, mut bc) = (0.0, 0.0, 0.0, 0.0);
        for r in 0..runs {
            let p = proposed.run(&ds, 10 + r).unwrap();
            let b = baseline.run(&ds, 50 + r).unwrap();
            pn += numeric_mse(&p, &ds).unwrap();
            pc += categorical_mse(&p, &ds).unwrap();
            bn += numeric_mse(&b, &ds).unwrap();
            bc += categorical_mse(&b, &ds).unwrap();
        }
        assert!(pn < bn, "{name} numeric: {pn} vs {bn}");
        assert!(pc < bc, "{name} categorical: {pc} vs {bc}");
    }
}

/// Corollary 2 empirically: on numeric-only data, PM and HM (Algorithm 4)
/// beat Duchi et al.'s multidimensional mechanism at every ε of the sweep.
#[test]
fn pm_hm_beat_duchi_md_empirically() {
    let ds = numeric_dataset(30_000, 16, gaussian(0.0), 5).unwrap();
    for e_val in [0.5, 1.0, 4.0] {
        let runs = 4;
        let mut results = Vec::new();
        for protocol in [
            Protocol::Sampling {
                numeric: NumericKind::Piecewise,
                oracle: OracleKind::Oue,
            },
            Protocol::Sampling {
                numeric: NumericKind::Hybrid,
                oracle: OracleKind::Oue,
            },
            Protocol::BestEffort {
                numeric: BestEffortNumeric::DuchiMultidim,
                oracle: OracleKind::Oue,
            },
        ] {
            let collector = Collector::new(protocol, eps(e_val));
            let mut total = 0.0;
            for r in 0..runs {
                let result = collector.run(&ds, 100 * e_val as u64 + r).unwrap();
                total += numeric_mse(&result, &ds).unwrap();
            }
            results.push(total / runs as f64);
        }
        let (pm, hm, duchi) = (results[0], results[1], results[2]);
        assert!(pm < duchi, "eps={e_val}: PM {pm} vs Duchi {duchi}");
        assert!(hm < duchi, "eps={e_val}: HM {hm} vs Duchi {duchi}");
    }
}

/// MSE decreases with the number of users (Figure 7's trend, Lemma 5).
#[test]
fn error_decreases_with_users() {
    let base = generate_mx(64_000, 3).unwrap();
    let collector = Collector::new(
        Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        },
        eps(1.0),
    );
    let mut prev = f64::INFINITY;
    for n in [4_000usize, 16_000, 64_000] {
        let ds = base.head(n).unwrap();
        let runs = 4;
        let mut total = 0.0;
        for r in 0..runs {
            let result = collector.run(&ds, 7 + r).unwrap();
            total += numeric_mse(&result, &ds).unwrap();
        }
        let mse = total / runs as f64;
        assert!(mse < prev, "n={n}: MSE {mse} should fall below {prev}");
        prev = mse;
    }
}

/// MSE decreases with the privacy budget (every figure's x-axis trend).
#[test]
fn error_decreases_with_budget() {
    let ds = numeric_dataset(20_000, 8, paper_power_law(), 9).unwrap();
    let mut prev = f64::INFINITY;
    for e_val in [0.25, 1.0, 4.0] {
        let collector = Collector::new(
            Protocol::Sampling {
                numeric: NumericKind::Hybrid,
                oracle: OracleKind::Oue,
            },
            eps(e_val),
        );
        let runs = 4;
        let mut total = 0.0;
        for r in 0..runs {
            let result = collector.run(&ds, 11 + r).unwrap();
            total += numeric_mse(&result, &ds).unwrap();
        }
        let mse = total / runs as f64;
        assert!(mse < prev, "eps={e_val}: {mse} should fall below {prev}");
        prev = mse;
    }
}

/// The full §VI-B loop: encode census → 3-fold CV → LDP logistic training →
/// better-than-chance held-out accuracy, and non-private at least as good.
#[test]
fn ldp_logistic_cross_validation_learns() {
    let ds = generate_br(12_000, 21).unwrap();
    let data = DesignMatrix::encode(&ds, "total_income", TargetKind::BinaryAtMean).unwrap();
    let config = SgdConfig::paper_defaults(LossKind::Logistic);

    let ldp_trainer = LdpSgd::new(
        config,
        eps(4.0),
        GradientMechanism::Sampling(NumericKind::Hybrid),
        200,
    )
    .unwrap();
    let ldp_err = cross_validate(
        &data,
        3,
        1,
        33,
        |rows, seed| ldp_trainer.train(&data, rows, seed),
        |beta, rows| misclassification_rate(beta, &data, rows),
    )
    .unwrap();

    let np_trainer = NonPrivateSgd::new(config, 2, 64).unwrap();
    let np_err = cross_validate(
        &data,
        3,
        1,
        33,
        |rows, seed| np_trainer.train(&data, rows, seed),
        |beta, rows| misclassification_rate(beta, &data, rows),
    )
    .unwrap();

    assert!(ldp_err < 0.48, "LDP CV error {ldp_err}");
    assert!(np_err < 0.35, "non-private CV error {np_err}");
    assert!(
        np_err <= ldp_err + 0.02,
        "non-private {np_err} vs LDP {ldp_err}"
    );
}

/// Linear regression under LDP produces finite, better-than-zero-model MSE.
#[test]
fn ldp_linear_regression_beats_zero_model() {
    let ds = generate_mx(12_000, 22).unwrap();
    let data = DesignMatrix::encode(&ds, "total_income", TargetKind::Regression).unwrap();
    let kfold = KFold::new(data.n(), 3, 5).unwrap();
    let split = kfold.split(0);
    let mut config = SgdConfig::paper_defaults(LossKind::LinearRegression);
    config.learning_rate = 0.1; // see erm.rs: unit rate overshoots at small n
    let trainer = LdpSgd::new(
        config,
        eps(4.0),
        GradientMechanism::Sampling(NumericKind::Piecewise),
        200,
    )
    .unwrap();
    let beta = trainer.train(&data, &split.train, 12).unwrap();
    let model_mse = regression_mse(&beta, &data, &split.test).unwrap();
    let zero_mse = regression_mse(&vec![0.0; data.dim()], &data, &split.test).unwrap();
    assert!(model_mse.is_finite());
    assert!(
        model_mse < zero_mse,
        "model {model_mse} vs zero-model {zero_mse}"
    );
}

/// Multi-threaded and single-threaded collection agree in expectation:
/// both land inside the analytic confidence band for the protocol's MSE.
#[test]
fn sharding_does_not_distort_estimates() {
    let (n, d) = (40_000usize, 4usize);
    let e_val = 2.0;
    let ds = numeric_dataset(n, d, gaussian(0.5), 13).unwrap();
    let single = Collector::new(
        Protocol::Sampling {
            numeric: NumericKind::Piecewise,
            oracle: OracleKind::Oue,
        },
        eps(e_val),
    )
    .with_shards(1);
    let multi = Collector::new(
        Protocol::Sampling {
            numeric: NumericKind::Piecewise,
            oracle: OracleKind::Oue,
        },
        eps(e_val),
    )
    .with_shards(8);
    // 16 runs × 4 attributes = 64 squared-error cells per collector, enough
    // for the chi-square band's lower edge to be strictly positive (at 16
    // cells the spread exceeds 1 and the lower bound degenerates to 0).
    let runs = 16;
    let cells = d * runs as usize;
    let (mut s, mut m) = (0.0, 0.0);
    for r in 0..runs {
        s += numeric_mse(&single.run(&ds, 40 + r).unwrap(), &ds).unwrap();
        m += numeric_mse(&multi.run(&ds, 80 + r).unwrap(), &ds).unwrap();
    }
    let (s, m) = (s / runs as f64, m / runs as f64);
    // Same estimator, same distribution of noise — only the RNG streams
    // differ. Equation 14 brackets the per-user report variance between its
    // t = 0 and |t| = 1 values, so both averaged MSEs must land inside the
    // chi-square confidence band around [var_min, var_max] / n (replaces
    // the old hand-tuned 5× ratio check; see ldp_core::testutil). The
    // strictly positive lower edge is what catches an under-noised sharded
    // path (e.g. a thread skipping perturbation).
    let k = optimal_k(eps(e_val), d);
    let mse_min = variance::pm_md_with_k(e_val, d, k, 0.0) / n as f64;
    let mse_max = variance::pm_md_with_k(e_val, d, k, 1.0) / n as f64;
    let (lo, hi) = mse_ci_bounds(mse_min, mse_max, cells);
    assert!(lo > 0.0, "lower CI edge degenerated; raise `runs`");
    assert!(
        (lo..=hi).contains(&s),
        "single-thread MSE {s} outside [{lo}, {hi}]"
    );
    assert!(
        (lo..=hi).contains(&m),
        "multi-thread MSE {m} outside [{lo}, {hi}]"
    );
    // And the two must agree with each other directly: s − m is a
    // difference of two independent χ²(cells)/cells-scaled MSEs, so its
    // standard deviation is at most √(2·2/cells)·mse_max.
    let agree = ldp::core::testutil::Z_CI * (4.0 / cells as f64).sqrt() * mse_max;
    assert!(
        (s - m).abs() <= agree,
        "single {s} vs multi {m}: differ by more than {agree}"
    );
}
