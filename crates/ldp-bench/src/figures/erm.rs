//! Shared runner for the §VI-B empirical-risk-minimization experiments
//! (Figures 9, 10, 11).

use crate::cli::Args;
use crate::figures::EPSILONS;
use crate::table::{fixed, sci, Table};
use ldp_core::{Epsilon, NumericKind};
use ldp_data::census::{generate_br, generate_mx};
use ldp_data::{DesignMatrix, TargetKind};
use ldp_ml::{
    cross_validate, misclassification_rate, regression_mse, GradientMechanism, LdpSgd, LossKind,
    NonPrivateSgd, SgdConfig,
};

/// Which metric a figure reports.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// Misclassification rate (Figures 9 and 10).
    Misclassification,
    /// Prediction MSE (Figure 11).
    RegressionMse,
}

/// Runs one ERM figure: `loss` with `metric`, on BR and MX, for the LDP
/// mechanisms and the non-private baseline, via k-fold cross validation.
pub fn run_erm(figure: &str, loss: LossKind, metric: Metric, args: &Args) -> String {
    let mechanisms: Vec<Option<GradientMechanism>> = vec![
        Some(GradientMechanism::LaplaceSplit),
        Some(GradientMechanism::DuchiMultidim),
        Some(GradientMechanism::Sampling(NumericKind::Piecewise)),
        Some(GradientMechanism::Sampling(NumericKind::Hybrid)),
        None, // non-private
    ];
    let target_kind = if loss.is_classification() {
        TargetKind::BinaryAtMean
    } else {
        TargetKind::Regression
    };

    let mut out = String::new();
    for (name, ds) in [
        (
            "BR",
            generate_br(args.ml_users, args.seed).expect("generator is domain-safe"),
        ),
        (
            "MX",
            generate_mx(args.ml_users, args.seed).expect("generator is domain-safe"),
        ),
    ] {
        let data = DesignMatrix::encode(&ds, "total_income", target_kind)
            .expect("census schema has total_income");
        let mut table = Table::new(
            &format!(
                "{figure} ({name}): {} — {} , n = {}, d = {}, {}-fold x {}",
                loss.name(),
                metric_name(metric),
                data.n(),
                data.dim(),
                args.folds,
                args.repeats
            ),
            &["eps", "Laplace", "Duchi", "PM", "HM", "Non-private"],
        );
        // The non-private baseline does not depend on ε; compute it once.
        let nonprivate = evaluate(&data, loss, metric, None, 1.0, args);
        for eps in EPSILONS {
            let mut row = vec![format!("{eps}")];
            for mech in &mechanisms {
                let value = match mech {
                    Some(m) => evaluate(&data, loss, metric, Some(*m), eps, args),
                    None => nonprivate,
                };
                row.push(match metric {
                    Metric::Misclassification => fixed(value),
                    Metric::RegressionMse => sci(value),
                });
            }
            table.row(row);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

fn metric_name(metric: Metric) -> &'static str {
    match metric {
        Metric::Misclassification => "misclassification rate",
        Metric::RegressionMse => "MSE",
    }
}

fn evaluate(
    data: &DesignMatrix,
    loss: LossKind,
    metric: Metric,
    mechanism: Option<GradientMechanism>,
    eps: f64,
    args: &Args,
) -> f64 {
    let mut config = SgdConfig::paper_defaults(loss);
    // At reduced scale (fewer users → fewer, noisier iterations) the unit
    // learning rate of the paper's 4M-user runs overshoots; scale it to the
    // loss curvature. Tail averaging (below) absorbs the residual noise.
    config.learning_rate = match loss {
        LossKind::LinearRegression => 0.1,
        _ => 0.3,
    };
    let eval = |beta: &[f64], rows: &[usize]| match metric {
        Metric::Misclassification => misclassification_rate(beta, data, rows),
        Metric::RegressionMse => regression_mse(beta, data, rows),
    };
    match mechanism {
        None => {
            let trainer = NonPrivateSgd::new(config, 2, 64).expect("valid config");
            cross_validate(
                data,
                args.folds,
                args.repeats,
                args.seed,
                |rows, seed| trainer.train(data, rows, seed),
                eval,
            )
            .expect("cross validation runs")
        }
        Some(mech) => {
            let epsilon = Epsilon::new(eps).expect("positive");
            // Group size: §V's d·log d/ε² is a *minimum* for the averaged
            // gradient to concentrate. With users to spare we also floor the
            // group at train_n/50 (≤ 50 iterations) — at large ε the raw
            // minimum leaves tiny groups whose noise dominates — and cap at
            // train_n/8 so every fold still gets ≥ 8 iterations.
            let suggested = LdpSgd::suggested_group_size(data.dim(), epsilon);
            let train_n = data.n() - data.n() / args.folds;
            let upper = (train_n / 8).max(10);
            let lower = (train_n / 50).clamp(10, upper);
            let group = suggested.clamp(lower, upper);
            let trainer = LdpSgd::new(config, epsilon, mech, group).expect("valid config");
            cross_validate(
                data,
                args.folds,
                args.repeats,
                args.seed,
                |rows, seed| trainer.train(data, rows, seed),
                eval,
            )
            .expect("cross validation runs")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erm_runner_produces_tables_quickly() {
        let args = Args {
            ml_users: 3_000,
            folds: 3,
            repeats: 1,
            ..Args::default()
        };
        let report = run_erm(
            "Figure 9",
            LossKind::Logistic,
            Metric::Misclassification,
            &args,
        );
        assert!(report.contains("Figure 9 (BR)"));
        assert!(report.contains("Figure 9 (MX)"));
        assert!(report.contains("Non-private"));
    }
}
