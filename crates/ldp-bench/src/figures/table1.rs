//! Table I: worst-case-variance regimes of PM, HM, and Duchi et al.

use crate::cli::Args;
use crate::table::{fixed, Table};
use ldp_core::math::{epsilon_sharp, epsilon_star};
use ldp_core::theory::{row_consistent, table1_row};

/// Regenerates Table I: evaluates the three worst-case variances at
/// representative `(d, ε)` points in each regime and verifies the claimed
/// ordering numerically.
pub fn run(_args: &Args) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Constants: eps* = {:.6} (paper: 0.61), eps# = {:.6} (paper: 1.29)\n\n",
        epsilon_star(),
        epsilon_sharp()
    ));

    let mut table = Table::new(
        "Table I: worst-case noise variance regimes",
        &[
            "d", "eps", "MaxVarHM", "MaxVarPM", "MaxVarDu", "ordering", "verified",
        ],
    );
    let cases: Vec<(usize, f64)> = vec![
        (16, 0.5),
        (16, 2.0),
        (4, 1.0),
        (1, 4.0),
        (1, 2.0),
        (1, epsilon_sharp()),
        (1, 1.0),
        (1, 0.61),
        (1, 0.3),
    ];
    for (d, eps) in cases {
        let row = table1_row(d, eps);
        table.row(vec![
            d.to_string(),
            format!("{eps:.4}"),
            fixed(row.hm),
            fixed(row.pm),
            fixed(row.duchi),
            row.regime.ordering().to_string(),
            if row_consistent(&row) {
                "ok".into()
            } else {
                "VIOLATED".into()
            },
        ]);
    }
    out.push_str(&table.render());

    // Dense verification sweep: every (d, ε) point, not only the printed
    // rows, must order the variances as Table I does.
    let mut violations = 0usize;
    let mut checked = 0usize;
    for d in [1usize, 2, 5, 10, 16, 40, 94] {
        for i in 1..=320 {
            let eps = i as f64 * 0.025;
            checked += 1;
            if !row_consistent(&table1_row(d, eps)) {
                violations += 1;
            }
        }
    }
    out.push_str(&format!(
        "\nDense sweep: {checked} (d, eps) grid points checked, {violations} ordering violations\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_all_regimes_and_no_violations() {
        let report = run(&Args::default());
        assert!(report.contains("MaxVarHM < MaxVarPM < MaxVarDu"));
        assert!(report.contains("MaxVarHM < MaxVarDu < MaxVarPM"));
        assert!(report.contains("MaxVarHM = MaxVarDu < MaxVarPM"));
        assert!(report.contains("0 ordering violations"));
        assert!(!report.contains("VIOLATED"));
    }
}
