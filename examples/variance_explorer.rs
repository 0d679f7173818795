//! Explore the paper's theory interactively: Table I regimes, the ε*/ε#
//! constants, and worst-case variances for any (d, ε). Exits non-zero if
//! any printed Table I row contradicts the paper's ordering.
//!
//! ```text
//! cargo run --release --example variance_explorer            # default grid
//! cargo run --release --example variance_explorer -- 16 1.0  # specific d, ε
//! ```

use ldp::core::math::{epsilon_sharp, epsilon_star};
use ldp::core::multidim::optimal_k;
use ldp::core::theory::{row_consistent, table1_row};
use ldp::core::{variance, Epsilon};

/// Prints one (d, ε) configuration and returns whether its Table I row is
/// consistent with the paper's ordering.
fn describe(d: usize, eps: f64) -> bool {
    let row = table1_row(d, eps);
    let consistent = row_consistent(&row);
    let k = optimal_k(Epsilon::new(eps).expect("positive ε"), d);
    println!("d = {d}, ε = {eps}  (Algorithm 4 samples k = {k} attributes)");
    println!(
        "  worst-case Var — HM: {:.4}, PM: {:.4}, Duchi: {:.4}",
        row.hm, row.pm, row.duchi
    );
    println!(
        "  Laplace (ε/d split): {:.4}",
        variance::laplace(eps / d as f64)
    );
    println!(
        "  Table I regime: {}  [{}]",
        row.regime.ordering(),
        if consistent { "verified" } else { "VIOLATED" }
    );
    println!();
    consistent
}

fn main() {
    println!(
        "paper constants: ε* = {:.6} (HM→Duchi threshold), ε# = {:.6} (PM/Duchi crossover)\n",
        epsilon_star(),
        epsilon_sharp()
    );

    let args: Vec<String> = std::env::args().skip(1).collect();
    let consistent = if args.len() == 2 {
        let d: usize = args[0].parse().expect("d must be a positive integer");
        let eps: f64 = args[1].parse().expect("ε must be a positive number");
        describe(d, eps)
    } else {
        let mut all = true;
        for d in [1usize, 4, 16, 94] {
            for eps in [0.5, 1.0, 4.0] {
                all &= describe(d, eps);
            }
        }
        println!("pass `d ε` as arguments to inspect a specific configuration");
        all
    };
    if !consistent {
        eprintln!("variance_explorer: a Table I row VIOLATED the paper's ordering");
        std::process::exit(1);
    }
}
