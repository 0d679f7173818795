//! Audit one Sampling(HM + OUE) cell end to end: run distinguishing-attack
//! trials through the real `ClientEncoder` path and certify, with
//! Clopper-Pearson confidence, how much privacy the implementation
//! *actually* spends — then check the certificate stays below the
//! theoretical ε at several budgets.
//!
//! ```text
//! cargo run --release --example audit_report
//! ```

use ldp::analytics::{ClientEncoder, Protocol};
use ldp::core::multidim::AttrSpec;
use ldp::core::{Epsilon, LdpError, NumericKind, OracleKind};
use ldp_audit::{audit_encode_cell, estimate_eps, AuditConfig};

fn main() -> Result<(), LdpError> {
    // The paper's recommended protocol: sample optimal_k of d attributes,
    // spend ε/k on each — HM for numeric attributes, OUE for categorical.
    let protocol = Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    };
    let specs: Vec<AttrSpec> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                AttrSpec::Numeric
            } else {
                AttrSpec::Categorical { k: 16 }
            }
        })
        .collect();
    let cfg = AuditConfig {
        trials: 200_000,
        ..AuditConfig::default()
    };

    println!("auditing Sampling(HM+OUE), d=8 (4 numeric + 4 categorical k=16)");
    println!(
        "{} trials per cell, Clopper-Pearson alpha={:?} per side (confidence >= {:.2}%)\n",
        cfg.trials,
        cfg.alpha,
        100.0 * (1.0 - 2.0 * cfg.alpha)
    );
    println!(
        "{:>5} {:>8} {:>9} {:>11} {:>11} {:>6}",
        "eps", "per-attr", "advantage", "eps_emp_lo", "eps_emp_up", "gate"
    );

    for eps in [0.5, 1.0, 2.0, 4.0, 6.0] {
        // The encoder splits the budget (ε/k per sampled attribute); the
        // attacker builds its likelihood-ratio test from the encoder's own
        // mechanisms.
        let encoder = ClientEncoder::new(protocol, Epsilon::new(eps)?, specs.clone())?;
        let counts = audit_encode_cell(&encoder, &cfg)?;
        let est = estimate_eps(&counts, cfg.alpha);
        let gate = if est.eps_emp_upper <= eps {
            "ok"
        } else {
            "FAIL"
        };
        println!(
            "{:>5} {:>8.3} {:>9.4} {:>11.4} {:>11.4} {:>6}",
            eps,
            encoder.per_attribute_epsilon().value(),
            est.advantage,
            est.eps_emp_lower,
            est.eps_emp_upper,
            gate
        );
        assert!(
            est.eps_emp_upper <= eps,
            "certified privacy loss {} exceeds the theoretical budget {eps}",
            est.eps_emp_upper
        );
    }

    println!(
        "\nEvery certificate lands below its ε: the implementation never spends \
         more privacy than the theory claims (and the gap is the price of \
         sampling + the conservative exact bounds)."
    );
    Ok(())
}
