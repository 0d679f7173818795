//! LDP-SGD (§V): train a logistic-regression income classifier where every
//! gradient reaching the aggregator is ε-locally-differentially private.
//!
//! ```text
//! cargo run --release --example private_sgd
//! ```

use ldp::core::{Epsilon, LdpError, NumericKind};
use ldp::data::census::generate_br;
use ldp::data::{train_test_split, DesignMatrix, TargetKind};
use ldp::ml::{
    misclassification_rate, GradientMechanism, LdpSgd, LossKind, NonPrivateSgd, SgdConfig,
};

fn main() -> Result<(), LdpError> {
    // Task: predict whether total_income is above the population mean from
    // the remaining census attributes (one-hot encoded to 90 features).
    let dataset = generate_br(60_000, 11)?;
    let data = DesignMatrix::encode(&dataset, "total_income", TargetKind::BinaryAtMean)?;
    let split = train_test_split(data.n(), 0.2, 3)?;
    println!(
        "income classification: n = {} (train {}, test {}), d = {}\n",
        data.n(),
        split.train.len(),
        split.test.len(),
        data.dim()
    );

    let config = SgdConfig::paper_defaults(LossKind::Logistic);

    // Non-private reference.
    let nonprivate = NonPrivateSgd::new(config, 3, 64)?.train(&data, &split.train, 1)?;
    let base_err = misclassification_rate(&nonprivate, &data, &split.test)?;
    println!("non-private SGD        : misclassification = {base_err:.4}");

    // LDP-SGD at several budgets. Each user contributes one clipped,
    // perturbed gradient to exactly one iteration.
    for eps_value in [0.5, 1.0, 2.0, 4.0] {
        let eps = Epsilon::new(eps_value)?;
        let group = LdpSgd::suggested_group_size(data.dim(), eps).min(split.train.len() / 8);
        for mech in [
            GradientMechanism::Sampling(NumericKind::Hybrid),
            GradientMechanism::DuchiMultidim,
        ] {
            let trainer = LdpSgd::new(config, eps, mech, group)?;
            let beta = trainer.train(&data, &split.train, 5)?;
            let err = misclassification_rate(&beta, &data, &split.test)?;
            println!(
                "LDP-SGD ε = {eps_value:<4} {:<6} : misclassification = {err:.4}  (|G| = {group})",
                mech.label()
            );
        }
    }
    println!("\nSmaller ε → noisier gradients → higher error; HM tracks or beats Duchi,");
    println!("and both approach the non-private baseline as ε grows (paper Figure 9).");
    Ok(())
}
