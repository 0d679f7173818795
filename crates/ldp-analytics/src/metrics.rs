//! Accuracy metrics used throughout the evaluation (§VI reports MSE for
//! estimation tasks and misclassification rates for ERM).

use ldp_core::{LdpError, Result};

/// Mean squared error between an estimate vector and the ground truth.
///
/// # Errors
/// Rejects length mismatches and empty inputs.
pub fn mse(estimate: &[f64], truth: &[f64]) -> Result<f64> {
    if estimate.len() != truth.len() {
        return Err(LdpError::DimensionMismatch {
            expected: truth.len(),
            actual: estimate.len(),
        });
    }
    if estimate.is_empty() {
        return Err(LdpError::EmptyInput("values"));
    }
    Ok(estimate
        .iter()
        .zip(truth)
        .map(|(e, t)| (e - t) * (e - t))
        .sum::<f64>()
        / estimate.len() as f64)
}

/// Maximum absolute error, the `max_j |Z[A_j] − X[A_j]|` of Lemma 5.
///
/// # Errors
/// As [`mse`].
pub fn max_abs_error(estimate: &[f64], truth: &[f64]) -> Result<f64> {
    if estimate.len() != truth.len() {
        return Err(LdpError::DimensionMismatch {
            expected: truth.len(),
            actual: estimate.len(),
        });
    }
    if estimate.is_empty() {
        return Err(LdpError::EmptyInput("values"));
    }
    Ok(estimate
        .iter()
        .zip(truth)
        .map(|(e, t)| (e - t).abs())
        .fold(f64::NEG_INFINITY, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_basic() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]).unwrap(), 0.0);
        assert_eq!(mse(&[1.0, 3.0], &[0.0, 1.0]).unwrap(), 2.5);
        assert!(mse(&[1.0], &[1.0, 2.0]).is_err());
        assert!(mse(&[], &[]).is_err());
    }

    #[test]
    fn max_abs_basic() {
        assert_eq!(max_abs_error(&[1.0, -2.0], &[0.5, 1.0]).unwrap(), 3.0);
        assert!(max_abs_error(&[], &[]).is_err());
    }
}
