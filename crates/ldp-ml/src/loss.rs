//! The three empirical-risk-minimization losses of §V.
//!
//! Each user holds `⟨x_i, y_i⟩` with `x_i ∈ [-1,1]^d` and `y_i ∈ [-1,1]`
//! (linear regression) or `y_i ∈ {-1, 1}` (logistic regression, SVM). The
//! regularized objective is `1/n Σ ℓ(β; x_i, y_i) + λ/2‖β‖²`.

use ldp_core::math::sigmoid;

/// Which loss function drives the SGD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// `ℓ = (x^Tβ − y)²` — linear regression.
    LinearRegression,
    /// `ℓ = log(1 + e^{−y·x^Tβ})` — logistic regression.
    Logistic,
    /// `ℓ = max{0, 1 − y·x^Tβ}` — SVM hinge loss.
    SvmHinge,
}

impl LossKind {
    /// Display name matching the paper's section headers.
    pub fn name(self) -> &'static str {
        match self {
            LossKind::LinearRegression => "linear regression",
            LossKind::Logistic => "logistic regression",
            LossKind::SvmHinge => "SVM",
        }
    }

    /// True for the two classification losses.
    pub fn is_classification(self) -> bool {
        !matches!(self, LossKind::LinearRegression)
    }

    /// The raw score `x^Tβ`.
    pub fn score(beta: &[f64], x: &[f64]) -> f64 {
        debug_assert_eq!(beta.len(), x.len());
        beta.iter().zip(x).map(|(b, v)| b * v).sum()
    }

    /// The per-example loss `ℓ(β; x, y)` (un-regularized).
    pub fn loss(self, beta: &[f64], x: &[f64], y: f64) -> f64 {
        let s = Self::score(beta, x);
        match self {
            LossKind::LinearRegression => (s - y) * (s - y),
            LossKind::Logistic => ldp_core::math::ln_1p_exp(-y * s),
            LossKind::SvmHinge => (1.0 - y * s).max(0.0),
        }
    }

    /// Accumulates the per-example gradient `∇ℓ(β; x, y)` into `out`
    /// (overwriting it). The `λβ` regularization term is added by the SGD
    /// driver, not here.
    ///
    /// For the hinge loss we use the standard subgradient (0 at the kink).
    pub fn gradient_into(self, beta: &[f64], x: &[f64], y: f64, out: &mut [f64]) {
        debug_assert_eq!(beta.len(), out.len());
        let s = Self::score(beta, x);
        let coeff = match self {
            LossKind::LinearRegression => 2.0 * (s - y),
            LossKind::Logistic => -y * sigmoid(-y * s),
            LossKind::SvmHinge => {
                if y * s < 1.0 {
                    -y
                } else {
                    0.0
                }
            }
        };
        for (o, &v) in out.iter_mut().zip(x) {
            *o = coeff * v;
        }
    }

    /// The classification decision `sign(x^Tβ)` (ties broken toward +1).
    pub fn classify(beta: &[f64], x: &[f64]) -> f64 {
        if Self::score(beta, x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_gradient(kind: LossKind, beta: &[f64], x: &[f64], y: f64) -> Vec<f64> {
        let h = 1e-6;
        (0..beta.len())
            .map(|j| {
                let mut plus = beta.to_vec();
                plus[j] += h;
                let mut minus = beta.to_vec();
                minus[j] -= h;
                (kind.loss(&plus, x, y) - kind.loss(&minus, x, y)) / (2.0 * h)
            })
            .collect()
    }

    #[test]
    fn gradients_match_finite_differences() {
        let beta = [0.3, -0.7, 0.1];
        let x = [0.5, 0.2, -0.9];
        for kind in [LossKind::LinearRegression, LossKind::Logistic] {
            for y in [-1.0, 0.4, 1.0] {
                let mut grad = vec![0.0; 3];
                kind.gradient_into(&beta, &x, y, &mut grad);
                let num = numeric_gradient(kind, &beta, &x, y);
                for j in 0..3 {
                    assert!(
                        (grad[j] - num[j]).abs() < 1e-5,
                        "{kind:?} y={y} j={j}: {} vs {}",
                        grad[j],
                        num[j]
                    );
                }
            }
        }
    }

    #[test]
    fn hinge_gradient_matches_fd_away_from_kink() {
        let kind = LossKind::SvmHinge;
        // Active margin (y·s < 1) and inactive (y·s > 1) cases.
        for (beta, y) in [([0.1, 0.1], 1.0), ([2.0, 2.0], 1.0), ([-2.0, -2.0], 1.0)] {
            let x = [0.8, 0.6];
            let s = LossKind::score(&beta, &x);
            if (y * s - 1.0).abs() < 1e-3 {
                continue; // skip the kink itself
            }
            let mut grad = vec![0.0; 2];
            kind.gradient_into(&beta, &x, y, &mut grad);
            let num = numeric_gradient(kind, &beta, &x, y);
            for j in 0..2 {
                assert!((grad[j] - num[j]).abs() < 1e-5, "beta={beta:?} j={j}");
            }
        }
    }

    #[test]
    fn hinge_zero_gradient_when_margin_satisfied() {
        let beta = [5.0, 0.0];
        let x = [1.0, 0.0];
        let mut grad = vec![0.0; 2];
        LossKind::SvmHinge.gradient_into(&beta, &x, 1.0, &mut grad);
        assert_eq!(grad, vec![0.0, 0.0]);
    }

    #[test]
    fn logistic_loss_is_stable_for_large_scores() {
        let beta = [1e3, 0.0];
        let x = [1.0, 0.0];
        let l = LossKind::Logistic.loss(&beta, &x, -1.0);
        assert!((l - 1e3).abs() < 1e-9, "{l}");
        let l2 = LossKind::Logistic.loss(&beta, &x, 1.0);
        assert!((0.0..1e-10).contains(&l2), "{l2}");
    }

    #[test]
    fn classify_signs() {
        assert_eq!(LossKind::classify(&[1.0], &[0.5]), 1.0);
        assert_eq!(LossKind::classify(&[1.0], &[-0.5]), -1.0);
        assert_eq!(LossKind::classify(&[0.0], &[0.9]), 1.0);
    }

    #[test]
    fn names_and_kinds() {
        assert!(!LossKind::LinearRegression.is_classification());
        assert!(LossKind::Logistic.is_classification());
        assert!(LossKind::SvmHinge.is_classification());
        assert_eq!(LossKind::SvmHinge.name(), "SVM");
    }
}
