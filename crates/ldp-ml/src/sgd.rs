//! Stochastic gradient descent: the non-private baseline and the §V
//! LDP-compliant variant.
//!
//! LDP-SGD collects each group's gradients through the same session API as
//! every other collection: each [`GradientMechanism`] names a [`Protocol`]
//! over the all-numeric schema of the gradient's dimension, one
//! [`ClientEncoder`] perturbs every user's clipped gradient, and a fresh
//! [`Aggregator`](ldp_analytics::Aggregator) per group yields the averaged
//! noisy gradient the server steps on. Figures 9–11 therefore come from the
//! encoder code and budget split that `ldp-audit` attacks.
//!
//! ## Privacy accounting (§V)
//!
//! Each user participates in **at most one** iteration: the paper shows that
//! splitting a user's budget over `m` iterations inflates the required group
//! size by `m²`, so `m = 1` is optimal. [`LdpSgd::train`] therefore
//! partitions the (shuffled) training users into `T = ⌊n/|G|⌋` disjoint
//! groups, and iteration `t` consumes group `t`: every user's single report
//! is `ε`-LDP, hence the whole training run is `ε`-LDP per user with no
//! composition loss.

use crate::gradient::clip_unit;
use crate::loss::LossKind;
use ldp_analytics::{BestEffortNumeric, ClientEncoder, Protocol};
use ldp_core::rng::seeded_rng;
use ldp_core::{AttrSpec, AttrValue, Epsilon, LdpError, NumericKind, OracleKind, Result};
use ldp_data::DesignMatrix;
use rand::seq::SliceRandom;

/// Hyper-parameters shared by both trainers.
#[derive(Debug, Clone, Copy)]
pub struct SgdConfig {
    /// The loss to minimize.
    pub loss: LossKind,
    /// L2 regularization weight λ (paper: 1e-4).
    pub lambda: f64,
    /// Learning-rate scale `c` in the schedule `γ_t = c/√t`.
    pub learning_rate: f64,
}

impl SgdConfig {
    /// The paper's configuration: λ = 1e-4 with a unit learning-rate scale.
    pub fn paper_defaults(loss: LossKind) -> Self {
        SgdConfig {
            loss,
            lambda: 1e-4,
            learning_rate: 1.0,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.lambda >= 0.0 && self.lambda.is_finite()) {
            return Err(LdpError::InvalidParameter {
                name: "lambda",
                message: format!("λ must be finite and ≥ 0, got {}", self.lambda),
            });
        }
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(LdpError::InvalidParameter {
                name: "learning_rate",
                message: format!("must be finite and > 0, got {}", self.learning_rate),
            });
        }
        Ok(())
    }
}

/// How LDP-SGD perturbs each user's clipped gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradientMechanism {
    /// The paper's proposal: Algorithm 4 with the given 1-D mechanism
    /// (PM or HM).
    Sampling(NumericKind),
    /// Duchi et al.'s Algorithm 3 over the whole gradient.
    DuchiMultidim,
    /// Laplace with the budget split evenly across the `d` coordinates —
    /// the paper's weakest baseline.
    LaplaceSplit,
}

impl GradientMechanism {
    /// Legend label used by the figures.
    pub fn label(self) -> &'static str {
        match self {
            GradientMechanism::Sampling(kind) => kind.name(),
            GradientMechanism::DuchiMultidim => "Duchi",
            GradientMechanism::LaplaceSplit => "Laplace",
        }
    }

    /// The collection protocol that perturbs a gradient under this
    /// mechanism, over the all-numeric schema `vec![AttrSpec::Numeric; d]`.
    /// The oracle is unused: gradients have no categorical attributes.
    pub fn protocol(self) -> Protocol {
        match self {
            GradientMechanism::Sampling(numeric) => Protocol::Sampling {
                numeric,
                oracle: OracleKind::Oue,
            },
            GradientMechanism::DuchiMultidim => Protocol::BestEffort {
                numeric: BestEffortNumeric::DuchiMultidim,
                oracle: OracleKind::Oue,
            },
            GradientMechanism::LaplaceSplit => Protocol::BestEffort {
                numeric: BestEffortNumeric::PerAttribute(NumericKind::Laplace),
                oracle: OracleKind::Oue,
            },
        }
    }
}

/// Non-private mini-batch SGD baseline (the "Non-private" line of
/// Figures 9–11).
#[derive(Debug, Clone)]
pub struct NonPrivateSgd {
    config: SgdConfig,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
}

impl NonPrivateSgd {
    /// A trainer with the given epochs/batch.
    ///
    /// # Errors
    /// Validates the config and batch/epoch positivity.
    pub fn new(config: SgdConfig, epochs: usize, batch: usize) -> Result<Self> {
        config.validate()?;
        if epochs == 0 || batch == 0 {
            return Err(LdpError::InvalidParameter {
                name: "epochs/batch",
                message: "must be positive".into(),
            });
        }
        Ok(NonPrivateSgd {
            config,
            epochs,
            batch,
        })
    }

    /// Trains on `rows` of `data`, returning the parameter vector.
    ///
    /// # Errors
    /// Rejects an empty row set.
    pub fn train(&self, data: &DesignMatrix, rows: &[usize], seed: u64) -> Result<Vec<f64>> {
        if rows.is_empty() {
            return Err(LdpError::EmptyInput("training rows"));
        }
        let d = data.dim();
        let mut beta = vec![0.0; d];
        let mut grad = vec![0.0; d];
        let mut batch_grad = vec![0.0; d];
        let mut order = rows.to_vec();
        let mut rng = seeded_rng(seed);
        let mut t = 0usize;
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.batch) {
                t += 1;
                let gamma = self.config.learning_rate / (t as f64).sqrt();
                batch_grad.iter_mut().for_each(|g| *g = 0.0);
                for &i in chunk {
                    self.config
                        .loss
                        .gradient_into(&beta, data.row(i), data.target(i), &mut grad);
                    for (b, g) in batch_grad.iter_mut().zip(&grad) {
                        *b += g;
                    }
                }
                let inv = 1.0 / chunk.len() as f64;
                for j in 0..d {
                    beta[j] -= gamma * (batch_grad[j] * inv + self.config.lambda * beta[j]);
                }
            }
        }
        Ok(beta)
    }
}

/// The §V LDP-SGD trainer.
///
/// ```
/// use ldp_core::{Epsilon, NumericKind};
/// use ldp_data::{census::generate_br, DesignMatrix, TargetKind};
/// use ldp_ml::{GradientMechanism, LdpSgd, LossKind, SgdConfig};
///
/// let ds = generate_br(2_000, 1)?;
/// let data = DesignMatrix::encode(&ds, "total_income", TargetKind::BinaryAtMean)?;
/// let trainer = LdpSgd::new(
///     SgdConfig::paper_defaults(LossKind::Logistic),
///     Epsilon::new(2.0)?,
///     GradientMechanism::Sampling(NumericKind::Hybrid),
///     500, // users per iteration; each user participates at most once
/// )?;
/// let rows: Vec<usize> = (0..2_000).collect();
/// let model = trainer.train(&data, &rows, 7)?;
/// assert_eq!(model.len(), data.dim());
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LdpSgd {
    config: SgdConfig,
    epsilon: Epsilon,
    mechanism: GradientMechanism,
    group_size: usize,
}

impl LdpSgd {
    /// Builds a trainer that spends `ε` per user, with groups of
    /// `group_size` users per iteration.
    ///
    /// §V suggests `|G| = Ω(d·log d / ε²)` so the averaged noisy gradient
    /// concentrates; [`LdpSgd::suggested_group_size`] computes that value.
    ///
    /// # Errors
    /// Validates the config and `group_size ≥ 1`.
    pub fn new(
        config: SgdConfig,
        epsilon: Epsilon,
        mechanism: GradientMechanism,
        group_size: usize,
    ) -> Result<Self> {
        config.validate()?;
        if group_size == 0 {
            return Err(LdpError::InvalidParameter {
                name: "group_size",
                message: "must be positive".into(),
            });
        }
        Ok(LdpSgd {
            config,
            epsilon,
            mechanism,
            group_size,
        })
    }

    /// The paper's group-size guidance `|G| = c·d·log d/ε²`, with `c = 1`
    /// and a floor of 10 users.
    pub fn suggested_group_size(d: usize, epsilon: Epsilon) -> usize {
        let d = d as f64;
        let eps = epsilon.value();
        ((d * d.max(2.0).ln() / (eps * eps)).ceil() as usize).max(10)
    }

    /// The gradient mechanism in use.
    pub fn mechanism(&self) -> GradientMechanism {
        self.mechanism
    }

    /// Trains on `rows`, consuming each user at most once, and returns the
    /// Polyak tail average: the mean of the iterates from the second half
    /// of training rather than the last iterate.
    ///
    /// With `γ_t = c/√t` schedules, averaging suppresses the random walk the
    /// perturbation noise induces; it is a post-processing of already-private
    /// gradients, so the privacy guarantee is unchanged. It matters most at
    /// reduced scale, where groups are small and per-iteration noise high.
    ///
    /// # Errors
    /// Rejects row sets smaller than one group.
    pub fn train(&self, data: &DesignMatrix, rows: &[usize], seed: u64) -> Result<Vec<f64>> {
        if rows.len() < self.group_size {
            return Err(LdpError::InvalidParameter {
                name: "rows",
                message: format!(
                    "need at least one group of {} users, got {}",
                    self.group_size,
                    rows.len()
                ),
            });
        }
        let d = data.dim();
        let mut rng = seeded_rng(seed);
        // Disjoint groups over a shuffled user order: at most one iteration
        // per user (see the module docs for the privacy argument).
        let mut order = rows.to_vec();
        order.shuffle(&mut rng);
        let iterations = order.len() / self.group_size;

        let encoder = ClientEncoder::new(
            self.mechanism.protocol(),
            self.epsilon,
            vec![AttrSpec::Numeric; d],
        )?;
        let mut scratch = encoder.scratch();
        let mut beta = vec![0.0; d];
        let mut grad = vec![0.0; d];
        let mut tuple = vec![AttrValue::Numeric(0.0); d];
        let tail_start = iterations / 2;
        let mut tail_sum = vec![0.0; d];
        let mut tail_count = 0usize;
        for t in 0..iterations {
            let gamma = self.config.learning_rate / ((t + 1) as f64).sqrt();
            let group = &order[t * self.group_size..(t + 1) * self.group_size];
            let mut aggregator = encoder.aggregator()?;
            for &i in group {
                // User side: regularized gradient, clipped, perturbed.
                self.config
                    .loss
                    .gradient_into(&beta, data.row(i), data.target(i), &mut grad);
                for (g, b) in grad.iter_mut().zip(&beta) {
                    *g += self.config.lambda * b;
                }
                clip_unit(&mut grad);
                for (v, &g) in tuple.iter_mut().zip(&grad) {
                    *v = AttrValue::Numeric(g);
                }
                aggregator.absorb_with(&encoder, &tuple, &mut rng, &mut scratch)?;
            }
            // Aggregator side: the group's averaged noisy gradient, step.
            for (b, (_, g)) in beta.iter_mut().zip(aggregator.snapshot()?.means) {
                *b -= gamma * g;
            }
            if t >= tail_start {
                for (a, b) in tail_sum.iter_mut().zip(&beta) {
                    *a += b;
                }
                tail_count += 1;
            }
        }
        // At least one group ran, so the tail holds at least one iterate.
        let inv = 1.0 / tail_count as f64;
        Ok(tail_sum.into_iter().map(|x| x * inv).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_data::census::generate_br;
    use ldp_data::TargetKind;

    fn small_design(n: usize) -> DesignMatrix {
        let ds = generate_br(n, 77).unwrap();
        DesignMatrix::encode(&ds, "total_income", TargetKind::BinaryAtMean).unwrap()
    }

    fn misclassification(beta: &[f64], data: &DesignMatrix, rows: &[usize]) -> f64 {
        let wrong = rows
            .iter()
            .filter(|&&i| LossKind::classify(beta, data.row(i)) != data.target(i))
            .count();
        wrong as f64 / rows.len() as f64
    }

    #[test]
    fn nonprivate_logistic_learns() {
        let data = small_design(8_000);
        let rows: Vec<usize> = (0..6_000).collect();
        let test: Vec<usize> = (6_000..8_000).collect();
        let trainer =
            NonPrivateSgd::new(SgdConfig::paper_defaults(LossKind::Logistic), 3, 32).unwrap();
        let beta = trainer.train(&data, &rows, 1).unwrap();
        let err = misclassification(&beta, &data, &test);
        // Majority class alone is ~0.4; learning must do clearly better.
        assert!(err < 0.32, "misclassification {err}");
    }

    #[test]
    fn ldp_sgd_learns_with_generous_budget() {
        let data = small_design(30_000);
        let rows: Vec<usize> = (0..24_000).collect();
        let test: Vec<usize> = (24_000..30_000).collect();
        let trainer = LdpSgd::new(
            SgdConfig::paper_defaults(LossKind::Logistic),
            Epsilon::new(4.0).unwrap(),
            GradientMechanism::Sampling(NumericKind::Hybrid),
            400,
        )
        .unwrap();
        let beta = trainer.train(&data, &rows, 2).unwrap();
        let err = misclassification(&beta, &data, &test);
        assert!(err < 0.45, "LDP misclassification {err}");
    }

    #[test]
    fn ldp_noise_hurts_relative_to_nonprivate() {
        let data = small_design(20_000);
        let rows: Vec<usize> = (0..16_000).collect();
        let test: Vec<usize> = (16_000..20_000).collect();
        let nonpriv = NonPrivateSgd::new(SgdConfig::paper_defaults(LossKind::Logistic), 3, 32)
            .unwrap()
            .train(&data, &rows, 3)
            .unwrap();
        let ldp = LdpSgd::new(
            SgdConfig::paper_defaults(LossKind::Logistic),
            Epsilon::new(0.5).unwrap(),
            GradientMechanism::Sampling(NumericKind::Piecewise),
            400,
        )
        .unwrap()
        .train(&data, &rows, 3)
        .unwrap();
        let e_non = misclassification(&nonpriv, &data, &test);
        let e_ldp = misclassification(&ldp, &data, &test);
        assert!(
            e_non <= e_ldp + 0.02,
            "non-private {e_non} vs LDP(0.5) {e_ldp}"
        );
    }

    #[test]
    fn svm_and_linear_losses_run() {
        let ds = generate_br(5_000, 78).unwrap();
        let reg = DesignMatrix::encode(&ds, "total_income", TargetKind::Regression).unwrap();
        let rows: Vec<usize> = (0..5_000).collect();
        for (loss, data) in [
            (LossKind::SvmHinge, &small_design(5_000)),
            (LossKind::LinearRegression, &reg),
        ] {
            let trainer = LdpSgd::new(
                SgdConfig::paper_defaults(loss),
                Epsilon::new(2.0).unwrap(),
                GradientMechanism::DuchiMultidim,
                250,
            )
            .unwrap();
            let beta = trainer.train(data, &rows, 4).unwrap();
            assert_eq!(beta.len(), data.dim());
            assert!(beta.iter().all(|b| b.is_finite()));
        }
    }

    #[test]
    fn each_user_participates_at_most_once() {
        // With n = 1000 and |G| = 300, exactly 3 groups run and 100 users
        // are never consumed. We can't observe participation directly, but
        // the iteration count bound implies it: T·|G| ≤ n.
        let data = small_design(1_000);
        let rows: Vec<usize> = (0..1_000).collect();
        let trainer = LdpSgd::new(
            SgdConfig::paper_defaults(LossKind::Logistic),
            Epsilon::new(1.0).unwrap(),
            GradientMechanism::LaplaceSplit,
            300,
        )
        .unwrap();
        // Smoke: runs with T = 3 iterations.
        let beta = trainer.train(&data, &rows, 5).unwrap();
        assert!(beta.iter().all(|b| b.is_finite()));
        // Too few users for a single group fails loudly.
        assert!(trainer.train(&data, &rows[..200], 5).is_err());
    }

    #[test]
    fn config_validation() {
        let mut cfg = SgdConfig::paper_defaults(LossKind::Logistic);
        cfg.lambda = -1.0;
        assert!(NonPrivateSgd::new(cfg, 1, 1).is_err());
        let mut cfg2 = SgdConfig::paper_defaults(LossKind::Logistic);
        cfg2.learning_rate = 0.0;
        assert!(LdpSgd::new(
            cfg2,
            Epsilon::new(1.0).unwrap(),
            GradientMechanism::LaplaceSplit,
            10
        )
        .is_err());
        assert!(LdpSgd::new(
            SgdConfig::paper_defaults(LossKind::Logistic),
            Epsilon::new(1.0).unwrap(),
            GradientMechanism::LaplaceSplit,
            0
        )
        .is_err());
        assert!(NonPrivateSgd::new(SgdConfig::paper_defaults(LossKind::Logistic), 0, 5).is_err());
    }

    #[test]
    fn suggested_group_size_scales() {
        let e1 = Epsilon::new(1.0).unwrap();
        let e4 = Epsilon::new(4.0).unwrap();
        let g_small = LdpSgd::suggested_group_size(90, e4);
        let g_large = LdpSgd::suggested_group_size(90, e1);
        assert!(g_large > g_small);
        assert!(LdpSgd::suggested_group_size(2, e4) >= 10);
    }

    #[test]
    fn mechanism_labels_and_budget_split() {
        assert_eq!(
            GradientMechanism::Sampling(NumericKind::Piecewise).label(),
            "PM"
        );
        assert_eq!(GradientMechanism::DuchiMultidim.label(), "Duchi");
        assert_eq!(GradientMechanism::LaplaceSplit.label(), "Laplace");
        // The encoder each mechanism builds on a d-coordinate gradient.
        let (eps, d) = (Epsilon::new(6.0).unwrap(), 90);
        let encoder = |mech: GradientMechanism| {
            ClientEncoder::new(mech.protocol(), eps, vec![AttrSpec::Numeric; d]).unwrap()
        };
        // Algorithm 4: ε/k on each of Equation 12's k = ⌊6/2.5⌋ = 2.
        let k = ldp_core::multidim::optimal_k(eps, d);
        assert_eq!(k, 2);
        for kind in [NumericKind::Piecewise, NumericKind::Hybrid] {
            let sampling = encoder(GradientMechanism::Sampling(kind));
            assert_eq!(sampling.sampled_k(), k);
            assert_eq!(sampling.per_attribute_epsilon(), eps.split(k).unwrap());
            assert_eq!(sampling.numeric_mechanism().unwrap().name(), kind.name());
        }
        // The Laplace baseline: ε/d on every coordinate.
        let laplace = encoder(GradientMechanism::LaplaceSplit);
        assert_eq!(laplace.per_attribute_epsilon(), eps.split(d).unwrap());
        assert_eq!(laplace.numeric_mechanism().unwrap().name(), "Laplace");
        // Duchi et al.: one joint report, no per-coordinate mechanism.
        assert!(encoder(GradientMechanism::DuchiMultidim)
            .numeric_mechanism()
            .is_none());
    }
}
