//! # ldp — collecting and analyzing multidimensional data under local
//! differential privacy
//!
//! A Rust implementation of *Wang et al., "Collecting and Analyzing
//! Multidimensional Data with Local Differential Privacy", ICDE 2019*
//! (arXiv:1907.00782): the Piecewise Mechanism (PM), the Hybrid Mechanism
//! (HM), their multidimensional attribute-sampling extension (Algorithm 4),
//! every baseline the paper compares against, and the LDP-SGD case study.
//!
//! This crate is a facade over the workspace:
//!
//! * [`core`] ([`ldp_core`]) — mechanisms and theory,
//! * [`data`] ([`ldp_data`]) — datasets and workload generators,
//! * [`analytics`] ([`ldp_analytics`]) — aggregator-side estimation,
//! * [`query`] ([`ldp_query`]) — HDG-style multi-dimensional range queries,
//! * [`ml`] ([`ldp_ml`]) — empirical risk minimization under LDP.
//!
//! ## Quick start: estimate a mean under ε-LDP
//!
//! ```
//! use ldp::core::{numeric::Hybrid, Epsilon, rng::seeded_rng};
//!
//! let eps = Epsilon::new(1.0)?;
//! let hm = Hybrid::new(eps);
//! let mut rng = seeded_rng(42);
//!
//! // 10 000 users each hold a value in [-1, 1] and submit a noisy report.
//! let true_values: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64 / 100.0).collect();
//! let sum: f64 = true_values
//!     .iter()
//!     .map(|&t| hm.perturb(t, &mut rng).unwrap())
//!     .sum();
//! let estimate = sum / true_values.len() as f64;
//! let truth = true_values.iter().sum::<f64>() / true_values.len() as f64;
//! assert!((estimate - truth).abs() < 0.1);
//! # Ok::<(), ldp::core::LdpError>(())
//! ```
//!
//! ## Multidimensional collection (Algorithm 4)
//!
//! ```
//! use ldp::analytics::{Collector, Protocol, numeric_mse};
//! use ldp::core::{Epsilon, NumericKind, OracleKind};
//! use ldp::data::synthetic::{gaussian, numeric_dataset};
//!
//! let dataset = numeric_dataset(20_000, 8, gaussian(0.5), 7)?;
//! let collector = Collector::new(
//!     Protocol::Sampling { numeric: NumericKind::Hybrid, oracle: OracleKind::Oue },
//!     Epsilon::new(2.0)?,
//! );
//! let result = collector.run(&dataset, 1)?;
//! assert!(numeric_mse(&result, &dataset)? < 0.05);
//! # Ok::<(), ldp::core::LdpError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ldp_analytics as analytics;
pub use ldp_core as core;
pub use ldp_data as data;
pub use ldp_ml as ml;
pub use ldp_query as query;
