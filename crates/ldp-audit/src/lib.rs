//! # ldp-audit — empirical privacy auditing for the LDP pipeline
//!
//! The rest of the workspace *claims* ε-LDP in closed form; this crate
//! tries to **break** that claim and reports how far it got. For every
//! grid cell (protocol × ε × d × k) it runs ~10⁶ distinguishing-attack
//! trials: an attacker who knows the mechanism picks two adversarial
//! inputs ([`ldp_core::audit::worst_case_pair`]), sees **one** report
//! drawn through the *real* client path
//! ([`ldp_analytics::ClientEncoder::encode_into`], or the GRR
//! direct-report fast path [`ldp_core::categorical::Grr::sample`]), and
//! guesses which input produced it with an exact likelihood-ratio test
//! ([`Attacker`]). Clopper-Pearson bounds on the attacker's true/false
//! positive rates ([`confidence`]) then certify, with confidence
//! `≥ 1 − 2α`, a **lower bound on the privacy loss actually spent**
//! ([`estimate_eps`]) — `eps_emp_upper` is the stronger of the two
//! certified attack directions, and CI hard-fails any cell where it
//! exceeds the theoretical ε.
//!
//! A sound implementation can only *under*-shoot ε (the attack may be
//! weak, the bound is conservative); an unsound one — a budget
//! mis-split, a wrong sampling scale, a biased coin — shows up as a
//! certificate *above* ε. The 1-D oracle cells are tight (the optimal
//! attack meets the `e^ε` bound with equality), so they also serve as
//! power checks: a certified value far below ε there would mean the
//! harness itself lost its teeth.
//!
//! Trials follow the workspace determinism contract —
//! [`ldp_analytics::block_partition`] / [`ldp_analytics::block_rng`],
//! scheduled by [`ldp_analytics::run_blocks`] — so `BENCH_audit.json` is
//! bit-identical at any `--workers` count.
//!
//! ```
//! use ldp_audit::{audit_grr_direct_cell, estimate_eps, AuditConfig};
//! use ldp_core::Epsilon;
//!
//! let cfg = AuditConfig { trials: 20_000, ..AuditConfig::default() };
//! let counts = audit_grr_direct_cell(Epsilon::new(1.0)?, 2, &cfg)?;
//! let est = estimate_eps(&counts, cfg.alpha);
//! assert!(est.eps_emp_upper <= 1.0); // the privacy gate
//! # Ok::<(), ldp_core::LdpError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attack;
pub mod auditor;
pub mod confidence;

pub use attack::Attacker;
pub use auditor::{
    audit_encode_cell, audit_grid, audit_grr_direct_cell, default_grid, estimate_eps, ArmResult,
    AuditConfig, AuditReport, CellResult, CellSpec, EpsEstimate, TrialCounts,
};
pub use confidence::{clopper_pearson_lower, clopper_pearson_upper, incomplete_beta};
