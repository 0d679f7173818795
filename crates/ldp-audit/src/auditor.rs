//! The distinguishing-attack trial engine and audit grid.
//!
//! One *trial*: draw a fresh report from the **real client path** for one
//! of the two adversarial inputs (alternating by trial parity, so both
//! sides get exactly half the trials of every block), let the
//! [`Attacker`] guess which, and record whether the guess was right.
//! Millions of trials later, Clopper-Pearson bounds on the attacker's
//! true-positive and false-positive rates become a *certified* lower bound
//! on the privacy loss the implementation actually spends — see
//! [`estimate_eps`].
//!
//! Trials are scheduled by the same code as every estimate in this
//! workspace, [`run_blocks`]: [`ldp_analytics::block_partition`] fixes the
//! block boundaries as a pure function of `(trials, shards)`,
//! [`block_rng`] derives each block's rng from `(seed, block)` alone, and a
//! work-stealing cursor hands blocks to workers. Per-trial win/loss counts
//! are integers summed over disjoint blocks, so the audit artifact is
//! bit-identical at any worker count.

use crate::attack::Attacker;
use crate::confidence::{clopper_pearson_lower, clopper_pearson_upper};
use ldp_analytics::{block_rng, run_blocks, ClientEncoder, Protocol, DEFAULT_SHARDS};
use ldp_core::categorical::Grr;
use ldp_core::multidim::AttrSpec;
use ldp_core::rng::RngBlock;
use ldp_core::{Epsilon, LdpError, NumericKind, OracleKind, Result};

/// Tuning knobs for one audit run, shared by every cell of a grid.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Distinguishing trials per cell and arm (split evenly between the
    /// two inputs by trial parity).
    pub trials: usize,
    /// One-sided error budget of *each* Clopper-Pearson bound; a cell's
    /// certificate holds with confidence ≥ 1 − 2α.
    pub alpha: f64,
    /// Root seed; block `b` draws from `block_rng(seed, b)`.
    pub seed: u64,
    /// Number of scheduling blocks (the determinism unit, not the
    /// parallelism degree).
    pub shards: usize,
    /// Worker threads (`None` = available parallelism). Never affects
    /// results, only wall-clock.
    pub workers: Option<usize>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            trials: 1_000_000,
            alpha: 1e-3,
            seed: 20_190_408,
            shards: DEFAULT_SHARDS,
            workers: None,
        }
    }
}

/// Win/loss tallies of one audited (cell, arm), split by true input.
///
/// "Win" means the attacker guessed the true input correctly. Trial-count
/// conservation (`trials_v1 + trials_v2 == trials`, wins ≤ trials per
/// side) is structural: every trial increments exactly one side's trial
/// count and at most that side's win count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrialCounts {
    /// Trials whose true input was `v1`.
    pub trials_v1: u64,
    /// Of those, trials the attacker correctly guessed `v1`.
    pub wins_v1: u64,
    /// Trials whose true input was `v2`.
    pub trials_v2: u64,
    /// Of those, trials the attacker correctly guessed `v2`.
    pub wins_v2: u64,
}

impl TrialCounts {
    /// Records one trial: `is_v1` is the true input, `guessed_v1` the
    /// attacker's call.
    #[inline]
    pub fn record(&mut self, is_v1: bool, guessed_v1: bool) {
        if is_v1 {
            self.trials_v1 += 1;
            self.wins_v1 += u64::from(guessed_v1);
        } else {
            self.trials_v2 += 1;
            self.wins_v2 += u64::from(!guessed_v1);
        }
    }

    /// Merges another block's tallies (commutative and associative, which
    /// is why worker count cannot change the artifact).
    pub fn merge(&mut self, other: &TrialCounts) {
        self.trials_v1 += other.trials_v1;
        self.wins_v1 += other.wins_v1;
        self.trials_v2 += other.trials_v2;
        self.wins_v2 += other.wins_v2;
    }

    /// Total trials on both sides.
    pub fn trials(&self) -> u64 {
        self.trials_v1 + self.trials_v2
    }

    /// Total correct guesses.
    pub fn wins(&self) -> u64 {
        self.wins_v1 + self.wins_v2
    }

    /// Total incorrect guesses; `wins() + losses() == trials()` always.
    pub fn losses(&self) -> u64 {
        self.trials() - self.wins()
    }
}

/// A certified empirical-ε estimate for one (cell, arm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsEstimate {
    /// The weaker of the two certified attack directions.
    pub eps_emp_lower: f64,
    /// The stronger certified claim: with confidence ≥ 1 − 2α the
    /// mechanism's true privacy loss is **at least** this. The CI gate
    /// checks `eps_emp_upper ≤ ε_theoretical`.
    pub eps_emp_upper: f64,
    /// Raw attack advantage `TPR − FPR` (Youden's J), uncertified.
    pub advantage: f64,
}

/// Turns trial tallies into certified privacy-loss lower bounds.
///
/// Let `S` be the attacker's acceptance region ("guess v1"). With
/// one-sided Clopper-Pearson bounds `L1 ≤ P[S|v1]` and `U0 ≥ P[S|v2]`
/// (each failing with probability ≤ α), ε-LDP's two hypothesis-testing
/// inequalities
///
/// * `P[S|v1] ≤ e^ε · P[S|v2]`  ⇒  `ε ≥ ln(L1 / U0)`
/// * `1 − P[S|v2] ≤ e^ε · (1 − P[S|v1])`  ⇒  `ε ≥ ln((1−U0)/(1−L1))`
///
/// each yield a certified lower bound on the true ε (clamped at 0; a weak
/// attack certifies nothing, never a negative loss). Both directions are
/// *simultaneously* implied by the same two CP events, so reporting their
/// min and max keeps the per-cell confidence at ≥ 1 − 2α. Fewer trials
/// widen the CP bounds and only ever *shrink* the certified values —
/// which is what lets CI re-audit with a reduced grid and still apply the
/// same `eps_emp_upper ≤ ε_theoretical` gate.
///
/// # Panics
/// Panics if either side has zero trials (audit at least 2 trials) or
/// `alpha ∉ (0, 1)`.
pub fn estimate_eps(counts: &TrialCounts, alpha: f64) -> EpsEstimate {
    let false_positives = counts.trials_v2 - counts.wins_v2;
    let l1 = clopper_pearson_lower(counts.wins_v1, counts.trials_v1, alpha);
    let u0 = clopper_pearson_upper(false_positives, counts.trials_v2, alpha);
    let dir1 = (l1.ln() - u0.ln()).max(0.0);
    let dir2 = ((1.0 - u0).ln() - (1.0 - l1).ln()).max(0.0);
    let tpr = counts.wins_v1 as f64 / counts.trials_v1 as f64;
    let fpr = false_positives as f64 / counts.trials_v2 as f64;
    EpsEstimate {
        eps_emp_lower: dir1.min(dir2),
        eps_emp_upper: dir1.max(dir2),
        advantage: tpr - fpr,
    }
}

/// Runs `trials` distinguishing trials through the workspace's block
/// scheduler ([`run_blocks`]) and merges the per-block tallies in block
/// order.
///
/// `run_block(block, range)` must tally exactly the trials of `range`,
/// deriving all randomness from `block_rng(seed, block)`.
fn run_trials<F>(cfg: &AuditConfig, run_block: F) -> Result<TrialCounts>
where
    F: Fn(usize, std::ops::Range<usize>) -> Result<TrialCounts> + Sync,
{
    let mut total = TrialCounts::default();
    for counts in run_blocks(cfg.trials, cfg.shards, cfg.workers, run_block) {
        total.merge(&counts?);
    }
    Ok(total)
}

/// Audits one cell through the real client encoding path
/// ([`ClientEncoder::encode_into`]): the exact code a deployed client runs,
/// fast paths included.
///
/// # Errors
/// Attacker construction ([`Attacker::new`]) or encoding failures.
pub fn audit_encode_cell(encoder: &ClientEncoder, cfg: &AuditConfig) -> Result<TrialCounts> {
    let attacker = Attacker::new(encoder)?;
    let (v1, v2) = attacker.pair();
    let (v1, v2) = (v1.to_vec(), v2.to_vec());
    run_trials(cfg, |block, range| {
        let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(cfg.seed, block));
        let mut report = encoder.empty_report();
        let mut scratch = encoder.scratch();
        let mut counts = TrialCounts::default();
        for trial in range {
            let is_v1 = trial % 2 == 0;
            let input = if is_v1 { &v1 } else { &v2 };
            encoder.encode_into(input, &mut rng, &mut report, &mut scratch)?;
            counts.record(is_v1, attacker.guess_is_v1(&report)?);
        }
        Ok(counts)
    })
}

/// Audits the GRR direct-report kernel ([`Grr::sample`]) at full budget on
/// a 1-D categorical cell — the ordinal Algorithm 4's encoder writes
/// straight into a report entry.
///
/// The attacker's Neyman-Pearson rule specializes to "guess `v1` iff the
/// reported category *is* `v1`'s category" (any other report has
/// likelihood ratio ≤ 1), which achieves GRR's `e^ε` bound with equality.
///
/// # Errors
/// As [`Grr::new`].
pub fn audit_grr_direct_cell(epsilon: Epsilon, k: u32, cfg: &AuditConfig) -> Result<TrialCounts> {
    let grr = Grr::new(epsilon, k)?;
    let (c1, c2) = (0u32, k - 1);
    run_trials(cfg, |block, range| {
        let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(cfg.seed, block));
        let mut counts = TrialCounts::default();
        for trial in range {
            let is_v1 = trial % 2 == 0;
            let reported = grr.sample(if is_v1 { c1 } else { c2 }, &mut rng)?;
            counts.record(is_v1, reported == c1);
        }
        Ok(counts)
    })
}

/// One audited grid cell: a protocol at a budget over a schema.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Stable display label, matching the throughput bench's conventions
    /// (`Sampling(HM+OUE)`, `Composition(Laplace+GRR)`, `Oracle(GRR)`, …).
    pub label: &'static str,
    /// The protocol under audit.
    pub protocol: Protocol,
    /// Total privacy budget — also the theoretical ε the gate compares
    /// against.
    pub eps: f64,
    /// Schema width.
    pub d: usize,
    /// Categorical domain size (of every categorical attribute).
    pub k: u32,
    /// Whether to additionally audit the GRR direct-report fast path
    /// (only meaningful for 1-D GRR cells).
    pub direct_arm: bool,
}

impl CellSpec {
    /// The audited schema: attributes alternating numeric / categorical
    /// (numeric first) for multi-attribute cells, a single categorical
    /// attribute for the 1-D oracle cells.
    pub fn specs(&self) -> Vec<AttrSpec> {
        if self.d == 1 {
            return vec![AttrSpec::Categorical { k: self.k }];
        }
        (0..self.d)
            .map(|i| {
                if i % 2 == 0 {
                    AttrSpec::Numeric
                } else {
                    AttrSpec::Categorical { k: self.k }
                }
            })
            .collect()
    }

    /// The client encoder of this cell — the one place its budget split
    /// (`ε/k` and the `d/k` scale, or `ε/d`) is derived.
    ///
    /// # Errors
    /// An invalid budget or schema.
    pub fn encoder(&self) -> Result<ClientEncoder> {
        ClientEncoder::new(self.protocol, Epsilon::new(self.eps)?, self.specs())
    }

    /// Algorithm 4's sampled-attribute count for this cell (`d` for the
    /// composition baseline, which reports every attribute), read off the
    /// cell's encoder.
    ///
    /// # Errors
    /// As [`CellSpec::encoder`].
    pub fn sampled_k(&self) -> Result<usize> {
        Ok(self.encoder()?.sampled_k())
    }
}

/// The default audit grid: the paper's protocol (Sampling over HM + OUE)
/// across the ε range of §VI, the naive composition baseline, and the 1-D
/// frequency oracles — including an ε = 6 sampling cell where Equation
/// 12's `k = 2` exercises the multi-attribute `ε/k` split and `d/k`
/// scaling end to end.
pub fn default_grid() -> Vec<CellSpec> {
    let sampling = Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    };
    let composition = Protocol::BestEffort {
        numeric: ldp_analytics::BestEffortNumeric::PerAttribute(NumericKind::Laplace),
        oracle: OracleKind::Grr,
    };
    let oracle = |kind: OracleKind| Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: kind,
    };
    let mut grid = Vec::new();
    for eps in [1.0, 4.0, 6.0] {
        grid.push(CellSpec {
            label: "Sampling(HM+OUE)",
            protocol: sampling,
            eps,
            d: 8,
            k: 16,
            direct_arm: false,
        });
    }
    for (eps, d, k) in [(1.0, 4, 8), (4.0, 4, 8), (4.0, 8, 16)] {
        grid.push(CellSpec {
            label: "Composition(Laplace+GRR)",
            protocol: composition,
            eps,
            d,
            k,
            direct_arm: false,
        });
    }
    for (eps, k) in [(1.0, 2), (1.0, 16), (4.0, 16)] {
        grid.push(CellSpec {
            label: "Oracle(GRR)",
            protocol: oracle(OracleKind::Grr),
            eps,
            d: 1,
            k,
            direct_arm: true,
        });
    }
    for (eps, k) in [(1.0, 16), (4.0, 64)] {
        grid.push(CellSpec {
            label: "Oracle(OUE)",
            protocol: oracle(OracleKind::Oue),
            eps,
            d: 1,
            k,
            direct_arm: false,
        });
    }
    grid.push(CellSpec {
        label: "Oracle(SUE)",
        protocol: oracle(OracleKind::Sue),
        eps: 1.0,
        d: 1,
        k: 16,
        direct_arm: false,
    });
    grid
}

/// One arm's results within a cell.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// Arm name: `"encode"` (the real client path) or `"direct"` (the GRR
    /// fast path).
    pub arm: &'static str,
    /// Raw tallies.
    pub counts: TrialCounts,
    /// Certified estimate.
    pub estimate: EpsEstimate,
}

/// One audited cell with all its arms.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that was audited.
    pub spec: CellSpec,
    /// Algorithm 4's sampled-attribute count (`d` for composition).
    pub sampled_k: usize,
    /// Results per arm, `"encode"` first.
    pub arms: Vec<ArmResult>,
}

/// A complete audit-grid run: the payload of `BENCH_audit.json`.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Configuration the grid ran under.
    pub config: AuditConfig,
    /// `"default"` or `"quick"` — recorded so CI's reduced run is
    /// distinguishable from the committed artifact.
    pub mode: &'static str,
    /// Per-cell results in grid order.
    pub cells: Vec<CellResult>,
}

/// Audits every cell of `grid` under `cfg`.
///
/// # Errors
/// The first cell failure, if any (grid cells are all expected to audit
/// cleanly; a failure is a bug, not a data condition).
pub fn audit_grid(grid: &[CellSpec], cfg: &AuditConfig, mode: &'static str) -> Result<AuditReport> {
    if cfg.trials < 2 {
        return Err(LdpError::InvalidParameter {
            name: "trials",
            message: "auditing needs at least one trial per input".into(),
        });
    }
    let mut cells = Vec::with_capacity(grid.len());
    for spec in grid {
        let encoder = spec.encoder()?;
        let mut arms = Vec::new();
        let counts = audit_encode_cell(&encoder, cfg)?;
        arms.push(ArmResult {
            arm: "encode",
            counts,
            estimate: estimate_eps(&counts, cfg.alpha),
        });
        if spec.direct_arm {
            let counts = audit_grr_direct_cell(encoder.epsilon(), spec.k, cfg)?;
            arms.push(ArmResult {
                arm: "direct",
                counts,
                estimate: estimate_eps(&counts, cfg.alpha),
            });
        }
        cells.push(CellResult {
            spec: spec.clone(),
            sampled_k: encoder.sampled_k(),
            arms,
        });
    }
    Ok(AuditReport {
        config: *cfg,
        mode,
        cells,
    })
}

impl AuditReport {
    /// Renders a human-readable table: one row per (cell, arm) with the
    /// certified bounds next to the theoretical ε and a pass/fail gate
    /// column (`ok` iff `eps_emp_upper ≤ ε`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "audit: {} trials/arm, alpha={:?} (confidence ≥ {:.2}%), seed={}, mode={}\n",
            self.config.trials,
            self.config.alpha,
            100.0 * (1.0 - 2.0 * self.config.alpha),
            self.config.seed,
            self.mode
        ));
        out.push_str(&format!(
            "{:<26} {:>5} {:>3} {:>4} {:>6} {:>8} {:>9} {:>11} {:>11} {:>6}\n",
            "protocol",
            "eps",
            "d",
            "k",
            "samp_k",
            "arm",
            "advantage",
            "eps_emp_lo",
            "eps_emp_up",
            "gate"
        ));
        for cell in &self.cells {
            for arm in &cell.arms {
                let gate = if arm.estimate.eps_emp_upper <= cell.spec.eps {
                    "ok"
                } else {
                    "FAIL"
                };
                out.push_str(&format!(
                    "{:<26} {:>5} {:>3} {:>4} {:>6} {:>8} {:>9.4} {:>11.4} {:>11.4} {:>6}\n",
                    cell.spec.label,
                    cell.spec.eps,
                    cell.spec.d,
                    cell.spec.k,
                    cell.sampled_k,
                    arm.arm,
                    arm.estimate.advantage,
                    arm.estimate.eps_emp_lower,
                    arm.estimate.eps_emp_upper,
                    gate
                ));
            }
        }
        out
    }

    /// Renders the report as the `BENCH_audit.json` artifact — same shape
    /// conventions as `BENCH_throughput.json`: top-level run metadata, an
    /// `arms` list, and flat per-cell objects with `<arm>_<field>` keys.
    /// Hand-rolled (the workspace has no JSON serializer) and fully
    /// deterministic.
    pub fn to_json(&self) -> String {
        let mut arms_seen: Vec<&str> = Vec::new();
        for cell in &self.cells {
            for arm in &cell.arms {
                if !arms_seen.contains(&arm.arm) {
                    arms_seen.push(arm.arm);
                }
            }
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"audit\",\n");
        out.push_str("  \"unit\": \"certified empirical epsilon (distinguishing attack, Clopper-Pearson)\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        out.push_str(&format!("  \"trials\": {},\n", self.config.trials));
        out.push_str(&format!("  \"alpha\": {:?},\n", self.config.alpha));
        out.push_str(&format!("  \"shards\": {},\n", self.config.shards));
        out.push_str(&format!(
            "  \"arms\": [{}],\n",
            arms_seen
                .iter()
                .map(|a| format!("\"{a}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"protocol\": \"{}\", ", cell.spec.label));
            out.push_str(&format!("\"eps\": {:?}, ", cell.spec.eps));
            out.push_str(&format!("\"d\": {}, ", cell.spec.d));
            out.push_str(&format!("\"k\": {}, ", cell.spec.k));
            out.push_str(&format!("\"sampled_k\": {}, ", cell.sampled_k));
            out.push_str(&format!("\"eps_theory\": {:?}", cell.spec.eps));
            for arm in &cell.arms {
                let a = arm.arm;
                out.push_str(&format!(", \"{a}_trials\": {}", arm.counts.trials()));
                out.push_str(&format!(", \"{a}_wins_v1\": {}", arm.counts.wins_v1));
                out.push_str(&format!(", \"{a}_wins_v2\": {}", arm.counts.wins_v2));
                out.push_str(&format!(
                    ", \"{a}_advantage\": {:?}",
                    arm.estimate.advantage
                ));
                out.push_str(&format!(
                    ", \"{a}_eps_emp_lower\": {:?}",
                    arm.estimate.eps_emp_lower
                ));
                out.push_str(&format!(
                    ", \"{a}_eps_emp_upper\": {:?}",
                    arm.estimate.eps_emp_upper
                ));
            }
            out.push_str(if i + 1 == self.cells.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(trials: usize, workers: Option<usize>) -> AuditConfig {
        AuditConfig {
            trials,
            alpha: 1e-2,
            seed: 7,
            shards: 8,
            workers,
        }
    }

    #[test]
    fn counts_conserve_trials() {
        let cfg = small_cfg(10_001, Some(2));
        let eps = Epsilon::new(1.0).unwrap();
        let counts = audit_grr_direct_cell(eps, 4, &cfg).unwrap();
        assert_eq!(counts.trials(), 10_001);
        assert_eq!(counts.wins() + counts.losses(), counts.trials());
        // Parity split: ceil/floor halves.
        assert_eq!(counts.trials_v1, 5_001);
        assert_eq!(counts.trials_v2, 5_000);
    }

    #[test]
    fn worker_count_never_changes_tallies() {
        let eps = Epsilon::new(1.0).unwrap();
        let specs = vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 8 }];
        let protocol = Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        };
        let encoder = ClientEncoder::new(protocol, eps, specs).unwrap();
        let baseline = audit_encode_cell(&encoder, &small_cfg(20_000, Some(1))).unwrap();
        for workers in [2, 3, 8] {
            let counts = audit_encode_cell(&encoder, &small_cfg(20_000, Some(workers))).unwrap();
            assert_eq!(counts, baseline, "workers={workers}");
        }
    }

    #[test]
    fn tight_grr_cell_certifies_close_to_eps_but_never_above() {
        // Binary randomized response at ε = 1 is the canonical tight cell:
        // the optimal attack's acceptance region achieves the e^ε ratio
        // with equality, so with 200k trials the certificate should land
        // within ~0.1 of ε — and, by construction, never above it except
        // with probability ≤ 2α.
        let cfg = AuditConfig {
            trials: 200_000,
            ..AuditConfig::default()
        };
        let eps = Epsilon::new(1.0).unwrap();
        let counts = audit_grr_direct_cell(eps, 2, &cfg).unwrap();
        let est = estimate_eps(&counts, cfg.alpha);
        assert!(
            est.eps_emp_upper <= 1.0,
            "certificate above theory: {}",
            est.eps_emp_upper
        );
        assert!(
            est.eps_emp_upper >= 0.85,
            "tight cell certified only {}",
            est.eps_emp_upper
        );
        assert!(est.eps_emp_lower <= est.eps_emp_upper);
    }

    #[test]
    fn encode_and_direct_arms_agree_on_1d_grr() {
        // Two different code paths, same mechanism: certified values must
        // land close to each other (they are different random draws, so
        // not identical).
        let cfg = small_cfg(60_000, None);
        let eps = Epsilon::new(1.0).unwrap();
        let specs = vec![AttrSpec::Categorical { k: 16 }];
        let protocol = Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Grr,
        };
        let encoder = ClientEncoder::new(protocol, eps, specs).unwrap();
        let via_encode = estimate_eps(&audit_encode_cell(&encoder, &cfg).unwrap(), cfg.alpha);
        let via_direct = estimate_eps(&audit_grr_direct_cell(eps, 16, &cfg).unwrap(), cfg.alpha);
        assert!(
            (via_encode.advantage - via_direct.advantage).abs() < 0.02,
            "encode {} vs direct {}",
            via_encode.advantage,
            via_direct.advantage
        );
    }

    #[test]
    fn grid_cells_read_sampled_k_off_their_encoders() {
        // The ε = 6 sampling cell is the multi-attribute split (k = 2 of
        // d = 8); composition reports every attribute; 1-D cells one.
        for cell in default_grid() {
            let want = match (cell.label, cell.eps) {
                ("Sampling(HM+OUE)", 6.0) => 2,
                ("Sampling(HM+OUE)", _) => 1,
                ("Composition(Laplace+GRR)", _) => cell.d,
                _ => 1,
            };
            assert_eq!(
                cell.sampled_k().unwrap(),
                want,
                "{} eps={}",
                cell.label,
                cell.eps
            );
        }
    }

    #[test]
    fn estimate_is_zero_for_powerless_attacker() {
        // A coin-flip attacker (half wins each side) certifies nothing.
        let counts = TrialCounts {
            trials_v1: 10_000,
            wins_v1: 5_000,
            trials_v2: 10_000,
            wins_v2: 5_000,
        };
        let est = estimate_eps(&counts, 1e-2);
        assert_eq!(est.eps_emp_lower, 0.0);
        assert_eq!(est.eps_emp_upper, 0.0);
        assert_eq!(est.advantage, 0.0);
    }

    #[test]
    fn json_shape_has_gate_fields() {
        let cfg = small_cfg(2_000, None);
        let grid = vec![CellSpec {
            label: "Oracle(GRR)",
            protocol: Protocol::Sampling {
                numeric: NumericKind::Hybrid,
                oracle: OracleKind::Grr,
            },
            eps: 1.0,
            d: 1,
            k: 2,
            direct_arm: true,
        }];
        let report = audit_grid(&grid, &cfg, "quick").unwrap();
        let json = report.to_json();
        for needle in [
            "\"bench\": \"audit\"",
            "\"arms\": [\"encode\", \"direct\"]",
            "\"eps_theory\": 1.0",
            "\"encode_eps_emp_upper\"",
            "\"direct_eps_emp_upper\"",
            "\"sampled_k\": 1",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}
