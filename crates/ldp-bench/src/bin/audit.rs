//! Empirical privacy audit: distinguishing-attack trials over the audit
//! grid (protocol × ε × d × k), certifying a Clopper-Pearson lower bound
//! on the privacy loss each cell actually spends. CI gates on
//! `eps_emp_upper ≤ ε_theoretical` via `ci/compare_bench.py`.
//!
//! Flags (see [`ldp_bench::cli::Args`]): `--quick` drops to 50k trials per
//! arm (CI smoke scale — wider Clopper-Pearson bounds, same gate), `--seed`
//! and `--threads` set the determinism inputs, `--workers N[,M...]` pins
//! the thread count (the grid runs at the list's maximum after an
//! in-process sweep proves every count tallies identically), and
//! `--out FILE` writes `BENCH_audit.json` atomically (temp file + rename).

use ldp_audit::{audit_encode_cell, audit_grid, default_grid, AuditConfig, CellSpec};
use ldp_bench::{emit, write_atomic, Args};
use ldp_core::{NumericKind, OracleKind};

/// Trials for the in-process worker-sweep identity check: small enough to
/// be free, large enough that a scheduling bug (lost block, double-counted
/// range) cannot hide in a degenerate partition.
const SWEEP_TRIALS: usize = 20_000;

/// Re-runs one representative cell at every worker count in `sweep` and
/// panics unless all tallies are bit-identical — the audit analogue of the
/// `determinism` binary's pipeline check.
fn assert_worker_identity(cfg: &AuditConfig, sweep: &[usize]) {
    let encoder = CellSpec {
        label: "Sampling(HM+OUE)",
        protocol: ldp_analytics::Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        },
        eps: 4.0,
        d: 8,
        k: 16,
        direct_arm: false,
    }
    .encoder()
    .expect("valid cell");
    let sweep_cfg = |workers: usize| AuditConfig {
        trials: SWEEP_TRIALS,
        workers: Some(workers),
        ..*cfg
    };
    let baseline =
        audit_encode_cell(&encoder, &sweep_cfg(sweep[0])).expect("sweep cell audits cleanly");
    for &workers in &sweep[1..] {
        let counts =
            audit_encode_cell(&encoder, &sweep_cfg(workers)).expect("sweep cell audits cleanly");
        assert_eq!(
            counts, baseline,
            "worker count {workers} changed audit tallies vs {}",
            sweep[0]
        );
    }
    println!(
        "worker sweep {:?}: {} trials each, tallies bit-identical",
        sweep, SWEEP_TRIALS
    );
}

fn main() {
    let args = Args::parse();
    let sweep = args.worker_sweep();
    let cfg = AuditConfig {
        trials: if args.quick { 50_000 } else { 1_000_000 },
        seed: args.seed,
        shards: args.threads,
        workers: Some(sweep.iter().copied().max().expect("sweep is non-empty")),
        ..AuditConfig::default()
    };
    assert_worker_identity(&cfg, &sweep);
    let mode = if args.quick { "quick" } else { "default" };
    let report = audit_grid(&default_grid(), &cfg, mode).expect("audit grid runs cleanly");
    emit("audit", &report.render());
    if let Some(path) = &args.out {
        write_atomic(path, &report.to_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}
