//! # ldp-bench — the experiment harness
//!
//! One binary per table/figure of Wang et al. (ICDE 2019), each printing
//! the same rows/series the paper plots, plus ablation benches and the
//! throughput, audit and determinism binaries. `run_all` executes
//! everything and is what EXPERIMENTS.md records.
//!
//! Common flags (see [`cli::Args`]): `--users`, `--runs`, `--threads`,
//! `--seed`, `--folds`, `--repeats`, `--ml-users`, `--quick`,
//! `--full-scale` (paper-scale: n = 4M, 100 runs, 10-fold × 5 CV).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod figures;
pub mod table;
pub mod throughput;

pub use cli::Args;

/// Prints a report with a separating banner (shared by the binaries).
pub fn emit(name: &str, report: &str) {
    println!("==== {name} ====");
    println!("{report}");
}

/// Writes `contents` to `path` via a sibling temp file + rename, so readers
/// only ever observe the old artifact or the complete new one (shared by
/// the `throughput` and `audit` binaries' `--out` flags).
///
/// Delegates to [`ldp_core::fsio::write_atomic`], which additionally
/// `fsync`s the temp file before the rename and the parent directory after
/// it — the same crash-durable sequence the checkpoint writer in
/// `ldp_analytics::durable` uses, so a power cut right after a bench run
/// cannot leave a torn or unlinked artifact.
///
/// # Errors
/// I/O failures creating the temp file, syncing, or renaming it into place.
pub fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    ldp_core::fsio::write_atomic(std::path::Path::new(path), contents.as_bytes())
}
