//! Crash recovery: checkpoint install + ordered log replay, with the torn
//! tail truncated and every already-checkpointed record deduplicated
//! through the budget ledger.
//!
//! Recovery redoes no ledger work: the checkpoint's hash runs are kept
//! sorted and searched (see [`crate::BudgetLedger::decode_state`]), each
//! record probes the ledger once, on the service's one `Submit` path, and
//! at an epoch's first replayed admit the ledger reserves room for the
//! epoch's records still to come, so its live set never rehashes. An
//! epoch whose records all fail to apply gets no set.

use super::checkpoint::{Checkpoint, CHECKPOINT_FILE};
use super::wal::{self, WalHeader, WAL_FILE};
use super::{disk_err, DurableConfig};
use crate::service::{Admission, ReportService};
use ldp_core::{LdpError, Result};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::path::Path;

/// What one [`Recovery::replay`] reconstructed, in numbers. The
/// conservation invariant the crash suite gates on is
/// `admitted == checkpointed + wal_replayed`: every admit visible in the
/// recovered service came from exactly one of the two sources.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A checkpoint file existed and was installed.
    pub had_checkpoint: bool,
    /// A log file existed and was scanned.
    pub had_wal: bool,
    /// Admits restored from the checkpoint.
    pub checkpointed: u64,
    /// Submit records scanned from the log.
    pub wal_records: u64,
    /// Log records applied into the recovered service.
    pub wal_replayed: u64,
    /// Log records skipped because the checkpoint already covered them
    /// (a crash landed between the checkpoint commit and the log
    /// rotation): their user's budget for the epoch was already spent.
    /// Skipping counts no rejection, so recovered snapshots stay
    /// bit-identical to the clean run's. A covered record that fails to
    /// apply is skipped too, not rejected.
    pub wal_skipped: u64,
    /// Log records that failed to apply (admitted-only logging makes this
    /// zero in any uncorrupted log; nonzero is an integrity alarm).
    pub wal_rejected: u64,
    /// Torn-tail bytes truncated off the log.
    pub truncated_bytes: u64,
}

impl RecoveryReport {
    /// Total admits the recovered service accounts for; by conservation
    /// this must equal the recovered ledger's own admit total.
    pub fn recovered_admits(&self) -> u64 {
        self.checkpointed + self.wal_replayed
    }
}

/// Reopens a durable directory into a live service.
#[derive(Debug)]
pub struct Recovery;

impl Recovery {
    /// Rebuilds a [`ReportService`] from `dir`'s checkpoint and log.
    ///
    /// Order matters: the checkpoint installs first (it is strictly newer
    /// than the records the rotation it belongs to compacted away), then
    /// the log replays on top, oldest record first. The whole log is
    /// scanned before any record applies, so damage anywhere fails the
    /// replay before it changes the service. Each record's report is
    /// borrowed from the log image and goes through the service's
    /// production `Submit` path, decoded into one recycled report, whose
    /// one ledger probe admits it or finds its user's budget spent. The
    /// log's header must match the checkpoint's binding; records the
    /// checkpoint already covers are skipped without counting. A torn tail
    /// — no longer than one record, see [`wal::scan`] — is truncated off
    /// the file on disk so subsequent appends resume from the last valid
    /// record.
    ///
    /// Returns the recovered service (unconfigured when neither file has
    /// a session yet), the binding header if one was found, and the
    /// replay accounting.
    ///
    /// # Errors
    /// [`LdpError::UnsupportedVersion`] when either file was written in
    /// another format version, before anything is truncated;
    /// [`LdpError::WalCorrupt`] for mid-log or checkpoint corruption and
    /// for a log/checkpoint binding mismatch; [`LdpError::InvalidParameter`]
    /// when the on-disk ledger key differs from the configured one; I/O
    /// failures reading or truncating.
    pub fn replay(
        dir: &Path,
        config: &DurableConfig,
    ) -> Result<(ReportService, Option<WalHeader>, RecoveryReport)> {
        let mut report = RecoveryReport::default();
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        let wal_path = dir.join(WAL_FILE);

        let (mut service, mut header) = if checkpoint_path.exists() {
            let bytes =
                std::fs::read(&checkpoint_path).map_err(|e| disk_err("checkpoint_read", &e))?;
            let checkpoint = Checkpoint::decode(&bytes)?;
            check_key(checkpoint.header.ledger_key, config)?;
            let binding = checkpoint.header.clone();
            let (service, checkpointed) = checkpoint.install()?;
            report.had_checkpoint = true;
            report.checkpointed = checkpointed;
            (service, Some(binding))
        } else {
            (ReportService::new(config.service.clone()), None)
        };

        if wal_path.exists() {
            report.had_wal = true;
            let image = std::fs::read(&wal_path).map_err(|e| disk_err("wal_read", &e))?;
            let scan = wal::scan(&image)?;
            report.truncated_bytes = scan.truncated_bytes;
            if let Some(wal_header) = scan.header {
                match &header {
                    Some(binding) if !binding.matches(&wal_header) => {
                        return Err(LdpError::WalCorrupt {
                            offset: 0,
                            message: "log header does not match the checkpoint binding".into(),
                        });
                    }
                    Some(_) => {}
                    None => {
                        check_key(wal_header.ledger_key, config)?;
                        service.handle(&wal_header.hello())?;
                        header = Some(wal_header);
                    }
                }
                report.wal_records = scan.submits.len() as u64;
                // Each epoch's records still to replay, and whether its
                // first admit has sized its ledger set for them. Records
                // come in runs of one epoch, so the map is read once per
                // run, not once per record.
                let runs = || scan.submits.chunk_by(|a, b| a.epoch == b.epoch);
                let mut left: BTreeMap<u64, (usize, bool)> = BTreeMap::new();
                for run in runs() {
                    left.entry(run[0].epoch).or_default().0 += run.len();
                }
                for run in runs() {
                    let epoch = run[0].epoch;
                    let (rest, reserved) = left.get_mut(&epoch).expect("counted above");
                    for record in run {
                        *rest -= 1;
                        let applied = service.handle_submit(
                            record.user,
                            epoch,
                            record.block,
                            record.report,
                            Admission::Skip,
                        );
                        match applied {
                            Ok(true) => {
                                report.wal_replayed += 1;
                                if !*reserved {
                                    service.ledger_mut().reserve(epoch, *rest);
                                    *reserved = true;
                                }
                            }
                            Ok(false) => report.wal_skipped += 1,
                            // A record that fails to apply is an integrity
                            // alarm unless its user's budget is spent.
                            Err(_) if service.ledger().contains(record.user, epoch) => {
                                report.wal_skipped += 1;
                            }
                            Err(_) => report.wal_rejected += 1,
                        }
                    }
                }
            }
            if scan.truncated_bytes > 0 {
                let file = OpenOptions::new()
                    .write(true)
                    .open(&wal_path)
                    .map_err(|e| disk_err("wal_truncate", &e))?;
                file.set_len(scan.valid_bytes)
                    .map_err(|e| disk_err("wal_truncate", &e))?;
                file.sync_all().map_err(|e| disk_err("wal_truncate", &e))?;
            }
        }
        Ok((service, header, report))
    }
}

fn check_key(on_disk: u64, config: &DurableConfig) -> Result<()> {
    if on_disk != config.service.ledger_key {
        return Err(LdpError::InvalidParameter {
            name: "ledger_key",
            message: format!(
                "durable state was written under ledger key {on_disk:#x}, service configured with {:#x}",
                config.service.ledger_key
            ),
        });
    }
    Ok(())
}
