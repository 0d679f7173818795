//! Crash-safe durability under [`ReportService`]: a write-ahead log, epoch
//! checkpoints, and deterministic kill–restart recovery.
//!
//! ## The contract
//!
//! [`DurableService`] wraps a [`ReportService`] so that an `Admitted` ack
//! is only ever sent for a report whose WAL record is as durable as the
//! configured [`FsyncPolicy`] promises. A process kill at *any* instant
//! then loses at most unacked work: on restart, [`Recovery::replay`]
//! installs the newest checkpoint, replays the log's admitted records
//! through the production `Submit` path (the one envelope parser, then
//! the service's decode, validation, ledger and absorb, with each report
//! borrowed from the log image and decoded into one recycled report),
//! truncates the torn tail a mid-append crash leaves, and the recovered
//! epoch snapshots are **bit-identical** —
//! every mean and frequency compared via `to_bits()` — to a run that never
//! crashed. The crash-recovery suite gates on exactly that, plus the
//! conservation invariant `admitted == wal_replayed + checkpointed`.
//!
//! ## The pieces
//!
//! - `wal`: the log — a binding header record (format version,
//!   protocol, ε, schema, base epoch, ledger key, run seed) followed by
//!   one frame per admitted `Submit`, byte-identical to its wire payload.
//!   A log or checkpoint of another format version is refused with
//!   [`ldp_core::LdpError::UnsupportedVersion`] and left untouched. A
//!   torn tail — damage that fits in the one record a crash can tear,
//!   bounded by the largest record the schema admits — truncates
//!   silently; damage reaching further is a typed
//!   [`ldp_core::LdpError::WalCorrupt`] with the byte offset, mirroring
//!   [`crate::service::StreamFault`] semantics.
//! - `checkpoint`: full-state snapshots (aggregator partials keyed by
//!   ordinal, the budget ledger as keyed hashes, the stream counters)
//!   written with [`ldp_core::fsio`]'s fsync-hardened tmp+rename. After a
//!   checkpoint commits, the log rotates down to its header — the
//!   checkpoint has made the old records redundant.
//! - `recovery`: checkpoint install + ordered replay, deduplicating
//!   through the ledger, one probe per record, so a crash between
//!   checkpoint-commit and rotation cannot double-spend anyone's budget.
//!   The install keeps each epoch's checkpointed ledger hashes as the
//!   sorted run they were stored as, searched rather than rehashed, and
//!   replay sizes each epoch's live ledger set once, at its first admit,
//!   for the records it has left.
//! - [`CrashSchedule`]: a seeded kill switch consulted between every
//!   append / fsync / checkpoint-stage / checkpoint-commit / rotate step,
//!   so the integration suite can drop the process at a reproducible
//!   instant and prove recovery from whatever the disk held.
//!
//! ## Failures
//!
//! Every failure to read or write the durable files, and the kill a
//! tripped [`CrashSchedule`] injects, is [`LdpError::Storage`] naming the
//! operation. It says nothing against the message being handled, so the
//! transport answers it `Overloaded` for every message kind, and the
//! ledger keeps the client's retry at-most-once.

mod checkpoint;
mod recovery;
mod wal;

pub use checkpoint::{
    Checkpoint, CHECKPOINT_FILE, KIND_CHECKPOINT_EPOCH, KIND_CHECKPOINT_LEDGER,
    KIND_CHECKPOINT_META,
};
pub use recovery::{Recovery, RecoveryReport};
pub use wal::{
    scan, SubmitRecord, WalHeader, WalScan, WalWriter, KIND_WAL_HEADER, KIND_WAL_SUBMIT, WAL_FILE,
};

use crate::service::{EpochSnapshot, FlushReceipt, ReportService, ServiceConfig, WireMessage};
use ldp_core::rng::{seeded_rng, uniform_index};
use ldp_core::{fsio, IoFault, LdpError, Result};
use std::path::{Path, PathBuf};

/// When appended WAL records are forced onto stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: the ack-after-durable contract holds
    /// for each individual report. The safest and slowest policy.
    EveryRecord,
    /// Group commit: `fsync` once per `n` appended records. A crash can
    /// lose up to `n - 1` acked-but-unsynced records; throughput scales
    /// accordingly. `EveryN(1)` behaves like [`FsyncPolicy::EveryRecord`].
    EveryN(u64),
    /// `fsync` only at explicit flush boundaries (`FlushEpoch`,
    /// `Shutdown`, [`DurableService::flush`]). Fastest; the durability
    /// boundary is the flush, not the record.
    OnFlush,
}

/// The instants a [`CrashSchedule`] can kill the process at — each sits
/// between two steps of the durable write paths, where a real power cut
/// could land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// A WAL record reached the OS but no fsync has run: the record may
    /// or may not survive; recovery sees a torn or missing tail.
    AfterAppend,
    /// A WAL fsync completed: everything appended so far is durable.
    AfterFsync,
    /// The checkpoint temp file is written and synced, but not renamed:
    /// recovery must ignore the stray `.tmp` and use the old state.
    AfterCheckpointStage,
    /// The checkpoint rename is durable but the log has not rotated:
    /// recovery replays a log whose records the checkpoint already
    /// covers — the ledger must deduplicate every one.
    AfterCheckpointCommit,
    /// The rotated (header-only) log replaced the old one.
    AfterRotate,
}

impl CrashPoint {
    /// Every injectable point, in write-path order.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::AfterAppend,
        CrashPoint::AfterFsync,
        CrashPoint::AfterCheckpointStage,
        CrashPoint::AfterCheckpointCommit,
        CrashPoint::AfterRotate,
    ];
}

/// A deterministic kill: trips the `occurrence`-th time execution passes
/// `point`, and every durable operation from then on fails with
/// [`LdpError::Storage`] whose `op` is `"injected_crash"` — the process is
/// to be treated as dead and reopened via [`Recovery::replay`].
#[derive(Debug, Clone)]
pub struct CrashSchedule {
    point: CrashPoint,
    occurrence: u64,
    seen: u64,
    tripped: bool,
}

impl CrashSchedule {
    /// Kill at the `occurrence`-th (1-based) pass of `point`.
    pub fn new(point: CrashPoint, occurrence: u64) -> Self {
        CrashSchedule {
            point,
            occurrence: occurrence.max(1),
            seen: 0,
            tripped: false,
        }
    }

    /// A seed-derived schedule: uniform point, occurrence in `1..=8`.
    /// Same seed, same kill — the property the kill–restart suite's fixed
    /// seeds rely on.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = seeded_rng(seed ^ 0xdead_0c4a_5af3_57a7);
        let point = CrashPoint::ALL[uniform_index(&mut rng, CrashPoint::ALL.len() as u32) as usize];
        let occurrence = u64::from(uniform_index(&mut rng, 8)) + 1;
        CrashSchedule::new(point, occurrence)
    }

    /// The point this schedule kills at.
    pub fn point(&self) -> CrashPoint {
        self.point
    }

    /// Which pass of the point kills (1-based).
    pub fn occurrence(&self) -> u64 {
        self.occurrence
    }

    /// True once the kill has fired.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Consulted by the durable write paths at each [`CrashPoint`].
    ///
    /// # Errors
    /// [`LdpError::Storage`] with `op` `"injected_crash"` when this pass
    /// trips the schedule, and on every call after.
    pub fn note(&mut self, point: CrashPoint) -> Result<()> {
        if self.tripped {
            return Err(injected_crash());
        }
        if point == self.point {
            self.seen += 1;
            if self.seen >= self.occurrence {
                self.tripped = true;
                return Err(injected_crash());
            }
        }
        Ok(())
    }
}

fn injected_crash() -> LdpError {
    LdpError::Storage {
        op: "injected_crash",
        cause: IoFault {
            kind: std::io::ErrorKind::Other,
            message: "simulated process kill from the crash schedule".into(),
        },
    }
}

fn note(crash: &mut Option<CrashSchedule>, point: CrashPoint) -> Result<()> {
    match crash {
        Some(schedule) => schedule.note(point),
        None => Ok(()),
    }
}

fn disk_err(op: &'static str, e: &std::io::Error) -> LdpError {
    LdpError::Storage {
        op,
        cause: IoFault::from_io(e),
    }
}

/// Construction parameters for a [`DurableService`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// The wrapped service's parameters.
    pub service: ServiceConfig,
    /// When WAL appends are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// The collection run's seed, bound into the log header so recovered
    /// state can never be mixed into a different run.
    pub run_seed: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            service: ServiceConfig::default(),
            fsync: FsyncPolicy::EveryRecord,
            run_seed: 0,
        }
    }
}

/// A [`ReportService`] behind a write-ahead log and epoch checkpoints.
///
/// Every admitted `Submit` is appended to the log *before* the caller gets
/// its `Ok` (and hence before any transport ack); [`Self::checkpoint`] captures
/// the full state atomically and rotates the log. Opening a directory
/// always runs recovery first, so a kill–restart cycle is just `drop` +
/// [`DurableService::open`].
#[derive(Debug)]
pub struct DurableService {
    service: ReportService,
    config: DurableConfig,
    dir: PathBuf,
    /// `None` until a `Hello` establishes the session (there is nothing to
    /// bind a log header to before that).
    wal: Option<WalWriter>,
    header: Option<WalHeader>,
    crash: Option<CrashSchedule>,
    checkpoints: u64,
}

impl DurableService {
    /// Opens (and first recovers) the durable directory.
    ///
    /// # Errors
    /// Recovery failures — see [`Recovery::replay`].
    pub fn open(dir: &Path, config: DurableConfig) -> Result<(Self, RecoveryReport)> {
        Self::open_with_crash(dir, config, None)
    }

    /// [`DurableService::open`] with a crash schedule armed; the harness
    /// entry point.
    ///
    /// # Errors
    /// As [`DurableService::open`].
    pub fn open_with_crash(
        dir: &Path,
        config: DurableConfig,
        crash: Option<CrashSchedule>,
    ) -> Result<(Self, RecoveryReport)> {
        std::fs::create_dir_all(dir).map_err(|e| disk_err("durable_dir", &e))?;
        let (service, header, report) = Recovery::replay(dir, &config)?;
        let mut durable = DurableService {
            service,
            config,
            dir: dir.to_path_buf(),
            wal: None,
            header,
            crash,
            checkpoints: 0,
        };
        durable.open_log()?;
        Ok((durable, report))
    }

    /// Opens the log for appending unless it is open. A bound session
    /// reopens its log, recreated from the binding if it is missing or
    /// empty (a crash after the checkpoint rename can leave it missing or
    /// rotated away mid-swap, a failed rotation leaves it closed, and a
    /// crash while it is recreated leaves a torn header that recovery
    /// truncates to nothing). A session with no binding yet gets a fresh
    /// log with its header; any log file already there has none, so it is
    /// started over. Before any session there is nothing to bind, and the
    /// log stays closed.
    ///
    /// # Errors
    /// I/O failures creating or opening the log.
    fn open_log(&mut self) -> Result<()> {
        if self.wal.is_some() {
            return Ok(());
        }
        let path = self.dir.join(WAL_FILE);
        let fsync = self.config.fsync;
        let has_header = std::fs::metadata(&path).is_ok_and(|m| m.len() > 0);
        let wal = match &self.header {
            Some(_) if has_header => WalWriter::open_end(&path, fsync)?,
            Some(header) => WalWriter::create(&path, header, fsync)?,
            None => {
                let Some((protocol, epsilon, specs, base_epoch)) = self.service.session_params()
                else {
                    return Ok(());
                };
                let header = WalHeader {
                    protocol,
                    epsilon,
                    specs: specs.to_vec(),
                    base_epoch,
                    ledger_key: self.service.config().ledger_key,
                    run_seed: self.config.run_seed,
                };
                let wal = WalWriter::create(&path, &header, fsync)?;
                self.header = Some(header);
                wal
            }
        };
        self.wal = Some(wal);
        Ok(())
    }

    /// The wrapped service (read-only; all mutation goes through
    /// [`DurableService::handle`] so it cannot bypass the log).
    pub fn service(&self) -> &ReportService {
        &self.service
    }

    /// Checkpoints taken by this instance.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Submit records appended by this instance (recovered records are a
    /// previous incarnation's).
    pub fn wal_records(&self) -> u64 {
        self.wal.as_ref().map_or(0, WalWriter::records)
    }

    /// True once an armed crash schedule has fired; the instance is
    /// "dead" and every further durable operation returns the injected
    /// crash.
    pub fn crashed(&self) -> bool {
        self.crash.as_ref().is_some_and(CrashSchedule::tripped)
    }

    /// Non-destructive snapshot of one epoch (delegates to the service).
    ///
    /// # Errors
    /// As [`ReportService::snapshot_epoch`].
    pub fn snapshot_epoch(&self, epoch: u64) -> Result<EpochSnapshot> {
        self.service.snapshot_epoch(epoch)
    }

    /// Processes one message with durability interposed:
    ///
    /// - `Hello`: establishes the session, then durably creates the log
    ///   with its binding header (idempotent re-hellos reuse it);
    /// - `Submit`: reopens the log if a failed rotation closed it, then is
    ///   admitted by the service (all three validation gates), then
    ///   appended; the `Ok` — and any ack built from it — happens strictly
    ///   after the append returns per the fsync policy;
    /// - `FlushEpoch`: flushes the log (the `OnFlush` durability
    ///   boundary), then returns the epoch's [`FlushReceipt`] counters
    ///   (estimates are read with [`DurableService::snapshot_epoch`]);
    /// - `Shutdown`: flushes the log.
    ///
    /// # Errors
    /// Service rejections pass through unchanged (a duplicate is still
    /// [`LdpError::DuplicateReport`] and is *not* logged). Log failures are
    /// [`LdpError::Storage`]. A log that cannot reopen fails the `Submit`
    /// before the service sees it, so no budget is spent. A WAL append
    /// failure after an in-memory admit is surfaced as-is: the transport
    /// maps it to a retryable `Overloaded`, and since the admit kept the
    /// in-memory ledger entry, the client's idempotent retry resolves to
    /// a duplicate ack rather than a double-count. A `FlushEpoch` whose
    /// fsync fails is refused the same way, before any counter is read.
    pub fn handle(&mut self, msg: &WireMessage) -> Result<Option<FlushReceipt>> {
        match msg {
            WireMessage::Hello { .. } => {
                self.service.handle(msg)?;
                self.open_log()?;
                Ok(None)
            }
            WireMessage::Submit { .. } => {
                // The log opens before the service admits anything, so a
                // log that cannot open spends no budget.
                self.open_log()?;
                self.service.handle(msg)?;
                let wal = self
                    .wal
                    .as_mut()
                    .expect("an admitted submit has a session, so the log opened");
                wal.append(msg, &mut self.crash)?;
                Ok(None)
            }
            WireMessage::FlushEpoch { .. } => {
                self.flush()?;
                self.service.handle(msg)
            }
            WireMessage::Shutdown => {
                self.flush()?;
                Ok(None)
            }
        }
    }

    /// Counts one malformed rejection observed outside the service's own
    /// loops (see [`ReportService::note_malformed`]) — the transport
    /// server's passthrough.
    pub fn note_malformed(&mut self) {
        self.service.note_malformed();
    }

    /// Tears down the wrapper and returns the wrapped service — the
    /// drain-then-stop tail of the transport server. The final flush is
    /// best-effort: at this point the process is exiting, and a dead disk
    /// or tripped crash schedule has no one left to retry.
    pub fn into_service(mut self) -> ReportService {
        let _ = self.flush();
        self.service
    }

    /// Forces every appended record onto stable storage.
    ///
    /// # Errors
    /// [`LdpError::Storage`]: an I/O failure or the injected crash.
    pub fn flush(&mut self) -> Result<()> {
        match self.wal.as_mut() {
            Some(wal) => wal.sync(&mut self.crash),
            None => Ok(()),
        }
    }

    /// Takes an epoch checkpoint and rotates the log:
    ///
    /// 1. capture the full service state and stage it to
    ///    `checkpoint.bin.tmp` (written + fsynced, not yet visible);
    /// 2. commit: atomic rename + parent-directory fsync — from this
    ///    instant recovery uses the new checkpoint;
    /// 3. rotate: swap in a header-only log the same way — the records
    ///    the checkpoint covers are compacted away.
    ///
    /// A crash between 2 and 3 leaves a log whose records the checkpoint
    /// already holds; recovery deduplicates them through the ledger.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] before any session exists;
    /// [`LdpError::MalformedFrame`] when a record of the image exceeds the
    /// frame payload cap (see [`Checkpoint::encode`]);
    /// [`LdpError::Storage`] for I/O failures and the injected crash at any
    /// armed point.
    pub fn checkpoint(&mut self) -> Result<()> {
        let header = self
            .header
            .clone()
            .ok_or_else(|| LdpError::InvalidParameter {
                name: "checkpoint",
                message: "no session established; nothing to checkpoint".into(),
            })?;
        let image = Checkpoint::capture(&self.service, &header).encode()?;
        let checkpoint_path = self.dir.join(CHECKPOINT_FILE);
        let staged =
            fsio::stage(&checkpoint_path, &image).map_err(|e| disk_err("checkpoint_stage", &e))?;
        note(&mut self.crash, CrashPoint::AfterCheckpointStage)?;
        fsio::commit(&checkpoint_path, &staged).map_err(|e| disk_err("checkpoint_commit", &e))?;
        note(&mut self.crash, CrashPoint::AfterCheckpointCommit)?;

        // Rotate: drop the open handle, then atomically swap in a fresh
        // header-only log and reopen it for appending. If the rotation
        // fails, the log stays closed and the next message reopens it.
        self.wal = None;
        let wal_path = self.dir.join(WAL_FILE);
        let fresh = wal::header_only_log(&header)?;
        let staged = fsio::stage(&wal_path, &fresh).map_err(|e| disk_err("wal_rotate", &e))?;
        fsio::commit(&wal_path, &staged).map_err(|e| disk_err("wal_rotate", &e))?;
        note(&mut self.crash, CrashPoint::AfterRotate)?;
        self.open_log()?;
        self.checkpoints += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Protocol;
    use crate::service::encode_report;
    use crate::ClientEncoder;
    use ldp_core::rng::seeded_rng;
    use ldp_core::{AttrSpec, AttrValue, Epsilon, NumericKind, OracleKind};

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ldp_durable_{}_{name}", std::process::id()));
        p
    }

    fn test_protocol() -> Protocol {
        Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        }
    }

    fn test_specs() -> Vec<AttrSpec> {
        vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 4 }]
    }

    fn hello() -> WireMessage {
        WireMessage::Hello {
            protocol: test_protocol(),
            epsilon: Epsilon::new(1.0).unwrap(),
            specs: test_specs(),
            epoch: 0,
        }
    }

    fn submits(n: u64) -> Vec<WireMessage> {
        let specs = test_specs();
        let encoder =
            ClientEncoder::new(test_protocol(), Epsilon::new(1.0).unwrap(), specs.clone()).unwrap();
        let mut rng = seeded_rng(41);
        (0..n)
            .map(|user| {
                let report = encoder
                    .encode(
                        &[
                            AttrValue::Numeric(0.25),
                            AttrValue::Categorical((user % 4) as u32),
                        ],
                        &mut rng,
                    )
                    .unwrap();
                WireMessage::Submit {
                    user,
                    epoch: 0,
                    block: user % 3,
                    report: encode_report(&report, &specs),
                }
            })
            .collect()
    }

    #[test]
    fn wal_header_round_trips_and_binds() {
        let header = WalHeader {
            protocol: test_protocol(),
            epsilon: Epsilon::new(0.5).unwrap(),
            specs: test_specs(),
            base_epoch: 3,
            ledger_key: 0xfeed,
            run_seed: 99,
        };
        let decoded = WalHeader::decode(&header.encode()).unwrap();
        assert!(header.matches(&decoded));
        let mut other = decoded.clone();
        other.run_seed = 100;
        assert!(!header.matches(&other));
        assert!(WalHeader::decode(&[0u8; 8]).is_err());
    }

    #[test]
    fn open_append_recover_round_trip() {
        let dir = temp_dir("round_trip");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut durable, report) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        durable.handle(&hello()).unwrap();
        for msg in submits(20) {
            durable.handle(&msg).unwrap();
        }
        let before = durable.snapshot_epoch(0).unwrap();
        drop(durable);

        let (recovered, report) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(report.wal_replayed, 20);
        assert_eq!(report.checkpointed, 0);
        assert_eq!(report.recovered_admits(), 20);
        let after = recovered.snapshot_epoch(0).unwrap();
        assert_eq!(after.admitted, before.admitted);
        let (a, b) = (before.result.unwrap(), after.result.unwrap());
        assert_eq!(a.means.len(), b.means.len());
        for ((i, x), (j, y)) in a.means.iter().zip(b.means.iter()) {
            assert_eq!(i, j);
            assert_eq!(x.to_bits(), y.to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotates_and_recovery_splits_sources() {
        let dir = temp_dir("checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut durable, _) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        durable.handle(&hello()).unwrap();
        let all = submits(30);
        for msg in &all[..18] {
            durable.handle(msg).unwrap();
        }
        durable.checkpoint().unwrap();
        assert_eq!(durable.checkpoints(), 1);
        for msg in &all[18..] {
            durable.handle(msg).unwrap();
        }
        drop(durable);

        let (recovered, report) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(report.checkpointed, 18);
        assert_eq!(report.wal_replayed, 12);
        assert_eq!(report.wal_skipped, 0);
        assert_eq!(report.recovered_admits(), 30);
        assert_eq!(recovered.snapshot_epoch(0).unwrap().admitted, 30);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_schedule_is_deterministic_and_trips_once() {
        let a = CrashSchedule::seeded(7);
        let b = CrashSchedule::seeded(7);
        assert_eq!(a.point(), b.point());
        assert_eq!(a.occurrence(), b.occurrence());

        let mut s = CrashSchedule::new(CrashPoint::AfterAppend, 2);
        assert!(s.note(CrashPoint::AfterFsync).is_ok());
        assert!(s.note(CrashPoint::AfterAppend).is_ok());
        assert_eq!(s.note(CrashPoint::AfterAppend), Err(injected_crash()));
        assert!(s.tripped());
        // Dead stays dead, whatever the point.
        assert_eq!(s.note(CrashPoint::AfterRotate), Err(injected_crash()));
    }

    #[test]
    fn submit_after_a_failed_rotation_reopens_the_log() {
        let dir = temp_dir("failed_rotation");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut durable, _) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        durable.handle(&hello()).unwrap();
        let all = submits(6);
        for msg in &all[..4] {
            durable.handle(msg).unwrap();
        }
        // A directory where rotation stages the fresh log: the checkpoint
        // commits, then the rotation fails and leaves the log closed.
        let wal_path = dir.join(WAL_FILE);
        std::fs::create_dir(dir.join(format!("{WAL_FILE}.tmp"))).unwrap();
        assert!(matches!(
            durable.checkpoint(),
            Err(LdpError::Storage { .. })
        ));

        // A log that cannot reopen refuses the submit before the ledger
        // spends anything.
        let moved = dir.join("wal.log.moved");
        std::fs::rename(&wal_path, &moved).unwrap();
        std::fs::create_dir(&wal_path).unwrap();
        assert!(matches!(
            durable.handle(&all[4]),
            Err(LdpError::Storage { .. })
        ));
        assert_eq!(durable.service().ledger().admitted(0), 4);
        std::fs::remove_dir(&wal_path).unwrap();
        std::fs::rename(&moved, &wal_path).unwrap();

        for msg in &all[4..] {
            durable.handle(msg).unwrap();
        }
        drop(durable);
        let (recovered, report) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(report.checkpointed, 4);
        assert_eq!(report.wal_skipped, 4);
        assert_eq!(report.wal_replayed, 2);
        assert_eq!(report.recovered_admits(), 6);
        assert_eq!(recovered.service().ledger().admitted(0), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_bit_never_truncates_more_than_one_record() {
        let dir = temp_dir("flips");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut durable, _) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        durable.handle(&hello()).unwrap();
        for msg in submits(10) {
            durable.handle(&msg).unwrap();
        }
        drop(durable);
        let wal_path = dir.join(WAL_FILE);
        let image = std::fs::read(&wal_path).unwrap();
        let header_len = u32::from_be_bytes(image[..4].try_into().unwrap()) as usize;
        let first_submit = ldp_core::frame::FRAME_HEADER_BYTES + header_len;
        let largest_record = (ldp_core::frame::FRAME_HEADER_BYTES
            + crate::service::max_submit_payload(test_protocol(), &test_specs()))
            as u64;
        for byte in first_submit..image.len() {
            for bit in 0..8 {
                let mut damaged = image.clone();
                damaged[byte] ^= 1 << bit;
                std::fs::write(&wal_path, &damaged).unwrap();
                match Recovery::replay(&dir, &DurableConfig::default()) {
                    // A torn tail fits in the one record a crash can tear.
                    Ok((_, _, report)) => assert!(
                        report.truncated_bytes <= largest_record,
                        "flip at byte {byte} bit {bit} truncated {} bytes",
                        report.truncated_bytes
                    ),
                    Err(LdpError::WalCorrupt { offset, .. }) => assert!(
                        offset <= byte as u64,
                        "flip at byte {byte} bit {bit} reported at {offset}"
                    ),
                    Err(other) => panic!("flip at byte {byte} bit {bit}: {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_oversized_header_length_is_damage_not_a_torn_tail() {
        let dir = temp_dir("header_length");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut durable, _) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        durable.handle(&hello()).unwrap();
        for msg in submits(6) {
            durable.handle(&msg).unwrap();
        }
        drop(durable);
        // The top bit of the header record's length field: a length no
        // writer declares, so six acknowledged submits must not be read
        // as a torn create and truncated away.
        let wal_path = dir.join(WAL_FILE);
        let mut image = std::fs::read(&wal_path).unwrap();
        image[0] ^= 0x80;
        std::fs::write(&wal_path, &image).unwrap();
        let err = Recovery::replay(&dir, &DurableConfig::default()).unwrap_err();
        assert!(
            matches!(err, LdpError::WalCorrupt { offset: 0, .. }),
            "{err:?}"
        );
        assert_eq!(std::fs::read(&wal_path).unwrap(), image, "log was modified");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_torn_inside_its_header_is_recreated_from_the_binding() {
        let dir = temp_dir("torn_header");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut durable, _) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        durable.handle(&hello()).unwrap();
        let all = submits(7);
        for msg in &all[..4] {
            durable.handle(msg).unwrap();
        }
        durable.checkpoint().unwrap();
        drop(durable);
        // A crash while the log is recreated leaves a prefix of its header.
        let wal_path = dir.join(WAL_FILE);
        std::fs::File::options()
            .write(true)
            .open(&wal_path)
            .unwrap()
            .set_len(5)
            .unwrap();
        let (mut durable, report) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(report.truncated_bytes, 5);
        for msg in &all[4..] {
            durable.handle(msg).unwrap();
        }
        drop(durable);

        let (recovered, report) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(report.checkpointed, 4);
        assert_eq!(report.wal_replayed, 3);
        let admitted = recovered.snapshot_epoch(0).unwrap().admitted;
        assert_eq!(admitted, report.recovered_admits());
        assert_eq!(admitted, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_that_fails_to_apply_opens_no_ledger_epoch() {
        let dir = temp_dir("garbage_record");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut durable, _) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        durable.handle(&hello()).unwrap();
        for msg in submits(5) {
            durable.handle(&msg).unwrap();
        }
        durable.checkpoint().unwrap();
        let clean = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        drop(durable);
        // The log's only record for epoch 3: checksum-valid, but its
        // report does not decode.
        let garbage = WireMessage::Submit {
            user: 9,
            epoch: 3,
            block: 0,
            report: vec![0xFF; 3],
        };
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        ldp_core::frame::write_frame(&mut log, KIND_WAL_SUBMIT, &garbage.payload()).unwrap();
        drop(log);

        let (mut recovered, report) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(report.wal_records, 1);
        assert_eq!(report.wal_rejected, 1);
        assert_eq!(report.wal_replayed + report.wal_skipped, 0);
        let ledger = recovered.service().ledger();
        assert_eq!(ledger.epochs().collect::<Vec<_>>(), [0]);
        recovered.checkpoint().unwrap();
        assert_eq!(std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap(), clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_submits_are_rejected_not_logged() {
        let dir = temp_dir("dup");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut durable, _) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        durable.handle(&hello()).unwrap();
        let msgs = submits(2);
        durable.handle(&msgs[0]).unwrap();
        assert!(matches!(
            durable.handle(&msgs[0]),
            Err(LdpError::DuplicateReport { .. })
        ));
        assert_eq!(durable.wal_records(), 1);
        drop(durable);
        let (_, report) = DurableService::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(report.wal_records, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
