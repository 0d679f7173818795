//! Pins what recovery rebuilds from a log that mixes every kind of record
//! replay must tell apart, so a change to how replay probes the ledger
//! cannot move a counter or an estimate bit:
//!
//! - records a checkpoint already covers (a kill between the checkpoint's
//!   commit and the log's rotation leaves them in the log);
//! - late records into a restored epoch and into a new one;
//! - checksum-valid records whose report does not decode: for a user the
//!   checkpoint covers, for one an earlier record in the log admitted, and
//!   for one nothing admitted (later admitted by a valid record).
//!
//! Every value below is what the collector computed before replay probed
//! the ledger once per record; the scenario uses only the public API, so
//! it runs unchanged against either. After each reopen, a `FlushEpoch`
//! must answer every recovered epoch with the counters its snapshot
//! reports, read without folding the epoch's partials.

use ldp_analytics::durable::{
    CrashPoint, CrashSchedule, DurableConfig, DurableService, FsyncPolicy, RecoveryReport,
    KIND_WAL_SUBMIT, WAL_FILE,
};
use ldp_analytics::pipeline::Protocol;
use ldp_analytics::service::{encode_report, ServiceConfig, WireMessage};
use ldp_analytics::ClientEncoder;
use ldp_core::frame::{self, FRAME_HEADER_BYTES};
use ldp_core::multidim::{AttrSpec, AttrValue};
use ldp_core::rng::seeded_rng;
use ldp_core::{Epsilon, LdpError, NumericKind, OracleKind};
use std::path::Path;

const PROTOCOL: Protocol = Protocol::Sampling {
    numeric: NumericKind::Hybrid,
    oracle: OracleKind::Oue,
};
const EPOCHS: u64 = 3;

fn specs() -> Vec<AttrSpec> {
    vec![
        AttrSpec::Numeric,
        AttrSpec::Categorical { k: 5 },
        AttrSpec::Categorical { k: 3 },
    ]
}

fn config() -> DurableConfig {
    DurableConfig {
        service: ServiceConfig::default(),
        fsync: FsyncPolicy::OnFlush,
        run_seed: 28,
    }
}

fn hello() -> WireMessage {
    WireMessage::Hello {
        protocol: PROTOCOL,
        epsilon: Epsilon::new(1.0).unwrap(),
        specs: specs(),
        epoch: 0,
    }
}

/// User `user`'s report for `epoch`, drawn from a seed of both.
fn submit(encoder: &ClientEncoder, user: u64, epoch: u64) -> WireMessage {
    let mut rng = seeded_rng(user.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (epoch << 40) ^ 28);
    let tuple = [
        AttrValue::Numeric(((user % 7) as f64) / 3.0 - 1.0),
        AttrValue::Categorical((user % 5) as u32),
        AttrValue::Categorical(((user + epoch) % 3) as u32),
    ];
    let report = encoder.encode(&tuple, &mut rng).unwrap();
    WireMessage::Submit {
        user,
        epoch,
        block: user % 3,
        report: encode_report(&report, &specs()),
    }
}

/// Submits `users` of `epoch`; returns how many were duplicates.
fn submit_all(
    durable: &mut DurableService,
    encoder: &ClientEncoder,
    epoch: u64,
    users: impl IntoIterator<Item = u64>,
) -> u64 {
    let mut duplicates = 0;
    for user in users {
        match durable.handle(&submit(encoder, user, epoch)) {
            Ok(_) => {}
            Err(LdpError::DuplicateReport { .. }) => duplicates += 1,
            Err(other) => panic!("user {user} epoch {epoch}: {other:?}"),
        }
    }
    duplicates
}

/// Appends a log record for `user` in `epoch` whose report bytes do not
/// decode, under a valid checksum.
fn append_garbage(dir: &Path, user: u64, epoch: u64) {
    let frame = WireMessage::Submit {
        user,
        epoch,
        block: 0,
        report: vec![0xFF; 3],
    }
    .to_frame()
    .unwrap();
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(WAL_FILE))
        .unwrap();
    frame::write_frame(&mut log, KIND_WAL_SUBMIT, &frame[FRAME_HEADER_BYTES..]).unwrap();
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Flushes every epoch through `durable.handle` and checks the counters it
/// returns against the epoch's snapshot: the same ledger and malformed
/// counts, and `users` equal to the estimates' report count (0 for an
/// epoch no report has reached).
fn assert_flush_counters_match_snapshots(durable: &mut DurableService) {
    for epoch in 0..EPOCHS {
        let receipt = durable
            .handle(&WireMessage::FlushEpoch { epoch })
            .unwrap()
            .expect("a flush returns its counters");
        let snap = durable.snapshot_epoch(epoch).unwrap();
        assert_eq!(
            (
                receipt.epoch,
                receipt.admitted,
                receipt.rejected_duplicates,
                receipt.rejected_malformed,
                receipt.users,
            ),
            (
                snap.epoch,
                snap.admitted,
                snap.rejected_duplicates,
                snap.rejected_malformed,
                snap.result.map_or(0, |r| r.n as u64),
            ),
            "epoch {epoch}"
        );
    }
}

/// FNV-1a over every epoch's snapshot: its counters, then each estimate's
/// attribute index and `f64` bits, all little-endian.
fn snapshots_hash(durable: &DurableService) -> u64 {
    let mut bytes = Vec::new();
    for epoch in 0..EPOCHS {
        let snap = durable.snapshot_epoch(epoch).unwrap();
        for count in [
            snap.admitted,
            snap.rejected_duplicates,
            snap.rejected_malformed,
        ] {
            bytes.extend_from_slice(&count.to_le_bytes());
        }
        let result = snap.result.expect("every epoch has reports");
        bytes.extend_from_slice(&(result.n as u64).to_le_bytes());
        for (j, mean) in &result.means {
            bytes.extend_from_slice(&(*j as u64).to_le_bytes());
            bytes.extend_from_slice(&mean.to_bits().to_le_bytes());
        }
        for (j, freqs) in &result.frequencies {
            bytes.extend_from_slice(&(*j as u64).to_le_bytes());
            for f in freqs {
                bytes.extend_from_slice(&f.to_bits().to_le_bytes());
            }
        }
    }
    fnv(&bytes)
}

#[test]
fn replay_of_a_mixed_log_is_pinned() {
    let dir = std::env::temp_dir().join(format!("ldp-replay-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let encoder = ClientEncoder::new(PROTOCOL, Epsilon::new(1.0).unwrap(), specs()).unwrap();

    // Two epochs, with repeats the checkpoint counts, then a kill right
    // after the checkpoint commits: the log keeps all 60 admitted records.
    let crash = CrashSchedule::new(CrashPoint::AfterCheckpointCommit, 1);
    let (mut durable, _) = DurableService::open_with_crash(&dir, config(), Some(crash)).unwrap();
    durable.handle(&hello()).unwrap();
    for epoch in 0..2 {
        submit_all(&mut durable, &encoder, epoch, 0..30);
    }
    assert_eq!(submit_all(&mut durable, &encoder, 0, 0..5), 5);
    durable.flush().unwrap();
    assert!(durable.checkpoint().is_err());
    assert!(durable.crashed());
    drop(durable);

    // Reopen: every logged record is covered. Then late records, and
    // records that fail to decode, into the same log.
    let (mut durable, report) = DurableService::open(&dir, config()).unwrap();
    assert_eq!(
        report,
        RecoveryReport {
            had_checkpoint: true,
            had_wal: true,
            checkpointed: 60,
            wal_records: 60,
            wal_skipped: 60,
            ..RecoveryReport::default()
        }
    );
    assert_flush_counters_match_snapshots(&mut durable);
    append_garbage(&dir, 5, 0); // the checkpoint covers user 5
    append_garbage(&dir, 77, 1); // nothing has admitted user 77 yet
    assert_eq!(submit_all(&mut durable, &encoder, 1, 25..40), 5);
    append_garbage(&dir, 33, 1); // a late record above admitted user 33
    assert_eq!(submit_all(&mut durable, &encoder, 2, 0..20), 0);
    assert_eq!(submit_all(&mut durable, &encoder, 1, [77, 3]), 1);
    durable.flush().unwrap();
    drop(durable);

    let (mut durable, report) = DurableService::open(&dir, config()).unwrap();
    assert_eq!(report, GOLDEN_REPORT);
    assert_flush_counters_match_snapshots(&mut durable);
    let ledger = durable.service().ledger();
    let counters: Vec<(u64, u64, u64)> = ledger
        .epochs()
        .map(|e| (e, ledger.admitted(e), ledger.rejected(e)))
        .collect();
    assert_eq!(counters, [(0, 30, 5), (1, 41, 0), (2, 20, 0)]);
    assert_eq!(durable.service().rejected_malformed(), 0);
    assert_eq!(snapshots_hash(&durable), GOLDEN_SNAPSHOTS);
    drop(durable);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The log: 60 covered records, 3 that fail to decode (two of them for
/// admitted users, so skipped), then 10 + 20 + 1 late admits.
const GOLDEN_REPORT: RecoveryReport = RecoveryReport {
    had_checkpoint: true,
    had_wal: true,
    checkpointed: 60,
    wal_records: 94,
    wal_replayed: 31,
    wal_skipped: 62,
    wal_rejected: 1,
    truncated_bytes: 0,
};

const GOLDEN_SNAPSHOTS: u64 = 0xd836_d49f_5f29_dca8;
