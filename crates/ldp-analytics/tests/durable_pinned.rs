//! Pins the durable on-disk format byte for byte.
//!
//! Both files open with a header record whose `Hello` payload carries the
//! format version, and a reader refuses any other version, so a change to
//! how either file is encoded must come with a new version; these pins
//! catch one that does not. One seeded scenario runs through every
//! durable write path:
//!
//! - a `Hello`, three epochs of submits, and a flush plus checkpoint
//!   after each of the first two, leaving the third as the log's tail;
//! - a kill (drop) and a reopen, which installs the checkpoint and
//!   replays the tail;
//! - late submits into a restored epoch and into the open one, some of
//!   them repeats of users the checkpoint already holds, then a third
//!   checkpoint and a last kill and reopen.
//!
//! The golden FNV-1a hashes cover `checkpoint.bin` after each checkpoint,
//! `wal.log` before each kill, and every snapshot the reopened services
//! publish, so any drift in the encodings or in what recovery rebuilds
//! fails here.

use ldp_analytics::durable::{
    DurableConfig, DurableService, FsyncPolicy, CHECKPOINT_FILE, WAL_FILE,
};
use ldp_analytics::pipeline::Protocol;
use ldp_analytics::service::{encode_report, ServiceConfig, WireMessage};
use ldp_analytics::ClientEncoder;
use ldp_core::multidim::{AttrSpec, AttrValue};
use ldp_core::rng::seeded_rng;
use ldp_core::{Epsilon, LdpError, NumericKind, OracleKind};
use std::path::{Path, PathBuf};

const PROTOCOL: Protocol = Protocol::Sampling {
    numeric: NumericKind::Hybrid,
    oracle: OracleKind::Oue,
};
const EPOCHS: u64 = 3;
const USERS_PER_EPOCH: u64 = 40;

fn specs() -> Vec<AttrSpec> {
    vec![
        AttrSpec::Numeric,
        AttrSpec::Categorical { k: 5 },
        AttrSpec::Categorical { k: 3 },
    ]
}

fn epsilon() -> Epsilon {
    Epsilon::new(1.0).unwrap()
}

fn config() -> DurableConfig {
    DurableConfig {
        service: ServiceConfig::default(),
        fsync: FsyncPolicy::OnFlush,
        run_seed: 2019,
    }
}

fn hello() -> WireMessage {
    WireMessage::Hello {
        protocol: PROTOCOL,
        epsilon: epsilon(),
        specs: specs(),
        epoch: 0,
    }
}

/// User `user`'s report for `epoch`, drawn from a seed of both.
fn submit(encoder: &ClientEncoder, user: u64, epoch: u64) -> WireMessage {
    let mut rng = seeded_rng(user.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (epoch << 48) ^ 27);
    let tuple = [
        AttrValue::Numeric(((user % 9) as f64) / 4.0 - 1.0),
        AttrValue::Categorical((user % 5) as u32),
        AttrValue::Categorical(((user + epoch) % 3) as u32),
    ];
    let report = encoder.encode(&tuple, &mut rng).unwrap();
    WireMessage::Submit {
        user,
        epoch,
        block: user % 4,
        report: encode_report(&report, &specs()),
    }
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

fn file_hash(dir: &Path, name: &str) -> u64 {
    fnv(&std::fs::read(dir.join(name)).unwrap())
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

/// What the scenario pins: `checkpoint.bin` after each of its three
/// checkpoints, `wal.log` before each of its two kills, and the
/// snapshots after each of its two reopens.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    checkpoints: [u64; 3],
    logs: [u64; 2],
    recovered: [u64; 2],
}

/// Format version 2's bytes. The snapshot hashes are version 1's too:
/// the format change moved no recovered estimate or counter.
const GOLDEN: Pins = Pins {
    checkpoints: [
        0x8f72_ee04_34a5_ddb3,
        0x79c8_629d_9dbb_1432,
        0x3b0c_4e8f_eb3d_5578,
    ],
    logs: [0x2ac8_e673_934a_9297, 0x538a_eafb_0952_a8dd],
    recovered: [0x6235_f307_526a_b20d, 0x36fc_bc6e_46ef_ae95],
};

fn run(dir: &Path) -> Pins {
    let encoder = ClientEncoder::new(PROTOCOL, epsilon(), specs()).unwrap();
    let mut checkpoints = [0u64; 3];
    let mut logs = [0u64; 2];
    let mut recovered = [0u64; 2];

    let (mut durable, report) = DurableService::open(dir, config()).unwrap();
    assert_eq!(report.recovered_admits(), 0);
    durable.handle(&hello()).unwrap();
    for epoch in 0..EPOCHS {
        for user in 0..USERS_PER_EPOCH {
            durable.handle(&submit(&encoder, user, epoch)).unwrap();
        }
        if epoch + 1 < EPOCHS {
            durable
                .handle(&WireMessage::FlushEpoch { epoch })
                .unwrap()
                .expect("a flush snapshots");
            durable.checkpoint().unwrap();
            checkpoints[epoch as usize] = file_hash(dir, CHECKPOINT_FILE);
        }
    }
    durable.flush().unwrap();
    logs[0] = file_hash(dir, WAL_FILE);
    drop(durable);

    let (mut durable, report) = DurableService::open(dir, config()).unwrap();
    assert_eq!(report.checkpointed, 2 * USERS_PER_EPOCH);
    assert_eq!(report.wal_replayed, USERS_PER_EPOCH);
    assert_eq!(report.wal_skipped + report.wal_rejected, 0);
    recovered[0] = snapshots_hash(&durable);
    // Late submits: new users into restored epoch 1 and into open epoch
    // 2, each batch with repeats of users both epochs already hold.
    for epoch in [1, 2] {
        for user in USERS_PER_EPOCH - 5..USERS_PER_EPOCH + 12 {
            match durable.handle(&submit(&encoder, user, epoch)) {
                Ok(_) => assert!(user >= USERS_PER_EPOCH, "user {user} admitted twice"),
                Err(LdpError::DuplicateReport { .. }) => assert!(user < USERS_PER_EPOCH),
                Err(other) => panic!("user {user} epoch {epoch}: {other:?}"),
            }
        }
    }
    durable.checkpoint().unwrap();
    checkpoints[2] = file_hash(dir, CHECKPOINT_FILE);
    durable.flush().unwrap();
    logs[1] = file_hash(dir, WAL_FILE);
    drop(durable);

    let (durable, report) = DurableService::open(dir, config()).unwrap();
    assert_eq!(report.checkpointed, 3 * USERS_PER_EPOCH + 2 * 12);
    assert_eq!(report.wal_records, 0);
    recovered[1] = snapshots_hash(&durable);
    assert_eq!(durable.service().ledger().total_rejected(), 2 * 5);
    Pins {
        checkpoints,
        logs,
        recovered,
    }
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp-durable-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_bytes_and_recovered_snapshots_are_pinned() {
    let dir = scratch_dir();
    let pins = run(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(pins, GOLDEN);
}
