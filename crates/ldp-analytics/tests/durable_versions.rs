//! A durable directory written in another format version is refused with
//! `LdpError::UnsupportedVersion`, and both of its files are left byte for
//! byte as they were: neither is read as damage, and no torn tail is cut
//! off either.
//!
//! `fixtures/v1/` holds what format version 1 wrote at the first kill of
//! `durable_pinned`'s scenario: a checkpoint of two epochs of 40 users,
//! and a log holding the third epoch's 40 submits. Version 1 carried no
//! version field; its files are recognised by their first record, which
//! fails the current checksum but passes version 1's FNV-1a. A version 2
//! directory whose header declares version 3 is refused by the version
//! field itself.

use ldp_analytics::durable::{
    DurableConfig, DurableService, FsyncPolicy, Recovery, CHECKPOINT_FILE, WAL_FILE,
};
use ldp_analytics::pipeline::Protocol;
use ldp_analytics::service::{encode_report, ServiceConfig, WireMessage};
use ldp_analytics::ClientEncoder;
use ldp_core::frame::{self, FORMAT_VERSION, FRAME_HEADER_BYTES};
use ldp_core::multidim::{AttrSpec, AttrValue};
use ldp_core::rng::seeded_rng;
use ldp_core::{Epsilon, LdpError, NumericKind, OracleKind};
use std::path::{Path, PathBuf};

const PROTOCOL: Protocol = Protocol::Sampling {
    numeric: NumericKind::Hybrid,
    oracle: OracleKind::Oue,
};

fn specs() -> Vec<AttrSpec> {
    vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 5 }]
}

fn config() -> DurableConfig {
    DurableConfig {
        service: ServiceConfig::default(),
        fsync: FsyncPolicy::OnFlush,
        run_seed: 2019,
    }
}

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1");
    std::fs::read(path.join(name)).unwrap()
}

/// 64-bit FNV-1a, as `durable_pinned` hashes files.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A fresh scratch directory holding `files`.
fn directory(name: &str, files: &[(&str, &[u8])]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ldp-durable-versions-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (file, bytes) in files {
        std::fs::write(dir.join(file), bytes).unwrap();
    }
    dir
}

/// Every file in `dir`, by name.
fn contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Opening a directory of `files`, by recovery alone and as a service, is
/// refused as version `found`, and leaves every file as it was.
fn assert_refused(name: &str, files: &[(&str, &[u8])], found: u16) {
    let dir = directory(name, files);
    let before = contents(&dir);
    let refused = LdpError::UnsupportedVersion {
        found,
        supported: FORMAT_VERSION,
    };
    assert_eq!(
        Recovery::replay(&dir, &config()).map(|_| ()).unwrap_err(),
        refused,
        "{name}"
    );
    assert_eq!(
        DurableService::open(&dir, config())
            .map(|_| ())
            .unwrap_err(),
        refused,
        "{name}"
    );
    assert_eq!(
        contents(&dir),
        before,
        "{name}: a refused open changed the files"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A version 2 directory's files, written in scratch directory `name`: a
/// checkpoint of epochs 0 and 1, and a log holding epoch 2's submits.
fn version_2_files(name: &str) -> (Vec<u8>, Vec<u8>) {
    let dir = directory(name, &[]);
    let encoder = ClientEncoder::new(PROTOCOL, Epsilon::new(1.0).unwrap(), specs()).unwrap();
    let (mut durable, _) = DurableService::open(&dir, config()).unwrap();
    durable
        .handle(&WireMessage::Hello {
            protocol: PROTOCOL,
            epsilon: Epsilon::new(1.0).unwrap(),
            specs: specs(),
            epoch: 0,
        })
        .unwrap();
    let mut rng = seeded_rng(28);
    for epoch in 0..3 {
        for user in 0..10u64 {
            let tuple = [
                AttrValue::Numeric(0.5),
                AttrValue::Categorical((user % 5) as u32),
            ];
            let report = encoder.encode(&tuple, &mut rng).unwrap();
            let submit = WireMessage::Submit {
                user,
                epoch,
                block: 0,
                report: encode_report(&report, &specs()),
            };
            durable.handle(&submit).unwrap();
        }
        if epoch < 2 {
            durable.checkpoint().unwrap();
        }
    }
    durable.flush().unwrap();
    drop(durable);
    let files = (
        std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap(),
        std::fs::read(dir.join(WAL_FILE)).unwrap(),
    );
    std::fs::remove_dir_all(&dir).unwrap();
    files
}

/// `file` with its first record's `Hello` declaring `version`, under a
/// checksum that matches the change.
fn declare_version(file: &[u8], version: u16) -> Vec<u8> {
    let mut file = file.to_vec();
    let len = u32::from_be_bytes(file[..4].try_into().unwrap()) as usize;
    let payload = FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len;
    // The `Hello` payload opens with its 16-bit version.
    file[payload.start..payload.start + 2].copy_from_slice(&version.to_be_bytes());
    let checksum = frame::frame_checksum(file[4], &file[payload]);
    file[5..FRAME_HEADER_BYTES].copy_from_slice(&checksum.to_be_bytes());
    file
}

#[test]
fn the_fixture_is_what_version_1_wrote() {
    // `durable_pinned`'s version 1 hashes: the second checkpoint and the
    // log before the first kill.
    assert_eq!(fnv(&fixture(CHECKPOINT_FILE)), 0xb7ff_b8cc_0c83_65e6);
    assert_eq!(fnv(&fixture(WAL_FILE)), 0xc0a9_80d8_3f7f_ddc3);
    for name in [CHECKPOINT_FILE, WAL_FILE] {
        let file = fixture(name);
        let len = u32::from_be_bytes(file[..4].try_into().unwrap()) as usize;
        let declared = u64::from_be_bytes(file[5..FRAME_HEADER_BYTES].try_into().unwrap());
        let payload = &file[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
        assert_eq!(frame::v1_checksum(file[4], payload), declared, "{name}");
        assert_ne!(frame::frame_checksum(file[4], payload), declared, "{name}");
    }
}

#[test]
fn a_version_1_directory_is_refused_untouched() {
    let (checkpoint, log) = (fixture(CHECKPOINT_FILE), fixture(WAL_FILE));
    let header_len = FRAME_HEADER_BYTES + u32::from_be_bytes(log[..4].try_into().unwrap()) as usize;
    let (v2_checkpoint, _) = version_2_files("v1_writer");
    assert_refused(
        "v1_both",
        &[(CHECKPOINT_FILE, &checkpoint), (WAL_FILE, &log)],
        1,
    );
    assert_refused("v1_log", &[(WAL_FILE, &log)], 1);
    // A rotated log is its header alone: read as damage, it would be a
    // torn tail and cut to nothing.
    assert_refused("v1_rotated", &[(WAL_FILE, &log[..header_len])], 1);
    assert_refused(
        "v1_log_beside_v2",
        &[(CHECKPOINT_FILE, &v2_checkpoint), (WAL_FILE, &log)],
        1,
    );
}

#[test]
fn a_directory_declaring_version_3_is_refused_untouched() {
    let (checkpoint, log) = version_2_files("v3_writer");
    let (checkpoint3, log3) = (declare_version(&checkpoint, 3), declare_version(&log, 3));
    // The patch itself is sound: declaring version 2 again gives back the
    // bytes that recover.
    assert_eq!(declare_version(&checkpoint3, FORMAT_VERSION), checkpoint);
    assert_eq!(declare_version(&log3, FORMAT_VERSION), log);
    let dir = directory(
        "v3_recovers_as_v2",
        &[(CHECKPOINT_FILE, &checkpoint), (WAL_FILE, &log)],
    );
    let (_, report) = DurableService::open(&dir, config()).unwrap();
    assert_eq!((report.checkpointed, report.wal_replayed), (20, 10));
    std::fs::remove_dir_all(&dir).unwrap();

    let cases: [(&str, &[u8], &[u8]); 3] = [
        ("v3_both", &checkpoint3, &log3),
        ("v3_checkpoint", &checkpoint3, &log),
        ("v3_log", &checkpoint, &log3),
    ];
    for (name, checkpoint, log) in cases {
        assert_refused(name, &[(CHECKPOINT_FILE, checkpoint), (WAL_FILE, log)], 3);
    }
    assert_refused("v3_log_alone", &[(WAL_FILE, &log3)], 3);
}
