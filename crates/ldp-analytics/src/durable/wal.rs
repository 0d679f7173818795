//! The write-ahead log: a binding header record followed by one framed
//! record per admitted `Submit`.
//!
//! Every record is an [`ldp_core::frame`] frame, so the log inherits the
//! wire format's length/checksum discipline. A `Submit` record's payload is
//! **byte-identical** to the payload the message travelled the wire as.
//! [`scan`] reads it with the wire's one `Submit` parser into a
//! [`SubmitRecord`] borrowed from the log image, and replay hands that to
//! the service's `Submit` path — the production decode, validation,
//! ledger and absorb, with nothing re-derived and nothing copied.

use super::{disk_err, note, CrashPoint, CrashSchedule, FsyncPolicy};
use crate::pipeline::Protocol;
use crate::service::{max_submit_payload, parse_submit, WireMessage, KIND_HELLO, KIND_SUBMIT};
use ldp_core::frame::{self, FrameRead};
use ldp_core::multidim::AttrSpec;
use ldp_core::{Epsilon, LdpError, Result};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// File name of the log inside a durable directory.
pub const WAL_FILE: &str = "wal.log";

/// Frame kind of the one header record opening every log (and every
/// checkpoint). Log kinds live above the client (1–4) and server (5–8)
/// wire kinds so a stray wire frame can never masquerade as a log record.
pub const KIND_WAL_HEADER: u8 = 9;
/// Frame kind of an admitted-submit record.
pub const KIND_WAL_SUBMIT: u8 = 10;

/// The binding header: everything a recovered process needs to rebuild the
/// session *and* everything that must match before replaying a record is
/// safe — protocol, ε, schema, base epoch, the ledger's hashing key, and
/// the run seed. A log written under different parameters fails the
/// binding check instead of silently corrupting estimates.
#[derive(Debug, Clone)]
pub struct WalHeader {
    /// Aggregation protocol the session runs.
    pub protocol: Protocol,
    /// Per-user privacy budget.
    pub epsilon: Epsilon,
    /// Attribute schema.
    pub specs: Vec<AttrSpec>,
    /// The session's base epoch.
    pub base_epoch: u64,
    /// Key under which the budget ledger hashes user ids; a checkpoint's
    /// hashes are meaningless to a service keyed differently.
    pub ledger_key: u64,
    /// The collection run's seed, binding the log to one deterministic run.
    pub run_seed: u64,
}

impl WalHeader {
    /// The `Hello` that re-establishes this header's session on recovery.
    pub fn hello(&self) -> WireMessage {
        WireMessage::Hello {
            protocol: self.protocol,
            epsilon: self.epsilon,
            specs: self.specs.clone(),
            epoch: self.base_epoch,
        }
    }

    /// Record payload: the canonical `Hello` payload, format version
    /// first, followed by a 16-byte trailer of ledger key and run seed
    /// (big-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = self.hello().payload();
        payload.extend_from_slice(&self.ledger_key.to_be_bytes());
        payload.extend_from_slice(&self.run_seed.to_be_bytes());
        payload
    }

    /// Inverse of [`WalHeader::encode`].
    ///
    /// # Errors
    /// [`LdpError::UnsupportedVersion`] when the `Hello` prefix declares
    /// another format version; [`LdpError::MalformedFrame`] when the
    /// payload is shorter than its trailer or the `Hello` prefix fails its
    /// exact-length codec.
    pub fn decode(payload: &[u8]) -> Result<WalHeader> {
        if payload.len() < 16 {
            return Err(LdpError::MalformedFrame {
                message: "wal header record shorter than its key/seed trailer".into(),
            });
        }
        let (hello, trailer) = payload.split_at(payload.len() - 16);
        let WireMessage::Hello {
            protocol,
            epsilon,
            specs,
            epoch,
        } = WireMessage::decode(KIND_HELLO, hello)?
        else {
            return Err(LdpError::MalformedFrame {
                message: "wal header prefix did not decode as a hello".into(),
            });
        };
        let ledger_key = u64::from_be_bytes(trailer[..8].try_into().expect("split_at 16"));
        let run_seed = u64::from_be_bytes(trailer[8..].try_into().expect("split_at 16"));
        Ok(WalHeader {
            protocol,
            epsilon,
            specs,
            base_epoch: epoch,
            ledger_key,
            run_seed,
        })
    }

    /// Bit-exact equality (ε compared via `to_bits`, mirroring the
    /// service's idempotent-hello check).
    pub fn matches(&self, other: &WalHeader) -> bool {
        self.protocol == other.protocol
            && self.epsilon.value().to_bits() == other.epsilon.value().to_bits()
            && self.specs == other.specs
            && self.base_epoch == other.base_epoch
            && self.ledger_key == other.ledger_key
            && self.run_seed == other.run_seed
    }
}

/// A fresh log image: the header record and nothing else (what rotation
/// swaps into place once a checkpoint has made the old records redundant).
pub(crate) fn header_only_log(header: &WalHeader) -> Result<Vec<u8>> {
    frame::frame_to_vec(KIND_WAL_HEADER, &header.encode())
}

/// Appender over an open log file.
///
/// The durability contract: [`WalWriter::create`] returns only after the
/// header record is on stable storage, and [`WalWriter::append`] returns
/// only after the record is as durable as the configured [`FsyncPolicy`]
/// promises — `EveryRecord` means the ack that follows is backed by disk,
/// `EveryN`/`OnFlush` trade that window for throughput (group commit).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    policy: FsyncPolicy,
    /// Records appended since the last fsync reached disk.
    unsynced: u64,
    records: u64,
}

impl WalWriter {
    /// Creates a fresh log at `path` holding only the header record,
    /// durably: the file *and its directory entry* are fsynced before any
    /// ack can reference the log.
    ///
    /// # Errors
    /// I/O failures creating, writing, or syncing the file.
    pub fn create(path: &Path, header: &WalHeader, policy: FsyncPolicy) -> Result<WalWriter> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)
            .map_err(|e| disk_err("wal_create", &e))?;
        let image = header_only_log(header)?;
        file.write_all(&image)
            .map_err(|e| disk_err("wal_create", &e))?;
        file.sync_all().map_err(|e| disk_err("wal_create", &e))?;
        ldp_core::fsio::sync_parent_dir(path).map_err(|e| disk_err("wal_create", &e))?;
        Ok(WalWriter {
            file,
            policy,
            unsynced: 0,
            records: 0,
        })
    }

    /// Reopens an existing (recovered and tail-truncated) log for
    /// appending.
    ///
    /// # Errors
    /// I/O failures opening the file.
    pub fn open_end(path: &Path, policy: FsyncPolicy) -> Result<WalWriter> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| disk_err("wal_open", &e))?;
        Ok(WalWriter {
            file,
            policy,
            unsynced: 0,
            records: 0,
        })
    }

    /// Submit records appended through this writer (recovered records are
    /// not counted — they belong to a previous incarnation).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one admitted `Submit` as a [`KIND_WAL_SUBMIT`] frame whose
    /// payload is byte-identical to the wire message, then syncs per the
    /// policy. The crash schedule is consulted after the append and after
    /// any fsync, exactly where a real kill could land.
    ///
    /// # Errors
    /// I/O failures, or the injected crash when the schedule trips.
    pub fn append(&mut self, msg: &WireMessage, crash: &mut Option<CrashSchedule>) -> Result<()> {
        debug_assert_eq!(msg.kind(), KIND_SUBMIT, "only submits are logged");
        let record = frame::frame_to_vec(KIND_WAL_SUBMIT, &msg.payload())?;
        self.file
            .write_all(&record)
            .map_err(|e| disk_err("wal_append", &e))?;
        self.records += 1;
        self.unsynced += 1;
        note(crash, CrashPoint::AfterAppend)?;
        let due = match self.policy {
            FsyncPolicy::EveryRecord => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::OnFlush => false,
        };
        if due {
            self.sync(crash)?;
        }
        Ok(())
    }

    /// Forces every appended record onto stable storage (the `OnFlush`
    /// policy's durability boundary; a no-op when nothing is pending).
    ///
    /// # Errors
    /// I/O failures, or the injected crash when the schedule trips.
    pub fn sync(&mut self, crash: &mut Option<CrashSchedule>) -> Result<()> {
        if self.unsynced > 0 {
            self.file
                .sync_data()
                .map_err(|e| disk_err("wal_fsync", &e))?;
            self.unsynced = 0;
            note(crash, CrashPoint::AfterFsync)?;
        }
        Ok(())
    }
}

/// One admitted `Submit` record, its report borrowed from the log image.
#[derive(Debug, Clone, Copy)]
pub struct SubmitRecord<'a> {
    /// The submitting user's id.
    pub user: u64,
    /// Epoch the report spends its budget in.
    pub epoch: u64,
    /// Block ordinal of the report's partial.
    pub block: u64,
    /// The canonical report bytes.
    pub report: &'a [u8],
}

/// Everything one pass over a log image yields, borrowed from the image.
#[derive(Debug)]
pub struct WalScan<'a> {
    /// The binding header, absent only when the file is empty (a crash
    /// between log creation and the header write).
    pub header: Option<WalHeader>,
    /// The admitted submits, in append order.
    pub submits: Vec<SubmitRecord<'a>>,
    /// Bytes up to and including the last intact record; recovery
    /// truncates the file here.
    pub valid_bytes: u64,
    /// Torn-tail bytes past `valid_bytes` that will be dropped.
    pub truncated_bytes: u64,
}

/// Scans a complete log image, separating a torn tail (the signature of a
/// crash mid-append) from damage that reaches acknowledged records.
///
/// A crash tears at most the record being appended, so a damaged tail is
/// torn only if it fits in one record. The bound is the largest `Submit`
/// record the header's schema admits: a frame cut off by end-of-file (or
/// with an unreadable length field) must leave fewer bytes than that, and
/// a checksum-corrupt record that runs exactly to end-of-file must be no
/// longer. Anything else is mid-log damage: a longer damaged tail, a frame
/// error right after a corrupt record, or intact records after one. The
/// header record has no schema to bound it, so a cut-off header stays a
/// torn tail, as a crash during log creation leaves it; but no writer
/// declares a length above [`frame::MAX_FRAME_PAYLOAD`], and a torn create
/// leaves only a prefix of a valid header, so a header declaring one is
/// damage.
///
/// A log that format version 1 wrote, or whose header declares another
/// version, is refused before any of this: its first record fails the
/// checksum but passes version 1's, or its `Hello` names the version.
///
/// # Errors
/// [`LdpError::UnsupportedVersion`] for a log of another format version;
/// [`LdpError::WalCorrupt`] with the byte offset of the first damaged
/// record for mid-log damage, when a checksum-valid record fails to
/// decode, or when a record kind is out of place.
pub fn scan(buf: &[u8]) -> Result<WalScan<'_>> {
    let mut rest = buf;
    let mut header: Option<WalHeader> = None;
    // Bytes of the largest submit record, once the header names a schema.
    let mut max_record = usize::MAX;
    let mut submits = Vec::new();
    let mut valid_bytes = 0u64;
    // A checksum-corrupt record is only `WalCorrupt` once we know durable
    // bytes follow it; until then it is a candidate torn tail.
    let mut pending_corrupt: Option<(u64, String)> = None;
    loop {
        let offset = (buf.len() - rest.len()) as u64;
        let (kind, payload) = match frame::split_frame(&mut rest) {
            Ok(None) => break, // clean EOF
            Ok(Some((FrameRead::Valid { kind }, payload))) => (kind, payload),
            Ok(Some((FrameRead::Corrupt { declared, computed }, payload))) => {
                if offset == 0 {
                    refuse_v1(buf[4], declared, payload)?;
                }
                if let Some((off, message)) = pending_corrupt.take() {
                    return Err(LdpError::WalCorrupt {
                        offset: off,
                        message,
                    });
                }
                pending_corrupt = Some((
                    offset,
                    format!(
                        "record checksum mismatch: declared {declared:#018x}, computed {computed:#018x}"
                    ),
                ));
                continue;
            }
            Err(LdpError::MalformedFrame { message }) => {
                if let Some((off, message)) = pending_corrupt.take() {
                    return Err(LdpError::WalCorrupt {
                        offset: off,
                        message,
                    });
                }
                if rest.len() >= max_record {
                    return Err(LdpError::WalCorrupt {
                        offset,
                        message: format!(
                            "unreadable record with {} bytes left, more than one record: {message}",
                            rest.len()
                        ),
                    });
                }
                if header.is_none() && declares_oversized_payload(rest) {
                    return Err(LdpError::WalCorrupt {
                        offset,
                        message: format!("header record no writer could produce: {message}"),
                    });
                }
                break; // the torn tail itself: truncate here
            }
            Err(e) => return Err(e),
        };
        if let Some((off, message)) = pending_corrupt.take() {
            return Err(LdpError::WalCorrupt {
                offset: off,
                message,
            });
        }
        match (kind, &header) {
            (KIND_WAL_HEADER, None) if offset == 0 => {
                let h = WalHeader::decode(payload).map_err(header_error)?;
                max_record = frame::FRAME_HEADER_BYTES + max_submit_payload(h.protocol, &h.specs);
                header = Some(h);
            }
            (KIND_WAL_SUBMIT, Some(_)) => {
                let (user, epoch, block, report) =
                    parse_submit(payload).map_err(|e| LdpError::WalCorrupt {
                        offset,
                        message: format!("submit record failed to decode: {e}"),
                    })?;
                submits.push(SubmitRecord {
                    user,
                    epoch,
                    block,
                    report,
                });
            }
            _ => {
                return Err(LdpError::WalCorrupt {
                    offset,
                    message: format!("unexpected record kind {kind}"),
                });
            }
        }
        valid_bytes = (buf.len() - rest.len()) as u64;
    }
    if let Some((off, message)) = pending_corrupt {
        if buf.len() - off as usize > max_record {
            return Err(LdpError::WalCorrupt {
                offset: off,
                message: format!("{message}; the damaged tail is longer than one record"),
            });
        }
    }
    Ok(WalScan {
        header,
        submits,
        valid_bytes,
        truncated_bytes: buf.len() as u64 - valid_bytes,
    })
}

/// Refuses a file whose first record, of `kind` and `payload`, failed its
/// checksum but matches the `declared` one under
/// [`frame::v1_checksum`]: format version 1 wrote the file, so it is
/// neither damage nor a torn tail, and recovery leaves it as it is.
///
/// # Errors
/// [`LdpError::UnsupportedVersion`] for a version 1 record.
pub(crate) fn refuse_v1(kind: u8, declared: u64, payload: &[u8]) -> Result<()> {
    if frame::v1_checksum(kind, payload) == declared {
        return Err(LdpError::UnsupportedVersion {
            found: 1,
            supported: frame::FORMAT_VERSION,
        });
    }
    Ok(())
}

/// The error of a checksum-valid header record (the first record of a log
/// or a checkpoint) that failed to decode: a version it does not read
/// stays [`LdpError::UnsupportedVersion`], anything else is damage.
pub(crate) fn header_error(e: LdpError) -> LdpError {
    match e {
        LdpError::UnsupportedVersion { .. } => e,
        e => LdpError::WalCorrupt {
            offset: 0,
            message: format!("header record failed to decode: {e}"),
        },
    }
}

/// True when `buf` starts with a complete frame length field declaring a
/// payload above [`frame::MAX_FRAME_PAYLOAD`].
fn declares_oversized_payload(buf: &[u8]) -> bool {
    buf.first_chunk::<4>()
        .is_some_and(|len| u32::from_be_bytes(*len) as usize > frame::MAX_FRAME_PAYLOAD)
}
