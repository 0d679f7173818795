//! Epoch checkpoints: the full service state — ordinal-keyed aggregator
//! partials, the budget ledger (keyed hashes, which the ledger key
//! inverts back to the ids), and the malformed-rejection counter — as a
//! sequence of checksummed frames behind one atomic tmp+rename. The
//! first frame is the log's header record, so a checkpoint carries the
//! format version its `Hello` payload opens with.
//!
//! A checkpoint file can never be torn (the rename is atomic and the
//! [`ldp_core::fsio`] sequence makes it durable), so *any* integrity
//! failure while decoding one is [`LdpError::WalCorrupt`] — there is no
//! torn-tail tolerance here, unlike the log.

use super::wal::{header_error, refuse_v1, WalHeader, KIND_WAL_HEADER};
use crate::ledger::BudgetLedger;
use crate::service::{ReportService, ServiceConfig};
use ldp_core::frame::{self, FrameRead};
use ldp_core::multidim::wire::{BitReader, BitWriter};
use ldp_core::{LdpError, Result};

/// File name of the checkpoint inside a durable directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Frame kind of the checkpoint's meta record: the malformed-rejection
/// counter and the epoch-record count.
pub const KIND_CHECKPOINT_META: u8 = 11;
/// Frame kind of one epoch's aggregator partial state.
pub const KIND_CHECKPOINT_EPOCH: u8 = 12;
/// Frame kind of the serialized budget ledger (always the final record).
pub const KIND_CHECKPOINT_LEDGER: u8 = 13;

/// One captured service state, ready to encode or install.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The session binding, identical to the log's header record.
    pub header: WalHeader,
    /// Lifetime malformed-rejection counter at capture time.
    pub rejected_malformed: u64,
    /// Per-epoch [`crate::session::Aggregator::encode_partials`] bytes,
    /// ascending by epoch.
    pub epochs: Vec<(u64, Vec<u8>)>,
    /// [`BudgetLedger::encode_state`] bytes.
    pub ledger: Vec<u8>,
}

impl Checkpoint {
    /// Captures `service`'s complete durable state under `header`.
    pub fn capture(service: &ReportService, header: &WalHeader) -> Checkpoint {
        let epochs = service
            .epochs()
            .filter_map(|e| service.encode_epoch_partials(e).map(|bytes| (e, bytes)))
            .collect();
        Checkpoint {
            header: header.clone(),
            rejected_malformed: service.rejected_malformed(),
            epochs,
            ledger: service.ledger().encode_state(),
        }
    }

    /// Serializes the checkpoint as framed records: header, meta, one
    /// record per epoch, ledger. Every record carries the frame layer's
    /// word-at-a-time checksum ([`frame::frame_checksum`]), which is the
    /// file's integrity check.
    ///
    /// # Errors
    /// [`LdpError::MalformedFrame`] when a record exceeds the frame payload
    /// cap ([`frame::MAX_FRAME_PAYLOAD`], 16 MiB). The whole ledger is one
    /// record of 12 bytes plus 24 + 8·n per epoch of n admitted users, so
    /// one epoch overflows it at 2,097,148 users, and more epochs overflow
    /// it sooner. From then on no checkpoint can be written and the log
    /// never rotates; splitting the ledger record into chunks is a format
    /// change.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        frame::write_frame(&mut out, KIND_WAL_HEADER, &self.header.encode())?;
        let mut w = BitWriter::new();
        w.write_bits(self.rejected_malformed, 64);
        w.write_bits(self.epochs.len() as u64, 32);
        frame::write_frame(&mut out, KIND_CHECKPOINT_META, &w.finish())?;
        for (epoch, partials) in &self.epochs {
            let mut w = BitWriter::new();
            w.write_bits(*epoch, 64);
            let mut payload = w.finish();
            payload.extend_from_slice(partials);
            frame::write_frame(&mut out, KIND_CHECKPOINT_EPOCH, &payload)?;
        }
        frame::write_frame(&mut out, KIND_CHECKPOINT_LEDGER, &self.ledger)?;
        Ok(out)
    }

    /// Inverse of [`Checkpoint::encode`], rejecting any deviation from the
    /// declared record sequence.
    ///
    /// # Errors
    /// [`LdpError::UnsupportedVersion`] for a checkpoint of another format
    /// version: one whose first record passes only the version 1
    /// checksum, or whose header declares another version.
    /// [`LdpError::WalCorrupt`] with the offending record's byte offset on
    /// checksum mismatch, truncation, out-of-order records, or trailing
    /// data.
    pub fn decode(buf: &[u8]) -> Result<Checkpoint> {
        let corrupt = |offset: u64, message: String| LdpError::WalCorrupt { offset, message };
        let mut cursor: &[u8] = buf;
        let mut payload = Vec::new();
        let mut header: Option<WalHeader> = None;
        let mut meta: Option<(u64, usize)> = None;
        let mut epochs: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut ledger: Option<Vec<u8>> = None;
        loop {
            let offset = (buf.len() - cursor.len()) as u64;
            let kind = match frame::read_frame(&mut cursor, &mut payload) {
                Ok(None) => break,
                Ok(Some(FrameRead::Valid { kind })) => kind,
                Ok(Some(FrameRead::Corrupt { declared, computed })) => {
                    if offset == 0 {
                        refuse_v1(buf[4], declared, &payload)?;
                    }
                    return Err(corrupt(
                        offset,
                        format!(
                            "checkpoint record checksum mismatch: declared {declared:#018x}, computed {computed:#018x}"
                        ),
                    ));
                }
                Err(e) => return Err(corrupt(offset, format!("checkpoint unreadable: {e}"))),
            };
            if ledger.is_some() {
                return Err(corrupt(offset, "record after the ledger record".into()));
            }
            match kind {
                KIND_WAL_HEADER if header.is_none() && offset == 0 => {
                    header = Some(WalHeader::decode(&payload).map_err(header_error)?);
                }
                KIND_CHECKPOINT_META if header.is_some() && meta.is_none() => {
                    let mut r = BitReader::new(&payload);
                    let rejected = r
                        .read_bits(64)
                        .map_err(|e| corrupt(offset, format!("meta record truncated: {e}")))?;
                    let count = r
                        .read_bits(32)
                        .map_err(|e| corrupt(offset, format!("meta record truncated: {e}")))?;
                    meta = Some((rejected, count as usize));
                }
                KIND_CHECKPOINT_EPOCH if meta.is_some() => {
                    if payload.len() < 8 {
                        return Err(corrupt(offset, "epoch record shorter than its key".into()));
                    }
                    let epoch = u64::from_be_bytes(payload[..8].try_into().expect("checked len"));
                    epochs.push((epoch, payload[8..].to_vec()));
                }
                KIND_CHECKPOINT_LEDGER if meta.is_some() => {
                    ledger = Some(payload.clone());
                }
                _ => {
                    return Err(corrupt(
                        offset,
                        format!("unexpected checkpoint record kind {kind}"),
                    ));
                }
            }
        }
        let header = header.ok_or_else(|| corrupt(0, "missing header record".into()))?;
        let (rejected_malformed, declared_epochs) =
            meta.ok_or_else(|| corrupt(0, "missing meta record".into()))?;
        let ledger = ledger.ok_or_else(|| corrupt(0, "missing ledger record".into()))?;
        if epochs.len() != declared_epochs {
            return Err(corrupt(
                0,
                format!(
                    "meta declared {declared_epochs} epoch records, found {}",
                    epochs.len()
                ),
            ));
        }
        Ok(Checkpoint {
            header,
            rejected_malformed,
            epochs,
            ledger,
        })
    }

    /// Rebuilds a [`ReportService`] from this checkpoint: re-issue the
    /// header's `Hello`, restore the counter, each epoch's partials, and
    /// the ledger. Returns the service plus the number of admits the
    /// checkpoint covers (the `checkpointed` term of the conservation
    /// invariant `admitted == wal_replayed + checkpointed`).
    ///
    /// # Errors
    /// Schema validation or state-codec failures.
    pub fn install(self) -> Result<(ReportService, u64)> {
        let mut service = ReportService::new(ServiceConfig {
            ledger_key: self.header.ledger_key,
        });
        service.handle(&self.header.hello())?;
        service.restore_counters(self.rejected_malformed);
        for (epoch, bytes) in &self.epochs {
            service.restore_epoch_partials(*epoch, bytes)?;
        }
        service.restore_ledger(BudgetLedger::decode_state(&self.ledger)?)?;
        let ledger = service.ledger();
        let checkpointed = ledger.epochs().map(|e| ledger.admitted(e)).sum();
        Ok((service, checkpointed))
    }
}
