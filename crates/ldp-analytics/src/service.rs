//! The wire boundary: the report-stream protocol and the aggregation
//! service behind it.
//!
//! [`pipeline::Collector`] and the session API assume reports arrive as
//! in-process values. A deployment looks different: millions of untrusted
//! clients serialize reports onto sockets, and an aggregator absorbs
//! whatever bytes actually show up — duplicated, truncated, corrupted, or
//! adversarial. This module defines the messages and [`ReportService`],
//! which applies one decoded message at a time. The one loop that reads
//! frames off a stream and answers each with a verdict is
//! [`ConnHandle::serve_stream`](crate::transport::ConnHandle::serve_stream)
//! in the [`transport`](crate::transport) layer.
//!
//! ## Wire protocol
//!
//! Every message travels in one [`ldp_core::frame`] frame (length, kind
//! byte, word-at-a-time checksum, payload). Payloads are bit-packed with
//! the same [`BitWriter`]/[`BitReader`] primitives as the report codecs:
//!
//! | kind | message | payload |
//! |---|---|---|
//! | 1 | [`WireMessage::Hello`] | format version, then protocol/ε/schema/epoch — the session parameters |
//! | 2 | [`WireMessage::Submit`] | user id, epoch, block ordinal, report bytes |
//! | 3 | [`WireMessage::FlushEpoch`] | epoch to flush |
//! | 4 | [`WireMessage::Shutdown`] | empty |
//!
//! Report bytes inside `Submit` are [`encode_report`]'s canonical layout
//! for the session's protocol ([`wire::encode_sampled`] for Algorithm 4
//! reports, [`wire::encode_full`] for the best-effort baselines), and
//! [`decode_report`] accepts nothing else.
//!
//! A `Hello` opens with the 16-bit [`frame::FORMAT_VERSION`] (2). The
//! durable log and checkpoint headers embed the `Hello` payload, so they
//! carry the version too, and every decoder refuses another one with
//! [`LdpError::UnsupportedVersion`]. Version 1 had no version field and
//! checksummed frames with FNV-1a; a version 1 client's frames fail the
//! checksum and earn a `Resend`.
//!
//! ## Validation discipline
//!
//! Nothing touches aggregate state until it has fully cleared three gates,
//! in order: the **frame** gate (length sane, checksum matches), the
//! **message** gate (payload parses as its kind; the report bytes decode
//! once, at their exact canonical length, and the report validates once
//! against the session's schema and protocol), and the **ledger** gate
//! (the user has not already spent this epoch's budget). Only then is the
//! report counted, without a second validation.
//! A failure at any gate is a typed [`LdpError`] — never a panic — and
//! leaves the aggregate bit-identical to before the frame arrived; the
//! `proptest_service` suite drives truncated, bit-flipped and oversized
//! frames through the server to pin exactly that. Malformed messages and
//! duplicates are counted, and the counts surface in every
//! [`EpochSnapshot`]; a checksum-corrupt frame never reaches the service —
//! the connection answers it with [`ResponseMessage::Resend`] and counts
//! it in its [`TransportStats`](crate::transport::TransportStats).
//!
//! ## Determinism across the wire
//!
//! `Submit` carries the block ordinal assigned by the distribution tier
//! (the [`pipeline::block_partition`] index in simulations). The service
//! routes each report into the partial keyed by its ordinal, so N service
//! shards fed arbitrary interleavings of the same reports tree-merge —
//! in any order — to a snapshot bit-identical to a single-process
//! [`pipeline::Collector::run`]. The CI determinism diff covers this path.
//!
//! ## Example: serving a framed byte stream
//!
//! A [`ReportServer`](crate::transport::ReportServer) serves one
//! connection per `serve_stream` call until `Shutdown` or EOF; here the
//! connection is a recorded in-memory stream. (Live connections with
//! reconnects use the same server behind
//! [`ReportClient`](crate::transport::ReportClient) and real sockets.)
//!
//! ```
//! use ldp_analytics::service::{encode_report, WireMessage};
//! use ldp_analytics::transport::{ReportServer, ScriptedStream, ServerConfig};
//! use ldp_analytics::{ClientEncoder, Protocol};
//! use ldp_core::multidim::{AttrSpec, AttrValue};
//! use ldp_core::rng::seeded_rng;
//! use ldp_core::{Epsilon, LdpError, NumericKind, OracleKind};
//!
//! let protocol = Protocol::Sampling {
//!     numeric: NumericKind::Hybrid,
//!     oracle: OracleKind::Oue,
//! };
//! let epsilon = Epsilon::new(1.0)?;
//! let specs = vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 4 }];
//!
//! // Clients frame Hello + one Submit each onto the wire.
//! let mut wire = Vec::new();
//! WireMessage::Hello {
//!     protocol,
//!     epsilon,
//!     specs: specs.clone(),
//!     epoch: 0,
//! }
//! .write_to(&mut wire)?;
//! let encoder = ClientEncoder::new(protocol, epsilon, specs.clone())?;
//! let mut rng = seeded_rng(7);
//! for user in 0..100u64 {
//!     let report = encoder.encode(
//!         &[AttrValue::Numeric(0.5), AttrValue::Categorical(1)],
//!         &mut rng,
//!     )?;
//!     WireMessage::Submit {
//!         user,
//!         epoch: 0,
//!         block: user / 32, // merge ordinal from the distribution tier
//!         report: encode_report(&report, &specs),
//!     }
//!     .write_to(&mut wire)?;
//! }
//! // A duplicate submit: the ledger rejects it without touching state.
//! let report = encoder.encode(
//!     &[AttrValue::Numeric(0.5), AttrValue::Categorical(1)],
//!     &mut rng,
//! )?;
//! WireMessage::Submit {
//!     user: 42,
//!     epoch: 0,
//!     block: 1,
//!     report: encode_report(&report, &specs),
//! }
//! .write_to(&mut wire)?;
//! WireMessage::Shutdown.write_to(&mut wire)?;
//!
//! // The aggregator side: one connection served through the shipping loop.
//! let server = ReportServer::start(ServerConfig::default());
//! let summary = server.handle().serve_stream(&mut ScriptedStream::new(&wire));
//! assert!(summary.shutdown);
//! let service = server.finish();
//! let snapshot = service.snapshot_epoch(0)?;
//! assert_eq!(snapshot.admitted, 100);
//! assert_eq!(snapshot.rejected_duplicates, 1);
//! let estimates = &snapshot.result; // debiased means + frequencies
//! # let _ = estimates;
//! # Ok::<(), LdpError>(())
//! ```

use crate::ledger::BudgetLedger;
use crate::pipeline::{self, CollectionResult, Protocol};
use crate::session::{Aggregator, Report};
use ldp_core::frame::{self, FrameRead};
use ldp_core::multidim::wire::{self, BitReader, BitWriter};
use ldp_core::multidim::{AttrSpec, SparseReport};
use ldp_core::{Epsilon, LdpError, NumericKind, OracleKind, Result};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};

/// Frame kind of [`WireMessage::Hello`].
pub const KIND_HELLO: u8 = 1;
/// Frame kind of [`WireMessage::Submit`].
pub const KIND_SUBMIT: u8 = 2;
/// Frame kind of [`WireMessage::FlushEpoch`].
pub const KIND_FLUSH_EPOCH: u8 = 3;
/// Frame kind of [`WireMessage::Shutdown`].
pub const KIND_SHUTDOWN: u8 = 4;
/// Frame kind of [`ResponseMessage::Ack`] (server → client).
pub const KIND_ACK: u8 = 5;
/// Frame kind of [`ResponseMessage::HelloAck`] (server → client).
pub const KIND_HELLO_ACK: u8 = 6;
/// Frame kind of [`ResponseMessage::SnapshotAck`] (server → client).
pub const KIND_SNAPSHOT_ACK: u8 = 7;
/// Frame kind of [`ResponseMessage::Resend`] (server → client).
pub const KIND_RESEND: u8 = 8;

/// Byte length of the `Submit` envelope before the report bytes:
/// user id, epoch, block ordinal — three 64-bit fields.
const SUBMIT_ENVELOPE_BYTES: usize = 24;

/// Bits of a `Hello` before its attribute specs: the format version,
/// the three protocol codes, ε, the base epoch and the attribute count.
const HELLO_HEADER_BITS: usize = 16 + 8 + 8 + 8 + 64 + 64 + 16;

/// Largest `Hello` payload: `u16::MAX` attributes, each categorical (a
/// flag bit and a 32-bit `k`).
const MAX_HELLO_PAYLOAD: usize = (HELLO_HEADER_BITS + 33 * u16::MAX as usize).div_ceil(8);

fn malformed(message: String) -> LdpError {
    LdpError::MalformedFrame { message }
}

/// Stable wire codes for [`Protocol`]: family, numeric kind, oracle kind.
fn protocol_codes(protocol: Protocol) -> (u64, u64, u64) {
    let numeric_code = |kind: NumericKind| {
        NumericKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("ALL is exhaustive") as u64
    };
    let oracle_code = |kind: OracleKind| {
        OracleKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("ALL is exhaustive") as u64
    };
    match protocol {
        Protocol::Sampling { numeric, oracle } => (0, numeric_code(numeric), oracle_code(oracle)),
        Protocol::BestEffort {
            numeric: pipeline::BestEffortNumeric::PerAttribute(kind),
            oracle,
        } => (1, numeric_code(kind), oracle_code(oracle)),
        Protocol::BestEffort {
            numeric: pipeline::BestEffortNumeric::DuchiMultidim,
            oracle,
        } => (2, 0, oracle_code(oracle)),
    }
}

fn protocol_from_codes(family: u64, numeric: u64, oracle: u64) -> Result<Protocol> {
    let numeric_kind = |code: u64| {
        NumericKind::ALL
            .get(code as usize)
            .copied()
            .ok_or_else(|| malformed(format!("unknown numeric-kind code {code}")))
    };
    let oracle = OracleKind::ALL
        .get(oracle as usize)
        .copied()
        .ok_or_else(|| malformed(format!("unknown oracle code {oracle}")))?;
    match family {
        0 => Ok(Protocol::Sampling {
            numeric: numeric_kind(numeric)?,
            oracle,
        }),
        1 => Ok(Protocol::BestEffort {
            numeric: pipeline::BestEffortNumeric::PerAttribute(numeric_kind(numeric)?),
            oracle,
        }),
        2 => Ok(Protocol::BestEffort {
            numeric: pipeline::BestEffortNumeric::DuchiMultidim,
            oracle,
        }),
        other => Err(malformed(format!("unknown protocol family code {other}"))),
    }
}

/// One message of the report-stream protocol.
///
/// The client-side counterpart of [`ReportService`]: build a message,
/// [`write_to`](WireMessage::write_to) any byte sink, and the service on
/// the other end will absorb it.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Opens (or re-asserts) a session: the public knowledge both sides
    /// must agree on before any report can be interpreted. Idempotent —
    /// every client on a shared stream may send its own identical `Hello`
    /// — but a `Hello` disagreeing with the established session is
    /// rejected.
    Hello {
        /// The collection protocol reports will follow.
        protocol: Protocol,
        /// Per-user privacy budget (exact bits travel on the wire, so both
        /// sides derive identical debias parameters).
        epsilon: Epsilon,
        /// The public schema, in attribute order.
        specs: Vec<AttrSpec>,
        /// First epoch this session collects; submits for earlier epochs
        /// are rejected as stale.
        epoch: u64,
    },
    /// One user's perturbed report for one epoch.
    Submit {
        /// The submitting user's id. Ledger state stores a keyed hash of
        /// it, which the ledger key inverts (see [`crate::ledger`]).
        user: u64,
        /// Epoch the report spends its budget in.
        epoch: u64,
        /// Block ordinal assigned by the distribution tier — the report's
        /// position key in the canonical merge fold (see the module docs).
        block: u64,
        /// The report, encoded with [`encode_report`].
        report: Vec<u8>,
    },
    /// The durability boundary of one epoch: a durable server forces its
    /// log to disk and checkpoints, and every server answers with the
    /// epoch's [`FlushReceipt`] counters. Estimates are read with
    /// [`ReportService::snapshot_epoch`].
    FlushEpoch {
        /// Epoch to flush.
        epoch: u64,
    },
    /// Ends the connection: [`ConnHandle::serve_stream`] returns after
    /// reading it, without a response.
    ///
    /// [`ConnHandle::serve_stream`]: crate::transport::ConnHandle::serve_stream
    Shutdown,
}

impl WireMessage {
    /// This message's frame kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            WireMessage::Hello { .. } => KIND_HELLO,
            WireMessage::Submit { .. } => KIND_SUBMIT,
            WireMessage::FlushEpoch { .. } => KIND_FLUSH_EPOCH,
            WireMessage::Shutdown => KIND_SHUTDOWN,
        }
    }

    // `pub(crate)` so the durable WAL can log the byte-identical payload a
    // `Submit` travels the wire as (replay reads it back with
    // `parse_submit`, the parser `decode` runs).
    pub(crate) fn payload(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        match self {
            WireMessage::Hello {
                protocol,
                epsilon,
                specs,
                epoch,
            } => {
                let (family, numeric, oracle) = protocol_codes(*protocol);
                w.write_bits(u64::from(frame::FORMAT_VERSION), 16);
                w.write_bits(family, 8);
                w.write_bits(numeric, 8);
                w.write_bits(oracle, 8);
                w.write_bits(epsilon.value().to_bits(), 64);
                w.write_bits(*epoch, 64);
                w.write_bits(specs.len() as u64, 16);
                for spec in specs {
                    match spec {
                        AttrSpec::Numeric => w.write_bits(0, 1),
                        AttrSpec::Categorical { k } => {
                            w.write_bits(1, 1);
                            w.write_bits(u64::from(*k), 32);
                        }
                    }
                }
                w.finish()
            }
            WireMessage::Submit {
                user,
                epoch,
                block,
                report,
            } => {
                w.write_bits(*user, 64);
                w.write_bits(*epoch, 64);
                w.write_bits(*block, 64);
                let mut payload = w.finish();
                payload.extend_from_slice(report);
                payload
            }
            WireMessage::FlushEpoch { epoch } => {
                w.write_bits(*epoch, 64);
                w.finish()
            }
            WireMessage::Shutdown => Vec::new(),
        }
    }

    /// Encodes this message as one complete frame.
    pub fn to_frame(&self) -> Result<Vec<u8>> {
        frame::frame_to_vec(self.kind(), &self.payload())
    }

    /// Writes this message as one frame to `w`.
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> Result<()> {
        frame::write_frame(w, self.kind(), &self.payload())
    }

    /// Decodes a verified frame payload back into a message.
    ///
    /// # Errors
    /// [`LdpError::UnsupportedVersion`] for a `Hello` of another format
    /// version than [`frame::FORMAT_VERSION`];
    /// [`LdpError::MalformedFrame`] on unknown kinds, truncated payloads,
    /// out-of-range codes, an invalid ε, or trailing bytes. Decoding never
    /// panics, whatever the payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<WireMessage> {
        let bit_err = |what: &str, e: LdpError| malformed(format!("bad {what} message: {e}"));
        match kind {
            KIND_HELLO => {
                let mut r = BitReader::new(payload);
                let read = |r: &mut BitReader<'_>, width| {
                    r.read_bits(width).map_err(|e| bit_err("hello", e))
                };
                let version = read(&mut r, 16)? as u16;
                if version != frame::FORMAT_VERSION {
                    return Err(LdpError::UnsupportedVersion {
                        found: version,
                        supported: frame::FORMAT_VERSION,
                    });
                }
                let family = read(&mut r, 8)?;
                let numeric = read(&mut r, 8)?;
                let oracle = read(&mut r, 8)?;
                let protocol = protocol_from_codes(family, numeric, oracle)?;
                let eps_bits = read(&mut r, 64)?;
                let epsilon =
                    Epsilon::new(f64::from_bits(eps_bits)).map_err(|e| bit_err("hello", e))?;
                let epoch = read(&mut r, 64)?;
                let d = read(&mut r, 16)? as usize;
                let mut bits = HELLO_HEADER_BITS;
                // `d` is untrusted: reserve no more specs than the payload
                // can hold at one bit each.
                let mut specs = Vec::with_capacity(d.min((payload.len() * 8).saturating_sub(bits)));
                for _ in 0..d {
                    if read(&mut r, 1)? == 0 {
                        specs.push(AttrSpec::Numeric);
                        bits += 1;
                    } else {
                        let k = read(&mut r, 32)? as u32;
                        specs.push(AttrSpec::Categorical { k });
                        bits += 1 + 32;
                    }
                }
                if payload.len() != bits.div_ceil(8) {
                    return Err(malformed(format!(
                        "hello message has {} bytes, expected {}",
                        payload.len(),
                        bits.div_ceil(8)
                    )));
                }
                Ok(WireMessage::Hello {
                    protocol,
                    epsilon,
                    specs,
                    epoch,
                })
            }
            KIND_SUBMIT => {
                let (user, epoch, block, report) = parse_submit(payload)?;
                Ok(WireMessage::Submit {
                    user,
                    epoch,
                    block,
                    report: report.to_vec(),
                })
            }
            KIND_FLUSH_EPOCH => {
                if payload.len() != 8 {
                    return Err(malformed(format!(
                        "flush-epoch message has {} bytes, expected 8",
                        payload.len()
                    )));
                }
                let mut r = BitReader::new(payload);
                let epoch = r.read_bits(64).map_err(|e| bit_err("flush-epoch", e))?;
                Ok(WireMessage::FlushEpoch { epoch })
            }
            KIND_SHUTDOWN => {
                if !payload.is_empty() {
                    return Err(malformed(format!(
                        "shutdown message carries {} unexpected bytes",
                        payload.len()
                    )));
                }
                Ok(WireMessage::Shutdown)
            }
            other => Err(malformed(format!("unknown message kind {other}"))),
        }
    }

    /// Reads and decodes the next message from `r`.
    ///
    /// `Ok(None)` on clean end of stream. A checksum-corrupt frame is
    /// reported as a [`LdpError::MalformedFrame`] here — a reader that
    /// answers it and keeps going (as [`ConnHandle::serve_stream`] does
    /// with a `Resend`) uses [`ldp_core::frame::read_frame`] directly to
    /// keep the distinction.
    ///
    /// [`ConnHandle::serve_stream`]: crate::transport::ConnHandle::serve_stream
    pub fn read_from<R: Read + ?Sized>(
        r: &mut R,
        scratch: &mut Vec<u8>,
    ) -> Result<Option<WireMessage>> {
        match frame::read_frame(r, scratch)? {
            None => Ok(None),
            Some(FrameRead::Valid { kind }) => WireMessage::decode(kind, scratch).map(Some),
            Some(FrameRead::Corrupt { declared, computed }) => Err(malformed(format!(
                "frame checksum mismatch: declared {declared:#018x}, computed {computed:#018x}"
            ))),
        }
    }
}

/// Reads a `Submit` payload as `(user, epoch, block, report bytes)`, the
/// report borrowed from `payload`. The one `Submit` parser:
/// [`WireMessage::decode`] copies the report out of it, and WAL replay
/// hands it to the service in place.
///
/// # Errors
/// [`LdpError::MalformedFrame`] when the payload is shorter than the
/// envelope.
pub(crate) fn parse_submit(payload: &[u8]) -> Result<(u64, u64, u64, &[u8])> {
    let Some((envelope, report)) = payload.split_first_chunk::<SUBMIT_ENVELOPE_BYTES>() else {
        return Err(malformed(format!(
            "submit envelope needs {SUBMIT_ENVELOPE_BYTES} bytes, got {}",
            payload.len()
        )));
    };
    let field =
        |i: usize| u64::from_be_bytes(envelope[8 * i..8 * i + 8].try_into().expect("eight bytes"));
    Ok((field(0), field(1), field(2), report))
}

/// Verdict a server attaches to one client message — the payload of
/// [`ResponseMessage::Ack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// The report cleared every gate and was absorbed.
    Admitted,
    /// The user's per-epoch budget was already spent. For a retrying
    /// client this is a *success*: some earlier attempt landed, and the
    /// ledger made the resend a no-op instead of a double spend.
    Duplicate,
    /// The message failed validation and will fail identically if resent
    /// unchanged — a permanent rejection.
    Rejected,
    /// The server's in-flight bound shed the message before it touched any
    /// state; retry after backoff.
    Overloaded,
}

impl AckOutcome {
    fn code(self) -> u64 {
        match self {
            AckOutcome::Admitted => 0,
            AckOutcome::Duplicate => 1,
            AckOutcome::Rejected => 2,
            AckOutcome::Overloaded => 3,
        }
    }

    fn from_code(code: u64) -> Result<Self> {
        Ok(match code {
            0 => AckOutcome::Admitted,
            1 => AckOutcome::Duplicate,
            2 => AckOutcome::Rejected,
            3 => AckOutcome::Overloaded,
            other => return Err(malformed(format!("unknown ack outcome code {other}"))),
        })
    }
}

/// One server→client message of the transport protocol.
///
/// The transport layer answers every inbound frame with exactly one
/// response frame, in order, so a client matches responses to requests
/// positionally; `Ack` additionally echoes the submit's user and epoch so
/// a desynchronized client fails loudly instead of mis-crediting an ack.
/// Kinds `5..=8` are disjoint from the client-side kinds `1..=4`, so a
/// frame can never be mistaken for traffic of the wrong direction.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseMessage {
    /// Verdict on one `Submit` (or, with `user`/`epoch` zero, an overload
    /// or rejection verdict on a non-submit message).
    Ack {
        /// User id echoed from the submit (`0` when the request carried
        /// none).
        user: u64,
        /// Epoch echoed from the request (`0` when it carried none).
        epoch: u64,
        /// The verdict.
        outcome: AckOutcome,
    },
    /// The session `Hello` was accepted (first or idempotent replay).
    HelloAck,
    /// Answer to `FlushEpoch`: the epoch's [`FlushReceipt`] counters, read
    /// without folding or debiasing anything. The estimates stay
    /// server-side, read with [`ReportService::snapshot_epoch`].
    SnapshotAck {
        /// Epoch flushed.
        epoch: u64,
        /// Distinct users admitted in that epoch.
        admitted: u64,
        /// Duplicate reports rejected in that epoch.
        rejected_duplicates: u64,
        /// Service-lifetime malformed rejections at flush time.
        rejected_malformed: u64,
        /// Reports absorbed into the epoch's aggregate (`0` for an epoch no
        /// report has reached).
        users: u64,
    },
    /// The inbound frame failed its checksum. The reader is still
    /// synchronized, the request was never interpreted — resend it.
    Resend,
}

impl ResponseMessage {
    /// This message's frame kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            ResponseMessage::Ack { .. } => KIND_ACK,
            ResponseMessage::HelloAck => KIND_HELLO_ACK,
            ResponseMessage::SnapshotAck { .. } => KIND_SNAPSHOT_ACK,
            ResponseMessage::Resend => KIND_RESEND,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        match self {
            ResponseMessage::Ack {
                user,
                epoch,
                outcome,
            } => {
                w.write_bits(*user, 64);
                w.write_bits(*epoch, 64);
                w.write_bits(outcome.code(), 8);
                w.finish()
            }
            ResponseMessage::HelloAck | ResponseMessage::Resend => Vec::new(),
            ResponseMessage::SnapshotAck {
                epoch,
                admitted,
                rejected_duplicates,
                rejected_malformed,
                users,
            } => {
                for field in [
                    epoch,
                    admitted,
                    rejected_duplicates,
                    rejected_malformed,
                    users,
                ] {
                    w.write_bits(*field, 64);
                }
                w.finish()
            }
        }
    }

    /// Encodes this message as one complete frame.
    pub fn to_frame(&self) -> Result<Vec<u8>> {
        frame::frame_to_vec(self.kind(), &self.payload())
    }

    /// Writes this message as one frame to `w`.
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> Result<()> {
        frame::write_frame(w, self.kind(), &self.payload())
    }

    /// Decodes a verified frame payload back into a response.
    ///
    /// # Errors
    /// [`LdpError::MalformedFrame`] on unknown kinds, wrong payload
    /// lengths, or out-of-range outcome codes; never panics.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<ResponseMessage> {
        let exact_len = |what: &str, expected: usize| {
            if payload.len() == expected {
                Ok(())
            } else {
                Err(malformed(format!(
                    "{what} response has {} bytes, expected {expected}",
                    payload.len()
                )))
            }
        };
        match kind {
            KIND_ACK => {
                exact_len("ack", 17)?;
                let mut r = BitReader::new(payload);
                let mut read = |width| {
                    r.read_bits(width)
                        .map_err(|e| malformed(format!("bad ack response: {e}")))
                };
                Ok(ResponseMessage::Ack {
                    user: read(64)?,
                    epoch: read(64)?,
                    outcome: AckOutcome::from_code(read(8)?)?,
                })
            }
            KIND_HELLO_ACK => {
                exact_len("hello-ack", 0)?;
                Ok(ResponseMessage::HelloAck)
            }
            KIND_SNAPSHOT_ACK => {
                exact_len("snapshot-ack", 40)?;
                let mut r = BitReader::new(payload);
                let mut read = || {
                    r.read_bits(64)
                        .map_err(|e| malformed(format!("bad snapshot-ack response: {e}")))
                };
                Ok(ResponseMessage::SnapshotAck {
                    epoch: read()?,
                    admitted: read()?,
                    rejected_duplicates: read()?,
                    rejected_malformed: read()?,
                    users: read()?,
                })
            }
            KIND_RESEND => {
                exact_len("resend", 0)?;
                Ok(ResponseMessage::Resend)
            }
            other => Err(malformed(format!("unknown response kind {other}"))),
        }
    }

    /// Reads and decodes the next response from `r`.
    ///
    /// `Ok(None)` on clean end of stream; a checksum-corrupt frame is a
    /// [`LdpError::MalformedFrame`] — the client cannot know what verdict
    /// the garbled frame carried, so its only safe move is an idempotent
    /// resend over a fresh connection.
    pub fn read_from<R: Read + ?Sized>(
        r: &mut R,
        scratch: &mut Vec<u8>,
    ) -> Result<Option<ResponseMessage>> {
        match frame::read_frame(r, scratch)? {
            None => Ok(None),
            Some(FrameRead::Valid { kind }) => ResponseMessage::decode(kind, scratch).map(Some),
            Some(FrameRead::Corrupt { declared, computed }) => Err(malformed(format!(
                "response frame checksum mismatch: declared {declared:#018x}, \
                 computed {computed:#018x}"
            ))),
        }
    }
}

/// Encodes a session report into its canonical wire bytes: the variant
/// picks the layout — [`wire::encode_sampled`] for
/// [`Report::Sampling`] (entry count, then index + payload per entry),
/// [`wire::encode_full`] for [`Report::Composition`] (numeric payloads,
/// then categorical ones).
///
/// # Panics
/// Panics if the report disagrees with `specs` (reports produced by a
/// [`crate::ClientEncoder`] on the same schema always agree).
pub fn encode_report(report: &Report, specs: &[AttrSpec]) -> Vec<u8> {
    match report {
        Report::Sampling(sparse) => wire::encode_sampled(sparse, specs),
        Report::Composition(full) => wire::encode_full(full, specs),
    }
}

/// Decodes canonical report bytes for `protocol` over `specs` into a
/// fresh report. The service's `Submit` path runs the same decoder into
/// a per-thread recycled report. Only the canonical length is accepted: trailing
/// bytes would let a client smuggle stream junk.
///
/// # Errors
/// [`LdpError::MalformedFrame`] on a non-canonical length, other typed
/// [`LdpError`]s on truncated or out-of-domain payloads; never panics.
pub fn decode_report(protocol: Protocol, specs: &[AttrSpec], bytes: &[u8]) -> Result<Report> {
    let mut report = report_of(protocol, SparseReport::with_capacity(specs.len(), 0));
    decode_report_into(protocol, specs, bytes, &mut report)?;
    Ok(report)
}

/// [`decode_report`] into `report`, refilling its entry slots in place
/// (see [`wire::decode_sampled_into`]).
fn decode_report_into(
    protocol: Protocol,
    specs: &[AttrSpec],
    bytes: &[u8],
    report: &mut Report,
) -> Result<()> {
    let unary = is_unary(protocol);
    match (protocol, &mut *report) {
        (Protocol::Sampling { .. }, Report::Sampling(sparse)) => {
            wire::decode_sampled_into(specs, bytes, unary, sparse)
        }
        (Protocol::BestEffort { .. }, Report::Composition(sparse)) => {
            wire::decode_full_into(specs, bytes, unary, sparse)
        }
        (_, Report::Sampling(sparse) | Report::Composition(sparse)) => {
            // The variant names the layout: move the slots over to it.
            let slots = std::mem::replace(sparse, SparseReport::with_capacity(0, 0));
            *report = report_of(protocol, slots);
            decode_report_into(protocol, specs, bytes, report)
        }
    }
}

/// `sparse` as a report of `protocol`'s variant.
fn report_of(protocol: Protocol, sparse: SparseReport) -> Report {
    match protocol {
        Protocol::Sampling { .. } => Report::Sampling(sparse),
        Protocol::BestEffort { .. } => Report::Composition(sparse),
    }
}

/// True when `protocol`'s categorical payloads are unary bit vectors
/// (OUE/SUE) rather than direct values (GRR).
fn is_unary(protocol: Protocol) -> bool {
    let (Protocol::Sampling { oracle, .. } | Protocol::BestEffort { oracle, .. }) = protocol;
    oracle != OracleKind::Grr
}

/// Largest `Submit` payload a session of `protocol` over `specs` admits:
/// the envelope plus the largest canonical report.
pub(crate) fn max_submit_payload(protocol: Protocol, specs: &[AttrSpec]) -> usize {
    let unary = is_unary(protocol);
    let report_bits = match protocol {
        Protocol::Sampling { .. } => wire::max_sampled_report_bits(specs, unary),
        Protocol::BestEffort { .. } => wire::full_report_bits(specs, unary),
    };
    SUBMIT_ENVELOPE_BYTES + report_bits.div_ceil(8)
}

/// Payload bytes worth keeping from a client frame of `kind`: one more
/// than the longest such message that can be accepted, where `submit` is
/// the largest `Submit` the connection's session admits
/// ([`max_submit_payload`]). Every decoder accepts only exact lengths, so
/// a kept prefix of a longer payload is refused just as the whole payload
/// would be.
pub(crate) fn max_request_payload(kind: u8, submit: usize) -> usize {
    let longest = match kind {
        KIND_HELLO => MAX_HELLO_PAYLOAD,
        KIND_SUBMIT => submit,
        KIND_FLUSH_EPOCH => 8,
        // `Shutdown` carries nothing, and an unknown kind never decodes.
        _ => 0,
    };
    longest + 1
}

/// How the `Submit` path treats a user who already spent the epoch's
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// A client's report: the repeat is a [`LdpError::DuplicateReport`],
    /// counted in the epoch's rejections.
    Count,
    /// A logged record in WAL replay: the repeat is one a checkpoint
    /// already covers, skipped without counting a rejection, so recovered
    /// snapshots stay bit-identical to the clean run's.
    Skip,
}

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Key for the ledger's user-id hashing; every shard of one logical
    /// service must share it (see [`BudgetLedger::with_key`]).
    pub ledger_key: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            ledger_key: 0x1cde_2019,
        }
    }
}

/// Session state established by the first `Hello`.
#[derive(Debug, Clone)]
struct Session {
    base_epoch: u64,
    /// Validated blank aggregator, cloned for each new epoch. It holds the
    /// session's protocol, ε and schema.
    template: Aggregator,
}

impl Session {
    /// `(protocol, epsilon, specs, base_epoch)`, as a `Hello` carries them.
    fn params(&self) -> (Protocol, Epsilon, &[AttrSpec], u64) {
        let t = &self.template;
        (t.protocol(), t.epsilon(), t.specs(), self.base_epoch)
    }
}

/// The counters a `FlushEpoch` returns: those of an [`EpochSnapshot`],
/// with the estimates' report count in place of the estimates.
/// [`ReportService::handle`] reads them from the ledger and the epoch's
/// aggregate without folding its partials; [`ResponseMessage::SnapshotAck`]
/// carries them over the wire, and
/// [`ReportClient::flush_epoch`](crate::transport::ReportClient::flush_epoch)
/// hands them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushReceipt {
    /// Epoch flushed.
    pub epoch: u64,
    /// Distinct users admitted in that epoch.
    pub admitted: u64,
    /// Duplicate reports the ledger rejected in that epoch.
    pub rejected_duplicates: u64,
    /// Service-lifetime malformed rejections at flush time.
    pub rejected_malformed: u64,
    /// Reports absorbed into the epoch's aggregate, which
    /// [`ReportService::snapshot_epoch`] reports as `result.n` (`0` for an
    /// epoch no report has reached).
    pub users: u64,
}

/// One epoch's estimates plus the admission counters behind them.
///
/// `result` is `None` for an epoch no report has reached (the counters may
/// still be nonzero — e.g. an epoch that saw only duplicates).
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// The epoch snapshotted.
    pub epoch: u64,
    /// Distinct users whose reports were admitted this epoch.
    pub admitted: u64,
    /// Reports rejected this epoch because their user's budget was already
    /// spent. A restarted durable service recovers this count only as of
    /// its last checkpoint: the write-ahead log records admitted `Submit`s
    /// alone, so rejections since that checkpoint are not replayed.
    pub rejected_duplicates: u64,
    /// Stream-level malformed-frame/message rejections up to the moment of
    /// this snapshot (malformed input often names no parseable epoch, so
    /// the count is per service, not per epoch). Like
    /// `rejected_duplicates`, a restarted durable service recovers it only
    /// as of its last checkpoint.
    pub rejected_malformed: u64,
    /// The epoch's estimates, absent before the first admitted report.
    pub result: Option<CollectionResult>,
}

/// Where and how a connection lost framing — see
/// [`ConnSummary::fault`](crate::transport::ConnSummary::fault).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamFault {
    /// Byte offset (from the start of the connection's inbound stream) of
    /// the first byte of the frame that destroyed framing. A transport log
    /// can hexdump the captured stream at exactly this offset to see the
    /// corruption instead of bisecting for it.
    pub offset: u64,
    /// The typed error that ended the stream: [`LdpError::MalformedFrame`]
    /// for desync (truncation, oversized length, unclassified I/O),
    /// [`LdpError::Timeout`] / [`LdpError::ConnectionLost`] for transport
    /// faults.
    pub error: LdpError,
}

impl fmt::Display for StreamFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stream fault at byte offset {}: {}",
            self.offset, self.error
        )
    }
}

/// A long-running aggregation endpoint absorbing framed report streams.
///
/// One instance per shard; shards [`merge`](ReportService::merge) into the
/// global view. A [`ReportServer`](crate::transport::ReportServer) owns it
/// while connections are served and hands it back from `finish`. See the
/// module docs for the protocol and the validation discipline.
///
/// ```
/// use ldp_analytics::service::{encode_report, ResponseMessage, WireMessage};
/// use ldp_analytics::transport::{ReportServer, ScriptedStream, ServerConfig};
/// use ldp_analytics::{block_rng, ClientEncoder, Protocol};
/// use ldp_core::rng::RngBlock;
/// use ldp_core::{AttrSpec, AttrValue, Epsilon, NumericKind, OracleKind};
///
/// let protocol = Protocol::Sampling {
///     numeric: NumericKind::Hybrid,
///     oracle: OracleKind::Oue,
/// };
/// let eps = Epsilon::new(1.0)?;
/// let specs = vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 4 }];
/// let encoder = ClientEncoder::new(protocol, eps, specs.clone())?;
///
/// // Clients frame messages into any byte sink…
/// let mut stream: Vec<u8> = Vec::new();
/// WireMessage::Hello { protocol, epsilon: eps, specs: specs.clone(), epoch: 0 }
///     .write_to(&mut stream)?;
/// let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(7, 0));
/// let mut report = encoder.empty_report();
/// let mut scratch = encoder.scratch();
/// for user in 0..100u64 {
///     let tuple = [AttrValue::Numeric(0.5), AttrValue::Categorical((user % 4) as u32)];
///     encoder.encode_into(&tuple, &mut rng, &mut report, &mut scratch)?;
///     WireMessage::Submit {
///         user,
///         epoch: 0,
///         block: 0,
///         report: encode_report(&report, &specs),
///     }
///     .write_to(&mut stream)?;
/// }
/// WireMessage::FlushEpoch { epoch: 0 }.write_to(&mut stream)?;
///
/// // …and a server applies them to its service, one verdict per message.
/// let server = ReportServer::start(ServerConfig::default());
/// let mut conn = ScriptedStream::new(&stream);
/// let summary = server.handle().serve_stream(&mut conn);
/// assert_eq!(summary.responded, 102); // HelloAck, 100 Acks, SnapshotAck
/// let (mut responses, mut scratch, mut last) = (conn.responses(), Vec::new(), None);
/// while let Some(response) = ResponseMessage::read_from(&mut responses, &mut scratch)? {
///     last = Some(response);
/// }
/// assert!(matches!(
///     last,
///     Some(ResponseMessage::SnapshotAck { admitted: 100, rejected_duplicates: 0, .. })
/// ));
///
/// // The estimates stay server-side, in the service `finish` hands back.
/// let snapshot = server.finish().snapshot_epoch(0)?;
/// assert_eq!(snapshot.admitted, 100);
/// assert!(snapshot.result.is_some());
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReportService {
    config: ServiceConfig,
    session: Option<Session>,
    /// Epoch → that epoch's aggregate, partials keyed by block ordinal.
    epochs: BTreeMap<u64, Aggregator>,
    ledger: BudgetLedger,
    rejected_malformed: u64,
}

thread_local! {
    /// The report each thread's `Submit`s decode into, refilled in place.
    /// Per thread rather than per service: connection threads take turns
    /// on one service, so a scratch it owned would pass between cores and
    /// allocator arenas with the lock. In interleaved `ingest_tcp` pairs,
    /// a scratch per service lost 8 of 10 pairs to one per thread.
    static SCRATCH: RefCell<Report> =
        RefCell::new(Report::Sampling(SparseReport::with_capacity(0, 0)));
}

impl ReportService {
    /// A fresh, unconfigured service; the first `Hello` establishes the
    /// session.
    pub fn new(config: ServiceConfig) -> Self {
        let ledger = BudgetLedger::with_key(config.ledger_key);
        ReportService {
            config,
            session: None,
            epochs: BTreeMap::new(),
            ledger,
            rejected_malformed: 0,
        }
    }

    /// The privacy-budget ledger (admission counts per epoch).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// The ledger, for WAL replay to presize (see
    /// [`BudgetLedger::reserve`]).
    pub(crate) fn ledger_mut(&mut self) -> &mut BudgetLedger {
        &mut self.ledger
    }

    /// Lifetime count of frames/messages rejected as malformed.
    pub fn rejected_malformed(&self) -> u64 {
        self.rejected_malformed
    }

    /// Counts one malformed rejection the caller observed: a frame that
    /// failed to decode as a [`WireMessage`] (so never reached
    /// [`ReportService::handle`]), or a message `handle` refused. The
    /// transport's connection threads call it, so snapshots account for
    /// every rejection.
    pub fn note_malformed(&mut self) {
        self.rejected_malformed += 1;
    }

    /// Epochs holding aggregate state, ascending.
    pub fn epochs(&self) -> impl Iterator<Item = u64> + '_ {
        self.epochs.keys().copied()
    }

    /// Processes one already-decoded message.
    ///
    /// `FlushEpoch` returns `Some` [`FlushReceipt`]: the epoch's counters,
    /// read without folding its partials, so a flush costs the same however
    /// many blocks and categories the epoch holds. Estimates are read with
    /// [`ReportService::snapshot_epoch`]. Everything else returns `None`.
    /// Errors are typed and leave aggregate state untouched:
    /// [`LdpError::DuplicateReport`] for ledger rejections (already
    /// counted), [`LdpError::MalformedFrame`] and the validation variants
    /// for everything else (the caller counts them through
    /// [`ReportService::note_malformed`], as the transport does).
    pub fn handle(&mut self, msg: &WireMessage) -> Result<Option<FlushReceipt>> {
        match msg {
            WireMessage::Hello {
                protocol,
                epsilon,
                specs,
                epoch,
            } => {
                self.handle_hello(*protocol, *epsilon, specs, *epoch)?;
                Ok(None)
            }
            WireMessage::Submit {
                user,
                epoch,
                block,
                report,
            } => {
                self.handle_submit(*user, *epoch, *block, report, Admission::Count)?;
                Ok(None)
            }
            WireMessage::FlushEpoch { epoch } => Ok(Some(FlushReceipt {
                epoch: *epoch,
                admitted: self.ledger.admitted(*epoch),
                rejected_duplicates: self.ledger.rejected(*epoch),
                rejected_malformed: self.rejected_malformed,
                users: self.epochs.get(epoch).map_or(0, |agg| agg.users() as u64),
            })),
            WireMessage::Shutdown => Ok(None),
        }
    }

    fn handle_hello(
        &mut self,
        protocol: Protocol,
        epsilon: Epsilon,
        specs: &[AttrSpec],
        epoch: u64,
    ) -> Result<()> {
        if let Some(sess) = &self.session {
            // Idempotent for identical parameters (many clients, one
            // stream); anything else is a different session and would
            // corrupt the estimates if absorbed.
            if sess.params() == (protocol, epsilon, specs, epoch) {
                return Ok(());
            }
            return Err(malformed(
                "hello disagrees with the established session".into(),
            ));
        }
        // Template construction performs full schema validation.
        let template = Aggregator::new(protocol, epsilon, specs.to_vec())?;
        self.session = Some(Session {
            base_epoch: epoch,
            template,
        });
        Ok(())
    }

    /// The `Submit` path of [`ReportService::handle`], on the envelope's
    /// fields and borrowed report bytes (WAL replay calls it directly).
    /// Returns whether the report was absorbed: always, unless
    /// `admission` is [`Admission::Skip`] and the user's budget for the
    /// epoch was already spent.
    pub(crate) fn handle_submit(
        &mut self,
        user: u64,
        epoch: u64,
        block: u64,
        bytes: &[u8],
        admission: Admission,
    ) -> Result<bool> {
        let sess = self
            .session
            .as_ref()
            .ok_or_else(|| malformed("submit before hello".into()))?;
        if epoch < sess.base_epoch {
            return Err(malformed(format!(
                "stale submit: epoch {epoch} precedes the session's base epoch {}",
                sess.base_epoch
            )));
        }
        // Gate 2: the report bytes decode once, at their exact canonical
        // length, into this thread's recycled report, and the report
        // validates once against the session's template (every epoch's
        // aggregator is a clone of it) — before the ledger runs, so a
        // malformed report does not burn its user's budget.
        let template = &sess.template;
        SCRATCH.with_borrow_mut(|report| {
            decode_report_into(template.protocol(), template.specs(), bytes, report)?;
            template.validate_report(report)?;
            // Gate 3: one report per user per epoch, one ledger probe.
            match admission {
                Admission::Count => self.ledger.admit(user, epoch)?,
                Admission::Skip if !self.ledger.try_admit(user, epoch) => return Ok(false),
                Admission::Skip => {}
            }
            // All gates cleared: route into the block's partial.
            let agg = self.epochs.entry(epoch).or_insert_with(|| template.clone());
            agg.set_ordinal(block);
            agg.absorb_validated(report);
            Ok(true)
        })
    }

    /// Snapshots one epoch: the ordinal-ordered fold of its partials plus
    /// the admission counters. Non-destructive. The one way to read an
    /// epoch's estimates: a `FlushEpoch` returns only the counters.
    ///
    /// # Errors
    /// Only if the underlying fold fails, which validated state rules out;
    /// epochs without reports yield `result: None` rather than an error.
    pub fn snapshot_epoch(&self, epoch: u64) -> Result<EpochSnapshot> {
        let result = match self.epochs.get(&epoch) {
            Some(agg) if agg.users() > 0 => Some(agg.snapshot()?),
            _ => None,
        };
        Ok(EpochSnapshot {
            epoch,
            admitted: self.ledger.admitted(epoch),
            rejected_duplicates: self.ledger.rejected(epoch),
            rejected_malformed: self.rejected_malformed,
            result,
        })
    }

    /// Folds another shard into this one: aggregates merge by epoch (and,
    /// within an epoch, by block ordinal — the snapshot stays invariant to
    /// the merge tree's shape), ledgers union without double-admitting,
    /// malformed counts add.
    ///
    /// A user admitted by two shards in one epoch is counted as a
    /// duplicate by the merged ledger. Their report bytes were already
    /// absorbed shard-locally — cross-shard dedup can only *detect* after
    /// the fact — so route each user to one shard (as
    /// [`pipeline::block_partition`] does) and read the counter as an
    /// integrity alarm.
    ///
    /// # Errors
    /// Mismatched ledger keys or session parameters; a refused merge
    /// leaves `self` untouched.
    pub fn merge(&mut self, other: ReportService) -> Result<()> {
        if let (Some(a), Some(b)) = (&self.session, &other.session) {
            if a.params() != b.params() {
                return Err(LdpError::InvalidParameter {
                    name: "service",
                    message: "cannot merge services from different sessions".into(),
                });
            }
        }
        // Refuses a different ledger key before changing either ledger.
        self.ledger.merge(other.ledger)?;
        if self.session.is_none() {
            self.session = other.session;
        }
        self.rejected_malformed += other.rejected_malformed;
        for (epoch, agg) in other.epochs {
            match self.epochs.entry(epoch) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(agg);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    slot.get_mut().merge(agg)?;
                }
            }
        }
        Ok(())
    }

    // ---- durability hooks (see `crate::durable`) -----------------------

    /// The construction parameters (the durable layer binds
    /// `config.ledger_key` into its log header so a checkpoint can never be
    /// replayed into a service hashing users under a different key).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The established session's parameters
    /// `(protocol, epsilon, specs, base_epoch)`, or `None` before the
    /// first `Hello`. The durable log header is exactly these four values
    /// (plus the ledger key), so recovery can re-issue the `Hello` itself.
    pub fn session_params(&self) -> Option<(Protocol, Epsilon, &[AttrSpec], u64)> {
        self.session.as_ref().map(Session::params)
    }

    /// Exact-length partial-state encoding of one epoch's aggregator (see
    /// [`Aggregator::encode_partials`]); `None` for an epoch no report has
    /// reached.
    pub fn encode_epoch_partials(&self, epoch: u64) -> Option<Vec<u8>> {
        self.epochs.get(&epoch).map(Aggregator::encode_partials)
    }

    /// Reinstates one epoch's aggregator from
    /// [`encode_epoch_partials`](ReportService::encode_epoch_partials)
    /// bytes, cloning the session template so the schema/protocol context
    /// is identical to the one the state was captured under.
    ///
    /// # Errors
    /// [`LdpError::MalformedFrame`] before a session is established;
    /// [`LdpError::InvalidParameter`] if the epoch already holds state
    /// (checkpoints restore into a fresh service, never over live data) or
    /// the bytes fail the exact-length partial codec.
    pub fn restore_epoch_partials(&mut self, epoch: u64, bytes: &[u8]) -> Result<()> {
        let sess = self
            .session
            .as_ref()
            .ok_or_else(|| malformed("restore before hello".into()))?;
        let mut agg = sess.template.clone();
        agg.decode_partials(bytes)?;
        if self.epochs.contains_key(&epoch) {
            return Err(LdpError::InvalidParameter {
                name: "epoch",
                message: format!("epoch {epoch} already holds aggregate state"),
            });
        }
        self.epochs.insert(epoch, agg);
        Ok(())
    }

    /// Replaces the privacy-budget ledger with recovered state, so replayed
    /// `Submit`s for already-checkpointed users dedup instead of
    /// double-spending.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] if the recovered ledger was hashed
    /// under a different key than this service's — its user hashes would
    /// silently never match.
    pub fn restore_ledger(&mut self, ledger: BudgetLedger) -> Result<()> {
        if ledger.key() != self.config.ledger_key {
            return Err(LdpError::InvalidParameter {
                name: "ledger_key",
                message: format!(
                    "recovered ledger key {:#x} does not match service key {:#x}",
                    ledger.key(),
                    self.config.ledger_key
                ),
            });
        }
        self.ledger = ledger;
        Ok(())
    }

    /// Restores the lifetime malformed-rejection counter captured in a
    /// checkpoint, so a recovered snapshot's `rejected_malformed` matches
    /// the clean run's.
    pub fn restore_counters(&mut self, rejected_malformed: u64) {
        self.rejected_malformed = rejected_malformed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ClientEncoder;
    use crate::transport::{ConnSummary, ReportServer, ScriptedStream, ServerConfig};
    use ldp_core::multidim::AttrValue;
    use ldp_core::rng::RngBlock;

    fn test_protocol() -> Protocol {
        Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        }
    }

    fn test_specs() -> Vec<AttrSpec> {
        vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 4 },
            AttrSpec::Numeric,
        ]
    }

    fn hello() -> WireMessage {
        WireMessage::Hello {
            protocol: test_protocol(),
            epsilon: Epsilon::new(1.0).unwrap(),
            specs: test_specs(),
            epoch: 0,
        }
    }

    fn tuple_for(user: u64) -> Vec<AttrValue> {
        vec![
            AttrValue::Numeric((user % 10) as f64 / 10.0),
            AttrValue::Categorical((user % 4) as u32),
            AttrValue::Numeric(-0.25),
        ]
    }

    fn submit_for(encoder: &ClientEncoder, user: u64, epoch: u64) -> WireMessage {
        let mut rng: RngBlock<rand::rngs::StdRng> =
            RngBlock::new(pipeline::block_rng(99 ^ user, 0));
        let mut report = encoder.empty_report();
        let mut scratch = encoder.scratch();
        encoder
            .encode_into(&tuple_for(user), &mut rng, &mut report, &mut scratch)
            .unwrap();
        WireMessage::Submit {
            user,
            epoch,
            block: user % 3,
            report: encode_report(&report, encoder.specs()),
        }
    }

    fn encoder() -> ClientEncoder {
        ClientEncoder::new(test_protocol(), Epsilon::new(1.0).unwrap(), test_specs()).unwrap()
    }

    /// What one connection served through the shipping loop left behind.
    struct Served {
        summary: ConnSummary,
        responses: Vec<ResponseMessage>,
        service: ReportService,
    }

    /// Serves `stream` as one connection to a fresh [`ReportServer`].
    fn serve_conn<S: Read + Write>(stream: &mut S) -> Served {
        let server = ReportServer::start(ServerConfig::default());
        let summary = server.handle().serve_stream(stream);
        Served {
            summary,
            responses: Vec::new(),
            service: server.finish(),
        }
    }

    /// Serves recorded request bytes and decodes every response frame.
    fn serve_bytes(requests: &[u8]) -> Served {
        let mut stream = ScriptedStream::new(requests);
        let mut served = serve_conn(&mut stream);
        let (mut rest, mut scratch) = (stream.responses(), Vec::new());
        while let Some(response) = ResponseMessage::read_from(&mut rest, &mut scratch).unwrap() {
            served.responses.push(response);
        }
        served
    }

    /// Responses that are `Ack`s with `outcome`.
    fn acks(responses: &[ResponseMessage], outcome: AckOutcome) -> usize {
        responses
            .iter()
            .filter(|r| matches!(r, ResponseMessage::Ack { outcome: o, .. } if *o == outcome))
            .count()
    }

    #[test]
    fn response_messages_round_trip() {
        let messages = [
            ResponseMessage::Ack {
                user: 42,
                epoch: 7,
                outcome: AckOutcome::Admitted,
            },
            ResponseMessage::Ack {
                user: u64::MAX,
                epoch: 0,
                outcome: AckOutcome::Duplicate,
            },
            ResponseMessage::Ack {
                user: 0,
                epoch: 3,
                outcome: AckOutcome::Rejected,
            },
            ResponseMessage::Ack {
                user: 1,
                epoch: 1,
                outcome: AckOutcome::Overloaded,
            },
            ResponseMessage::HelloAck,
            ResponseMessage::SnapshotAck {
                epoch: 9,
                admitted: 1_000_000,
                rejected_duplicates: 17,
                rejected_malformed: 3,
                users: 999_983,
            },
            ResponseMessage::Resend,
        ];
        for msg in &messages {
            let frame_bytes = msg.to_frame().unwrap();
            let mut reader = frame_bytes.as_slice();
            let mut scratch = Vec::new();
            let back = ResponseMessage::read_from(&mut reader, &mut scratch)
                .unwrap()
                .expect("one response in the stream");
            assert_eq!(&back, msg);
        }
    }

    #[test]
    fn response_decode_rejects_wrong_lengths_and_codes() {
        // Wrong payload lengths for every response kind.
        for (kind, bad_len) in [
            (KIND_ACK, 16usize),
            (KIND_ACK, 18),
            (KIND_HELLO_ACK, 1),
            (KIND_SNAPSHOT_ACK, 39),
            (KIND_RESEND, 4),
        ] {
            let err = ResponseMessage::decode(kind, &vec![0u8; bad_len]).unwrap_err();
            assert!(
                matches!(err, LdpError::MalformedFrame { .. }),
                "kind {kind} len {bad_len}: {err:?}"
            );
        }
        // Out-of-range outcome code in an otherwise valid ack.
        let mut payload = [0u8; 17];
        payload[16] = 200;
        let err = ResponseMessage::decode(KIND_ACK, &payload).unwrap_err();
        assert!(err.to_string().contains("outcome"), "{err}");
        // Unknown response kind.
        assert!(ResponseMessage::decode(99, &[]).is_err());
    }

    #[test]
    fn desync_offset_pinpoints_the_offending_frame() {
        let enc = encoder();
        let mut stream = Vec::new();
        hello().write_to(&mut stream).unwrap();
        submit_for(&enc, 1, 0).write_to(&mut stream).unwrap();
        let healthy = stream.len() as u64;
        // A third frame, truncated mid-payload: framing is unrecoverable.
        let tail = submit_for(&enc, 2, 0).to_frame().unwrap();
        stream.extend_from_slice(&tail[..tail.len() - 3]);

        let served = serve_bytes(&stream);
        assert_eq!(
            served.service.snapshot_epoch(0).unwrap().admitted,
            1,
            "healthy prefix fully absorbed"
        );
        let fault = served.summary.fault.expect("truncated tail must surface");
        assert_eq!(
            fault.offset, healthy,
            "offset must name the offending frame's first byte"
        );
        assert!(matches!(fault.error, LdpError::MalformedFrame { .. }));
        assert!(fault.to_string().contains(&healthy.to_string()), "{fault}");
    }

    #[test]
    fn connection_loss_mid_stream_is_a_typed_fault_not_a_panic() {
        struct DyingStream {
            data: Vec<u8>,
            pos: usize,
        }
        impl Read for DyingStream {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.pos < self.data.len() {
                    let n = (self.data.len() - self.pos).min(out.len());
                    out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                    self.pos += n;
                    return Ok(n);
                }
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "peer reset",
                ))
            }
        }
        impl Write for DyingStream {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let enc = encoder();
        let mut data = Vec::new();
        hello().write_to(&mut data).unwrap();
        submit_for(&enc, 1, 0).write_to(&mut data).unwrap();
        let healthy = data.len() as u64;

        let served = serve_conn(&mut DyingStream { data, pos: 0 });
        assert_eq!(served.service.snapshot_epoch(0).unwrap().admitted, 1);
        let fault = served.summary.fault.expect("reset must surface");
        assert_eq!(fault.offset, healthy);
        assert!(
            matches!(fault.error, LdpError::ConnectionLost { .. }),
            "{:?}",
            fault.error
        );
    }

    #[test]
    fn wire_messages_round_trip() {
        let enc = encoder();
        let messages = [
            hello(),
            submit_for(&enc, 42, 1),
            WireMessage::FlushEpoch { epoch: 7 },
            WireMessage::Shutdown,
        ];
        for msg in &messages {
            let frame_bytes = msg.to_frame().unwrap();
            let mut reader = frame_bytes.as_slice();
            let mut scratch = Vec::new();
            let back = WireMessage::read_from(&mut reader, &mut scratch)
                .unwrap()
                .expect("one message in the stream");
            assert_eq!(&back, msg);
        }
    }

    #[test]
    fn hello_submit_flush_end_to_end() {
        let enc = encoder();
        let mut stream = Vec::new();
        hello().write_to(&mut stream).unwrap();
        for user in 0..50 {
            submit_for(&enc, user, 0).write_to(&mut stream).unwrap();
        }
        WireMessage::FlushEpoch { epoch: 0 }
            .write_to(&mut stream)
            .unwrap();
        WireMessage::Shutdown.write_to(&mut stream).unwrap();

        let served = serve_bytes(&stream);
        assert!(served.summary.shutdown);
        assert_eq!(acks(&served.responses, AckOutcome::Admitted), 50);
        assert_eq!(served.service.rejected_malformed(), 0);
        assert_eq!(served.summary.corrupt_frames, 0);
        // The flush is answered in stream order, after the 50 submits.
        assert_eq!(
            served.responses.last(),
            Some(&ResponseMessage::SnapshotAck {
                epoch: 0,
                admitted: 50,
                rejected_duplicates: 0,
                rejected_malformed: 0,
                users: 50,
            })
        );
        let snap = served.service.snapshot_epoch(0).unwrap();
        let result = snap.result.as_ref().unwrap();
        assert_eq!(result.n, 50);
        assert_eq!(result.means.len(), 2);
        assert_eq!(result.frequencies.len(), 1);
    }

    #[test]
    fn duplicate_submits_are_rejected_and_surface_in_the_snapshot() {
        let enc = encoder();
        let mut stream = Vec::new();
        hello().write_to(&mut stream).unwrap();
        for user in [1u64, 2, 1, 3, 2, 1] {
            submit_for(&enc, user, 0).write_to(&mut stream).unwrap();
        }
        let served = serve_bytes(&stream);
        assert_eq!(acks(&served.responses, AckOutcome::Admitted), 3);
        assert_eq!(acks(&served.responses, AckOutcome::Duplicate), 3);
        let snap = served.service.snapshot_epoch(0).unwrap();
        assert_eq!(snap.admitted, 3);
        assert_eq!(snap.rejected_duplicates, 3);
        assert_eq!(snap.result.unwrap().n, 3);
    }

    #[test]
    fn same_user_different_epochs_is_admitted() {
        let enc = encoder();
        let mut service = ReportService::new(ServiceConfig::default());
        service.handle(&hello()).unwrap();
        service.handle(&submit_for(&enc, 5, 0)).unwrap();
        service.handle(&submit_for(&enc, 5, 1)).unwrap();
        assert_eq!(service.snapshot_epoch(0).unwrap().admitted, 1);
        assert_eq!(service.snapshot_epoch(1).unwrap().admitted, 1);
    }

    #[test]
    fn submit_before_hello_is_malformed_not_fatal() {
        let enc = encoder();
        let mut stream = Vec::new();
        submit_for(&enc, 1, 0).write_to(&mut stream).unwrap();
        hello().write_to(&mut stream).unwrap();
        submit_for(&enc, 1, 0).write_to(&mut stream).unwrap();
        let served = serve_bytes(&stream);
        assert_eq!(served.service.rejected_malformed(), 1);
        assert_eq!(served.service.snapshot_epoch(0).unwrap().admitted, 1);
    }

    #[test]
    fn stale_epoch_submits_are_rejected() {
        let enc = encoder();
        let mut service = ReportService::new(ServiceConfig::default());
        service
            .handle(&WireMessage::Hello {
                protocol: test_protocol(),
                epsilon: Epsilon::new(1.0).unwrap(),
                specs: test_specs(),
                epoch: 5,
            })
            .unwrap();
        let err = service.handle(&submit_for(&enc, 1, 4)).unwrap_err();
        assert!(matches!(err, LdpError::MalformedFrame { .. }));
        assert!(service.handle(&submit_for(&enc, 1, 5)).is_ok());
    }

    #[test]
    fn conflicting_hello_is_rejected_idempotent_hello_accepted() {
        let mut service = ReportService::new(ServiceConfig::default());
        service.handle(&hello()).unwrap();
        service.handle(&hello()).unwrap();
        let err = service
            .handle(&WireMessage::Hello {
                protocol: test_protocol(),
                epsilon: Epsilon::new(2.0).unwrap(),
                specs: test_specs(),
                epoch: 0,
            })
            .unwrap_err();
        assert!(matches!(err, LdpError::MalformedFrame { .. }));
    }

    #[test]
    fn a_hello_of_another_format_version_is_refused() {
        let payload = hello().payload();
        assert_eq!(&payload[..2], &frame::FORMAT_VERSION.to_be_bytes());
        assert_eq!(WireMessage::decode(KIND_HELLO, &payload).unwrap(), hello());
        for version in [0u16, 1, 3, u16::MAX] {
            let mut other = payload.clone();
            other[..2].copy_from_slice(&version.to_be_bytes());
            assert_eq!(
                WireMessage::decode(KIND_HELLO, &other).unwrap_err(),
                LdpError::UnsupportedVersion {
                    found: version,
                    supported: frame::FORMAT_VERSION,
                }
            );
        }
        // Over the wire it earns a rejection, counted as malformed.
        let mut stream = Vec::new();
        let mut other = payload.clone();
        other[1] ^= 1;
        frame::write_frame(&mut stream, KIND_HELLO, &other).unwrap();
        let served = serve_bytes(&stream);
        assert_eq!(acks(&served.responses, AckOutcome::Rejected), 1);
        assert!(served.service.session_params().is_none());
        assert_eq!(served.service.rejected_malformed(), 1);
    }

    #[test]
    fn unknown_kind_and_garbage_payloads_are_counted_not_fatal() {
        let enc = encoder();
        let mut stream = Vec::new();
        hello().write_to(&mut stream).unwrap();
        // Unknown kind byte, valid frame.
        frame::write_frame(&mut stream, 200, b"mystery").unwrap();
        // Valid submit kind, garbage payload.
        frame::write_frame(&mut stream, KIND_SUBMIT, b"short").unwrap();
        submit_for(&enc, 9, 0).write_to(&mut stream).unwrap();
        let served = serve_bytes(&stream);
        assert_eq!(served.service.rejected_malformed(), 2);
        assert_eq!(served.service.snapshot_epoch(0).unwrap().admitted, 1);
    }

    #[test]
    fn merged_shards_match_one_service_fed_everything() {
        let enc = encoder();
        // Interleave 60 users across 3 shard streams, blocks 0..3.
        let mut streams: Vec<Vec<u8>> = vec![Vec::new(); 3];
        for s in &mut streams {
            hello().write_to(s).unwrap();
        }
        let mut single_stream = Vec::new();
        hello().write_to(&mut single_stream).unwrap();
        for user in 0..60u64 {
            let msg = submit_for(&enc, user, 0);
            msg.write_to(&mut streams[(user % 3) as usize]).unwrap();
            msg.write_to(&mut single_stream).unwrap();
        }

        let mut shards: Vec<ReportService> =
            streams.iter().map(|s| serve_bytes(s).service).collect();
        // Tree merge in a scrambled order.
        let c = shards.pop().unwrap();
        let b = shards.pop().unwrap();
        let mut a = shards.pop().unwrap();
        let mut bc = b;
        bc.merge(c).unwrap();
        a.merge(bc).unwrap();

        let single = serve_bytes(&single_stream).service;

        let merged = a.snapshot_epoch(0).unwrap();
        let reference = single.snapshot_epoch(0).unwrap();
        assert_eq!(merged.admitted, 60);
        let merged = merged.result.unwrap();
        let reference = reference.result.unwrap();
        assert_eq!(merged.mean_vector(), reference.mean_vector());
        assert_eq!(merged.frequencies, reference.frequencies);
    }

    #[test]
    fn composition_reports_flow_through_the_service() {
        let protocol = Protocol::BestEffort {
            numeric: pipeline::BestEffortNumeric::PerAttribute(NumericKind::Laplace),
            oracle: OracleKind::Grr,
        };
        let specs = test_specs();
        let eps = Epsilon::new(1.0).unwrap();
        let enc = ClientEncoder::new(protocol, eps, specs.clone()).unwrap();
        let mut stream = Vec::new();
        WireMessage::Hello {
            protocol,
            epsilon: eps,
            specs: specs.clone(),
            epoch: 0,
        }
        .write_to(&mut stream)
        .unwrap();
        let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(pipeline::block_rng(3, 0));
        let mut report = enc.empty_report();
        let mut scratch = enc.scratch();
        for user in 0..20u64 {
            enc.encode_into(&tuple_for(user), &mut rng, &mut report, &mut scratch)
                .unwrap();
            WireMessage::Submit {
                user,
                epoch: 0,
                block: 0,
                report: encode_report(&report, &specs),
            }
            .write_to(&mut stream)
            .unwrap();
        }
        let served = serve_bytes(&stream);
        assert_eq!(acks(&served.responses, AckOutcome::Admitted), 20);
        assert_eq!(
            served.service.snapshot_epoch(0).unwrap().result.unwrap().n,
            20
        );
    }

    #[test]
    fn trailing_junk_on_report_bytes_is_rejected() {
        let enc = encoder();
        let WireMessage::Submit {
            user,
            epoch,
            block,
            mut report,
        } = submit_for(&enc, 4, 0)
        else {
            unreachable!()
        };
        report.push(0xFF);
        let mut service = ReportService::new(ServiceConfig::default());
        service.handle(&hello()).unwrap();
        let err = service
            .handle(&WireMessage::Submit {
                user,
                epoch,
                block,
                report,
            })
            .unwrap_err();
        assert!(matches!(err, LdpError::MalformedFrame { .. }), "{err}");
        // The rejected report did not burn the user's budget.
        assert!(service.handle(&submit_for(&enc, 4, 0)).is_ok());
    }

    #[test]
    fn cross_protocol_report_bytes_are_rejected() {
        // Bytes encoded for a composition session fed to a sampling
        // session: must be a typed rejection, not a panic or absorption.
        let comp_protocol = Protocol::BestEffort {
            numeric: pipeline::BestEffortNumeric::PerAttribute(NumericKind::Laplace),
            oracle: OracleKind::Oue,
        };
        let specs = test_specs();
        let eps = Epsilon::new(1.0).unwrap();
        let comp_enc = ClientEncoder::new(comp_protocol, eps, specs.clone()).unwrap();
        let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(pipeline::block_rng(1, 0));
        let mut report = comp_enc.empty_report();
        let mut scratch = comp_enc.scratch();
        comp_enc
            .encode_into(&tuple_for(0), &mut rng, &mut report, &mut scratch)
            .unwrap();
        let bytes = encode_report(&report, &specs);

        let mut service = ReportService::new(ServiceConfig::default());
        service.handle(&hello()).unwrap();
        let err = service
            .handle(&WireMessage::Submit {
                user: 0,
                epoch: 0,
                block: 0,
                report: bytes,
            })
            .unwrap_err();
        // Either the decode or the validation gate fires; both are typed.
        assert!(service.snapshot_epoch(0).unwrap().result.is_none());
        drop(err);
    }

    #[test]
    fn decode_report_accepts_only_the_canonical_length() {
        let composition = Protocol::BestEffort {
            numeric: pipeline::BestEffortNumeric::PerAttribute(NumericKind::Laplace),
            oracle: OracleKind::Grr,
        };
        let specs = test_specs();
        for protocol in [test_protocol(), composition] {
            let encoder =
                ClientEncoder::new(protocol, Epsilon::new(1.0).unwrap(), specs.clone()).unwrap();
            let report = encoder
                .encode(&tuple_for(5), &mut ldp_core::rng::seeded_rng(5))
                .unwrap();
            let mut bytes = encode_report(&report, &specs);
            assert_eq!(decode_report(protocol, &specs, &bytes).unwrap(), report);
            bytes.push(0);
            let err = decode_report(protocol, &specs, &bytes).unwrap_err();
            assert!(
                matches!(err, LdpError::MalformedFrame { .. }),
                "{protocol:?}: {err}"
            );
        }
    }

    #[test]
    fn wire_layouts_are_pinned_byte_for_byte() {
        use ldp_core::multidim::SparseReport;
        use ldp_core::{AttrReport, BitVec, CategoricalReport};
        let hex = |bytes: Vec<u8>| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let bits = |k: u32, ones: &[u32]| {
            let mut b = BitVec::zeros(k);
            ones.iter().for_each(|&i| b.set(i, true));
            AttrReport::Categorical(CategoricalReport::Bits(b))
        };
        let value = |v: u32| AttrReport::Categorical(CategoricalReport::Value(v));
        // Interleaved schema: the full layout writes both numeric payloads
        // before any categorical one; k = 70 straddles a word boundary.
        let specs = vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 5 },
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 70 },
        ];
        let full = |cat_5, cat_70| {
            Report::Composition(SparseReport {
                d: 4,
                entries: vec![
                    (0, AttrReport::Numeric(0.25)),
                    (1, cat_5),
                    (2, AttrReport::Numeric(-0.75)),
                    (3, cat_70),
                ],
            })
        };
        let oue = full(bits(5, &[0, 3]), bits(70, &[1, 63, 64, 69]));
        assert_eq!(
            hex(encode_report(&oue, &specs)),
            "3fd0000000000000bfe800000000000092000000000000000c20"
        );
        let grr = full(value(4), value(69));
        assert_eq!(
            hex(encode_report(&grr, &specs)),
            "3fd0000000000000bfe80000000000009140"
        );
        // k = d = 1 keeps the sampled layout: 16-bit count, 1-bit index.
        let sampled = Report::Sampling(SparseReport {
            d: 1,
            entries: vec![(0, AttrReport::Numeric(0.5))],
        });
        assert_eq!(
            hex(encode_report(&sampled, &[AttrSpec::Numeric])),
            "00011ff000000000000000"
        );
    }

    #[test]
    fn refused_merge_leaves_the_service_untouched() {
        let mut unconfigured = ReportService::new(ServiceConfig { ledger_key: 1 });
        let mut configured = ReportService::new(ServiceConfig { ledger_key: 2 });
        configured.handle(&hello()).unwrap();
        configured.handle(&submit_for(&encoder(), 1, 0)).unwrap();
        assert!(unconfigured.merge(configured).is_err());
        assert!(unconfigured.session_params().is_none());
        assert_eq!(unconfigured.epochs().count(), 0);
    }
}
