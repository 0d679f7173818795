//! The server half of the transport: connection threads applying
//! messages to one shared [`ReportService`].
//!
//! ## Architecture
//!
//! Every connection runs [`ConnHandle::serve_stream`] on its own thread,
//! which decodes each frame, applies its [`WireMessage`] to the one
//! shared service under a lock, and writes the verdict back itself — no
//! hand-off per message. A connection's messages apply in arrival order,
//! which within-block bit-identity needs. At most
//! [`ServerConfig::queue_capacity`] messages may be in flight (waiting
//! for or holding the lock); the connection *sheds* a message over that
//! bound with an [`AckOutcome::Overloaded`] verdict instead of waiting —
//! the client backs off and retries, and the privacy-budget ledger makes
//! that retry idempotent.
//!
//! ## Fault isolation
//!
//! A desynced, hostile, or vanished client kills only its own connection:
//! the fault is recorded in that connection's [`ConnSummary`] and counted
//! in [`TransportStats`], while every other connection keeps running.
//! Checksum-corrupt frames keep the reader synchronized
//! (see [`ldp_core::frame::read_frame`]), so they earn a
//! [`ResponseMessage::Resend`] rather than a disconnect.
//!
//! ## Refusals
//!
//! A message the service refuses is answered by one rule, whatever its
//! kind (`Hello`, `Submit` or `FlushEpoch`):
//!
//! - a second report from a user in one epoch is answered
//!   [`AckOutcome::Duplicate`];
//! - a storage failure ([`LdpError::Storage`]) is answered
//!   [`AckOutcome::Overloaded`] and counted in
//!   [`TransportStats::storage_sheds`]: the message could not be made
//!   durable, so the client backs off and retries, and the ledger keeps the
//!   retry at-most-once;
//! - anything else is answered [`AckOutcome::Rejected`] and counted in the
//!   service's `rejected_malformed`.
//!
//! ## Shutdown
//!
//! [`ReportServer::finish`] drops the server's own handle and waits until
//! the last [`ConnHandle`] clone is gone, then returns the service with
//! every answered message applied — drain-then-stop, never drop-on-stop.
//! Join connection threads (or drop their handles) first, or `finish`
//! blocks until they end.

use std::io::{BufReader, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};

use ldp_core::frame::{self, FrameRead, FRAME_HEADER_BYTES, MAX_FRAME_PAYLOAD};
use ldp_core::{LdpError, Result};

use crate::durable::{DurableConfig, DurableService, RecoveryReport};
use crate::service::{
    max_request_payload, max_submit_payload, AckOutcome, FlushReceipt, ReportService,
    ResponseMessage, ServiceConfig, StreamFault, WireMessage,
};

/// Construction parameters for a [`ReportServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Configuration for the owned [`ReportService`].
    pub service: ServiceConfig,
    /// Most messages handed to the service and not yet answered, across
    /// all connections. Messages over the bound are shed with
    /// [`AckOutcome::Overloaded`]; they never wait and never touch
    /// service state.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            service: ServiceConfig::default(),
            queue_capacity: 1024,
        }
    }
}

/// Shared transport counters, updated by connection threads. All loads
/// are `Relaxed`: the counters are monotone telemetry, not
/// synchronization.
#[derive(Debug, Default)]
pub struct TransportStats {
    connections: AtomicU64,
    faulted_connections: AtomicU64,
    corrupt_frames: AtomicU64,
    malformed_messages: AtomicU64,
    shed: AtomicU64,
    submits: AtomicU64,
    storage_sheds: AtomicU64,
    refused_connections: AtomicU64,
}

impl TransportStats {
    /// Connections served to completion or fault.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Connections that ended in a transport fault (desync, disconnect,
    /// timeout) rather than clean EOF or `Shutdown`.
    pub fn faulted_connections(&self) -> u64 {
        self.faulted_connections.load(Ordering::Relaxed)
    }

    /// Checksum-corrupt frames answered with [`ResponseMessage::Resend`].
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt_frames.load(Ordering::Relaxed)
    }

    /// Frames that verified but failed to decode as a [`WireMessage`].
    pub fn malformed_messages(&self) -> u64 {
        self.malformed_messages.load(Ordering::Relaxed)
    }

    /// Messages shed because the in-flight bound was full.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Submit messages applied to the service (each earns exactly one
    /// admitted / duplicate / rejected verdict from the service).
    pub fn submits(&self) -> u64 {
        self.submits.load(Ordering::Relaxed)
    }

    /// Storage failures ([`LdpError::Storage`]): every message of any
    /// kind answered `Overloaded` because the durability layer could not
    /// make it durable (a log or checkpoint I/O failure, or an injected
    /// crash) — the ack-after-durable contract refusing to lie rather than
    /// acking volatile state — plus every checkpoint after a flushed epoch
    /// that failed for any reason (its snapshot ack stands: the log still
    /// covers everything).
    pub fn storage_sheds(&self) -> u64 {
        self.storage_sheds.load(Ordering::Relaxed)
    }

    /// Connections closed unserved because no thread could be spawned to
    /// serve them (see [`crate::transport::TcpReportServer`]).
    pub fn refused_connections(&self) -> u64 {
        self.refused_connections.load(Ordering::Relaxed)
    }
}

/// How one connection's [`ConnHandle::serve_stream`] call ended.
#[derive(Debug, Default)]
pub struct ConnSummary {
    /// Frames consumed from this connection (valid or corrupt).
    pub frames: u64,
    /// Checksum-corrupt frames answered with a resend request.
    pub corrupt_frames: u64,
    /// Responses successfully written back to the client.
    pub responded: u64,
    /// True when the client sent [`WireMessage::Shutdown`] (connection
    /// scoped: the server itself keeps running).
    pub shutdown: bool,
    /// The transport fault that ended the connection, if any, with the
    /// byte offset of the offending inbound frame. `None` for clean EOF
    /// or `Shutdown`.
    pub fault: Option<StreamFault>,
}

/// What every connection shares.
#[derive(Debug)]
struct Shared {
    backend: Mutex<Backend>,
    /// Messages waiting for or holding the `backend` lock.
    in_flight: AtomicUsize,
    /// The session's [`max_submit_payload`], published once a session is
    /// set: at start when recovery restored one, else at the first
    /// `HelloAck`. A session never changes once set, so neither does this,
    /// and connections read it without the lock.
    submit_cap: OnceLock<usize>,
}

const POISONED: &str = "backend lock poisoned: a connection panicked mid-message";

/// A cloneable per-connection handle into a running [`ReportServer`].
///
/// Cheap to clone (a few reference counts); [`ReportServer::finish`]
/// waits until every clone is dropped.
#[derive(Debug, Clone)]
pub struct ConnHandle {
    shared: Arc<Shared>,
    stats: Arc<TransportStats>,
    queue_capacity: usize,
    /// Liveness token for `finish`. Fields drop in declaration order, so
    /// it must stay after `shared`: no handle holds the backend once its
    /// token is gone.
    _alive: mpsc::Sender<()>,
}

impl ConnHandle {
    /// Serves one client stream to completion: reads frames, applies
    /// messages, writes one response frame per request, in order.
    ///
    /// Every exit path is accounted: clean EOF, client `Shutdown`, or a
    /// transport fault (recorded in the summary, counted in the stats).
    /// Never panics on hostile input.
    ///
    /// Frames are read through an 8 KiB [`BufReader`], so a frame that
    /// arrives whole costs one `read` rather than one for its header and
    /// one for its payload; each response is still one `write`.
    ///
    /// A frame keeps one byte more of its payload than its kind's longest
    /// decodable message (see [`ldp_core::frame::read_frame_capped`]); a
    /// `Submit`'s longest is the session's largest report once the server
    /// has a session — one recovered at start, or set by any connection's
    /// `Hello` answered `HelloAck` — even on a connection that has sent no
    /// `Hello` of its own. A server with no session yet keeps the frame
    /// cap ([`MAX_FRAME_PAYLOAD`], 16 MiB) for a `Submit`. The rest of a
    /// longer payload is checksummed as it streams past and dropped. Every
    /// decoder accepts only its exact lengths, so the kept prefix fails to
    /// decode just as the whole payload would: the frame earns the full
    /// read's verdict, echoed envelope and counters.
    pub fn serve_stream<S: Read + Write + ?Sized>(&self, stream: &mut S) -> ConnSummary {
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        let mut summary = ConnSummary::default();
        let mut payload = Vec::new();
        let mut offset = 0u64;
        let mut stream = BufReader::new(stream);
        loop {
            let frame_start = offset;
            let submit_cap = self.shared.submit_cap.get().copied();
            let cap = |kind| max_request_payload(kind, submit_cap.unwrap_or(MAX_FRAME_PAYLOAD));
            let read = match frame::read_frame_capped(&mut stream, &mut payload, cap) {
                Ok(read) => read,
                Err(error) => {
                    summary.fault = Some(StreamFault {
                        offset: frame_start,
                        error,
                    });
                    break;
                }
            };
            let (kind, len) = match read {
                None => break,
                Some((FrameRead::Corrupt { .. }, len)) => {
                    offset += (FRAME_HEADER_BYTES + len) as u64;
                    summary.frames += 1;
                    summary.corrupt_frames += 1;
                    self.stats.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                    // Reader is still synchronized: ask for the frame
                    // again instead of dropping the connection.
                    if let Err(error) = ResponseMessage::Resend.write_to(stream.get_mut()) {
                        summary.fault = Some(StreamFault {
                            offset: frame_start,
                            error,
                        });
                        break;
                    }
                    summary.responded += 1;
                    continue;
                }
                Some((FrameRead::Valid { kind }, len)) => (kind, len),
            };
            offset += (FRAME_HEADER_BYTES + len) as u64;
            summary.frames += 1;
            let msg = match WireMessage::decode(kind, &payload) {
                Ok(WireMessage::Shutdown) => {
                    // Connection-scoped: this client is done, the server
                    // and every other connection keep running.
                    summary.shutdown = true;
                    break;
                }
                Ok(msg) => Some(msg),
                Err(_) => {
                    self.stats
                        .malformed_messages
                        .fetch_add(1, Ordering::Relaxed);
                    None
                }
            };
            let response = self.apply(msg.as_ref());
            if let (
                Some(WireMessage::Hello {
                    protocol, specs, ..
                }),
                ResponseMessage::HelloAck,
            ) = (&msg, &response)
            {
                // The session's own parameters: a `Hello` that disagrees
                // with an established session is not answered `HelloAck`.
                self.shared
                    .submit_cap
                    .get_or_init(|| max_submit_payload(*protocol, specs));
            }
            if let Err(error) = response.write_to(stream.get_mut()) {
                // The verdict may already be applied server-side; the
                // client will resend on reconnect and the ledger will
                // answer `Duplicate` — at-most-once either way.
                summary.fault = Some(StreamFault {
                    offset: frame_start,
                    error,
                });
                break;
            }
            summary.responded += 1;
        }
        if summary.fault.is_some() {
            self.stats
                .faulted_connections
                .fetch_add(1, Ordering::Relaxed);
        }
        summary
    }

    /// Applies one message to the shared backend and renders its verdict,
    /// or sheds it with `Overloaded` when the in-flight bound is full.
    /// `None` is a frame that verified its checksum but failed message
    /// decoding: the service counts it too (not just the transport), so a
    /// snapshot's `rejected_malformed` covers every rejected message.
    fn apply(&self, msg: Option<&WireMessage>) -> ResponseMessage {
        // `Relaxed` is enough: the count publishes no data (the lock
        // does), it only bounds how many messages may wait for the lock.
        let in_flight = &self.shared.in_flight;
        let response = if in_flight.fetch_add(1, Ordering::Relaxed) < self.queue_capacity {
            let mut backend = self.shared.backend.lock().expect(POISONED);
            match msg {
                Some(msg) => verdict(&mut backend, &self.stats, msg),
                None => {
                    backend.note_malformed();
                    ResponseMessage::Ack {
                        user: 0,
                        epoch: 0,
                        outcome: AckOutcome::Rejected,
                    }
                }
            }
        } else {
            // Backpressure: shed before any state is touched and tell the
            // client to back off. The ledger makes the eventual retry
            // idempotent.
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            let (user, epoch) = msg.map_or((0, 0), echo);
            ResponseMessage::Ack {
                user,
                epoch,
                outcome: AckOutcome::Overloaded,
            }
        };
        in_flight.fetch_sub(1, Ordering::Relaxed);
        response
    }

    /// The in-flight bound this handle sheds against.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Counts a connection closed unserved because no thread could be
    /// spawned to serve it.
    pub(crate) fn note_refused(&self) {
        self.stats
            .refused_connections
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// The state the connections share: a bare service, or one behind the
/// write-ahead log when the server was started durable.
#[derive(Debug)]
enum Backend {
    Plain(Box<ReportService>),
    Durable(Box<DurableService>),
}

impl Backend {
    fn handle(&mut self, msg: &WireMessage) -> Result<Option<FlushReceipt>> {
        match self {
            Backend::Plain(service) => service.handle(msg),
            Backend::Durable(durable) => durable.handle(msg),
        }
    }

    fn note_malformed(&mut self) {
        match self {
            Backend::Plain(service) => service.note_malformed(),
            Backend::Durable(durable) => durable.note_malformed(),
        }
    }

    fn service(&self) -> &ReportService {
        match self {
            Backend::Plain(service) => service,
            Backend::Durable(durable) => durable.service(),
        }
    }

    /// Checkpoints durable state after a flushed epoch; a no-op for the
    /// plain backend, and before any session, which leaves nothing to
    /// checkpoint.
    fn checkpoint(&mut self) -> Result<()> {
        match self {
            Backend::Durable(durable) if durable.service().session_params().is_some() => {
                durable.checkpoint()
            }
            _ => Ok(()),
        }
    }

    fn into_service(self) -> ReportService {
        match self {
            Backend::Plain(service) => *service,
            Backend::Durable(durable) => durable.into_service(),
        }
    }
}

/// A running report server: one [`ReportService`] shared by any number
/// of [`ConnHandle`]s, each applying its own connection's messages.
#[derive(Debug)]
pub struct ReportServer {
    handle: ConnHandle,
    /// Disconnects once every [`ConnHandle`]'s liveness token is dropped;
    /// nothing is ever sent on it.
    drained: mpsc::Receiver<()>,
}

impl ReportServer {
    /// Starts a server around a fresh service. No thread is spawned:
    /// each connection's messages run on the thread serving it.
    pub fn start(config: ServerConfig) -> Self {
        let service = ReportService::new(config.service.clone());
        Self::start_backend(&config, Backend::Plain(Box::new(service)))
    }

    /// Starts a server around a [`DurableService`] on `dir`: recovery
    /// runs first (the returned [`RecoveryReport`] says what it rebuilt),
    /// and from then on every `Admitted` ack is sent only after the
    /// submit's WAL record is as durable as `durable.fsync` promises. A
    /// message the durability layer cannot make durable — a `Hello`,
    /// `Submit` or `FlushEpoch` alike — is answered `Overloaded`:
    /// retryable, and the ledger keeps the eventual retry at-most-once.
    ///
    /// `durable.service` is overridden by `config.service` so the two
    /// configs cannot disagree about the ledger key.
    ///
    /// # Errors
    /// Recovery failures — see [`crate::durable::Recovery::replay`].
    pub fn start_durable(
        config: ServerConfig,
        dir: &Path,
        mut durable: DurableConfig,
    ) -> Result<(Self, RecoveryReport)> {
        durable.service = config.service.clone();
        let (service, report) = DurableService::open(dir, durable)?;
        Ok((
            Self::start_backend(&config, Backend::Durable(Box::new(service))),
            report,
        ))
    }

    fn start_backend(config: &ServerConfig, backend: Backend) -> Self {
        let (alive, drained) = mpsc::channel();
        let submit_cap = match backend.service().session_params() {
            Some((protocol, _, specs, _)) => OnceLock::from(max_submit_payload(protocol, specs)),
            None => OnceLock::new(),
        };
        ReportServer {
            handle: ConnHandle {
                shared: Arc::new(Shared {
                    backend: Mutex::new(backend),
                    in_flight: AtomicUsize::new(0),
                    submit_cap,
                }),
                stats: Arc::new(TransportStats::default()),
                queue_capacity: config.queue_capacity.max(1),
                _alive: alive,
            },
            drained,
        }
    }

    /// A new connection handle; give one clone to each connection thread.
    pub fn handle(&self) -> ConnHandle {
        self.handle.clone()
    }

    /// The server's shared transport counters.
    pub fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.handle.stats)
    }

    /// Graceful drain-then-stop: waits for every outstanding
    /// [`ConnHandle`] to drop and returns the service with every answered
    /// message applied.
    ///
    /// Blocks until all connection handles are gone — join connection
    /// threads before calling.
    pub fn finish(self) -> ReportService {
        let ReportServer { handle, drained } = self;
        let shared = Arc::clone(&handle.shared);
        // Our own token first, or the wait below never ends.
        drop(handle);
        // Nothing is ever sent: `recv` returns once the last token drops.
        let _ = drained.recv();
        Arc::try_unwrap(shared)
            .expect("every handle released the backend before its token")
            .backend
            .into_inner()
            .expect(POISONED)
            .into_service()
    }
}

/// The `(user, epoch)` an `Ack` to `msg` echoes: a `Submit`'s pair, a
/// `FlushEpoch`'s epoch, zeros for anything else. The one rule for every
/// ack, shed or refused.
fn echo(msg: &WireMessage) -> (u64, u64) {
    match msg {
        WireMessage::Submit { user, epoch, .. } => (*user, *epoch),
        WireMessage::FlushEpoch { epoch } => (0, *epoch),
        WireMessage::Hello { .. } | WireMessage::Shutdown => (0, 0),
    }
}

/// Applies one message to the backend and renders the wire verdict. A
/// refusal follows the one rule of the module docs for every message
/// kind; its ack echoes the message (see [`echo`]).
fn verdict(backend: &mut Backend, stats: &TransportStats, msg: &WireMessage) -> ResponseMessage {
    // Shutdown is handled connection-side and never applied.
    if matches!(msg, WireMessage::Shutdown) {
        return ResponseMessage::Ack {
            user: 0,
            epoch: 0,
            outcome: AckOutcome::Rejected,
        };
    }
    if matches!(msg, WireMessage::Submit { .. }) {
        stats.submits.fetch_add(1, Ordering::Relaxed);
    }
    let outcome = match (msg, backend.handle(msg)) {
        (WireMessage::Hello { .. }, Ok(_)) => return ResponseMessage::HelloAck,
        // In durable mode `Ok` means the WAL record reached the disk
        // under the configured fsync policy: ack-after-durable.
        (WireMessage::Submit { .. }, Ok(_)) => AckOutcome::Admitted,
        (WireMessage::FlushEpoch { .. }, Ok(Some(receipt))) => {
            // An epoch boundary is the compaction point: checkpoint the
            // durable state and rotate the log. A failure here loses no
            // data — the log still covers everything — so it only counts
            // as a storage shed, and the flush ack stands.
            if backend.checkpoint().is_err() {
                stats.storage_sheds.fetch_add(1, Ordering::Relaxed);
            }
            return ResponseMessage::SnapshotAck {
                epoch: receipt.epoch,
                admitted: receipt.admitted,
                rejected_duplicates: receipt.rejected_duplicates,
                rejected_malformed: receipt.rejected_malformed,
                users: receipt.users,
            };
        }
        (_, Err(LdpError::DuplicateReport { .. })) => AckOutcome::Duplicate,
        (_, Err(LdpError::Storage { .. })) => {
            stats.storage_sheds.fetch_add(1, Ordering::Relaxed);
            AckOutcome::Overloaded
        }
        _ => {
            backend.note_malformed();
            AckOutcome::Rejected
        }
    };
    let (user, epoch) = echo(msg);
    ResponseMessage::Ack {
        user,
        epoch,
        outcome,
    }
}

/// Test-only plumbing: handles with occupied in-flight slots, for
/// exercising the shedding path without racing live connections.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A [`ConnHandle`] over a fresh plain service whose in-flight bound
    /// is `capacity`.
    pub(crate) fn wedged_handle(capacity: usize) -> ConnHandle {
        ReportServer::start(ServerConfig {
            service: ServiceConfig::default(),
            queue_capacity: capacity,
        })
        .handle()
    }

    /// A server over a [`DurableService`] on `dir` opened with `crash`
    /// armed, which [`ReportServer::start_durable`] cannot do.
    pub(crate) fn durable_server(
        dir: &Path,
        durable: DurableConfig,
        crash: Option<crate::durable::CrashSchedule>,
    ) -> ReportServer {
        let (service, _) = DurableService::open_with_crash(dir, durable, crash)
            .expect("the durable directory opens");
        ReportServer::start_backend(
            &ServerConfig::default(),
            Backend::Durable(Box::new(service)),
        )
    }

    /// Occupies one in-flight slot with a message nobody will answer.
    pub(crate) fn fill(handle: &ConnHandle) {
        let before = handle.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        assert!(
            before < handle.queue_capacity,
            "in-flight bound must have a free slot to fill"
        );
    }
}
