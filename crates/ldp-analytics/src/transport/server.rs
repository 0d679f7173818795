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
use std::sync::{mpsc, Arc, Mutex};

use ldp_core::frame::{self, FrameRead, FRAME_HEADER_BYTES};
use ldp_core::Result;

use crate::durable::{self, DurableConfig, DurableService, RecoveryReport};
use crate::service::{
    AckOutcome, EpochSnapshot, ReportService, ResponseMessage, ServiceConfig, StreamFault,
    WireMessage,
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
    injected_crashes: AtomicU64,
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

    /// Messages answered `Overloaded` because the durability layer could
    /// not make them durable (WAL/checkpoint I/O failure or injected
    /// crash) — the ack-after-durable contract refusing to lie rather
    /// than acking volatile state.
    pub fn storage_sheds(&self) -> u64 {
        self.storage_sheds.load(Ordering::Relaxed)
    }

    /// Crashes injected by a [`crate::durable::CrashSchedule`] that the
    /// server observed (the transport-side mirror of
    /// [`crate::transport::FaultCounts::crashes`]).
    pub fn injected_crashes(&self) -> u64 {
        self.injected_crashes.load(Ordering::Relaxed)
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
    pub fn serve_stream<S: Read + Write + ?Sized>(&self, stream: &mut S) -> ConnSummary {
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        let mut summary = ConnSummary::default();
        let mut payload = Vec::new();
        let mut offset = 0u64;
        let mut stream = BufReader::new(stream);
        loop {
            let frame_start = offset;
            let read = match frame::read_frame(&mut stream, &mut payload) {
                Ok(read) => read,
                Err(error) => {
                    summary.fault = Some(StreamFault {
                        offset: frame_start,
                        error,
                    });
                    break;
                }
            };
            let kind = match read {
                None => break,
                Some(FrameRead::Corrupt { .. }) => {
                    offset += (FRAME_HEADER_BYTES + payload.len()) as u64;
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
                Some(FrameRead::Valid { kind }) => kind,
            };
            offset += (FRAME_HEADER_BYTES + payload.len()) as u64;
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
            let (user, epoch) = match msg {
                Some(WireMessage::Submit { user, epoch, .. }) => (*user, *epoch),
                _ => (0, 0),
            };
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
    fn handle(&mut self, msg: &WireMessage) -> Result<Option<EpochSnapshot>> {
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

    /// Checkpoints durable state after a flushed epoch; a no-op for the
    /// plain backend.
    fn checkpoint(&mut self) -> Result<()> {
        match self {
            Backend::Plain(_) => Ok(()),
            Backend::Durable(durable) => durable.checkpoint(),
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
    /// report the durability layer cannot log is answered `Overloaded` —
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
        ReportServer {
            handle: ConnHandle {
                shared: Arc::new(Shared {
                    backend: Mutex::new(backend),
                    in_flight: AtomicUsize::new(0),
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

/// Counts a storage-layer failure and renders the retryable verdict. The
/// durability layer refused (or failed) to make the message durable, so
/// the honest answer is `Overloaded`: the client backs off and retries,
/// and the ledger keeps the eventual retry at-most-once.
fn storage_shed(stats: &TransportStats, error: &ldp_core::LdpError) {
    stats.storage_sheds.fetch_add(1, Ordering::Relaxed);
    if durable::is_injected_crash(error) {
        stats.injected_crashes.fetch_add(1, Ordering::Relaxed);
    }
}

/// Applies one message to the backend and renders the wire verdict.
fn verdict(backend: &mut Backend, stats: &TransportStats, msg: &WireMessage) -> ResponseMessage {
    match msg {
        WireMessage::Hello { .. } => match backend.handle(msg) {
            Ok(_) => ResponseMessage::HelloAck,
            Err(ref e) if durable::is_storage_error(e) => {
                storage_shed(stats, e);
                ResponseMessage::Ack {
                    user: 0,
                    epoch: 0,
                    outcome: AckOutcome::Overloaded,
                }
            }
            Err(_) => {
                backend.note_malformed();
                ResponseMessage::Ack {
                    user: 0,
                    epoch: 0,
                    outcome: AckOutcome::Rejected,
                }
            }
        },
        WireMessage::Submit { user, epoch, .. } => {
            stats.submits.fetch_add(1, Ordering::Relaxed);
            // In durable mode `Ok` means the WAL record reached the disk
            // under the configured fsync policy: ack-after-durable.
            let outcome = match backend.handle(msg) {
                Ok(_) => AckOutcome::Admitted,
                Err(ldp_core::LdpError::DuplicateReport { .. }) => AckOutcome::Duplicate,
                Err(ref e) if durable::is_storage_error(e) => {
                    storage_shed(stats, e);
                    AckOutcome::Overloaded
                }
                Err(_) => {
                    backend.note_malformed();
                    AckOutcome::Rejected
                }
            };
            ResponseMessage::Ack {
                user: *user,
                epoch: *epoch,
                outcome,
            }
        }
        WireMessage::FlushEpoch { epoch } => match backend.handle(msg) {
            Ok(Some(snap)) => {
                // An epoch boundary is the compaction point: checkpoint
                // the durable state and rotate the log. A failure here
                // loses no data — the log still covers everything — so it
                // only counts as a storage shed, the snapshot ack stands.
                if let Err(ref e) = backend.checkpoint() {
                    storage_shed(stats, e);
                }
                ResponseMessage::SnapshotAck {
                    epoch: snap.epoch,
                    admitted: snap.admitted,
                    rejected_duplicates: snap.rejected_duplicates,
                    rejected_malformed: snap.rejected_malformed,
                    users: snap.result.map_or(0, |r| r.n as u64),
                }
            }
            Ok(None) | Err(_) => {
                backend.note_malformed();
                ResponseMessage::Ack {
                    user: 0,
                    epoch: *epoch,
                    outcome: AckOutcome::Rejected,
                }
            }
        },
        // Shutdown is handled connection-side and never applied.
        WireMessage::Shutdown => ResponseMessage::Ack {
            user: 0,
            epoch: 0,
            outcome: AckOutcome::Rejected,
        },
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

    /// Occupies one in-flight slot with a message nobody will answer.
    pub(crate) fn fill(handle: &ConnHandle) {
        let before = handle.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        assert!(
            before < handle.queue_capacity,
            "in-flight bound must have a free slot to fill"
        );
    }
}
