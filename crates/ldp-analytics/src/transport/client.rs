//! The client half of the transport: reconnect, replay, and idempotent
//! retry around a [`ReportServer`](super::server::ReportServer).
//!
//! The client's safety argument is the privacy-budget ledger's: a submit
//! whose ack is lost (timeout, disconnect, garbled response) is in an
//! unknown state, and the only safe move is to *resend it* — the server's
//! per-user-per-epoch ledger turns the resend into an
//! [`AckOutcome::Duplicate`] verdict if the original landed, so the
//! report's budget is spent at most once no matter how many times the
//! wire eats an ack. The client therefore treats `Duplicate` after a
//! fault as success ([`SubmitOutcome::AlreadyAdmitted`]), never as an
//! error.
//!
//! Reconnects replay the session [`WireMessage::Hello`] before anything
//! else — `Hello` is idempotent server-side, so the replay either
//! re-asserts the session or fails loudly against a different one.

use std::io::{BufReader, Read, Write};
use std::thread;
use std::time::Duration;

use ldp_core::{IoFault, LdpError, Result};

use crate::service::{AckOutcome, FlushReceipt, ResponseMessage, WireMessage};
use crate::transport::backoff::Backoff;

/// A factory for transport streams — the client's reconnect hook.
///
/// Implementations should classify connection failures through
/// [`ldp_core::frame::io_error`] with op `"connect"` so the retry loop
/// sees typed transient errors.
pub trait Connect {
    /// The stream type produced.
    type Stream: Read + Write;
    /// Establishes a fresh stream to the server.
    fn connect(&mut self) -> Result<Self::Stream>;
}

/// Retry policy for a [`ReportClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Attempts per operation (connect + exchange counts as one) before
    /// the last transient error is returned. Clamped to at least 1.
    pub max_attempts: u32,
    /// In-connection resend bounces per exchange before the connection is
    /// declared hostile and rebuilt.
    pub max_resends: u32,
    /// First backoff delay.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the jittered backoff schedule (see [`Backoff`]).
    pub backoff_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_attempts: 8,
            max_resends: 8,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            backoff_seed: 0x1cde_2019,
        }
    }
}

/// Client-side transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful connections established (including reconnects).
    pub connects: u64,
    /// Requests re-written after a [`ResponseMessage::Resend`].
    pub resends: u64,
    /// Submits acknowledged `Duplicate` — proof a retried report's budget
    /// was *not* spent twice.
    pub duplicate_acks: u64,
    /// Backoff pauses taken after an `Overloaded` verdict.
    pub overload_pauses: u64,
    /// Transient faults survived (reconnect-and-retry cycles).
    pub faults: u64,
}

/// How a [`ReportClient::submit`] succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The report was admitted by this exchange.
    Admitted,
    /// The server's ledger had already admitted this `(user, epoch)` — an
    /// earlier attempt landed but its ack was lost. The budget was spent
    /// exactly once.
    AlreadyAdmitted,
}

/// A reconnecting, retrying client for the report-stream protocol.
///
/// Wraps a [`Connect`] factory; on any transient fault (timeout, lost
/// connection, garbled response, server overload) it tears the stream
/// down, backs off on the seeded [`Backoff`] schedule, reconnects,
/// replays the session `Hello`, and retries the operation — relying on
/// the server's ledger for at-most-once semantics.
pub struct ReportClient<C: Connect> {
    connector: C,
    hello: WireMessage,
    config: ClientConfig,
    backoff: Backoff,
    /// Responses are read through a buffer that lives as long as the
    /// connection; requests are written to the stream itself.
    conn: Option<BufReader<C::Stream>>,
    scratch: Vec<u8>,
    stats: ClientStats,
    sleeper: Box<dyn FnMut(Duration) + Send>,
}

impl<C: Connect> std::fmt::Debug for ReportClient<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportClient")
            .field("connected", &self.conn.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<C: Connect> ReportClient<C> {
    /// A client that will open sessions with `hello` (which must be a
    /// [`WireMessage::Hello`]) through `connector`.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] if `hello` is any other message.
    pub fn new(connector: C, hello: WireMessage, config: ClientConfig) -> Result<Self> {
        if !matches!(hello, WireMessage::Hello { .. }) {
            return Err(LdpError::InvalidParameter {
                name: "hello",
                message: "session opener must be a Hello message".into(),
            });
        }
        let backoff = Backoff::new(config.backoff_seed, config.backoff_base, config.backoff_cap);
        Ok(ReportClient {
            connector,
            hello,
            config,
            backoff,
            conn: None,
            scratch: Vec::new(),
            stats: ClientStats::default(),
            sleeper: Box::new(thread::sleep),
        })
    }

    /// Replaces the backoff sleeper — tests substitute a recorder so
    /// chaos suites never wall-clock sleep.
    pub fn with_sleeper(mut self, sleeper: Box<dyn FnMut(Duration) + Send>) -> Self {
        self.sleeper = sleeper;
        self
    }

    /// Client-side transport counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Submits one report, retrying through faults until a verdict.
    ///
    /// Returns [`SubmitOutcome::Admitted`] on first admission and
    /// [`SubmitOutcome::AlreadyAdmitted`] when a resend found the budget
    /// already spent — both are success.
    ///
    /// # Errors
    /// The server's `Rejected` verdict is permanent and returned at once:
    /// [`LdpError::MalformedFrame`] for the submit itself,
    /// [`LdpError::InvalidParameter`] for a session `Hello` the server
    /// refuses. Transient faults are returned only after `max_attempts`
    /// consecutive failures.
    pub fn submit(
        &mut self,
        user: u64,
        epoch: u64,
        block: u64,
        report: Vec<u8>,
    ) -> Result<SubmitOutcome> {
        let msg = WireMessage::Submit {
            user,
            epoch,
            block,
            report,
        };
        let mut last = None;
        for _ in 0..self.config.max_attempts.max(1) {
            match self.roundtrip(&msg) {
                Ok(ResponseMessage::Ack {
                    user: u,
                    epoch: e,
                    outcome,
                }) if u == user && e == epoch => match outcome {
                    AckOutcome::Admitted => {
                        self.backoff.reset();
                        return Ok(SubmitOutcome::Admitted);
                    }
                    AckOutcome::Duplicate => {
                        self.stats.duplicate_acks += 1;
                        self.backoff.reset();
                        return Ok(SubmitOutcome::AlreadyAdmitted);
                    }
                    AckOutcome::Overloaded => {
                        // Shed before touching state: same connection,
                        // just slower.
                        self.stats.overload_pauses += 1;
                        last = Some(LdpError::Overloaded { capacity: 0 });
                        self.pause();
                    }
                    AckOutcome::Rejected => {
                        return Err(LdpError::MalformedFrame {
                            message: format!(
                                "server rejected submit for user {user:#x} epoch {epoch}"
                            ),
                        })
                    }
                },
                // Any other response is a protocol desync: the ack stream
                // no longer lines up with the request stream.
                Ok(other) => {
                    last = Some(desync_error(&other));
                    self.fault_pause();
                }
                Err(e) if is_transient(&e) => {
                    last = Some(e);
                    self.fault_pause();
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Flushes an epoch, retrying through faults, and returns its counters.
    ///
    /// The flush is the epoch's durability boundary: a durable server
    /// forces its log to disk (and checkpoints) before it answers. The
    /// estimates stay server-side, read with
    /// [`ReportService::snapshot_epoch`](crate::service::ReportService::snapshot_epoch).
    /// A flush changes no aggregate state, so the retry is trivially
    /// idempotent.
    ///
    /// # Errors
    /// As [`ReportClient::submit`].
    pub fn flush_epoch(&mut self, epoch: u64) -> Result<FlushReceipt> {
        let msg = WireMessage::FlushEpoch { epoch };
        let mut last = None;
        for _ in 0..self.config.max_attempts.max(1) {
            match self.roundtrip(&msg) {
                Ok(ResponseMessage::SnapshotAck {
                    epoch: e,
                    admitted,
                    rejected_duplicates,
                    rejected_malformed,
                    users,
                }) if e == epoch => {
                    self.backoff.reset();
                    return Ok(FlushReceipt {
                        epoch: e,
                        admitted,
                        rejected_duplicates,
                        rejected_malformed,
                        users,
                    });
                }
                Ok(ResponseMessage::Ack {
                    outcome: AckOutcome::Overloaded,
                    ..
                }) => {
                    self.stats.overload_pauses += 1;
                    last = Some(LdpError::Overloaded { capacity: 0 });
                    self.pause();
                }
                Ok(ResponseMessage::Ack {
                    outcome: AckOutcome::Rejected,
                    ..
                }) => {
                    return Err(LdpError::MalformedFrame {
                        message: format!("server rejected flush of epoch {epoch}"),
                    })
                }
                Ok(other) => {
                    last = Some(desync_error(&other));
                    self.fault_pause();
                }
                Err(e) if is_transient(&e) => {
                    last = Some(e);
                    self.fault_pause();
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Best-effort goodbye: sends [`WireMessage::Shutdown`] (no response
    /// expected) and drops the stream. Errors are swallowed — the server
    /// treats EOF identically.
    pub fn close(&mut self) {
        if let Some(mut conn) = self.conn.take() {
            let _ = send(conn.get_mut(), &WireMessage::Shutdown);
        }
    }

    /// One request/response exchange, connecting (with `Hello` replay)
    /// first if needed. Any error leaves `self.conn` for the caller's
    /// fault path; protocol-level `Resend` bounces are absorbed here.
    fn roundtrip(&mut self, msg: &WireMessage) -> Result<ResponseMessage> {
        self.ensure_connected()?;
        let conn = self.conn.as_mut().expect("just connected");
        exchange(
            conn,
            msg,
            &mut self.scratch,
            &mut self.stats,
            self.config.max_resends,
        )
    }

    /// Connects and replays the session `Hello`, expecting `HelloAck`.
    fn ensure_connected(&mut self) -> Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut stream = BufReader::new(self.connector.connect()?);
        self.stats.connects += 1;
        let hello = self.hello.clone();
        match exchange(
            &mut stream,
            &hello,
            &mut self.scratch,
            &mut self.stats,
            self.config.max_resends,
        )? {
            ResponseMessage::HelloAck => {
                self.conn = Some(stream);
                Ok(())
            }
            // Permanent: the same Hello fails identically on every
            // reconnect, so it must not look transient to the retry loop.
            ResponseMessage::Ack {
                outcome: AckOutcome::Rejected,
                ..
            } => Err(LdpError::InvalidParameter {
                name: "hello",
                message: "server rejected session hello (parameters disagree \
                          with the established session)"
                    .into(),
            }),
            ResponseMessage::Ack {
                outcome: AckOutcome::Overloaded,
                ..
            } => Err(LdpError::Overloaded { capacity: 0 }),
            other => Err(desync_error(&other)),
        }
    }

    /// Drops the (possibly poisoned) connection and backs off.
    fn fault_pause(&mut self) {
        self.conn = None;
        self.stats.faults += 1;
        self.pause();
    }

    fn pause(&mut self) {
        let delay = self.backoff.next_delay();
        (self.sleeper)(delay);
    }
}

/// Writes `msg` and reads its response, absorbing up to `max_resends`
/// [`ResponseMessage::Resend`] bounces (outbound frame corrupted in
/// flight but the server kept sync). A response that arrives whole is
/// one `read`.
fn exchange<S: Read + Write>(
    stream: &mut BufReader<S>,
    msg: &WireMessage,
    scratch: &mut Vec<u8>,
    stats: &mut ClientStats,
    max_resends: u32,
) -> Result<ResponseMessage> {
    send(stream.get_mut(), msg)?;
    let mut resends = 0;
    loop {
        match ResponseMessage::read_from(stream, scratch)? {
            Some(ResponseMessage::Resend) => {
                resends += 1;
                stats.resends += 1;
                if resends > max_resends {
                    return Err(LdpError::MalformedFrame {
                        message: format!(
                            "server requested {resends} resends of one frame; \
                             abandoning the connection"
                        ),
                    });
                }
                send(stream.get_mut(), msg)?;
            }
            Some(response) => return Ok(response),
            // EOF where a response was owed: the exchange is in an
            // unknown state — reconnect and retry idempotently.
            None => {
                return Err(LdpError::ConnectionLost {
                    op: "read",
                    cause: IoFault {
                        kind: std::io::ErrorKind::UnexpectedEof,
                        message: "stream ended while awaiting a response".into(),
                    },
                })
            }
        }
    }
}

/// Writes `msg` as one frame and flushes it.
fn send<W: Write>(stream: &mut W, msg: &WireMessage) -> Result<()> {
    msg.write_to(stream)?;
    stream
        .flush()
        .map_err(|e| ldp_core::frame::io_error("flush", &e))
}

/// Faults worth a reconnect-and-retry; everything else is permanent.
///
/// `MalformedFrame` is transient *here* because on the client's read path
/// it means a response frame was garbled in flight — the verdict is
/// unknown, and an idempotent resend over a fresh connection resolves it.
fn is_transient(e: &LdpError) -> bool {
    matches!(
        e,
        LdpError::Timeout { .. }
            | LdpError::ConnectionLost { .. }
            | LdpError::Overloaded { .. }
            | LdpError::MalformedFrame { .. }
    )
}

/// A response that cannot answer the outstanding request.
fn desync_error(got: &ResponseMessage) -> LdpError {
    LdpError::MalformedFrame {
        message: format!("response desync: unexpected {got:?} for the outstanding request"),
    }
}
