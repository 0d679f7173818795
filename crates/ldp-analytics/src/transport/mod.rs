//! Fault-tolerant transport for the report-stream protocol.
//!
//! The [`service`](crate::service) module defines *what* travels (framed
//! [`WireMessage`](crate::service::WireMessage)s in, framed
//! [`ResponseMessage`](crate::service::ResponseMessage)s out); this
//! module defines *how it survives a real network*:
//!
//! * [`server`] — a [`ReportServer`]: one thread per connection, each
//!   applying its own messages to one shared service under a lock, with
//!   a **bounded** number in flight. Backpressure is explicit (bound full
//!   ⇒ typed `Overloaded` shed, not unbounded waiting), faults are
//!   connection-scoped (a hostile or desynced client is dropped and
//!   counted, never poisons shared state), and shutdown drains before it
//!   stops.
//! * [`client`] — a [`ReportClient`]: connect timeouts, seeded
//!   exponential [`backoff`] with jitter, reconnect-with-`Hello`-replay,
//!   and resend of unacknowledged submits. The server's privacy-budget
//!   ledger answers a resent-but-already-admitted report with a
//!   `Duplicate` verdict, so retries are **idempotent by construction**
//!   — at-most-once budget spend without client-side bookkeeping.
//! * [`chaos`] — a deterministic fault injector ([`ChaosStream`]), an
//!   in-process socket pair ([`duplex`]) and a recorded one-shot
//!   connection ([`ScriptedStream`]), so the integration suite can prove
//!   the property that matters: a chaos-ridden run's merged snapshot is
//!   *bit-identical* to a clean run's.
//! * [`net`] — `std::net` TCP shells over the stream-agnostic core.
//!
//! ## Verdicts and the retry contract
//!
//! Three signals cover everything that can go wrong short of a dead
//! wire, and each prescribes exactly one client reaction:
//!
//! * [`AckOutcome::Overloaded`](crate::service::AckOutcome::Overloaded)
//!   — the server's in-flight bound shed the submit **before** any
//!   validation or ledger state was touched. Nothing was spent; the
//!   client pauses on its [`Backoff`] schedule and resends on the *same*
//!   connection.
//! * [`ResponseMessage::Resend`](crate::service::ResponseMessage::Resend)
//!   — a frame arrived checksum-corrupt but well-delimited. The stream
//!   is still in sync, so the client rewrites the same frame in place;
//!   after [`ClientConfig::max_resends`] bounces the connection is
//!   declared hostile and rebuilt.
//! * [`StreamFault`](crate::service::StreamFault) — desynchronizing
//!   damage (truncation, an oversized length, an I/O error), recorded
//!   with the exact byte offset. The server ends *that connection only*;
//!   the client reconnects, replays its `Hello`, and retries.
//!
//! Whenever an ack is lost the submit's fate is unknown, and the only
//! safe move is to resend. That is safe because the server's
//! [`BudgetLedger`](crate::ledger::BudgetLedger) answers a resend of an
//! already-admitted `(user, epoch)` with a
//! [`Duplicate`](crate::service::AckOutcome::Duplicate) verdict, which
//! [`ReportClient`] surfaces as the *success*
//! [`SubmitOutcome::AlreadyAdmitted`]: **at-most-once budget spend, no
//! client-side bookkeeping** — retries can only ever be counted, never
//! double-spent.
//!
//! ## Example: a client/server round trip
//!
//! An in-process connection (a deployment would use
//! [`TcpConnector`]/[`TcpReportServer`]; the contract is identical):
//!
//! ```
//! use ldp_analytics::service::{encode_report, WireMessage};
//! use ldp_analytics::transport::{
//!     duplex, ClientConfig, Connect, PipeStream, ReportClient, ReportServer, ServerConfig,
//!     SubmitOutcome,
//! };
//! use ldp_analytics::{ClientEncoder, Protocol};
//! use ldp_core::multidim::{AttrSpec, AttrValue};
//! use ldp_core::rng::seeded_rng;
//! use ldp_core::{Epsilon, IoFault, LdpError, NumericKind, OracleKind};
//!
//! // A connector over one pre-wired duplex half.
//! struct OneShot(Option<PipeStream>);
//! impl Connect for OneShot {
//!     type Stream = PipeStream;
//!     fn connect(&mut self) -> ldp_core::Result<PipeStream> {
//!         self.0.take().ok_or(LdpError::ConnectionLost {
//!             op: "connect",
//!             cause: IoFault {
//!                 kind: std::io::ErrorKind::ConnectionRefused,
//!                 message: "single test stream already used".into(),
//!             },
//!         })
//!     }
//! }
//!
//! let protocol = Protocol::Sampling {
//!     numeric: NumericKind::Hybrid,
//!     oracle: OracleKind::Oue,
//! };
//! let epsilon = Epsilon::new(1.0)?;
//! let specs = vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 4 }];
//!
//! // Server: each connection's thread applies its messages to the one
//! // shared service; here a single in-process connection is served on a
//! // spawned thread.
//! let server = ReportServer::start(ServerConfig::default());
//! let (client_half, mut server_half) = duplex();
//! let handle = server.handle();
//! let conn = std::thread::spawn(move || handle.serve_stream(&mut server_half));
//!
//! // Client: reconnect + retry around the framed protocol.
//! let hello = WireMessage::Hello {
//!     protocol,
//!     epsilon,
//!     specs: specs.clone(),
//!     epoch: 0,
//! };
//! let mut client = ReportClient::new(OneShot(Some(client_half)), hello, ClientConfig::default())?;
//!
//! let encoder = ClientEncoder::new(protocol, epsilon, specs.clone())?;
//! let record = vec![AttrValue::Numeric(0.25), AttrValue::Categorical(1)];
//! let mut rng = seeded_rng(7);
//! for user in 0..10u64 {
//!     let report = encoder.encode(&record, &mut rng)?;
//!     let outcome = client.submit(user, 0, 0, encode_report(&report, &specs))?;
//!     assert_eq!(outcome, SubmitOutcome::Admitted);
//! }
//!
//! // Retrying an already-admitted user is success, not a double spend.
//! let report = encoder.encode(&record, &mut rng)?;
//! let outcome = client.submit(3, 0, 0, encode_report(&report, &specs))?;
//! assert_eq!(outcome, SubmitOutcome::AlreadyAdmitted);
//!
//! let receipt = client.flush_epoch(0)?;
//! assert_eq!(receipt.admitted, 10);
//! assert_eq!(receipt.rejected_duplicates, 1);
//!
//! client.close();
//! conn.join().expect("connection thread");
//! let service = server.finish(); // waits for every handle, returns the service
//! assert_eq!(service.snapshot_epoch(0)?.admitted, 10);
//! # Ok::<(), LdpError>(())
//! ```

pub mod backoff;
pub mod chaos;
pub mod client;
pub mod net;
pub mod server;

pub use backoff::Backoff;
pub use chaos::{
    duplex, ChaosConfig, ChaosStream, CrashSwitch, FaultCounts, PipeStream, ScriptedStream,
};
pub use client::{ClientConfig, ClientStats, Connect, FlushReceipt, ReportClient, SubmitOutcome};
pub use net::{NetConfig, TcpConnector, TcpReportServer};
pub use server::{ConnHandle, ConnSummary, ReportServer, ServerConfig, TransportStats};

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use ldp_core::{Epsilon, LdpError};

    use super::chaos::duplex;
    use super::client::{ClientConfig, Connect, ReportClient, SubmitOutcome};
    use super::server::{ReportServer, ServerConfig};
    use crate::pipeline::Protocol;
    use crate::service::{encode_report, AckOutcome, ResponseMessage, ServiceConfig, WireMessage};
    use crate::session::ClientEncoder;
    use ldp_core::multidim::{AttrSpec, AttrValue};
    use ldp_core::rng::seeded_rng;
    use ldp_core::{NumericKind, OracleKind};

    fn specs() -> Vec<AttrSpec> {
        vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 4 }]
    }

    fn protocol() -> Protocol {
        Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        }
    }

    fn hello() -> WireMessage {
        WireMessage::Hello {
            protocol: protocol(),
            epsilon: Epsilon::new(1.0).unwrap(),
            specs: specs(),
            epoch: 0,
        }
    }

    fn report_bytes(user: u64) -> Vec<u8> {
        let encoder = ClientEncoder::new(protocol(), Epsilon::new(1.0).unwrap(), specs()).unwrap();
        let mut rng = seeded_rng(user ^ 0xD1CE);
        let record = vec![AttrValue::Numeric(0.25), AttrValue::Categorical(1)];
        let report = encoder.encode(&record, &mut rng).unwrap();
        encode_report(&report, &specs())
    }

    /// A connector yielding pre-built duplex halves (each one wired to a
    /// live server thread by the test).
    struct QueueConnector {
        streams: Vec<super::chaos::PipeStream>,
    }

    impl Connect for QueueConnector {
        type Stream = super::chaos::PipeStream;
        fn connect(&mut self) -> ldp_core::Result<Self::Stream> {
            self.streams.pop().ok_or(LdpError::ConnectionLost {
                op: "connect",
                cause: ldp_core::IoFault {
                    kind: std::io::ErrorKind::ConnectionRefused,
                    message: "no more test streams".into(),
                },
            })
        }
    }

    fn no_sleep_config() -> ClientConfig {
        ClientConfig {
            max_attempts: 8,
            max_resends: 8,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            backoff_seed: 1,
        }
    }

    #[test]
    fn end_to_end_submit_flush_over_duplex() {
        let server = ReportServer::start(ServerConfig::default());
        let (client_half, mut server_half) = duplex();
        let handle = server.handle();
        let conn_thread = std::thread::spawn(move || handle.serve_stream(&mut server_half));

        let connector = QueueConnector {
            streams: vec![client_half],
        };
        let mut client = ReportClient::new(connector, hello(), no_sleep_config()).unwrap();
        for user in 0..20u64 {
            let outcome = client
                .submit(user, 0, user / 8, report_bytes(user))
                .unwrap();
            assert_eq!(outcome, SubmitOutcome::Admitted);
        }
        // Resubmitting a user is answered Duplicate and surfaces as
        // AlreadyAdmitted — the idempotency contract.
        let outcome = client.submit(3, 0, 0, report_bytes(3)).unwrap();
        assert_eq!(outcome, SubmitOutcome::AlreadyAdmitted);
        assert_eq!(client.stats().duplicate_acks, 1);

        let receipt = client.flush_epoch(0).unwrap();
        assert_eq!(receipt.admitted, 20);
        assert_eq!(receipt.rejected_duplicates, 1);
        assert_eq!(receipt.users, 20);

        client.close();
        let summary = conn_thread.join().unwrap();
        assert!(summary.shutdown, "close() must send Shutdown");
        assert!(summary.fault.is_none());

        let service = server.finish();
        let snap = service.snapshot_epoch(0).unwrap();
        assert_eq!(snap.admitted, 20);
        assert_eq!(snap.rejected_duplicates, 1);
    }

    #[test]
    fn finish_waits_for_a_live_connection_and_keeps_every_acked_submit() {
        let server = ReportServer::start(ServerConfig::default());
        let stats = server.stats();
        let (client_half, mut server_half) = duplex();
        let handle = server.handle();
        let conn_thread = std::thread::spawn(move || handle.serve_stream(&mut server_half));
        let connector = QueueConnector {
            streams: vec![client_half],
        };
        let mut client = ReportClient::new(connector, hello(), no_sleep_config()).unwrap();
        for user in 0..5u64 {
            let outcome = client.submit(user, 0, 0, report_bytes(user)).unwrap();
            assert_eq!(outcome, SubmitOutcome::Admitted);
        }

        let finisher = std::thread::spawn(move || server.finish());
        // The stats are shared by us, the connection's handle and the
        // server's own handle, which `finish` drops before it waits:
        // once only two owners remain, `finish` is waiting (or about to).
        while Arc::strong_count(&stats) > 2 {
            std::thread::yield_now();
        }
        for user in 5..10u64 {
            let outcome = client.submit(user, 0, 0, report_bytes(user)).unwrap();
            assert_eq!(outcome, SubmitOutcome::Admitted);
            assert!(
                !finisher.is_finished(),
                "finish returned while a connection was still served"
            );
        }
        client.close();
        conn_thread.join().unwrap();

        let service = finisher.join().unwrap();
        assert_eq!(service.snapshot_epoch(0).unwrap().admitted, 10);
        assert_eq!(stats.submits(), 10);
    }

    #[test]
    fn rejected_hello_fails_fast_without_reconnecting() {
        let server = ReportServer::start(ServerConfig::default());
        let mut conn_threads = Vec::new();
        let mut connect = |count: usize| {
            let mut streams = Vec::new();
            for _ in 0..count {
                let (client_half, mut server_half) = duplex();
                let handle = server.handle();
                conn_threads.push(std::thread::spawn(move || {
                    handle.serve_stream(&mut server_half)
                }));
                streams.push(client_half);
            }
            QueueConnector { streams }
        };

        // The first client establishes the session.
        let mut first = ReportClient::new(connect(1), hello(), no_sleep_config()).unwrap();
        assert_eq!(
            first.submit(1, 0, 0, report_bytes(1)).unwrap(),
            SubmitOutcome::Admitted
        );

        // A second client disagrees about ε. It holds spare streams, so a
        // retry loop that took the rejection for a transient fault would
        // reconnect and resend its Hello.
        let disagreeing = WireMessage::Hello {
            protocol: protocol(),
            epsilon: Epsilon::new(2.0).unwrap(),
            specs: specs(),
            epoch: 0,
        };
        let pauses = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&pauses);
        let mut second = ReportClient::new(connect(3), disagreeing, no_sleep_config())
            .unwrap()
            .with_sleeper(Box::new(move |_| {
                counted.fetch_add(1, Ordering::Relaxed);
            }));
        let err = second.submit(2, 0, 0, report_bytes(2)).unwrap_err();
        assert!(
            matches!(err, LdpError::InvalidParameter { name: "hello", .. }),
            "{err:?}"
        );
        assert_eq!(second.stats().connects, 1);
        assert_eq!(second.stats().faults, 0);
        assert_eq!(pauses.load(Ordering::Relaxed), 0, "no backoff pause");

        drop(second);
        first.close();
        for conn in conn_threads {
            conn.join().unwrap();
        }
        assert_eq!(server.finish().rejected_malformed(), 1);
    }

    #[test]
    fn full_queue_sheds_with_overloaded_ack() {
        // A capacity-1 server whose one in-flight slot is held by a slow
        // message is hard to arrange deterministically; instead, drive
        // serve_stream against a handle whose slot is pre-occupied by a
        // message that is never answered.
        let handle = super::server::testutil::wedged_handle(1);
        super::server::testutil::fill(&handle);

        let (mut client_half, mut server_half) = duplex();
        let conn_thread = std::thread::spawn(move || handle.serve_stream(&mut server_half));

        WireMessage::Submit {
            user: 9,
            epoch: 0,
            block: 0,
            report: vec![1, 2, 3],
        }
        .write_to(&mut client_half)
        .unwrap();
        let mut scratch = Vec::new();
        let resp = ResponseMessage::read_from(&mut client_half, &mut scratch)
            .unwrap()
            .expect("shed verdict");
        assert_eq!(
            resp,
            ResponseMessage::Ack {
                user: 9,
                epoch: 0,
                outcome: AckOutcome::Overloaded
            },
            "full queue must shed with an Overloaded ack, not block"
        );
        drop(client_half);
        let summary = conn_thread.join().unwrap();
        assert!(summary.fault.is_none(), "shedding is not a fault");
    }

    #[test]
    fn hostile_connection_is_isolated_from_healthy_ones() {
        let server = ReportServer::start(ServerConfig {
            service: ServiceConfig::default(),
            queue_capacity: 64,
        });

        // Hostile client: valid hello, then a stream that dies mid-frame.
        let (mut hostile_half, mut hostile_server) = duplex();
        let handle = server.handle();
        let hostile_thread = std::thread::spawn(move || handle.serve_stream(&mut hostile_server));
        hello().write_to(&mut hostile_half).unwrap();
        let mut scratch = Vec::new();
        ResponseMessage::read_from(&mut hostile_half, &mut scratch)
            .unwrap()
            .expect("hello ack");
        let frame = WireMessage::Submit {
            user: 50,
            epoch: 0,
            block: 0,
            report: report_bytes(50),
        }
        .to_frame()
        .unwrap();
        hostile_half.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(hostile_half); // mid-frame disconnect
        let hostile_summary = hostile_thread.join().unwrap();
        let fault = hostile_summary.fault.expect("mid-frame cut is a fault");
        assert!(matches!(fault.error, LdpError::MalformedFrame { .. }));

        // A healthy client on the same server still works end to end.
        let (healthy_half, mut healthy_server) = duplex();
        let handle = server.handle();
        let healthy_thread = std::thread::spawn(move || handle.serve_stream(&mut healthy_server));
        let connector = QueueConnector {
            streams: vec![healthy_half],
        };
        let mut client = ReportClient::new(connector, hello(), no_sleep_config()).unwrap();
        assert_eq!(
            client.submit(1, 0, 0, report_bytes(1)).unwrap(),
            SubmitOutcome::Admitted
        );
        client.close();
        healthy_thread.join().unwrap();

        let stats = server.stats();
        assert_eq!(stats.faulted_connections(), 1);
        assert_eq!(stats.connections(), 2);
        let service = server.finish();
        // The hostile client's half-submit never reached state; the
        // healthy submit did.
        assert_eq!(service.snapshot_epoch(0).unwrap().admitted, 1);
    }

    #[test]
    fn corrupt_request_frame_earns_a_resend_not_a_disconnect() {
        let server = ReportServer::start(ServerConfig::default());
        let (mut client_half, mut server_half) = duplex();
        let handle = server.handle();
        let conn_thread = std::thread::spawn(move || handle.serve_stream(&mut server_half));

        let mut frame = hello().to_frame().unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x40; // corrupt the payload, checksum now disagrees
        client_half.write_all(&frame).unwrap();
        let mut scratch = Vec::new();
        let resp = ResponseMessage::read_from(&mut client_half, &mut scratch)
            .unwrap()
            .expect("resend request");
        assert_eq!(resp, ResponseMessage::Resend);

        // The connection is still alive: the clean frame now succeeds.
        hello().write_to(&mut client_half).unwrap();
        let resp = ResponseMessage::read_from(&mut client_half, &mut scratch)
            .unwrap()
            .expect("hello ack");
        assert_eq!(resp, ResponseMessage::HelloAck);

        drop(client_half);
        let summary = conn_thread.join().unwrap();
        assert_eq!(summary.corrupt_frames, 1);
        assert!(summary.fault.is_none());
        assert_eq!(server.stats().corrupt_frames(), 1);
        server.finish();
    }

    /// A stream that counts the `read` calls made on it.
    struct CountReads {
        inner: super::chaos::PipeStream,
        reads: Arc<AtomicU64>,
    }

    impl Read for CountReads {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read(buf)
        }
    }

    impl Write for CountReads {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    struct OneConnection(Option<CountReads>);

    impl Connect for OneConnection {
        type Stream = CountReads;
        fn connect(&mut self) -> ldp_core::Result<CountReads> {
            Ok(self.0.take().expect("the test connects once"))
        }
    }

    #[test]
    fn a_frame_written_whole_costs_its_reader_one_read() {
        // A pipe read returns at most one write, as a socket's `recv`
        // returns at most what has arrived: the header and the payload of
        // a frame must come out of one read, on both ends.
        let server = ReportServer::start(ServerConfig::default());
        let (client_half, server_half) = duplex();
        let server_reads = Arc::new(AtomicU64::new(0));
        let client_reads = Arc::new(AtomicU64::new(0));
        let mut server_stream = CountReads {
            inner: server_half,
            reads: Arc::clone(&server_reads),
        };
        let handle = server.handle();
        let conn_thread = std::thread::spawn(move || handle.serve_stream(&mut server_stream));
        let connector = OneConnection(Some(CountReads {
            inner: client_half,
            reads: Arc::clone(&client_reads),
        }));
        let mut client = ReportClient::new(connector, hello(), no_sleep_config()).unwrap();
        for user in 0..20u64 {
            let outcome = client.submit(user, 0, 0, report_bytes(user)).unwrap();
            assert_eq!(outcome, SubmitOutcome::Admitted);
        }
        assert_eq!(client.flush_epoch(0).unwrap().admitted, 20);
        client.close();
        let summary = conn_thread.join().unwrap();
        server.finish();

        // In: Hello, 20 submits, the flush and Shutdown. Out: HelloAck,
        // 20 acks and the snapshot ack.
        assert!(summary.shutdown && summary.fault.is_none());
        assert_eq!(summary.frames, 23);
        assert_eq!(server_reads.load(Ordering::Relaxed), 23);
        assert_eq!(client_reads.load(Ordering::Relaxed), 22);
    }
}
