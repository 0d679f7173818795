//! Resilient collection over real loopback TCP: a chaos-wrapped client
//! fleet losing connections mid-frame, reconnecting with seeded backoff,
//! and resending unacknowledged reports — with the merged snapshot still
//! bit-identical to a clean in-process run.
//!
//! ```text
//! cargo run --release --example resilient_collection
//! ```
//!
//! The moving parts:
//!
//! * a [`TcpReportServer`] on `127.0.0.1:0` — per-connection threads
//!   applying messages to one `ReportService`, with a bounded number in
//!   flight;
//! * two client threads, each dialing through a [`ChaosStream`] that
//!   kills the connection mid-frame on a seeded schedule;
//! * every lost ack is resolved by resending: the privacy-budget ledger
//!   answers `Duplicate` if the original landed, so retries are
//!   idempotent and no user's budget is ever spent twice;
//! * at the end, the chaos run's estimates are asserted bit-identical to
//!   a clean run's — the fault storm moved nothing.

use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use ldp::analytics::service::{encode_report, ReportService, ServiceConfig, WireMessage};
use ldp::analytics::transport::{
    ChaosConfig, ChaosStream, ClientConfig, Connect, NetConfig, ReportClient, ServerConfig,
    SubmitOutcome, TcpConnector, TcpReportServer,
};
use ldp::analytics::{block_partition, block_rng, ClientEncoder, Protocol, DEFAULT_SHARDS};
use ldp::core::rng::RngBlock;
use ldp::core::{AttrValue, Epsilon, LdpError, NumericKind, OracleKind};
use ldp::data::census::generate_br;

const CLIENTS: u64 = 2;
const DISCONNECT_RATE: f64 = 0.01;

/// Dials the real server, then wraps the socket in a seeded mid-frame
/// disconnector — a fresh fault schedule per reconnect.
struct FlakyTcpConnector {
    inner: TcpConnector,
    seed: u64,
    attempts: u64,
}

impl Connect for FlakyTcpConnector {
    type Stream = ChaosStream<TcpStream>;

    fn connect(&mut self) -> ldp::core::Result<Self::Stream> {
        let stream = self.inner.connect()?;
        self.attempts += 1;
        let stream_seed = self
            .seed
            .wrapping_add(self.attempts.wrapping_mul(0xA076_1D64_78BD_642F));
        Ok(ChaosStream::new(
            stream,
            ChaosConfig::disconnect_only(DISCONNECT_RATE),
            stream_seed,
        ))
    }
}

fn main() -> Result<(), LdpError> {
    let n = 3_000;
    let seed = 42;
    let dataset = generate_br(n, 5)?;
    let eps = Epsilon::new(1.0)?;
    let protocol = Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    };
    let specs = dataset.schema().attr_specs();
    let hello = WireMessage::Hello {
        protocol,
        epsilon: eps,
        specs: specs.clone(),
        epoch: 0,
    };
    println!(
        "BR-like census: n = {n}, d = {}, ε = {} — collected over loopback TCP \
         with {:.0}% mid-frame disconnects per I/O call\n",
        dataset.schema().d(),
        eps.value(),
        DISCONNECT_RATE * 100.0
    );

    // Encode every report once: both runs must submit identical bytes.
    let encoder = ClientEncoder::new(protocol, eps, specs.clone())?;
    let mut reports: Vec<(u64, u64, Vec<u8>)> = Vec::new();
    for (b, range) in block_partition(n, DEFAULT_SHARDS).into_iter().enumerate() {
        let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(seed, b));
        let mut report = encoder.empty_report();
        let mut scratch = encoder.scratch();
        let mut tuple: Vec<AttrValue> = Vec::new();
        for i in range {
            dataset.canonical_tuple_into(i, &mut tuple);
            encoder.encode_into(&tuple, &mut rng, &mut report, &mut scratch)?;
            reports.push((i as u64, b as u64, encode_report(&report, &specs)));
        }
    }

    // The clean reference: no wire at all.
    let mut clean_service = ReportService::new(ServiceConfig::default());
    clean_service.handle(&hello)?;
    for (user, block, bytes) in &reports {
        clean_service.handle(&WireMessage::Submit {
            user: *user,
            epoch: 0,
            block: *block,
            report: bytes.clone(),
        })?;
    }
    let clean = clean_service.snapshot_epoch(0)?.result.expect("estimates");

    // The system under test: a real TCP server, chaos-ridden clients.
    let server = TcpReportServer::bind(
        "127.0.0.1:0",
        ServerConfig::default(),
        NetConfig {
            io_timeout: Some(Duration::from_millis(500)),
        },
    )?;
    let addr = server.local_addr();
    println!("server listening on {addr}");

    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_idx| {
            // Whole blocks per client: within a block the partial sums
            // accumulate in absorb order, so each block must arrive from
            // one client, in user order, for bit-identity to hold.
            let partition: Vec<_> = reports
                .iter()
                .filter(|(_, block, _)| block % CLIENTS == client_idx)
                .cloned()
                .collect();
            let connector = FlakyTcpConnector {
                inner: TcpConnector::new(addr, Duration::from_secs(2)),
                seed: seed ^ (client_idx + 1).wrapping_mul(0x2545_F491_4F6C_DD1D),
                attempts: 0,
            };
            let hello = hello.clone();
            thread::spawn(move || {
                let config = ClientConfig {
                    max_attempts: 64,
                    backoff_base: Duration::from_micros(200),
                    backoff_cap: Duration::from_millis(20),
                    backoff_seed: seed ^ client_idx,
                    ..ClientConfig::default()
                };
                let mut client =
                    ReportClient::new(connector, hello, config).expect("hello is a Hello");
                let mut resent = 0u64;
                for (user, block, bytes) in partition {
                    match client
                        .submit(user, 0, block, bytes)
                        .expect("submit must survive the disconnect storm")
                    {
                        SubmitOutcome::Admitted => {}
                        SubmitOutcome::AlreadyAdmitted => resent += 1,
                    }
                }
                client.close();
                (client.stats(), resent)
            })
        })
        .collect();

    let mut connects = 0;
    let mut faults = 0;
    let mut landed_twice = 0;
    for (i, worker) in workers.into_iter().enumerate() {
        let (stats, resent) = worker.join().expect("client thread");
        println!(
            "client {i}: {} connects, {} faults survived, {} resends, \
             {} duplicate ack(s)",
            stats.connects, stats.faults, stats.resends, stats.duplicate_acks
        );
        connects += stats.connects;
        faults += stats.faults;
        landed_twice += resent;
    }

    let (service, stats) = server.finish();
    println!(
        "server: {} connections ({} ended in a counted fault), all isolated\n",
        stats.connections(),
        stats.faulted_connections()
    );
    assert!(connects > CLIENTS, "the storm must force reconnects");
    assert!(faults > 0, "the storm must inject faults");

    let snapshot = service.snapshot_epoch(0)?;
    println!(
        "epoch 0: {} admitted, {} duplicate(s) rejected — every lost ack was \
         resent, every resend was deduplicated by the budget ledger",
        snapshot.admitted, snapshot.rejected_duplicates
    );
    assert_eq!(snapshot.admitted, n as u64, "no report lost");
    assert!(
        snapshot.rejected_duplicates >= landed_twice,
        "ledger must count every double-landing"
    );
    let chaotic = snapshot.result.expect("estimates");

    // Parity: the disconnect storm moved nothing.
    assert_eq!(chaotic.n, clean.n);
    let (cm, km) = (chaotic.mean_vector(), clean.mean_vector());
    println!("\nattr  chaos-run mean    clean-run mean");
    for (j, (c, k)) in cm.iter().zip(&km).enumerate().take(4) {
        println!("{j:>4}  {c:>15.6}  {k:>15.6}");
    }
    for (j, (c, k)) in cm.iter().zip(&km).enumerate() {
        assert_eq!(c.to_bits(), k.to_bits(), "mean[{j}] drifted");
    }
    assert_eq!(chaotic.frequencies.len(), clean.frequencies.len());
    for ((ja, fa), (jb, fb)) in chaotic.frequencies.iter().zip(&clean.frequencies) {
        assert_eq!(ja, jb);
        for (x, y) in fa.iter().zip(fb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    println!(
        "\nevery mean and frequency bit-identical to the clean run — \
         disconnects, reconnects and resends moved nothing"
    );
    Ok(())
}
