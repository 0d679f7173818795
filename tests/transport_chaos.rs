//! Chaos parity: a multi-client collection run over a fault-ridden
//! transport must produce a merged snapshot *bit-identical* to a clean
//! run's, with every user's privacy budget spent at most once.
//!
//! The harness is fully deterministic: report bytes come from per-user
//! seeded rngs, the fault schedule from per-connection seeded
//! [`ChaosStream`]s, and backoff jitter from seeded [`Backoff`]s — a
//! failing `(SEED, …)` combination replays exactly.
//!
//! What chaos injects: mid-frame disconnects (both directions), short
//! reads/writes, single-bit corruption (caught by the frame checksum →
//! `Resend`), and stalls surfaced as timeouts. What must hold anyway:
//!
//! * every submit eventually lands (`admitted == users`, both runs);
//! * estimates are bit-identical to the clean run (ordinal-keyed merges
//!   make them independent of delivery order and client count);
//! * the ledger accounts for every resend: submits that reached the
//!   service = admitted + rejected duplicates, so lost acks never
//!   double-spend budget.

use std::thread;
use std::time::Duration;

use ldp::analytics::pipeline::{CollectionResult, Protocol};
use ldp::analytics::service::{encode_report, ReportService, ServiceConfig, WireMessage};
use ldp::analytics::transport::{
    duplex, ChaosConfig, ChaosStream, ClientConfig, ConnHandle, Connect, PipeStream, ReportClient,
    ReportServer, ServerConfig, SubmitOutcome,
};
use ldp::analytics::ClientEncoder;
use ldp::core::multidim::{AttrSpec, AttrValue};
use ldp::core::rng::seeded_rng;
use ldp::core::{Epsilon, NumericKind, OracleKind};
use rand::Rng;

const SEEDS: [u64; 3] = [7, 21, 1337];
const USERS: u64 = 300;
const CLIENTS: u64 = 3;
const FAULT_RATE: f64 = 0.04;

fn specs() -> Vec<AttrSpec> {
    vec![
        AttrSpec::Numeric,
        AttrSpec::Categorical { k: 5 },
        AttrSpec::Numeric,
    ]
}

fn protocol() -> Protocol {
    Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    }
}

fn epsilon() -> Epsilon {
    Epsilon::new(1.2).unwrap()
}

fn hello() -> WireMessage {
    WireMessage::Hello {
        protocol: protocol(),
        epsilon: epsilon(),
        specs: specs(),
        epoch: 0,
    }
}

/// One deterministic wire-ready report per user: `(user, block, bytes)`.
/// Both the clean and the chaos run submit exactly these bytes.
fn encode_all(seed: u64) -> Vec<(u64, u64, Vec<u8>)> {
    let encoder = ClientEncoder::new(protocol(), epsilon(), specs()).unwrap();
    (0..USERS)
        .map(|user| {
            let mut rng = seeded_rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ user);
            let record = vec![
                AttrValue::Numeric(rng.random::<f64>() * 2.0 - 1.0),
                AttrValue::Categorical(rng.random::<u64>() as u32 % 5),
                AttrValue::Numeric(rng.random::<f64>() * 2.0 - 1.0),
            ];
            let report = encoder.encode(&record, &mut rng).unwrap();
            (user, user / 64, encode_report(&report, &specs()))
        })
        .collect()
}

/// The reference: every report fed straight into one service, no wire.
fn clean_snapshot(reports: &[(u64, u64, Vec<u8>)]) -> CollectionResult {
    let mut service = ReportService::new(ServiceConfig::default());
    service.handle(&hello()).unwrap();
    for (user, block, bytes) in reports {
        service
            .handle(&WireMessage::Submit {
                user: *user,
                epoch: 0,
                block: *block,
                report: bytes.clone(),
            })
            .unwrap();
    }
    let snap = service.snapshot_epoch(0).unwrap();
    assert_eq!(snap.admitted, USERS);
    snap.result.expect("clean run has estimates")
}

/// Each connect spawns a fresh in-process server connection and wraps the
/// client half in a seeded [`ChaosStream`] — a new fault schedule per
/// reconnect, all deterministic.
struct ChaosConnector {
    handle: ConnHandle,
    seed: u64,
    attempts: u64,
}

impl Connect for ChaosConnector {
    type Stream = ChaosStream<PipeStream>;

    fn connect(&mut self) -> ldp::core::Result<Self::Stream> {
        let (client_half, mut server_half) = duplex();
        // A flipped bit in a frame's length header can promise bytes that
        // never arrive; like a real socket's io_timeout, the server-side
        // read timeout turns that into a typed fault instead of a hang.
        server_half.set_read_timeout(Some(Duration::from_millis(200)));
        let conn = self.handle.clone();
        // The connection thread exits on EOF/fault when the chaos stream
        // dies or the client drops it; `ReportServer::finish` then sees
        // its handle released.
        thread::spawn(move || conn.serve_stream(&mut server_half));
        self.attempts += 1;
        let stream_seed = self
            .seed
            .wrapping_add(self.attempts.wrapping_mul(0xA076_1D64_78BD_642F));
        Ok(ChaosStream::new(
            client_half,
            ChaosConfig::balanced(FAULT_RATE),
            stream_seed,
        ))
    }
}

struct ChaosRun {
    result: CollectionResult,
    admitted: u64,
    rejected_duplicates: u64,
    submits_reaching_service: u64,
    client_faults: u64,
    client_duplicate_acks: u64,
    client_connects: u64,
}

/// The system under test: CLIENTS threads share one server, each driving
/// its user partition through its own chaos-ridden reconnecting client.
fn chaos_run(seed: u64, reports: &[(u64, u64, Vec<u8>)]) -> ChaosRun {
    let server = ReportServer::start(ServerConfig {
        service: ServiceConfig::default(),
        queue_capacity: 256,
    });
    let stats = server.stats();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_idx| {
            let partition: Vec<_> = reports
                .iter()
                // Partition by *block*, not by user: within one block the
                // partial sums accumulate in absorb order, so a block must
                // be owned (and submitted in user order) by one client for
                // the snapshot to be bit-identical to the clean run's.
                .filter(|(_, block, _)| block % CLIENTS == client_idx)
                .cloned()
                .collect();
            let connector = ChaosConnector {
                handle: server.handle(),
                seed: seed ^ (client_idx + 1).wrapping_mul(0x2545_F491_4F6C_DD1D),
                attempts: 0,
            };
            thread::spawn(move || {
                let config = ClientConfig {
                    // Chaos at FAULT_RATE can fault several times in a
                    // row; the generous attempt budget keeps the run
                    // lossless while the zero-length backoff keeps it
                    // fast. Delays are still *drawn* (and asserted
                    // deterministic by the backoff proptests) — they are
                    // just zero-length here.
                    max_attempts: 512,
                    max_resends: 8,
                    backoff_base: Duration::ZERO,
                    backoff_cap: Duration::ZERO,
                    backoff_seed: seed ^ client_idx,
                };
                let mut client = ReportClient::new(connector, hello(), config).unwrap();
                for (user, block, bytes) in partition {
                    let outcome = client
                        .submit(user, 0, block, bytes)
                        .expect("submit must survive chaos");
                    // Either verdict is success; `AlreadyAdmitted` means a
                    // resend found the budget already spent.
                    assert!(matches!(
                        outcome,
                        SubmitOutcome::Admitted | SubmitOutcome::AlreadyAdmitted
                    ));
                }
                let receipt = client.flush_epoch(0).expect("flush must survive chaos");
                client.close();
                (client.stats(), receipt)
            })
        })
        .collect();

    let mut client_faults = 0;
    let mut client_duplicate_acks = 0;
    let mut client_connects = 0;
    for worker in workers {
        let (stats, receipt) = worker.join().expect("client thread panicked");
        client_faults += stats.faults + stats.resends + stats.overload_pauses;
        client_duplicate_acks += stats.duplicate_acks;
        client_connects += stats.connects;
        assert_eq!(receipt.epoch, 0);
    }

    let service = server.finish();
    let snap = service.snapshot_epoch(0).unwrap();
    ChaosRun {
        result: snap.result.expect("chaos run has estimates"),
        admitted: snap.admitted,
        rejected_duplicates: snap.rejected_duplicates,
        submits_reaching_service: stats.submits(),
        client_faults,
        client_duplicate_acks,
        client_connects,
    }
}

fn assert_bit_identical(a: &CollectionResult, b: &CollectionResult, label: &str) {
    assert_eq!(a.n, b.n, "{label}: population");
    assert_eq!(a.means.len(), b.means.len(), "{label}: mean arity");
    for ((ja, x), (jb, y)) in a.means.iter().zip(&b.means) {
        assert_eq!(ja, jb, "{label}: mean attribute order");
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: mean[{ja}] {x} vs {y}");
    }
    assert_eq!(a.frequencies.len(), b.frequencies.len(), "{label}");
    for ((ja, fa), (jb, fb)) in a.frequencies.iter().zip(&b.frequencies) {
        assert_eq!(ja, jb, "{label}: frequency attribute order");
        for (v, (x, y)) in fa.iter().zip(fb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: freq[{ja}][{v}] {x} vs {y}"
            );
        }
    }
}

#[test]
fn chaos_run_is_bit_identical_to_clean_run_across_seeds() {
    for seed in SEEDS {
        let reports = encode_all(seed);
        let clean = clean_snapshot(&reports);
        let chaos = chaos_run(seed, &reports);

        // Parity: the fault-ridden run lost nothing and moved no bit.
        assert_eq!(chaos.admitted, USERS, "seed {seed}: lost reports");
        assert_bit_identical(&chaos.result, &clean, &format!("seed {seed}"));

        // At-most-once budget spend: every submit that reached the
        // service is accounted as exactly one admission or one counted
        // duplicate — resends never double-spend.
        assert_eq!(
            chaos.submits_reaching_service,
            chaos.admitted + chaos.rejected_duplicates,
            "seed {seed}: service accounting leak"
        );
        // A duplicate verdict can itself be lost to chaos (triggering yet
        // another counted resend), so the ledger may see more duplicates
        // than the clients got acks for — never fewer.
        assert!(
            chaos.rejected_duplicates >= chaos.client_duplicate_acks,
            "seed {seed}: ledger missed a duplicate ack"
        );

        // The run must actually have been chaotic: faults were injected
        // and survived, and at least one client had to reconnect.
        assert!(
            chaos.client_faults > 0,
            "seed {seed}: chaos injected no faults — the test proved nothing"
        );
        assert!(
            chaos.client_connects > CLIENTS,
            "seed {seed}: no reconnects happened"
        );
    }
}

/// Reconnect storms against a tiny queue: shedding (`Overloaded` acks)
/// may slow clients down but never loses or double-counts a report.
#[test]
fn tiny_queue_backpressure_is_lossless() {
    let seed = 99u64;
    let reports = encode_all(seed);
    let clean = clean_snapshot(&reports);

    let server = ReportServer::start(ServerConfig {
        service: ServiceConfig::default(),
        queue_capacity: 1,
    });
    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_idx| {
            let partition: Vec<_> = reports
                .iter()
                // Partition by *block*, not by user: within one block the
                // partial sums accumulate in absorb order, so a block must
                // be owned (and submitted in user order) by one client for
                // the snapshot to be bit-identical to the clean run's.
                .filter(|(_, block, _)| block % CLIENTS == client_idx)
                .cloned()
                .collect();
            let connector = ChaosConnector {
                handle: server.handle(),
                seed: seed ^ client_idx,
                attempts: 0,
            };
            thread::spawn(move || {
                let config = ClientConfig {
                    max_attempts: 512,
                    max_resends: 8,
                    // Real (if tiny) backoff: against a capacity-1 queue,
                    // zero-delay retries could livelock three hammering
                    // clients; the jittered pause lets the in-flight
                    // message finish.
                    backoff_base: Duration::from_micros(50),
                    backoff_cap: Duration::from_millis(2),
                    backoff_seed: seed ^ client_idx,
                };
                let mut client = ReportClient::new(connector, hello(), config).unwrap();
                for (user, block, bytes) in partition {
                    client.submit(user, 0, block, bytes).unwrap();
                }
                client.close();
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread panicked");
    }
    let service = server.finish();
    let snap = service.snapshot_epoch(0).unwrap();
    assert_eq!(snap.admitted, USERS);
    assert_bit_identical(&snap.result.expect("estimates"), &clean, "capacity-1 queue");
}
