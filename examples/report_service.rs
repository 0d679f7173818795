//! Report-stream aggregation service: three shard servers absorbing
//! length-framed wire messages from live byte streams, tree-merged into a
//! result bit-identical to a single-process `Collector::run`.
//!
//! ```text
//! cargo run --release --example report_service
//! ```
//!
//! The pieces:
//!
//! * every *client* frames its ε-LDP report into a `Submit` message —
//!   nothing else crosses the wire;
//! * each *shard* is a `ReportServer` whose connection thread runs
//!   `ConnHandle::serve_stream` over an in-process pipe fed in
//!   deliberately awkward 7-byte chunks, so frames are reassembled across
//!   arbitrary read boundaries;
//! * one stream also carries a replayed (duplicate) submit and a
//!   bit-flipped frame — the budget ledger rejects the replay, the
//!   checksum catches the corruption (answered with a resend request),
//!   both are counted, and neither moves a single bit of the estimates;
//! * the shards tree-merge and the epoch snapshot is asserted
//!   bit-identical to the canonical pipeline on the same seed.

use ldp::analytics::service::{encode_report, WireMessage};
use ldp::analytics::transport::{duplex, PipeStream, ReportServer, ServerConfig};
use ldp::analytics::{
    block_partition, block_rng, ClientEncoder, Collector, Protocol, DEFAULT_SHARDS,
};
use ldp::core::frame::FRAME_HEADER_BYTES;
use ldp::core::rng::RngBlock;
use ldp::core::{AttrValue, Epsilon, LdpError, NumericKind, OracleKind};
use ldp::data::census::generate_br;
use std::io::Write;
use std::thread;

const SHARDS: usize = 3;

/// Writes `bytes` down a shard's pipe in 7-byte chunks — no frame ever
/// arrives whole, which is exactly the situation the server must handle.
fn send_chunked(pipe: &mut PipeStream, bytes: &[u8]) {
    for chunk in bytes.chunks(7) {
        pipe.write_all(chunk).expect("shard connection alive");
    }
}

fn main() -> Result<(), LdpError> {
    let n = 12_000;
    let seed = 42;
    let dataset = generate_br(n, 5)?;
    let eps = Epsilon::new(1.0)?;
    let protocol = Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    };
    let specs = dataset.schema().attr_specs();
    println!(
        "BR-like census: n = {n}, d = {}, ε = {} — streamed to {SHARDS} service shards\n",
        dataset.schema().d(),
        eps.value()
    );

    // Shard servers: one connection thread each serves its pipe until the
    // Shutdown frame. The client halves stay alive until those threads
    // return, so every verdict has somewhere to go.
    let mut servers = Vec::new();
    let mut pipes = Vec::new();
    let mut connections = Vec::new();
    for _ in 0..SHARDS {
        let server = ReportServer::start(ServerConfig::default());
        let (client_half, mut server_half) = duplex();
        let handle = server.handle();
        connections.push(thread::spawn(move || handle.serve_stream(&mut server_half)));
        servers.push(server);
        pipes.push(client_half);
    }

    // Client side: session hello on every stream, then each block's reports
    // framed to shard `block % SHARDS`, blocks in reverse order — nothing
    // about arrival order is canonical.
    let encoder = ClientEncoder::new(protocol, eps, specs.clone())?;
    let hello = WireMessage::Hello {
        protocol,
        epsilon: eps,
        specs: specs.clone(),
        epoch: 0,
    };
    for pipe in &mut pipes {
        send_chunked(pipe, &hello.to_frame()?);
    }
    let blocks: Vec<_> = block_partition(n, DEFAULT_SHARDS)
        .into_iter()
        .enumerate()
        .collect();
    let mut replayed: Option<Vec<u8>> = None;
    for (b, range) in blocks.into_iter().rev() {
        let pipe = &mut pipes[b % SHARDS];
        let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(seed, b));
        let mut report = encoder.empty_report();
        let mut scratch = encoder.scratch();
        let mut tuple: Vec<AttrValue> = Vec::new();
        for i in range {
            dataset.canonical_tuple_into(i, &mut tuple);
            encoder.encode_into(&tuple, &mut rng, &mut report, &mut scratch)?;
            let frame = WireMessage::Submit {
                user: i as u64,
                epoch: 0,
                block: b as u64,
                report: encode_report(&report, &specs),
            }
            .to_frame()?;
            if replayed.is_none() {
                replayed = Some(frame.clone());
            }
            send_chunked(pipe, &frame);
        }
    }

    // Adversarial tail on shard 0: the very first submit replayed verbatim
    // (a spent budget), then the same frame with one payload byte flipped
    // (a checksum failure). Both must be rejected and counted.
    let replay = replayed.expect("at least one submit");
    send_chunked(&mut pipes[0], &replay);
    let mut corrupt = replay;
    corrupt[FRAME_HEADER_BYTES] ^= 0x40;
    send_chunked(&mut pipes[0], &corrupt);

    for pipe in &mut pipes {
        send_chunked(pipe, &WireMessage::Shutdown.to_frame()?);
    }

    let mut services = Vec::new();
    let mut corrupt_frames = 0;
    for (s, (connection, server)) in connections.into_iter().zip(servers).enumerate() {
        let summary = connection.join().expect("connection thread");
        let service = server.finish();
        let shard = service.snapshot_epoch(0)?;
        println!(
            "shard {s}: {} frames, {} admitted, {} duplicate(s) rejected, \
             {} corrupt frame(s) resent, {} malformed message(s) rejected, shutdown = {}",
            summary.frames,
            shard.admitted,
            shard.rejected_duplicates,
            summary.corrupt_frames,
            shard.rejected_malformed,
            summary.shutdown
        );
        assert!(summary.shutdown, "every stream ended with Shutdown");
        assert_eq!(shard.rejected_malformed, 0, "no malformed messages sent");
        corrupt_frames += summary.corrupt_frames;
        services.push(service);
    }
    drop(pipes);
    assert_eq!(corrupt_frames, 1, "the bit-flipped frame");

    // Tree merge: (s0 + (s1 + s2)). The keyed ledger and the ordinal-keyed
    // epoch aggregates both merge order-independently.
    let s2 = services.pop().expect("three shards");
    let mut s1 = services.pop().expect("three shards");
    let mut s0 = services.pop().expect("three shards");
    s1.merge(s2)?;
    s0.merge(s1)?;
    let snapshot = s0.snapshot_epoch(0)?;
    println!(
        "\nmerged epoch {}: {} admitted, {} duplicate(s) rejected",
        snapshot.epoch, snapshot.admitted, snapshot.rejected_duplicates
    );
    assert_eq!(snapshot.admitted, n as u64);
    assert_eq!(snapshot.rejected_duplicates, 1, "the replayed submit");
    let served = snapshot.result.expect("non-empty epoch");

    // The canonical single-process pipeline on the same seed.
    let reference = Collector::new(protocol, eps).run(&dataset, seed)?;
    let (sm, rm) = (served.mean_vector(), reference.mean_vector());
    assert_eq!(sm.len(), rm.len());
    println!("\nattr  service mean      pipeline mean");
    for (j, (s, r)) in sm.iter().zip(&rm).enumerate().take(4) {
        println!("{j:>4}  {s:>15.6}  {r:>15.6}");
        assert_eq!(s.to_bits(), r.to_bits(), "mean[{j}] drifted");
    }
    for (s, r) in sm.iter().zip(&rm) {
        assert_eq!(s.to_bits(), r.to_bits());
    }
    assert_eq!(served.frequencies.len(), reference.frequencies.len());
    for ((ja, fa), (jb, fb)) in served.frequencies.iter().zip(&reference.frequencies) {
        assert_eq!(ja, jb);
        for (x, y) in fa.iter().zip(fb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    println!(
        "\nevery mean and frequency bit-identical to Collector::run — the wire, \
         the shard split, the rejected replay and the corrupted frame moved nothing"
    );
    Ok(())
}
