//! Wire-service parity: three `ReportServer` shards fed interleaved,
//! out-of-order client streams tree-merge to a snapshot bit-identical to
//! the single-process `Collector::run` on the same seed.
//!
//! This is the session merge contract pushed across a byte boundary: every
//! report is framed, serialized, checksummed, read back by the connection
//! loop that ships (`ConnHandle::serve_stream`), ledger-checked and only
//! then absorbed — and none of that plumbing may move a single bit of the
//! estimates.

use ldp::analytics::service::{encode_report, ReportService, WireMessage};
use ldp::analytics::transport::{ConnSummary, ReportServer, ScriptedStream, ServerConfig};
use ldp::analytics::{
    block_partition, block_rng, BestEffortNumeric, ClientEncoder, CollectionResult, Collector,
    Protocol, DEFAULT_SHARDS,
};
use ldp::core::rng::RngBlock;
use ldp::core::{AttrValue, Epsilon, NumericKind, OracleKind};
use ldp::data::census::generate_br;
use ldp::data::Dataset;

const SHARDS: usize = 3;

fn assert_bit_identical(a: &CollectionResult, b: &CollectionResult, label: &str) {
    assert_eq!(a.n, b.n, "{label}: population");
    let (ma, mb) = (a.mean_vector(), b.mean_vector());
    assert_eq!(ma.len(), mb.len(), "{label}: mean arity");
    for (j, (x, y)) in ma.iter().zip(&mb).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: mean[{j}] {x} vs {y}");
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

/// Builds the per-shard wire streams for one collection: block `b`'s
/// reports go to shard `b % SHARDS` as framed `Submit`s carrying `b` as
/// their routing ordinal — and each shard receives its blocks in
/// *reverse* order, so nothing about arrival order is canonical.
fn client_streams(protocol: Protocol, eps: Epsilon, dataset: &Dataset, seed: u64) -> Vec<Vec<u8>> {
    let encoder = ClientEncoder::new(protocol, eps, dataset.schema().attr_specs()).unwrap();
    let specs = dataset.schema().attr_specs();
    let hello = WireMessage::Hello {
        protocol,
        epsilon: eps,
        specs: specs.clone(),
        epoch: 0,
    };
    let mut streams: Vec<Vec<u8>> = vec![Vec::new(); SHARDS];
    for s in &mut streams {
        hello.write_to(s).unwrap();
    }

    let blocks: Vec<_> = block_partition(dataset.n(), DEFAULT_SHARDS)
        .into_iter()
        .enumerate()
        .collect();
    for (b, range) in blocks.into_iter().rev() {
        let stream = &mut streams[b % SHARDS];
        let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(seed, b));
        let mut report = encoder.empty_report();
        let mut scratch = encoder.scratch();
        let mut tuple: Vec<AttrValue> = Vec::new();
        for i in range {
            dataset.canonical_tuple_into(i, &mut tuple);
            encoder
                .encode_into(&tuple, &mut rng, &mut report, &mut scratch)
                .unwrap();
            WireMessage::Submit {
                user: i as u64,
                epoch: 0,
                block: b as u64,
                report: encode_report(&report, &specs),
            }
            .write_to(stream)
            .unwrap();
        }
    }
    streams
}

/// Serves one stream as one connection to its own shard server.
fn serve_shard(stream: &[u8]) -> (ConnSummary, ReportService) {
    let server = ReportServer::start(ServerConfig::default());
    let summary = server
        .handle()
        .serve_stream(&mut ScriptedStream::new(stream));
    (summary, server.finish())
}

/// Tree-merges served shards as `(s0 + (s1 + s2))`.
fn merge_right(mut shards: Vec<ReportService>) -> ReportService {
    let s2 = shards.pop().unwrap();
    let mut s1 = shards.pop().unwrap();
    let mut s0 = shards.pop().unwrap();
    s1.merge(s2).unwrap();
    s0.merge(s1).unwrap();
    s0
}

/// Serves clean streams, one shard each, then merges `(s0 + (s1 + s2))`.
fn serve_and_merge(streams: Vec<Vec<u8>>) -> ReportService {
    let shards = streams
        .iter()
        .map(|stream| {
            let (summary, shard) = serve_shard(stream);
            assert_eq!(summary.corrupt_frames, 0, "clean streams only");
            assert_eq!(shard.rejected_malformed(), 0, "clean streams only");
            let snapshot = shard.snapshot_epoch(0).unwrap();
            assert_eq!(snapshot.rejected_duplicates, 0, "clean streams only");
            shard
        })
        .collect();
    merge_right(shards)
}

fn parity_case(protocol: Protocol, label: &str) {
    let n = 6_000;
    let seed = 20_190_408;
    let dataset = generate_br(n, 5).unwrap();
    let eps = Epsilon::new(1.0).unwrap();

    let merged = serve_and_merge(client_streams(protocol, eps, &dataset, seed));
    let snapshot = merged.snapshot_epoch(0).unwrap();
    assert_eq!(snapshot.admitted, n as u64, "{label}: every user admitted");
    assert_eq!(snapshot.rejected_duplicates, 0, "{label}");

    let reference = Collector::new(protocol, eps).run(&dataset, seed).unwrap();
    assert_bit_identical(&reference, &snapshot.result.unwrap(), label);
}

#[test]
fn sampling_oue_service_matches_collector() {
    parity_case(
        Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        },
        "HM+OUE",
    );
}

#[test]
fn sampling_grr_service_matches_collector() {
    parity_case(
        Protocol::Sampling {
            numeric: NumericKind::Piecewise,
            oracle: OracleKind::Grr,
        },
        "PM+GRR",
    );
}

#[test]
fn composition_service_matches_collector() {
    parity_case(
        Protocol::BestEffort {
            numeric: BestEffortNumeric::PerAttribute(NumericKind::Laplace),
            oracle: OracleKind::Oue,
        },
        "Laplace+OUE",
    );
}

/// The merge tree's shape is irrelevant: `((s0+s1)+s2)` and `(s0+(s1+s2))`
/// snapshot bit-identically.
#[test]
fn merge_tree_shape_does_not_matter() {
    let protocol = Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    };
    let dataset = generate_br(3_000, 5).unwrap();
    let eps = Epsilon::new(2.0).unwrap();
    let streams = client_streams(protocol, eps, &dataset, 17);

    let left_assoc = {
        let mut shards: Vec<ReportService> = streams.iter().map(|s| serve_shard(s).1).collect();
        let s2 = shards.pop().unwrap();
        let s1 = shards.pop().unwrap();
        let mut s0 = shards.pop().unwrap();
        s0.merge(s1).unwrap();
        s0.merge(s2).unwrap();
        s0.snapshot_epoch(0).unwrap().result.unwrap()
    };
    let right_assoc = serve_and_merge(streams)
        .snapshot_epoch(0)
        .unwrap()
        .result
        .unwrap();
    assert_bit_identical(&left_assoc, &right_assoc, "merge tree shape");
}

/// Duplicates injected into one shard's stream are rejected by the ledger,
/// surfaced in the snapshot, and the estimates still match a collector run
/// over the *deduplicated* population.
#[test]
fn duplicates_across_the_wire_do_not_bias_the_estimates() {
    let protocol = Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    };
    let dataset = generate_br(3_000, 5).unwrap();
    let eps = Epsilon::new(1.0).unwrap();
    let seed = 31;
    let mut streams = client_streams(protocol, eps, &dataset, seed);

    // Replay shard 0's submit frames (everything after its hello) — every
    // one of them a duplicate user.
    let hello_len = {
        let hello = WireMessage::Hello {
            protocol,
            epsilon: eps,
            specs: dataset.schema().attr_specs(),
            epoch: 0,
        };
        hello.to_frame().unwrap().len()
    };
    let replay = streams[0][hello_len..].to_vec();
    let replayed_bytes = replay.len();
    streams[0].extend_from_slice(&replay);
    assert!(replayed_bytes > 0);

    let merged = merge_right(streams.iter().map(|s| serve_shard(s).1).collect());
    let snapshot = merged.snapshot_epoch(0).unwrap();
    assert_eq!(snapshot.admitted, 3_000);
    assert!(snapshot.rejected_duplicates > 0);

    let reference = Collector::new(protocol, eps).run(&dataset, seed).unwrap();
    assert_bit_identical(
        &reference,
        &snapshot.result.unwrap(),
        "despite replayed submits",
    );
}
