//! Adversarial properties of the wire boundary.
//!
//! Three contracts, every one a regression gate rather than a claim:
//!
//! 1. **Round trip** — every `Report` variant survives the framed codec
//!    (report bytes → `Submit` frame → frame reader → report) bit-exactly.
//! 2. **Rejection safety** — truncated, bit-flipped, oversized-length and
//!    garbage-payload frames, served through the same `ReportServer`
//!    connection loop a deployment runs, produce typed errors (never a
//!    panic) and leave the aggregate snapshot bit-identical to before the
//!    bytes arrived.
//! 3. **Ledger soundness** — the privacy-budget ledger matches a reference
//!    set model under arbitrary submit sequences, and sharding + merge is
//!    indistinguishable from serial processing.

use ldp_analytics::pipeline::block_rng;
use ldp_analytics::service::{
    decode_report, encode_report, AckOutcome, EpochSnapshot, ReportService, ResponseMessage,
    WireMessage,
};
use ldp_analytics::transport::{ConnSummary, ReportServer, ScriptedStream, ServerConfig};
use ldp_analytics::{
    BestEffortNumeric, BudgetLedger, ClientEncoder, CollectionResult, Protocol, Report,
};
use ldp_core::frame;
use ldp_core::rng::RngBlock;
use ldp_core::{AttrSpec, AttrValue, Epsilon, LdpError, NumericKind, OracleKind};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The protocol grid the adversarial suite sweeps: both families, every
/// oracle payload shape (unary bit vectors, direct values), both numeric
/// treatments.
fn protocol_pick(pick: u8) -> Protocol {
    match pick % 6 {
        0 => Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        },
        1 => Protocol::Sampling {
            numeric: NumericKind::Piecewise,
            oracle: OracleKind::Grr,
        },
        2 => Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Sue,
        },
        3 => Protocol::BestEffort {
            numeric: BestEffortNumeric::PerAttribute(NumericKind::Laplace),
            oracle: OracleKind::Oue,
        },
        4 => Protocol::BestEffort {
            numeric: BestEffortNumeric::PerAttribute(NumericKind::Laplace),
            oracle: OracleKind::Grr,
        },
        _ => Protocol::BestEffort {
            numeric: BestEffortNumeric::DuchiMultidim,
            oracle: OracleKind::Oue,
        },
    }
}

fn needs_numeric(protocol: Protocol) -> bool {
    matches!(
        protocol,
        Protocol::BestEffort {
            numeric: BestEffortNumeric::DuchiMultidim,
            ..
        }
    )
}

fn schema(d_num: usize, doms: &[u32]) -> Vec<AttrSpec> {
    let mut specs = vec![AttrSpec::Numeric; d_num];
    specs.extend(doms.iter().map(|&k| AttrSpec::Categorical { k }));
    specs
}

fn tuple_for(specs: &[AttrSpec], user: u64) -> Vec<AttrValue> {
    specs
        .iter()
        .enumerate()
        .map(|(j, spec)| match spec {
            AttrSpec::Numeric => AttrValue::Numeric(((user + j as u64) % 21) as f64 / 10.0 - 1.0),
            AttrSpec::Categorical { k } => {
                AttrValue::Categorical(((user + j as u64) % u64::from(*k)) as u32)
            }
        })
        .collect()
}

fn encode_user(encoder: &ClientEncoder, user: u64, seed: u64) -> Report {
    let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(seed, user as usize));
    let mut report = encoder.empty_report();
    let mut scratch = encoder.scratch();
    encoder
        .encode_into(
            &tuple_for(encoder.specs(), user),
            &mut rng,
            &mut report,
            &mut scratch,
        )
        .unwrap();
    report
}

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

/// One connection served through the shipping loop.
struct Conn {
    summary: ConnSummary,
    /// Submits this connection got an `Admitted` verdict for.
    admitted: u64,
}

/// Serves each byte stream as one connection, in order, to a fresh
/// [`ReportServer`] and hands back its service.
fn serve_connections(connections: &[&[u8]]) -> (Vec<Conn>, ReportService) {
    let server = ReportServer::start(ServerConfig::default());
    let conns = connections
        .iter()
        .map(|bytes| {
            let mut stream = ScriptedStream::new(bytes);
            let summary = server.handle().serve_stream(&mut stream);
            let (mut responses, mut scratch) = (stream.responses(), Vec::new());
            let mut admitted = 0;
            while let Some(response) =
                ResponseMessage::read_from(&mut responses, &mut scratch).unwrap()
            {
                if let ResponseMessage::Ack {
                    outcome: AckOutcome::Admitted,
                    ..
                } = response
                {
                    admitted += 1;
                }
            }
            Conn { summary, admitted }
        })
        .collect();
    (conns, server.finish())
}

/// A warm-up connection admitting `warm` reports, plus the snapshot of the
/// state it leaves — the baseline an adversarial stream must not disturb.
fn warm_up(
    protocol: Protocol,
    specs: &[AttrSpec],
    warm: u64,
    seed: u64,
) -> (Vec<u8>, ClientEncoder, EpochSnapshot) {
    let eps = Epsilon::new(1.0).unwrap();
    let encoder = ClientEncoder::new(protocol, eps, specs.to_vec()).unwrap();
    let mut stream = Vec::new();
    WireMessage::Hello {
        protocol,
        epsilon: eps,
        specs: specs.to_vec(),
        epoch: 0,
    }
    .write_to(&mut stream)
    .unwrap();
    for user in 0..warm {
        WireMessage::Submit {
            user,
            epoch: 0,
            block: user % 4,
            report: encode_report(&encode_user(&encoder, user, seed), specs),
        }
        .write_to(&mut stream)
        .unwrap();
    }
    let baseline = serve_connections(&[&stream]).1.snapshot_epoch(0).unwrap();
    assert_eq!(baseline.admitted, warm, "warm-up reports are all admitted");
    (stream, encoder, baseline)
}

fn assert_snapshot_unchanged(service: &ReportService, baseline: &EpochSnapshot) {
    let now = service.snapshot_epoch(0).unwrap();
    assert_eq!(now.admitted, baseline.admitted, "admitted count moved");
    assert_eq!(
        now.rejected_duplicates, baseline.rejected_duplicates,
        "duplicate count moved"
    );
    match (&baseline.result, &now.result) {
        (None, None) => {}
        (Some(a), Some(b)) => assert_bit_identical(a, b, "after rejected frame"),
        _ => panic!("snapshot presence changed after a rejected frame"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: every report variant round-trips through the framed
    /// codec bit-exactly — via the raw codec and via a full `Submit`
    /// frame read back from a byte stream.
    #[test]
    fn every_report_variant_round_trips(
        pick in 0u8..6,
        seed in 0u64..1_000_000,
        d_num in 0usize..3,
        doms in prop::collection::vec(2u32..70, 0..3),
        user in 0u64..500,
    ) {
        let protocol = protocol_pick(pick);
        prop_assume!(d_num + doms.len() > 0);
        prop_assume!(!needs_numeric(protocol) || d_num > 0);
        let specs = schema(d_num, &doms);
        let eps = Epsilon::new(1.25).unwrap();
        let encoder = ClientEncoder::new(protocol, eps, specs.clone()).unwrap();
        let report = encode_user(&encoder, user, seed);

        // Raw codec round trip.
        let bytes = encode_report(&report, &specs);
        let back = decode_report(protocol, &specs, &bytes).unwrap();
        prop_assert_eq!(&back, &report);

        // Full framed round trip.
        let msg = WireMessage::Submit { user, epoch: 3, block: user % 7, report: bytes };
        let mut stream = Vec::new();
        msg.write_to(&mut stream).unwrap();
        let mut scratch = Vec::new();
        let decoded = WireMessage::read_from(&mut stream.as_slice(), &mut scratch)
            .unwrap()
            .expect("one frame on the stream");
        prop_assert_eq!(&decoded, &msg);
        let WireMessage::Submit { report: wire_bytes, .. } = decoded else { unreachable!() };
        let back = decode_report(protocol, &specs, &wire_bytes).unwrap();
        prop_assert_eq!(&back, &report);
    }

    /// Contract 2a: a frame truncated at any point surfaces a typed
    /// [`StreamFault`] whose offset names the frame's first byte, and the
    /// snapshot does not move.
    #[test]
    fn truncated_frames_are_typed_errors_and_state_is_unchanged(
        pick in 0u8..6,
        seed in 0u64..1_000_000,
        cut_pick in 0usize..10_000,
        warm in 1u64..30,
    ) {
        let protocol = protocol_pick(pick);
        let specs = schema(2, &[5]);
        let (warm, encoder, baseline) = warm_up(protocol, &specs, warm, seed);

        let frame_bytes = WireMessage::Submit {
            user: 10_000,
            epoch: 0,
            block: 0,
            report: encode_report(&encode_user(&encoder, 10_000, seed), &specs),
        }
        .to_frame()
        .unwrap();
        let cut = 1 + cut_pick % (frame_bytes.len() - 1);
        let truncated = &frame_bytes[..cut];

        let (conns, service) = serve_connections(&[&warm, truncated]);
        prop_assert_eq!(conns[1].admitted, 0, "truncated frame was admitted");
        let fault = conns[1]
            .summary
            .fault
            .clone()
            .expect("truncation must surface as a fault");
        prop_assert_eq!(fault.offset, 0, "fault must name the frame's first byte");
        prop_assert!(
            matches!(&fault.error, LdpError::MalformedFrame { .. }),
            "{}",
            fault.error
        );
        assert_snapshot_unchanged(&service, &baseline);
    }

    /// Contract 2b: flipping any single bit of a framed submit is never
    /// absorbed — it is either a counted malformed frame (reader kept
    /// sync) or a typed stream abort — and the snapshot does not move.
    #[test]
    fn bit_flipped_frames_never_corrupt_state(
        pick in 0u8..6,
        seed in 0u64..1_000_000,
        bit_pick in 0usize..100_000,
        warm in 1u64..30,
    ) {
        let protocol = protocol_pick(pick);
        let specs = schema(2, &[5]);
        let (warm, encoder, baseline) = warm_up(protocol, &specs, warm, seed);

        let mut frame_bytes = WireMessage::Submit {
            user: 10_000,
            epoch: 0,
            block: 0,
            report: encode_report(&encode_user(&encoder, 10_000, seed), &specs),
        }
        .to_frame()
        .unwrap();
        let bit = bit_pick % (frame_bytes.len() * 8);
        frame_bytes[bit / 8] ^= 1 << (bit % 8);

        let (conns, service) = serve_connections(&[&warm, &frame_bytes]);
        prop_assert_eq!(conns[1].admitted, 0, "corrupted frame was admitted");
        match conns[1].summary.fault.clone() {
            None => {
                // A checksum failure is answered `Resend` and counted by
                // the connection; a verified frame that fails decoding or
                // validation is counted by the service.
                let malformed = service.snapshot_epoch(0).unwrap().rejected_malformed;
                prop_assert!(
                    conns[1].summary.corrupt_frames + malformed > 0,
                    "corruption neither rejected nor fatal"
                );
            }
            Some(fault) => {
                prop_assert_eq!(fault.offset, 0, "fault must name the frame's first byte");
                prop_assert!(
                    matches!(&fault.error, LdpError::MalformedFrame { .. }),
                    "{}",
                    fault.error
                );
            }
        }
        assert_snapshot_unchanged(&service, &baseline);
    }

    /// Contract 2c: random garbage inside a *well-formed* frame (valid
    /// checksum, valid submit envelope) is rejected at the message gate,
    /// serving continues, and the snapshot does not move.
    #[test]
    fn garbage_report_payloads_are_rejected_in_stride(
        pick in 0u8..6,
        seed in 0u64..1_000_000,
        garbage in prop::collection::vec(0u8..=255, 0..60),
        warm in 1u64..30,
    ) {
        let protocol = protocol_pick(pick);
        let specs = schema(2, &[5]);
        let (warm, encoder, baseline) = warm_up(protocol, &specs, warm, seed);

        let mut stream = Vec::new();
        WireMessage::Submit { user: 10_000, epoch: 0, block: 0, report: garbage }
            .write_to(&mut stream)
            .unwrap();
        // A healthy submit after the garbage: the service must still be
        // serving.
        WireMessage::Submit {
            user: 10_001,
            epoch: 0,
            block: 0,
            report: encode_report(&encode_user(&encoder, 10_001, seed), &specs),
        }
        .write_to(&mut stream)
        .unwrap();

        let (conns, service) = serve_connections(&[&warm, &stream]);
        prop_assert!(conns[1].admitted >= 1, "healthy submit after garbage was lost");
        // `rejected_malformed == 0` would mean the garbage parsed as a
        // canonical, schema-valid report (astronomically unlikely) and was
        // legitimately admitted; otherwise the rejection left exactly the
        // healthy report's worth of state change.
        let now = service.snapshot_epoch(0).unwrap();
        if now.rejected_malformed > 0 {
            prop_assert_eq!(now.rejected_malformed, 1);
            prop_assert_eq!(conns[1].admitted, 1);
            prop_assert_eq!(now.admitted, baseline.admitted + 1);
        }
    }

    /// Contract 3a: the ledger matches a reference set model over
    /// arbitrary (user, epoch) sequences.
    #[test]
    fn ledger_matches_reference_model(
        key in 0u64..1_000_000,
        // Each draw packs (user, epoch): user = v % 40, epoch = v / 40.
        packed in prop::collection::vec(0u64..160, 1..120),
    ) {
        let submits: Vec<(u64, u64)> = packed.iter().map(|v| (v % 40, v / 40)).collect();
        let mut ledger = BudgetLedger::with_key(key);
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut model_rejected = 0u64;
        for &(user, epoch) in &submits {
            let admitted = model.insert((epoch, user));
            if !admitted {
                model_rejected += 1;
            }
            match ledger.admit(user, epoch) {
                Ok(()) => prop_assert!(admitted, "ledger admitted a duplicate"),
                Err(LdpError::DuplicateReport { epoch: e, .. }) => {
                    prop_assert!(!admitted, "ledger rejected a first report");
                    prop_assert_eq!(e, epoch);
                }
                Err(other) => prop_assert!(false, "unexpected error {}", other),
            }
        }
        let total_admitted: u64 = (0..4).map(|e| ledger.admitted(e)).sum();
        prop_assert_eq!(total_admitted, model.len() as u64);
        prop_assert_eq!(ledger.total_rejected(), model_rejected);
    }

    /// Contract 3b: splitting a stream across shards and merging the
    /// ledgers is indistinguishable from one ledger processing the whole
    /// stream — duplicates never double-admit, whether they collide
    /// within a shard or only across shards.
    #[test]
    fn sharded_ledger_merge_matches_serial(
        key in 0u64..1_000_000,
        shard_count in 2usize..4,
        // Each draw packs (user, epoch): user = v % 40, epoch = v / 40.
        packed in prop::collection::vec(0u64..160, 1..120),
    ) {
        let submits: Vec<(u64, u64)> = packed.iter().map(|v| (v % 40, v / 40)).collect();
        let mut serial = BudgetLedger::with_key(key);
        for &(user, epoch) in &submits {
            let _ = serial.admit(user, epoch);
        }

        let mut shards: Vec<BudgetLedger> =
            (0..shard_count).map(|_| BudgetLedger::with_key(key)).collect();
        for (i, &(user, epoch)) in submits.iter().enumerate() {
            let _ = shards[i % shard_count].admit(user, epoch);
        }
        let mut merged = shards.remove(0);
        for shard in shards {
            merged.merge(shard).unwrap();
        }

        for epoch in 0..4 {
            prop_assert_eq!(merged.admitted(epoch), serial.admitted(epoch));
            prop_assert_eq!(merged.rejected(epoch), serial.rejected(epoch));
        }
    }
}

/// An oversized declared length aborts before buffering: typed error,
/// message names the cap, snapshot unchanged.
#[test]
fn oversized_length_aborts_with_typed_error() {
    let protocol = protocol_pick(0);
    let specs = schema(2, &[5]);
    let (warm, _, baseline) = warm_up(protocol, &specs, 10, 7);

    let mut stream = Vec::new();
    stream.extend_from_slice(&((frame::MAX_FRAME_PAYLOAD as u32) + 1).to_be_bytes());
    stream.push(2);
    stream.extend_from_slice(&0u64.to_be_bytes());

    let (conns, service) = serve_connections(&[&warm, &stream]);
    let fault = conns[1]
        .summary
        .fault
        .clone()
        .expect("oversized length must surface as a fault");
    assert_eq!(fault.offset, 0);
    let msg = fault.error.to_string();
    assert!(msg.contains("oversized"), "{msg}");
    assert_snapshot_unchanged(&service, &baseline);
}

/// A checksum-corrupt frame between two healthy ones: counted, skipped,
/// both healthy frames absorbed — the count-and-continue path end to end.
#[test]
fn corrupt_frame_between_healthy_frames_is_skipped() {
    let protocol = protocol_pick(0);
    let specs = schema(2, &[5]);
    let (warm, encoder, baseline) = warm_up(protocol, &specs, 5, 11);

    let mut stream = Vec::new();
    for user in [100u64, 101, 102] {
        WireMessage::Submit {
            user,
            epoch: 0,
            block: 0,
            report: encode_report(&encode_user(&encoder, user, 11), &specs),
        }
        .write_to(&mut stream)
        .unwrap();
    }
    // Corrupt the middle frame's payload (first frame's length tells us
    // where it starts).
    let first_len = u32::from_be_bytes(stream[0..4].try_into().unwrap()) as usize;
    let second_start = frame::FRAME_HEADER_BYTES + first_len;
    stream[second_start + frame::FRAME_HEADER_BYTES + 2] ^= 0x10;

    let (conns, service) = serve_connections(&[&warm, &stream]);
    assert_eq!(conns[1].admitted, 2);
    // Counted by the connection that answered it `Resend`; the service
    // never saw the frame.
    assert_eq!(conns[1].summary.corrupt_frames, 1);
    let now = service.snapshot_epoch(0).unwrap();
    assert_eq!(now.rejected_malformed, 0);
    assert_eq!(now.admitted, baseline.admitted + 2);
}
