//! Durability-layer property tests.
//!
//! Two families of contracts:
//!
//! 1. **State codecs roundtrip bit-exactly.** The partial-state payloads
//!    behind epoch checkpoints — [`MeanAccumulator`], [`FrequencyAccumulator`],
//!    [`BudgetLedger`], and whole-[`Aggregator`] partials — decode back to
//!    state whose every future estimate matches the original to the bit,
//!    and re-encoding reproduces the original bytes. Exact-length framing
//!    means a payload one byte short or long is rejected, never guessed at.
//! 2. **Recovery is total and at-most-once.** [`Recovery::replay`] over a
//!    valid log mutilated by arbitrary truncation or a single bit flip
//!    never panics and never double-spends budget: it either recovers
//!    exactly the records untouched by the fault (a torn tail), or returns
//!    a typed [`LdpError::WalCorrupt`] for mid-log damage.

use ldp_analytics::durable::{DurableConfig, DurableService, Recovery, WAL_FILE};
use ldp_analytics::pipeline::Protocol;
use ldp_analytics::service::{encode_report, WireMessage};
use ldp_analytics::session::{Aggregator, ClientEncoder};
use ldp_analytics::{BudgetLedger, FrequencyAccumulator, MeanAccumulator};
use ldp_core::frame::FRAME_HEADER_BYTES;
use ldp_core::multidim::wire::{BitReader, BitWriter};
use ldp_core::multidim::{AttrSpec, AttrValue, SparseReport};
use ldp_core::rng::seeded_rng;
use ldp_core::{AttrReport, BitVec, CategoricalReport, DebiasParams};
use ldp_core::{Epsilon, LdpError, NumericKind, OracleKind};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn specs() -> Vec<AttrSpec> {
    vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 4 }]
}

fn protocol() -> Protocol {
    Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    }
}

fn epsilon() -> Epsilon {
    Epsilon::new(1.0).unwrap()
}

fn hello() -> WireMessage {
    WireMessage::Hello {
        protocol: protocol(),
        epsilon: epsilon(),
        specs: specs(),
        epoch: 0,
    }
}

fn submit(user: u64, seed: u64) -> WireMessage {
    let encoder = ClientEncoder::new(protocol(), epsilon(), specs()).unwrap();
    let mut rng = seeded_rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ user);
    let record = vec![
        AttrValue::Numeric(((user % 5) as f64) / 2.5 - 1.0),
        AttrValue::Categorical((user % 4) as u32),
    ];
    let report = encoder.encode(&record, &mut rng).unwrap();
    WireMessage::Submit {
        user,
        epoch: 0,
        block: user % 3,
        report: encode_report(&report, &specs()),
    }
}

/// A per-case scratch directory, recreated from empty on every use so
/// shrinking reruns never see stale files.
fn scratch(tag: &str, a: u64, b: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ldp-proptest-durable-{}-{tag}-{a}-{b}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes a valid WAL of `users` admitted submits and returns its bytes.
fn build_wal(dir: &Path, config: &DurableConfig, users: u64, seed: u64) -> Vec<u8> {
    let (mut service, report) = DurableService::open(dir, config.clone()).unwrap();
    assert_eq!(report.recovered_admits(), 0);
    service.handle(&hello()).unwrap();
    for user in 0..users {
        service.handle(&submit(user, seed)).unwrap();
    }
    drop(service.into_service());
    std::fs::read(dir.join(WAL_FILE)).unwrap()
}

/// Independent frame walk (straight off the length fields, no checksum
/// logic shared with `durable::scan`): byte ranges of every complete
/// frame in `image`, header record included.
fn frame_bounds(image: &[u8]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut off = 0usize;
    while off + FRAME_HEADER_BYTES <= image.len() {
        let len = u32::from_be_bytes(image[off..off + 4].try_into().unwrap()) as usize;
        let end = off + FRAME_HEADER_BYTES + len;
        if end > image.len() {
            break;
        }
        bounds.push((off, end));
        off = end;
    }
    bounds
}

/// Submit records (frames after the header record) ending at or before
/// `cut` — the exact prefix a fault at byte `cut` must leave recoverable.
fn submits_before(image: &[u8], cut: usize) -> u64 {
    frame_bounds(image)
        .iter()
        .skip(1)
        .filter(|(_, end)| *end <= cut)
        .count() as u64
}

/// Asserts the recovered service double-spent nothing: every replayed
/// admit is a distinct (user, epoch) and no rejection was ever counted.
fn assert_no_double_spend(service: &ldp_analytics::ReportService, recovered: u64) {
    assert_eq!(service.ledger().total_rejected(), 0, "budget double-spend");
    let epochs: Vec<u64> = service.ledger().epochs().collect();
    let admitted: u64 = epochs.iter().map(|&e| service.ledger().admitted(e)).sum();
    assert_eq!(admitted, recovered, "ledger admits disagree with report");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mean-accumulator state roundtrips bit-exactly through an
    /// exact-length payload, for every dimensionality and report count.
    #[test]
    fn mean_state_roundtrips_bit_exact(
        d in 1usize..6,
        vals in prop::collection::vec(-1.0f64..=1.0, 0..60),
    ) {
        let mut acc = MeanAccumulator::new(d);
        for row in vals.chunks_exact(d) {
            let entries = (0..).zip(row).map(|(j, &x)| (j, AttrReport::Numeric(x)));
            acc.add_sparse(&SparseReport { d, entries: entries.collect() }).unwrap();
        }
        let mut w = BitWriter::new();
        acc.encode_state(&mut w);
        let bytes = w.finish();
        prop_assert_eq!(bytes.len(), MeanAccumulator::state_bits(d).div_ceil(8));

        let mut back = MeanAccumulator::new(d);
        back.decode_state(&mut BitReader::new(&bytes)).unwrap();
        prop_assert_eq!(back.n(), acc.n());
        if acc.n() > 0 {
            for (x, y) in acc.estimate().unwrap().iter().zip(back.estimate().unwrap()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let mut w2 = BitWriter::new();
        back.encode_state(&mut w2);
        prop_assert_eq!(w2.finish(), bytes, "re-encode must be byte-identical");
    }

    /// Frequency-accumulator state roundtrips bit-exactly; a truncated
    /// payload is a typed error, never a panic or a partial decode.
    #[test]
    fn frequency_state_roundtrips_bit_exact(
        k in 1u32..12,
        reports in 0usize..40,
        hits in prop::collection::vec(0u32..12, 0..40),
    ) {
        let debias = DebiasParams { p: 0.75, q: 0.25 };
        let mut acc = FrequencyAccumulator::new(k, 1.25, debias);
        // One direct report per hit, then unary reports setting every hit.
        let mut unary = BitVec::zeros(k);
        for &h in &hits {
            acc.count_report(&CategoricalReport::Value(h % k));
            unary.set(h % k, true);
        }
        for _ in 0..reports {
            acc.count_report(&CategoricalReport::Bits(unary.clone()));
        }
        let mut w = BitWriter::new();
        acc.encode_state(&mut w);
        let bytes = w.finish();
        prop_assert_eq!(bytes.len(), FrequencyAccumulator::state_bits(k).div_ceil(8));

        let mut back = FrequencyAccumulator::new(k, 1.25, debias);
        back.decode_state(&mut BitReader::new(&bytes)).unwrap();
        prop_assert_eq!(back.reports(), acc.reports());
        prop_assert_eq!(back.counts(), acc.counts());

        if bytes.len() > 1 {
            let mut fresh = FrequencyAccumulator::new(k, 1.25, debias);
            prop_assert!(fresh
                .decode_state(&mut BitReader::new(&bytes[..bytes.len() - 8]))
                .is_err());
        }
    }

    /// Ledger state roundtrips exactly — same admits, same rejections,
    /// same membership answers — and rejects length-mismatched payloads.
    #[test]
    fn ledger_state_roundtrips_and_rejects_bad_lengths(
        key in 0u64..u64::MAX,
        pairs in prop::collection::vec((0u64..40, 0u64..4), 0..64),
    ) {
        let mut ledger = BudgetLedger::with_key(key);
        for &(user, epoch) in &pairs {
            let _ = ledger.admit(user, epoch);
        }
        let bytes = ledger.encode_state();
        let back = BudgetLedger::decode_state(&bytes).unwrap();
        prop_assert_eq!(back.encode_state(), bytes.clone(), "re-encode must match");
        for epoch in 0..4 {
            prop_assert_eq!(back.admitted(epoch), ledger.admitted(epoch));
            prop_assert_eq!(back.rejected(epoch), ledger.rejected(epoch));
        }
        for &(user, epoch) in &pairs {
            prop_assert!(back.contains(user, epoch));
        }
        prop_assert!(!back.contains(99, 0), "unadmitted user must stay absent");

        let mut longer = bytes.clone();
        longer.push(0);
        prop_assert!(BudgetLedger::decode_state(&longer).is_err());
        if !bytes.is_empty() {
            prop_assert!(BudgetLedger::decode_state(&bytes[..bytes.len() - 1]).is_err());
        }
    }

    /// A ledger restored from its own bytes keeps each epoch's hashes as
    /// a sorted run beside a live set. Fed more admits — new users and
    /// repeats of restored ones, in restored epochs and fresh ones — it
    /// answers every query exactly as the ledger that was never encoded,
    /// and so does a fresh ledger that merges it.
    #[test]
    fn a_restored_ledger_keeps_admitting_like_the_original(
        key in 0u64..u64::MAX,
        before in prop::collection::vec((0u64..40, 0u64..4), 0..64),
        after in prop::collection::vec((0u64..60, 0u64..6), 0..64),
    ) {
        let mut original = BudgetLedger::with_key(key);
        for &(user, epoch) in &before {
            let _ = original.admit(user, epoch);
        }
        let mut restored = BudgetLedger::decode_state(&original.encode_state()).unwrap();
        for &(user, epoch) in &after {
            prop_assert_eq!(restored.admit(user, epoch), original.admit(user, epoch));
        }
        let mut merged = BudgetLedger::with_key(key);
        merged.merge(restored.clone()).unwrap();
        for ledger in [&restored, &merged] {
            prop_assert_eq!(
                ledger.epochs().collect::<Vec<_>>(),
                original.epochs().collect::<Vec<_>>()
            );
            for epoch in 0..6 {
                prop_assert_eq!(ledger.admitted(epoch), original.admitted(epoch));
                prop_assert_eq!(ledger.rejected(epoch), original.rejected(epoch));
                for user in 0..60 {
                    prop_assert_eq!(ledger.contains(user, epoch), original.contains(user, epoch));
                }
            }
            prop_assert_eq!(ledger.encode_state(), original.encode_state());
        }
    }

    /// Whole-aggregator partials roundtrip: a fresh same-session
    /// aggregator fed the encoded partials snapshots bit-identically.
    #[test]
    fn aggregator_partials_roundtrip_bit_identical(
        seed in 0u64..1_000_000,
        users in 1u64..12,
    ) {
        let encoder = ClientEncoder::new(protocol(), epsilon(), specs()).unwrap();
        let mut agg = Aggregator::new(protocol(), epsilon(), specs()).unwrap();
        for user in 0..users {
            let mut rng = seeded_rng(seed ^ user.wrapping_mul(0x0C4A));
            let record = vec![
                AttrValue::Numeric(((user % 7) as f64) / 3.5 - 1.0),
                AttrValue::Categorical((user % 4) as u32),
            ];
            agg.set_ordinal(user % 3);
            agg.absorb(&encoder.encode(&record, &mut rng).unwrap()).unwrap();
        }
        let bytes = agg.encode_partials();
        let mut back = Aggregator::new(protocol(), epsilon(), specs()).unwrap();
        back.decode_partials(&bytes).unwrap();
        prop_assert_eq!(back.encode_partials(), bytes, "re-encode must match");

        let a = agg.snapshot().unwrap();
        let b = back.snapshot().unwrap();
        prop_assert_eq!(a.n, b.n);
        for ((i, x), (j, y)) in a.means.iter().zip(b.means.iter()) {
            prop_assert_eq!(i, j);
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for ((i, xs), (j, ys)) in a.frequencies.iter().zip(b.frequencies.iter()) {
            prop_assert_eq!(i, j);
            for (x, y) in xs.iter().zip(ys) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        let mut fresh = Aggregator::new(protocol(), epsilon(), specs()).unwrap();
        let mut longer = bytes.clone();
        longer.push(0xFF);
        prop_assert!(fresh.decode_partials(&longer).is_err(), "trailing junk");
    }
}

proptest! {
    // Each case builds a real WAL through the durable service, so keep
    // the case count modest; the interesting space is the fault position.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating a valid log at ANY byte is a torn tail: replay succeeds,
    /// recovers exactly the complete records before the cut, and spends
    /// each budget unit at most once.
    #[test]
    fn replay_of_any_truncation_recovers_the_exact_prefix(
        seed in 0u64..1_000_000,
        users in 3u64..10,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch("trunc", seed, users);
        let config = DurableConfig::default();
        let image = build_wal(&dir, &config, users, seed);
        let cut = ((image.len() as f64) * cut_frac) as usize;

        std::fs::write(dir.join(WAL_FILE), &image[..cut]).unwrap();
        let (service, _, report) = Recovery::replay(&dir, &config).unwrap();
        prop_assert!(!report.had_checkpoint);
        prop_assert_eq!(report.checkpointed, 0);
        prop_assert_eq!(report.wal_rejected, 0);
        prop_assert_eq!(report.wal_replayed, submits_before(&image, cut));
        assert_no_double_spend(&service, report.recovered_admits());

        // Replay truncated the torn bytes off; a second replay is clean
        // and recovers the identical prefix (recovery is idempotent).
        let (service2, _, report2) = Recovery::replay(&dir, &config).unwrap();
        prop_assert_eq!(report2.wal_replayed, report.wal_replayed);
        prop_assert_eq!(report2.truncated_bytes, 0);
        assert_no_double_spend(&service2, report2.recovered_admits());

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping ANY single bit of a valid log never panics and never
    /// double-spends: replay either returns a typed `WalCorrupt` (damage
    /// with durable records after it) or recovers exactly the records
    /// before the damaged one (damage in the tail → torn-tail truncation).
    #[test]
    fn replay_of_any_single_bit_flip_is_total_and_at_most_once(
        seed in 0u64..1_000_000,
        users in 3u64..10,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = scratch("flip", seed, users);
        let config = DurableConfig::default();
        let image = build_wal(&dir, &config, users, seed);
        let byte = (((image.len() - 1) as f64) * flip_frac) as usize;

        let mut damaged = image.clone();
        damaged[byte] ^= 1 << bit;
        std::fs::write(dir.join(WAL_FILE), &damaged).unwrap();

        match Recovery::replay(&dir, &config) {
            Ok((service, _, report)) => {
                prop_assert_eq!(report.wal_rejected, 0);
                prop_assert!(
                    report.wal_replayed <= submits_before(&image, byte),
                    "recovered a record at or after the flipped byte"
                );
                assert_no_double_spend(&service, report.recovered_admits());
            }
            Err(LdpError::WalCorrupt { offset, .. }) => {
                prop_assert!(
                    (offset as usize) <= byte,
                    "corruption reported at {offset}, but the flip was at {byte}"
                );
            }
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
