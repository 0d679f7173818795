//! Communication-cost accounting for perturbed reports.
//!
//! §VII of the paper criticizes LoPub-style protocols for transmitting
//! multiple k-sized vectors per user; this module makes the comparison
//! quantitative by computing the wire size of every report type under a
//! simple canonical encoding:
//!
//! * numeric value — 64 bits;
//! * attribute index — `⌈log₂ d⌉` bits;
//! * direct categorical report — `⌈log₂ k⌉` bits;
//! * unary categorical report — `k` bits;
//! * Duchi et al. multidimensional report — `d` sign bits (the magnitude
//!   `B` is public).
//!
//! The `communication` ablation bench tabulates these per protocol.

use crate::mechanism::CategoricalReport;
use crate::multidim::{AttrReport, SparseReport};

/// Bits for one 64-bit float.
const F64_BITS: usize = 64;

/// `⌈log₂ n⌉`, with the convention that 1 value still needs 1 bit on the
/// wire (a tag must occupy space).
pub fn index_bits(n: usize) -> usize {
    n.max(2).next_power_of_two().trailing_zeros() as usize
}

/// Wire size of one categorical report.
pub fn categorical_report_bits(report: &CategoricalReport, k: u32) -> usize {
    match report {
        CategoricalReport::Value(_) => index_bits(k as usize),
        CategoricalReport::Bits(bits) => bits.len() as usize,
    }
}

/// Wire size of one attribute report (excluding the attribute index).
pub fn attr_report_bits(report: &AttrReport) -> usize {
    match report {
        AttrReport::Numeric(_) => F64_BITS,
        AttrReport::Categorical(c) => match c {
            CategoricalReport::Value(_) => {
                // Domain size is not stored in the report; a direct value is
                // at most 32 bits and typically ⌈log₂ k⌉ — callers with the
                // schema should prefer `categorical_report_bits`.
                32
            }
            CategoricalReport::Bits(bits) => bits.len() as usize,
        },
    }
}

/// Wire size of one attribute report given its schema spec, charging direct
/// categorical reports their true `⌈log₂ k⌉` bits instead of
/// [`attr_report_bits`]'s schema-less 32-bit fallback.
///
/// # Panics
/// Panics if the report type disagrees with the spec (reports produced by a
/// perturber on the same schema always agree).
pub fn attr_report_bits_with_schema(
    report: &AttrReport,
    spec: &crate::multidim::AttrSpec,
) -> usize {
    match (report, spec) {
        (AttrReport::Numeric(_), crate::multidim::AttrSpec::Numeric) => F64_BITS,
        (AttrReport::Categorical(c), crate::multidim::AttrSpec::Categorical { k }) => {
            categorical_report_bits(c, *k)
        }
        _ => panic!("report entry type disagrees with schema"),
    }
}

/// Wire size of an Algorithm 4 sparse report: per entry, an attribute index
/// plus the payload.
pub fn sparse_report_bits(report: &SparseReport) -> usize {
    let idx = index_bits(report.d);
    report
        .entries
        .iter()
        .map(|(_, rep)| idx + attr_report_bits(rep))
        .sum()
}

/// Schema-aware form of [`sparse_report_bits`]: sizes each entry with
/// [`attr_report_bits_with_schema`], so GRR-style direct reports are charged
/// `⌈log₂ k⌉` bits — exactly what [`WireFormat::encode_sparse`] emits
/// (minus its 16-bit header).
///
/// # Panics
/// Panics if the report's dimensionality or entry types disagree with the
/// schema.
pub fn sparse_report_bits_with_schema(
    report: &SparseReport,
    specs: &[crate::multidim::AttrSpec],
) -> usize {
    assert_eq!(report.d, specs.len(), "schema mismatch");
    let idx = index_bits(report.d);
    report
        .entries
        .iter()
        .map(|(j, rep)| idx + attr_report_bits_with_schema(rep, &specs[*j as usize]))
        .sum()
}

/// Wire size of one composition report under the canonical encoding, from
/// the schema alone: 64 bits per numeric attribute, plus `k` bits (unary
/// oracles) or `⌈log₂ k⌉` bits (direct/GRR reports) per categorical
/// attribute. No indices and no header — the schema order is implied and
/// every attribute is present, so the size is a schema constant. This is
/// exactly what the `Report::Composition` codec in `ldp-analytics` emits.
pub fn composition_report_bits(specs: &[crate::multidim::AttrSpec], unary: bool) -> usize {
    specs
        .iter()
        .map(|spec| match spec {
            crate::multidim::AttrSpec::Numeric => F64_BITS,
            crate::multidim::AttrSpec::Categorical { k } => {
                if unary {
                    *k as usize
                } else {
                    index_bits(*k as usize)
                }
            }
        })
        .sum()
}

/// Wire size of a Duchi et al. multidimensional report: one sign bit per
/// coordinate (`B` is public knowledge).
pub fn duchi_md_report_bits(d: usize) -> usize {
    d
}

/// A bit-level codec for Algorithm 4 sparse reports, realizing exactly the
/// canonical sizes above (plus a 16-bit entry-count header). Users and the
/// aggregator share the schema, so only indices and payloads go on the wire.
#[derive(Debug, Clone)]
pub struct WireFormat {
    specs: Vec<crate::multidim::AttrSpec>,
}

impl WireFormat {
    /// A codec for the given schema.
    pub fn new(specs: Vec<crate::multidim::AttrSpec>) -> Self {
        WireFormat { specs }
    }

    /// Encodes a sparse report into a byte buffer.
    ///
    /// # Panics
    /// Panics if the report's dimensionality disagrees with the schema, or
    /// an entry's type disagrees with its attribute spec (reports produced
    /// by [`crate::multidim::SamplingPerturber`] on the same schema always
    /// agree).
    pub fn encode_sparse(&self, report: &SparseReport) -> Vec<u8> {
        assert_eq!(report.d, self.specs.len(), "schema mismatch");
        let mut w = BitWriter::new();
        w.write_bits(report.entries.len() as u64, 16);
        let idx_bits = index_bits(report.d);
        for (j, rep) in &report.entries {
            w.write_bits(u64::from(*j), idx_bits);
            match (rep, &self.specs[*j as usize]) {
                (AttrReport::Numeric(x), crate::multidim::AttrSpec::Numeric) => {
                    w.write_bits(x.to_bits(), 64);
                }
                (
                    AttrReport::Categorical(CategoricalReport::Value(v)),
                    crate::multidim::AttrSpec::Categorical { k },
                ) => {
                    w.write_bits(u64::from(*v), index_bits(*k as usize));
                }
                (
                    AttrReport::Categorical(CategoricalReport::Bits(bits)),
                    crate::multidim::AttrSpec::Categorical { k },
                ) => {
                    assert_eq!(bits.len(), *k, "bit-vector length mismatch");
                    // Word-at-a-time: the stream wants vector bit 0 first,
                    // and `write_bits` emits a value's high bit first, so
                    // each backing word goes out with its low `width` bits
                    // reversed — one `reverse_bits` + one `write_bits` per
                    // 64 categories instead of 64 single-bit appends.
                    let mut remaining = *k;
                    for &word in bits.words() {
                        let width = remaining.min(64);
                        w.write_bits(word.reverse_bits() >> (64 - width), width as usize);
                        remaining -= width;
                    }
                }
                _ => panic!("report entry type disagrees with schema"),
            }
        }
        w.finish()
    }

    /// Decodes a sparse report. Unary vs direct categorical payloads are
    /// chosen by `unary`: true for OUE/SUE bit vectors, false for GRR
    /// values (the protocol fixes this, so it is not encoded per report).
    ///
    /// # Errors
    /// [`crate::LdpError::InvalidParameter`] on truncated buffers, more
    /// entries than attributes, or out-of-range indices/values.
    pub fn decode_sparse(&self, bytes: &[u8], unary: bool) -> crate::Result<SparseReport> {
        let mut r = BitReader::new(bytes);
        let d = self.specs.len();
        let count = r.read_bits(16)? as usize;
        // Checked before reserving: the count is untrusted, and a report
        // samples each attribute at most once.
        if count > d {
            return Err(crate::LdpError::InvalidParameter {
                name: "wire",
                message: format!("report declares {count} entries for {d} attributes"),
            });
        }
        let idx_bits = index_bits(d);
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let j = r.read_bits(idx_bits)? as usize;
            if j >= d {
                return Err(crate::LdpError::InvalidParameter {
                    name: "wire",
                    message: format!("attribute index {j} out of range {d}"),
                });
            }
            let rep = match self.specs[j] {
                crate::multidim::AttrSpec::Numeric => {
                    AttrReport::Numeric(f64::from_bits(r.read_bits(64)?))
                }
                crate::multidim::AttrSpec::Categorical { k } => {
                    if unary {
                        let mut bits = crate::mechanism::BitVec::zeros(k);
                        // Word-at-a-time inverse of `encode_sparse`: read up
                        // to 64 stream bits, un-reverse them into a backing
                        // word, then scatter only the set bits.
                        let mut base = 0u32;
                        while base < k {
                            let width = (k - base).min(64);
                            let chunk = r.read_bits(width as usize)?;
                            let mut word = chunk.reverse_bits() >> (64 - width);
                            while word != 0 {
                                let tz = word.trailing_zeros();
                                bits.set(base + tz, true);
                                word &= word - 1;
                            }
                            base += width;
                        }
                        AttrReport::Categorical(CategoricalReport::Bits(bits))
                    } else {
                        let v = r.read_bits(index_bits(k as usize))? as u32;
                        if v >= k {
                            return Err(crate::LdpError::InvalidCategory { value: v, k });
                        }
                        AttrReport::Categorical(CategoricalReport::Value(v))
                    }
                }
            };
            entries.push((j as u32, rep));
        }
        Ok(SparseReport { d, entries })
    }
}

/// Append-only bit buffer (MSB-first within each byte).
///
/// Word-oriented: pending bits accumulate MSB-aligned in a 64-bit register
/// and flush eight bytes at a time, so a `write_bits` call costs a couple
/// of shifts regardless of width — the old writer paid a bounds-checked
/// byte append *per bit*, which made `encode_sparse` the slowest loop in
/// the codec. The emitted byte stream is identical (pinned by the
/// `word_writer_matches_naive_bit_writer` proptest).
///
/// Public so report codecs outside this crate (e.g. the
/// `Report::Composition` codec in `ldp-analytics`) share the exact wire
/// primitive instead of re-deriving the bit layout.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, first-written bit at position 63.
    acc: u64,
    /// Number of pending bits in `acc` (< 64 between calls).
    used: usize,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        BitWriter {
            buf: Vec::new(),
            acc: 0,
            used: 0,
        }
    }

    /// Appends the low `width` bits of `value`, most-significant first.
    pub fn write_bits(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64);
        if width == 0 {
            return;
        }
        let value = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        let free = 64 - self.used;
        if width <= free {
            // 1 ≤ width ≤ free ≤ 64, so the shift is in 0..=63.
            self.acc |= value << (free - width);
            self.used += width;
            if self.used == 64 {
                self.flush_word();
            }
        } else {
            // Split: top `free` bits complete the register, the low
            // `width - free` bits start the next one. `used` < 64 always
            // holds between calls, so 1 ≤ spill ≤ 63.
            let spill = width - free;
            self.acc |= value >> spill;
            self.flush_word();
            self.acc = value << (64 - spill);
            self.used = spill;
        }
    }

    fn flush_word(&mut self) {
        self.buf.extend_from_slice(&self.acc.to_be_bytes());
        self.acc = 0;
        self.used = 0;
    }

    /// Flushes the pending bits (zero-padded to a byte boundary) and
    /// returns the finished buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let bytes = self.used.div_ceil(8);
        self.buf.extend_from_slice(&self.acc.to_be_bytes()[..bytes]);
        self.buf
    }
}

/// Reader matching [`BitWriter`]'s layout (byte-at-a-time, not bit-at-a-time).
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    bit: usize,
}

impl<'a> BitReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, bit: 0 }
    }

    /// Reads the next `width` bits, most-significant first.
    ///
    /// # Errors
    /// [`crate::LdpError::InvalidParameter`] when fewer than `width` bits
    /// remain.
    pub fn read_bits(&mut self, width: usize) -> crate::Result<u64> {
        debug_assert!(width <= 64);
        if self.bit + width > self.buf.len() * 8 {
            return Err(crate::LdpError::InvalidParameter {
                name: "wire",
                message: "truncated report buffer".into(),
            });
        }
        let mut out = 0u64;
        let mut need = width;
        while need > 0 {
            let byte = self.buf[self.bit / 8];
            let avail = 8 - (self.bit % 8);
            let take = avail.min(need);
            let chunk = (byte >> (avail - take)) & ((1u16 << take) - 1) as u8;
            out = (out << take) | u64::from(chunk);
            self.bit += take;
            need -= take;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::BitVec;

    /// The pre-optimization writer, verbatim: one bounds-checked byte append
    /// per bit. Kept as the reference the word-oriented [`BitWriter`] must
    /// reproduce byte for byte.
    struct NaiveBitWriter {
        buf: Vec<u8>,
        bit: usize,
    }

    impl NaiveBitWriter {
        fn new() -> Self {
            NaiveBitWriter {
                buf: Vec::new(),
                bit: 0,
            }
        }

        fn write_bits(&mut self, value: u64, width: usize) {
            for i in (0..width).rev() {
                if self.bit % 8 == 0 {
                    self.buf.push(0);
                }
                let b = (value >> i) & 1;
                let byte = self.buf.last_mut().expect("pushed above");
                *byte |= (b as u8) << (7 - (self.bit % 8));
                self.bit += 1;
            }
        }
    }

    /// `encode_sparse` as it was before the word-oriented writer: naive
    /// writer, bit-by-bit unary payloads.
    fn encode_sparse_naive(specs: &[crate::multidim::AttrSpec], report: &SparseReport) -> Vec<u8> {
        let mut w = NaiveBitWriter::new();
        w.write_bits(report.entries.len() as u64, 16);
        let idx_bits = index_bits(report.d);
        for (j, rep) in &report.entries {
            w.write_bits(u64::from(*j), idx_bits);
            match (rep, &specs[*j as usize]) {
                (AttrReport::Numeric(x), crate::multidim::AttrSpec::Numeric) => {
                    w.write_bits(x.to_bits(), 64);
                }
                (
                    AttrReport::Categorical(CategoricalReport::Value(v)),
                    crate::multidim::AttrSpec::Categorical { k },
                ) => {
                    w.write_bits(u64::from(*v), index_bits(*k as usize));
                }
                (
                    AttrReport::Categorical(CategoricalReport::Bits(bits)),
                    crate::multidim::AttrSpec::Categorical { k },
                ) => {
                    assert_eq!(bits.len(), *k);
                    for b in bits.iter() {
                        w.write_bits(u64::from(b), 1);
                    }
                }
                _ => panic!("report entry type disagrees with schema"),
            }
        }
        w.buf
    }

    mod word_writer_proptests {
        use super::*;
        use crate::multidim::{AttrSpec, AttrValue, SamplingPerturber};
        use crate::rng::seeded_rng;
        use crate::{Epsilon, NumericKind, OracleKind};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The word-oriented writer is a drop-in replacement: on genuine
            /// perturbed reports (unary bit vectors straddling word
            /// boundaries, direct values, numeric draws) it emits exactly
            /// the byte stream of the old bit-by-bit encoder, and the codec
            /// round-trips.
            #[test]
            fn word_writer_matches_naive_bit_writer(
                seed in 0u64..1_000_000,
                eps in 0.4f64..8.0,
                d_num in 0usize..3,
                doms in prop::collection::vec(2u32..200, 1..4),
                grr in prop::bool::ANY,
            ) {
                let mut specs: Vec<AttrSpec> = (0..d_num).map(|_| AttrSpec::Numeric).collect();
                specs.extend(doms.iter().map(|&k| AttrSpec::Categorical { k }));
                let oracle = if grr { OracleKind::Grr } else { OracleKind::Oue };
                let p = SamplingPerturber::new(
                    Epsilon::new(eps).unwrap(),
                    specs.clone(),
                    NumericKind::Hybrid,
                    oracle,
                ).unwrap();
                let mut rng = seeded_rng(seed);
                let tuple: Vec<AttrValue> = specs
                    .iter()
                    .map(|s| match s {
                        AttrSpec::Numeric => AttrValue::Numeric(0.3),
                        AttrSpec::Categorical { k } => AttrValue::Categorical(k - 1),
                    })
                    .collect();
                let format = WireFormat::new(specs.clone());
                let mut report = SparseReport::with_capacity(p.d(), p.k());
                let mut scratch = p.scratch();
                for _ in 0..4 {
                    p.perturb_into(&tuple, &mut rng, &mut report, &mut scratch).unwrap();
                    let fast = format.encode_sparse(&report);
                    let naive = encode_sparse_naive(&specs, &report);
                    prop_assert_eq!(&fast, &naive, "word writer diverged from the bit writer");
                    let back = format.decode_sparse(&fast, !grr).unwrap();
                    prop_assert_eq!(&back.entries, &report.entries);
                }
            }

            /// Writer equivalence at the primitive level: arbitrary width
            /// sequences, arbitrary values.
            #[test]
            fn write_bits_matches_naive_for_arbitrary_widths(
                values in prop::collection::vec(0u64..=u64::MAX, 0..40),
                widths in prop::collection::vec(1usize..=64, 0..40),
            ) {
                let mut fast = BitWriter::new();
                let mut naive = NaiveBitWriter::new();
                for (&value, &width) in values.iter().zip(&widths) {
                    fast.write_bits(value, width);
                    naive.write_bits(value, width);
                }
                prop_assert_eq!(fast.finish(), naive.buf);
            }

            /// Reader inverts the writer for arbitrary width sequences.
            #[test]
            fn read_bits_inverts_write_bits(
                values in prop::collection::vec(0u64..=u64::MAX, 0..40),
                widths in prop::collection::vec(1usize..=64, 0..40),
            ) {
                let mut w = BitWriter::new();
                for (&value, &width) in values.iter().zip(&widths) {
                    w.write_bits(value, width);
                }
                let bytes = w.finish();
                let mut r = BitReader::new(&bytes);
                for (&value, &width) in values.iter().zip(&widths) {
                    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
                    prop_assert_eq!(r.read_bits(width).unwrap(), value & mask);
                }
            }
        }
    }

    #[test]
    fn index_bits_rounds_up() {
        assert_eq!(index_bits(1), 1);
        assert_eq!(index_bits(2), 1);
        assert_eq!(index_bits(3), 2);
        assert_eq!(index_bits(16), 4);
        assert_eq!(index_bits(17), 5);
        assert_eq!(index_bits(94), 7);
    }

    #[test]
    fn categorical_sizes() {
        assert_eq!(categorical_report_bits(&CategoricalReport::Value(3), 27), 5);
        let bits = BitVec::zeros(27);
        assert_eq!(
            categorical_report_bits(&CategoricalReport::Bits(bits), 27),
            27
        );
    }

    #[test]
    fn sparse_beats_composition_when_k_is_small() {
        // d = 16 numeric attributes, k = 1 sample: 4 + 64 bits vs 16·64.
        let sparse = SparseReport {
            d: 16,
            entries: vec![(3, AttrReport::Numeric(1.5))],
        };
        assert_eq!(sparse_report_bits(&sparse), 4 + 64);
        let specs = vec![crate::multidim::AttrSpec::Numeric; 16];
        assert_eq!(composition_report_bits(&specs, true), 16 * 64);
        assert!(sparse_report_bits(&sparse) < composition_report_bits(&specs, true));
    }

    #[test]
    fn duchi_is_one_bit_per_dimension() {
        assert_eq!(duchi_md_report_bits(94), 94);
    }

    #[test]
    fn composition_sizes_are_schema_constants() {
        use crate::multidim::AttrSpec;
        let specs = vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 27 },
            AttrSpec::Categorical { k: 5 },
        ];
        // Unary payloads are k bits; direct payloads ⌈log₂ k⌉.
        assert_eq!(composition_report_bits(&specs, true), 64 + 27 + 5);
        assert_eq!(composition_report_bits(&specs, false), 64 + 5 + 3);
    }

    #[test]
    fn schema_aware_sizes_charge_log_k_for_direct_reports() {
        use crate::multidim::AttrSpec;
        let specs = vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 27 },
            AttrSpec::Categorical { k: 5 },
        ];
        let report = SparseReport {
            d: 3,
            entries: vec![
                (0, AttrReport::Numeric(0.5)),
                (1, AttrReport::Categorical(CategoricalReport::Value(13))),
                (
                    2,
                    AttrReport::Categorical(CategoricalReport::Bits(BitVec::zeros(5))),
                ),
            ],
        };
        // Indices: 2 bits each; payloads: 64 + ⌈log₂ 27⌉ = 5 + 5 unary bits.
        assert_eq!(
            sparse_report_bits_with_schema(&report, &specs),
            3 * 2 + 64 + 5 + 5
        );
        // The schema-less fallback charges 32 bits for the direct report.
        assert_eq!(sparse_report_bits(&report), 3 * 2 + 64 + 32 + 5);
        // Schema-aware accounting matches the codec's emitted size exactly
        // (modulo the 16-bit entry-count header).
        let format = WireFormat::new(specs.clone());
        let bytes = format.encode_sparse(&report);
        assert_eq!(
            bytes.len(),
            (16 + sparse_report_bits_with_schema(&report, &specs)).div_ceil(8)
        );
    }

    #[test]
    #[should_panic(expected = "disagrees with schema")]
    fn schema_aware_sizes_reject_type_mismatch() {
        use crate::multidim::AttrSpec;
        attr_report_bits_with_schema(&AttrReport::Numeric(0.0), &AttrSpec::Categorical { k: 4 });
    }

    #[test]
    fn codec_round_trips_mixed_reports() {
        use crate::multidim::{AttrSpec, AttrValue, SamplingPerturber};
        use crate::rng::seeded_rng;
        use crate::{Epsilon, NumericKind, OracleKind};
        let specs = vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 5 },
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 13 },
        ];
        let format = WireFormat::new(specs.clone());
        let p = SamplingPerturber::with_k(
            Epsilon::new(2.0).unwrap(),
            specs,
            NumericKind::Hybrid,
            OracleKind::Oue,
            3,
        )
        .unwrap();
        let tuple = vec![
            AttrValue::Numeric(0.4),
            AttrValue::Categorical(2),
            AttrValue::Numeric(-0.8),
            AttrValue::Categorical(12),
        ];
        let mut rng = seeded_rng(42);
        let mut report = SparseReport::with_capacity(p.d(), p.k());
        let mut scratch = p.scratch();
        for _ in 0..200 {
            p.perturb_into(&tuple, &mut rng, &mut report, &mut scratch)
                .unwrap();
            let bytes = format.encode_sparse(&report);
            // Size check: header + payload bits, rounded up to bytes.
            let expect_bits = 16 + sparse_report_bits(&report);
            assert_eq!(bytes.len(), expect_bits.div_ceil(8));
            let back = format.decode_sparse(&bytes, true).unwrap();
            assert_eq!(back.d, report.d);
            assert_eq!(back.entries, report.entries);
        }
    }

    #[test]
    fn codec_round_trips_grr_reports() {
        use crate::multidim::{AttrSpec, AttrValue, SamplingPerturber};
        use crate::rng::seeded_rng;
        use crate::{Epsilon, NumericKind, OracleKind};
        let specs = vec![
            AttrSpec::Categorical { k: 7 },
            AttrSpec::Categorical { k: 3 },
        ];
        let format = WireFormat::new(specs.clone());
        let p = SamplingPerturber::with_k(
            Epsilon::new(1.0).unwrap(),
            specs,
            NumericKind::Hybrid,
            OracleKind::Grr,
            2,
        )
        .unwrap();
        let tuple = vec![AttrValue::Categorical(6), AttrValue::Categorical(0)];
        let mut rng = seeded_rng(43);
        let mut report = SparseReport::with_capacity(p.d(), p.k());
        let mut scratch = p.scratch();
        for _ in 0..100 {
            p.perturb_into(&tuple, &mut rng, &mut report, &mut scratch)
                .unwrap();
            let bytes = format.encode_sparse(&report);
            let back = format.decode_sparse(&bytes, false).unwrap();
            assert_eq!(back.entries, report.entries);
        }
    }

    #[test]
    fn decode_rejects_truncated_and_garbage() {
        use crate::multidim::AttrSpec;
        let format = WireFormat::new(vec![AttrSpec::Numeric, AttrSpec::Numeric]);
        // Truncated: claims one entry but has no payload.
        let mut w = BitWriter::new();
        w.write_bits(1, 16);
        let bytes = w.finish();
        assert!(format.decode_sparse(&bytes, true).is_err());
        // Complete, but one entry more than the schema has attributes.
        let mut w = BitWriter::new();
        w.write_bits(3, 16);
        for j in [0, 1, 0] {
            w.write_bits(j, 1); // index (1 bit for d = 2)
            w.write_bits(0.5f64.to_bits(), 64);
        }
        assert!(format.decode_sparse(&w.finish(), true).is_err());
        // Out-of-range category value.
        let format = WireFormat::new(vec![AttrSpec::Categorical { k: 3 }]);
        let mut w = BitWriter::new();
        w.write_bits(1, 16); // one entry
        w.write_bits(0, 1); // index 0 (1 bit for d=1)
        w.write_bits(3, 2); // value 3 ≥ k=3
        assert!(format.decode_sparse(&w.finish(), false).is_err());
    }

    #[test]
    fn bit_writer_reader_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        w.write_bits(0x1234_5678, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(32).unwrap(), 0x1234_5678);
        assert!(r.read_bits(32).is_err(), "reading past the end must fail");
    }

    #[test]
    fn mixed_sparse_report_counts_bit_vectors() {
        let sparse = SparseReport {
            d: 16,
            entries: vec![
                (0, AttrReport::Numeric(0.5)),
                (
                    9,
                    AttrReport::Categorical(CategoricalReport::Bits(BitVec::zeros(10))),
                ),
            ],
        };
        // Two indices at 4 bits + 64-bit float + 10-bit OUE vector.
        assert_eq!(sparse_report_bits(&sparse), 4 + 64 + 4 + 10);
    }
}
