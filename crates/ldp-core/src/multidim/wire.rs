//! The canonical wire encoding of perturbed reports, and its size
//! accounting.
//!
//! Every report is a [`SparseReport`]. It travels in one of two bit-level
//! layouts over the public schema, which both sides share, so no type tags
//! go on the wire:
//!
//! * **sampled** ([`encode_sampled`] / [`decode_sampled`]) — Algorithm 4's
//!   `k` entries: a 16-bit entry count, then per entry its attribute index
//!   (`⌈log₂ d⌉` bits) and payload;
//! * **full** ([`encode_full`] / [`decode_full`]) — the best-effort
//!   baseline's report of all `d` attributes in schema order: every numeric
//!   payload, then every categorical one. No count and no indices, so the
//!   size is a schema constant.
//!
//! Each layout has one decoding body, [`decode_sampled_into`] /
//! [`decode_full_into`], which refills a caller's report in place (entry
//! slots and bit vectors included), so a server decoding report after
//! report allocates no report; a sampled slot that changes attribute type
//! still allocates (see [`decode_sampled_into`]). [`decode_sampled`] /
//! [`decode_full`] run it on a fresh report.
//!
//! Both layouts write one attribute's payload the same way:
//!
//! * numeric value — 64 bits;
//! * direct categorical report — `⌈log₂ k⌉` bits;
//! * unary categorical report — `k` bits, vector bit 0 first.
//!
//! Whether categorical payloads are unary (OUE/SUE) or direct (GRR) is
//! fixed by the protocol, so decoders take it as `unary`. A Duchi et al.
//! multidimensional report costs `d` sign bits (the magnitude `B` is
//! public). §VII of the paper criticizes LoPub-style protocols for
//! transmitting multiple k-sized vectors per user; the `communication`
//! ablation tabulates these sizes per protocol.

use crate::mechanism::{BitVec, CategoricalReport};
use crate::multidim::{AttrReport, AttrSpec, SparseReport};
use crate::{LdpError, Result};

/// Bits for one 64-bit float.
const F64_BITS: usize = 64;

/// Bits of the sampled layout's entry-count header.
const COUNT_BITS: usize = 16;

/// `⌈log₂ n⌉`, with the convention that 1 value still needs 1 bit on the
/// wire (a tag must occupy space).
pub fn index_bits(n: usize) -> usize {
    n.max(2).next_power_of_two().trailing_zeros() as usize
}

/// Wire size of one attribute's payload (excluding any attribute index).
///
/// # Panics
/// Panics if the report type disagrees with the spec (reports produced by
/// an encoder on the same schema always agree).
pub fn payload_bits(report: &AttrReport, spec: &AttrSpec) -> usize {
    match (report, spec) {
        (AttrReport::Numeric(_), AttrSpec::Numeric) => F64_BITS,
        (AttrReport::Categorical(CategoricalReport::Value(_)), AttrSpec::Categorical { k }) => {
            index_bits(*k as usize)
        }
        (AttrReport::Categorical(CategoricalReport::Bits(bits)), AttrSpec::Categorical { .. }) => {
            bits.len() as usize
        }
        _ => panic!("report entry type disagrees with schema"),
    }
}

/// Wire size of a report's entries in the sampled layout: per entry, an
/// attribute index plus the payload — exactly what [`encode_sampled`]
/// emits after its 16-bit header.
///
/// # Panics
/// Panics if the report's dimensionality or entry types disagree with the
/// schema.
pub fn sampled_report_bits(report: &SparseReport, specs: &[AttrSpec]) -> usize {
    assert_eq!(report.d, specs.len(), "schema mismatch");
    let idx = index_bits(report.d);
    report
        .entries
        .iter()
        .map(|(j, rep)| idx + payload_bits(rep, &specs[*j as usize]))
        .sum()
}

/// Wire size of a report in the full layout, from the schema alone: 64
/// bits per numeric attribute, plus `k` bits (unary oracles) or
/// `⌈log₂ k⌉` bits (direct/GRR reports) per categorical attribute. No
/// indices and no header — every attribute is present in schema order —
/// so this is exactly what [`encode_full`] emits.
pub fn full_report_bits(specs: &[AttrSpec], unary: bool) -> usize {
    specs
        .iter()
        .map(|spec| match spec {
            AttrSpec::Numeric => F64_BITS,
            AttrSpec::Categorical { k } if unary => *k as usize,
            AttrSpec::Categorical { k } => index_bits(*k as usize),
        })
        .sum()
}

/// Wire size of a Duchi et al. multidimensional report: one sign bit per
/// coordinate (`B` is public knowledge).
pub fn duchi_md_report_bits(d: usize) -> usize {
    d
}

/// Encodes a report in the sampled layout.
///
/// # Panics
/// Panics if the report's dimensionality disagrees with the schema, or an
/// entry's type disagrees with its attribute spec (reports produced by an
/// encoder on the same schema always agree).
pub fn encode_sampled(report: &SparseReport, specs: &[AttrSpec]) -> Vec<u8> {
    assert_eq!(report.d, specs.len(), "schema mismatch");
    let mut w = BitWriter::new();
    w.write_bits(report.entries.len() as u64, COUNT_BITS);
    let idx_bits = index_bits(report.d);
    for (j, rep) in &report.entries {
        w.write_bits(u64::from(*j), idx_bits);
        write_payload(&mut w, rep, &specs[*j as usize]);
    }
    w.finish()
}

/// Largest sampled-layout report over `specs`, in bits: the header plus
/// an index and a payload for every attribute, since a report samples
/// each attribute at most once.
pub fn max_sampled_report_bits(specs: &[AttrSpec], unary: bool) -> usize {
    COUNT_BITS + specs.len() * index_bits(specs.len()) + full_report_bits(specs, unary)
}

/// Decodes a report in the sampled layout into a fresh [`SparseReport`]
/// (see [`decode_sampled_into`]).
///
/// # Errors
/// As [`decode_sampled_into`].
pub fn decode_sampled(specs: &[AttrSpec], bytes: &[u8], unary: bool) -> Result<SparseReport> {
    let mut report = SparseReport::with_capacity(specs.len(), 0);
    decode_sampled_into(specs, bytes, unary, &mut report)?;
    Ok(report)
}

/// Decodes a report in the sampled layout into `report`, accepting only
/// its canonical length. The report's entry slots are refilled in place,
/// and a unary payload reuses its slot's bit vector when the slot held
/// one. A slot whose attribute switches between numeric and unary is not
/// allocation-free: a numeric payload drops the slot's bit vector, and
/// the next unary payload there allocates a new one. Sampled attributes
/// change from report to report, so a caller that keeps one report still
/// allocates: 1,890–1,925 times over 8,192 BR census reports
/// (Sampling(HM+OUE), ε=1, census seeds 1–3). On error the report is
/// left empty.
///
/// # Errors
/// [`LdpError::InvalidParameter`] on truncated buffers, more entries than
/// attributes, or out-of-range indices; [`LdpError::InvalidCategory`] on
/// out-of-range direct values; [`LdpError::MalformedFrame`] on trailing
/// bytes.
pub fn decode_sampled_into(
    specs: &[AttrSpec],
    bytes: &[u8],
    unary: bool,
    report: &mut SparseReport,
) -> Result<()> {
    let d = specs.len();
    refill(report, d, |entries| {
        let mut r = BitReader::new(bytes);
        let count = r.read_bits(COUNT_BITS)? as usize;
        // Checked before growing the slots: the count is untrusted, and a
        // report samples each attribute at most once.
        if count > d {
            return Err(LdpError::InvalidParameter {
                name: "wire",
                message: format!("report declares {count} entries for {d} attributes"),
            });
        }
        entries.truncate(count);
        let idx_bits = index_bits(d);
        for i in 0..count {
            let j = r.read_bits(idx_bits)? as usize;
            let spec = specs.get(j).ok_or_else(|| LdpError::InvalidParameter {
                name: "wire",
                message: format!("attribute index {j} out of range {d}"),
            })?;
            if i == entries.len() {
                entries.push((0, AttrReport::Numeric(0.0)));
            }
            let (index, slot) = &mut entries[i];
            *index = j as u32;
            read_payload_into(&mut r, spec, unary, slot)?;
        }
        check_canonical(bytes.len(), r.bit.div_ceil(8))
    })
}

/// Encodes a report of all `d` attributes, in schema order, in the full
/// layout.
///
/// # Panics
/// Panics unless the report carries exactly one entry per attribute in
/// schema order, each of its attribute's type (reports produced by an
/// encoder on the same schema always do).
pub fn encode_full(report: &SparseReport, specs: &[AttrSpec]) -> Vec<u8> {
    assert!(
        report.d == specs.len() && report.entries.len() == specs.len(),
        "schema mismatch"
    );
    let mut w = BitWriter::new();
    for numeric_block in [true, false] {
        for (slot, ((j, rep), spec)) in report.entries.iter().zip(specs).enumerate() {
            assert_eq!(*j as usize, slot, "full reports list attributes in order");
            if spec.is_numeric() == numeric_block {
                write_payload(&mut w, rep, spec);
            }
        }
    }
    w.finish()
}

/// Decodes a report in the full layout into a fresh [`SparseReport`] (see
/// [`decode_full_into`]).
///
/// # Errors
/// As [`decode_full_into`].
pub fn decode_full(specs: &[AttrSpec], bytes: &[u8], unary: bool) -> Result<SparseReport> {
    let mut report = SparseReport::with_capacity(specs.len(), specs.len());
    decode_full_into(specs, bytes, unary, &mut report)?;
    Ok(report)
}

/// Decodes a report in the full layout into `report`, accepting only its
/// canonical length. Slots are refilled in place as in
/// [`decode_sampled_into`]; on error the report is left empty.
///
/// # Errors
/// [`LdpError::MalformedFrame`] when the length is not the schema's;
/// [`LdpError::InvalidCategory`] on out-of-range direct values.
pub fn decode_full_into(
    specs: &[AttrSpec],
    bytes: &[u8],
    unary: bool,
    report: &mut SparseReport,
) -> Result<()> {
    refill(report, specs.len(), |entries| {
        check_canonical(bytes.len(), full_report_bits(specs, unary).div_ceil(8))?;
        // The numeric block is whole 64-bit words, so the categorical
        // payloads start on a byte boundary: one reader per block lets a
        // single pass refill the entries in schema order.
        let d_num = specs.iter().filter(|s| s.is_numeric()).count();
        let (numeric, categorical) = bytes.split_at(d_num * F64_BITS / 8);
        let (mut num, mut cat) = (BitReader::new(numeric), BitReader::new(categorical));
        entries.resize_with(specs.len(), || (0, AttrReport::Numeric(0.0)));
        for (j, (spec, (index, slot))) in specs.iter().zip(entries.iter_mut()).enumerate() {
            let r = if spec.is_numeric() {
                &mut num
            } else {
                &mut cat
            };
            *index = j as u32;
            read_payload_into(r, spec, unary, slot)?;
        }
        Ok(())
    })
}

/// Refills `report` as a `d`-attribute report through one layout's
/// `fill`, and empties it if `fill` fails, so a half-read report is never
/// handed on.
fn refill(
    report: &mut SparseReport,
    d: usize,
    fill: impl FnOnce(&mut Vec<(u32, AttrReport)>) -> Result<()>,
) -> Result<()> {
    report.d = d;
    let filled = fill(&mut report.entries);
    if filled.is_err() {
        report.entries.clear();
    }
    filled
}

/// Rejects any length but the canonical one: trailing bytes would let a
/// client smuggle stream junk past the report codec.
fn check_canonical(len: usize, canonical: usize) -> Result<()> {
    if len == canonical {
        Ok(())
    } else {
        Err(LdpError::MalformedFrame {
            message: format!("report has {len} bytes, canonical encoding is {canonical}"),
        })
    }
}

/// Writes one attribute's payload — the one payload writer both layouts
/// share. Forced inline like [`read_payload`]: out of line, full-layout
/// encoding ran ~1.1× slower.
#[inline(always)]
fn write_payload(w: &mut BitWriter, report: &AttrReport, spec: &AttrSpec) {
    match (report, spec) {
        (AttrReport::Numeric(x), AttrSpec::Numeric) => w.write_bits(x.to_bits(), F64_BITS),
        (AttrReport::Categorical(CategoricalReport::Value(v)), AttrSpec::Categorical { k }) => {
            w.write_bits(u64::from(*v), index_bits(*k as usize));
        }
        (AttrReport::Categorical(CategoricalReport::Bits(bits)), AttrSpec::Categorical { k }) => {
            assert_eq!(bits.len(), *k, "bit-vector length mismatch");
            // Word-at-a-time: the stream wants vector bit 0 first, and
            // `write_bits` emits a value's high bit first, so each backing
            // word goes out with its low `width` bits reversed.
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

/// Reads one attribute's payload into `slot` — the one payload reader
/// both layouts share. A unary payload overwrites the slot's bit vector
/// in place when it has one. Forced inline: out of line, returning each
/// entry's `Result<AttrReport>` through memory ran full-layout GRR
/// decoding at ~2.3× the inlined cost (interleaved pairs on 2 vCPUs).
#[inline(always)]
fn read_payload_into(
    r: &mut BitReader<'_>,
    spec: &AttrSpec,
    unary: bool,
    slot: &mut AttrReport,
) -> Result<()> {
    let k = match *spec {
        AttrSpec::Numeric => {
            *slot = AttrReport::Numeric(f64::from_bits(r.read_bits(F64_BITS)?));
            return Ok(());
        }
        AttrSpec::Categorical { k } => k,
    };
    if unary {
        let bits = match slot {
            AttrReport::Categorical(CategoricalReport::Bits(bits)) => bits,
            _ => {
                *slot = AttrReport::Categorical(CategoricalReport::Bits(BitVec::zeros(k)));
                let AttrReport::Categorical(CategoricalReport::Bits(bits)) = slot else {
                    unreachable!("just assigned Bits");
                };
                bits
            }
        };
        // Word-at-a-time inverse of `write_payload`: read up to 64 stream
        // bits and un-reverse them into a backing word. Each read is
        // masked to its width, so no bit lands at or beyond `k`.
        let mut remaining = k;
        for word in bits.refill(k) {
            let width = remaining.min(64);
            *word = r.read_bits(width as usize)?.reverse_bits() >> (64 - width);
            remaining -= width;
        }
    } else {
        let v = r.read_bits(index_bits(k as usize))? as u32;
        if v >= k {
            return Err(LdpError::InvalidCategory { value: v, k });
        }
        *slot = AttrReport::Categorical(CategoricalReport::Value(v));
    }
    Ok(())
}

/// Append-only bit buffer (MSB-first within each byte).
///
/// Word-oriented: pending bits accumulate MSB-aligned in a 64-bit register
/// and flush eight bytes at a time, so a `write_bits` call costs a couple
/// of shifts regardless of width — the old writer paid a bounds-checked
/// byte append *per bit*, which made the sampled encoder the slowest loop
/// in the codec. The emitted byte stream is identical (pinned by the
/// `word_writer_matches_naive_bit_writer` proptest).
///
/// Public so codecs outside this crate (the service's messages, the
/// aggregator's checkpoint state) share the exact wire primitive instead
/// of re-deriving the bit layout.
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

/// Reader matching [`BitWriter`]'s layout. A buffer of at most 16 bytes
/// is loaded once, zero-padded, into one 128-bit word that every read
/// shifts out of. A longer one takes one eight-byte load per read while
/// eight bytes remain from the read position and the bits fit in them,
/// and a zero-padded 16-byte load otherwise.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    bit: usize,
    /// `buf` as one zero-padded most-significant-first word, when it
    /// holds at most 16 bytes (every report of a BR-sized schema).
    small: Option<u128>,
}

impl<'a> BitReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        let small = (buf.len() <= 16).then(|| padded_word(buf));
        BitReader { buf, bit: 0, small }
    }

    /// Reads the next `width` bits, most-significant first.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when fewer than `width` bits
    /// remain.
    #[inline]
    pub fn read_bits(&mut self, width: usize) -> Result<u64> {
        debug_assert!(width <= 64);
        let end = self.bit + width;
        if end > self.buf.len() * 8 {
            return Err(truncated_buffer());
        }
        let value = if width == 0 {
            0
        } else if let Some(word) = self.small {
            // `end <= 128` and `width > 0`, so both shifts are below 128.
            ((word << self.bit) >> (128 - width)) as u64
        } else {
            self.read_long(width)
        };
        self.bit = end;
        Ok(value)
    }

    /// [`BitReader::read_bits`] from a buffer of more than 16 bytes, for
    /// a `width` in `1..=64` that is in bounds.
    #[inline]
    fn read_long(&self, width: usize) -> u64 {
        let (byte, skip) = (self.bit / 8, self.bit % 8);
        if let Some(chunk) = self.buf.get(byte..byte + 8) {
            if skip + width <= 64 {
                let word = u64::from_be_bytes(chunk.try_into().expect("eight bytes"));
                return (word << skip) >> (64 - width);
            }
        }
        // `skip + width <= 71` bits, all inside the next 16 bytes.
        let word = padded_word(&self.buf[byte..self.buf.len().min(byte + 16)]);
        ((word << skip) >> (128 - width)) as u64
    }
}

/// `bytes` (at most 16) as the high bytes of a most-significant-first
/// word, zero-padded.
fn padded_word(bytes: &[u8]) -> u128 {
    let mut word = [0u8; 16];
    word[..bytes.len()].copy_from_slice(bytes);
    u128::from_be_bytes(word)
}

/// The error of a read past the end of a [`BitReader`]'s buffer, built
/// out of line so that [`BitReader::read_bits`] stays small enough to
/// inline.
#[cold]
#[inline(never)]
fn truncated_buffer() -> LdpError {
    LdpError::InvalidParameter {
        name: "wire",
        message: "truncated report buffer".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The sampled encoder as it was before the word-oriented writer: naive
    /// writer, bit-by-bit unary payloads.
    fn encode_sampled_naive(specs: &[AttrSpec], report: &SparseReport) -> Vec<u8> {
        let mut w = NaiveBitWriter::new();
        w.write_bits(report.entries.len() as u64, 16);
        let idx_bits = index_bits(report.d);
        for (j, rep) in &report.entries {
            w.write_bits(u64::from(*j), idx_bits);
            match (rep, &specs[*j as usize]) {
                (AttrReport::Numeric(x), AttrSpec::Numeric) => {
                    w.write_bits(x.to_bits(), 64);
                }
                (
                    AttrReport::Categorical(CategoricalReport::Value(v)),
                    AttrSpec::Categorical { k },
                ) => {
                    w.write_bits(u64::from(*v), index_bits(*k as usize));
                }
                (
                    AttrReport::Categorical(CategoricalReport::Bits(bits)),
                    AttrSpec::Categorical { k },
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
        use crate::multidim::{AttrValue, SamplingPerturber};
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
                let mut report = SparseReport::with_capacity(p.d(), p.k());
                let mut scratch = p.scratch();
                for _ in 0..4 {
                    p.perturb_into(&tuple, &mut rng, &mut report, &mut scratch).unwrap();
                    let fast = encode_sampled(&report, &specs);
                    let naive = encode_sampled_naive(&specs, &report);
                    prop_assert_eq!(&fast, &naive, "word writer diverged from the bit writer");
                    let back = decode_sampled(&specs, &fast, !grr).unwrap();
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

        /// `width` bits of `buf` from bit `at`, one bit at a time; `None`
        /// past the end.
        fn naive_read(buf: &[u8], at: usize, width: usize) -> Option<u64> {
            (at + width <= buf.len() * 8).then(|| {
                (at..at + width).fold(0, |acc, i| {
                    (acc << 1) | u64::from((buf[i / 8] >> (7 - i % 8)) & 1)
                })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Every read, at every position of a buffer on either side of
            /// the 16-byte word, equals a bit-at-a-time read, and a read
            /// past the end is the typed truncation error that leaves the
            /// position where it was.
            #[test]
            fn read_bits_matches_a_naive_bit_reader(
                bytes in prop::collection::vec(0u8..=255, 0..=40),
            ) {
                for at in 0..=bytes.len() * 8 {
                    for width in 0..=64 {
                        let mut r = BitReader { bit: at, ..BitReader::new(&bytes) };
                        let got = r.read_bits(width);
                        prop_assert_eq!(got.clone().ok(), naive_read(&bytes, at, width), "at {} width {}", at, width);
                        match got {
                            Ok(_) => prop_assert_eq!(r.bit, at + width),
                            Err(e) => {
                                let wire = matches!(e, LdpError::InvalidParameter { name: "wire", .. });
                                prop_assert!(wire, "{:?}", e);
                                prop_assert_eq!(r.bit, at);
                            }
                        }
                    }
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
        let spec = AttrSpec::Categorical { k: 27 };
        let value = AttrReport::Categorical(CategoricalReport::Value(3));
        assert_eq!(payload_bits(&value, &spec), 5);
        let bits = AttrReport::Categorical(CategoricalReport::Bits(BitVec::zeros(27)));
        assert_eq!(payload_bits(&bits, &spec), 27);
    }

    #[test]
    fn sparse_beats_composition_when_k_is_small() {
        // d = 16 numeric attributes, k = 1 sample: 4 + 64 bits vs 16·64.
        let sparse = SparseReport {
            d: 16,
            entries: vec![(3, AttrReport::Numeric(1.5))],
        };
        let specs = vec![AttrSpec::Numeric; 16];
        assert_eq!(sampled_report_bits(&sparse, &specs), 4 + 64);
        assert_eq!(full_report_bits(&specs, true), 16 * 64);
        assert!(sampled_report_bits(&sparse, &specs) < full_report_bits(&specs, true));
    }

    #[test]
    fn duchi_is_one_bit_per_dimension() {
        assert_eq!(duchi_md_report_bits(94), 94);
    }

    #[test]
    fn composition_sizes_are_schema_constants() {
        let specs = vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 27 },
            AttrSpec::Categorical { k: 5 },
        ];
        // Unary payloads are k bits; direct payloads ⌈log₂ k⌉.
        assert_eq!(full_report_bits(&specs, true), 64 + 27 + 5);
        assert_eq!(full_report_bits(&specs, false), 64 + 5 + 3);
    }

    #[test]
    fn schema_aware_sizes_charge_log_k_for_direct_reports() {
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
        assert_eq!(sampled_report_bits(&report, &specs), 3 * 2 + 64 + 5 + 5);
        // The accounting matches the codec's emitted size exactly (modulo
        // the 16-bit entry-count header).
        let bytes = encode_sampled(&report, &specs);
        assert_eq!(
            bytes.len(),
            (16 + sampled_report_bits(&report, &specs)).div_ceil(8)
        );
    }

    #[test]
    #[should_panic(expected = "disagrees with schema")]
    fn schema_aware_sizes_reject_type_mismatch() {
        payload_bits(&AttrReport::Numeric(0.0), &AttrSpec::Categorical { k: 4 });
    }

    #[test]
    fn codec_round_trips_mixed_reports() {
        use crate::multidim::{AttrValue, SamplingPerturber};
        use crate::rng::seeded_rng;
        use crate::{Epsilon, NumericKind, OracleKind};
        let specs = vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 5 },
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 13 },
        ];
        let p = SamplingPerturber::with_k(
            Epsilon::new(2.0).unwrap(),
            specs.clone(),
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
            let bytes = encode_sampled(&report, &specs);
            // Size check: header + payload bits, rounded up to bytes.
            let expect_bits = 16 + sampled_report_bits(&report, &specs);
            assert_eq!(bytes.len(), expect_bits.div_ceil(8));
            let back = decode_sampled(&specs, &bytes, true).unwrap();
            assert_eq!(back.d, report.d);
            assert_eq!(back.entries, report.entries);
        }
    }

    #[test]
    fn codec_round_trips_grr_reports() {
        use crate::multidim::{AttrValue, SamplingPerturber};
        use crate::rng::seeded_rng;
        use crate::{Epsilon, NumericKind, OracleKind};
        let specs = vec![
            AttrSpec::Categorical { k: 7 },
            AttrSpec::Categorical { k: 3 },
        ];
        let p = SamplingPerturber::with_k(
            Epsilon::new(1.0).unwrap(),
            specs.clone(),
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
            let bytes = encode_sampled(&report, &specs);
            let back = decode_sampled(&specs, &bytes, false).unwrap();
            assert_eq!(back.entries, report.entries);
        }
    }

    #[test]
    fn decode_rejects_truncated_and_garbage() {
        let specs = [AttrSpec::Numeric, AttrSpec::Numeric];
        // Truncated: claims one entry but has no payload.
        let mut w = BitWriter::new();
        w.write_bits(1, 16);
        let bytes = w.finish();
        assert!(decode_sampled(&specs, &bytes, true).is_err());
        // Complete, but one entry more than the schema has attributes.
        let mut w = BitWriter::new();
        w.write_bits(3, 16);
        for j in [0, 1, 0] {
            w.write_bits(j, 1); // index (1 bit for d = 2)
            w.write_bits(0.5f64.to_bits(), 64);
        }
        assert!(decode_sampled(&specs, &w.finish(), true).is_err());
        // Out-of-range category value.
        let specs = [AttrSpec::Categorical { k: 3 }];
        let mut w = BitWriter::new();
        w.write_bits(1, 16); // one entry
        w.write_bits(0, 1); // index 0 (1 bit for d=1)
        w.write_bits(3, 2); // value 3 ≥ k=3
        assert!(decode_sampled(&specs, &w.finish(), false).is_err());
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
        let mut specs = vec![AttrSpec::Numeric; 16];
        specs[9] = AttrSpec::Categorical { k: 10 };
        // Two indices at 4 bits + 64-bit float + 10-bit OUE vector.
        assert_eq!(sampled_report_bits(&sparse, &specs), 4 + 64 + 4 + 10);
    }
}
