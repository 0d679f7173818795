//! Length-framed wire transport for report streams.
//!
//! The aggregation service absorbs messages from untrusted byte streams
//! (sockets, pipes, files). This module fixes the outermost layer: how a
//! message is delimited and integrity-checked, independently of what the
//! payload means. Every frame is
//!
//! ```text
//! ┌──────────────┬──────────┬──────────────────┬─────────────┐
//! │ len: u32 BE  │ kind: u8 │ checksum: u64 BE │ payload     │
//! │ (payload     │          │ frame_checksum   │ len bytes   │
//! │  bytes)      │          │ (kind, payload)  │             │
//! └──────────────┴──────────┴──────────────────┴─────────────┘
//! ```
//!
//! This is format version [`FORMAT_VERSION`]. Version 1 had the same
//! layout with a byte-serial FNV-1a checksum; [`frame_checksum`] says what
//! replaced it, and [`v1_checksum`] is kept only so a file that version
//! wrote can be recognised and refused rather than read as damage.
//!
//! Three properties the service layer relies on:
//!
//! * **Typed failure, never panic.** Truncation, an oversized length field,
//!   and checksum disagreement each produce [`LdpError::MalformedFrame`]
//!   with a message naming the violation.
//! * **Corruption is detected before interpretation.** The checksum covers
//!   the kind byte and the whole payload, so a bit-flipped frame is rejected
//!   here — payload decoders only ever see bytes the sender actually wrote.
//! * **Clean end-of-stream is not an error.** EOF *between* frames returns
//!   `Ok(None)`; EOF *inside* a frame is a truncation error, because the
//!   sender evidently meant to say more.
//!
//! A corrupted payload leaves the reader synchronized (the length field
//! already consumed the right number of bytes), so a server may count the
//! frame and keep reading. A corrupted *length* field destroys framing —
//! there is no way to know where the next frame starts — which is why the
//! oversize cap exists: it turns the most common desync symptom (an absurd
//! length) into an immediate typed error instead of an attempt to buffer
//! gigabytes.

use crate::error::{IoFault, LdpError, Result};
use std::io::{Read, Write};

/// Hard cap on the payload length a frame may declare, in bytes.
///
/// Far above any legitimate report (the largest schema in the test grid
/// encodes to well under a kilobyte) but small enough that a corrupted
/// length field fails fast instead of allocating unbounded memory.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 24;

/// Size of the fixed frame header: length, kind, checksum.
pub const FRAME_HEADER_BYTES: usize = 4 + 1 + 8;

/// Most payload bytes [`read_frame`] allocates ahead of the bytes that
/// have arrived: a header declaring a large length costs its sender the
/// bytes, not the reader the memory.
const READ_STEP: usize = 64 * 1024;

/// Bytes [`read_frame_capped`] streams at once through its fixed buffer
/// when a payload runs past its cap.
const SKIP_STEP: usize = 8 * 1024;

/// Version of the frame format and of every record layout framed in it.
/// The session `Hello` carries it, and with it every log and checkpoint
/// header; a reader refuses any other version with
/// [`LdpError::UnsupportedVersion`].
pub const FORMAT_VERSION: u16 = 2;

/// Multiplier of one checksum step: odd, so the multiply is a bijection.
const STEP_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The checksum over the kind byte and the payload, read as little-endian
/// `u64` words.
///
/// The kind byte seeds the state, and each word `w` steps it as
/// `h = rotl((h ^ w)·K, 31)` with `K` odd. The last partial word is
/// zero-padded. The payload length is folded in before a final avalanche.
/// Each step is a bijection of the state for a fixed word and of the word
/// for a fixed state, so two payloads of one length and kind that differ
/// in a single word, and any single bit flip, always check differently.
/// One dependent multiply per eight bytes, where the version 1 FNV-1a
/// paid one per byte. Cheap, dependency-free, and plenty to detect
/// corruption: this is an integrity check against accidents and fuzzing,
/// not an authenticator.
pub fn frame_checksum(kind: u8, payload: &[u8]) -> u64 {
    let (words, tail) = payload.split_at(payload.len() - payload.len() % 8);
    finish(fold_words(seed(kind), words), tail, payload.len())
}

/// The checksum state before any payload word.
fn seed(kind: u8) -> u64 {
    0x243F_6A88_85A3_08D3 ^ u64::from(kind)
}

/// One checksum step.
#[inline(always)]
fn step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(STEP_MUL).rotate_left(31)
}

/// Folds `words` (a whole number of little-endian `u64`s) into `h`.
fn fold_words(mut h: u64, words: &[u8]) -> u64 {
    debug_assert_eq!(words.len() % 8, 0);
    for word in words.chunks_exact(8) {
        h = step(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    h
}

/// Folds the zero-padded `tail` (under eight bytes) and the payload
/// length `len` into `h`, then avalanches it.
fn finish(mut h: u64, tail: &[u8], len: usize) -> u64 {
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(word));
    }
    h ^= len as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// The version 1 checksum: 64-bit FNV-1a over the kind byte followed by
/// the payload, with the multiplier version 1 used (`0x1000_0000_01b3`,
/// not FNV's 64-bit prime `0x100_0000_01b3`). Nothing writes it; the
/// durable layer checks a file's first record against it to tell a
/// version 1 file from a damaged one.
pub fn v1_checksum(kind: u8, payload: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in std::iter::once(&kind).chain(payload) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn malformed(message: String) -> LdpError {
    LdpError::MalformedFrame { message }
}

/// Classifies an `std::io::Error` raised during frame `op` into the typed
/// transport errors.
///
/// * `TimedOut` / `WouldBlock` → [`LdpError::Timeout`] — the stream may
///   still be synchronized; the operation just did not complete in time.
/// * `ConnectionReset` / `ConnectionAborted` / `BrokenPipe` /
///   `NotConnected` / `UnexpectedEof` → [`LdpError::ConnectionLost`] — the
///   peer is gone and unacknowledged frames are in an unknown state.
/// * everything else → [`LdpError::MalformedFrame`] — framing cannot be
///   trusted past an unclassified I/O failure.
///
/// `Interrupted` never reaches this function: the frame read and write
/// loops retry it in place, which *is* its mapping.
pub fn io_error(op: &'static str, e: &std::io::Error) -> LdpError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => LdpError::Timeout {
            op,
            cause: IoFault::from_io(e),
        },
        ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::NotConnected
        | ErrorKind::UnexpectedEof => LdpError::ConnectionLost {
            op,
            cause: IoFault::from_io(e),
        },
        _ => malformed(format!("frame {op} failed: {e}")),
    }
}

/// Encode one frame into a fresh byte vector.
///
/// Useful when building a stream in memory (tests, recorded client
/// streams) or when the caller wants to hand a complete frame to a
/// transport in one write.
pub fn frame_to_vec(kind: u8, payload: &[u8]) -> Result<Vec<u8>> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(malformed(format!(
            "refusing to write a {}-byte payload (cap {MAX_FRAME_PAYLOAD})",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.push(kind);
    out.extend_from_slice(&frame_checksum(kind, payload).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Write one frame to `w`.
///
/// Transport failures surface as typed errors via [`io_error`]: timeouts
/// as [`LdpError::Timeout`], peer loss as [`LdpError::ConnectionLost`],
/// anything unclassified as [`LdpError::MalformedFrame`] — the error type
/// stays `Clone + PartialEq`, which the rest of the crate relies on.
/// `Interrupted` is retried by `write_all` itself.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, kind: u8, payload: &[u8]) -> Result<()> {
    let bytes = frame_to_vec(kind, payload)?;
    w.write_all(&bytes).map_err(|e| io_error("write", &e))
}

/// Outcome of reading one complete frame — see [`read_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRead {
    /// Checksum verified: the scratch buffer holds the payload the sender
    /// wrote, and `kind` is its kind byte.
    Valid {
        /// The frame's kind byte.
        kind: u8,
    },
    /// The frame's declared length consumed cleanly but the checksum
    /// disagrees with the content: the payload must be discarded, yet the
    /// reader is still positioned at the next frame boundary, so a server
    /// may count the corruption and keep reading.
    Corrupt {
        /// Checksum the frame header declared.
        declared: u64,
        /// Checksum computed over the received kind byte and payload.
        computed: u64,
    },
}

/// Read one frame from `r` into `payload`.
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary) and [`FrameRead::Corrupt`] on a checksum mismatch (frame
/// consumed, reader synchronized, payload poison). Every irregularity that
/// loses framing is a typed error: EOF inside a frame and a length above
/// [`MAX_FRAME_PAYLOAD`] are [`LdpError::MalformedFrame`], while I/O
/// failures classify through [`io_error`] (timeouts as
/// [`LdpError::Timeout`], peer loss as [`LdpError::ConnectionLost`],
/// anything else as [`LdpError::MalformedFrame`]) — after any of them the
/// stream cannot be trusted to contain further frame boundaries.
/// `payload` is reused as scratch
/// space so a serve loop reading millions of frames performs no per-frame
/// allocation once the buffer has grown to the stream's largest payload.
/// It grows in steps of at most 64 KiB as payload bytes arrive, never to
/// the declared length up front, so a payload below one step takes a
/// single read.
pub fn read_frame<R: Read + ?Sized>(r: &mut R, payload: &mut Vec<u8>) -> Result<Option<FrameRead>> {
    read_frame_capped(r, payload, |_| MAX_FRAME_PAYLOAD).map(|read| read.map(|(read, _)| read))
}

/// [`read_frame`], keeping at most `cap(kind)` payload bytes. A longer
/// payload is still consumed and checksummed in full, streamed through a
/// fixed buffer, so the outcome and the reader's position are exactly
/// [`read_frame`]'s; but `payload` holds only the first `cap(kind)` bytes
/// and never grows past them. Returns the outcome with the payload length
/// the frame declared: a `payload` shorter than that is only a prefix. A
/// cap one byte past a kind's longest valid payload keeps every prefix
/// too long to pass for a whole one.
///
/// # Errors
/// As [`read_frame`].
pub fn read_frame_capped<R: Read + ?Sized>(
    r: &mut R,
    payload: &mut Vec<u8>,
    cap: impl FnOnce(u8) -> usize,
) -> Result<Option<(FrameRead, usize)>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    match read_full(r, &mut header)? {
        0 => return Ok(None),
        n if n < FRAME_HEADER_BYTES => return Err(truncated_header(n)),
        _ => {}
    }
    let (len, kind, declared) = parse_header(&header)?;
    let keep = len.min(cap(kind));
    payload.clear();
    while payload.len() < keep {
        let start = payload.len();
        payload.resize(keep.min(start + READ_STEP), 0);
        let got = start + read_full(r, &mut payload[start..])?;
        if got < payload.len() {
            return Err(truncated_payload(got, len));
        }
    }
    let computed = if keep < len {
        checksum_rest(r, kind, payload, len)?
    } else {
        frame_checksum(kind, payload)
    };
    Ok(Some((outcome(kind, declared, computed), len)))
}

/// [`frame_checksum`] of a `len`-byte payload of which `kept` has been
/// read: reads the rest through a fixed buffer, carrying each partial
/// word into the next read. Never inlined: its 8 KiB buffer would put a
/// stack probe on every frame read.
#[cold]
#[inline(never)]
fn checksum_rest<R: Read + ?Sized>(r: &mut R, kind: u8, kept: &[u8], len: usize) -> Result<u64> {
    let (words, tail) = kept.split_at(kept.len() - kept.len() % 8);
    let mut h = fold_words(seed(kind), words);
    let mut buf = [0u8; SKIP_STEP];
    buf[..tail.len()].copy_from_slice(tail);
    let (mut carried, mut done) = (tail.len(), kept.len());
    while done < len {
        let chunk = &mut buf[carried..SKIP_STEP.min(carried + len - done)];
        let got = read_full(r, chunk)?;
        done += got;
        if got < chunk.len() {
            return Err(truncated_payload(done, len));
        }
        let filled = carried + got;
        carried = filled % 8;
        h = fold_words(h, &buf[..filled - carried]);
        buf.copy_within(filled - carried..filled, 0);
    }
    Ok(finish(h, &buf[..carried], len))
}

/// [`read_frame`] over an in-memory buffer, without copying: reads the
/// frame at the front of `buf`, advances `buf` past it, and returns the
/// payload borrowed from the buffer. Outcomes and errors are exactly
/// [`read_frame`]'s on a reader over `buf`.
///
/// # Errors
/// As [`read_frame`]: [`LdpError::MalformedFrame`] on a truncated frame or
/// an oversized length; `buf` is left where it was.
pub fn split_frame<'a>(buf: &mut &'a [u8]) -> Result<Option<(FrameRead, &'a [u8])>> {
    if buf.is_empty() {
        return Ok(None);
    }
    let Some((header, rest)) = buf.split_first_chunk::<FRAME_HEADER_BYTES>() else {
        return Err(truncated_header(buf.len()));
    };
    let (len, kind, declared) = parse_header(header)?;
    if rest.len() < len {
        return Err(truncated_payload(rest.len(), len));
    }
    let (payload, rest) = rest.split_at(len);
    *buf = rest;
    let computed = frame_checksum(kind, payload);
    Ok(Some((outcome(kind, declared, computed), payload)))
}

/// A frame header's `(payload length, kind, declared checksum)`.
fn parse_header(header: &[u8; FRAME_HEADER_BYTES]) -> Result<(usize, u8, u64)> {
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let kind = header[4];
    let declared = u64::from_be_bytes(header[5..13].try_into().expect("8-byte slice"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(malformed(format!(
            "oversized frame: declared payload of {len} bytes exceeds the cap of \
             {MAX_FRAME_PAYLOAD}"
        )));
    }
    Ok((len, kind, declared))
}

/// A frame's outcome from its declared and computed checksums.
fn outcome(kind: u8, declared: u64, computed: u64) -> FrameRead {
    if computed == declared {
        FrameRead::Valid { kind }
    } else {
        FrameRead::Corrupt { declared, computed }
    }
}

fn truncated_header(got: usize) -> LdpError {
    malformed(format!(
        "truncated frame header: got {got} of {FRAME_HEADER_BYTES} bytes"
    ))
}

fn truncated_payload(got: usize, len: usize) -> LdpError {
    malformed(format!("truncated frame payload: got {got} of {len} bytes"))
}

/// Fill `buf` from `r`, returning how many bytes were read before EOF.
fn read_full<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error("read", &e)),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_frame() {
        let payload = b"twenty-three bytes of payload".to_vec();
        let bytes = frame_to_vec(7, &payload).unwrap();
        assert_eq!(bytes.len(), FRAME_HEADER_BYTES + payload.len());

        let mut reader = bytes.as_slice();
        let mut scratch = Vec::new();
        let kind = read_frame(&mut reader, &mut scratch).unwrap();
        assert_eq!(kind, Some(FrameRead::Valid { kind: 7 }));
        assert_eq!(scratch, payload);
        // Stream exhausted cleanly.
        assert_eq!(read_frame(&mut reader, &mut scratch).unwrap(), None);
    }

    #[test]
    fn round_trips_an_empty_payload() {
        let bytes = frame_to_vec(0, &[]).unwrap();
        let mut reader = bytes.as_slice();
        let mut scratch = vec![1, 2, 3];
        assert_eq!(
            read_frame(&mut reader, &mut scratch).unwrap(),
            Some(FrameRead::Valid { kind: 0 })
        );
        assert!(scratch.is_empty());
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = frame_to_vec(3, b"payload").unwrap();
        for cut in 1..bytes.len() {
            let mut reader = &bytes[..cut];
            let mut scratch = Vec::new();
            let err = read_frame(&mut reader, &mut scratch).unwrap_err();
            assert!(
                matches!(err, LdpError::MalformedFrame { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = frame_to_vec(3, b"sensitive report bytes").unwrap();
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let mut reader = corrupt.as_slice();
            let mut scratch = Vec::new();
            let got = read_frame(&mut reader, &mut scratch);
            // A flip is never mistaken for a valid frame: either the
            // checksum catches it (kind/checksum/payload flips) or the
            // length field no longer matches the stream (typed error).
            assert!(
                !matches!(got, Ok(Some(FrameRead::Valid { .. }))),
                "flip of bit {bit} gave {got:?}"
            );
        }
    }

    #[test]
    fn payload_corruption_keeps_the_reader_synchronized() {
        let mut stream = frame_to_vec(1, b"first payload").unwrap();
        let tail = frame_to_vec(2, b"second payload").unwrap();
        let flip_at = FRAME_HEADER_BYTES + 3;
        stream[flip_at] ^= 0x40;
        stream.extend_from_slice(&tail);

        let mut reader = stream.as_slice();
        let mut scratch = Vec::new();
        assert!(matches!(
            read_frame(&mut reader, &mut scratch).unwrap(),
            Some(FrameRead::Corrupt { .. })
        ));
        // The corrupt frame consumed exactly its declared bytes, so the
        // next frame still parses.
        assert_eq!(
            read_frame(&mut reader, &mut scratch).unwrap(),
            Some(FrameRead::Valid { kind: 2 })
        );
        assert_eq!(scratch, b"second payload");
        assert_eq!(read_frame(&mut reader, &mut scratch).unwrap(), None);
    }

    #[test]
    fn oversized_length_is_rejected_without_reading_the_payload() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&0u64.to_be_bytes());
        let mut reader = bytes.as_slice();
        let mut scratch = Vec::new();
        let err = read_frame(&mut reader, &mut scratch).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("oversized"), "{msg}");
    }

    #[test]
    fn a_bare_max_length_header_pins_at_most_one_step() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32).to_be_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&0u64.to_be_bytes());
        let mut reader = bytes.as_slice();
        let mut scratch = Vec::new();
        let err = read_frame(&mut reader, &mut scratch).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, LdpError::MalformedFrame { .. }), "{err:?}");
        assert!(
            msg.contains(&format!(
                "truncated frame payload: got 0 of {MAX_FRAME_PAYLOAD} bytes"
            )),
            "{msg}"
        );
        assert!(
            scratch.capacity() <= READ_STEP,
            "13 header bytes pinned {} bytes of scratch",
            scratch.capacity()
        );
    }

    #[test]
    fn payloads_round_trip_across_read_steps() {
        /// Counts `read` calls on the inner reader.
        struct Counting<'a> {
            inner: &'a [u8],
            reads: usize,
        }
        impl Read for Counting<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.reads += 1;
                self.inner.read(out)
            }
        }

        for len in [READ_STEP - 1, READ_STEP, 3 * READ_STEP + 17] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let bytes = frame_to_vec(5, &payload).unwrap();
            let mut reader = Counting {
                inner: &bytes,
                reads: 0,
            };
            let mut scratch = Vec::new();
            assert_eq!(
                read_frame(&mut reader, &mut scratch).unwrap(),
                Some(FrameRead::Valid { kind: 5 }),
                "len {len}"
            );
            assert_eq!(scratch, payload, "len {len}");
            // One read for the header, then one per started step.
            assert_eq!(reader.reads, 1 + len.div_ceil(READ_STEP), "len {len}");
        }

        // A torn payload past the first step still reports its true count.
        let bytes = frame_to_vec(5, &vec![7u8; 2 * READ_STEP]).unwrap();
        let mut reader = &bytes[..FRAME_HEADER_BYTES + READ_STEP + 3];
        let err = read_frame(&mut reader, &mut Vec::new()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("got {} of {} bytes", READ_STEP + 3, 2 * READ_STEP)),
            "{msg}"
        );
    }

    #[test]
    fn a_capped_read_keeps_the_cap_and_the_full_read_outcome() {
        let cap = 40;
        let mut payload: Vec<u8> = (0..MAX_FRAME_PAYLOAD).map(|i| (i % 253) as u8).collect();
        let mut frames = vec![frame_to_vec(6, &payload).unwrap()];
        // The same frame with one byte past the cap flipped.
        payload[MAX_FRAME_PAYLOAD / 2] ^= 0x10;
        let mut corrupt = frame_to_vec(6, &payload).unwrap();
        corrupt[5..FRAME_HEADER_BYTES].copy_from_slice(&frames[0][5..FRAME_HEADER_BYTES]);
        frames.push(corrupt);
        drop(payload);
        for bytes in &frames {
            let mut reader = &bytes[..];
            let mut kept = Vec::new();
            let (read, len) = read_frame_capped(&mut reader, &mut kept, |kind| {
                assert_eq!(kind, 6);
                cap
            })
            .unwrap()
            .unwrap();
            assert!(reader.is_empty(), "the whole frame is consumed");
            assert_eq!(len, MAX_FRAME_PAYLOAD);
            assert_eq!(kept, bytes[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + cap]);
            assert_eq!(kept.capacity(), cap, "the buffer grew past its cap");
            let mut full = Vec::new();
            assert_eq!(Some(read), read_frame(&mut &bytes[..], &mut full).unwrap());
            assert_eq!(full.len(), MAX_FRAME_PAYLOAD);
        }
        // A stream that ends past the cap is the truncation a full read
        // reports, counting every byte received.
        let torn = &frames[0][..FRAME_HEADER_BYTES + SKIP_STEP + cap + 3];
        let err = read_frame_capped(&mut &torn[..], &mut Vec::new(), |_| cap).unwrap_err();
        assert_eq!(
            err,
            read_frame(&mut &torn[..], &mut Vec::new()).unwrap_err()
        );
    }

    #[test]
    fn refuses_to_write_an_oversized_payload() {
        let payload = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        assert!(matches!(
            frame_to_vec(0, &payload),
            Err(LdpError::MalformedFrame { .. })
        ));
    }

    #[test]
    fn checksum_covers_the_kind_byte() {
        let a = frame_checksum(1, b"same payload");
        let b = frame_checksum(2, b"same payload");
        assert_ne!(a, b);
    }

    /// `len` bytes of a fixed pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn checksum_values_are_pinned() {
        // Format version 2: any change to these values is a format change.
        let golden: [(u8, usize, u64); 18] = [
            (2, 0, 0x79f5_8170_1035_c5fd),
            (2, 1, 0x465c_e51f_02cb_d969),
            (2, 7, 0x0211_9122_e128_68b1),
            (2, 8, 0x18eb_b85a_d852_ee56),
            (2, 9, 0x0578_bd6c_7604_3c80),
            (2, 31, 0x082b_d010_7e22_cec7),
            (2, 32, 0x53f7_d89e_cfdc_a074),
            (2, 33, 0x920d_3de7_dc48_50a1),
            (2, 4096, 0xec8d_4e95_15f6_2ea1),
            (10, 0, 0x798a_5ce0_b8d6_18ad),
            (10, 1, 0x3e8a_9de3_3f74_4828),
            (10, 7, 0x2e24_3330_ffeb_b229),
            (10, 8, 0xa076_b56f_f9a0_10df),
            (10, 9, 0x73d9_0dd7_6e70_d844),
            (10, 31, 0x50c8_d457_3110_057d),
            (10, 32, 0xc366_141d_3a7b_6ef2),
            (10, 33, 0xeacc_54f3_3a76_9732),
            (10, 4096, 0x2f18_a282_9b09_1f49),
        ];
        let got: Vec<(u8, usize, u64)> = golden
            .iter()
            .map(|&(kind, len, _)| (kind, len, frame_checksum(kind, &pattern(len))))
            .collect();
        assert_eq!(got, golden);
    }

    #[test]
    fn a_zero_padded_tail_still_counts_its_length() {
        for len in 0..17 {
            let payload = vec![0u8; len];
            assert_ne!(
                frame_checksum(4, &payload),
                frame_checksum(4, &[payload.as_slice(), &[0]].concat()),
                "len {len}"
            );
        }
    }

    #[test]
    fn the_version_1_checksum_is_pinned() {
        // Values version 1's `frame_checksum` gave.
        assert_eq!(v1_checksum(b'a', b""), 0xaf74_d84c_8601_ec8c);
        assert_eq!(v1_checksum(2, &pattern(33)), 0xa776_83f7_6be9_fe4a);
    }

    #[test]
    fn every_cap_streams_the_tail_to_the_one_shot_checksum() {
        for len in [100, 2 * SKIP_STEP + 13] {
            let payload = pattern(len);
            let mut corrupt = frame_to_vec(3, &payload).unwrap();
            corrupt[FRAME_HEADER_BYTES + len - 1] ^= 0x08;
            let frames = [frame_to_vec(3, &payload).unwrap(), corrupt];
            let caps: Vec<usize> = if len == 100 {
                (0..len).collect()
            } else {
                (0..20).chain([SKIP_STEP - 3, SKIP_STEP + 5]).collect()
            };
            for bytes in &frames {
                let full = read_frame(&mut &bytes[..], &mut Vec::new()).unwrap();
                for &cap in &caps {
                    let mut kept = Vec::new();
                    let (read, declared) = read_frame_capped(&mut &bytes[..], &mut kept, |_| cap)
                        .unwrap()
                        .unwrap();
                    assert_eq!((Some(read), declared), (full, len), "len {len} cap {cap}");
                    assert_eq!(kept, bytes[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + cap]);
                }
            }
        }
    }

    /// A reader scripted to fail with one io::ErrorKind per call (after
    /// optionally yielding a few real bytes first).
    struct FailingReader {
        data: Vec<u8>,
        pos: usize,
        kinds: Vec<std::io::ErrorKind>,
    }

    impl Read for FailingReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos < self.data.len() {
                let n = (self.data.len() - self.pos).min(out.len());
                out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                return Ok(n);
            }
            match self.kinds.pop() {
                Some(kind) => Err(std::io::Error::new(kind, "scripted fault")),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn timed_out_and_would_block_map_to_typed_timeout() {
        for kind in [std::io::ErrorKind::TimedOut, std::io::ErrorKind::WouldBlock] {
            let mut reader = FailingReader {
                data: Vec::new(),
                pos: 0,
                kinds: vec![kind],
            };
            let mut scratch = Vec::new();
            let err = read_frame(&mut reader, &mut scratch).unwrap_err();
            assert!(
                matches!(err, LdpError::Timeout { op: "read", .. }),
                "{kind:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn peer_loss_kinds_map_to_connection_lost() {
        for kind in [
            std::io::ErrorKind::ConnectionReset,
            std::io::ErrorKind::ConnectionAborted,
            std::io::ErrorKind::BrokenPipe,
            std::io::ErrorKind::UnexpectedEof,
        ] {
            let mut reader = FailingReader {
                data: frame_to_vec(1, b"partial").unwrap()[..6].to_vec(),
                pos: 0,
                kinds: vec![kind],
            };
            let mut scratch = Vec::new();
            let err = read_frame(&mut reader, &mut scratch).unwrap_err();
            assert!(
                matches!(err, LdpError::ConnectionLost { op: "read", .. }),
                "{kind:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn interrupted_reads_are_retried_to_a_valid_frame() {
        // Interrupted between every delivered byte: the read loop absorbs
        // them all and the frame still parses.
        struct Interrupting {
            data: Vec<u8>,
            pos: usize,
            interrupt_next: bool,
        }
        impl Read for Interrupting {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.interrupt_next {
                    self.interrupt_next = false;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "signal",
                    ));
                }
                self.interrupt_next = true;
                if self.pos == self.data.len() {
                    return Ok(0);
                }
                out[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut reader = Interrupting {
            data: frame_to_vec(9, b"survives signals").unwrap(),
            pos: 0,
            interrupt_next: true,
        };
        let mut scratch = Vec::new();
        assert_eq!(
            read_frame(&mut reader, &mut scratch).unwrap(),
            Some(FrameRead::Valid { kind: 9 })
        );
        assert_eq!(scratch, b"survives signals");
    }

    #[test]
    fn write_side_peer_loss_is_typed() {
        struct BrokenWriter;
        impl Write for BrokenWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "peer closed",
                ))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame(&mut BrokenWriter, 1, b"doomed").unwrap_err();
        assert!(
            matches!(err, LdpError::ConnectionLost { op: "write", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut stream = Vec::new();
        for kind in 0..5u8 {
            let payload = vec![kind; kind as usize * 3];
            stream.extend_from_slice(&frame_to_vec(kind, &payload).unwrap());
        }
        let mut reader = stream.as_slice();
        let mut scratch = Vec::new();
        for kind in 0..5u8 {
            assert_eq!(
                read_frame(&mut reader, &mut scratch).unwrap(),
                Some(FrameRead::Valid { kind })
            );
            assert_eq!(scratch, vec![kind; kind as usize * 3]);
        }
        assert_eq!(read_frame(&mut reader, &mut scratch).unwrap(), None);
    }

    #[test]
    fn split_frame_agrees_with_read_frame_on_every_prefix_and_flip() {
        let mut stream = frame_to_vec(1, b"first payload").unwrap();
        stream.extend_from_slice(&frame_to_vec(2, b"").unwrap());
        stream.extend_from_slice(&frame_to_vec(3, b"third").unwrap());
        let mut images: Vec<Vec<u8>> = (0..=stream.len())
            .map(|cut| stream[..cut].to_vec())
            .collect();
        for bit in 0..stream.len() * 8 {
            let mut flipped = stream.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            images.push(flipped);
        }
        for image in &images {
            let (mut reader, mut rest, mut scratch) =
                (image.as_slice(), image.as_slice(), Vec::new());
            loop {
                let read = read_frame(&mut reader, &mut scratch);
                let split = split_frame(&mut rest);
                match (read, split) {
                    (Ok(Some(a)), Ok(Some((b, payload)))) => {
                        assert_eq!(a, b);
                        assert_eq!(scratch, payload);
                        assert_eq!(reader, rest);
                    }
                    (Ok(None), Ok(None)) => break,
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b);
                        break;
                    }
                    (a, b) => panic!("read_frame gave {a:?}, split_frame {b:?}"),
                }
            }
        }
    }
}
