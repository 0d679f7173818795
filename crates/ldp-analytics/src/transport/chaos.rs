//! Deterministic fault injection for transport tests.
//!
//! [`ChaosStream`] wraps any `Read + Write` stream and, following a seeded
//! schedule, injects the faults a real network serves up: mid-frame
//! disconnects, short reads/writes, single-bit corruption, and stalls.
//! Because the schedule is a pure function of the seed, a failing chaos
//! run replays exactly — `(seed, fault trace)` is a complete bug report.
//!
//! [`duplex`] builds the in-process socket pair the chaos suite runs over:
//! two [`PipeStream`] halves connected by byte channels, with genuine
//! EOF-on-drop and broken-pipe semantics but no OS socket dependency.
//! [`ScriptedStream`] is the one-shot alternative: a recorded client
//! stream served on the calling thread, responses collected in memory.

use std::io::{self, Read, Write};
use std::sync::mpsc;

use ldp_core::rng::{sample_weighted, seeded_rng, uniform};
use rand::rngs::StdRng;
use rand::Rng;

/// Relative likelihoods of each fault kind, applied when a fault fires.
///
/// Weights are relative (they need not sum to 1); a zero weight disables
/// that fault kind entirely.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Probability in `[0, 1]` that any single `read`/`write` call faults.
    pub fault_rate: f64,
    /// Weight of mid-operation disconnects (the stream dies permanently,
    /// possibly after delivering a partial chunk — a mid-frame cut).
    pub disconnect: f64,
    /// Weight of single-bit corruption in the bytes that do pass.
    pub bit_flip: f64,
    /// Weight of short operations (1-byte reads/writes that exercise the
    /// frame layer's partial-I/O loops).
    pub short_op: f64,
    /// Weight of stalls surfaced as `io::ErrorKind::TimedOut`.
    pub stall: f64,
}

impl ChaosConfig {
    /// All four fault kinds, equally weighted, at `fault_rate`.
    pub fn balanced(fault_rate: f64) -> Self {
        ChaosConfig {
            fault_rate,
            disconnect: 1.0,
            bit_flip: 1.0,
            short_op: 1.0,
            stall: 1.0,
        }
    }

    /// Disconnects only — the reconnect-and-replay stress profile.
    pub fn disconnect_only(fault_rate: f64) -> Self {
        ChaosConfig {
            fault_rate,
            disconnect: 1.0,
            bit_flip: 0.0,
            short_op: 0.0,
            stall: 0.0,
        }
    }

    fn weights(&self) -> [f64; 4] {
        [self.disconnect, self.bit_flip, self.short_op, self.stall]
    }
}

/// How many faults of each kind a [`ChaosStream`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Permanent disconnects injected (at most one per stream).
    pub disconnects: u64,
    /// Single-bit corruptions injected.
    pub bit_flips: u64,
    /// Short reads/writes injected.
    pub short_ops: u64,
    /// Timed-out operations injected.
    pub stalls: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.disconnects + self.bit_flips + self.short_ops + self.stalls
    }
}

/// A `Read + Write` wrapper that injects a seeded schedule of faults.
///
/// After an injected disconnect the stream is dead: every further
/// operation fails with `io::ErrorKind::ConnectionReset` (reads) or
/// `BrokenPipe` (writes), exactly like an OS socket whose peer vanished.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    config: ChaosConfig,
    rng: StdRng,
    dead: bool,
    counts: FaultCounts,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner`, drawing the fault schedule from `seed`.
    pub fn new(inner: S, config: ChaosConfig, seed: u64) -> Self {
        ChaosStream {
            inner,
            config,
            rng: seeded_rng(seed),
            dead: false,
            counts: FaultCounts::default(),
        }
    }

    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// True once an injected disconnect has killed the stream.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Draws whether this operation faults, and which kind if so.
    fn draw_fault(&mut self) -> Option<usize> {
        if uniform(&mut self.rng, 0.0, 1.0) >= self.config.fault_rate {
            return None;
        }
        let weights = self.config.weights();
        if weights.iter().all(|&w| w <= 0.0) {
            return None;
        }
        Some(sample_weighted(&mut self.rng, &weights))
    }

    fn dead_read_error() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos: connection dropped")
    }

    fn dead_write_error() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "chaos: connection dropped")
    }

    fn stall_error() -> io::Error {
        io::Error::new(io::ErrorKind::TimedOut, "chaos: operation stalled")
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(Self::dead_read_error());
        }
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        match self.draw_fault() {
            Some(0) => {
                // Mid-frame disconnect: half the time one byte still
                // arrives before the cut, so readers die *inside* a frame,
                // not conveniently at its boundary.
                self.counts.disconnects += 1;
                self.dead = true;
                if self.rng.random::<bool>() {
                    let n = self.inner.read(&mut buf[..1])?;
                    if n > 0 {
                        return Ok(n);
                    }
                }
                Err(Self::dead_read_error())
            }
            Some(1) => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    self.counts.bit_flips += 1;
                    let bit = self.rng.random::<u64>() as usize % (n * 8);
                    buf[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(n)
            }
            Some(2) => {
                self.counts.short_ops += 1;
                self.inner.read(&mut buf[..1])
            }
            Some(3) => {
                self.counts.stalls += 1;
                Err(Self::stall_error())
            }
            _ => self.inner.read(buf),
        }
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(Self::dead_write_error());
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        match self.draw_fault() {
            Some(0) => {
                // Mid-frame disconnect on the write side: the peer may
                // have received a partial frame it can never complete.
                self.counts.disconnects += 1;
                self.dead = true;
                if self.rng.random::<bool>() {
                    let n = self.inner.write(&buf[..1])?;
                    if n > 0 {
                        return Ok(n);
                    }
                }
                Err(Self::dead_write_error())
            }
            Some(1) => {
                self.counts.bit_flips += 1;
                let mut corrupted = buf.to_vec();
                let bit = self.rng.random::<u64>() as usize % (corrupted.len() * 8);
                corrupted[bit / 8] ^= 1 << (bit % 8);
                let n = self.inner.write(&corrupted)?;
                Ok(n)
            }
            Some(2) => {
                self.counts.short_ops += 1;
                self.inner.write(&buf[..1])
            }
            Some(3) => {
                self.counts.stalls += 1;
                Err(Self::stall_error())
            }
            _ => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(Self::dead_write_error());
        }
        self.inner.flush()
    }
}

/// One half of an in-process byte-stream pair — see [`duplex`].
#[derive(Debug)]
pub struct PipeStream {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    pending: Vec<u8>,
    pos: usize,
    read_timeout: Option<std::time::Duration>,
}

impl PipeStream {
    /// Bounds how long a read blocks for new bytes, mirroring
    /// `TcpStream::set_read_timeout`: an expired wait fails with
    /// `io::ErrorKind::TimedOut`.
    ///
    /// Chaos harnesses must set this on the *server* half: a corrupted
    /// length header can promise megabytes that never arrive, and with
    /// both ends blocking (reader on the phantom payload, peer on the
    /// response) only a timeout — exactly like a socket's — breaks the
    /// deadlock.
    pub fn set_read_timeout(&mut self, timeout: Option<std::time::Duration>) {
        self.read_timeout = timeout;
    }
}

/// Builds a connected pair of in-process streams.
///
/// Bytes written to one half are read from the other. Dropping a half
/// gives the peer's reads end-of-stream (after drained bytes) and its
/// writes `io::ErrorKind::BrokenPipe` — the semantics transport code must
/// survive, without touching OS sockets.
pub fn duplex() -> (PipeStream, PipeStream) {
    let (a_tx, b_rx) = mpsc::channel();
    let (b_tx, a_rx) = mpsc::channel();
    let a = PipeStream {
        tx: a_tx,
        rx: a_rx,
        pending: Vec::new(),
        pos: 0,
        read_timeout: None,
    };
    let b = PipeStream {
        tx: b_tx,
        rx: b_rx,
        pending: Vec::new(),
        pos: 0,
        read_timeout: None,
    };
    (a, b)
}

impl Read for PipeStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        while self.pos >= self.pending.len() {
            let chunk = match self.read_timeout {
                None => self.rx.recv().map_err(|_| ()),
                Some(timeout) => match self.rx.recv_timeout(timeout) {
                    Ok(chunk) => Ok(chunk),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "pipe read timed out",
                        ));
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => Err(()),
                },
            };
            match chunk {
                Ok(chunk) => {
                    self.pending = chunk;
                    self.pos = 0;
                }
                // Writer gone and buffer drained: clean end of stream.
                Err(()) => return Ok(0),
            }
        }
        let n = (self.pending.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for PipeStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A recorded client connection: reads drain a fixed request buffer and
/// then hit end of stream; writes append to an in-memory response buffer.
///
/// Lets [`ConnHandle::serve_stream`](super::ConnHandle::serve_stream) serve
/// a pre-built byte stream on the calling thread — including one that
/// ends without `Shutdown` or inside a frame, which a [`duplex`] pair can
/// only signal by dropping the half the responses are written to.
#[derive(Debug)]
pub struct ScriptedStream<'a> {
    requests: &'a [u8],
    responses: Vec<u8>,
}

impl<'a> ScriptedStream<'a> {
    /// A connection whose client sends exactly `requests`, then hangs up.
    pub fn new(requests: &'a [u8]) -> Self {
        ScriptedStream {
            requests,
            responses: Vec::new(),
        }
    }

    /// Every response frame written so far, in order.
    pub fn responses(&self) -> &[u8] {
        &self.responses
    }
}

impl Read for ScriptedStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.requests.read(buf)
    }
}

impl Write for ScriptedStream<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.responses.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn duplex_round_trips_and_signals_eof_and_broken_pipe() {
        let (mut a, mut b) = duplex();
        a.write_all(b"hello transport").unwrap();
        let mut buf = [0u8; 15];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello transport");

        // Partial reads drain the buffered chunk across calls.
        a.write_all(&[1, 2, 3, 4]).unwrap();
        let mut two = [0u8; 2];
        b.read_exact(&mut two).unwrap();
        assert_eq!(two, [1, 2]);

        drop(a);
        // Drained bytes still arrive, then clean EOF.
        b.read_exact(&mut two).unwrap();
        assert_eq!(two, [3, 4]);
        assert_eq!(b.read(&mut two).unwrap(), 0, "EOF after peer drop");
        assert_eq!(b.write(&[9]).unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn chaos_schedule_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let data = vec![0xABu8; 4096];
            let mut stream = ChaosStream::new(&data[..], ChaosConfig::balanced(0.3), seed);
            let mut out = Vec::new();
            let mut buf = [0u8; 64];
            let mut errors = Vec::new();
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => out.extend_from_slice(&buf[..n]),
                    Err(e) => {
                        errors.push(e.kind());
                        if stream.is_dead() {
                            break;
                        }
                    }
                }
            }
            (out, errors, stream.counts())
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        assert_ne!(run(42), run(43), "different seeds must differ");
    }

    #[test]
    fn dead_stream_stays_dead() {
        let data = vec![0u8; 1 << 16];
        let mut stream =
            ChaosStream::new(io::Cursor::new(data), ChaosConfig::disconnect_only(1.0), 7);
        let mut buf = [0u8; 8];
        // fault_rate 1.0, disconnect-only: dies within the first reads.
        let mut saw_error = false;
        for _ in 0..4 {
            if stream.read(&mut buf).is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error && stream.is_dead());
        assert_eq!(
            stream.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert_eq!(
            stream.write(&[1]).unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert_eq!(stream.counts().disconnects, 1, "one disconnect, then dead");
    }

    #[test]
    fn zero_fault_rate_is_a_transparent_wrapper() {
        let (a, mut b) = duplex();
        let mut chaotic = ChaosStream::new(a, ChaosConfig::balanced(0.0), 99);
        chaotic.write_all(b"untouched").unwrap();
        drop(chaotic);
        let mut out = Vec::new();
        b.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"untouched");
    }

    #[test]
    fn bit_flips_corrupt_exactly_one_bit() {
        let data = vec![0u8; 256];
        let cfg = ChaosConfig {
            fault_rate: 1.0,
            disconnect: 0.0,
            bit_flip: 1.0,
            short_op: 0.0,
            stall: 0.0,
        };
        let mut stream = ChaosStream::new(&data[..], cfg, 5);
        let mut buf = [0u8; 256];
        let n = stream.read(&mut buf).unwrap();
        let flipped: u32 = buf[..n].iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped per faulted read");
        assert_eq!(stream.counts().bit_flips, 1);
    }
}
