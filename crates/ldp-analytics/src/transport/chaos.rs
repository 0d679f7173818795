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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use ldp_core::rng::{sample_weighted, seeded_rng, uniform, uniform_index};
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
    /// Process-level kills injected by a shared [`CrashSwitch`] (at most
    /// one per stream — a killed process's streams all die together).
    pub crashes: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.disconnects + self.bit_flips + self.short_ops + self.stalls + self.crashes
    }
}

/// A process-level kill switch shared by every stream of one simulated
/// process.
///
/// Unlike the per-stream fault schedule, a crash is *correlated*: when a
/// process dies, all of its connections die at the same instant. Each
/// sharing [`ChaosStream`] counts one switch op per I/O call; at the
/// seeded kill op the switch trips, and from then on every sharing stream
/// fails exactly like one whose process was `kill -9`ed — reads
/// `ConnectionReset`, writes `BrokenPipe`, no further bytes in either
/// direction.
///
/// Cloning shares the switch (it is the identity of the simulated
/// process); the seeded constructor makes kill placement a pure function
/// of the seed, so a crash run replays bit-for-bit.
#[derive(Debug, Clone)]
pub struct CrashSwitch {
    inner: Arc<CrashSwitchInner>,
}

#[derive(Debug)]
struct CrashSwitchInner {
    kill_at: u64,
    ops: AtomicU64,
    tripped: AtomicBool,
}

impl CrashSwitch {
    /// Kill at exactly the `kill_at`-th (1-based) I/O op across all
    /// sharing streams.
    pub fn at_op(kill_at: u64) -> Self {
        CrashSwitch {
            inner: Arc::new(CrashSwitchInner {
                kill_at: kill_at.max(1),
                ops: AtomicU64::new(0),
                tripped: AtomicBool::new(false),
            }),
        }
    }

    /// A seed-derived switch killing within the first `max_ops` ops —
    /// same seed, same kill op.
    pub fn seeded(seed: u64, max_ops: u64) -> Self {
        let mut rng = seeded_rng(seed ^ 0x0c4a_5f1e_dead_5107);
        let bound = max_ops.clamp(1, u64::from(u32::MAX)) as u32;
        Self::at_op(u64::from(uniform_index(&mut rng, bound)) + 1)
    }

    /// The 1-based op index this switch kills at.
    pub fn kill_at(&self) -> u64 {
        self.inner.kill_at
    }

    /// Counts one I/O op; true once the kill point is reached (this op
    /// and every later one must fail).
    pub fn note_op(&self) -> bool {
        if self.inner.tripped.load(Ordering::Relaxed) {
            return true;
        }
        let op = self.inner.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if op >= self.inner.kill_at {
            self.inner.tripped.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// True once the kill has fired.
    pub fn tripped(&self) -> bool {
        self.inner.tripped.load(Ordering::Relaxed)
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
    crash: Option<CrashSwitch>,
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
            crash: None,
        }
    }

    /// Attaches a shared process-level [`CrashSwitch`]: every I/O call on
    /// this stream counts one switch op, and once the switch trips this
    /// stream (and every other sharing it) dies permanently.
    pub fn with_crash_switch(mut self, switch: CrashSwitch) -> Self {
        self.crash = Some(switch);
        self
    }

    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// True once an injected disconnect has killed the stream.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Checks the shared crash switch (if any); kills this stream at the
    /// switch's op and counts the injected crash exactly once per stream.
    fn crash_due(&mut self) -> bool {
        match &self.crash {
            Some(switch) if switch.note_op() => {
                if !self.dead {
                    self.dead = true;
                    self.counts.crashes += 1;
                }
                true
            }
            _ => false,
        }
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
        if self.crash_due() {
            return Err(Self::dead_read_error());
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
        if self.crash_due() {
            return Err(Self::dead_write_error());
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
    fn crash_switch_kills_all_sharing_streams_at_the_seeded_op() {
        let switch = CrashSwitch::at_op(3);
        let data_a = [0u8; 64];
        let data_b = [0u8; 64];
        let mut a = ChaosStream::new(&data_a[..], ChaosConfig::balanced(0.0), 1)
            .with_crash_switch(switch.clone());
        let mut b = ChaosStream::new(&data_b[..], ChaosConfig::balanced(0.0), 2)
            .with_crash_switch(switch.clone());
        let mut buf = [0u8; 8];
        assert!(a.read(&mut buf).is_ok()); // op 1
        assert!(b.read(&mut buf).is_ok()); // op 2
        assert!(!switch.tripped());
        // Op 3 trips the switch: both streams die, like one killed process.
        assert_eq!(
            a.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert!(switch.tripped());
        assert_eq!(
            b.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert!(a.is_dead() && b.is_dead());
        assert_eq!(a.counts().crashes, 1);
        assert_eq!(b.counts().crashes, 1);
        assert_eq!(a.counts().total(), 1, "crashes count as faults");

        // Seeded placement is deterministic.
        assert_eq!(
            CrashSwitch::seeded(11, 100).kill_at(),
            CrashSwitch::seeded(11, 100).kill_at()
        );
        assert_ne!(
            CrashSwitch::seeded(11, 1 << 20).kill_at(),
            CrashSwitch::seeded(12, 1 << 20).kill_at()
        );
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
