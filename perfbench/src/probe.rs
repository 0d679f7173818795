//! Stream wrappers that time the transport from outside the program: the
//! client's connector hands [`ReportClient`](ldp::analytics::transport::ReportClient)
//! a [`ClientStream`], and the benchmark's accept loop hands
//! `ConnHandle::serve_stream` a [`ServerStream`]. Both pass every byte
//! through unchanged and take no clock readings while tracing is off.

use std::cell::Cell;
use std::io::{Read, Write};
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ldp::analytics::transport::Connect;

/// The marks one stop-and-wait exchange leaves on the client's stream.
#[derive(Debug, Default)]
pub struct ClientProbe {
    on: Cell<bool>,
    send_start: Cell<Option<Instant>>,
    send_end: Cell<Option<Instant>>,
    wait_start: Cell<Option<Instant>>,
    wait_end: Cell<Option<Instant>>,
}

impl ClientProbe {
    /// Turns clock readings on or off.
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Forgets the previous exchange's marks.
    pub fn reset(&self) {
        self.send_start.set(None);
        self.send_end.set(None);
        self.wait_start.set(None);
        self.wait_end.set(None);
    }

    /// `(send, ack wait)` intervals of the last exchange: from its first
    /// write to the flush, and from the first read after that to the last
    /// read's return.
    pub fn marks(&self) -> Option<((Instant, Instant), (Instant, Instant))> {
        Some((
            (self.send_start.get()?, self.send_end.get()?),
            (self.wait_start.get()?, self.wait_end.get()?),
        ))
    }
}

/// A [`Connect`] whose streams report to a shared [`ClientProbe`].
#[derive(Debug)]
pub struct ProbedConnector<C> {
    inner: C,
    probe: Rc<ClientProbe>,
}

impl<C> ProbedConnector<C> {
    /// Wraps `inner`; every stream it yields reports to `probe`.
    pub fn new(inner: C, probe: Rc<ClientProbe>) -> Self {
        ProbedConnector { inner, probe }
    }
}

impl<C: Connect> Connect for ProbedConnector<C> {
    type Stream = ClientStream<C::Stream>;

    fn connect(&mut self) -> ldp::core::Result<Self::Stream> {
        Ok(ClientStream {
            inner: self.inner.connect()?,
            probe: Rc::clone(&self.probe),
        })
    }
}

/// The client's side of one connection.
#[derive(Debug)]
pub struct ClientStream<S> {
    inner: S,
    probe: Rc<ClientProbe>,
}

impl<S: Read> Read for ClientStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.probe.on.get() {
            return self.inner.read(buf);
        }
        let t0 = Instant::now();
        let r = self.inner.read(buf);
        let t1 = Instant::now();
        if self.probe.wait_start.get().is_none() {
            self.probe.wait_start.set(Some(t0));
        }
        self.probe.wait_end.set(Some(t1));
        r
    }
}

impl<S: Write> Write for ClientStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !self.probe.on.get() {
            return self.inner.write(buf);
        }
        let t0 = Instant::now();
        let r = self.inner.write(buf);
        let t1 = Instant::now();
        // A write after a read opens a new exchange (a reconnect's Hello
        // precedes the submit's own): keep only the last exchange's marks.
        if self.probe.send_start.get().is_none() || self.probe.wait_start.get().is_some() {
            self.probe.reset();
            self.probe.send_start.set(Some(t0));
        }
        self.probe.send_end.set(Some(t1));
        r
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let r = self.inner.flush();
        if self.probe.on.get() {
            self.probe.send_end.set(Some(Instant::now()));
        }
        r
    }
}

/// One request as the server connection saw it.
#[derive(Debug, Clone)]
pub struct ServedRequest {
    /// Time blocked in `read` calls for this request, ns.
    pub idle_ns: u64,
    /// Return of the read that completed the request.
    pub read_end: Instant,
    /// Start of the first write of the response.
    pub write_start: Instant,
    /// The request's bytes in [`ServerLog::bytes`].
    pub bytes: Range<usize>,
}

/// Everything a [`ServerStream`] recorded.
#[derive(Debug, Default)]
pub struct ServerLog {
    /// Requests in arrival order.
    pub requests: Vec<ServedRequest>,
    /// Every traced request byte, for decoding after the run.
    pub bytes: Vec<u8>,
}

/// The server's side of one connection, as handed to `serve_stream`.
#[derive(Debug)]
pub struct ServerStream<S> {
    inner: S,
    on: Arc<AtomicBool>,
    log: ServerLog,
    /// Set by the first response write, cleared by the next read.
    responding: bool,
    read_ns: u64,
    read_end: Option<Instant>,
    request_start: usize,
}

impl<S> ServerStream<S> {
    /// Wraps `inner`; clock readings follow the shared `on` switch.
    pub fn new(inner: S, on: Arc<AtomicBool>) -> Self {
        ServerStream {
            inner,
            on,
            log: ServerLog::default(),
            responding: true,
            read_ns: 0,
            read_end: None,
            request_start: 0,
        }
    }

    /// The recorded requests.
    pub fn into_log(self) -> ServerLog {
        self.log
    }
}

impl<S: Read> Read for ServerStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.on.load(Ordering::Relaxed) {
            self.read_end = None;
            return self.inner.read(buf);
        }
        if self.responding {
            self.responding = false;
            self.read_ns = 0;
            self.request_start = self.log.bytes.len();
        }
        let t0 = Instant::now();
        let r = self.inner.read(buf);
        let t1 = Instant::now();
        self.read_ns += (t1 - t0).as_nanos() as u64;
        self.read_end = Some(t1);
        if let Ok(n) = r {
            self.log.bytes.extend_from_slice(&buf[..n]);
        }
        r
    }
}

impl<S: Write> Write for ServerStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !self.responding {
            self.responding = true;
            if let (true, Some(read_end)) = (self.on.load(Ordering::Relaxed), self.read_end) {
                self.log.requests.push(ServedRequest {
                    idle_ns: self.read_ns,
                    read_end,
                    write_start: Instant::now(),
                    bytes: self.request_start..self.log.bytes.len(),
                });
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback byte pipe: reads drain what writes appended.
    #[derive(Default)]
    struct Loop {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for Loop {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Loop {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.data.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn server_stream_splits_requests_at_response_writes() {
        let on = Arc::new(AtomicBool::new(true));
        let mut s = ServerStream::new(Loop::default(), Arc::clone(&on));
        s.inner.data.extend_from_slice(b"abcdefgh");
        let mut buf = [0u8; 3];
        s.read_exact(&mut buf).unwrap();
        s.write_all(b"r1").unwrap();
        s.write_all(b"r1-tail").unwrap();
        let mut buf = [0u8; 5];
        s.read_exact(&mut buf).unwrap();
        s.write_all(b"r2").unwrap();
        let log = s.into_log();
        assert_eq!(log.requests.len(), 2);
        assert_eq!(&log.bytes[log.requests[0].bytes.clone()], b"abc");
        assert_eq!(&log.bytes[log.requests[1].bytes.clone()], b"defgh");
        assert!(log.requests.iter().all(|r| r.read_end <= r.write_start));
    }

    #[test]
    fn server_stream_records_nothing_while_off() {
        let on = Arc::new(AtomicBool::new(false));
        let mut s = ServerStream::new(Loop::default(), on);
        s.inner.data.extend_from_slice(b"abc");
        let mut buf = [0u8; 3];
        s.read_exact(&mut buf).unwrap();
        s.write_all(b"r").unwrap();
        let log = s.into_log();
        assert!(log.requests.is_empty() && log.bytes.is_empty());
    }
}
