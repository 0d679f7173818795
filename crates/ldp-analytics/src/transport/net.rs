//! OS-socket bindings for the transport: TCP around [`ReportServer`] /
//! [`ReportClient`](crate::transport::ReportClient).
//!
//! Everything here is a thin shell: the accept loop spawns one
//! [`ConnHandle::serve_stream`] thread per connection (joining, at each
//! accept, every one whose connection has ended), and connectors
//! implement [`Connect`] with timeouts classified through
//! [`ldp_core::frame::io_error`], so all retry/backoff/idempotency logic
//! lives in the socket-agnostic layers this module wraps.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use ldp_core::frame::io_error;
use ldp_core::Result;

use crate::service::ReportService;
use crate::transport::client::Connect;
use crate::transport::server::{ConnHandle, ReportServer, ServerConfig, TransportStats};

/// Socket-level knobs for [`TcpReportServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Read/write timeout applied to every accepted connection. Doubles
    /// as the shutdown drain bound: a connection idle longer than this
    /// exits with a typed [`ldp_core::LdpError::Timeout`] fault instead
    /// of blocking [`TcpReportServer::finish`] forever. `None` disables
    /// timeouts (then clients *must* close for `finish` to return).
    pub io_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            io_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// A [`ReportServer`] listening on a TCP socket.
#[derive(Debug)]
pub struct TcpReportServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
    server: ReportServer,
}

impl TcpReportServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections.
    ///
    /// # Errors
    /// Bind failures, classified through [`io_error`].
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig, net: NetConfig) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(|e| io_error("bind", &e))?;
        let local_addr = listener.local_addr().map_err(|e| io_error("bind", &e))?;
        let server = ReportServer::start(config);
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = spawn_accept_loop(listener, server.handle(), Arc::clone(&stop), net);
        Ok(TcpReportServer {
            local_addr,
            stop,
            accept_thread,
            server,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The underlying server's transport counters.
    pub fn stats(&self) -> Arc<TransportStats> {
        self.server.stats()
    }

    /// Stops accepting, joins every connection thread, and returns the
    /// service with every answered message applied, plus the transport
    /// counters every connection fed (connections served, faulted and
    /// refused).
    ///
    /// In-flight connections are served to completion (EOF, `Shutdown`,
    /// or the [`NetConfig::io_timeout`] drain bound), never cut off.
    pub fn finish(self) -> (ReportService, Arc<TransportStats>) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        self.accept_thread
            .join()
            .expect("tcp accept thread panicked");
        let stats = self.server.stats();
        (self.server.finish(), stats)
    }
}

/// Accept loop: one `serve_stream` thread per connection. Threads whose
/// connection has ended are joined as the loop goes, so it holds one
/// thread per live connection, not one per connection ever accepted; the
/// rest are joined before the loop returns.
fn spawn_accept_loop(
    listener: TcpListener,
    handle: ConnHandle,
    stop: Arc<AtomicBool>,
    net: NetConfig,
) -> JoinHandle<()> {
    thread::spawn(move || {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let accepted = listener.accept();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            reap(&mut workers);
            let Ok((mut stream, _)) = accepted else {
                // Transient accept errors (per-connection resets) do not
                // stop the server.
                continue;
            };
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(net.io_timeout);
            let _ = stream.set_write_timeout(net.io_timeout);
            let conn = handle.clone();
            let spawned = thread::Builder::new().spawn(move || {
                conn.serve_stream(&mut stream);
            });
            match spawned {
                Ok(worker) => workers.push(worker),
                // The closure, and with it the stream, is dropped: the
                // connection is closed unserved, and the server runs on.
                Err(_) => handle.note_refused(),
            }
        }
        // Drop our handle before joining so only live connections hold
        // the server's backend.
        drop(handle);
        for worker in workers {
            worker.join().expect("connection thread panicked");
        }
    })
}

/// Joins every connection thread that has already returned.
fn reap(workers: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < workers.len() {
        if workers[i].is_finished() {
            workers
                .swap_remove(i)
                .join()
                .expect("connection thread panicked");
        } else {
            i += 1;
        }
    }
}

/// A [`Connect`] implementation dialing one TCP address.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    addr: SocketAddr,
    /// Timeout for establishing the connection.
    pub connect_timeout: Duration,
    /// Read/write timeout on the established stream (`None` = blocking).
    pub io_timeout: Option<Duration>,
}

impl TcpConnector {
    /// A connector for `addr` with the given connect timeout and a
    /// matching I/O timeout.
    pub fn new(addr: SocketAddr, connect_timeout: Duration) -> Self {
        TcpConnector {
            addr,
            connect_timeout,
            io_timeout: Some(connect_timeout),
        }
    }
}

impl Connect for TcpConnector {
    type Stream = TcpStream;

    fn connect(&mut self) -> Result<Self::Stream> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)
            .map_err(|e| io_error("connect", &e))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(self.io_timeout)
            .and_then(|()| stream.set_write_timeout(self.io_timeout))
            .map_err(|e| io_error("connect", &e))?;
        Ok(stream)
    }
}
