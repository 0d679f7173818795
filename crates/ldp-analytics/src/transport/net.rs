//! OS-socket bindings for the transport: TCP around [`ReportServer`] /
//! [`ReportClient`](crate::transport::ReportClient).
//!
//! Everything here is a thin shell: the accept loop spawns one
//! [`ConnHandle::serve_stream`] thread per connection, and connectors
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
use crate::transport::server::{
    ConnHandle, ConnSummary, ReportServer, ServerConfig, TransportStats,
};

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
    accept_thread: JoinHandle<Vec<ConnSummary>>,
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
    /// service with every answered message applied, plus all
    /// per-connection summaries.
    ///
    /// In-flight connections are served to completion (EOF, `Shutdown`,
    /// or the [`NetConfig::io_timeout`] drain bound), never cut off.
    pub fn finish(self) -> (ReportService, Vec<ConnSummary>) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let summaries = self
            .accept_thread
            .join()
            .expect("tcp accept thread panicked");
        (self.server.finish(), summaries)
    }
}

/// Accept loop: one `serve_stream` thread per connection, all joined
/// before the loop returns its summaries.
fn spawn_accept_loop(
    listener: TcpListener,
    handle: ConnHandle,
    stop: Arc<AtomicBool>,
    net: NetConfig,
) -> JoinHandle<Vec<ConnSummary>> {
    thread::spawn(move || {
        let mut workers: Vec<JoinHandle<ConnSummary>> = Vec::new();
        loop {
            let accepted = listener.accept();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok((mut stream, _)) = accepted else {
                // Transient accept errors (per-connection resets) do not
                // stop the server.
                continue;
            };
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(net.io_timeout);
            let _ = stream.set_write_timeout(net.io_timeout);
            let conn = handle.clone();
            workers.push(thread::spawn(move || conn.serve_stream(&mut stream)));
        }
        // Drop our handle before joining so only live connections hold
        // the server's backend.
        drop(handle);
        workers
            .into_iter()
            .map(|w| w.join().expect("connection thread panicked"))
            .collect()
    })
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
