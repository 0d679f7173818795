//! Client traffic over loopback TCP: `available_parallelism` client
//! threads in a closed loop, each one `ReportClient` doing stop-and-wait
//! submits of whole pre-encoded blocks, plus one control connection that
//! sends each epoch's `FlushEpoch`; and the servers they talk to.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ldp::analytics::service::ReportService;
use ldp::analytics::transport::{
    ClientConfig, ClientStats, ConnHandle, Connect, NetConfig, ReportClient, ReportServer,
    ServerConfig, TcpConnector, TcpReportServer, TransportStats,
};

use crate::ingest::{durable_config, Population, Prepared};
use crate::probe::{ClientProbe, ProbedConnector, ServerLog, ServerStream};
use crate::trace::{Recorder, Span};
use crate::{err, BenchResult};

/// Connect and I/O timeout of every client connection.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The id all spans of one submit share.
pub fn span_id(epoch: u64, user: u64) -> u64 {
    (epoch << 32) | user
}

/// What one epoch of a pass asks of the clients.
#[derive(Debug, Clone, Copy)]
pub struct EpochSpec {
    /// Epoch number.
    pub epoch: u64,
    /// Record spans during this epoch.
    pub traced: bool,
    /// Send `FlushEpoch` after it.
    pub flush: bool,
    /// Count it in the reported figures (false for warm-up).
    pub measured: bool,
}

/// One epoch's timings.
#[derive(Debug, Clone)]
pub struct EpochResult {
    /// What was asked.
    pub spec: EpochSpec,
    /// First submit to last verdict across all clients, seconds.
    pub secs: f64,
    /// Submit latencies, ns.
    pub latencies_ns: Vec<u64>,
    /// `flush_epoch` round trip, seconds.
    pub flush_s: Option<f64>,
}

/// Everything one pass of client traffic produced.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Epochs in order.
    pub epochs: Vec<EpochResult>,
    /// Per-client transport counters.
    pub client_stats: Vec<ClientStats>,
    /// Client-side spans.
    pub spans: Vec<Span>,
    /// Submits and flushes attempted.
    pub attempted: u64,
    /// Submits not `Admitted`/`AlreadyAdmitted`, and failed flushes.
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
}

const STOP: u64 = u64::MAX;

/// Epoch hand-off between the driving thread and the clients.
struct Schedule {
    start: Barrier,
    end: Barrier,
    word: AtomicU64,
}

impl Schedule {
    fn current(&self) -> Option<(u64, bool)> {
        match self.word.load(Ordering::SeqCst) {
            STOP => None,
            w => Some((w >> 1, w & 1 == 1)),
        }
    }
}

struct LaneEpoch {
    first: Instant,
    last: Instant,
    latencies_ns: Vec<u64>,
    failed: u64,
}

struct LaneResult {
    epochs: Vec<LaneEpoch>,
    stats: ClientStats,
    spans: Vec<Span>,
    errors: Vec<String>,
}

fn drive_lane<C: Connect>(
    mut client: ReportClient<C>,
    lane: &[Prepared],
    sched: &Schedule,
    probe: Option<&ClientProbe>,
    origin: Instant,
) -> LaneResult {
    let mut rec = Recorder::new(origin);
    let mut epochs = Vec::new();
    let mut errors = Vec::new();
    loop {
        sched.start.wait();
        let Some((epoch, traced)) = sched.current() else {
            break;
        };
        let probe = probe.filter(|_| traced);
        let mut latencies_ns = Vec::with_capacity(lane.len());
        let mut failed = 0;
        let mut first = None;
        let mut last = Instant::now();
        for p in lane {
            let report = p.report.clone();
            if let Some(probe) = probe {
                probe.set_on(true);
                probe.reset();
            }
            let t0 = Instant::now();
            let outcome = client.submit(p.user, epoch, p.block, report);
            let t1 = Instant::now();
            first.get_or_insert(t0);
            last = t1;
            latencies_ns.push((t1 - t0).as_nanos() as u64);
            if let Err(e) = outcome {
                failed += 1;
                if errors.len() < 4 {
                    errors.push(format!("submit user {} epoch {epoch}: {e}", p.user));
                }
            }
            if let Some(probe) = probe {
                let id = span_id(epoch, p.user);
                rec.push("client.submit", id, None, t0, t1);
                if let Some((send, wait)) = probe.marks() {
                    rec.push("client.send", id, Some("client.submit"), send.0, send.1);
                    rec.push("client.ack_wait", id, Some("client.submit"), wait.0, wait.1);
                }
                probe.set_on(false);
            }
        }
        epochs.push(LaneEpoch {
            first: first.unwrap_or(last),
            last,
            latencies_ns,
            failed,
        });
        sched.end.wait();
    }
    let stats = client.stats();
    client.close();
    LaneResult {
        epochs,
        stats,
        spans: rec.into_spans(),
        errors,
    }
}

fn lane_thread(
    pop: &Population,
    lane: &[Prepared],
    addr: SocketAddr,
    probes: bool,
    sched: &Schedule,
    origin: Instant,
) -> LaneResult {
    let connector = TcpConnector::new(addr, IO_TIMEOUT);
    let config = ClientConfig::default();
    if probes {
        let probe = Rc::new(ClientProbe::default());
        let connector = ProbedConnector::new(connector, Rc::clone(&probe));
        let client = ReportClient::new(connector, pop.hello(), config).expect("hello is a Hello");
        drive_lane(client, lane, sched, Some(&probe), origin)
    } else {
        let client = ReportClient::new(connector, pop.hello(), config).expect("hello is a Hello");
        drive_lane(client, lane, sched, None, origin)
    }
}

/// Runs epochs of client traffic against the server at `addr` until
/// `next` returns `None`. `next` sees how many epochs are done; `server_on`
/// follows each epoch's `traced` flag.
pub fn run_pass(
    pop: &Population,
    addr: SocketAddr,
    probes: bool,
    server_on: &AtomicBool,
    origin: Instant,
    next: &mut dyn FnMut(usize) -> Option<EpochSpec>,
) -> PassResult {
    let lanes = pop.lanes.len();
    let sched = Schedule {
        start: Barrier::new(lanes + 1),
        end: Barrier::new(lanes + 1),
        word: AtomicU64::new(STOP),
    };
    let mut control = ReportClient::new(
        TcpConnector::new(addr, IO_TIMEOUT),
        pop.hello(),
        ClientConfig::default(),
    )
    .expect("hello is a Hello");
    let mut result = PassResult::default();
    let mut specs = Vec::new();
    let mut flushes = Vec::new();
    let lane_results: Vec<LaneResult> = thread::scope(|scope| {
        let handles: Vec<_> = pop
            .lanes
            .iter()
            .map(|lane| {
                let sched = &sched;
                scope.spawn(move || lane_thread(pop, lane, addr, probes, sched, origin))
            })
            .collect();
        while let Some(spec) = next(specs.len()) {
            server_on.store(spec.traced && probes, Ordering::SeqCst);
            sched
                .word
                .store((spec.epoch << 1) | u64::from(spec.traced), Ordering::SeqCst);
            sched.start.wait();
            sched.end.wait();
            let mut flush_s = None;
            if spec.flush {
                let t0 = Instant::now();
                let receipt = control.flush_epoch(spec.epoch);
                let dt = t0.elapsed().as_secs_f64();
                result.attempted += 1;
                match receipt {
                    Ok(r) if r.admitted == pop.users() as u64 => flush_s = Some(dt),
                    Ok(r) => {
                        result.failed += 1;
                        result.errors.push(format!(
                            "flush of epoch {} admitted {} of {}",
                            spec.epoch,
                            r.admitted,
                            pop.users()
                        ));
                    }
                    Err(e) => {
                        result.failed += 1;
                        result
                            .errors
                            .push(format!("flush epoch {}: {e}", spec.epoch));
                    }
                }
            }
            server_on.store(false, Ordering::SeqCst);
            specs.push(spec);
            flushes.push(flush_s);
        }
        sched.word.store(STOP, Ordering::SeqCst);
        sched.start.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    control.close();
    for (k, (spec, flush_s)) in specs.into_iter().zip(flushes).enumerate() {
        let parts: Vec<&LaneEpoch> = lane_results.iter().map(|l| &l.epochs[k]).collect();
        let first = parts
            .iter()
            .map(|p| p.first)
            .min()
            .expect("at least one lane");
        let last = parts
            .iter()
            .map(|p| p.last)
            .max()
            .expect("at least one lane");
        let latencies_ns: Vec<u64> = parts
            .iter()
            .flat_map(|p| p.latencies_ns.iter().copied())
            .collect();
        result.attempted += latencies_ns.len() as u64;
        result.failed += parts.iter().map(|p| p.failed).sum::<u64>();
        result.epochs.push(EpochResult {
            spec,
            secs: (last - first).as_secs_f64(),
            latencies_ns,
            flush_s,
        });
    }
    for lane in lane_results {
        result.client_stats.push(lane.stats);
        result.spans.extend(lane.spans);
        result.errors.extend(lane.errors);
    }
    result
}

/// The benchmark's accept loop: one `serve_stream` thread per connection,
/// as `TcpReportServer` runs it, with the stream wrapped for tracing when
/// a switch is given.
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<ServerLog>>,
}

impl Acceptor {
    /// Binds an ephemeral loopback port and starts accepting.
    pub fn spawn(handle: ConnHandle, on: Option<Arc<AtomicBool>>) -> BenchResult<Self> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err("bind"))?;
        let addr = listener.local_addr().map_err(err("local_addr"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let io_timeout = NetConfig::default().io_timeout;
        let thread = thread::spawn(move || {
            let mut workers: Vec<JoinHandle<ServerLog>> = Vec::new();
            loop {
                let accepted = listener.accept();
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let Ok((stream, _)) = accepted else {
                    continue;
                };
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(io_timeout);
                let _ = stream.set_write_timeout(io_timeout);
                let conn = handle.clone();
                let on = on.clone();
                workers.push(thread::spawn(move || match on {
                    Some(on) => {
                        let mut s = ServerStream::new(stream, on);
                        conn.serve_stream(&mut s);
                        s.into_log()
                    }
                    None => {
                        let mut s = stream;
                        conn.serve_stream(&mut s);
                        ServerLog::default()
                    }
                }));
            }
            drop(handle);
            workers
                .into_iter()
                .map(|w| w.join().expect("connection thread panicked"))
                .collect()
        });
        Ok(Acceptor { addr, stop, thread })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every connection thread.
    pub fn finish(self) -> Vec<ServerLog> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.thread.join().expect("accept thread panicked")
    }
}

/// A running server: the shipping `TcpReportServer`, or a `ReportServer`
/// behind the benchmark's accept loop.
pub enum Endpoint {
    /// `TcpReportServer` with the plain backend.
    Tcp(TcpReportServer),
    /// Any backend behind [`Acceptor`].
    Own(ReportServer, Acceptor),
}

impl Endpoint {
    /// Plain backend; traced runs need the wrapped accept loop.
    pub fn plain(on: Option<Arc<AtomicBool>>) -> BenchResult<Self> {
        match on {
            None => {
                TcpReportServer::bind("127.0.0.1:0", ServerConfig::default(), NetConfig::default())
                    .map(Endpoint::Tcp)
                    .map_err(err("TcpReportServer::bind"))
            }
            Some(on) => {
                let server = ReportServer::start(ServerConfig::default());
                let acceptor = Acceptor::spawn(server.handle(), Some(on))?;
                Ok(Endpoint::Own(server, acceptor))
            }
        }
    }

    /// Durable backend on `dir` under `durable_config(seed)`.
    pub fn durable(dir: &Path, seed: u64, on: Option<Arc<AtomicBool>>) -> BenchResult<Self> {
        let (server, report) =
            ReportServer::start_durable(ServerConfig::default(), dir, durable_config(seed))
                .map_err(err("start_durable"))?;
        if report.recovered_admits() != 0 {
            return Err(format!("{} is not empty", dir.display()));
        }
        let acceptor = Acceptor::spawn(server.handle(), on)?;
        Ok(Endpoint::Own(server, acceptor))
    }

    /// The address clients dial.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Endpoint::Tcp(s) => s.local_addr(),
            Endpoint::Own(_, a) => a.addr(),
        }
    }

    /// The server's transport counters.
    pub fn stats(&self) -> Arc<TransportStats> {
        match self {
            Endpoint::Tcp(s) => s.stats(),
            Endpoint::Own(s, _) => s.stats(),
        }
    }

    /// Drains and stops: the service and every connection's log.
    pub fn finish(self) -> (ReportService, Vec<ServerLog>) {
        match self {
            Endpoint::Tcp(s) => (s.finish().0, Vec::new()),
            Endpoint::Own(s, a) => {
                let logs = a.finish();
                (s.finish(), logs)
            }
        }
    }
}
