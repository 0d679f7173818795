//! The two ingest workloads: a closed loop of `available_parallelism`
//! client threads, each one `ReportClient` doing stop-and-wait submits
//! over loopback TCP, plus one control connection that sends each epoch's
//! `FlushEpoch`.
//!
//! - `ingest_tcp` feeds `TcpReportServer` with the plain backend: the
//!   socket round trip is nearly all the cost and the durable layer does
//!   no work.
//! - `ingest_durable` feeds `ReportServer::start_durable` under
//!   `FsyncPolicy::OnFlush` through the benchmark's own accept loop: every
//!   admitted report is appended to the WAL, and every flushed epoch is
//!   checkpointed and the log rotated. Each round leaves its last epoch
//!   unflushed, so recovery replays a WAL tail on top of a checkpoint.
//!   The policy is `OnFlush` because a per-record fsync's latency on a
//!   shared virtual disk swings several-fold for minutes at a time
//!   (measured: the fastest epoch's p99 from 0.21 ms to 1.16 ms between
//!   runs), which no run length averages out; the per-record fsync cost is
//!   measured per layer instead (`wal.append_ns.every_record`,
//!   `wal.fsync_ns`).
//!
//! Reports are encoded before timing starts with `block_partition` /
//! `block_rng`, and each client sends whole blocks in user order, so each
//! epoch's snapshot must be bit-identical to `Collector::run` on the same
//! users and seed.
//!
//! End-to-end metrics: `throughput_per_s` is admitted reports per second,
//! first submit to last ack; `latency_p50_us` times one `submit` call to
//! its verdict (the detail line adds the p99); `finish_s` is the
//! `flush_epoch` round trip on `ingest_tcp` and the `DurableService::open`
//! recovery on `ingest_durable`. Submit figures are medians over epochs; the flush
//! figure is a median, the recovery figure the fastest of its trials (see
//! `stats::fastest`).

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use ldp::analytics::durable::{
    DurableConfig, DurableService, FsyncPolicy, Recovery, CHECKPOINT_FILE,
};
use ldp::analytics::service::{encode_report, EpochSnapshot, ReportService, WireMessage};
use ldp::analytics::transport::{ClientStats, TransportStats};
use ldp::analytics::{block_partition, block_rng, ClientEncoder, CollectionResult, Collector};
use ldp::analytics::{Protocol, DEFAULT_SHARDS};
use ldp::core::rng::RngBlock;
use ldp::core::{AttrSpec, AttrValue, Epsilon, NumericKind, OracleKind};
use ldp::data::census::generate_br;
use ldp::data::Dataset;

use crate::pass::{run_pass, span_id, Endpoint, EpochResult, EpochSpec, PassResult};
use crate::probe::ServerLog;
use crate::stats::{fastest, is_supported, median, percentile, Percentile};
use crate::trace::{reconcile, write_csv, Recorder, Span, Tree};
use crate::{err, layers, setup, Args, BenchResult, Outcome};
/// The paper's proposal: attribute sampling with HM for numeric and OUE
/// for categorical attributes.
pub const PROTOCOL: Protocol = Protocol::Sampling {
    numeric: NumericKind::Hybrid,
    oracle: OracleKind::Oue,
};

/// Users per epoch on `ingest_tcp`: 16 blocks of 2048, about half a
/// second of traffic at loopback speed.
const TCP_USERS: usize = 32_768;
/// Epochs per `ingest_tcp` round, all flushed.
const TCP_EPOCHS: u64 = 5;
/// Users per epoch on `ingest_durable`, where every record costs an fsync.
const DURABLE_USERS: usize = 8_192;
/// Epochs per `ingest_durable` round: all but the last are flushed
/// (checkpoint + log rotation); the last stays in the WAL for recovery to
/// replay.
const DURABLE_EPOCHS: u64 = 3;
/// `DurableService::open` calls timed per durable round.
const RECOVERY_REPEATS: usize = 10;
/// Fewest rounds a run reports on, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;
/// Set-ups timed per run (each a few tens of ms).
const SETUP_REPEATS: usize = 9;

/// The per-user privacy budget of every workload.
pub fn epsilon() -> Epsilon {
    Epsilon::new(1.0).expect("1 is a valid budget")
}

/// One pre-encoded report.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// User id.
    pub user: u64,
    /// Block ordinal (the report's merge position).
    pub block: u64,
    /// `encode_report` bytes.
    pub report: Vec<u8>,
}

/// The census population and its pre-encoded reports.
#[derive(Debug)]
pub struct Population {
    /// The BR census sample.
    pub dataset: Dataset,
    /// Its attribute schema.
    pub specs: Vec<AttrSpec>,
    /// Reports per client: whole blocks, round-robin, in user order.
    pub lanes: Vec<Vec<Prepared>>,
    /// The collection seed.
    pub seed: u64,
}

impl Population {
    /// The session opener every client sends.
    pub fn hello(&self) -> WireMessage {
        WireMessage::Hello {
            protocol: PROTOCOL,
            epsilon: epsilon(),
            specs: self.specs.clone(),
            epoch: 0,
        }
    }

    /// Users per epoch.
    pub fn users(&self) -> usize {
        self.dataset.n()
    }

    /// Every report as a submit for `epoch`, in user order.
    pub fn submits(&self, epoch: u64) -> Vec<WireMessage> {
        let mut all: Vec<&Prepared> = self.lanes.iter().flatten().collect();
        all.sort_by_key(|p| p.user);
        all.into_iter()
            .map(|p| WireMessage::Submit {
                user: p.user,
                epoch,
                block: p.block,
                report: p.report.clone(),
            })
            .collect()
    }

    /// `Collector::run` on the same users and seed: what every epoch's
    /// snapshot must equal bit for bit.
    pub fn reference(&self) -> BenchResult<CollectionResult> {
        Collector::new(PROTOCOL, epsilon())
            .run(&self.dataset, self.seed)
            .map_err(err("Collector::run"))
    }
}

/// Generates `n` census users from `seed` and encodes one report each,
/// exactly as `Collector::run` would draw them, dealt to `lanes` clients
/// block by block.
pub fn prepare(n: usize, seed: u64, lanes: usize) -> BenchResult<Population> {
    let dataset = generate_br(n, seed).map_err(err("generate_br"))?;
    let specs = dataset.schema().attr_specs();
    let encoder = ClientEncoder::new(PROTOCOL, epsilon(), specs.clone()).map_err(err("encoder"))?;
    let mut out: Vec<Vec<Prepared>> = (0..lanes).map(|_| Vec::new()).collect();
    let mut report = encoder.empty_report();
    let mut scratch = encoder.scratch();
    let mut tuple: Vec<AttrValue> = Vec::new();
    for (b, range) in block_partition(n, DEFAULT_SHARDS).into_iter().enumerate() {
        let mut rng: RngBlock<_> = RngBlock::new(block_rng(seed, b));
        for i in range {
            dataset.canonical_tuple_into(i, &mut tuple);
            encoder
                .encode_into(&tuple, &mut rng, &mut report, &mut scratch)
                .map_err(err("encode_into"))?;
            out[b % lanes].push(Prepared {
                user: i as u64,
                block: b as u64,
                report: encode_report(&report, &specs),
            });
        }
    }
    Ok(Population {
        dataset,
        specs,
        lanes: out,
        seed,
    })
}

/// Bit patterns of a result: population, then every mean, then every
/// frequency with its attribute index.
pub fn result_bits(r: &CollectionResult) -> Vec<u64> {
    let mut bits = vec![r.n as u64];
    for (j, m) in &r.means {
        bits.extend([*j as u64, m.to_bits()]);
    }
    for (j, f) in &r.frequencies {
        bits.push(*j as u64);
        bits.extend(f.iter().map(|x| x.to_bits()));
    }
    bits
}

/// The durable configuration of every durable server and recovery.
pub fn durable_config(seed: u64) -> DurableConfig {
    DurableConfig {
        fsync: FsyncPolicy::OnFlush,
        run_seed: seed,
        ..DurableConfig::default()
    }
}

/// Snapshots every epoch the service holds and gates each against the
/// reference; returns the snapshots.
fn check_epochs(
    service: &ReportService,
    reference: &[u64],
    users: u64,
    label: &str,
    outcome: &mut Outcome,
) -> Vec<EpochSnapshot> {
    let epochs: Vec<u64> = service.epochs().collect();
    let mut snaps = Vec::new();
    for e in epochs {
        match service.snapshot_epoch(e) {
            Ok(snap) => {
                let bits = snap.result.as_ref().map(result_bits);
                outcome.gate(
                    snap.admitted == users && bits.as_deref() == Some(reference),
                    || format!("{label}: epoch {e} snapshot differs from Collector::run"),
                );
                snaps.push(snap);
            }
            Err(e) => outcome.gate(false, || format!("{label}: snapshot: {e}")),
        }
    }
    snaps
}

/// The transport's conservation identity and the clean-workload zeros.
fn check_transport(
    stats: &TransportStats,
    service: &ReportService,
    clients: &[ClientStats],
    label: &str,
    outcome: &mut Outcome,
) {
    let ledger = service.ledger();
    let verdicts: u64 = ledger
        .epochs()
        .map(|e| ledger.admitted(e) + ledger.rejected(e))
        .sum::<u64>()
        + service.rejected_malformed();
    outcome.gate(stats.submits() == verdicts, || {
        format!(
            "{label}: submits {} != admitted + duplicates + malformed {verdicts}",
            stats.submits()
        )
    });
    let zeros = [
        ("shed", stats.shed()),
        ("faulted_connections", stats.faulted_connections()),
        ("corrupt_frames", stats.corrupt_frames()),
        ("storage_sheds", stats.storage_sheds()),
        ("client retries", clients.iter().map(retries).sum()),
    ];
    for (name, v) in zeros {
        outcome.gate(v == 0, || {
            format!("{label}: {name} = {v} on a clean workload")
        });
    }
}

fn retries(s: &ClientStats) -> u64 {
    s.faults + s.resends + s.overload_pauses
}

/// Counts the pass's operations into the outcome.
fn account(pass: &PassResult, outcome: &mut Outcome) {
    outcome.attempted += pass.attempted;
    outcome.failed += pass.failed;
    for e in &pass.errors {
        eprintln!("perfbench: {e}");
    }
}

/// One epoch reduced to the figures the report needs.
#[derive(Debug, Clone, Copy)]
struct EpochSummary {
    spec: EpochSpec,
    secs: f64,
    rate: f64,
    p50_us: f64,
    p99: Percentile,
    flush_s: Option<f64>,
}

fn summarise(epochs: &[EpochResult], users: usize) -> Vec<EpochSummary> {
    epochs
        .iter()
        .map(|e| {
            let mut us: Vec<f64> = e.latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
            us.sort_by(f64::total_cmp);
            EpochSummary {
                spec: e.spec,
                secs: e.secs,
                rate: users as f64 / e.secs,
                p50_us: percentile(&us, 0.5).value,
                p99: percentile(&us, 0.99),
                flush_s: e.flush_s,
            }
        })
        .collect()
}

/// The end-to-end submit figures: medians over the measured epochs of
/// each epoch's rate, p50 and p99. Epochs switch between faster and slower
/// thread placements from one to the next, so the median is steadier than
/// the fastest epoch. Every epoch's p99 must have enough samples beyond it.
fn report_submits(epochs: &[&EpochSummary], outcome: &mut Outcome) {
    outcome.gate(!epochs.is_empty(), || "no measured epochs".into());
    if epochs.is_empty() {
        return;
    }
    for e in epochs {
        outcome.gate(is_supported(&e.p99), || {
            format!(
                "epoch {} p99 has only {} samples beyond it",
                e.spec.epoch, e.p99.beyond
            )
        });
    }
    let rates: Vec<f64> = epochs.iter().map(|e| e.rate).collect();
    let p50s: Vec<f64> = epochs.iter().map(|e| e.p50_us).collect();
    let p99s: Vec<f64> = epochs.iter().map(|e| e.p99.value).collect();
    let (rate, p50, p99) = (median(&rates), median(&p50s), median(&p99s));
    outcome.metric("throughput_per_s", rate);
    outcome.metric("latency_p50_us", p50);
    outcome
        .detail
        .num("reports_per_s", rate)
        .num("submit_p50_us", p50)
        .num("submit_p99_us", p99)
        .int("submit_samples_per_epoch", epochs[0].p99.samples as u64)
        .int(
            "submit_beyond_p99_min",
            epochs.iter().map(|e| e.p99.beyond).min().unwrap_or(0) as u64,
        )
        .int("measured_epochs", epochs.len() as u64)
        .nums("epoch_rates", &rates)
        .nums("epoch_p50_us", &p50s)
        .nums("epoch_p99_us", &p99s);
}

/// Median per-epoch time of traced over untraced epochs, minus one.
fn overhead_share(epochs: &[&EpochSummary]) -> f64 {
    let pick = |traced: bool| -> Vec<f64> {
        epochs
            .iter()
            .filter(|e| e.spec.traced == traced)
            .map(|e| e.secs)
            .collect()
    };
    let (on, off) = (pick(true), pick(false));
    if on.is_empty() || off.is_empty() {
        return f64::NAN;
    }
    median(&on) / median(&off) - 1.0
}

/// Turns the server connections' logs into `server.turnaround` spans
/// (children of the matching `client.ack_wait`) and idle samples.
fn server_spans(logs: &[ServerLog], origin: Instant) -> (Vec<Span>, Vec<f64>) {
    let mut rec = Recorder::new(origin);
    let mut idle = Vec::new();
    let mut scratch = Vec::new();
    for log in logs {
        for req in &log.requests {
            let mut bytes = &log.bytes[req.bytes.clone()];
            if let Ok(Some(WireMessage::Submit { user, epoch, .. })) =
                WireMessage::read_from(&mut bytes, &mut scratch)
            {
                rec.push(
                    "server.turnaround",
                    span_id(epoch, user),
                    Some("client.ack_wait"),
                    req.read_end,
                    req.write_start,
                );
                idle.push(req.idle_ns as f64);
            }
        }
    }
    (rec.into_spans(), idle)
}

fn span_percentiles(spans: &[Span], name: &str) -> Option<(f64, f64)> {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64)
        .collect();
    if d.is_empty() {
        return None;
    }
    d.sort_by(f64::total_cmp);
    Some((percentile(&d, 0.5).value, percentile(&d, 0.99).value))
}

/// Per-layer transport metrics from a traced pass: client and server
/// span percentiles, the counters, and the layer-sum reconciliation.
pub fn transport_layers(
    pass: &PassResult,
    logs: &[ServerLog],
    stats: &TransportStats,
    origin: Instant,
    spans_file: &Path,
    outcome: &mut Outcome,
) {
    let (server, idle) = server_spans(logs, origin);
    let mut spans = pass.spans.clone();
    spans.extend(server);
    for (name, p50_name, p99_name) in [
        ("client.send", "client.send_ns.p50", "client.send_ns.p99"),
        (
            "client.ack_wait",
            "client.ack_wait_ns.p50",
            "client.ack_wait_ns.p99",
        ),
        (
            "server.turnaround",
            "server.turnaround_ns.p50",
            "server.turnaround_ns.p99",
        ),
    ] {
        match span_percentiles(&spans, name) {
            Some((p50, p99)) => {
                outcome.metric(p50_name, p50);
                outcome.metric(p99_name, p99);
            }
            None => outcome.gate(false, || format!("no {name} spans recorded")),
        }
    }
    if !idle.is_empty() {
        outcome.metric("server.idle_ns", median(&idle));
    }
    outcome.metric(
        "client.retries",
        pass.client_stats.iter().map(retries).sum::<u64>() as f64,
    );
    outcome.metric("server.shed", stats.shed() as f64);
    outcome.metric(
        "server.faulted_connections",
        stats.faulted_connections() as f64,
    );
    match Tree::build(&spans).and_then(|t| reconcile(&t, "client.submit")) {
        Ok(r) => {
            outcome.metric("trace.unattributed_share", r.unattributed_share());
            outcome
                .detail
                .int("reconciled_submits", r.roots)
                .num("submit_span_ns_total", r.root_ns as f64)
                .num("layer_sum_ns_total", r.attributed_ns as f64);
        }
        Err(e) => outcome.gate(false, || format!("trace: {e}")),
    }
    outcome.metric("trace.spans", spans.len() as f64);
    if let Err(e) = write_csv(spans_file, &spans) {
        outcome.gate(false, || format!("writing {}: {e}", spans_file.display()));
    }
}

fn methodology(outcome: &mut Outcome, args: &Args, users: usize, epochs: u64, backend: Backend) {
    let clients = crate::parallelism();
    outcome
        .methodology
        .str(
            "loop",
            &format!("closed: {clients} client threads, stop-and-wait submit, loopback TCP"),
        )
        .int("clients", clients as u64)
        .int("connections", clients as u64 + 1)
        .int("setup_repeats", SETUP_REPEATS as u64)
        .int("users_per_epoch", users as u64)
        .int("epochs_per_round", epochs)
        .str("warmup", "epoch 0 of round 0 unmeasured")
        .str(
            "statistic",
            match backend {
                Backend::Plain => "median over epochs of rate, p50, p99 and flush round trip",
                Backend::Durable => "median over epochs of rate, p50, p99; fastest recovery",
            },
        )
        .str(
            "backend",
            match backend {
                Backend::Plain => "plain",
                Backend::Durable => "durable",
            },
        )
        .str("protocol", "Sampling{Hybrid, Oue}, eps=1, BR census")
        .str("fs_type", &crate::fs_type(&args.out_dir));
}

/// A fresh, empty durable directory for one round.
fn round_dir(args: &Args, round: usize) -> BenchResult<PathBuf> {
    let dir = args
        .out_dir
        .join(format!("durable-{}-{round}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(err("clear durable dir"))?;
    }
    Ok(dir)
}

/// Which server an ingest workload feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Plain,
    Durable,
}

/// Recovery timings gathered across rounds.
#[derive(Debug, Default)]
struct Recoveries {
    open_s: Vec<f64>,
    replay_ns_per_record: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: u64,
}

/// `ingest_tcp`: rounds of [`TCP_EPOCHS`] epochs into a fresh
/// `TcpReportServer` (plain backend).
pub fn ingest_tcp(args: &Args) -> BenchResult<Outcome> {
    ingest(args, Backend::Plain)
}

/// `ingest_durable`: rounds of [`DURABLE_EPOCHS`] epochs into a fresh
/// durable server, each followed by timed recoveries.
pub fn ingest_durable(args: &Args) -> BenchResult<Outcome> {
    ingest(args, Backend::Durable)
}

/// Rounds of client traffic into a fresh server until `--seconds` have
/// been measured. A round has a fixed number of epochs, so the state a
/// server holds — and the peak RSS — does not depend on the run length.
fn ingest(args: &Args, backend: Backend) -> BenchResult<Outcome> {
    let (users, epochs) = match backend {
        Backend::Plain => (TCP_USERS, TCP_EPOCHS),
        Backend::Durable => (DURABLE_USERS, DURABLE_EPOCHS),
    };
    let mut outcome = Outcome::default();
    methodology(&mut outcome, args, users, epochs, backend);
    if backend == Backend::Durable {
        outcome
            .methodology
            .str("fsync_policy", "OnFlush")
            .str(
                "tail",
                "last epoch of each round unflushed: WAL tail replayed on recovery",
            )
            .int("recovery_repeats_per_round", RECOVERY_REPEATS as u64);
    }
    let on = Arc::new(AtomicBool::new(false));
    let switch = args.trace.then(|| Arc::clone(&on));
    let start_server = |round: usize| -> BenchResult<(Endpoint, Option<PathBuf>)> {
        match backend {
            Backend::Plain => Ok((Endpoint::plain(switch.clone())?, None)),
            Backend::Durable => {
                let dir = round_dir(args, round)?;
                Ok((
                    Endpoint::durable(&dir, args.seed, switch.clone())?,
                    Some(dir),
                ))
            }
        }
    };
    let (mut prepare_s, mut server_s) = (Vec::new(), Vec::new());
    let ((pop, first), setup_s) = setup(
        SETUP_REPEATS,
        |i| {
            let t0 = Instant::now();
            let pop = prepare(users, args.seed, crate::parallelism())?;
            let t1 = Instant::now();
            let server = start_server(1000 + i)?;
            prepare_s.push((t1 - t0).as_secs_f64());
            server_s.push(t1.elapsed().as_secs_f64());
            Ok((pop, server))
        },
        |(_, (endpoint, dir)): (Population, (Endpoint, Option<PathBuf>))| {
            drop(endpoint.finish());
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        },
    )?;
    outcome.metric("setup_s", setup_s);
    outcome
        .detail
        .nums("setup_prepare_s", &prepare_s)
        .nums("setup_server_s", &server_s);
    let reference = result_bits(&pop.reference()?);
    let origin = Instant::now();
    let start = Instant::now();
    let mut first = Some(first);
    let mut summaries = Vec::new();
    let mut recoveries = Recoveries::default();
    let mut round = 0usize;
    while round < MIN_ROUNDS || start.elapsed() < args.seconds {
        let (endpoint, dir) = match first.take() {
            Some(s) => s,
            None => start_server(round)?,
        };
        let stats = endpoint.stats();
        let trace = args.trace;
        let pass = run_pass(&pop, endpoint.addr(), trace, &on, origin, &mut |done| {
            let epoch = done as u64;
            (epoch < epochs).then(|| EpochSpec {
                epoch,
                traced: trace && (round + done) % 2 == 1,
                flush: backend == Backend::Plain || epoch + 1 < epochs,
                measured: round > 0 || done > 0,
            })
        });
        account(&pass, &mut outcome);
        let (service, logs) = endpoint.finish();
        let label = format!("{} round {round}", args.workload);
        let snaps = check_epochs(&service, &reference, users as u64, &label, &mut outcome);
        check_transport(&stats, &service, &pass.client_stats, &label, &mut outcome);
        if let Some(dir) = dir {
            recover(
                &dir,
                &snaps,
                &pop,
                args,
                &label,
                &mut recoveries,
                &mut outcome,
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        if args.trace && round == 0 {
            let file = args.out_dir.join(format!("trace-{}.csv", args.workload));
            transport_layers(&pass, &logs, &stats, origin, &file, &mut outcome);
        }
        summaries.extend(summarise(&pass.epochs, users));
        if round == 0 {
            // Rounds are identical, so the peak is reached by the end of the
            // first; later rounds only add allocator noise.
            outcome.metric("peak_rss_mb", crate::peak_rss_mb()?);
        }
        round += 1;
    }
    outcome.methodology.int("rounds", round as u64);

    let measured: Vec<&EpochSummary> = summaries.iter().filter(|e| e.spec.measured).collect();
    let untraced: Vec<&EpochSummary> = measured
        .iter()
        .copied()
        .filter(|e| !e.spec.traced)
        .collect();
    report_submits(&untraced, &mut outcome);
    let (name, finish): (&str, Vec<f64>) = match backend {
        Backend::Plain => (
            "flush_epoch_s",
            untraced.iter().filter_map(|e| e.flush_s).collect(),
        ),
        Backend::Durable => ("recover_s", recoveries.open_s.clone()),
    };
    if !finish.is_empty() {
        // A recovery is CPU-bound work on files in the page cache.
        let value = match backend {
            Backend::Plain => median(&finish),
            Backend::Durable => fastest(&finish),
        };
        outcome.metric("finish_s", value);
        outcome
            .detail
            .num(name, value)
            .int(&format!("{name}_samples"), finish.len() as u64)
            .nums(&format!("{name}_trials"), &finish);
    }
    if args.trace {
        outcome.metric("trace.overhead_share", overhead_share(&measured));
        if !recoveries.replay_ns_per_record.is_empty() {
            outcome.metric(
                "recovery.replay_ns_per_record",
                median(&recoveries.replay_ns_per_record),
            );
        }
        if !recoveries.checkpoint_ms.is_empty() {
            outcome.metric("durable.checkpoint_ms", median(&recoveries.checkpoint_ms));
            outcome.metric("checkpoint.bytes", recoveries.checkpoint_bytes as f64);
        }
        sweep(&pop, args, backend == Backend::Plain, &mut outcome)?;
    }
    Ok(outcome)
}

/// Times `RECOVERY_REPEATS` opens of the directory a durable round left
/// behind, and gates the first: every epoch's snapshot bit-identical to
/// the pre-shutdown one, and `admitted == checkpointed + wal_replayed`. A
/// traced run also times `Recovery::replay` and `checkpoint` there.
fn recover(
    dir: &Path,
    snaps: &[EpochSnapshot],
    pop: &Population,
    args: &Args,
    label: &str,
    recoveries: &mut Recoveries,
    outcome: &mut Outcome,
) {
    let admitted: u64 = snaps.iter().map(|s| s.admitted).sum();
    for k in 0..RECOVERY_REPEATS {
        let t0 = Instant::now();
        let opened = DurableService::open(dir, durable_config(args.seed));
        let dt = t0.elapsed().as_secs_f64();
        outcome.op(opened.is_ok());
        let (recovered, report) = match opened {
            Ok(r) => r,
            Err(e) => {
                outcome.gate(false, || format!("{label}: recovery: {e}"));
                continue;
            }
        };
        recoveries.open_s.push(dt);
        if k > 0 {
            continue;
        }
        outcome.gate(
            report.had_checkpoint
                && report.wal_replayed == pop.users() as u64
                && report.wal_rejected == 0
                && report.recovered_admits() == admitted,
            || format!("{label}: recovery conservation failed: {report:?}, {admitted} admitted"),
        );
        for snap in snaps {
            let same = recovered.snapshot_epoch(snap.epoch).is_ok_and(|r| {
                r.admitted == snap.admitted
                    && r.result.as_ref().map(result_bits) == snap.result.as_ref().map(result_bits)
            });
            outcome.gate(same, || {
                format!("{label}: recovered epoch {} differs", snap.epoch)
            });
        }
    }
    if !args.trace {
        return;
    }
    let t0 = Instant::now();
    match Recovery::replay(dir, &durable_config(args.seed)) {
        Ok((_, _, report)) if report.wal_records > 0 => recoveries
            .replay_ns_per_record
            .push(t0.elapsed().as_nanos() as f64 / report.wal_records as f64),
        Ok(_) => outcome.gate(false, || format!("{label}: empty WAL at replay")),
        Err(e) => outcome.gate(false, || format!("{label}: replay: {e}")),
    }
    // Checkpointing rotates the log, so it runs after every recovery.
    match DurableService::open(dir, durable_config(args.seed)) {
        Ok((mut svc, _)) => {
            let t0 = Instant::now();
            let ok = svc.checkpoint().is_ok();
            recoveries
                .checkpoint_ms
                .push(t0.elapsed().as_secs_f64() * 1e3);
            outcome.gate(ok, || format!("{label}: checkpoint failed"));
            recoveries.checkpoint_bytes =
                std::fs::metadata(dir.join(CHECKPOINT_FILE)).map_or(0, |m| m.len());
        }
        Err(e) => outcome.gate(false, || format!("{label}: reopen: {e}")),
    }
}

/// The in-process layer measurements on the run's own reports;
/// `durable_standins` adds checkpoint and replay on a scratch directory
/// for a workload that leaves none behind.
fn sweep(
    pop: &Population,
    args: &Args,
    durable_standins: bool,
    outcome: &mut Outcome,
) -> BenchResult<()> {
    let dir = args.out_dir.join(format!("layers-{}", std::process::id()));
    let r = layers::in_process(pop, &dir, durable_standins, outcome)
        .and_then(|()| layers::collector(&pop.dataset, pop.seed, outcome))
        .and_then(|()| layers::query(&pop.dataset, pop.seed, outcome));
    let _ = std::fs::remove_dir_all(&dir);
    r
}
