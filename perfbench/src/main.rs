//! End-to-end and per-layer benchmark of the collector's shipping path.
//!
//! ```text
//! perfbench --workload <ingest_tcp|ingest_durable|collect_batch> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs production code through the public `ldp` API and
//! checks its outputs bit for bit. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it records spans around every call
//! into a layer and reports the per-layer metrics. The last line of
//! standard output is one JSON object; the line before it carries the
//! methodology and the workload's own detail.

#![forbid(unsafe_code)]

mod collect;
mod ingest;
mod json;
mod layers;
mod pass;
mod probe;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use json::Obj;
use stats::median;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one;
/// what each measures per workload is set out in `ingest.rs` and
/// `collect.rs` and in the methodology line. Tail latency (p99) is in the
/// detail line but not here: on a shared virtual machine it is set by the
/// host's disk and scheduler, and moved by up to 40% between runs minutes
/// apart, more than any regression bound can allow.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("finish_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, grouped by layer.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("session.encode_ns", "ns"),
    ("frame.write_ns", "ns"),
    ("frame.read_ns", "ns"),
    ("frame.bytes_per_report", "bytes"),
    ("client.send_ns.p50", "ns"),
    ("client.send_ns.p99", "ns"),
    ("client.ack_wait_ns.p50", "ns"),
    ("client.ack_wait_ns.p99", "ns"),
    ("client.retries", "count"),
    ("server.idle_ns", "ns"),
    ("server.turnaround_ns.p50", "ns"),
    ("server.turnaround_ns.p99", "ns"),
    ("server.shed", "count"),
    ("server.faulted_connections", "count"),
    ("service.handle_ns", "ns"),
    ("service.reports_per_s", "1/s"),
    ("service.snapshot_ms", "ms"),
    ("ledger.admit_ns", "ns"),
    ("aggregator.absorb_ns", "ns"),
    ("aggregator.snapshot_ms", "ms"),
    ("wal.append_ns.every_record", "ns"),
    ("wal.append_ns.every_n", "ns"),
    ("wal.append_ns.on_flush", "ns"),
    ("wal.fsync_ns", "ns"),
    ("wal.bytes_per_report", "bytes"),
    ("durable.checkpoint_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("recovery.replay_ns_per_record", "ns"),
    ("collector.users_per_s.w1", "1/s"),
    ("collector.users_per_s.wN", "1/s"),
    ("collector.scaling_eff", "share"),
    ("query.lower_ns_per_user", "ns"),
    ("query.repair_ms", "ms"),
    ("query.answer_ns", "ns"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_share", "share"),
    ("trace.spans", "count"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measuring time per run.
    pub seconds: Duration,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory inside the checkout.
    pub out_dir: PathBuf,
}

/// A benchmark-level error: what failed and why.
pub type BenchResult<T> = Result<T, String>;

/// Wraps an error with the operation that raised it.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (submits, flushes, recoveries, runs, queries).
    pub attempted: u64,
    /// Attempted operations that did not succeed.
    pub failed: u64,
    /// Failed exactness or accounting gates; any entry makes the run
    /// incorrect.
    pub gate_failures: Vec<String>,
    /// Reported metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Methodology fields for the header line.
    pub methodology: Obj,
    /// Workload detail for the header line (per-workload figures, sample
    /// counts, checksums).
    pub detail: Obj,
}

impl Outcome {
    /// Records a gate: `ok` or the failure message.
    pub fn gate(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(message());
        }
    }

    /// Counts one operation and its result.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Sets a metric; the first value set for a name wins, so a native
    /// measurement is never overwritten by a stand-in.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.entry(name).or_insert(value);
    }
}

/// Times `repeats` set-ups and keeps the last; returns it and the median
/// set-up time.
pub fn setup<T>(
    repeats: usize,
    mut once: impl FnMut(usize) -> BenchResult<T>,
    mut discard: impl FnMut(T),
) -> BenchResult<(T, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..repeats {
        let t0 = Instant::now();
        let made = once(i)?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(made) {
            discard(old);
        }
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

fn parse_args() -> BenchResult<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(err("--seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(err("--seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from(".bench_out"),
    })
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err("/proc/self/status"))?;
    stats::vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/mounts`).
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Worker threads the machine offers.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn run(args: &Args) -> BenchResult<Outcome> {
    std::fs::create_dir_all(&args.out_dir).map_err(err("create .bench_out"))?;
    let mut outcome = match args.workload.as_str() {
        "ingest_tcp" => ingest::ingest_tcp(args)?,
        "ingest_durable" => ingest::ingest_durable(args)?,
        "collect_batch" => collect::collect_batch(args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    outcome.metric("peak_rss_mb", peak_rss_mb()?);
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in expected {
        match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => outcome.gate_failures.push(format!("metric {name} is {v}")),
            None => outcome.gate_failures.push(format!("metric {name} missing")),
        }
    }
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for failure in &outcome.gate_failures {
        eprintln!("perfbench: gate failed: {failure}");
    }

    let mut methodology = Obj::default();
    methodology
        .str("workload", &args.workload)
        .int("seed", args.seed)
        .num("run_seconds", args.seconds.as_secs_f64())
        .bool("trace", args.trace)
        .int("available_parallelism", parallelism() as u64)
        .str("cpu_model", &cpu_model())
        .extend(outcome.methodology.clone());
    let mut header = Obj::default();
    header
        .obj("methodology", methodology)
        .obj("detail", outcome.detail.clone());
    println!("{}", header.render());

    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Obj::default();
    for (name, _) in expected {
        if let Some(&v) = outcome.metrics.get(name) {
            let mut m = Obj::default();
            m.num("value", v).str("unit", units[name]);
            metrics.obj(name, m);
        }
    }
    let mut last = Obj::default();
    last.bool(
        "correct",
        outcome.gate_failures.is_empty() && outcome.failed == 0,
    )
    .int("attempted", outcome.attempted.max(1))
    .int("failed", outcome.failed)
    .obj("metrics", metrics);
    println!("{}", last.render());
}
