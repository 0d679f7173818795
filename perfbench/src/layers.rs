//! Per-layer measurements taken by calling each layer's public functions
//! directly on the run's own inputs: client encode, frame codec, service,
//! ledger, aggregator, WAL under each fsync policy, checkpoint and replay,
//! the collector at 1 and N workers, and the HDG query path. Each figure
//! is the median of [`PASSES`] passes.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ldp::analytics::durable::{
    CrashSchedule, DurableConfig, DurableService, FsyncPolicy, Recovery, WalHeader, WalWriter,
    CHECKPOINT_FILE,
};
use ldp::analytics::service::{decode_report, encode_report, ServiceConfig, WireMessage};
use ldp::analytics::{block_partition, block_rng, BudgetLedger, ClientEncoder, Collector};
use ldp::analytics::{ReportService, DEFAULT_SHARDS};
use ldp::core::rng::RngBlock;
use ldp::core::AttrValue;
use ldp::data::queries::br_query_workload;
use ldp::data::{Dataset, RangeQuery};
use ldp::query::{grid_protocol, GridSpec, QueryEngine};

use crate::ingest::{epsilon, result_bits, Population, PROTOCOL};
use crate::stats::median;
use crate::trace::Recorder;
use crate::{err, BenchResult, Outcome};

/// Passes behind every per-layer median.
const PASSES: usize = 3;
/// Records appended under `FsyncPolicy::EveryRecord` (each one an fsync).
const SYNCED_APPENDS: usize = 1024;
/// Group size of the `EveryN` policy measured.
const WAL_GROUP: u64 = 64;

fn med(mut pass: impl FnMut() -> BenchResult<f64>) -> BenchResult<f64> {
    let samples = (0..PASSES)
        .map(|_| pass())
        .collect::<BenchResult<Vec<f64>>>()?;
    Ok(median(&samples))
}

fn per_op_ns(t0: Instant, ops: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// The in-process layers on `pop`'s reports; `durable_standins` adds
/// checkpoint and replay on a scratch durable directory for workloads
/// that leave none behind.
pub fn in_process(
    pop: &Population,
    dir: &Path,
    durable_standins: bool,
    outcome: &mut Outcome,
) -> BenchResult<()> {
    std::fs::create_dir_all(dir).map_err(err("layers dir"))?;
    let submits = pop.submits(0);
    let n = submits.len();
    let specs = &pop.specs;
    let encoder = ClientEncoder::new(PROTOCOL, epsilon(), specs.clone()).map_err(err("encoder"))?;

    // session: encode_into + encode_report, per user.
    let tuples: Vec<Vec<AttrValue>> = (0..pop.users())
        .map(|i| {
            let mut t = Vec::new();
            pop.dataset.canonical_tuple_into(i, &mut t);
            t
        })
        .collect();
    let encode_ns = med(|| {
        let mut report = encoder.empty_report();
        let mut scratch = encoder.scratch();
        let t0 = Instant::now();
        for (b, range) in block_partition(tuples.len(), DEFAULT_SHARDS)
            .into_iter()
            .enumerate()
        {
            let mut rng: RngBlock<_> = RngBlock::new(block_rng(pop.seed, b));
            for tuple in &tuples[range] {
                encoder
                    .encode_into(tuple, &mut rng, &mut report, &mut scratch)
                    .map_err(err("encode_into"))?;
                black_box(encode_report(&report, specs));
            }
        }
        Ok(per_op_ns(t0, tuples.len()))
    })?;
    outcome.metric("session.encode_ns", encode_ns);

    // frame: WireMessage::write_to / read_from on the run's submits.
    let mut wire = Vec::new();
    let write_ns = med(|| {
        wire.clear();
        let t0 = Instant::now();
        for m in &submits {
            m.write_to(&mut wire).map_err(err("write_to"))?;
        }
        Ok(per_op_ns(t0, n))
    })?;
    let mut decoded = Vec::with_capacity(n);
    let read_ns = med(|| {
        decoded.clear();
        let mut cursor = wire.as_slice();
        let mut scratch = Vec::new();
        let t0 = Instant::now();
        while let Some(m) =
            WireMessage::read_from(&mut cursor, &mut scratch).map_err(err("read_from"))?
        {
            decoded.push(m);
        }
        Ok(per_op_ns(t0, n))
    })?;
    outcome.gate(decoded == submits, || {
        "frame round trip changed a submit".into()
    });
    outcome.metric("frame.write_ns", write_ns);
    outcome.metric("frame.read_ns", read_ns);
    outcome.metric("frame.bytes_per_report", wire.len() as f64 / n as f64);

    // service: ReportService::handle per submit, then snapshot_epoch.
    let reference = result_bits(&pop.reference()?);
    let mut service = None;
    let handle_ns = med(|| {
        let mut svc = ReportService::new(ServiceConfig::default());
        svc.handle(&pop.hello()).map_err(err("hello"))?;
        let t0 = Instant::now();
        for m in &submits {
            svc.handle(m).map_err(err("handle"))?;
        }
        let ns = per_op_ns(t0, n);
        service = Some(svc);
        Ok(ns)
    })?;
    let service = service.expect("at least one pass");
    let snapshot_ms = med(|| {
        let t0 = Instant::now();
        let snap = service.snapshot_epoch(0).map_err(err("snapshot_epoch"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        outcome.gate(
            snap.result.as_ref().map(result_bits) == Some(reference.clone()),
            || "in-process service snapshot differs from Collector::run".into(),
        );
        Ok(ms)
    })?;
    outcome.metric("service.handle_ns", handle_ns);
    outcome.metric("service.reports_per_s", 1e9 / handle_ns);
    outcome.metric("service.snapshot_ms", snapshot_ms);

    // ledger: BudgetLedger::admit per user.
    let users: Vec<u64> = pop.lanes.iter().flatten().map(|p| p.user).collect();
    let admit_ns = med(|| {
        let mut ledger = BudgetLedger::with_key(ServiceConfig::default().ledger_key);
        let t0 = Instant::now();
        for &u in &users {
            ledger.admit(u, 0).map_err(err("admit"))?;
        }
        Ok(per_op_ns(t0, users.len()))
    })?;
    outcome.metric("ledger.admit_ns", admit_ns);

    // aggregator: Aggregator::absorb per decoded report, then snapshot.
    let reports = pop
        .lanes
        .iter()
        .flatten()
        .map(|p| {
            Ok((
                p.block,
                decode_report(PROTOCOL, specs, &p.report).map_err(err("decode_report"))?,
            ))
        })
        .collect::<BenchResult<Vec<_>>>()?;
    let mut aggregate = None;
    let absorb_ns = med(|| {
        let mut agg = encoder.aggregator().map_err(err("aggregator"))?;
        let t0 = Instant::now();
        for (block, report) in &reports {
            agg.set_ordinal(*block);
            agg.absorb(report).map_err(err("absorb"))?;
        }
        let ns = per_op_ns(t0, reports.len());
        aggregate = Some(agg);
        Ok(ns)
    })?;
    let aggregate = aggregate.expect("at least one pass");
    let agg_snapshot_ms = med(|| {
        let t0 = Instant::now();
        black_box(aggregate.snapshot().map_err(err("snapshot"))?);
        Ok(t0.elapsed().as_secs_f64() * 1e3)
    })?;
    outcome.metric("aggregator.absorb_ns", absorb_ns);
    outcome.metric("aggregator.snapshot_ms", agg_snapshot_ms);

    wal(dir, pop, &submits, outcome)?;
    if durable_standins {
        durable(dir, pop, &submits, outcome)?;
    }
    Ok(())
}

/// `WalWriter::append` under each fsync policy, `sync` on its own, and the
/// log bytes per record.
fn wal(
    dir: &Path,
    pop: &Population,
    submits: &[WireMessage],
    outcome: &mut Outcome,
) -> BenchResult<()> {
    let header = WalHeader {
        protocol: PROTOCOL,
        epsilon: epsilon(),
        specs: pop.specs.clone(),
        base_epoch: 0,
        ledger_key: ServiceConfig::default().ledger_key,
        run_seed: pop.seed,
    };
    let mut no_crash: Option<CrashSchedule> = None;
    let policies: [(&'static str, FsyncPolicy, usize); 3] = [
        (
            "wal.append_ns.every_record",
            FsyncPolicy::EveryRecord,
            SYNCED_APPENDS,
        ),
        (
            "wal.append_ns.every_n",
            FsyncPolicy::EveryN(WAL_GROUP),
            submits.len(),
        ),
        (
            "wal.append_ns.on_flush",
            FsyncPolicy::OnFlush,
            submits.len(),
        ),
    ];
    for (name, policy, count) in policies {
        let count = count.min(submits.len());
        let path = dir.join("wal.log");
        let mut bytes = 0.0;
        let ns = med(|| {
            let mut w =
                WalWriter::create(&path, &header, policy).map_err(err("WalWriter::create"))?;
            let base = std::fs::metadata(&path).map_err(err("wal size"))?.len();
            let t0 = Instant::now();
            for m in &submits[..count] {
                w.append(m, &mut no_crash).map_err(err("append"))?;
            }
            let ns = per_op_ns(t0, count);
            w.sync(&mut no_crash).map_err(err("sync"))?;
            let len = std::fs::metadata(&path).map_err(err("wal size"))?.len();
            bytes = (len - base) as f64 / count as f64;
            Ok(ns)
        })?;
        outcome.metric(name, ns);
        outcome.metric("wal.bytes_per_report", bytes);
    }
    let path = dir.join("wal-sync.log");
    let mut w = WalWriter::create(&path, &header, FsyncPolicy::OnFlush)
        .map_err(err("WalWriter::create"))?;
    let mut syncs = Vec::with_capacity(SYNCED_APPENDS);
    for m in submits.iter().take(SYNCED_APPENDS) {
        w.append(m, &mut no_crash).map_err(err("append"))?;
        let t0 = Instant::now();
        w.sync(&mut no_crash).map_err(err("sync"))?;
        syncs.push(t0.elapsed().as_nanos() as f64);
    }
    outcome.metric("wal.fsync_ns", median(&syncs));
    Ok(())
}

/// `DurableService::checkpoint` and `Recovery::replay` on a scratch
/// directory holding one epoch of the run's submits.
fn durable(
    dir: &Path,
    pop: &Population,
    submits: &[WireMessage],
    outcome: &mut Outcome,
) -> BenchResult<()> {
    let dir = dir.join("durable");
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurableConfig {
        fsync: FsyncPolicy::OnFlush,
        run_seed: pop.seed,
        ..DurableConfig::default()
    };
    let (mut svc, _) = DurableService::open(&dir, config.clone()).map_err(err("open"))?;
    svc.handle(&pop.hello()).map_err(err("hello"))?;
    for m in submits {
        svc.handle(m).map_err(err("handle"))?;
    }
    svc.flush().map_err(err("flush"))?;
    drop(svc);
    let replay = med(|| {
        let t0 = Instant::now();
        let (_, _, report) = Recovery::replay(&dir, &config).map_err(err("replay"))?;
        outcome.gate(report.wal_replayed == submits.len() as u64, || {
            format!(
                "replay applied {} of {} records",
                report.wal_replayed,
                submits.len()
            )
        });
        Ok(per_op_ns(t0, submits.len()))
    })?;
    outcome.metric("recovery.replay_ns_per_record", replay);
    let (mut svc, _) = DurableService::open(&dir, config).map_err(err("open"))?;
    let checkpoint_ms = med(|| {
        let t0 = Instant::now();
        svc.checkpoint().map_err(err("checkpoint"))?;
        Ok(t0.elapsed().as_secs_f64() * 1e3)
    })?;
    outcome.metric("durable.checkpoint_ms", checkpoint_ms);
    let bytes = std::fs::metadata(dir.join(CHECKPOINT_FILE)).map_err(err("checkpoint size"))?;
    outcome.metric("checkpoint.bytes", bytes.len() as f64);
    Ok(())
}

/// `Collector::run` on the census at 1 worker and at
/// `available_parallelism` workers; every run's estimate must be
/// bit-identical.
pub fn collector(dataset: &Dataset, seed: u64, outcome: &mut Outcome) -> BenchResult<()> {
    let workers = crate::parallelism();
    let mut reference: Option<Vec<u64>> = None;
    let mut rate = |w: usize, outcome: &mut Outcome| {
        med(|| {
            let t0 = Instant::now();
            let r = Collector::new(PROTOCOL, epsilon())
                .with_worker_threads(w)
                .run(dataset, seed)
                .map_err(err("Collector::run"))?;
            let rate = dataset.n() as f64 / t0.elapsed().as_secs_f64();
            let bits = result_bits(&r);
            let same = reference.get_or_insert_with(|| bits.clone()) == &bits;
            outcome.gate(same, || {
                format!("Collector::run at {w} workers changed the estimate")
            });
            Ok(rate)
        })
    };
    let w1 = rate(1, outcome)?;
    let wn = rate(workers, outcome)?;
    outcome.metric("collector.users_per_s.w1", w1);
    outcome.metric("collector.users_per_s.wN", wn);
    outcome.metric("collector.scaling_eff", wn / (w1 * workers as f64));
    Ok(())
}

/// The grid layout and query workload of the HDG path.
pub fn query_setup(dataset: &Dataset) -> BenchResult<(GridSpec, Vec<RangeQuery>)> {
    let schema = dataset.schema();
    let attrs = ["age", "total_income", "hours_worked", "years_schooling"]
        .iter()
        .map(|a| {
            schema
                .index_of(a)
                .ok_or_else(|| format!("BR schema lacks {a}"))
        })
        .collect::<BenchResult<Vec<usize>>>()?;
    let spec =
        GridSpec::build(schema, &attrs, epsilon(), dataset.n()).map_err(err("GridSpec::build"))?;
    let queries = br_query_workload(schema).map_err(err("br_query_workload"))?;
    Ok((spec, queries))
}

/// Timings of one pass of the HDG path.
#[derive(Debug, Clone, Copy)]
pub struct QueryTimes {
    /// `GridSpec::lower_dataset`, s.
    pub lower_s: f64,
    /// `QueryEngine::from_result` (repair), s.
    pub repair_s: f64,
    /// `answer_batch` over the workload, s.
    pub answer_s: f64,
    /// Lower → collect → repair → answer, s.
    pub total_s: f64,
}

/// One pass of the HDG path: lower → collect → repair → answer. Spans go
/// to `rec` under `id` when given.
pub fn query_job(
    dataset: &Dataset,
    spec: &GridSpec,
    queries: &[RangeQuery],
    seed: u64,
    workers: usize,
    mut rec: Option<(&mut Recorder, u64)>,
) -> BenchResult<(QueryTimes, QueryEngine, Vec<f64>)> {
    let t0 = Instant::now();
    let lowered = spec.lower_dataset(dataset).map_err(err("lower_dataset"))?;
    let t1 = Instant::now();
    let result = Collector::new(grid_protocol(), epsilon())
        .with_worker_threads(workers)
        .run(&lowered, seed)
        .map_err(err("Collector::run(grid)"))?;
    let t2 = Instant::now();
    let engine = QueryEngine::from_result(spec.clone(), &result).map_err(err("from_result"))?;
    let t3 = Instant::now();
    let answers = engine.answer_batch(queries).map_err(err("answer_batch"))?;
    let t4 = Instant::now();
    drop(lowered);
    if let Some((rec, id)) = rec.as_mut() {
        rec.push("query.job", *id, None, t0, t4);
        rec.push("query.lower", *id, Some("query.job"), t0, t1);
        rec.push("query.collect", *id, Some("query.job"), t1, t2);
        rec.push("query.repair", *id, Some("query.job"), t2, t3);
        rec.push("query.answer", *id, Some("query.job"), t3, t4);
    }
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((
        QueryTimes {
            lower_s: s(t0, t1),
            repair_s: s(t2, t3),
            answer_s: s(t3, t4),
            total_s: s(t0, t4),
        },
        engine,
        answers,
    ))
}

/// The query layer metrics from pass timings.
pub fn report_query(times: &[QueryTimes], users: usize, queries: usize, outcome: &mut Outcome) {
    let pick = |f: fn(&QueryTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    outcome.metric(
        "query.lower_ns_per_user",
        pick(|t| t.lower_s) * 1e9 / users as f64,
    );
    outcome.metric("query.repair_ms", pick(|t| t.repair_s) * 1e3);
    outcome.metric(
        "query.answer_ns",
        pick(|t| t.answer_s) * 1e9 / queries as f64,
    );
}

/// The HDG path on `dataset` at 1 worker; answers must repeat exactly.
pub fn query(dataset: &Dataset, seed: u64, outcome: &mut Outcome) -> BenchResult<()> {
    let (spec, queries) = query_setup(dataset)?;
    let mut times = Vec::new();
    let mut first: Option<Vec<u64>> = None;
    for _ in 0..PASSES {
        let (t, _, answers) = query_job(dataset, &spec, &queries, seed, 1, None)?;
        let bits: Vec<u64> = answers.iter().map(|a| a.to_bits()).collect();
        let same = first.get_or_insert_with(|| bits.clone()) == &bits;
        outcome.gate(same, || "HDG answers changed between passes".into());
        times.push(t);
    }
    report_query(&times, dataset.n(), queries.len(), outcome);
    Ok(())
}
