//! `collect_batch`: collection and analysis in process, with no socket and
//! no disk — the workload on which transport and durability changes should
//! move nothing.
//!
//! Each iteration runs the census `Collector::run` at 1 worker on
//! [`COLLECT_USERS`] users, then the HDG path on the same population:
//! `lower_dataset` → `Collector::run(grid_protocol())` →
//! `QueryEngine::from_result` → `answer_batch(br_query_workload)`. Census
//! domains (k ≤ 27) mostly take `absorb_with`'s per-hit route; the lowered
//! grids (k up to 64, g2² = 256) take the word-plane route.
//!
//! End-to-end metrics, each the best of the run's iterations:
//! `throughput_per_s` is census users per second at 1 worker;
//! `latency_p50_us` times answering one range query of the workload
//! (`answer_batch` on it, planning included; the detail line adds the
//! p99, a median over iterations); `finish_s` is the HDG path's wall time.

use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use ldp::analytics::Collector;
use ldp::data::census::generate_br;

use crate::ingest::{self, epsilon, result_bits, PROTOCOL};
use crate::layers::{self, query_job, QueryTimes};
use crate::pass::{run_pass, Endpoint, EpochSpec};
use crate::stats::{checksum, fastest, is_supported, median, percentile};
use crate::trace::{reconcile, write_csv, Recorder, Tree};
use crate::{err, setup, Args, BenchResult, Outcome};

/// Census users per collection: 2^20, 64 blocks.
pub const COLLECT_USERS: usize = 1 << 20;
/// Passes over the query workload per iteration, each query timed on its
/// own. A sub-µs call is rarely hit by an interrupt, so its p99 reflects
/// the engine; a call over the whole workload lasts long enough that the
/// share hit by interrupts sits near 1% and its p99 jumps between runs.
const ANSWER_REPEATS: usize = 2_000;
/// Set-ups timed per run (each generates the full census sample).
const SETUP_REPEATS: usize = 3;
/// Fewest iterations a run reports on.
const MIN_ITERATIONS: usize = 5;
/// Users per epoch of the small socket pass and the in-process layers in
/// a traced run (this workload has no socket of its own).
const SWEEP_USERS: usize = 16_384;

/// Runs the workload.
pub fn collect_batch(args: &Args) -> BenchResult<Outcome> {
    let mut outcome = Outcome::default();
    outcome
        .methodology
        .str("loop", "in process: no socket, no disk")
        .int("users", COLLECT_USERS as u64)
        .int("timed_workers", 1)
        .int("setup_repeats", SETUP_REPEATS as u64)
        .str(
            "protocol",
            "Sampling{Hybrid, Oue}, eps=1, BR census; HDG grids via grid_protocol()",
        )
        .int("answer_repeats_per_iteration", ANSWER_REPEATS as u64);
    let ((dataset, spec, queries), setup_s) = setup(
        SETUP_REPEATS,
        |_| {
            let dataset = generate_br(COLLECT_USERS, args.seed).map_err(err("generate_br"))?;
            let (spec, queries) = layers::query_setup(&dataset)?;
            Ok((dataset, spec, queries))
        },
        drop,
    )?;
    outcome.metric("setup_s", setup_s);
    let n = dataset.n();
    let census = Collector::new(PROTOCOL, epsilon()).with_worker_threads(1);

    // Warm-up, untimed: the first run in a process is slower. Its outputs
    // are the references every later run must reproduce bit for bit.
    let reference = result_bits(
        &census
            .run(&dataset, args.seed)
            .map_err(err("Collector::run"))?,
    );
    outcome.op(true);
    let (_, _, answers) = query_job(&dataset, &spec, &queries, args.seed, 1, None)?;
    outcome.op(true);
    let answer_bits: Vec<u64> = answers.iter().map(|a| a.to_bits()).collect();

    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let mut run_times = Vec::new();
    let mut jobs: Vec<(bool, QueryTimes)> = Vec::new();
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i < MIN_ITERATIONS || start.elapsed() < args.seconds {
        let traced = args.trace && i % 2 == 1;
        let t0 = Instant::now();
        let run = census.run(&dataset, args.seed);
        let dt = t0.elapsed().as_secs_f64();
        outcome.op(run.is_ok());
        if let Ok(r) = run {
            outcome.gate(result_bits(&r) == reference, || {
                format!("census estimate changed on iteration {i}")
            });
            if !traced {
                run_times.push(dt);
            }
        }
        let job = query_job(
            &dataset,
            &spec,
            &queries,
            args.seed,
            1,
            traced.then_some((&mut rec, i as u64)),
        );
        outcome.op(job.is_ok());
        let (times, engine, answers) = job?;
        outcome.gate(
            answers.iter().map(|a| a.to_bits()).collect::<Vec<_>>() == answer_bits,
            || format!("HDG answers changed on iteration {i}"),
        );
        jobs.push((traced, times));
        if !traced {
            let mut sample = Vec::with_capacity(ANSWER_REPEATS * queries.len());
            for _ in 0..ANSWER_REPEATS {
                for q in &queries {
                    let t0 = Instant::now();
                    let a = engine.answer_batch(std::slice::from_ref(q));
                    sample.push(t0.elapsed().as_nanos() as f64 / 1e3);
                    outcome.op(a.is_ok());
                    black_box(a.ok());
                }
            }
            sample.sort_by(f64::total_cmp);
            latencies.push(sample);
        }
        i += 1;
    }
    outcome.methodology.int("iterations", i as u64);

    // Worker count never changes a bit: re-run both collections at N.
    let workers = crate::parallelism();
    let wide = census
        .clone()
        .with_worker_threads(workers)
        .run(&dataset, args.seed);
    outcome.op(wide.is_ok());
    outcome.gate(wide.is_ok_and(|r| result_bits(&r) == reference), || {
        format!("census estimate differs at {workers} workers")
    });
    let wide_job = query_job(&dataset, &spec, &queries, args.seed, workers, None);
    outcome.op(wide_job.is_ok());
    outcome.gate(
        wide_job.is_ok_and(|(_, _, a)| {
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>() == answer_bits
        }),
        || format!("HDG answers differ at {workers} workers"),
    );

    // Each iteration is one trial of CPU-bound work; the reported figures
    // are the fastest trial's (see `stats::fastest`), except the p99: a
    // trial's p99 is itself a tail estimate, and the lowest of ~20 of them
    // rewards the luckiest trial, so the median over trials is steadier.
    let untraced: Vec<QueryTimes> = jobs.iter().filter(|(t, _)| !t).map(|(_, q)| *q).collect();
    let query_times: Vec<f64> = untraced.iter().map(|q| q.total_s).collect();
    let users_per_s = COLLECT_USERS as f64 / fastest(&run_times);
    let query_s = fastest(&query_times);
    outcome.metric("throughput_per_s", users_per_s);
    outcome.metric("finish_s", query_s);
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for sample in &latencies {
        let (p50, p99) = (percentile(sample, 0.5), percentile(sample, 0.99));
        outcome.gate(is_supported(&p99), || {
            format!("query p99 has only {} samples beyond it", p99.beyond)
        });
        p50s.push(p50.value);
        p99s.push(p99.value);
    }
    let (best_p50, median_p99) = (fastest(&p50s), median(&p99s));
    outcome.metric("latency_p50_us", best_p50);
    outcome
        .detail
        .num("users_per_s_best", users_per_s)
        .num("users_per_s_median", n as f64 / median(&run_times))
        .num("query_s_best", query_s)
        .num("query_s_median", median(&query_times))
        .num("answer_p50_us_best", best_p50)
        .num("answer_p99_us_median", median_p99)
        .int(
            "answer_samples_per_iteration",
            (ANSWER_REPEATS * queries.len()) as u64,
        )
        .nums("iteration_run_s", &run_times)
        .nums("iteration_query_s", &query_times)
        .nums("iteration_answer_p50_us", &p50s)
        .nums("iteration_answer_p99_us", &p99s)
        .str(
            "estimate_checksum",
            &format!("{:016x}", checksum(&reference)),
        )
        .str(
            "answer_checksum",
            &format!("{:016x}", checksum(&answer_bits)),
        );

    if args.trace {
        let traced: Vec<QueryTimes> = jobs.iter().filter(|(t, _)| *t).map(|(_, q)| *q).collect();
        let totals = |v: &[QueryTimes]| median(&v.iter().map(|q| q.total_s).collect::<Vec<_>>());
        outcome.metric(
            "trace.overhead_share",
            totals(&traced) / totals(&untraced) - 1.0,
        );
        layers::report_query(&traced, n, queries.len(), &mut outcome);
        let spans = rec.into_spans();
        match Tree::build(&spans).and_then(|t| reconcile(&t, "query.job")) {
            Ok(r) => outcome.metric("trace.unattributed_share", r.unattributed_share()),
            Err(e) => outcome.gate(false, || format!("trace: {e}")),
        }
        outcome.metric("trace.spans", spans.len() as f64);
        let file = args.out_dir.join("trace-collect_batch.csv");
        if let Err(e) = write_csv(&file, &spans) {
            outcome.gate(false, || format!("writing {}: {e}", file.display()));
        }
        layers::collector(&dataset, args.seed, &mut outcome)?;
        drop(dataset);
        socket_layers(args, &mut outcome)?;
    }
    Ok(outcome)
}

/// The transport and storage layers this workload does not exercise,
/// measured on a small population: one warm-up epoch, then one untraced
/// and one traced epoch over loopback TCP, then the in-process layers.
fn socket_layers(args: &Args, outcome: &mut Outcome) -> BenchResult<()> {
    let pop = ingest::prepare(SWEEP_USERS, args.seed, crate::parallelism())?;
    let on = Arc::new(AtomicBool::new(false));
    let endpoint = Endpoint::plain(Some(Arc::clone(&on)))?;
    let stats = endpoint.stats();
    let origin = Instant::now();
    let pass = run_pass(&pop, endpoint.addr(), true, &on, origin, &mut |done| {
        (done < 3).then_some(EpochSpec {
            epoch: done as u64,
            traced: done == 2,
            flush: true,
            measured: true,
        })
    });
    outcome.attempted += pass.attempted;
    outcome.failed += pass.failed;
    let (_, logs) = endpoint.finish();
    let file = args.out_dir.join("trace-collect_batch-socket.csv");
    ingest::transport_layers(&pass, &logs, &stats, origin, &file, outcome);
    let dir = args.out_dir.join(format!("layers-{}", std::process::id()));
    let r = layers::in_process(&pop, &dir, true, outcome);
    let _ = std::fs::remove_dir_all(&dir);
    r
}
