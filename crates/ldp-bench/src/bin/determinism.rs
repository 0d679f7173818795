//! `determinism` — prints bit-exact pipeline estimates for diffing.
//!
//! The collection pipeline's determinism model promises that worker count
//! and steal order never change an estimate: blocks own the RNG streams and
//! the merge order. This binary makes that promise diffable. It runs both
//! protocol families over a fixed census workload with the worker counts in
//! `--workers` (comma-separated), asserts in-process that every count
//! yields identical results, and prints each estimate's exact bit pattern —
//! never the worker counts themselves — so
//!
//! ```text
//! cargo run --release -p ldp-bench --bin determinism -- --workers 1 > a.txt
//! cargo run --release -p ldp-bench --bin determinism -- --workers 7 > b.txt
//! diff a.txt b.txt
//! ```
//!
//! is an end-to-end, cross-process check of scheduler invariance. CI runs
//! exactly that pair on every change.
//!
//! The binary also exercises the session split: it reproduces every run
//! through the public `ClientEncoder`/`Aggregator` API with the per-block
//! partials merged in *reverse* order, asserts the result equals the
//! pipeline's bit for bit, and prints the session estimates into the same
//! diffable stream — so the CI diff covers the merged-partials path too.
//!
//! Finally, the range-query path: the census workload's fixed query batch
//! is answered from HDG grids collected over the lowered dataset — once per
//! worker count, once from reverse-merged session partials, once from
//! wire-served shard snapshots — and every answer's bit pattern joins the
//! diffable stream, gating grid lowering, collection, consistency repair,
//! and evidence combination end to end.

use ldp_analytics::service::{encode_report, ReportService, WireMessage};
use ldp_analytics::transport::{ReportServer, ScriptedStream, ServerConfig};
use ldp_analytics::{
    block_partition, block_rng, Aggregator, BestEffortNumeric, ClientEncoder, CollectionResult,
    Collector, Protocol, DEFAULT_SHARDS,
};
use ldp_bench::Args;
use ldp_core::rng::RngBlock;
use ldp_core::{AttrValue, Epsilon, NumericKind, OracleKind};
use ldp_data::census::generate_br;
use ldp_data::queries::br_query_workload;
use ldp_data::Dataset;
use ldp_query::{grid_protocol, GridSpec, QueryEngine};

/// Fixed workload size: small enough for CI, large enough that every shard
/// splits across categorical and numeric work.
const USERS: usize = 24_000;

fn print_result(label: &str, eps: f64, result: &CollectionResult) {
    println!("{label} eps={eps} n={}", result.n);
    for (j, mean) in &result.means {
        println!("  mean[{j}] = {:016x}", mean.to_bits());
    }
    for (j, freqs) in &result.frequencies {
        let bits: Vec<String> = freqs
            .iter()
            .map(|f| format!("{:016x}", f.to_bits()))
            .collect();
        println!("  freq[{j}] = {}", bits.join(" "));
    }
}

/// Reproduces one pipeline run through the public session API, merging the
/// per-block partial aggregates in reverse block order.
fn session_run_reversed(
    protocol: Protocol,
    eps: Epsilon,
    dataset: &Dataset,
    seed: u64,
) -> CollectionResult {
    let encoder =
        ClientEncoder::new(protocol, eps, dataset.schema().attr_specs()).expect("valid schema");
    let mut partials: Vec<Aggregator> = block_partition(dataset.n(), DEFAULT_SHARDS)
        .into_iter()
        .enumerate()
        .map(|(b, range)| {
            let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(seed, b));
            let mut agg = encoder
                .aggregator()
                .expect("valid schema")
                .with_ordinal(b as u64);
            let mut scratch = encoder.scratch();
            let mut tuple: Vec<AttrValue> = Vec::new();
            for i in range {
                dataset.canonical_tuple_into(i, &mut tuple);
                agg.absorb_with(&encoder, &tuple, &mut rng, &mut scratch)
                    .expect("valid tuple");
            }
            agg
        })
        .collect();
    partials.reverse();
    let mut total = encoder.aggregator().expect("valid schema");
    for p in partials {
        total.merge(p).expect("same session");
    }
    total.snapshot().expect("non-empty dataset")
}

/// Reproduces one pipeline run across the wire boundary: every report is
/// framed onto one of three shard byte streams (block `b` → shard
/// `b % 3`, blocks in reverse order within each stream), each served as
/// one connection by its own `ReportServer`, tree-merged, and snapshotted.
fn service_run_wire(
    protocol: Protocol,
    eps: Epsilon,
    dataset: &Dataset,
    seed: u64,
) -> CollectionResult {
    let encoder =
        ClientEncoder::new(protocol, eps, dataset.schema().attr_specs()).expect("valid schema");
    let specs = dataset.schema().attr_specs();
    let hello = WireMessage::Hello {
        protocol,
        epsilon: eps,
        specs: specs.clone(),
        epoch: 0,
    };
    let mut streams: Vec<Vec<u8>> = vec![Vec::new(); 3];
    for s in &mut streams {
        hello.write_to(s).expect("in-memory stream");
    }
    let blocks: Vec<_> = block_partition(dataset.n(), DEFAULT_SHARDS)
        .into_iter()
        .enumerate()
        .collect();
    for (b, range) in blocks.into_iter().rev() {
        let stream = &mut streams[b % 3];
        let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(seed, b));
        let mut report = encoder.empty_report();
        let mut scratch = encoder.scratch();
        let mut tuple: Vec<AttrValue> = Vec::new();
        for i in range {
            dataset.canonical_tuple_into(i, &mut tuple);
            encoder
                .encode_into(&tuple, &mut rng, &mut report, &mut scratch)
                .expect("valid tuple");
            WireMessage::Submit {
                user: i as u64,
                epoch: 0,
                block: b as u64,
                report: encode_report(&report, &specs),
            }
            .write_to(stream)
            .expect("in-memory stream");
        }
    }
    let mut shards: Vec<ReportService> = streams
        .iter()
        .map(|stream| {
            let server = ReportServer::start(ServerConfig::default());
            let summary = server
                .handle()
                .serve_stream(&mut ScriptedStream::new(stream));
            assert!(summary.fault.is_none(), "clean stream");
            assert_eq!(summary.corrupt_frames, 0, "clean stream");
            let shard = server.finish();
            assert_eq!(shard.rejected_malformed(), 0, "clean stream");
            shard
        })
        .collect();
    let s2 = shards.pop().expect("three shards");
    let mut s1 = shards.pop().expect("three shards");
    let mut s0 = shards.pop().expect("three shards");
    s1.merge(s2).expect("same session");
    s0.merge(s1).expect("same session");
    let snapshot = s0.snapshot_epoch(0).expect("validated state");
    assert_eq!(snapshot.rejected_duplicates, 0, "clean stream");
    snapshot.result.expect("non-empty dataset")
}

fn print_answers(label: &str, eps: f64, answers: &[f64]) {
    println!("{label} eps={eps} queries={}", answers.len());
    let bits: Vec<String> = answers
        .iter()
        .map(|a| format!("{:016x}", a.to_bits()))
        .collect();
    println!("  answers = {}", bits.join(" "));
}

/// The range-query path: collects HDG grids over the lowered census
/// dataset at every worker count, answers the fixed query batch, asserts
/// the answers are bit-identical across worker counts and across the
/// merged-partials and wire-service snapshot paths, and prints the bit
/// patterns for the cross-process diff.
fn query_path(dataset: &Dataset, workers: &[usize], seed: u64) {
    let schema = dataset.schema().clone();
    let attrs: Vec<usize> = ["age", "total_income", "hours_worked", "years_schooling"]
        .iter()
        .map(|a| schema.index_of(a).expect("BR schema attribute"))
        .collect();
    let batch = br_query_workload(&schema).expect("BR schema");
    for eps in [1.0f64, 4.0] {
        let epsilon = Epsilon::new(eps).expect("positive");
        let spec = GridSpec::build(&schema, &attrs, epsilon, dataset.n()).expect("valid layout");
        let lowered = spec.lower_dataset(dataset).expect("numeric attributes");
        let collector = Collector::new(grid_protocol(), epsilon);
        let mut reference: Option<Vec<f64>> = None;
        for &w in workers {
            let result = collector
                .clone()
                .with_worker_threads(w)
                .run(&lowered, seed)
                .expect("valid dataset");
            let engine = QueryEngine::from_result(spec.clone(), &result).expect("grid snapshot");
            let answers = engine.answer_batch(&batch).expect("gridded attributes");
            match &reference {
                None => reference = Some(answers),
                Some(r) => assert_eq!(
                    r.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
                    answers.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
                    "queries eps={eps}: workers={w} changed the answers"
                ),
            }
        }
        let reference = reference.expect("at least one worker count");
        print_answers("Queries(HDG)", eps, &reference);

        // Same batch from reverse-merged session partials...
        let session = session_run_reversed(grid_protocol(), epsilon, &lowered, seed);
        let engine = QueryEngine::from_result(spec.clone(), &session).expect("grid snapshot");
        let answers = engine.answer_batch(&batch).expect("gridded attributes");
        assert_eq!(
            reference.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            answers.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            "queries eps={eps}: session split changed the answers"
        );
        print_answers("Queries(HDG) [session merged-partials]", eps, &answers);

        // ...and from wire-served, tree-merged service shards.
        let service = service_run_wire(grid_protocol(), epsilon, &lowered, seed);
        let engine = QueryEngine::from_result(spec.clone(), &service).expect("grid snapshot");
        let answers = engine.answer_batch(&batch).expect("gridded attributes");
        assert_eq!(
            reference.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            answers.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            "queries eps={eps}: wire service path changed the answers"
        );
        print_answers("Queries(HDG) [service wire-merged]", eps, &answers);
    }
}

fn main() {
    let args = Args::parse();
    let workers = args.worker_sweep();
    let dataset = generate_br(USERS, args.seed ^ 0xD1FF).expect("census generator");
    for (label, protocol) in [
        (
            "Sampling(HM+OUE)",
            Protocol::Sampling {
                numeric: NumericKind::Hybrid,
                oracle: OracleKind::Oue,
            },
        ),
        (
            "BestEffort(Duchi+GRR)",
            Protocol::BestEffort {
                numeric: BestEffortNumeric::DuchiMultidim,
                oracle: OracleKind::Grr,
            },
        ),
        // Covers the unary word-histogram absorb path under composition
        // (the Duchi+GRR case above covers the direct-report fast path).
        (
            "BestEffort(Laplace+OUE)",
            Protocol::BestEffort {
                numeric: BestEffortNumeric::PerAttribute(NumericKind::Laplace),
                oracle: OracleKind::Oue,
            },
        ),
    ] {
        for eps in [1.0f64, 4.0] {
            let collector = Collector::new(protocol, Epsilon::new(eps).expect("positive"));
            let mut reference: Option<CollectionResult> = None;
            for &w in &workers {
                let result = collector
                    .clone()
                    .with_worker_threads(w)
                    .run(&dataset, args.seed)
                    .expect("valid dataset");
                match &reference {
                    None => reference = Some(result),
                    Some(r) => {
                        assert_eq!(
                            r.mean_vector(),
                            result.mean_vector(),
                            "{label} eps={eps}: workers={w} changed the means"
                        );
                        assert_eq!(
                            r.frequencies, result.frequencies,
                            "{label} eps={eps}: workers={w} changed the frequencies"
                        );
                    }
                }
            }
            let reference = reference.as_ref().expect("at least one worker count");
            print_result(label, eps, reference);

            // The session split, with partials merged out of order, must
            // reproduce the pipeline bit for bit — print it into the same
            // stream so the cross-process diff also gates this path.
            let session = session_run_reversed(
                protocol,
                Epsilon::new(eps).expect("positive"),
                &dataset,
                args.seed,
            );
            assert_eq!(
                reference.mean_vector(),
                session.mean_vector(),
                "{label} eps={eps}: session split changed the means"
            );
            assert_eq!(
                reference.frequencies, session.frequencies,
                "{label} eps={eps}: session split changed the frequencies"
            );
            print_result(&format!("{label} [session merged-partials]"), eps, &session);

            // The wire service path — framed reports over three shard
            // streams, tree-merged — must also reproduce the pipeline bit
            // for bit, and its estimates join the diffable stream.
            let service = service_run_wire(
                protocol,
                Epsilon::new(eps).expect("positive"),
                &dataset,
                args.seed,
            );
            assert_eq!(
                reference.mean_vector(),
                service.mean_vector(),
                "{label} eps={eps}: wire service path changed the means"
            );
            assert_eq!(
                reference.frequencies, service.frequencies,
                "{label} eps={eps}: wire service path changed the frequencies"
            );
            print_result(&format!("{label} [service wire-merged]"), eps, &service);
        }
    }

    query_path(&dataset, &workers, args.seed);
}
