//! Throughput bench: users/sec of the client→aggregator hot path over a
//! protocol × ε × d × k grid — the naive per-bit `reference` arm vs the
//! shipping `production` arm (`ClientEncoder` + `Aggregator::absorb_with`:
//! the client's encode, then the report service's absorb) — plus
//! wire-codec, range-query and `--workers` pipeline sections.
//!
//! Prints a human-readable table and, with `--out FILE`, writes the JSON
//! report (the `BENCH_throughput.json` trajectory artifact). The write is
//! atomic (temp file + rename in the target directory), so a killed run can
//! never leave a truncated artifact that a later existence check
//! half-passes.

use ldp_bench::{emit, throughput, write_atomic, Args};

fn main() {
    let args = Args::parse();
    let report = throughput::run(&args);
    emit("throughput", &report.render());
    if let Some(path) = &args.out {
        write_atomic(path, &report.to_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}
