//! Distributed collection with the session API: two aggregator shards,
//! each consuming a disjoint slice of the user population, merged into one
//! result that is bit-identical to a single-process `Collector::run`.
//!
//! ```text
//! cargo run --release --example distributed_collection
//! ```
//!
//! The pieces:
//!
//! * every *client* holds a [`ClientEncoder`] built from public knowledge
//!   (protocol, ε, schema) and submits one [`Report`];
//! * each *shard* owns an [`Aggregator`] per block of the public
//!   [`block_partition`], keyed by the block index as its merge ordinal;
//! * shards merge in an arbitrary order — the ordinal-keyed fold makes the
//!   merged snapshot bit-identical to the canonical block-order fold, which
//!   is exactly what `Collector::run` computes.

use ldp::analytics::{block_partition, block_rng, Aggregator, ClientEncoder, Collector, Protocol};
use ldp::core::rng::RngBlock;
use ldp::core::{AttrValue, Epsilon, LdpError, NumericKind, OracleKind};
use ldp::data::census::generate_br;
use ldp::data::Dataset;

/// One collection shard: drives the blocks it owns through the session API,
/// exactly as a separate process (or machine) would.
fn run_shard(
    encoder: &ClientEncoder,
    dataset: &Dataset,
    blocks: &[(usize, std::ops::Range<usize>)],
    seed: u64,
) -> Result<Aggregator, LdpError> {
    let mut shard = encoder.aggregator()?;
    for (b, range) in blocks {
        // The block index is both the RNG-stream id and the merge ordinal:
        // the whole determinism contract in two numbers.
        let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(seed, *b));
        let mut agg = encoder.aggregator()?.with_ordinal(*b as u64);
        let mut report = encoder.empty_report();
        let mut scratch = encoder.scratch();
        let mut tuple: Vec<AttrValue> = Vec::new();
        for i in range.clone() {
            dataset.canonical_tuple_into(i, &mut tuple);
            // Client side: one record in, one ε-LDP report out…
            encoder.encode_into(&tuple, &mut rng, &mut report, &mut scratch)?;
            // …server side: absorb it. In a real deployment the report
            // would be serialized in between; nothing else crosses.
            agg.absorb(&report)?;
        }
        shard.merge(agg)?;
    }
    Ok(shard)
}

fn main() -> Result<(), LdpError> {
    let n = 30_000;
    let seed = 11;
    let dataset = generate_br(n, 5)?;
    let eps = Epsilon::new(1.0)?;
    let protocol = Protocol::Sampling {
        numeric: NumericKind::Hybrid,
        oracle: OracleKind::Oue,
    };
    println!(
        "BR-like census: n = {n}, d = {}, ε = {} — collected by two shards\n",
        dataset.schema().d(),
        eps.value()
    );

    let encoder = ClientEncoder::new(protocol, eps, dataset.schema().attr_specs())?;

    // The public block plan, split between two shards (odd/even blocks, so
    // neither shard owns a contiguous ordinal range — the fold still comes
    // out in canonical order).
    let blocks: Vec<(usize, std::ops::Range<usize>)> =
        block_partition(n, 16).into_iter().enumerate().collect();
    let (shard_a_blocks, shard_b_blocks): (Vec<_>, Vec<_>) =
        blocks.into_iter().partition(|(b, _)| b % 2 == 0);

    let shard_a = run_shard(&encoder, &dataset, &shard_a_blocks, seed)?;
    let shard_b = run_shard(&encoder, &dataset, &shard_b_blocks, seed)?;
    println!(
        "shard A absorbed {} users in {} partials; shard B {} users in {} partials",
        shard_a.users(),
        shard_a.partials(),
        shard_b.users(),
        shard_b.partials()
    );

    // Merge B before A: the order does not matter.
    let mut total = encoder.aggregator()?;
    total.merge(shard_b)?;
    total.merge(shard_a)?;
    let merged = total.snapshot()?;

    // The single-process pipeline computes the same thing…
    let reference = Collector::new(protocol, eps).run(&dataset, seed)?;

    // …and not just approximately: bit for bit.
    assert_eq!(reference.mean_vector(), merged.mean_vector());
    assert_eq!(reference.frequencies, merged.frequencies);
    println!("\nmerged shards == single-process pipeline, bit for bit ✓\n");

    println!("per-attribute mean estimates (normalized scale):");
    for (j, est) in merged.means.iter().take(4) {
        let name = &dataset.schema().attribute(*j).name;
        let truth = dataset.true_mean(*j)?;
        println!("  {name:>16}: {est:>8.4}  (truth {truth:>8.4})");
    }
    Ok(())
}
