//! End-to-end collection pipelines: dataset in, estimates out.
//!
//! Two protocol families, matching §VI-A's experimental setup:
//!
//! * [`Protocol::Sampling`] — the paper's proposal: Algorithm 4 over the
//!   full mixed schema, PM or HM for numeric attributes, a frequency oracle
//!   (OUE) for categorical ones, each sampled attribute at `ε/k`.
//! * [`Protocol::BestEffort`] — the best-effort combination of prior work:
//!   the numeric block gets `ε·d_num/d` (spent either per-attribute at `ε/d`
//!   via Laplace/SCDF/Staircase, or jointly via Duchi et al.'s Algorithm 3),
//!   and every categorical attribute gets `ε/d` through the oracle.
//!
//! ## Determinism model and scheduling
//!
//! A run's random draws are fully determined by three fixed quantities —
//! the shard count ([`DEFAULT_SHARDS`] unless overridden), the block size
//! ([`BLOCK_USERS`]), and the run seed. Each shard's contiguous user range
//! is chopped into blocks of at most [`BLOCK_USERS`] users; block `b` (in
//! user order) draws from an RNG seeded by `(run seed, b)` and accumulates
//! into its own local accumulators, which are merged in block order at the
//! end. Worker threads are pure *schedulers*: a deterministic work-stealing
//! runner ([`run_blocks`]) hands blocks to whichever worker is idle (a shared atomic cursor
//! — idle workers steal the remaining blocks), so neither the worker count
//! nor the steal order can change a single bit of any estimate. That
//! invariant is what makes default-configuration runs reproducible across
//! machines with different core counts, and it is enforced in CI by a job
//! that diffs runs under different `--workers` values.
//!
//! The per-user loop is the system's hot path and is allocation-free in
//! steady state: each block wraps its seeded generator in an
//! [`ldp_core::rng::RngBlock`] (one monomorphized batched refill instead of
//! a virtual call per draw) and drives the session API's
//! [`Aggregator::absorb_with`] with caller-owned scratch — fully
//! monomorphized over the batched rng. Each user's report is encoded into
//! one recycled buffer and counted by the absorb the report service runs
//! on every wire report: dense unary reports whole 64-bit words at a time
//! in the [`crate::FrequencyAccumulator`]'s bit-sliced
//! [`crate::WordHistogram`] plane, sparse ones by their set bits, and GRR
//! reports by one increment — so a report never pays an O(k) support
//! loop.
//!
//! [`Collector::run`] itself is a thin driver over the public
//! [`ClientEncoder`]/[`Aggregator`] session API: one encoder shared by all
//! blocks, one [`Aggregator`] partial per block (keyed by the block index
//! as its merge ordinal), merged and snapshotted at the end. Everything it
//! does can be reproduced — bit for bit — with the session API and the
//! public [`block_partition`]/[`block_rng`] helpers; the `proptest_session`
//! suite and the `distributed_collection` example do exactly that.

use crate::session::{Aggregator, ClientEncoder};
use ldp_core::rng::{seeded_rng, RngBlock};
use ldp_core::{AttrValue, Epsilon, LdpError, NumericKind, OracleKind, Result};
use ldp_data::Dataset;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default number of simulation shards.
///
/// Fixed (rather than derived from `available_parallelism`) so that
/// default-configuration runs are bit-for-bit reproducible across machines:
/// shards define the contiguous user ranges the seeded blocks partition, so
/// the shard count is part of the experiment's definition, not a hardware
/// detail. Override with [`Collector::with_shards`].
pub const DEFAULT_SHARDS: usize = 16;

/// Maximum users per scheduling block.
///
/// Blocks are the unit of both seeding and scheduling: each shard range is
/// chopped into blocks of at most this many users, block `b` draws from an
/// RNG derived from `(run seed, b)`, and the work-stealing runner hands
/// whole blocks to idle workers. The value is part of the determinism model
/// (changing it re-partitions the RNG streams), chosen so that typical
/// experiment sizes leave each shard a single block while paper-scale runs
/// (millions of users) still split into enough blocks to load-balance.
pub const BLOCK_USERS: usize = 16_384;

/// How the best-effort baseline spends the numeric block's budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BestEffortNumeric {
    /// Each numeric attribute independently at `ε/d` (Laplace, SCDF,
    /// Staircase, or any other 1-D mechanism).
    PerAttribute(NumericKind),
    /// The whole numeric sub-tuple jointly via Duchi et al.'s Algorithm 3 at
    /// `ε·d_num/d`.
    DuchiMultidim,
}

/// A complete collection protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's Algorithm 4 (+ §IV-C mixed-type extension).
    Sampling {
        /// 1-D mechanism for numeric attributes (paper: PM or HM).
        numeric: NumericKind,
        /// Frequency oracle for categorical attributes (paper: OUE).
        oracle: OracleKind,
    },
    /// Budget-splitting combination of existing methods (§VI-A baseline).
    BestEffort {
        /// Treatment of the numeric block.
        numeric: BestEffortNumeric,
        /// Frequency oracle, applied per categorical attribute at `ε/d`.
        oracle: OracleKind,
    },
}

impl Protocol {
    /// A short display name for experiment tables ("PM", "HM",
    /// "Laplace", "Duchi", …), matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            Protocol::Sampling { numeric, .. } => numeric.name().to_string(),
            Protocol::BestEffort {
                numeric: BestEffortNumeric::PerAttribute(kind),
                ..
            } => kind.name().to_string(),
            Protocol::BestEffort {
                numeric: BestEffortNumeric::DuchiMultidim,
                ..
            } => "Duchi".to_string(),
        }
    }
}

/// Aggregated estimates from one collection run.
#[derive(Debug, Clone)]
pub struct CollectionResult {
    /// Number of users that contributed.
    pub n: usize,
    /// `(attribute index, mean estimate)` for every numeric attribute, in
    /// canonical `[-1, 1]` scale.
    pub means: Vec<(usize, f64)>,
    /// `(attribute index, per-value frequency estimates)` for every
    /// categorical attribute.
    pub frequencies: Vec<(usize, Vec<f64>)>,
}

impl CollectionResult {
    /// Flattened mean estimates in attribute order.
    pub fn mean_vector(&self) -> Vec<f64> {
        self.means.iter().map(|(_, m)| *m).collect()
    }
}

/// Runs collection protocols over datasets.
///
/// ```
/// use ldp_analytics::{Collector, Protocol, numeric_mse};
/// use ldp_core::{Epsilon, NumericKind, OracleKind};
/// use ldp_data::synthetic::{gaussian, numeric_dataset};
///
/// let dataset = numeric_dataset(10_000, 4, gaussian(0.5), 3)?;
/// let collector = Collector::new(
///     Protocol::Sampling { numeric: NumericKind::Hybrid, oracle: OracleKind::Oue },
///     Epsilon::new(2.0)?,
/// );
/// let result = collector.run(&dataset, 1)?;
/// assert_eq!(result.means.len(), 4);
/// assert!(numeric_mse(&result, &dataset)? < 0.05);
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Collector {
    protocol: Protocol,
    epsilon: Epsilon,
    shards: usize,
    /// Worker-thread cap; `None` uses the machine's parallelism. Affects
    /// scheduling only — never results.
    workers: Option<usize>,
}

impl Collector {
    /// A collector with the default [`DEFAULT_SHARDS`] simulation shards,
    /// parallelized over all available cores. Results are identical on any
    /// machine: the worker-thread count never affects estimates.
    pub fn new(protocol: Protocol, epsilon: Epsilon) -> Self {
        Collector {
            protocol,
            epsilon,
            shards: DEFAULT_SHARDS,
            workers: None,
        }
    }

    /// Overrides the shard count (1 for exact single-stream determinism at
    /// small n). Shards define the contiguous ranges the seeded blocks
    /// partition, so changing the shard count changes the (equally valid)
    /// random draws.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Caps the number of OS worker threads in the work-stealing runner.
    /// This is a scheduling knob only: any worker count produces
    /// bit-identical estimates, because blocks — not workers — own the RNG
    /// streams and the merge order is fixed by block index.
    pub fn with_worker_threads(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The protocol in use.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Simulates every user perturbing her tuple and aggregates the reports.
    ///
    /// A thin driver over the public session API: one [`ClientEncoder`]
    /// shared by every block, one [`Aggregator`] partial per block (the
    /// block index is its merge ordinal), all partials merged and
    /// snapshotted at the end. Per block, [`Aggregator::absorb_with`]
    /// encodes each user's report from a batched rng and absorbs it
    /// through the service's own absorb, so a simulation counts exactly
    /// the reports a client would send; per-block aggregates merge in
    /// block-ordinal order, bit-identical for any worker count or merge
    /// order.
    ///
    /// # Errors
    /// Propagates schema/validation failures from the underlying mechanisms
    /// and rejects empty datasets.
    pub fn run(&self, dataset: &Dataset, seed: u64) -> Result<CollectionResult> {
        if dataset.n() == 0 {
            return Err(LdpError::EmptyInput("rows"));
        }
        let schema = dataset.schema();
        let encoder = ClientEncoder::new(self.protocol, self.epsilon, schema.attr_specs())?;
        let results = run_blocks(dataset.n(), self.shards, self.workers, |b, range| {
            // Batched, monomorphized hot path: every draw comes from the
            // block's buffered generator with no dyn dispatch, and each
            // report is encoded into the scratch's recycled buffer.
            let mut rng: RngBlock<rand::rngs::StdRng> = RngBlock::new(block_rng(seed, b));
            let mut agg = encoder.aggregator()?.with_ordinal(b as u64);
            let mut scratch = encoder.scratch();
            let mut tuple: Vec<AttrValue> = Vec::with_capacity(schema.d());
            for i in range {
                dataset.canonical_tuple_into(i, &mut tuple);
                agg.absorb_with(&encoder, &tuple, &mut rng, &mut scratch)?;
            }
            Ok(agg)
        });
        let mut total: Option<Aggregator> = None;
        for res in results {
            let agg = res?;
            match &mut total {
                None => total = Some(agg),
                Some(t) => t.merge(agg)?,
            }
        }
        total
            .expect("dataset is non-empty, so at least one block ran")
            .snapshot()
    }
}

/// Splits `0..n` into at most `threads` contiguous ranges.
fn shard_ranges(n: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let threads = threads.clamp(1, n.max(1));
    let base = n / threads;
    let extra = n % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0usize;
    for c in 0..threads {
        let len = base + usize::from(c < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The deterministic block partition: every shard range chopped into blocks
/// of at most [`BLOCK_USERS`] users, listed in user order. This layout —
/// together with [`block_rng`] — *is* the run's randomness structure; the
/// scheduler merely decides which worker executes which block.
///
/// Public because it is the contract a distributed collection needs to
/// reproduce a [`Collector::run`] bit for bit: feed block `b`'s users
/// through a [`ClientEncoder`] with an [`ldp_core::rng::RngBlock`] over
/// [`block_rng`]`(seed, b)` into an [`Aggregator`] with ordinal `b`, then
/// merge the partials in any order.
pub fn block_partition(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shard_list = shard_ranges(n, shards);
    let mut out = Vec::with_capacity(shard_list.len());
    for shard in shard_list {
        let mut start = shard.start;
        while shard.end - start > BLOCK_USERS {
            out.push(start..start + BLOCK_USERS);
            start += BLOCK_USERS;
        }
        out.push(start..shard.end);
    }
    out
}

/// Runs `f(block, range)` for every block of [`block_partition`]`(n,
/// shards)` on `workers` threads (`None` = the machine's parallelism) and
/// returns the results in block order — the scheduler behind
/// [`Collector::run`] and the privacy audit.
///
/// Scheduling is deterministic work-stealing: a shared atomic cursor over
/// the block list; each worker claims (steals) the next unclaimed block
/// the moment it goes idle, so a straggler block never strands the rest of
/// the pool. Because every block owns its seed (derived from its index, see
/// [`block_rng`]) and results are scattered back into index-ordered slots,
/// neither the worker count nor the steal order can affect what this
/// returns — only how fast it returns it.
pub fn run_blocks<T, F>(n: usize, shards: usize, workers: Option<usize>, f: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> Result<T> + Sync,
{
    let blocks = block_partition(n, shards);
    let workers = workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        .clamp(1, blocks.len());
    let mut slots: Vec<Option<Result<T>>> = (0..blocks.len()).map(|_| None).collect();
    if workers == 1 {
        for (b, range) in blocks.iter().enumerate() {
            slots[b] = Some(f(b, range.clone()));
        }
    } else {
        let next = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, Result<T>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let blocks = &blocks;
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let b = next.fetch_add(1, Ordering::Relaxed);
                            let Some(range) = blocks.get(b) else { break };
                            done.push((b, f(b, range.clone())));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("block worker panicked"))
                .collect()
        });
        for (b, res) in per_worker.into_iter().flatten() {
            slots[b] = Some(res);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every block is claimed by exactly one worker"))
        .collect()
}

/// Decorrelated per-block RNG, derived from `(run seed, block index)`.
///
/// When every shard fits in a single block (n ≤ shards · [`BLOCK_USERS`]),
/// block indices coincide with shard indices and this reproduces the
/// pre-block per-shard streams exactly. Public for the same reason as
/// [`block_partition`]: it is half of the determinism contract.
pub fn block_rng(seed: u64, block: usize) -> rand::rngs::StdRng {
    seeded_rng(seed ^ (block as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// MSE of the mean estimates over the numeric attributes, against the
/// dataset's ground truth (the y-axis of Figures 4(a,b), 5, 6, 7(a), 8(a)).
///
/// # Errors
/// Propagates ground-truth computation failures.
pub fn numeric_mse(result: &CollectionResult, dataset: &Dataset) -> Result<f64> {
    if result.means.is_empty() {
        return Err(LdpError::EmptyInput("numeric attributes"));
    }
    let mut total = 0.0;
    for (j, est) in &result.means {
        let truth = dataset.true_mean(*j)?;
        total += (est - truth) * (est - truth);
    }
    Ok(total / result.means.len() as f64)
}

/// MSE of the frequency estimates over every value of every categorical
/// attribute (the y-axis of Figures 4(c,d), 7(b), 8(b)).
///
/// # Errors
/// Propagates ground-truth computation failures.
pub fn categorical_mse(result: &CollectionResult, dataset: &Dataset) -> Result<f64> {
    if result.frequencies.is_empty() {
        return Err(LdpError::EmptyInput("categorical attributes"));
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for (j, est) in &result.frequencies {
        let truth = dataset.true_frequencies(*j)?;
        for (e, t) in est.iter().zip(&truth) {
            total += (e - t) * (e - t);
            count += 1;
        }
    }
    Ok(total / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_data::census::generate_br;
    use ldp_data::synthetic::{gaussian, numeric_dataset};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn sampling_protocol_estimates_numeric_means() {
        let ds = numeric_dataset(60_000, 4, gaussian(0.3), 42).unwrap();
        let collector = Collector::new(
            Protocol::Sampling {
                numeric: NumericKind::Hybrid,
                oracle: OracleKind::Oue,
            },
            eps(4.0),
        )
        .with_shards(4);
        let result = collector.run(&ds, 7).unwrap();
        assert_eq!(result.n, 60_000);
        assert_eq!(result.means.len(), 4);
        assert!(result.frequencies.is_empty());
        for (j, est) in &result.means {
            let truth = ds.true_mean(*j).unwrap();
            assert!((est - truth).abs() < 0.1, "attr {j}: {est} vs {truth}");
        }
        let mse = numeric_mse(&result, &ds).unwrap();
        assert!(mse < 0.01, "MSE {mse}");
    }

    #[test]
    fn best_effort_estimates_numeric_means() {
        // Duchi et al.'s joint report, and the ε/d split over 1-D PM.
        let ds = numeric_dataset(60_000, 4, gaussian(0.0), 43).unwrap();
        for numeric in [
            BestEffortNumeric::DuchiMultidim,
            BestEffortNumeric::PerAttribute(NumericKind::Piecewise),
        ] {
            let protocol = Protocol::BestEffort {
                numeric,
                oracle: OracleKind::Oue,
            };
            let collector = Collector::new(protocol, eps(4.0)).with_shards(4);
            let result = collector.run(&ds, 8).unwrap();
            for (j, est) in &result.means {
                let truth = ds.true_mean(*j).unwrap();
                assert!(
                    (est - truth).abs() < 0.15,
                    "{numeric:?} attr {j}: {est} vs {truth}"
                );
            }
        }
    }

    #[test]
    fn mixed_census_pipeline_produces_both_estimate_kinds() {
        let ds = generate_br(30_000, 9).unwrap();
        let collector = Collector::new(
            Protocol::Sampling {
                numeric: NumericKind::Piecewise,
                oracle: OracleKind::Oue,
            },
            eps(4.0),
        )
        .with_shards(4);
        let result = collector.run(&ds, 9).unwrap();
        assert_eq!(result.means.len(), 6);
        assert_eq!(result.frequencies.len(), 10);
        for (j, freqs) in &result.frequencies {
            let truth = ds.true_frequencies(*j).unwrap();
            assert_eq!(freqs.len(), truth.len());
        }
        // Sanity on magnitudes rather than exact values at this n.
        let nm = numeric_mse(&result, &ds).unwrap();
        let cm = categorical_mse(&result, &ds).unwrap();
        assert!(nm < 0.05, "numeric MSE {nm}");
        assert!(cm < 0.05, "categorical MSE {cm}");
    }

    #[test]
    fn proposed_beats_best_effort_on_census() {
        // The headline claim of Figure 4, at reduced scale: Algorithm 4 with
        // HM beats the Laplace-split baseline on numeric MSE, and beats the
        // OUE-split baseline on categorical MSE. Averaged over a few runs to
        // keep the test stable.
        let ds = generate_br(20_000, 10).unwrap();
        let e = eps(1.0);
        let proposed = Collector::new(
            Protocol::Sampling {
                numeric: NumericKind::Hybrid,
                oracle: OracleKind::Oue,
            },
            e,
        )
        .with_shards(4);
        let baseline = Collector::new(
            Protocol::BestEffort {
                numeric: BestEffortNumeric::PerAttribute(NumericKind::Laplace),
                oracle: OracleKind::Oue,
            },
            e,
        )
        .with_shards(4);
        let runs = 5;
        let (mut p_num, mut p_cat, mut b_num, mut b_cat) = (0.0, 0.0, 0.0, 0.0);
        for r in 0..runs {
            let p = proposed.run(&ds, 100 + r).unwrap();
            let b = baseline.run(&ds, 200 + r).unwrap();
            p_num += numeric_mse(&p, &ds).unwrap();
            p_cat += categorical_mse(&p, &ds).unwrap();
            b_num += numeric_mse(&b, &ds).unwrap();
            b_cat += categorical_mse(&b, &ds).unwrap();
        }
        assert!(
            p_num < b_num,
            "numeric: proposed {p_num} vs baseline {b_num}"
        );
        assert!(
            p_cat < b_cat,
            "categorical: proposed {p_cat} vs baseline {b_cat}"
        );
    }

    #[test]
    fn worker_thread_count_never_affects_estimates() {
        // The worker pool is a scheduling detail: shards own the RNG
        // streams and the merge order, so any worker count must produce
        // bit-identical estimates (this is what makes the default
        // configuration reproducible across machines with different core
        // counts).
        let ds = generate_br(6_000, 11).unwrap();
        for protocol in [
            Protocol::Sampling {
                numeric: NumericKind::Hybrid,
                oracle: OracleKind::Oue,
            },
            Protocol::BestEffort {
                numeric: BestEffortNumeric::DuchiMultidim,
                oracle: OracleKind::Grr,
            },
        ] {
            let base = Collector::new(protocol, eps(2.0));
            let default = base.clone().run(&ds, 3).unwrap();
            for workers in [1usize, 3, 64] {
                let capped = base
                    .clone()
                    .with_worker_threads(workers)
                    .run(&ds, 3)
                    .unwrap();
                assert_eq!(default.mean_vector(), capped.mean_vector(), "{workers}");
                assert_eq!(default.frequencies, capped.frequencies, "{workers}");
            }
        }
    }

    #[test]
    fn multi_block_shards_are_invariant_to_workers_and_steal_order() {
        // Force shard ranges larger than BLOCK_USERS so a single shard
        // splits into several seeded blocks, then check the work-stealing
        // runner still produces bit-identical estimates for every worker
        // count (steal order varies run to run; results must not).
        let n = 2 * BLOCK_USERS + 777;
        let ds = numeric_dataset(n, 2, gaussian(0.1), 46).unwrap();
        let base = Collector::new(
            Protocol::Sampling {
                numeric: NumericKind::Hybrid,
                oracle: OracleKind::Oue,
            },
            eps(2.0),
        )
        .with_shards(2); // 2 shards → 2–3 blocks each
        let reference = base.clone().with_worker_threads(1).run(&ds, 21).unwrap();
        for workers in [2usize, 5, 32] {
            let got = base
                .clone()
                .with_worker_threads(workers)
                .run(&ds, 21)
                .unwrap();
            assert_eq!(reference.mean_vector(), got.mean_vector(), "{workers}");
        }
    }

    #[test]
    fn default_shard_count_is_the_documented_constant() {
        // Collector::new must behave exactly like an explicit override with
        // DEFAULT_SHARDS — i.e. the default no longer depends on
        // available_parallelism.
        let ds = numeric_dataset(4_000, 2, gaussian(0.2), 45).unwrap();
        let protocol = Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        };
        let a = Collector::new(protocol, eps(1.0)).run(&ds, 12).unwrap();
        let b = Collector::new(protocol, eps(1.0))
            .with_shards(DEFAULT_SHARDS)
            .run(&ds, 12)
            .unwrap();
        assert_eq!(a.mean_vector(), b.mean_vector());
        // And a different shard count draws different (equally valid)
        // streams — the override is doing something.
        let c = Collector::new(protocol, eps(1.0))
            .with_shards(DEFAULT_SHARDS + 1)
            .run(&ds, 12)
            .unwrap();
        assert_ne!(a.mean_vector(), c.mean_vector());
    }

    #[test]
    fn single_thread_run_is_deterministic() {
        let ds = numeric_dataset(5_000, 3, gaussian(0.5), 44).unwrap();
        let collector = Collector::new(
            Protocol::Sampling {
                numeric: NumericKind::Piecewise,
                oracle: OracleKind::Oue,
            },
            eps(1.0),
        )
        .with_shards(1);
        let a = collector.run(&ds, 5).unwrap();
        let b = collector.run(&ds, 5).unwrap();
        assert_eq!(a.mean_vector(), b.mean_vector());
        let c = collector.run(&ds, 6).unwrap();
        assert_ne!(a.mean_vector(), c.mean_vector());
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(
            Protocol::Sampling {
                numeric: NumericKind::Hybrid,
                oracle: OracleKind::Oue
            }
            .label(),
            "HM"
        );
        assert_eq!(
            Protocol::BestEffort {
                numeric: BestEffortNumeric::PerAttribute(NumericKind::Scdf),
                oracle: OracleKind::Oue
            }
            .label(),
            "SCDF"
        );
        assert_eq!(
            Protocol::BestEffort {
                numeric: BestEffortNumeric::DuchiMultidim,
                oracle: OracleKind::Oue
            }
            .label(),
            "Duchi"
        );
    }

    #[test]
    fn empty_dataset_is_rejected() {
        use ldp_data::{Attribute, Column, Schema};
        let schema = Schema::new(vec![Attribute::numeric("x", -1.0, 1.0).unwrap()]).unwrap();
        let ds = Dataset::new(schema, vec![Column::Numeric(vec![])]).unwrap();
        let collector = Collector::new(
            Protocol::Sampling {
                numeric: NumericKind::Piecewise,
                oracle: OracleKind::Oue,
            },
            eps(1.0),
        );
        assert!(collector.run(&ds, 0).is_err());
    }
}
