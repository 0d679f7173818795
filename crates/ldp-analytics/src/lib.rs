//! # ldp-analytics — aggregator-side estimation for LDP reports
//!
//! The aggregator half of the protocols in Wang et al. (ICDE 2019):
//!
//! * [`mean`] — unbiased mean estimation from Algorithm 4 sparse reports
//!   (a composition report samples every attribute), with mergeable
//!   accumulators for sharded simulation.
//! * [`frequency`] — debiased frequency estimation through any
//!   [`ldp_core::FrequencyOracle`], including the `d/k` sampling correction.
//! * [`wordhist`] — the word-level aggregation plane beneath the frequency
//!   accumulator: bit-sliced per-category counters absorbing whole unary
//!   reports by 64-bit words, with the per-category scatter deferred to
//!   amortized plane flushes.
//! * [`session`] — the two-sided collection API: [`ClientEncoder`] turns
//!   one user record into a [`Report`]; [`Aggregator`] consumes
//!   reports incrementally, merges partial aggregates from other shards,
//!   and yields [`CollectionResult`] snapshots at any point.
//! * [`service`] — the wire boundary: the length-framed
//!   `Hello`/`Submit`/`FlushEpoch`/`Shutdown` protocol and the long-running
//!   [`ReportService`] that applies each decoded message, validating it
//!   before state is touched, with multi-shard tree merges bit-identical
//!   to a single-process [`Collector::run`](pipeline::Collector::run).
//! * [`transport`] — the one loop that reads frames off a stream and
//!   answers each with a verdict: a [`transport::ReportServer`] whose
//!   per-connection threads apply messages to one shared service under a
//!   bounded in-flight count, a reconnecting [`transport::ReportClient`]
//!   whose retries the budget ledger makes idempotent, and a deterministic
//!   chaos harness proving clean/chaos snapshot parity bit for bit.
//! * [`durable`] — crash safety under the service: a write-ahead log of
//!   admitted submits behind a binding header, epoch checkpoints written
//!   atomically and fsync-hardened, and [`durable::Recovery`] replay that
//!   survives a kill at any instant with bit-identical recovered
//!   snapshots (proven by the seeded [`durable::CrashSchedule`] harness).
//! * [`ledger`] — the per-epoch privacy-budget ledger behind the service:
//!   a keyed user-id seen-set rejecting (and counting) any second report
//!   from one user inside an epoch.
//! * [`pipeline`] — end-to-end collection runs: the paper's proposal
//!   ([`Protocol::Sampling`]) vs the best-effort composition of prior work
//!   ([`Protocol::BestEffort`]), exactly as configured in §VI-A — a thin
//!   block-parallel driver over the session API.
//! * [`metrics`] / [`confidence`] — MSE / max-error metrics and
//!   Bernstein-style instantiations of the Lemma 2/5 accuracy guarantees.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod confidence;
pub mod durable;
pub mod frequency;
pub mod ledger;
pub mod mean;
pub mod metrics;
pub mod pipeline;
pub mod service;
pub mod session;
pub mod transport;
pub mod wordhist;

pub use durable::{
    CrashPoint, CrashSchedule, DurableConfig, DurableService, FsyncPolicy, Recovery,
    RecoveryReport, WalHeader,
};
pub use frequency::FrequencyAccumulator;
pub use ledger::BudgetLedger;
pub use mean::MeanAccumulator;
pub use pipeline::{
    block_partition, block_rng, categorical_mse, numeric_mse, run_blocks, BestEffortNumeric,
    CollectionResult, Collector, Protocol, BLOCK_USERS, DEFAULT_SHARDS,
};
pub use service::{
    AckOutcome, EpochSnapshot, ReportService, ResponseMessage, ServiceConfig, StreamFault,
    WireMessage,
};
pub use session::{Aggregator, ClientEncoder, EncoderScratch, Report};
pub use wordhist::WordHistogram;
