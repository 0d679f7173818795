//! The two-sided collection session API: untrusted clients encode, the
//! server aggregates.
//!
//! The paper's deployment model is inherently split — millions of clients
//! each perturb **one** record locally and send a compact report; a server
//! consumes reports incrementally and publishes estimates. This module is
//! that split, as API:
//!
//! * [`ClientEncoder`] — built from a [`Protocol`], an [`Epsilon`] and the
//!   public schema; turns one user tuple into a serde-able [`Report`]
//!   (Algorithm 4 sparse sampling, or the best-effort ε/d composition).
//! * [`Report`] — the only thing that crosses the trust boundary: one
//!   [`SparseReport`] of `(attribute index, numeric draw or categorical
//!   bits)` entries — Algorithm 4's `k` sampled attributes, or all `d`
//!   under composition. Encoded and sized by [`ldp_core::multidim::wire`],
//!   serialized by serde.
//! * [`Aggregator`] — consumes reports incrementally ([`Aggregator::absorb`]),
//!   merges partial aggregates from other shards or processes
//!   ([`Aggregator::merge`]), and yields a [`CollectionResult`] snapshot at
//!   any point ([`Aggregator::snapshot`]).
//!
//! ## Mergeable partials and the determinism model
//!
//! An [`Aggregator`] is a *set of partial aggregates* keyed by an ordinal
//! ([`Aggregator::with_ordinal`]): everything it absorbs lands in its own
//! ordinal's partial, and [`Aggregator::merge`] takes the union of the two
//! ordinal sets. [`Aggregator::snapshot`] folds the partials in ascending
//! ordinal order, so the floating-point summation order — and therefore
//! every output bit — is fixed by the ordinals alone. Partials may be
//! merged in **any** order, across threads, processes or machines, and the
//! snapshot is bit-identical to the ordered fold; that is the invariant the
//! [`Collector`](crate::Collector) pipeline, the `determinism` CI job and
//! the `proptest_session` suite all pin.
//!
//! ## One absorb route
//!
//! A report is counted one way, wherever it comes from. The service
//! decodes a wire report and absorbs it with the same code a simulation
//! uses: [`Aggregator::absorb_with`] is exactly [`ClientEncoder::encode_into`]
//! into a report recycled through the [`EncoderScratch`], followed by that
//! absorb — one pass over the report's entries, numeric draws into the
//! mean sums and categorical reports into
//! [`FrequencyAccumulator::count_report`]. `Collector::run` is a thin
//! block-parallel driver over exactly these calls, so a simulation runs
//! the route a socket-fed service runs.

use crate::frequency::FrequencyAccumulator;
use crate::mean::MeanAccumulator;
use crate::pipeline::{BestEffortNumeric, CollectionResult, Protocol};
use ldp_core::multidim::{
    wire, DuchiMultidim, DuchiScratch, SamplingPerturber, SparseReport, SparseScratch,
};
use ldp_core::rng::DrawSource;
use ldp_core::{
    AnyNumeric, AnyOracle, AttrReport, AttrSpec, AttrValue, CategoricalReport, DebiasParams,
    Epsilon, LdpError, Result,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The perturbed message one user submits for one record — the only data
/// that crosses the client→server trust boundary.
///
/// Both variants hold the same shape, a [`SparseReport`]: numeric entries
/// are single `f64` draws, categorical entries are oracle bits (a
/// `⌈log₂ k⌉`-bit value for GRR, a `k`-bit vector for OUE/SUE). The
/// variant names the protocol family and, with it, the wire layout
/// [`crate::service::encode_report`] writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Report {
    /// An Algorithm 4 report: `k` sampled attributes, each carrying an
    /// ε/k-LDP sub-report (numeric entries pre-scaled by `d/k`). Travels
    /// in [`wire::encode_sampled`]'s layout.
    Sampling(SparseReport),
    /// A best-effort composition report: Algorithm 4's shape with every
    /// attribute sampled (`k = d`, so the `d/k` scale is 1), all `d`
    /// entries in schema order, each at its split budget. Under
    /// [`BestEffortNumeric::DuchiMultidim`] the numeric entries are the
    /// coordinates of Duchi et al.'s joint report. Travels in
    /// [`wire::encode_full`]'s layout: no count and no indices.
    Composition(SparseReport),
}

/// The aggregator's view of a session: the schema layout, scale and
/// debias parameters it reads off a [`ClientEncoder`]'s per-attribute
/// mechanisms.
#[derive(Debug, Clone)]
struct Shape {
    d: usize,
    num_indices: Vec<usize>,
    cat_indices: Vec<usize>,
    /// Attribute index → categorical slot, so per-report dispatch is a
    /// table lookup.
    slot_of: Vec<Option<usize>>,
    /// Estimator scale: `d/k` for sampling, `1` for composition.
    scale: f64,
    /// Per categorical slot: domain size and the oracle's `(p, q)` pair.
    cats: Vec<(u32, DebiasParams)>,
    /// Entries per sampling report (`k` of Equation 12); `d` for
    /// composition.
    sampled_k: usize,
}

impl Shape {
    /// Reads the shape off an already-built engine: each oracle's
    /// `(k, p, q)` comes from the very oracle the client perturbs with, so
    /// the aggregator's debias parameters match the client's by
    /// construction, never by re-derivation.
    fn from_engine(specs: &[AttrSpec], engine: &Engine) -> Shape {
        let d = specs.len();
        let mut num_indices = Vec::new();
        let mut cat_indices = Vec::new();
        let mut slot_of = vec![None; d];
        for (j, spec) in specs.iter().enumerate() {
            match spec {
                AttrSpec::Numeric => num_indices.push(j),
                AttrSpec::Categorical { .. } => {
                    slot_of[j] = Some(cat_indices.len());
                    cat_indices.push(j);
                }
            }
        }
        let (scale, sampled_k, oracles): (f64, usize, Vec<&AnyOracle>) = match engine {
            Engine::Sampling(p) => (
                p.scale(),
                p.k(),
                cat_indices
                    .iter()
                    .map(|&j| p.any_oracle(j).expect("categorical slot"))
                    .collect(),
            ),
            Engine::Composition { oracles, .. } => (1.0, d, oracles.iter().collect()),
        };
        let cats = oracles.iter().map(|o| (o.k(), o.debias_params())).collect();
        Shape {
            d,
            num_indices,
            cat_indices,
            slot_of,
            scale,
            cats,
            sampled_k,
        }
    }
}

/// How a [`ClientEncoder`] produces reports for its protocol family.
#[derive(Clone)]
enum Engine {
    /// Algorithm 4: sample `k` attributes, spend ε/k on each.
    Sampling(SamplingPerturber),
    /// Best-effort composition: every attribute at its split budget.
    Composition {
        numeric: CompositionNumeric,
        /// One oracle per categorical slot, at ε/d.
        oracles: Vec<AnyOracle>,
    },
}

#[derive(Clone)]
enum CompositionNumeric {
    None,
    /// Each numeric attribute independently at ε/d.
    PerAttr(AnyNumeric),
    /// The whole numeric block jointly at ε·d_num/d.
    Duchi(DuchiMultidim),
}

/// Caller-owned scratch buffers for the zero-allocation encoding loop
/// ([`ClientEncoder::encode_into`] / [`Aggregator::absorb_with`]). Must stay
/// paired with the encoder that built it.
pub struct EncoderScratch {
    /// The report [`Aggregator::absorb_with`] encodes into and absorbs,
    /// refilled user after user.
    report: Report,
    inner: ScratchInner,
}

enum ScratchInner {
    Sampling(SparseScratch),
    Composition {
        numeric_block: Vec<f64>,
        noisy: Vec<f64>,
        duchi: Option<DuchiScratch>,
    },
}

/// The client half of a collection session: turns one user record into one
/// ε-LDP [`Report`].
///
/// Built from public knowledge only — the protocol, the total budget and
/// the schema — so every client constructs an identical encoder without
/// coordination. The encoder is `Clone + Send + Sync` (every mechanism is
/// held through its one handle, [`AnyNumeric`] or [`AnyOracle`]) and fully
/// monomorphized over the caller's rng: driven by an
/// [`ldp_core::rng::RngBlock`] there is no virtual call anywhere in the
/// per-draw path.
///
/// ```
/// use ldp_analytics::{ClientEncoder, Protocol};
/// use ldp_core::rng::seeded_rng;
/// use ldp_core::{AttrSpec, AttrValue, Epsilon, NumericKind, OracleKind};
///
/// let encoder = ClientEncoder::new(
///     Protocol::Sampling { numeric: NumericKind::Hybrid, oracle: OracleKind::Oue },
///     Epsilon::new(4.0)?,
///     vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 4 }],
/// )?;
/// // One user, one record, one report.
/// let tuple = [AttrValue::Numeric(0.25), AttrValue::Categorical(3)];
/// let report = encoder.encode(&tuple, &mut seeded_rng(7))?;
/// let ldp_analytics::Report::Sampling(sparse) = &report else { unreachable!() };
/// assert_eq!(sparse.entries.len(), encoder.sampled_k());
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Clone)]
pub struct ClientEncoder {
    protocol: Protocol,
    epsilon: Epsilon,
    /// Shared with every aggregator this encoder builds, so the per-call
    /// session check in [`Aggregator::absorb_with`] is a pointer compare.
    specs: Arc<[AttrSpec]>,
    /// The budget each per-attribute mechanism spends.
    per_attr: Epsilon,
    shape: Shape,
    engine: Engine,
}

impl ClientEncoder {
    /// Builds the encoder for a protocol, total budget and public schema.
    ///
    /// This is where a session's budget is split: Algorithm 4 spends `ε/k`
    /// on each of its `k` sampled attributes (Equation 12's `k`, numeric
    /// draws scaled by `d/k`), the best-effort baseline `ε/d` on every
    /// attribute. The aggregator ([`ClientEncoder::aggregator`],
    /// [`Aggregator::new`]) and the privacy auditor read the resulting
    /// mechanisms back through [`ClientEncoder::per_attribute_epsilon`],
    /// [`ClientEncoder::numeric_scale`],
    /// [`ClientEncoder::numeric_mechanism`] and [`ClientEncoder::oracle`]
    /// instead of deriving the split again.
    ///
    /// # Errors
    /// Rejects empty schemas and invalid categorical domains.
    pub fn new(protocol: Protocol, epsilon: Epsilon, specs: Vec<AttrSpec>) -> Result<Self> {
        if specs.is_empty() {
            return Err(LdpError::InvalidParameter {
                name: "specs",
                message: "schema must contain at least one attribute".into(),
            });
        }
        let (engine, per_attr) = match protocol {
            Protocol::Sampling { numeric, oracle } => {
                let p = SamplingPerturber::new(epsilon, specs.clone(), numeric, oracle)?;
                let per_attr = epsilon.split(p.k())?;
                (Engine::Sampling(p), per_attr)
            }
            Protocol::BestEffort { numeric, oracle } => {
                let d = specs.len();
                let per_attr = epsilon.split(d)?;
                let d_num = specs.iter().filter(|s| s.is_numeric()).count();
                let numeric = if d_num == 0 {
                    CompositionNumeric::None
                } else {
                    match numeric {
                        BestEffortNumeric::PerAttribute(kind) => {
                            CompositionNumeric::PerAttr(kind.build(per_attr))
                        }
                        BestEffortNumeric::DuchiMultidim => {
                            let block_eps = epsilon.fraction(d_num as f64 / d as f64)?;
                            CompositionNumeric::Duchi(DuchiMultidim::new(block_eps, d_num)?)
                        }
                    }
                };
                let oracles = specs
                    .iter()
                    .filter_map(|spec| match spec {
                        AttrSpec::Numeric => None,
                        AttrSpec::Categorical { k } => Some(oracle.build(per_attr, *k)),
                    })
                    .collect::<Result<Vec<_>>>()?;
                (Engine::Composition { numeric, oracles }, per_attr)
            }
        };
        let shape = Shape::from_engine(&specs, &engine);
        Ok(ClientEncoder {
            protocol,
            epsilon,
            specs: specs.into(),
            per_attr,
            shape,
            engine,
        })
    }

    /// The protocol this encoder implements.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The total per-user privacy budget.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The public schema.
    pub fn specs(&self) -> &[AttrSpec] {
        &self.specs
    }

    /// Number of attributes `d`.
    pub fn d(&self) -> usize {
        self.shape.d
    }

    /// Attributes carried per report: Equation 12's `k` under sampling,
    /// `d` under composition.
    pub fn sampled_k(&self) -> usize {
        self.shape.sampled_k
    }

    /// The budget each per-attribute mechanism spends: `ε/k` under
    /// sampling, `ε/d` under composition (under
    /// [`BestEffortNumeric::DuchiMultidim`], the categorical oracles'
    /// budget; the numeric block spends `ε·d_num/d` jointly).
    pub fn per_attribute_epsilon(&self) -> Epsilon {
        self.per_attr
    }

    /// The factor numeric draws are scaled by before they leave the
    /// client: Algorithm 4's `d/k` under sampling, `1` under composition.
    pub fn numeric_scale(&self) -> f64 {
        self.shape.scale
    }

    /// The mechanism each numeric attribute is perturbed with, at
    /// [`ClientEncoder::per_attribute_epsilon`]. `None` for schemas
    /// without numeric attributes and under
    /// [`BestEffortNumeric::DuchiMultidim`], whose numeric block is one
    /// joint report.
    pub fn numeric_mechanism(&self) -> Option<&AnyNumeric> {
        match &self.engine {
            Engine::Sampling(p) => p.any_numeric(),
            Engine::Composition {
                numeric: CompositionNumeric::PerAttr(mech),
                ..
            } => Some(mech),
            Engine::Composition { .. } => None,
        }
    }

    /// The frequency oracle attribute `j` is perturbed with, if
    /// categorical.
    pub fn oracle(&self, j: usize) -> Option<&AnyOracle> {
        match &self.engine {
            Engine::Sampling(p) => p.any_oracle(j),
            Engine::Composition { oracles, .. } => {
                let slot = (*self.shape.slot_of.get(j)?)?;
                Some(&oracles[slot])
            }
        }
    }

    /// An [`Aggregator`] configured for exactly this encoder's sessions —
    /// built from the encoder's already-derived shape, so it is cheap
    /// enough to call once per block or shard.
    ///
    /// # Errors
    /// Infallible today (the encoder already validated the session);
    /// `Result` keeps the signature aligned with [`Aggregator::new`].
    pub fn aggregator(&self) -> Result<Aggregator> {
        Ok(Aggregator {
            protocol: self.protocol,
            epsilon: self.epsilon,
            specs: self.specs.clone(),
            shape: self.shape.clone(),
            ordinal: 0,
            parts: BTreeMap::new(),
        })
    }

    /// A scratch buffer sized for this encoder, enabling the
    /// zero-allocation [`ClientEncoder::encode_into`] /
    /// [`Aggregator::absorb_with`] loops.
    pub fn scratch(&self) -> EncoderScratch {
        let inner = match &self.engine {
            Engine::Sampling(p) => ScratchInner::Sampling(p.scratch()),
            Engine::Composition { numeric, .. } => ScratchInner::Composition {
                numeric_block: vec![0.0; self.shape.num_indices.len()],
                noisy: Vec::with_capacity(self.shape.num_indices.len()),
                duchi: match numeric {
                    CompositionNumeric::Duchi(md) => Some(md.scratch()),
                    _ => None,
                },
            },
        };
        EncoderScratch {
            report: self.empty_report(),
            inner,
        }
    }

    /// An empty report shell of the right variant for this encoder, meant
    /// to be (re)filled by [`ClientEncoder::encode_into`].
    pub fn empty_report(&self) -> Report {
        match &self.engine {
            Engine::Sampling(p) => Report::Sampling(SparseReport::with_capacity(p.d(), p.k())),
            Engine::Composition { .. } => {
                Report::Composition(SparseReport::with_capacity(self.shape.d, self.shape.d))
            }
        }
    }

    /// Encodes one user tuple into a fresh report.
    ///
    /// Convenience wrapper over [`ClientEncoder::encode_into`] that
    /// allocates the report and a transient scratch; simulation loops
    /// should hold a report + scratch pair and call `encode_into`.
    ///
    /// # Errors
    /// Rejects tuples whose arity, types or values do not match the schema.
    pub fn encode<R: DrawSource + ?Sized>(
        &self,
        tuple: &[AttrValue],
        rng: &mut R,
    ) -> Result<Report> {
        let mut report = self.empty_report();
        let mut scratch = self.scratch();
        self.encode_into(tuple, rng, &mut report, &mut scratch)?;
        Ok(report)
    }

    /// Zero-allocation streaming form of [`ClientEncoder::encode`]: refills
    /// `report` in place, recycling its buffers (and the categorical bit
    /// vectors shuttling through `scratch`) across calls.
    ///
    /// Draw-for-draw identical to `encode` under the same rng state; this
    /// followed by [`Aggregator::absorb`] is exactly what
    /// [`Aggregator::absorb_with`] runs.
    ///
    /// # Errors
    /// As [`ClientEncoder::encode`].
    pub fn encode_into<R: DrawSource + ?Sized>(
        &self,
        tuple: &[AttrValue],
        rng: &mut R,
        report: &mut Report,
        scratch: &mut EncoderScratch,
    ) -> Result<()> {
        self.encode_with(tuple, rng, report, &mut scratch.inner)
    }

    /// [`ClientEncoder::encode_into`] over the scratch's buffers alone, so
    /// [`Aggregator::absorb_with`] can encode into the scratch's own report.
    fn encode_with<R: DrawSource + ?Sized>(
        &self,
        tuple: &[AttrValue],
        rng: &mut R,
        report: &mut Report,
        scratch: &mut ScratchInner,
    ) -> Result<()> {
        match &self.engine {
            Engine::Sampling(p) => {
                if !matches!(report, Report::Sampling(_)) {
                    *report = self.empty_report();
                }
                let (Report::Sampling(sparse), ScratchInner::Sampling(scratch)) = (report, scratch)
                else {
                    return Err(scratch_mismatch());
                };
                p.perturb_into(tuple, rng, sparse, scratch)
            }
            Engine::Composition { numeric, oracles } => {
                self.encode_composition(numeric, oracles, tuple, rng, report, scratch)
            }
        }
    }

    /// The composition arm of [`ClientEncoder::encode_into`]. Deliberately
    /// `inline(never)`: compiled inline into its callers, the
    /// per-attribute numeric loop below runs markedly slower on wide
    /// all-numeric schemas such as LDP-SGD's gradients.
    #[inline(never)]
    fn encode_composition<R: DrawSource + ?Sized>(
        &self,
        numeric: &CompositionNumeric,
        oracles: &[AnyOracle],
        tuple: &[AttrValue],
        rng: &mut R,
        report: &mut Report,
        scratch: &mut ScratchInner,
    ) -> Result<()> {
        if !matches!(report, Report::Composition(_)) {
            *report = self.empty_report();
        }
        let (
            Report::Composition(out),
            ScratchInner::Composition {
                numeric_block,
                noisy,
                duchi,
            },
        ) = (report, scratch)
        else {
            return Err(scratch_mismatch());
        };
        self.validate(tuple)?;
        // Every attribute, in schema order. A report already of this shape
        // keeps its categorical payload buffers.
        let d = self.shape.d;
        if out.entries.len() != d {
            out.entries.clear();
            out.entries
                .extend((0..d as u32).map(|j| (j, AttrReport::Numeric(0.0))));
        }
        out.d = d;
        match numeric {
            CompositionNumeric::None => {}
            CompositionNumeric::PerAttr(mech) => {
                for &j in &self.shape.num_indices {
                    let AttrValue::Numeric(x) = tuple[j] else {
                        unreachable!("validated above");
                    };
                    set_numeric(&mut out.entries[j], j, mech.perturb(x, &mut *rng)?);
                }
            }
            CompositionNumeric::Duchi(md) => {
                for (slot, &j) in self.shape.num_indices.iter().enumerate() {
                    let AttrValue::Numeric(x) = tuple[j] else {
                        unreachable!("validated above");
                    };
                    numeric_block[slot] = x;
                }
                md.perturb_into(
                    numeric_block,
                    &mut *rng,
                    noisy,
                    duchi.as_mut().expect("built with Duchi state"),
                )?;
                for (&y, &j) in noisy.iter().zip(&self.shape.num_indices) {
                    set_numeric(&mut out.entries[j], j, y);
                }
            }
        }
        for (slot, &j) in self.shape.cat_indices.iter().enumerate() {
            let AttrValue::Categorical(v) = tuple[j] else {
                unreachable!("validated above");
            };
            let entry = &mut out.entries[j];
            entry.0 = j as u32;
            if let Some(grr) = oracles[slot].as_grr() {
                // A direct report is one ordinal, written in place.
                let x = grr.sample(v, &mut *rng)?;
                match &mut entry.1 {
                    AttrReport::Categorical(CategoricalReport::Value(value)) => *value = x,
                    other => *other = AttrReport::Categorical(CategoricalReport::Value(x)),
                }
                continue;
            }
            if !matches!(entry.1, AttrReport::Categorical(_)) {
                entry.1 = AttrReport::Categorical(CategoricalReport::Value(0));
            }
            let AttrReport::Categorical(cat) = &mut entry.1 else {
                unreachable!("made categorical above");
            };
            oracles[slot].perturb_into(v, &mut *rng, cat)?;
        }
        Ok(())
    }

    /// Validates one tuple against the schema.
    fn validate(&self, tuple: &[AttrValue]) -> Result<()> {
        if tuple.len() != self.shape.d {
            return Err(LdpError::DimensionMismatch {
                expected: self.shape.d,
                actual: tuple.len(),
            });
        }
        for (i, (value, spec)) in tuple.iter().zip(self.specs.iter()).enumerate() {
            value.validate(spec, i)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for ClientEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientEncoder")
            .field("protocol", &self.protocol)
            .field("epsilon", &self.epsilon)
            .field("d", &self.shape.d)
            .field("sampled_k", &self.shape.sampled_k)
            .finish()
    }
}

/// Schema equality, by pointer first: an encoder and the aggregators it
/// builds share one schema allocation.
fn same_specs(a: &Arc<[AttrSpec]>, b: &Arc<[AttrSpec]>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// Sets report entry `j` to the numeric draw `y`, writing the draw in place
/// when the entry already holds one (as it does from the previous user).
#[inline]
fn set_numeric(entry: &mut (u32, AttrReport), j: usize, y: f64) {
    entry.0 = j as u32;
    match &mut entry.1 {
        AttrReport::Numeric(x) => *x = y,
        other => *other = AttrReport::Numeric(y),
    }
}

fn scratch_mismatch() -> LdpError {
    LdpError::InvalidParameter {
        name: "scratch",
        message: "report/scratch built for a different protocol family".into(),
    }
}

/// One mergeable partial aggregate: the accumulators for a contiguous slice
/// of the report stream.
#[derive(Debug, Clone)]
struct Partial {
    means: MeanAccumulator,
    freqs: Vec<FrequencyAccumulator>,
}

impl Partial {
    fn new(shape: &Shape) -> Self {
        Partial {
            means: MeanAccumulator::new(shape.d),
            freqs: shape
                .cats
                .iter()
                .map(|&(k, params)| FrequencyAccumulator::new(k, shape.scale, params))
                .collect(),
        }
    }

    fn merge(&mut self, other: &Partial) -> Result<()> {
        self.means.merge(&other.means)?;
        for (acc, o) in self.freqs.iter_mut().zip(&other.freqs) {
            acc.merge(o)?;
        }
        Ok(())
    }
}

/// The server half of a collection session: consumes [`Report`]s
/// incrementally and yields [`CollectionResult`] snapshots at any point.
///
/// Internally an aggregator is a set of partial aggregates keyed by an
/// *ordinal* — its position in the canonical fold order. Reports absorbed
/// by this instance land in its own ordinal's partial;
/// [`Aggregator::merge`] unions the ordinal sets, and
/// [`Aggregator::snapshot`] folds partials in ascending ordinal order.
/// Because the fold order depends only on the ordinals — never on the
/// merge order — partial aggregates can be reduced tree-wise, shard-wise
/// or across processes in any order, with bit-identical results.
///
/// ```
/// use ldp_analytics::{Aggregator, ClientEncoder, Protocol};
/// use ldp_core::rng::seeded_rng;
/// use ldp_core::{AttrSpec, AttrValue, Epsilon, NumericKind, OracleKind};
///
/// let protocol = Protocol::Sampling { numeric: NumericKind::Hybrid, oracle: OracleKind::Oue };
/// let eps = Epsilon::new(4.0)?;
/// let specs = vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 4 }];
/// let encoder = ClientEncoder::new(protocol, eps, specs.clone())?;
/// let mut rng = seeded_rng(7);
///
/// // Two shards aggregate disjoint user populations…
/// let mut shard_a = encoder.aggregator()?.with_ordinal(0);
/// let mut shard_b = encoder.aggregator()?.with_ordinal(1);
/// let tuple = [AttrValue::Numeric(0.5), AttrValue::Categorical(2)];
/// for _ in 0..500 {
///     shard_a.absorb(&encoder.encode(&tuple, &mut rng)?)?;
///     shard_b.absorb(&encoder.encode(&tuple, &mut rng)?)?;
/// }
/// // …and their merge (in either order) yields one coherent result.
/// let mut total = encoder.aggregator()?;
/// total.merge(shard_b)?;
/// total.merge(shard_a)?;
/// let result = total.snapshot()?;
/// assert_eq!(result.n, 1000);
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Aggregator {
    protocol: Protocol,
    epsilon: Epsilon,
    specs: Arc<[AttrSpec]>,
    shape: Shape,
    ordinal: u64,
    parts: BTreeMap<u64, Partial>,
}

impl Aggregator {
    /// Builds an aggregator from the same public knowledge clients hold:
    /// shorthand for [`ClientEncoder::new`] followed by
    /// [`ClientEncoder::aggregator`].
    ///
    /// # Errors
    /// Rejects empty schemas and invalid categorical domains.
    pub fn new(protocol: Protocol, epsilon: Epsilon, specs: Vec<AttrSpec>) -> Result<Self> {
        ClientEncoder::new(protocol, epsilon, specs)?.aggregator()
    }

    /// Sets this aggregator's ordinal — its partial's position in the
    /// canonical fold order. Shards that will later be merged should use
    /// distinct ordinals (e.g. their block or shard index); the snapshot is
    /// then invariant to the order the shards are merged in.
    #[must_use]
    pub fn with_ordinal(mut self, ordinal: u64) -> Self {
        self.ordinal = ordinal;
        self
    }

    /// Redirects future absorbs into the partial keyed by `ordinal`.
    ///
    /// The in-place counterpart of [`Aggregator::with_ordinal`], for
    /// long-running consumers (the report service) that route interleaved
    /// streams: each report carries its block ordinal, and one aggregator
    /// per shard accumulates many partials by switching the ordinal between
    /// absorbs. Already-absorbed partials keep the ordinal they were
    /// absorbed under.
    pub fn set_ordinal(&mut self, ordinal: u64) {
        self.ordinal = ordinal;
    }

    /// Checks `report` against this aggregator's protocol and schema
    /// without touching any state: variant/protocol agreement, arity,
    /// entry count (`k` sampled, or all `d` under composition), strictly
    /// increasing attribute indices, entry types and domains. Exactly the
    /// checks [`Aggregator::absorb`] runs before mutating, exposed so a
    /// service can interpose its own admission control (e.g. the
    /// privacy-budget ledger) between validation and absorption — a report
    /// that fails here must not burn its user's per-epoch budget.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] / [`LdpError::DimensionMismatch`] /
    /// [`LdpError::InvalidCategory`] on malformed reports.
    pub fn validate_report(&self, report: &Report) -> Result<()> {
        let sparse = match (report, self.protocol) {
            (Report::Sampling(sparse), Protocol::Sampling { .. })
            | (Report::Composition(sparse), Protocol::BestEffort { .. }) => sparse,
            _ => {
                return Err(LdpError::InvalidParameter {
                    name: "report",
                    message: "report variant does not match the aggregator's protocol".into(),
                })
            }
        };
        let shape = &self.shape;
        if sparse.d != shape.d {
            return Err(LdpError::DimensionMismatch {
                expected: shape.d,
                actual: sparse.d,
            });
        }
        if sparse.entries.len() != shape.sampled_k {
            return Err(LdpError::InvalidParameter {
                name: "report",
                message: format!(
                    "report must carry exactly {} entries, got {}",
                    shape.sampled_k,
                    sparse.entries.len()
                ),
            });
        }
        let mut prev: Option<u32> = None;
        for (j, rep) in &sparse.entries {
            if *j as usize >= shape.d {
                return Err(LdpError::InvalidParameter {
                    name: "report",
                    message: format!("attribute index {j} out of range {}", shape.d),
                });
            }
            if prev.is_some_and(|p| p >= *j) {
                return Err(LdpError::InvalidParameter {
                    name: "report",
                    message: "report entries must be strictly increasing in attribute".into(),
                });
            }
            prev = Some(*j);
            validate_entry(rep, &self.specs[*j as usize])?;
        }
        Ok(())
    }

    /// The protocol this aggregator estimates for.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The per-user privacy budget of the absorbed reports.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The public schema.
    pub fn specs(&self) -> &[AttrSpec] {
        &self.specs
    }

    /// Total users absorbed across all partials.
    pub fn users(&self) -> usize {
        self.parts.values().map(|p| p.means.n()).sum()
    }

    /// Number of partial aggregates currently held.
    pub fn partials(&self) -> usize {
        self.parts.len()
    }

    /// Exact serialized size in bits of one ordinal-keyed partial in
    /// [`Aggregator::encode_partials`]: the ordinal, the mean state, then
    /// one frequency state per categorical slot. A schema constant — which
    /// is what lets [`Aggregator::decode_partials`] compute the only legal
    /// payload length before reading a single field.
    fn partial_state_bits(&self) -> usize {
        64 + MeanAccumulator::state_bits(self.shape.d)
            + self
                .shape
                .cats
                .iter()
                .map(|&(k, _)| FrequencyAccumulator::state_bits(k))
                .sum::<usize>()
    }

    /// Serializes every ordinal-keyed partial — the complete aggregate
    /// state minus the schema, which both sides already share — as an
    /// exact-length `BitWriter` payload. All counts are exact integers and
    /// every running sum travels as its raw `f64::to_bits` word, so a
    /// decode on a same-session aggregator followed by
    /// [`Aggregator::snapshot`] reproduces the original snapshot bit for
    /// bit. This is the epoch-checkpoint payload of
    /// [`crate::durable`].
    pub fn encode_partials(&self) -> Vec<u8> {
        let mut w = wire::BitWriter::new();
        w.write_bits(self.parts.len() as u64, 32);
        for (ordinal, part) in &self.parts {
            w.write_bits(*ordinal, 64);
            part.means.encode_state(&mut w);
            for f in &part.freqs {
                f.encode_state(&mut w);
            }
        }
        w.finish()
    }

    /// Replaces this aggregator's partials with state decoded from an
    /// [`Aggregator::encode_partials`] payload. The aggregator must have
    /// been built for the same protocol/ε/schema (the payload carries no
    /// schema of its own — a length mismatch against this aggregator's
    /// shape is rejected outright, trailing junk included).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] on a payload whose length disagrees
    /// with this aggregator's schema or that repeats an ordinal.
    pub fn decode_partials(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = wire::BitReader::new(bytes);
        let count = r.read_bits(32)? as usize;
        let total_bits = 32 + count * self.partial_state_bits();
        if bytes.len() != total_bits.div_ceil(8) {
            return Err(LdpError::InvalidParameter {
                name: "partial_state",
                message: format!(
                    "payload is {} bytes but {count} partials of this schema need {}",
                    bytes.len(),
                    total_bits.div_ceil(8)
                ),
            });
        }
        let mut parts = BTreeMap::new();
        for _ in 0..count {
            let ordinal = r.read_bits(64)?;
            let mut part = Partial::new(&self.shape);
            part.means.decode_state(&mut r)?;
            for f in &mut part.freqs {
                f.decode_state(&mut r)?;
            }
            if parts.insert(ordinal, part).is_some() {
                return Err(LdpError::InvalidParameter {
                    name: "partial_state",
                    message: format!("ordinal {ordinal} encoded twice"),
                });
            }
        }
        self.parts = parts;
        Ok(())
    }

    /// Absorbs one report into this aggregator's own partial.
    ///
    /// Runs [`Aggregator::validate_report`] first, so a malformed or
    /// cross-protocol report is rejected rather than silently biasing the
    /// estimates.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] / [`LdpError::DimensionMismatch`] /
    /// [`LdpError::InvalidCategory`] on malformed reports.
    pub fn absorb(&mut self, report: &Report) -> Result<()> {
        self.validate_report(report)?;
        self.absorb_validated(report);
        Ok(())
    }

    /// Counts a report that already passed [`Aggregator::validate_report`]
    /// on a same-session aggregator — the service validates against its
    /// template once, before its ledger admits, and absorbs through here;
    /// [`Aggregator::absorb`] and [`Aggregator::absorb_with`] do too. One
    /// pass over the report's entries: numeric draws go into the mean sums,
    /// categorical reports into their slot's
    /// [`FrequencyAccumulator::count_report`].
    pub(crate) fn absorb_validated(&mut self, report: &Report) {
        let (Report::Sampling(sparse) | Report::Composition(sparse)) = report;
        let shape = &self.shape;
        let Partial { means, freqs } = self
            .parts
            .entry(self.ordinal)
            .or_insert_with(|| Partial::new(shape));
        means.add_checked(sparse, |j, cat| {
            let slot = shape.slot_of[j as usize].expect("validated categorical");
            freqs[slot].count_report(cat);
        });
    }

    /// The simulation form of the two-call path: encodes `tuple` with
    /// `encoder` into the report `scratch` recycles, then absorbs it —
    /// exactly [`ClientEncoder::encode_into`] followed by
    /// [`Aggregator::absorb`], minus the report validation an encoder's own
    /// output cannot fail. The same draws, the same counting code and so
    /// the same aggregator state, bit for bit.
    ///
    /// # Errors
    /// Rejects invalid tuples, and encoders whose protocol, budget or
    /// schema differ from this aggregator's.
    pub fn absorb_with<R: DrawSource + ?Sized>(
        &mut self,
        encoder: &ClientEncoder,
        tuple: &[AttrValue],
        rng: &mut R,
        scratch: &mut EncoderScratch,
    ) -> Result<()> {
        // Full session-identity check, in release builds too: the absorb
        // below trusts the report, and another session's report would
        // index accumulators out of range or silently bias estimates. For
        // the encoder's own aggregators the schema compare is one pointer
        // compare.
        if encoder.protocol != self.protocol
            || encoder.epsilon != self.epsilon
            || !same_specs(&encoder.specs, &self.specs)
        {
            return Err(LdpError::InvalidParameter {
                name: "encoder",
                message: "encoder protocol/budget/schema differs from the aggregator's".into(),
            });
        }
        let EncoderScratch { report, inner } = scratch;
        encoder.encode_with(tuple, rng, report, inner)?;
        self.absorb_validated(report);
        Ok(())
    }

    /// Merges another aggregator's partials into this one. Order-invariant:
    /// partials keep their ordinals, and [`Aggregator::snapshot`] folds by
    /// ordinal, so `a.merge(b)` and `b.merge(a)` snapshot bit-identically.
    /// Two partials sharing an ordinal are combined pairwise in merge
    /// order — give shards distinct ordinals for strict order invariance.
    ///
    /// # Errors
    /// Rejects aggregators with a different protocol, budget or schema
    /// (merging them would silently bias every estimate).
    pub fn merge(&mut self, other: Aggregator) -> Result<()> {
        if other.protocol != self.protocol
            || other.epsilon != self.epsilon
            || !same_specs(&other.specs, &self.specs)
        {
            return Err(LdpError::InvalidParameter {
                name: "aggregator",
                message: "cannot merge aggregators from different sessions".into(),
            });
        }
        for (ordinal, part) in other.parts {
            match self.parts.entry(ordinal) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(part);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    slot.get_mut().merge(&part)?;
                }
            }
        }
        Ok(())
    }

    /// The current estimates: folds every partial in ascending ordinal
    /// order and debiases once. Non-destructive — absorb more reports and
    /// snapshot again at any point.
    ///
    /// # Errors
    /// [`LdpError::EmptyInput`] before any report arrives.
    pub fn snapshot(&self) -> Result<CollectionResult> {
        let shape = &self.shape;
        let mut total = Partial::new(shape);
        // BTreeMap iteration is ascending in ordinal: the canonical fold
        // order that makes the merged f64 sums independent of merge order.
        for part in self.parts.values() {
            total.merge(part)?;
        }
        let Partial { means, mut freqs } = total;
        let n = means.n();
        let mean_est = means.estimate()?;
        let mut frequencies = Vec::with_capacity(shape.cat_indices.len());
        for (slot, &j) in shape.cat_indices.iter().enumerate() {
            // Every absorbed user counts toward the population, including
            // (under sampling) those whose k attributes missed this one.
            freqs[slot].set_population(n);
            frequencies.push((j, freqs[slot].estimate()?));
        }
        Ok(CollectionResult {
            n,
            means: shape
                .num_indices
                .iter()
                .map(|&j| (j, mean_est[j]))
                .collect(),
            frequencies,
        })
    }
}

/// Validates one report entry against its attribute spec.
fn validate_entry(rep: &AttrReport, spec: &AttrSpec) -> Result<()> {
    match (rep, spec) {
        (AttrReport::Numeric(x), AttrSpec::Numeric) => {
            if x.is_finite() {
                Ok(())
            } else {
                Err(LdpError::InvalidParameter {
                    name: "report",
                    message: "numeric entry must be finite".into(),
                })
            }
        }
        (AttrReport::Categorical(cat), AttrSpec::Categorical { k }) => {
            validate_categorical(cat, *k)
        }
        _ => Err(LdpError::InvalidParameter {
            name: "report",
            message: "report entry type disagrees with the schema".into(),
        }),
    }
}

/// Validates one categorical report against its domain size `k`.
fn validate_categorical(cat: &CategoricalReport, k: u32) -> Result<()> {
    match cat {
        CategoricalReport::Value(v) => {
            if *v < k {
                Ok(())
            } else {
                Err(LdpError::InvalidCategory { value: *v, k })
            }
        }
        CategoricalReport::Bits(bits) => {
            if bits.len() != k {
                return Err(LdpError::DimensionMismatch {
                    expected: k as usize,
                    actual: bits.len() as usize,
                });
            }
            // A deserialized report can violate BitVec's storage invariants
            // (stray bits past `len`, wrong word count); the word-level
            // count walk assumes them, so reject rather than panic or
            // miscount.
            if !bits.is_well_formed() {
                return Err(LdpError::InvalidParameter {
                    name: "report",
                    message: "unary report carries bits beyond its domain".into(),
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::rng::seeded_rng;
    use ldp_core::{NumericKind, OracleKind};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn mixed_specs() -> Vec<AttrSpec> {
        vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 5 },
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 3 },
        ]
    }

    fn mixed_tuple(i: usize) -> Vec<AttrValue> {
        vec![
            AttrValue::Numeric(-1.0 + 2.0 * ((i % 7) as f64) / 6.0),
            AttrValue::Categorical((i % 5) as u32),
            AttrValue::Numeric(0.25),
            AttrValue::Categorical((i % 3) as u32),
        ]
    }

    #[test]
    fn encoder_is_clone_send_sync_and_clones_encode_alike() {
        fn assert_impl<T: Clone + Send + Sync>() {}
        assert_impl::<ClientEncoder>();
        let protocol = Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        };
        let encoder = ClientEncoder::new(protocol, eps(2.0), mixed_specs()).unwrap();
        let clone = encoder.clone();
        for i in 0..32 {
            let tuple = mixed_tuple(i);
            assert_eq!(
                encoder.encode(&tuple, &mut seeded_rng(i as u64)).unwrap(),
                clone.encode(&tuple, &mut seeded_rng(i as u64)).unwrap()
            );
        }
    }

    /// The mixed schema with its first categorical attribute widened to
    /// k = 70: a report crosses a word boundary, and at ε = 2 every unary
    /// oracle is dense enough on it for the accumulators' word plane.
    fn wide_specs() -> Vec<AttrSpec> {
        let mut specs = mixed_specs();
        specs[1] = AttrSpec::Categorical { k: 70 };
        specs
    }

    fn wide_tuple(i: usize) -> Vec<AttrValue> {
        let mut tuple = mixed_tuple(i);
        tuple[1] = AttrValue::Categorical((i * 13 % 70) as u32);
        tuple
    }

    const PROTOCOLS: [Protocol; 5] = [
        Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        },
        Protocol::Sampling {
            numeric: NumericKind::Piecewise,
            oracle: OracleKind::Grr,
        },
        Protocol::BestEffort {
            numeric: BestEffortNumeric::PerAttribute(NumericKind::Laplace),
            oracle: OracleKind::Oue,
        },
        Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Sue,
        },
        Protocol::BestEffort {
            numeric: BestEffortNumeric::PerAttribute(NumericKind::Laplace),
            oracle: OracleKind::Grr,
        },
    ];

    #[test]
    fn absorb_with_matches_encode_into_then_validating_absorb_bit_for_bit() {
        // `absorb_with` skips the report validation `absorb` runs; it must
        // still be the same computation: identical draws, identical
        // aggregator state, for both protocol families. Unary reports are
        // scanned on the mixed schema's small domains and go through the
        // word plane on the wide one; GRR reports are single values.
        for wide in [false, true] {
            let specs = if wide { wide_specs() } else { mixed_specs() };
            let tuple_of = if wide { wide_tuple } else { mixed_tuple };
            for protocol in PROTOCOLS {
                let encoder = ClientEncoder::new(protocol, eps(2.0), specs.clone()).unwrap();
                let mut rng_a = seeded_rng(71);
                let mut rng_b = seeded_rng(71);
                let mut two_call = encoder.aggregator().unwrap();
                let mut one_call = encoder.aggregator().unwrap();
                let mut report = encoder.empty_report();
                let mut scratch_a = encoder.scratch();
                let mut scratch_b = encoder.scratch();
                for i in 0..400 {
                    let tuple = tuple_of(i);
                    encoder
                        .encode_into(&tuple, &mut rng_a, &mut report, &mut scratch_a)
                        .unwrap();
                    two_call.absorb(&report).unwrap();
                    one_call
                        .absorb_with(&encoder, &tuple, &mut rng_b, &mut scratch_b)
                        .unwrap();
                }
                let a = two_call.snapshot().unwrap();
                let b = one_call.snapshot().unwrap();
                assert_eq!(a.n, b.n);
                assert_eq!(a.mean_vector(), b.mean_vector(), "{protocol:?} wide={wide}");
                assert_eq!(a.frequencies, b.frequencies, "{protocol:?} wide={wide}");
            }
        }
    }

    #[test]
    fn encode_matches_encode_into() {
        for protocol in PROTOCOLS {
            let encoder = ClientEncoder::new(protocol, eps(1.5), mixed_specs()).unwrap();
            let mut rng_a = seeded_rng(5);
            let mut rng_b = seeded_rng(5);
            let mut report = encoder.empty_report();
            let mut scratch = encoder.scratch();
            for i in 0..200 {
                let tuple = mixed_tuple(i);
                let owned = encoder.encode(&tuple, &mut rng_a).unwrap();
                encoder
                    .encode_into(&tuple, &mut rng_b, &mut report, &mut scratch)
                    .unwrap();
                assert_eq!(owned, report, "{protocol:?} round {i}");
            }
        }
    }

    #[test]
    fn encoder_owns_the_budget_split() {
        // Algorithm 4 at ε = 6 over d = 8: Equation 12 samples k = 2
        // attributes at ε/2 = 3 each and scales numeric draws by d/k = 4.
        let alternating: Vec<AttrSpec> = (0..8)
            .map(|j| {
                if j % 2 == 0 {
                    AttrSpec::Numeric
                } else {
                    AttrSpec::Categorical { k: 4 }
                }
            })
            .collect();
        let oracle_eps = |o: Option<&AnyOracle>| o.unwrap().as_dyn().epsilon().value();
        let numeric_eps = |m: Option<&AnyNumeric>| m.unwrap().epsilon().value();
        let sampling = ClientEncoder::new(PROTOCOLS[0], eps(6.0), alternating).unwrap();
        assert_eq!(sampling.sampled_k(), 2);
        assert_eq!(sampling.per_attribute_epsilon().value(), 3.0);
        assert_eq!(sampling.numeric_scale(), 4.0);
        assert_eq!(numeric_eps(sampling.numeric_mechanism()), 3.0);
        assert!(sampling.oracle(0).is_none());
        assert_eq!(oracle_eps(sampling.oracle(1)), 3.0);

        // The ε/d baseline at ε = 1 over d = 2: every mechanism at ε/2,
        // numeric draws unscaled.
        let two = vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 8 }];
        let composition = ClientEncoder::new(PROTOCOLS[2], eps(1.0), two).unwrap();
        assert_eq!(composition.per_attribute_epsilon().value(), 0.5);
        assert_eq!(composition.numeric_scale(), 1.0);
        assert_eq!(numeric_eps(composition.numeric_mechanism()), 0.5);
        assert!(composition.oracle(0).is_none());
        assert!(composition.oracle(2).is_none());
        assert_eq!(oracle_eps(composition.oracle(1)), 0.5);

        // Duchi et al.'s joint numeric report has no per-attribute
        // mechanism; the categorical oracles still spend ε/d.
        let duchi = Protocol::BestEffort {
            numeric: BestEffortNumeric::DuchiMultidim,
            oracle: OracleKind::Grr,
        };
        let encoder = ClientEncoder::new(duchi, eps(2.0), mixed_specs()).unwrap();
        assert!(encoder.numeric_mechanism().is_none());
        assert_eq!(oracle_eps(encoder.oracle(3)), 0.5);

        // `Aggregator::new` is the encoder's own aggregator: the same
        // reports snapshot bit-identically, and the two merge.
        let bits = |r: &CollectionResult| -> Vec<u64> {
            let freqs = r.frequencies.iter().flat_map(|(_, f)| f);
            let all = r.mean_vector().into_iter().chain(freqs.copied());
            all.map(f64::to_bits).collect()
        };
        for protocol in PROTOCOLS.into_iter().chain([duchi]) {
            let encoder = ClientEncoder::new(protocol, eps(2.0), mixed_specs()).unwrap();
            let mut via_new = Aggregator::new(protocol, eps(2.0), mixed_specs()).unwrap();
            let mut via_encoder = encoder.aggregator().unwrap().with_ordinal(1);
            let mut rng = seeded_rng(31);
            for i in 0..300 {
                let report = encoder.encode(&mixed_tuple(i), &mut rng).unwrap();
                via_new.absorb(&report).unwrap();
                via_encoder.absorb(&report).unwrap();
            }
            let (a, b) = (via_new.snapshot().unwrap(), via_encoder.snapshot().unwrap());
            assert_eq!(bits(&a), bits(&b), "{protocol:?}");
            via_new.merge(via_encoder).unwrap();
            assert_eq!(via_new.users(), 600, "{protocol:?}");
        }
    }

    #[test]
    fn merge_is_order_invariant_and_snapshot_is_incremental() {
        let protocol = PROTOCOLS[0];
        let encoder = ClientEncoder::new(protocol, eps(4.0), mixed_specs()).unwrap();
        let mut rng = seeded_rng(17);
        // Three shards with distinct ordinals.
        let mut shards: Vec<Aggregator> = (0..3)
            .map(|o| encoder.aggregator().unwrap().with_ordinal(o))
            .collect();
        for i in 0..600 {
            let report = encoder.encode(&mixed_tuple(i), &mut rng).unwrap();
            shards[i % 3].absorb(&report).unwrap();
        }
        // Snapshot mid-stream is allowed and non-destructive.
        let early = shards[0].snapshot().unwrap();
        assert_eq!(early.n, 200);

        let merge_in = |order: &[usize]| {
            let mut total = encoder.aggregator().unwrap();
            for &i in order {
                total.merge(shards[i].clone()).unwrap();
            }
            total.snapshot().unwrap()
        };
        let a = merge_in(&[0, 1, 2]);
        let b = merge_in(&[2, 0, 1]);
        let c = merge_in(&[1, 2, 0]);
        assert_eq!(a.n, 600);
        assert_eq!(a.mean_vector(), b.mean_vector());
        assert_eq!(a.frequencies, b.frequencies);
        assert_eq!(a.mean_vector(), c.mean_vector());
        assert_eq!(a.frequencies, c.frequencies);
    }

    #[test]
    fn absorb_rejects_malformed_reports() {
        let sampling = ClientEncoder::new(PROTOCOLS[0], eps(2.0), mixed_specs()).unwrap();
        let composition = ClientEncoder::new(PROTOCOLS[2], eps(2.0), mixed_specs()).unwrap();
        let mut rng = seeded_rng(3);
        let mut agg = sampling.aggregator().unwrap();

        // Cross-protocol reports are rejected.
        let dense = composition.encode(&mixed_tuple(0), &mut rng).unwrap();
        assert!(agg.absorb(&dense).is_err());
        let mut comp_agg = composition.aggregator().unwrap();
        let sparse = sampling.encode(&mixed_tuple(0), &mut rng).unwrap();
        assert!(comp_agg.absorb(&sparse).is_err());

        // Malformed sparse reports: wrong d, wrong entry count, unsorted
        // entries, out-of-range values.
        let Report::Sampling(good) = sampling.encode(&mixed_tuple(1), &mut rng).unwrap() else {
            unreachable!();
        };
        let mut wrong_d = good.clone();
        wrong_d.d = 9;
        assert!(agg.absorb(&Report::Sampling(wrong_d)).is_err());
        let mut extra = good.clone();
        extra.entries.extend(good.entries.iter().cloned());
        assert!(agg.absorb(&Report::Sampling(extra)).is_err());
        let mut dup = good.clone();
        if dup.entries.len() >= 2 {
            dup.entries[1] = dup.entries[0].clone();
            assert!(agg.absorb(&Report::Sampling(dup)).is_err());
        }

        // Malformed composition reports: wrong arity, out-of-domain value.
        let Report::Composition(mut bad) = composition.encode(&mixed_tuple(2), &mut rng).unwrap()
        else {
            unreachable!();
        };
        bad.entries[1].1 = AttrReport::Categorical(CategoricalReport::Value(99));
        assert!(comp_agg.absorb(&Report::Composition(bad.clone())).is_err());
        bad.entries.pop();
        assert!(comp_agg.absorb(&Report::Composition(bad)).is_err());

        // Non-finite numeric entries would poison the mean sums forever.
        let Report::Composition(mut poisoned) =
            composition.encode(&mixed_tuple(3), &mut rng).unwrap()
        else {
            unreachable!();
        };
        poisoned.entries[0].1 = AttrReport::Numeric(f64::NAN);
        assert!(comp_agg.absorb(&Report::Composition(poisoned)).is_err());

        // Cross-session merges are rejected.
        let other = ClientEncoder::new(PROTOCOLS[0], eps(3.0), mixed_specs())
            .unwrap()
            .aggregator()
            .unwrap();
        assert!(agg.merge(other).is_err());
    }

    #[test]
    fn absorb_with_rejects_cross_session_encoders() {
        // Same protocol and ε but a different schema: `absorb_with`, which
        // trusts the report it encodes, must return an error (in release
        // builds too), never index another session's accumulators.
        let encoder = ClientEncoder::new(PROTOCOLS[0], eps(2.0), mixed_specs()).unwrap();
        let bigger = vec![
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 9 },
            AttrSpec::Numeric,
            AttrSpec::Categorical { k: 3 },
        ];
        let foreign = ClientEncoder::new(PROTOCOLS[0], eps(2.0), bigger.clone()).unwrap();
        let mut agg = encoder.aggregator().unwrap();
        let mut rng = seeded_rng(4);
        let mut scratch = foreign.scratch();
        let tuple = vec![
            AttrValue::Numeric(0.0),
            AttrValue::Categorical(8),
            AttrValue::Numeric(0.0),
            AttrValue::Categorical(0),
        ];
        assert!(agg
            .absorb_with(&foreign, &tuple, &mut rng, &mut scratch)
            .is_err());
    }

    #[test]
    fn duchi_composition_round_trips_through_both_paths() {
        let protocol = Protocol::BestEffort {
            numeric: BestEffortNumeric::DuchiMultidim,
            oracle: OracleKind::Grr,
        };
        let encoder = ClientEncoder::new(protocol, eps(2.0), mixed_specs()).unwrap();
        let mut rng_a = seeded_rng(9);
        let mut rng_b = seeded_rng(9);
        let mut two_call = encoder.aggregator().unwrap();
        let mut one_call = encoder.aggregator().unwrap();
        let mut scratch_a = encoder.scratch();
        let mut scratch_b = encoder.scratch();
        let mut report = encoder.empty_report();
        for i in 0..300 {
            let tuple = mixed_tuple(i);
            encoder
                .encode_into(&tuple, &mut rng_a, &mut report, &mut scratch_a)
                .unwrap();
            two_call.absorb(&report).unwrap();
            one_call
                .absorb_with(&encoder, &tuple, &mut rng_b, &mut scratch_b)
                .unwrap();
        }
        let a = two_call.snapshot().unwrap();
        let b = one_call.snapshot().unwrap();
        assert_eq!(a.mean_vector(), b.mean_vector());
        assert_eq!(a.frequencies, b.frequencies);
    }

    #[test]
    fn composition_wire_codec_round_trips_both_payload_kinds() {
        use ldp_core::multidim::wire;
        for oracle in [OracleKind::Oue, OracleKind::Grr] {
            let unary = oracle != OracleKind::Grr;
            let protocol = Protocol::BestEffort {
                numeric: BestEffortNumeric::PerAttribute(NumericKind::Laplace),
                oracle,
            };
            let encoder = ClientEncoder::new(protocol, eps(2.0), mixed_specs()).unwrap();
            let mut rng = seeded_rng(23);
            for i in 0..100 {
                let Report::Composition(report) =
                    encoder.encode(&mixed_tuple(i), &mut rng).unwrap()
                else {
                    unreachable!("composition protocol");
                };
                let bytes = wire::encode_full(&report, encoder.specs());
                // The encoded size is the canonical accounting, exactly.
                assert_eq!(
                    bytes.len(),
                    wire::full_report_bits(encoder.specs(), unary).div_ceil(8)
                );
                let back = wire::decode_full(encoder.specs(), &bytes, unary).unwrap();
                assert_eq!(back, report, "{oracle:?} round {i}");
            }
        }
        // Truncated buffers are rejected, not misread.
        assert!(wire::decode_full(&mixed_specs(), &[0u8; 2], true).is_err());
    }

    #[test]
    fn empty_aggregator_snapshot_fails() {
        let encoder = ClientEncoder::new(PROTOCOLS[0], eps(1.0), mixed_specs()).unwrap();
        let agg = encoder.aggregator().unwrap();
        assert!(agg.snapshot().is_err());
        assert_eq!(agg.users(), 0);
        assert_eq!(agg.partials(), 0);
    }
}
