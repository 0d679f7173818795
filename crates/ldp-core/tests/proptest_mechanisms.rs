//! Property-based tests of the core mechanism invariants.
//!
//! The deterministic properties — privacy ratio bounds, output support,
//! closed-form identities — are checked over randomized inputs; the
//! statistical properties (unbiasedness, variance) live in the unit and
//! integration tests where sample sizes can be controlled.

use ldp_core::math::{epsilon_sharp, epsilon_star};
use ldp_core::multidim::{optimal_k, DuchiMultidim, SamplingPerturber, SparseReport};
use ldp_core::numeric::{Duchi1d, Hybrid, Piecewise, Scdf, Staircase};
use ldp_core::rng::seeded_rng;
use ldp_core::{
    variance, AttrSpec, CategoricalReport, Epsilon, NumericKind, NumericMechanism, OracleKind,
};
use proptest::prelude::*;

fn eps_strategy() -> impl Strategy<Value = f64> {
    // The paper's working range, avoiding degenerate extremes.
    0.05f64..8.0
}

fn unit_strategy() -> impl Strategy<Value = f64> {
    -1.0f64..=1.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Definition 1 on PM's density: pdf(x|t) ≤ e^ε · pdf(x|t') for all
    /// inputs t, t' and outputs x in [-C, C].
    #[test]
    fn pm_density_ratio_bounded(
        eps in eps_strategy(),
        t in unit_strategy(),
        u in unit_strategy(),
        frac in 0.0f64..=1.0,
    ) {
        let pm = Piecewise::new(Epsilon::new(eps).unwrap());
        let x = -pm.c() + 2.0 * pm.c() * frac;
        let (a, b) = (pm.pdf(x, t), pm.pdf(x, u));
        prop_assert!(a <= eps.exp() * b * (1.0 + 1e-12),
            "eps={eps} t={t} u={u} x={x}: {a} vs {b}");
    }

    /// PM's density never vanishes inside [-C, C] (plausible deniability:
    /// every output is compatible with every input).
    #[test]
    fn pm_density_positive_on_support(
        eps in eps_strategy(),
        t in unit_strategy(),
        frac in 0.0f64..=1.0,
    ) {
        let pm = Piecewise::new(Epsilon::new(eps).unwrap());
        let x = -pm.c() + 2.0 * pm.c() * frac;
        prop_assert!(pm.pdf(x, t) > 0.0);
    }

    /// PM outputs stay within [-C, C]; Duchi outputs are exactly ±magnitude.
    #[test]
    fn bounded_outputs(eps in eps_strategy(), t in unit_strategy(), seed in 0u64..1000) {
        let e = Epsilon::new(eps).unwrap();
        let mut rng = seeded_rng(seed);
        let pm = Piecewise::new(e);
        let x = pm.perturb(t, &mut rng).unwrap();
        prop_assert!(x.abs() <= pm.c() + 1e-12);

        let duchi = Duchi1d::new(e);
        let y = duchi.perturb(t, &mut rng).unwrap();
        prop_assert!((y.abs() - duchi.magnitude()).abs() < 1e-12);

        let hm = Hybrid::new(e);
        let z = hm.perturb(t, &mut rng).unwrap();
        prop_assert!(z.abs() <= hm.output_bound().unwrap() + 1e-12);
    }

    /// The discrete Definition 1 check for Duchi's two-point distribution.
    #[test]
    fn duchi_ratio_bounded(eps in eps_strategy(), t in unit_strategy(), u in unit_strategy()) {
        let duchi = Duchi1d::new(Epsilon::new(eps).unwrap());
        let bound = eps.exp() * (1.0 + 1e-12);
        let (pt, pu) = (duchi.head_probability(t), duchi.head_probability(u));
        prop_assert!(pt <= bound * pu + 1e-15);
        prop_assert!((1.0 - pt) <= bound * (1.0 - pu) + 1e-15);
    }

    /// Additive stepped-noise mechanisms: f(x−t) ≤ e^ε f(x−t') over a window
    /// wide enough to cover the mass that matters.
    #[test]
    fn stepped_noise_ratio_bounded(
        eps in 0.1f64..6.0,
        t in unit_strategy(),
        u in unit_strategy(),
        x in -12.0f64..12.0,
    ) {
        let e = Epsilon::new(eps).unwrap();
        let bound = eps.exp() * (1.0 + 1e-9);
        let scdf = Scdf::new(e);
        prop_assert!(scdf.noise_pdf(x - t) <= bound * scdf.noise_pdf(x - u));
        let st = Staircase::new(e);
        prop_assert!(st.noise_pdf(x - t) <= bound * st.noise_pdf(x - u));
    }

    /// Lemma 1's closed form equals the trait method for every (ε, t).
    #[test]
    fn variance_formula_consistency(eps in eps_strategy(), t in unit_strategy()) {
        let e = Epsilon::new(eps).unwrap();
        prop_assert!((Piecewise::new(e).variance(t) - variance::pm_1d(eps, t)).abs() < 1e-10);
        prop_assert!((Hybrid::new(e).variance(t) - variance::hm_1d(eps, t)).abs() < 1e-10);
        prop_assert!((Duchi1d::new(e).variance(t) - variance::duchi_1d(eps, t)).abs() < 1e-10);
    }

    /// Table I, d = 1: the regime orderings hold pointwise.
    #[test]
    fn table1_orderings_hold(eps in eps_strategy()) {
        let pm = variance::pm_1d_worst(eps);
        let hm = variance::hm_1d_worst(eps);
        let du = variance::duchi_1d_worst(eps);
        // HM never exceeds either component.
        prop_assert!(hm <= pm + 1e-9, "eps={eps}");
        prop_assert!(hm <= du + 1e-9, "eps={eps}");
        // The PM/Duchi order flips exactly at ε#.
        if eps > epsilon_sharp() + 1e-6 {
            prop_assert!(pm < du, "eps={eps}");
        } else if eps < epsilon_sharp() - 1e-6 {
            prop_assert!(pm > du, "eps={eps}");
        }
        // Below ε*, HM equals Duchi.
        if eps <= epsilon_star() {
            prop_assert!((hm - du).abs() < 1e-9, "eps={eps}");
        }
        // PM beats Laplace everywhere (§III-B).
        prop_assert!(pm < variance::laplace(eps), "eps={eps}");
    }

    /// Corollary 2's strict ordering for multidimensional data.
    #[test]
    fn corollary_2_ordering(eps in eps_strategy(), d in 2usize..100) {
        let hm = variance::hm_md_worst(eps, d);
        let pm = variance::pm_md_worst(eps, d);
        let du = variance::duchi_md_worst(eps, d);
        prop_assert!(hm < pm + 1e-9, "d={d} eps={eps}: {hm} vs {pm}");
        prop_assert!(pm < du + 1e-6, "d={d} eps={eps}: {pm} vs {du}");
    }

    /// Equation 12's k is always feasible and optimal among 1..=d for the
    /// worst-case PM variance (up to the floor's 1-step discretization).
    #[test]
    fn optimal_k_minimizes_pm_worst_case(eps in 0.5f64..20.0, d in 1usize..40) {
        let e = Epsilon::new(eps).unwrap();
        let k_star = optimal_k(e, d);
        prop_assert!(k_star >= 1 && k_star <= d);
        let best = variance::pm_md_with_k(eps, d, k_star, 1.0);
        // The analytic optimum of the continuous relaxation is within one
        // step of Eq. 12's floor; allow the neighbours to tie but no k may
        // beat k* by more than a whisker beyond discretization effects.
        for k in 1..=d {
            if (k as i64 - k_star as i64).abs() > 1 {
                let other = variance::pm_md_with_k(eps, d, k, 1.0);
                prop_assert!(other >= best * 0.75,
                    "d={d} eps={eps}: k={k} ({other}) far better than k*={k_star} ({best})");
            }
        }
    }

    /// Algorithm 4's report structure: exactly k sorted entries, scaled
    /// values within d/k · C of zero.
    #[test]
    fn sampling_report_structure(eps in 0.5f64..8.0, d in 1usize..20, seed in 0u64..500) {
        let e = Epsilon::new(eps).unwrap();
        let p = SamplingPerturber::new(
            e, vec![AttrSpec::Numeric; d], NumericKind::Piecewise, OracleKind::Oue).unwrap();
        let mut rng = seeded_rng(seed);
        let t: Vec<f64> = (0..d).map(|j| (j as f64 / d as f64) * 2.0 - 1.0).collect();
        let mut report = SparseReport::with_capacity(p.d(), p.k());
        p.perturb_into(
            &t.iter().map(|&x| ldp_core::AttrValue::Numeric(x)).collect::<Vec<_>>(),
            &mut rng, &mut report, &mut p.scratch()).unwrap();
        prop_assert_eq!(report.entries.len(), p.k());
        prop_assert!(report.entries.windows(2).all(|w| w[0].0 < w[1].0));
        let c = (e.value() / (2.0 * p.k() as f64)).exp();
        let c = (c + 1.0) / (c - 1.0);
        let bound = p.scale() * c + 1e-9;
        for (_, rep) in &report.entries {
            if let ldp_core::AttrReport::Numeric(x) = rep {
                prop_assert!(x.abs() <= bound, "|{x}| > {bound}");
            }
        }
    }

    /// Duchi MD outputs are hypercube vertices with the Equation 10
    /// magnitude, for any dimension.
    #[test]
    fn duchi_md_vertices(eps in 0.2f64..6.0, d in 1usize..30, seed in 0u64..200) {
        let md = DuchiMultidim::new(Epsilon::new(eps).unwrap(), d).unwrap();
        let mut rng = seeded_rng(seed);
        let t: Vec<f64> = (0..d).map(|j| ((j * 7919) % 2000) as f64 / 1000.0 - 1.0).collect();
        let mut out = Vec::new();
        md.perturb_into(&t, &mut rng, &mut out, &mut md.scratch()).unwrap();
        prop_assert_eq!(out.len(), d);
        for x in out {
            prop_assert!((x.abs() - md.b()).abs() < 1e-9);
        }
    }

    /// The wire codec round-trips every report the sampling perturber can
    /// produce, for random schemas, budgets, and k.
    #[test]
    fn wire_codec_round_trips(
        eps in 0.3f64..8.0,
        seed in 0u64..500,
        schema_bits in prop::collection::vec(prop::option::of(2u32..20), 1..10),
        k_frac in 0.0f64..=1.0,
    ) {
        use ldp_core::multidim::wire::{decode_sampled, encode_sampled};
        // None → numeric attribute, Some(k) → categorical with domain k.
        let specs: Vec<AttrSpec> = schema_bits
            .iter()
            .map(|c| match c {
                None => AttrSpec::Numeric,
                Some(k) => AttrSpec::Categorical { k: *k },
            })
            .collect();
        let d = specs.len();
        let k = ((k_frac * d as f64).ceil() as usize).clamp(1, d);
        let e = Epsilon::new(eps).unwrap();
        for (oracle, unary) in [(OracleKind::Oue, true), (OracleKind::Grr, false)] {
            let p = SamplingPerturber::with_k(
                e, specs.clone(), NumericKind::Hybrid, oracle, k).unwrap();
            let tuple: Vec<ldp_core::AttrValue> = specs
                .iter()
                .map(|s| match s {
                    AttrSpec::Numeric => ldp_core::AttrValue::Numeric(0.5),
                    AttrSpec::Categorical { k } => ldp_core::AttrValue::Categorical(k - 1),
                })
                .collect();
            let mut rng = seeded_rng(seed);
            let mut report = SparseReport::with_capacity(p.d(), p.k());
            p.perturb_into(&tuple, &mut rng, &mut report, &mut p.scratch()).unwrap();
            let bytes = encode_sampled(&report, &specs);
            let back = decode_sampled(&specs, &bytes, unary).unwrap();
            prop_assert_eq!(back.d, report.d);
            prop_assert_eq!(back.entries, report.entries);
        }
    }

    /// Decoding into one recycled report gives exactly what a fresh report
    /// gives: every `Ok` is the fresh decoder's report and every `Err` its
    /// error, whatever the recycled report held before — the leftovers of
    /// a failed decode included. Both layouts, every oracle, domains up to
    /// three bit-vector words, and valid, truncated, overlong,
    /// out-of-range, over-counted and random inputs in one sequence.
    #[test]
    fn recycled_decode_matches_fresh_decode(
        eps in 0.3f64..8.0,
        schema_bits in prop::collection::vec(prop::option::of(2u32..=130), 1..7),
        oracle in 0usize..3,
        inputs in prop::collection::vec((0u8..8, 0u64..1_000_000), 1..24),
    ) {
        use ldp_core::multidim::wire::{
            decode_full, decode_full_into, decode_sampled, decode_sampled_into, encode_full,
            encode_sampled, index_bits, BitWriter,
        };
        use rand::RngCore;
        let specs: Vec<AttrSpec> = schema_bits
            .iter()
            .map(|c| match c {
                None => AttrSpec::Numeric,
                Some(k) => AttrSpec::Categorical { k: *k },
            })
            .collect();
        let d = specs.len();
        let oracle = OracleKind::ALL[oracle];
        let unary = oracle != OracleKind::Grr;
        let tuple: Vec<ldp_core::AttrValue> = specs
            .iter()
            .map(|s| match s {
                AttrSpec::Numeric => ldp_core::AttrValue::Numeric(0.5),
                AttrSpec::Categorical { k } => ldp_core::AttrValue::Categorical(k - 1),
            })
            .collect();
        // A direct value one past its domain, in either layout; the first
        // domain that is not a power of two can hold one.
        let out_of_range = |full: bool| {
            let bad = specs
                .iter()
                .position(|s| matches!(s, AttrSpec::Categorical { k } if !k.is_power_of_two()));
            let mut w = BitWriter::new();
            if full {
                for _ in specs.iter().filter(|s| s.is_numeric()) {
                    w.write_bits(0.5f64.to_bits(), 64);
                }
            } else {
                w.write_bits(1, 16);
                w.write_bits(bad.unwrap_or(0) as u64, index_bits(d));
            }
            for (j, spec) in specs.iter().enumerate() {
                if let AttrSpec::Categorical { k } = spec {
                    if full || Some(j) == bad {
                        let v = if Some(j) == bad { *k } else { 0 };
                        w.write_bits(u64::from(v), index_bits(*k as usize));
                    }
                }
            }
            w.finish()
        };
        for full in [false, true] {
            let mut recycled = SparseReport::with_capacity(0, 0);
            for &(shape, seed) in &inputs {
                let mut rng = seeded_rng(seed);
                let k = if full { d } else { 1 + seed as usize % d };
                let p = SamplingPerturber::with_k(
                    Epsilon::new(eps).unwrap(), specs.clone(), NumericKind::Hybrid, oracle, k,
                ).unwrap();
                let mut report = SparseReport::with_capacity(d, k);
                p.perturb_into(&tuple, &mut rng, &mut report, &mut p.scratch()).unwrap();
                let valid = if full {
                    encode_full(&report, &specs)
                } else {
                    encode_sampled(&report, &specs)
                };
                let bytes = match shape {
                    0..=2 => valid,
                    3 => valid[..valid.len() - 1].to_vec(),
                    4 => [valid.as_slice(), &[0xA5]].concat(),
                    5 => out_of_range(full),
                    6 => {
                        // One entry more than the schema has attributes.
                        let mut w = BitWriter::new();
                        w.write_bits(d as u64 + 1, 16);
                        [w.finish().as_slice(), valid.get(2..).unwrap_or_default()].concat()
                    }
                    _ => {
                        let mut junk = vec![0u8; seed as usize % 40];
                        rng.fill_bytes(&mut junk);
                        junk
                    }
                };
                let (fresh, refilled) = if full {
                    (
                        decode_full(&specs, &bytes, unary),
                        decode_full_into(&specs, &bytes, unary, &mut recycled),
                    )
                } else {
                    (
                        decode_sampled(&specs, &bytes, unary),
                        decode_sampled_into(&specs, &bytes, unary, &mut recycled),
                    )
                };
                match fresh {
                    Ok(fresh) => {
                        prop_assert_eq!(refilled, Ok(()));
                        prop_assert_eq!(&recycled, &fresh);
                        if shape <= 2 {
                            prop_assert_eq!(&fresh, &report);
                        }
                    }
                    Err(e) => {
                        prop_assert_eq!(refilled, Err(e));
                        prop_assert!(recycled.entries.is_empty(), "a failed decode left entries");
                    }
                }
            }
        }
    }

    /// Frequency-oracle supports take exactly two values whose expectation
    /// telescope to the {0,1} indicator (the debiasing identity).
    #[test]
    fn oracle_support_debiasing_identity(
        eps in 0.2f64..6.0,
        k in 2u32..40,
        v in 0u32..40,
        seed in 0u64..500,
    ) {
        let v = v % k;
        let e = Epsilon::new(eps).unwrap();
        for kind in OracleKind::ALL {
            let oracle = kind.build(e, k).unwrap();
            let mut rng = seeded_rng(seed);
            let mut report = CategoricalReport::Value(0);
            oracle.perturb_into(v, &mut rng, &mut report).unwrap();
            for target in 0..k {
                let s = oracle.as_dyn().support(&report, target);
                // Debiased indicator: (b − q)/(p − q) with b ∈ {0, 1} —
                // so s·(p−q) + q must be exactly 0 or 1.
                prop_assert!(s.is_finite());
                let (p, q) = probe_pq(kind, eps, k);
                let b = s * (p - q) + q;
                prop_assert!((b - 0.0).abs() < 1e-9 || (b - 1.0).abs() < 1e-9,
                    "{}: b = {b}", kind.name());
            }
        }
    }
}

/// The (p, q) parameters of each oracle, re-derived here so the test does
/// not simply mirror the implementation's accessors.
fn probe_pq(kind: OracleKind, eps: f64, k: u32) -> (f64, f64) {
    match kind {
        OracleKind::Oue => (0.5, 1.0 / (eps.exp() + 1.0)),
        OracleKind::Grr => {
            let denom = eps.exp() + k as f64 - 1.0;
            (eps.exp() / denom, 1.0 / denom)
        }
        OracleKind::Sue => {
            let eh = (eps / 2.0).exp();
            (eh / (eh + 1.0), 1.0 / (eh + 1.0))
        }
    }
}
