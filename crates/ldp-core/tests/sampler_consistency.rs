//! Binds each sampler to its declared distribution: histogram checks of the
//! continuous mechanisms against their pdfs, and exact-probability checks of
//! the discrete ones. These are the tests that would catch a correct pdf
//! with a buggy sampler (or vice versa).

use ldp_core::multidim::DuchiMultidim;
use ldp_core::numeric::{Piecewise, Scdf, Staircase};
use ldp_core::rng::seeded_rng;
use ldp_core::Epsilon;
use std::collections::HashMap;

/// Chi-square-style histogram comparison: empirical bin frequencies vs the
/// pdf integrated over each bin (midpoint approximation).
fn assert_histogram_matches_pdf(
    samples: &[f64],
    lo: f64,
    hi: f64,
    bins: usize,
    pdf: impl Fn(f64) -> f64,
    label: &str,
) {
    let width = (hi - lo) / bins as f64;
    let mut counts = vec![0usize; bins];
    let mut inside = 0usize;
    for &x in samples {
        if x >= lo && x < hi {
            counts[((x - lo) / width) as usize] += 1;
            inside += 1;
        }
    }
    assert!(
        inside as f64 >= 0.98 * samples.len() as f64,
        "{label}: support window misses too much mass"
    );
    let n = samples.len() as f64;
    for (b, &c) in counts.iter().enumerate() {
        // Integrate the pdf over the bin with fine sub-sampling, so bins
        // straddling a density discontinuity get their true mass.
        let sub = 400;
        let start = lo + b as f64 * width;
        let expect: f64 = (0..sub)
            .map(|i| pdf(start + (i as f64 + 0.5) * width / sub as f64) * width / sub as f64)
            .sum();
        let got = c as f64 / n;
        // Tolerance: 5σ binomial noise plus the residual sub-sampling error.
        let sigma = (expect.max(1e-12) * (1.0 - expect) / n).sqrt();
        let tol = 5.0 * sigma + 3e-4;
        assert!(
            (got - expect).abs() <= tol,
            "{label}: bin {b} (start {start:.3}): got {got:.5}, expect {expect:.5}, tol {tol:.5}"
        );
    }
}

#[test]
fn pm_sampler_matches_pdf() {
    for (eps, t) in [(1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (4.0, -0.3)] {
        let pm = Piecewise::new(Epsilon::new(eps).unwrap());
        let mut rng = seeded_rng(900);
        let n = 400_000;
        let samples: Vec<f64> = (0..n).map(|_| pm.perturb(t, &mut rng).unwrap()).collect();
        assert_histogram_matches_pdf(
            &samples,
            -pm.c(),
            pm.c(),
            40,
            |x| pm.pdf(x, t),
            &format!("PM eps={eps} t={t}"),
        );
    }
}

#[test]
fn scdf_sampler_matches_noise_pdf() {
    let eps = 1.0;
    let m = Scdf::new(Epsilon::new(eps).unwrap());
    let t = 0.4;
    let mut rng = seeded_rng(901);
    let n = 400_000;
    // Noise = output − input; compare against the noise pdf on a window
    // holding ≈99.9% of the mass.
    let samples: Vec<f64> = (0..n)
        .map(|_| m.perturb(t, &mut rng).unwrap() - t)
        .collect();
    assert_histogram_matches_pdf(&samples, -16.0, 16.0, 64, |x| m.noise_pdf(x), "SCDF");
}

#[test]
fn staircase_sampler_matches_noise_pdf() {
    let eps = 2.0;
    let m = Staircase::new(Epsilon::new(eps).unwrap());
    let t = -0.8;
    let mut rng = seeded_rng(902);
    let n = 400_000;
    let samples: Vec<f64> = (0..n)
        .map(|_| m.perturb(t, &mut rng).unwrap() - t)
        .collect();
    assert_histogram_matches_pdf(&samples, -10.0, 10.0, 50, |x| m.noise_pdf(x), "Staircase");
}

/// For d = 2 (even: ties s·v = 0 exist) the full output distribution of
/// Algorithm 3 can be enumerated; compare the sampler against the exact
/// probabilities computed from the algorithm's definition.
#[test]
fn duchi_md_d2_matches_exact_distribution() {
    let eps = 1.0;
    let t = [0.6, -0.2];
    let md = DuchiMultidim::new(Epsilon::new(eps).unwrap(), 2).unwrap();

    // Exact output distribution over the four vertices.
    // v ∈ {±1}²: Pr[v] = Π (1/2 + v_j t_j / 2).
    // T⁺(v) = {s : s·v ≥ 0} = {v, (v₁,-v₂), (-v₁,v₂)} … for d=2 the
    // halfspace contains v itself plus the two tie vectors s with s·v = 0.
    let e = eps.exp();
    let p_plus = e / (e + 1.0);
    let mut exact: HashMap<(i8, i8), f64> = HashMap::new();
    for v1 in [-1.0f64, 1.0] {
        for v2 in [-1.0f64, 1.0] {
            let pv = (0.5 + v1 * t[0] / 2.0) * (0.5 + v2 * t[1] / 2.0);
            for s1 in [-1.0f64, 1.0] {
                for s2 in [-1.0f64, 1.0] {
                    let dot = s1 * v1 + s2 * v2;
                    // |T⁺| = |T⁻| = 3 for d = 2 (ties belong to both).
                    let p_s = if dot >= 0.0 { p_plus / 3.0 } else { 0.0 }
                        + if dot <= 0.0 {
                            (1.0 - p_plus) / 3.0
                        } else {
                            0.0
                        };
                    *exact.entry((s1 as i8, s2 as i8)).or_insert(0.0) += pv * p_s;
                }
            }
        }
    }
    let total: f64 = exact.values().sum();
    assert!(
        (total - 1.0).abs() < 1e-12,
        "exact distribution sums to {total}"
    );

    // Empirical distribution.
    let mut rng = seeded_rng(903);
    let n = 500_000;
    let mut counts: HashMap<(i8, i8), usize> = HashMap::new();
    let (mut out, mut scratch) = (Vec::new(), md.scratch());
    for _ in 0..n {
        md.perturb_into(&t, &mut rng, &mut out, &mut scratch)
            .unwrap();
        let key = (out[0].signum() as i8, out[1].signum() as i8);
        *counts.entry(key).or_insert(0) += 1;
    }
    for (key, &p) in &exact {
        let got = *counts.get(key).unwrap_or(&0) as f64 / n as f64;
        let sigma = (p * (1.0 - p) / n as f64).sqrt();
        assert!(
            (got - p).abs() < 5.0 * sigma + 1e-4,
            "vertex {key:?}: got {got:.5}, exact {p:.5}"
        );
    }

    // And the exact distribution is unbiased after the B scaling — the
    // property Equation 10's B was derived for.
    for (j, &tj) in t.iter().enumerate().take(2) {
        let mean: f64 = exact
            .iter()
            .map(|((s1, s2), p)| {
                let s = if j == 0 { *s1 } else { *s2 };
                f64::from(s) * md.b() * p
            })
            .sum();
        assert!(
            (mean - tj).abs() < 1e-9,
            "coordinate {j}: exact mean {mean} vs {tj}"
        );
    }
}

/// Empirical ε-LDP check on PM's *sampler* (not just its pdf): the ratio of
/// output-bin frequencies between the two extreme inputs must not exceed
/// e^ε beyond sampling noise.
#[test]
fn pm_sampler_respects_ldp_ratio_empirically() {
    let eps = 1.0;
    let pm = Piecewise::new(Epsilon::new(eps).unwrap());
    let mut rng = seeded_rng(904);
    let n = 600_000;
    let bins = 16;
    let width = 2.0 * pm.c() / bins as f64;
    let mut hist = |t: f64| -> Vec<f64> {
        let mut counts = vec![0.0; bins];
        for _ in 0..n {
            let x = pm.perturb(t, &mut rng).unwrap();
            let b = (((x + pm.c()) / width) as usize).min(bins - 1);
            counts[b] += 1.0;
        }
        counts.iter().map(|c| c / n as f64).collect()
    };
    let h1 = hist(-1.0);
    let h2 = hist(1.0);
    for b in 0..bins {
        // Skip bins with negligible mass where the ratio is pure noise.
        if h1[b] < 5e-4 || h2[b] < 5e-4 {
            continue;
        }
        let ratio = h1[b] / h2[b];
        assert!(
            ratio < eps.exp() * 1.15 && ratio > (-eps).exp() / 1.15,
            "bin {b}: ratio {ratio} outside e^±ε"
        );
    }
}
