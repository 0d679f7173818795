//! Exact binomial confidence bounds (Clopper-Pearson).
//!
//! The auditor observes `w` successes in `n` Bernoulli trials and needs
//! *certified* one-sided bounds on the unknown success probability: a lower
//! bound that holds with probability ≥ 1−α however adversarial the truth
//! is, and likewise an upper bound. Clopper-Pearson is the classic exact
//! construction — invert the binomial tail itself instead of a normal
//! approximation — and is what the LDP auditing literature uses
//! (Arcolezi et al., 2022).
//!
//! The bounds are quantiles of Beta distributions:
//!
//! * lower: `Beta(α; w, n−w+1)` quantile (0 when `w = 0`),
//! * upper: `Beta(1−α; w+1, n−w)` quantile (1 when `w = n`),
//!
//! computed here from scratch — the regularized incomplete beta via Lentz's
//! continued fraction over [`ldp_core::math::ln_gamma`], and a bisection
//! inverse — because the workspace is offline and deliberately
//! dependency-free. Every step is deterministic, so audit artifacts are
//! bit-reproducible.

use ldp_core::math::ln_gamma;

/// Lentz's continued fraction for the incomplete beta, valid (rapidly
/// convergent) when `x < (a+1)/(a+b+2)`.
fn beta_continued_fraction(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const TINY: f64 = 1e-300;
    const EPS: f64 = 1e-15;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// The regularized incomplete beta function `I_x(a, b)` for `a, b > 0`,
/// `x ∈ [0, 1]` — equivalently the CDF of a Beta(a, b) variable, and (with
/// integer parameters) the binomial tail `P[X ≥ a]` for
/// `X ~ Binomial(a+b−1, x)`.
pub fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && b > 0.0);
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (-x).ln_1p();
    let front = ln_front.exp();
    // Use the continued fraction on whichever side converges fast, and the
    // symmetry I_x(a,b) = 1 − I_{1−x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_continued_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b
    }
}

/// Inverts `I_x(a, b) = target` by bisection. `I_x` is strictly increasing
/// in `x`, so plain bisection is unconditionally convergent; ~90 halvings
/// reach f64 resolution and the loop is branch-deterministic (bit-identical
/// across platforms with IEEE f64).
fn beta_quantile(target: f64, a: f64, b: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&target));
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // interval below f64 resolution
        }
        if incomplete_beta(a, b, mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// One-sided Clopper-Pearson lower bound: the largest `L` such that
/// `P[X ≥ w | p = L] ≤ α` for `X ~ Binomial(n, p)`. The true `p` is above
/// `L` with probability ≥ 1−α.
///
/// # Panics
/// Panics if `wins > trials`, `trials == 0`, or `alpha ∉ (0, 1)`.
pub fn clopper_pearson_lower(wins: u64, trials: u64, alpha: f64) -> f64 {
    assert!(
        trials > 0 && wins <= trials,
        "need 0 ≤ wins ≤ trials, trials > 0"
    );
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    if wins == 0 {
        return 0.0;
    }
    if wins == trials {
        // Closed form: solve p^n = α.
        return alpha.powf(1.0 / trials as f64);
    }
    beta_quantile(alpha, wins as f64, (trials - wins + 1) as f64)
}

/// One-sided Clopper-Pearson upper bound: the smallest `U` such that
/// `P[X ≤ w | p = U] ≤ α`. The true `p` is below `U` with probability
/// ≥ 1−α.
///
/// # Panics
/// As [`clopper_pearson_lower`].
pub fn clopper_pearson_upper(wins: u64, trials: u64, alpha: f64) -> f64 {
    assert!(
        trials > 0 && wins <= trials,
        "need 0 ≤ wins ≤ trials, trials > 0"
    );
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    if wins == trials {
        return 1.0;
    }
    if wins == 0 {
        // Closed form: solve (1−p)^n = α.
        return 1.0 - alpha.powf(1.0 / trials as f64);
    }
    beta_quantile(1.0 - alpha, (wins + 1) as f64, (trials - wins) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn incomplete_beta_is_binomial_tail() {
        // I_p(a, b) with integer a = w, b = n−w+1 equals P[X ≥ w] for
        // X ~ Binomial(n, p); check against a direct sum.
        let n = 20u64;
        let p = 0.3f64;
        for w in 1..n {
            let direct: f64 = (w..=n)
                .map(|i| {
                    let ln_choose = ln_gamma((n + 1) as f64)
                        - ln_gamma((i + 1) as f64)
                        - ln_gamma((n - i + 1) as f64);
                    (ln_choose + i as f64 * p.ln() + (n - i) as f64 * (1.0 - p).ln()).exp()
                })
                .sum();
            let via_beta = incomplete_beta(w as f64, (n - w + 1) as f64, p);
            assert!(
                close(direct, via_beta, 1e-10),
                "w={w}: {direct} vs {via_beta}"
            );
        }
    }

    #[test]
    fn matches_tabulated_two_sided_95pct_interval() {
        // Classic tabulated Clopper-Pearson values (two-sided 95% ⇒ α/2 =
        // 0.025 per side). 5/10 → [0.18708603, 0.81291397].
        let lo = clopper_pearson_lower(5, 10, 0.025);
        let hi = clopper_pearson_upper(5, 10, 0.025);
        assert!(close(lo, 0.187_086_03, 1e-7), "{lo}");
        assert!(close(hi, 0.812_913_97, 1e-7), "{hi}");
        // 10/100 → [0.04900469, 0.17622260].
        let lo = clopper_pearson_lower(10, 100, 0.025);
        let hi = clopper_pearson_upper(10, 100, 0.025);
        assert!(close(lo, 0.049_004_69, 1e-7), "{lo}");
        assert!(close(hi, 0.176_222_60, 1e-7), "{hi}");
    }

    #[test]
    fn boundary_counts_use_closed_forms() {
        let n = 50u64;
        let alpha = 0.01f64;
        assert_eq!(clopper_pearson_lower(0, n, alpha), 0.0);
        assert_eq!(clopper_pearson_upper(n, n, alpha), 1.0);
        // w = 0 upper: 1 − α^{1/n}; w = n lower: α^{1/n}.
        assert!(close(
            clopper_pearson_upper(0, n, alpha),
            1.0 - alpha.powf(1.0 / 50.0),
            1e-12
        ));
        assert!(close(
            clopper_pearson_lower(n, n, alpha),
            alpha.powf(1.0 / 50.0),
            1e-12
        ));
    }

    #[test]
    fn bounds_bracket_the_point_estimate() {
        for (w, n) in [
            (1u64, 10u64),
            (250, 1000),
            (999, 1000),
            (500_000, 1_000_000),
        ] {
            let alpha = 1e-3;
            let lo = clopper_pearson_lower(w, n, alpha);
            let hi = clopper_pearson_upper(w, n, alpha);
            let point = w as f64 / n as f64;
            assert!(lo < point && point < hi, "w={w} n={n}: [{lo}, {hi}]");
        }
    }

    #[test]
    fn coverage_shrinks_with_trials() {
        // Same empirical rate, more trials ⇒ tighter interval.
        let narrow = clopper_pearson_upper(500_000, 1_000_000, 1e-2)
            - clopper_pearson_lower(500_000, 1_000_000, 1e-2);
        let wide =
            clopper_pearson_upper(500, 1_000, 1e-2) - clopper_pearson_lower(500, 1_000, 1e-2);
        assert!(narrow < wide / 10.0, "narrow={narrow} wide={wide}");
    }

    #[test]
    fn lower_bound_monotone_in_wins() {
        let n = 1000u64;
        let alpha = 1e-2;
        let mut prev = -1.0;
        for w in (0..=n).step_by(50) {
            let lo = clopper_pearson_lower(w, n, alpha);
            assert!(lo >= prev - 1e-12, "w={w}: {lo} < {prev}");
            prev = lo;
        }
    }

    #[test]
    #[should_panic(expected = "wins")]
    fn rejects_wins_above_trials() {
        clopper_pearson_lower(11, 10, 0.05);
    }
}
