//! Gradient clipping (§V: "if any entry of ∇ℓ is greater than 1 (resp.
//! smaller than −1), the user should clip it to 1 (resp. −1) before
//! perturbation").
//!
//! Clipping is what lets the LDP mechanisms assume a `[-1, 1]` input domain;
//! it introduces bias into the *gradient direction* but keeps the privacy
//! analysis exact, which is the standard trade in private SGD.

/// Clips every coordinate into `[-1, 1]` in place.
pub fn clip_unit(grad: &mut [f64]) {
    for g in grad {
        *g = g.clamp(-1.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clips_out_of_range_only() {
        let mut g = vec![-3.0, -1.0, 0.5, 1.0, 7.0];
        clip_unit(&mut g);
        assert_eq!(g, vec![-1.0, -1.0, 0.5, 1.0, 1.0]);
    }

    #[test]
    fn idempotent() {
        let mut g = vec![-5.0, 5.0];
        clip_unit(&mut g);
        let snapshot = g.clone();
        clip_unit(&mut g);
        assert_eq!(g, snapshot);
    }
}
