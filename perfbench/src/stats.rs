//! The benchmark's own arithmetic: order statistics, tail selection and
//! the peak-RSS reading. Kept free of I/O so the unit tests pin it down.

/// One order statistic of a sample, with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile asked for, in `(0, 1]`.
    pub q: f64,
    /// The nearest-rank value: the smallest sample with at least `q` of
    /// the sample at or below it.
    pub value: f64,
    /// Sample size.
    pub samples: usize,
    /// Samples strictly above `value`. A tail percentile is only
    /// reported when at least [`MIN_BEYOND`] samples lie beyond it.
    pub beyond: usize,
}

/// Samples a reported tail percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
///
/// # Panics
/// On an empty sample or `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = sorted[rank - 1];
    let beyond = n - sorted.partition_point(|&x| x <= value);
    Percentile {
        q,
        value,
        samples: n,
        beyond,
    }
}

/// True when the percentile has enough samples beyond it to be reported.
pub fn is_supported(p: &Percentile) -> bool {
    p.beyond >= MIN_BEYOND
}

/// Median of an unsorted sample (the mean of the two middle values for an
/// even count).
///
/// # Panics
/// On an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest of a set of timings of one operation. Interference on a
/// shared machine only ever adds time, so the minimum is the steadiest
/// estimate of a CPU-bound operation's own cost. `+inf` when empty.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Peak resident set size in MiB from the text of `/proc/self/status`
/// (its `VmHWM:` line, which the kernel writes in kB).
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// Bit-exact, order-sensitive fingerprint of a sequence of words (for
/// estimates, their `to_bits` patterns): FNV-1a over every byte.
pub fn checksum(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let s = sorted(100);
        assert_eq!(percentile(&s, 0.5).value, 50.0);
        assert_eq!(percentile(&s, 0.99).value, 99.0);
        assert_eq!(percentile(&s, 1.0).value, 100.0);
        // Rank rounds up: 0.5 of 5 samples is the 3rd.
        assert_eq!(percentile(&sorted(5), 0.5).value, 3.0);
        assert_eq!(percentile(&[7.0], 0.99).value, 7.0);
    }

    #[test]
    fn beyond_counts_strictly_greater_samples() {
        let p = percentile(&sorted(1000), 0.99);
        assert_eq!((p.value, p.samples, p.beyond), (990.0, 1000, 10));
        assert!(is_supported(&p));
        // 999 samples: p99 is rank 990, nine samples beyond — too few.
        let p = percentile(&sorted(999), 0.99);
        assert_eq!((p.value, p.beyond), (990.0, 9));
        assert!(!is_supported(&p));
    }

    #[test]
    fn ties_at_the_percentile_are_not_beyond_it() {
        let mut s = vec![1.0; 95];
        s.extend([2.0, 2.0, 2.0, 3.0, 4.0]);
        let p = percentile(&s, 0.96);
        assert_eq!(p.value, 2.0);
        assert_eq!(p.beyond, 2);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), f64::INFINITY);
    }

    #[test]
    fn vm_hwm_parses_kernel_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(200.0));
        assert_eq!(vm_hwm_mb("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn checksum_sees_every_bit_and_the_order() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let a = checksum(&bits(&[1.0, 2.0]));
        assert_eq!(a, checksum(&bits(&[1.0, 2.0])));
        assert_ne!(a, checksum(&bits(&[2.0, 1.0])));
        assert_ne!(checksum(&bits(&[0.0])), checksum(&bits(&[-0.0])));
    }
}
