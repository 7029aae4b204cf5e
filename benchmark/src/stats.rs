//! The benchmark's own arithmetic: percentiles, the "highest percentile
//! with at least ten samples beyond it" rule, and run-to-run spread.

/// Candidate tail percentiles, in per-mille, lowest first.
const TAILS: [u32; 5] = [750, 900, 950, 990, 999];

/// Nearest-rank position (1-based) of `per_mille`/1000 among `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Value at `per_mille`/1000 of an ascending slice, nearest-rank. Empty
/// input reads 0.
pub fn percentile(sorted: &[u64], per_mille: u32) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[rank(n, per_mille) - 1],
    }
}

/// Samples strictly beyond the nearest-rank position of `per_mille`.
pub fn samples_beyond(n: usize, per_mille: u32) -> usize {
    n.saturating_sub(rank(n, per_mille))
}

/// The highest tail percentile (per-mille) that still has at least ten
/// samples beyond it; `None` when even p75 does not (n < 40).
pub fn highest_supported_tail(n: usize) -> Option<u32> {
    TAILS
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

pub fn label(per_mille: u32) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

pub fn median_u64(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    percentile(samples, 500)
}

/// The `per_mille` percentile of every full window of `window` consecutive
/// samples, and of those the median. A plain percentile over a whole run
/// sits wherever the host's slow spells put it: a spell covering 2 % of a
/// run owns its p99 outright, one covering 0.5 % leaves it alone. A window's
/// percentile only sees the spells inside that window, and the median over
/// windows drops the windows that were hit. Fewer samples than one window:
/// the plain percentile.
pub fn windowed_percentile(in_order: &[u64], window: usize, per_mille: u32) -> u64 {
    let of = |samples: &[u64]| {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        percentile(&sorted, per_mille)
    };
    let mut tails: Vec<u64> = in_order.chunks_exact(window.max(1)).map(of).collect();
    if tails.is_empty() {
        of(in_order)
    } else {
        median_u64(&mut tails)
    }
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median_f64(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 950), 95);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 999), 100);
        assert_eq!(percentile(&[7], 990), 7);
        assert_eq!(percentile(&[], 500), 0);
    }

    #[test]
    fn tail_choice_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(highest_supported_tail(1000), Some(990));
        assert_eq!(highest_supported_tail(999), Some(950));
        // p95 needs 200 samples, p90 needs 100, p75 needs 40.
        assert_eq!(highest_supported_tail(200), Some(950));
        assert_eq!(highest_supported_tail(199), Some(900));
        assert_eq!(highest_supported_tail(100), Some(900));
        assert_eq!(highest_supported_tail(99), Some(750));
        assert_eq!(highest_supported_tail(40), Some(750));
        assert_eq!(highest_supported_tail(39), None);
        assert_eq!(highest_supported_tail(0), None);
        assert_eq!(highest_supported_tail(10_000), Some(999));
    }

    #[test]
    fn windowed_percentile_ignores_a_slow_spell_a_plain_one_does_not() {
        // Five windows of 1..=100; the third ran ten times slower.
        let mut v: Vec<u64> = Vec::new();
        for w in 0..5 {
            v.extend((1..=100).map(|x| if w == 2 { x * 10 } else { x }));
        }
        assert_eq!(windowed_percentile(&v, 100, 950), 95);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(percentile(&sorted, 950), 750);
        // A trailing partial window is left out; the order inside one is free.
        v.extend([1_000_000; 99]);
        assert_eq!(windowed_percentile(&v, 100, 950), 95);
        // Less than one window: the plain percentile of what there is.
        assert_eq!(windowed_percentile(&[3, 1, 2], 100, 500), 2);
        assert_eq!(windowed_percentile(&[], 100, 500), 0);
    }

    #[test]
    fn labels() {
        assert_eq!(label(500), "p50");
        assert_eq!(label(999), "p99.9");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn medians() {
        assert_eq!(median_u64(&mut [5, 1, 9]), 5);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
