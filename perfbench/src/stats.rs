//! Medians and quantiles.

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = s.len();
    if k % 2 == 1 {
        s[k / 2]
    } else {
        (s[k / 2 - 1] + s[k / 2]) / 2.0
    }
}

/// Nearest-rank quantile of already sorted host timings.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile of integer counts (steps, ticks, rounds) read as the grouped
/// data they are: a sample `v` stands for an elapsed time in `[v, v + 1)`,
/// and the quantile interpolates inside the bin it falls in. Unlike a
/// nearest-rank quantile it moves smoothly when the distribution shifts by
/// less than one unit, so a change of seed does not flip it between two
/// neighbouring integers. A pure function of the samples.
pub fn grouped_quantile(samples: &[u64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of nothing");
    let mut s = samples.to_vec();
    s.sort_unstable();
    let target = q * s.len() as f64;
    let mut below = 0usize;
    let mut i = 0;
    while i < s.len() {
        let v = s[i];
        let mut j = i;
        while j < s.len() && s[j] == v {
            j += 1;
        }
        let at = j - i;
        if (below + at) as f64 >= target {
            return v as f64 + (target - below as f64) / at as f64;
        }
        below += at;
        i = j;
    }
    (s[s.len() - 1] + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_quantile_interpolates_inside_a_bin() {
        // Half the mass at 2, half at 3: the median is the top of bin 2.
        assert_eq!(grouped_quantile(&[2, 2, 3, 3], 0.5), 3.0);
        // Three quarters at 2: the median sits two thirds into bin 2.
        let m = grouped_quantile(&[2, 2, 2, 3], 0.5);
        assert!((m - (2.0 + 2.0 / 3.0)).abs() < 1e-12);
        assert!(grouped_quantile(&[0, 0, 0], 0.5) > 0.0);
    }

    #[test]
    fn nearest_rank_and_median() {
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.99), 4);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
