//! Property tests of the bounded [`LatencyHistogram`] against the
//! keep-every-sample, sort-on-query nearest-rank histogram it replaced,
//! kept here as the oracle.
//!
//! - Below 4,096 every quantile, the maximum and the mean equal the
//!   oracle's exactly.
//! - Above it a quantile never under-reports and over-reports by less than
//!   1/256 of the true value (one log-linear bucket).
//! - Recording into two histograms and merging equals recording everything
//!   into one.
//! - Memory follows the largest value, not the number of observations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sscc_metrics::LatencyHistogram;

/// The sample-vector histogram: every observation kept, sorted on query.
struct Oracle {
    sorted: Vec<u64>,
}

impl Oracle {
    fn new(samples: &[u64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Oracle { sorted }
    }

    fn quantile(&self, q: f64) -> Option<u64> {
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().map(|&v| v as f64).sum::<f64>() / self.sorted.len() as f64
    }

    fn max(&self) -> Option<u64> {
        self.sorted.last().copied()
    }
}

const QUANTILES: [f64; 7] = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];

fn record_all(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// A multiset of `len` values drawn from one of a few shapes, all `< cap`.
fn multiset(rng: &mut StdRng, len: usize, cap: u64) -> Vec<u64> {
    let shape = rng.random_range(0..4);
    let few: Vec<u64> = (0..3).map(|_| rng.random_range(0..cap)).collect();
    (0..len)
        .map(|_| match shape {
            0 => rng.random_range(0..cap),
            // Geometric-ish: most mass near zero, a long thin tail.
            1 => ((rng.random::<f64>().powi(6)) * cap as f64) as u64 % cap,
            // Few distinct values: many ties at every rank.
            2 => few[rng.random_range(0..few.len())],
            _ => rng.random_range(0..cap.min(8)),
        })
        .collect()
}

/// Pareto-tailed values (`α = 1.1`, scale 100), saturating at `u64::MAX`.
fn heavy_tail(rng: &mut StdRng) -> u64 {
    let u = 1.0 - rng.random::<f64>(); // (0, 1]
    (100.0 * u.powf(-1.0 / 1.1)).min(u64::MAX as f64) as u64
}

#[test]
fn quantiles_below_4096_equal_the_sorting_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..300 {
        let len = match case % 3 {
            0 => rng.random_range(1..8),
            1 => rng.random_range(1..300),
            _ => rng.random_range(1..5_000),
        };
        let samples = multiset(&mut rng, len, 4096);
        let h = record_all(&samples);
        let o = Oracle::new(&samples);
        let extra: f64 = rng.random();
        for q in QUANTILES.into_iter().chain([extra]) {
            assert_eq!(h.quantile(q), o.quantile(q), "case {case} q {q}");
        }
        assert_eq!(h.max(), o.max(), "case {case}");
        assert_eq!(h.mean(), o.mean(), "case {case}: mean is exact");
        assert_eq!(h.len(), samples.len());
    }
    let empty = LatencyHistogram::new();
    assert_eq!(empty.quantile(0.5), Oracle::new(&[]).quantile(0.5));
    assert_eq!(empty.max(), None);
    assert_eq!(empty.mean(), 0.0);
}

#[test]
fn quantiles_above_4096_stay_within_one_bucket() {
    let mut rng = StdRng::seed_from_u64(0x7a11);
    for case in 0..200 {
        let len = rng.random_range(1..3_000);
        let samples: Vec<u64> = match case % 3 {
            0 => multiset(&mut rng, len, 1 << 40),
            1 => (0..len).map(|_| heavy_tail(&mut rng)).collect(),
            _ => (0..len)
                .map(|_| rng.random::<u64>() >> rng.random_range(0..64))
                .collect(),
        };
        let h = record_all(&samples);
        let o = Oracle::new(&samples);
        for q in QUANTILES {
            let (got, want) = (h.quantile(q).unwrap(), o.quantile(q).unwrap());
            assert!(got >= want, "case {case} q {q}: {got} under-reports {want}");
            assert!(
                (got - want) as f64 <= want as f64 / 256.0,
                "case {case} q {q}: {got} vs {want} exceeds one bucket"
            );
            if want < 4096 {
                assert_eq!(got, want, "case {case} q {q}: exact region");
            }
        }
        assert_eq!(h.max(), o.max(), "case {case}: max is exact");
        let rel = (h.mean() - o.mean()).abs() / o.mean().max(1.0);
        assert!(
            rel < 1e-12,
            "case {case}: mean {} vs {}",
            h.mean(),
            o.mean()
        );
    }
}

#[test]
fn merging_equals_recording_into_one() {
    let mut rng = StdRng::seed_from_u64(0x3e6e);
    for case in 0..200 {
        let len = rng.random_range(0..2_000);
        let cap = if case % 2 == 0 { 4096 } else { 1 << 50 };
        let samples = multiset(&mut rng, len, cap);
        let cut = rng.random_range(0..=len);
        let (mut a, b) = (record_all(&samples[..cut]), record_all(&samples[cut..]));
        a.merge(&b);
        assert_eq!(
            a,
            record_all(&samples),
            "case {case}: merge == one histogram"
        );
    }
}

#[test]
fn a_million_heavy_tailed_samples_stay_bounded() {
    let mut rng = StdRng::seed_from_u64(0xfa7);
    let samples: Vec<u64> = (0..1_000_000).map(|_| heavy_tail(&mut rng)).collect();
    let mut h = record_all(&samples);
    assert!(
        h.bucket_count() <= LatencyHistogram::MAX_BUCKETS,
        "{} buckets",
        h.bucket_count()
    );
    let o = Oracle::new(&samples);
    for q in QUANTILES {
        let (got, want) = (h.quantile(q).unwrap(), o.quantile(q).unwrap());
        assert!(got >= want && (got - want) as f64 <= want as f64 / 256.0);
    }
    // Memory follows the largest value seen, not the observation count:
    // another million samples no larger than the maximum adds no bucket.
    let (buckets, max) = (h.bucket_count(), h.max().unwrap());
    for _ in 0..1_000_000 {
        h.record(heavy_tail(&mut rng).min(max));
    }
    assert_eq!(h.bucket_count(), buckets);
    assert_eq!(h.len(), 2_000_000);
}
