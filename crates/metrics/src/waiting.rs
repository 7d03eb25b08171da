//! Experiment E7: **waiting time** (Definition 6, Theorem 6) — plus the
//! bounded [`LatencyHistogram`] the open-loop service benchmarks report
//! their request→convene sojourn distributions through (exact quantiles
//! below 4,096 ticks, memory independent of the number of observations).
//!
//! Theorem 6 bounds CC2's waiting time by `O(maxDisc × n)` rounds: after
//! stabilization a token holder keeps the token for `O(maxDisc)` rounds and
//! `O(n)` processes may hold it before a given professor does. We measure,
//! per professor, the largest gap (in *rounds*, the paper's time unit)
//! between successive meeting participations — including the censored
//! initial and final gaps — and report the maximum over professors.

use crate::runner::{build_sim, AlgoKind, Boot, PolicyKind};
use crate::sweep::parallel_map;
use std::sync::Arc;

use sscc_hypergraph::Hypergraph;
use sscc_runtime::wire;

/// Waiting-time measurement for one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaitingOutcome {
    /// Max over professors of the largest participation gap, in rounds.
    pub max_wait_rounds: u64,
    /// Mean (over professors) of their largest gap.
    pub mean_wait_rounds: f64,
    /// Total completed rounds in the run.
    pub total_rounds: u64,
    /// Total post-initial convenes (context: enough samples?).
    pub convened: usize,
}

/// Measure waiting time of `algo` on `h` for one seed.
pub fn measure_waiting(
    h: &Arc<Hypergraph>,
    algo: AlgoKind,
    seed: u64,
    max_disc: u64,
    budget: u64,
) -> WaitingOutcome {
    let mut sim = build_sim(
        algo,
        Arc::clone(h),
        seed,
        PolicyKind::Eager { max_disc },
        Boot::Clean,
    );
    sim.run(budget);
    let n = h.n();
    let end_round = sim.rounds();
    // Participation rounds per professor, from the ledger.
    let mut rounds: Vec<Vec<u64>> = vec![Vec::new(); n];
    for inst in sim.ledger().post_initial_instances() {
        for &p in &inst.participants {
            rounds[p].push(inst.convened_round);
        }
    }
    let mut max_gap = 0u64;
    let mut sum_gap = 0u64;
    for r in &mut rounds {
        r.sort_unstable();
        let mut worst = 0u64;
        let mut prev = 0u64; // gap from the start counts (first wait)
        for &x in r.iter() {
            worst = worst.max(x - prev);
            prev = x;
        }
        worst = worst.max(end_round.saturating_sub(prev)); // censored tail
        max_gap = max_gap.max(worst);
        sum_gap += worst;
    }
    WaitingOutcome {
        max_wait_rounds: max_gap,
        mean_wait_rounds: sum_gap as f64 / n as f64,
        total_rounds: end_round,
        convened: sim.ledger().convened_count(),
    }
}

/// Values below `2^EXACT_BITS` ticks get one bucket each, so every
/// quantile that lands there is exact. It covers every sojourn and queue
/// wait the latency benchmarks record (their largest max is under 1,500
/// ticks).
const EXACT_BITS: u32 = 12;
const EXACT_LIMIT: u64 = 1 << EXACT_BITS;
/// Above [`EXACT_LIMIT`] each octave `[2^k, 2^(k+1))` is split into
/// `2^SUB_BITS` equal buckets: log-linear, relative width `< 2^-SUB_BITS`.
const SUB_BITS: u32 = 8;

/// The bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v < EXACT_LIMIT {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // ≥ EXACT_BITS
    let sub = (v >> (octave - SUB_BITS)) - (1 << SUB_BITS);
    EXACT_LIMIT as usize + (((octave - EXACT_BITS) as usize) << SUB_BITS) + sub as usize
}

/// The smallest and largest value bucket `i` holds
/// (`i < LatencyHistogram::MAX_BUCKETS`).
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < EXACT_LIMIT as usize {
        return (i as u64, i as u64);
    }
    let j = i - EXACT_LIMIT as usize;
    let shift = EXACT_BITS + (j >> SUB_BITS) as u32 - SUB_BITS;
    let sub = (j & ((1 << SUB_BITS) - 1)) as u64;
    let lo = ((1 << SUB_BITS) + sub) << shift;
    (lo, lo + ((1 << shift) - 1))
}

/// Bounded latency distribution with exact quantiles where the service
/// operates. Values below 4,096 get one bucket each, so nearest-rank
/// quantiles there are exact — the CI latency gate rides them, and
/// bucketing error would either hide regressions or flag phantom ones.
/// Larger values fall in log-linear buckets (256 per octave); a quantile
/// there reports its bucket's upper bound clamped to the recorded
/// maximum, so a tail is never under-reported and is over-reported by
/// less than 1/256 of its value.
///
/// Buckets are allocated up to the highest one touched, so memory follows
/// the largest value seen, never the number of observations (at most
/// [`LatencyHistogram::MAX_BUCKETS`] counters). Recording is `O(1)`;
/// queries walk the buckets and take `&self`, so a running service can
/// export its stats without copying or sorting anything. The count, the maximum and the
/// integer sum are tracked exactly. Histograms merge by adding counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Observations per bucket, up to the highest bucket touched.
    counts: Vec<u64>,
    len: u64,
    sum: u128,
    max: u64,
}

impl LatencyHistogram {
    /// Bucket count once `u64::MAX` has been recorded — the memory bound.
    pub const MAX_BUCKETS: usize = EXACT_LIMIT as usize + ((64 - EXACT_BITS as usize) << SUB_BITS);

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (any unit; the service layer records steps).
    pub fn record(&mut self, v: u64) {
        let i = bucket_of(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.len += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Add every observation of `other`, as if each had been recorded here.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.len += other.len;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// No observations yet?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buckets allocated so far (at most [`LatencyHistogram::MAX_BUCKETS`]).
    pub fn bucket_count(&self) -> usize {
        self.counts.len()
    }

    /// Nearest-rank quantile: the smallest value `v` such that at least
    /// `q × len` observations are ≤ `v` — exact below 4,096, else the
    /// upper bound of `v`'s bucket clamped to [`LatencyHistogram::max`].
    /// `q` is clamped to `[0, 1]`; `quantile(0.5)` is the median,
    /// `quantile(1.0)` the maximum. `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.len as f64).ceil() as u64).clamp(1, self.len);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bounds(i).1.min(self.max));
            }
        }
        unreachable!("bucket counts sum to len")
    }

    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.sum as f64 / self.len as f64
    }

    /// Largest observation.
    pub fn max(&self) -> Option<u64> {
        (self.len > 0).then_some(self.max)
    }

    /// Append the wire encoding: bucket counts (varints, up to the highest
    /// bucket touched), the maximum and the sum.
    pub fn encode(&self, out: &mut Vec<u8>) {
        wire::put_varint(out, self.counts.len() as u64);
        for &c in &self.counts {
            wire::put_varint(out, c);
        }
        wire::put_u64(out, self.max);
        wire::put_u64(out, self.sum as u64);
        wire::put_u64(out, (self.sum >> 64) as u64);
    }

    /// Decode a histogram written by [`LatencyHistogram::encode`]. `None`
    /// on truncation or on counts that no sequence of recordings can
    /// produce: more than [`LatencyHistogram::MAX_BUCKETS`] buckets, an
    /// empty highest bucket, a count overflow, a maximum outside the
    /// highest bucket, or a sum outside what the bucket ranges allow.
    pub fn decode(r: &mut wire::Reader) -> Option<Self> {
        let buckets = usize::try_from(r.varint()?).ok()?;
        if buckets > Self::MAX_BUCKETS || buckets > r.remaining() {
            return None;
        }
        let counts = (0..buckets)
            .map(|_| r.varint())
            .collect::<Option<Vec<u64>>>()?;
        let max = r.u64()?;
        let sum = u128::from(r.u64()?) | (u128::from(r.u64()?) << 64);
        let mut len = 0u64;
        let (mut lowest, mut highest) = (0u128, 0u128);
        for (i, &c) in counts.iter().enumerate() {
            len = len.checked_add(c)?;
            let (lo, hi) = bucket_bounds(i);
            lowest = lowest.checked_add(u128::from(c) * u128::from(lo))?;
            highest = highest.checked_add(u128::from(c) * u128::from(hi.min(max)))?;
        }
        match counts.last() {
            None if max == 0 && sum == 0 => {}
            Some(&c) if c > 0 => {
                let (lo, hi) = bucket_bounds(counts.len() - 1);
                if max < lo || max > hi || sum < lowest || sum > highest {
                    return None;
                }
            }
            _ => return None,
        }
        Some(LatencyHistogram {
            counts,
            len,
            sum,
            max,
        })
    }
}

/// One row of the E7 table: waiting time vs `n` and `maxDisc`.
#[derive(Clone, Debug)]
pub struct WaitingRow {
    /// Topology label.
    pub name: String,
    /// Number of professors.
    pub n: usize,
    /// `maxDisc` used.
    pub max_disc: u64,
    /// Worst waiting time across seeds (rounds).
    pub max_wait: u64,
    /// Mean of per-seed max waits.
    pub mean_wait: f64,
    /// The Theorem 6 scale `maxDisc × n` for comparison.
    pub thm6_scale: u64,
}

/// Sweep seeds for one (topology, maxDisc) cell.
pub fn waiting_row(
    name: &str,
    h: &Arc<Hypergraph>,
    algo: AlgoKind,
    max_disc: u64,
    seeds: u64,
    budget: u64,
) -> WaitingRow {
    let outs = parallel_map(0..seeds, |seed| {
        measure_waiting(h, algo, seed, max_disc, budget)
    });
    let max_wait = outs.iter().map(|o| o.max_wait_rounds).max().unwrap_or(0);
    let mean_wait =
        outs.iter().map(|o| o.max_wait_rounds as f64).sum::<f64>() / outs.len().max(1) as f64;
    WaitingRow {
        name: name.to_string(),
        n: h.n(),
        max_disc,
        max_wait,
        mean_wait,
        thm6_scale: max_disc.max(1) * h.n() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sscc_hypergraph::generators;

    #[test]
    fn cc2_waits_are_finite_on_ring() {
        let h = Arc::new(generators::ring(4, 2));
        let o = measure_waiting(&h, AlgoKind::Cc2, 3, 1, 30_000);
        assert!(o.convened >= 4, "enough meetings to measure: {o:?}");
        assert!(o.max_wait_rounds > 0);
        // Fairness: the largest gap is far below the run length.
        assert!(
            o.max_wait_rounds < o.total_rounds / 2,
            "wait {} vs rounds {}",
            o.max_wait_rounds,
            o.total_rounds
        );
    }

    #[test]
    fn latency_histogram_quantiles_are_nearest_rank() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        for v in [5u64, 1, 9, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.quantile(0.0), Some(1), "q=0 clamps to the minimum");
        assert_eq!(h.quantile(0.5), Some(5), "median of 1,3,5,7,9");
        assert_eq!(h.quantile(0.99), Some(9));
        assert_eq!(h.quantile(1.0), Some(9));
        assert_eq!(h.max(), Some(9));
        assert!((h.mean() - 5.0).abs() < 1e-9);
        // Recording after a query keeps results exact.
        h.record(11);
        assert_eq!(h.quantile(1.0), Some(11));
    }

    #[test]
    fn histogram_codec_roundtrips_and_rejects_impossible_counts() {
        let mut h = LatencyHistogram::new();
        let mut bytes = Vec::new();
        h.encode(&mut bytes);
        assert_eq!(
            LatencyHistogram::decode(&mut wire::Reader::new(&bytes)),
            Some(h.clone())
        );
        for v in [0u64, 3, 3, 4095, 4096, 70_000, u64::MAX] {
            h.record(v);
        }
        bytes.clear();
        h.encode(&mut bytes);
        let mut r = wire::Reader::new(&bytes);
        assert_eq!(LatencyHistogram::decode(&mut r), Some(h.clone()));
        assert!(r.is_empty());
        for cut in 0..bytes.len() {
            let mut r = wire::Reader::new(&bytes[..cut]);
            assert_eq!(LatencyHistogram::decode(&mut r), None, "cut {cut}");
        }
        // Hand-built counts: one observation of 5 with a lying max or sum,
        // and a trailing empty bucket.
        let forge = |counts: &[u64], max: u64, sum: u64| {
            let mut b = Vec::new();
            wire::put_varint(&mut b, counts.len() as u64);
            for &c in counts {
                wire::put_varint(&mut b, c);
            }
            wire::put_u64(&mut b, max);
            wire::put_u64(&mut b, sum);
            wire::put_u64(&mut b, 0);
            LatencyHistogram::decode(&mut wire::Reader::new(&b))
        };
        assert!(forge(&[0, 0, 0, 0, 0, 1], 5, 5).is_some());
        assert!(
            forge(&[0, 0, 0, 0, 0, 1], 6, 5).is_none(),
            "max outside bucket"
        );
        assert!(forge(&[0, 0, 0, 0, 0, 1], 5, 4).is_none(), "sum off");
        assert!(
            forge(&[0, 0, 0, 0, 0, 1, 0], 5, 5).is_none(),
            "empty top bucket"
        );
        assert!(forge(&[], 1, 0).is_none(), "empty with a max");
    }

    #[test]
    fn waiting_row_aggregates() {
        let h = Arc::new(generators::ring(4, 2));
        let row = waiting_row("ring4", &h, AlgoKind::Cc2, 1, 4, 20_000);
        assert_eq!(row.n, 4);
        assert!(row.max_wait >= row.mean_wait as u64);
        assert_eq!(row.thm6_scale, 4);
    }
}
