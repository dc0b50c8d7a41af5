//! Deterministic, mergeable one-pass summaries for streaming analytics.
//!
//! The full-scale log-analysis pipeline (DESIGN.md §13) never holds a
//! whole day of measurements in memory: every statistic the reports need
//! is folded into one of the fixed-size summaries in this module as the
//! records stream past, and per-chunk summaries are merged into a global
//! one afterwards. Two summaries are provided:
//!
//! - [`Moments`] — exact streaming count / sum / min / max (mean derived).
//! - [`QuantileSketch`] — a deterministic Munro–Paterson/MRL-style
//!   compactor with bounded rank error: sorted buffers of `k` values are
//!   kept per weight level (weight `2^level`), and when two buffers meet
//!   at a level they are merge-sorted and halved by keeping every other
//!   element, alternating the starting offset per level so odd/even
//!   positions are not systematically favoured.
//!
//! # Determinism & shard-merge contract
//!
//! Both summaries are pure functions of their *push and merge sequence*:
//! no randomness, no time, no addresses. The pipeline therefore defines
//! one canonical sequence — records are pushed chunk by chunk, and chunk
//! summaries are merged in a single flat fold in ascending
//! `(server, chunk)` order — and every `(shards, jobs)` decomposition
//! computes exactly that sequence, parallelising only the (pure)
//! production of chunk summaries. Merging is deliberately *not* treated
//! as associative: a two-level merge tree is a different sequence and may
//! emit different (still in-bounds) digits, which is why shards never
//! pre-merge their chunks. See `tests` for the 1-vs-8-shard invariance
//! property.
//!
//! # Rank convention
//!
//! All exact percentile helpers in the workspace that operate on sorted
//! samples use *nearest-rank*: `percentile_nearest_rank(sorted, q)`
//! returns `sorted[round(q * (n-1))]`. This is the single shared
//! implementation behind `loganalysis::interarrival`,
//! `experiments::fleet`, `mntp::fleet`, and [`crate::bench::Stats`].
//! (It lives here in `devtools` rather than `clocksim::stats` — which
//! keeps its separate, linear-interpolated convention for the simulator
//! tables — because the sketch query below quantises to the same
//! convention in the exact regime.)

/// Nearest-rank percentile over an already-sorted slice.
///
/// `q` is a fraction in `[0, 1]`; the result is the element at index
/// `round(q * (n-1))` (clamped), i.e. an actual sample value, never an
/// interpolation. Returns `0.0` for empty input.
pub fn percentile_nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let idx = ((q.clamp(0.0, 1.0) * (n - 1) as f64).round() as usize).min(n - 1);
    sorted.get(idx).copied().unwrap_or(0.0)
}

/// Sort `xs` into [`f64::total_cmp`] order, bit for bit, by sorting
/// order-preserving `i64` keys instead, which is faster than a comparator
/// sort over floats. Ties are bit-identical values, so the unstable
/// integer sort yields the one sorted array. `collect` between
/// equal-sized element types runs in place, so both conversions reuse
/// the vector's allocation.
pub fn sort_total_order(xs: Vec<f64>) -> Vec<f64> {
    let mut keys: Vec<i64> = xs.into_iter().map(|x| flip_negative(x.to_bits() as i64)).collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| f64::from_bits(flip_negative(k) as u64)).collect()
}

/// `total_cmp`'s key map: flip a negative value's magnitude bits so that
/// larger magnitudes sort lower. It keeps the sign bit, so it is its own
/// inverse.
fn flip_negative(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Exact streaming count / sum / min / max. Mean is `sum / count`.
///
/// Floating-point addition is not associative, so the pipeline's
/// flat-fold merge order (see module docs) is what pins the emitted
/// digits; `Moments` itself just adds in whatever order it is driven.
#[derive(Clone, Debug, Default)]
pub struct Moments {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Empty summary.
    pub fn new() -> Moments {
        Moments { count: 0, sum: 0.0, min: 0.0, max: 0.0 }
    }

    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            if x < self.min {
                self.min = x;
            }
            if x > self.max {
                self.max = x;
            }
        }
        self.count += 1;
        self.sum += x;
    }

    /// Fold another summary in (sum is added after self's, so merge order
    /// matters for the low-order digits — keep it canonical).
    pub fn merge(&mut self, other: &Moments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample; `0.0` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; `0.0` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Resident bytes of this summary (constant).
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Moments>()
    }
}

/// Deterministic mergeable quantile sketch with bounded rank error.
///
/// Structure: an unsorted weight-1 staging buffer of up to `k` values,
/// plus at most one sorted `k`-value buffer per weight level (`2^level`).
/// When the staging buffer fills it is sorted and inserted at level 0;
/// when a level already holds a buffer the two are merge-sorted into `2k`
/// values and *compacted* — every other value is kept, starting from an
/// offset that alternates per level — producing one `k`-value buffer one
/// level up. This is the classic Munro–Paterson collapse; with `L`
/// occupied levels the worst-case rank error of any query is
/// `L / (2k) * count` (each collapse at level `i` perturbs ranks by at
/// most `2^i`, and level `i` collapses at most `count / (k * 2^(i+1))`
/// times), which [`QuantileSketch::rank_error_bound`] reports.
///
/// Memory is `O(k log(count / k))` — 19 levels ≈ 40 KiB at `k = 256` for
/// the paper's 209M-record regime — independent of the value
/// distribution.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    k: usize,
    /// Weight-1 staging buffer (unsorted), `len < k` between operations.
    base: Vec<f64>,
    /// A full sorted weight-1 buffer parked until a sibling arrives —
    /// the 2^0 digit of the binary counter formed by `levels`.
    pending_w1: Vec<f64>,
    /// `levels[i]`: sorted `k`-value buffer of weight `2^(i+1)`, or empty.
    levels: Vec<Vec<f64>>,
    /// Per-level compaction offset flags (alternate odd/even survivors).
    flips: Vec<bool>,
    moments: Moments,
}

/// Default buffer width: rank error ≲ 2% at the full 209M-record scale.
pub const DEFAULT_K: usize = 256;

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new(DEFAULT_K)
    }
}

impl QuantileSketch {
    /// Empty sketch with buffer width `k` (values per level). `k` is
    /// clamped to at least 8.
    pub fn new(k: usize) -> QuantileSketch {
        let k = k.max(8);
        QuantileSketch {
            k,
            base: Vec::new(),
            pending_w1: Vec::new(),
            levels: Vec::new(),
            flips: Vec::new(),
            moments: Moments::new(),
        }
    }

    /// Buffer width this sketch was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.base.push(x);
        if self.base.len() >= self.k {
            self.spill_base();
        }
    }

    /// Fold another sketch in. Both sketches must share the same `k`
    /// (merging summaries of different resolution has no well-defined
    /// error bound); the other's staging values are re-staged here and
    /// its level buffers are inserted level by level, so the result is a
    /// pure function of the two operands.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.moments.count() == 0 {
            return;
        }
        debug_assert_eq!(self.k, other.k, "merging sketches of different k");
        for &x in &other.base {
            self.base.push(x);
            if self.base.len() >= self.k {
                self.spill_base();
            }
        }
        if !other.pending_w1.is_empty() {
            self.insert_level_weight1(other.pending_w1.clone());
        }
        for (level, buf) in other.levels.iter().enumerate() {
            if !buf.is_empty() {
                self.insert_level(buf.clone(), level);
            }
        }
        self.moments.merge(&other.moments);
    }

    fn spill_base(&mut self) {
        let buf = sort_total_order(std::mem::take(&mut self.base));
        // A full staging buffer has weight-1 values; pairwise compaction
        // with another weight-1 buffer happens inside `insert_level`.
        self.insert_level_weight1(buf);
    }

    /// Insert a sorted buffer of `k` weight-1 values. Level slot 0 holds
    /// weight-2 buffers, so two weight-1 buffers compact straight into it.
    fn insert_level_weight1(&mut self, buf: Vec<f64>) {
        if self.pending_w1.is_empty() {
            self.pending_w1 = buf;
        } else {
            let a = std::mem::take(&mut self.pending_w1);
            let merged = self.compact(a, buf, 0);
            self.insert_level(merged, 0);
        }
    }

    /// Insert a sorted `k`-value buffer of weight `2^(level+1)` at `level`,
    /// carrying compactions upward like a binary counter.
    fn insert_level(&mut self, mut buf: Vec<f64>, mut level: usize) {
        loop {
            if self.levels.len() <= level {
                self.levels.resize(level + 1, Vec::new());
                self.flips.resize(level + 1, false);
            }
            let Some(slot) = self.levels.get_mut(level) else { return };
            if slot.is_empty() {
                *slot = buf;
                return;
            }
            let existing = std::mem::take(slot);
            buf = self.compact(existing, buf, level + 1);
            level += 1;
        }
    }

    /// Merge two sorted `k`-value buffers and keep every other survivor,
    /// alternating the starting offset per level. One pass: the merged
    /// sequence is never materialized, only its survivors.
    fn compact(&mut self, a: Vec<f64>, b: Vec<f64>, flip_slot: usize) -> Vec<f64> {
        if self.flips.len() <= flip_slot {
            self.flips.resize(flip_slot + 1, false);
        }
        let offset = self.flips.get(flip_slot).copied().unwrap_or(false);
        if let Some(f) = self.flips.get_mut(flip_slot) {
            *f = !*f;
        }
        let mut out = Vec::with_capacity((a.len() + b.len()).div_ceil(2));
        // Merged position `m` survives when `m % 2 == offset`.
        let mut keep = !offset;
        let (mut i, mut j) = (0, 0);
        loop {
            let x = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x.total_cmp(&y).is_le() => {
                    i += 1;
                    x
                }
                (_, Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, None) => return out,
            };
            if keep {
                out.push(x);
            }
            keep = !keep;
        }
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// True if no sample has been folded in.
    pub fn is_empty(&self) -> bool {
        self.moments.count() == 0
    }

    /// Exact minimum of all samples (tracked outside the compactor).
    pub fn min(&self) -> f64 {
        self.moments.min()
    }

    /// Exact maximum of all samples (tracked outside the compactor).
    pub fn max(&self) -> f64 {
        self.moments.max()
    }

    /// Exact streaming mean of all samples.
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Exact count/sum/min/max companion summary.
    pub fn moments(&self) -> &Moments {
        &self.moments
    }

    /// Quantile estimate: the smallest retained value whose cumulative
    /// weight reaches `ceil(q * count)` (weighted nearest-rank). `q <= 0`
    /// returns the exact minimum and `q >= 1` the exact maximum; `0.0`
    /// when empty. The returned value is always an actual sample, and its
    /// rank differs from the exact `q`-rank by at most
    /// [`QuantileSketch::rank_error_bound`].
    pub fn query(&self, q: f64) -> f64 {
        if self.moments.count() == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.moments.min();
        }
        if q >= 1.0 {
            return self.moments.max();
        }
        let mut weighted: Vec<(f64, u64)> = Vec::new();
        for &x in &self.base {
            weighted.push((x, 1));
        }
        for &x in &self.pending_w1 {
            weighted.push((x, 1));
        }
        for (level, buf) in self.levels.iter().enumerate() {
            let w = 1u64 << (level + 1);
            for &x in buf {
                weighted.push((x, w));
            }
        }
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for &(x, w) in &weighted {
            cum += w;
            if cum >= target {
                return x;
            }
        }
        self.moments.max()
    }

    /// Worst-case rank error of [`QuantileSketch::query`], as a fraction
    /// of `count`: `L / (2k)` with `L` the number of occupied weight
    /// levels. Zero while everything still fits in the staging buffers
    /// (the sketch is exact until then).
    pub fn rank_error_bound(&self) -> f64 {
        let occupied = self.levels.iter().filter(|l| !l.is_empty()).count();
        if occupied == 0 && self.pending_w1.is_empty() {
            return 0.0;
        }
        // Count levels from weight 2^0 (the pending weight-1 slot) up.
        let l = self.levels.len() + 1;
        l as f64 / (2.0 * self.k as f64)
    }

    /// Resident bytes of this sketch's state: staging plus one `k`-value
    /// buffer per allocated level. Deterministic (computed from the
    /// logical structure, not allocator internals) so it can appear in
    /// committed artifacts.
    pub fn state_bytes(&self) -> usize {
        let buffers = 2 + self.levels.len(); // base + pending_w1 + levels
        std::mem::size_of::<QuantileSketch>() + buffers * self.k * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksim::SimRng;

    fn exact_rank_error(sorted: &[f64], q: f64, got: f64) -> usize {
        let n = sorted.len();
        let target = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        // Range of indices holding `got` (it is always a real sample).
        let lo = sorted.partition_point(|&x| x.total_cmp(&got).is_lt());
        let hi = sorted.partition_point(|&x| x.total_cmp(&got).is_le());
        assert!(lo < hi, "query returned a non-sample value {got}");
        if target < lo {
            lo - target
        } else if target >= hi {
            target - (hi - 1)
        } else {
            0
        }
    }

    fn adversarial_streams(n: usize) -> Vec<(&'static str, Vec<f64>)> {
        let mut rng = SimRng::new(0xD1CE);
        let mut random: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let organ: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { i as f64 } else { (n - i) as f64 }).collect();
        let clustered: Vec<f64> = (0..n).map(|i| (i % 7) as f64 + if i % 97 == 0 { 1e6 } else { 0.0 }).collect();
        let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let reversed: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
        let constant: Vec<f64> = vec![3.25; n];
        rng.shuffle(&mut random);
        vec![
            ("sorted", sorted),
            ("reversed", reversed),
            ("constant", constant),
            ("organ-pipe", organ),
            ("clustered", clustered),
            ("random", random),
        ]
    }

    #[test]
    fn exact_in_small_regime() {
        let mut sk = QuantileSketch::new(64);
        let xs: Vec<f64> = vec![5.0, 1.0, 9.0, 3.0, 7.0];
        for &x in &xs {
            sk.push(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(sk.query(0.0), 1.0);
        assert_eq!(sk.query(0.5), 5.0);
        assert_eq!(sk.query(1.0), 9.0);
        assert_eq!(sk.count(), 5);
        assert_eq!(sk.rank_error_bound(), 0.0);
        assert!((sk.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rank_error_within_bound_on_adversarial_distributions() {
        for n in [10_000usize, 60_000] {
            for (name, xs) in adversarial_streams(n) {
                let mut sk = QuantileSketch::new(256);
                for &x in &xs {
                    sk.push(x);
                }
                let mut sorted = xs.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let bound = (sk.rank_error_bound() * n as f64).ceil() as usize + 1;
                for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
                    let got = sk.query(q);
                    let err = exact_rank_error(&sorted, q, got);
                    assert!(
                        err <= bound,
                        "{name} n={n} q={q}: rank error {err} > bound {bound} (got {got})"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_matches_flat_fold_regardless_of_parallelism() {
        // Chunk summaries are pure; the canonical result is the flat fold
        // in chunk order. Computing the chunks serially or on a pool must
        // not change a single emitted digit.
        let chunks: Vec<Vec<f64>> = (0..16)
            .map(|c| {
                let mut rng = SimRng::new(0xC0FFEE ^ c as u64);
                (0..5_000).map(|_| rng.lognormal(3.0, 1.2)).collect()
            })
            .collect();
        let sketch_chunk = |xs: &Vec<f64>| {
            let mut sk = QuantileSketch::new(128);
            for &x in xs {
                sk.push(x);
            }
            sk
        };
        let serial: Vec<QuantileSketch> = chunks.iter().map(sketch_chunk).collect();
        let pooled: Vec<QuantileSketch> = crate::par::Pool::with_jobs(8).map_ref(&chunks, sketch_chunk);
        let fold = |summaries: &[QuantileSketch]| {
            let mut acc = QuantileSketch::new(128);
            for s in summaries {
                acc.merge(s);
            }
            [0.01, 0.25, 0.5, 0.75, 0.99].map(|q| format!("{:.6}", acc.query(q))).join(" ")
        };
        assert_eq!(fold(&serial), fold(&pooled));
    }

    #[test]
    fn merged_sketch_stays_within_bound() {
        let n = 40_000usize;
        let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 1000.0).collect();
        let mut shards: Vec<QuantileSketch> = (0..8).map(|_| QuantileSketch::new(256)).collect();
        for (i, &x) in xs.iter().enumerate() {
            if let Some(s) = shards.get_mut((i / (n / 8)).min(7)) {
                s.push(x);
            }
        }
        let mut acc = QuantileSketch::new(256);
        for s in &shards {
            acc.merge(s);
        }
        assert_eq!(acc.count(), n as u64);
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let bound = (acc.rank_error_bound() * n as f64).ceil() as usize + 1;
        for q in [0.05, 0.5, 0.95] {
            let err = exact_rank_error(&sorted, q, acc.query(q));
            assert!(err <= bound, "q={q}: {err} > {bound}");
        }
    }

    #[test]
    fn moments_merge_is_exact() {
        let mut a = Moments::new();
        let mut b = Moments::new();
        for i in 0..100 {
            a.push(i as f64);
        }
        for i in 100..250 {
            b.push(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 250);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 249.0);
        assert!((a.mean() - 124.5).abs() < 1e-9);
    }

    #[test]
    fn state_bytes_grow_logarithmically() {
        let mut sk = QuantileSketch::new(64);
        for i in 0..1_000_000u64 {
            sk.push((i % 1000) as f64);
        }
        // ~log2(1e6/64) = 14 levels of 64 f64s — tens of KiB, not MiBs.
        assert!(sk.state_bytes() < 64 * 1024, "state {}", sk.state_bytes());
        assert!(sk.rank_error_bound() < 0.2);
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn integer_key_sort_matches_total_cmp_bit_for_bit() {
        let mut rng = SimRng::new(0x50E7);
        let mut xs: Vec<f64> = (0..2_000).map(|_| rng.normal(0.0, 1e3)).collect();
        // Arbitrary bit patterns: NaNs, subnormals and extremes of both signs.
        xs.extend((0..500).map(|_| f64::from_bits(rng.next_u64())));
        xs.extend([
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(1 << 63 | 1),
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0x7FF4_0000_0000_00AB),
            f64::from_bits(0xFFF0_0000_0000_0001),
            f64::from_bits(0xFFFF_FFFF_FFFF_FFFF),
        ]);
        // Ties.
        xs.extend_from_within(..300);
        rng.shuffle(&mut xs);
        for n in [0, 1, 2, 256, xs.len()] {
            let input = xs.get(xs.len() - n..).unwrap_or(&[]).to_vec();
            let mut expect = input.clone();
            expect.sort_by(f64::total_cmp);
            assert_eq!(bits(&sort_total_order(input)), bits(&expect), "n = {n}");
        }
    }

    #[test]
    fn single_pass_compaction_keeps_the_merge_then_halve_survivors() {
        /// The two-pass form: materialize the merge, then keep every other
        /// element from `offset`.
        fn merge_then_halve(a: &[f64], b: &[f64], offset: usize) -> Vec<f64> {
            let mut merged = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
                if x.total_cmp(&y).is_le() {
                    merged.push(x);
                    i += 1;
                } else {
                    merged.push(y);
                    j += 1;
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&b[j..]);
            merged.into_iter().skip(offset).step_by(2).collect()
        }
        let mut rng = SimRng::new(0xC0A7);
        for (na, nb) in [(64, 64), (64, 63), (63, 64), (7, 64), (1, 0), (0, 5), (0, 0)] {
            // Few distinct values, signed zeros among them: plenty of ties.
            let mut draw = |n: usize| {
                let sign = |rng: &mut SimRng| if rng.chance(0.5) { 0.5 } else { -0.5 };
                let mut v: Vec<f64> =
                    (0..n).map(|_| (rng.below(21) as f64 - 10.0) * sign(&mut rng)).collect();
                v.sort_by(f64::total_cmp);
                v
            };
            let (a, b) = (draw(na), draw(nb));
            let mut sk = QuantileSketch::new(64);
            // A fresh level starts at offset 0, then alternates.
            for offset in [0, 1] {
                assert_eq!(
                    bits(&sk.compact(a.clone(), b.clone(), 0)),
                    bits(&merge_then_halve(&a, &b, offset)),
                    "{na} + {nb} values, offset {offset}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_convention() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(percentile_nearest_rank(&sorted, 0.5), 3.0);
        assert_eq!(percentile_nearest_rank(&sorted, 0.9), 5.0);
        assert_eq!(percentile_nearest_rank(&sorted, 1.0), 5.0);
        assert_eq!(percentile_nearest_rank(&[], 0.5), 0.0);
    }
}
