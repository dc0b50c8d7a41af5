//! Hierarchical timing wheel — the O(1) queue backend behind
//! [`crate::kernel::Sim`].
//!
//! The fleet workload is almost entirely *bounded-horizon* timers: poll
//! ticks seconds-to-minutes out, cross-traffic decisions every couple of
//! seconds. A binary heap pays O(log n) per operation on that pattern; a
//! timing wheel pays O(1) to schedule and amortized O(1) to pop.
//!
//! ## Geometry
//!
//! Time is quantized into ticks of 2^20 ns (~1.05 ms). Four levels of 64
//! slots each cover 2^24 ticks (~4.9 simulated hours) ahead of the
//! cursor; level `l` spans tick digits `[6l, 6(l+1))`. Three auxiliary
//! structures complete the picture:
//!
//! * `ready` — a small heap of entries whose tick has been reached
//!   (`tick <= cursor`). Same-tick events are sub-ordered here by their
//!   full `(time, seq)` key, which is what preserves exact FIFO
//!   semantics despite the coarse 1 ms tick.
//! * the wheel itself — entries with `cursor < tick < horizon`.
//! * `overflow` — a heap of entries at or beyond the horizon. When the
//!   wheel drains, the earliest overflow super-window (tick bits ≥ 24)
//!   is migrated in wholesale.
//!
//! ## Invariants
//!
//! An entry sits at the *highest* level where its tick digit differs
//! from the cursor's (`level = ⌊bitlen(tick ^ cursor) − 1) / 6⌋`), so
//! every stored digit is strictly greater than the cursor's digit at
//! that level and all higher digits agree. Consequences:
//!
//! * every `ready` entry precedes every wheel entry, which precedes
//!   every `overflow` entry (tick order is strict across the three);
//! * the lowest occupied slot of the lowest occupied level is always
//!   the globally next tick — expiring level 0 yields exact fire times,
//!   and cascading level `l ≥ 1` re-files its batch strictly below `l`,
//!   so advancing terminates.
//!
//! The cursor only moves forward, and `Sim::push` clamps times to `now`,
//! so no entry is ever scheduled behind the cursor.
//!
//! The tests at the bottom pin the wheel to a plain `BinaryHeap`
//! reference on randomized schedules spanning same-instant batches,
//! cascade boundaries and the overflow horizon.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use clocksim::time::SimTime;

use crate::kernel::{key_time, Entry};

/// log2 of the tick width in nanoseconds (2^20 ns ≈ 1.05 ms).
const TICK_SHIFT: u32 = 20;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; beyond them entries go to the overflow heap.
const LEVELS: usize = 4;
/// Tick bits covered by the wheel (the horizon).
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// Tick index of a packed key: the biased-time half, quantized.
/// Biasing preserves order, so ticks are monotone in simulation time.
#[inline]
fn tick_of(key: u128) -> u64 {
    ((key >> 64) as u64) >> TICK_SHIFT
}

/// The wheel. See the module docs for geometry and invariants.
pub(crate) struct Wheel {
    /// Current tick; entries with `tick <= cursor` live in `ready`.
    cursor: u64,
    /// `LEVELS × SLOTS` buckets, row-major by level.
    buckets: Vec<Vec<Entry>>,
    /// Per-level occupancy bitmap (bit `s` = bucket `s` non-empty).
    occupied: [u64; LEVELS],
    /// Entries whose tick has been reached, ordered by full key.
    ready: BinaryHeap<Reverse<Entry>>,
    /// Entries at or beyond the horizon, ordered by full key.
    overflow: BinaryHeap<Reverse<Entry>>,
    len: usize,
}

impl Wheel {
    pub(crate) fn new() -> Self {
        Wheel {
            cursor: 0,
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            ready: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn push(&mut self, e: Entry) {
        self.len += 1;
        self.place(e);
    }

    /// File an entry into ready / a wheel bucket / overflow according to
    /// its tick's relation to the cursor.
    fn place(&mut self, e: Entry) {
        let tick = tick_of(e.key);
        if tick <= self.cursor {
            self.ready.push(Reverse(e));
            return;
        }
        let diff = tick ^ self.cursor;
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(Reverse(e));
            return;
        }
        let slot = ((tick >> (level as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
        // lint:allow(no-slice-index) — level < LEVELS and slot < SLOTS by construction; buckets has LEVELS×SLOTS rows
        self.buckets[level * SLOTS + slot].push(e);
        // lint:allow(no-slice-index) — level < LEVELS checked two lines up
        self.occupied[level] |= 1u64 << slot;
    }

    /// Remove and return the minimum entry if its time is `<= t`.
    pub(crate) fn pop_before(&mut self, t: SimTime) -> Option<Entry> {
        loop {
            if let Some(&Reverse(e)) = self.ready.peek() {
                // `ready` always holds the global minimum (strict tick
                // ordering across ready / wheel / overflow), so one
                // comparison decides.
                if key_time(e.key) > t {
                    return None;
                }
                self.ready.pop();
                self.len -= 1;
                return Some(e);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Make progress toward filling `ready`: expire the next level-0
    /// slot, cascade one higher-level slot down, or migrate the earliest
    /// overflow super-window in. Returns `false` only when nothing is
    /// pending anywhere.
    fn advance(&mut self) -> bool {
        for level in 0..LEVELS {
            // lint:allow(no-slice-index) — level ranges over 0..LEVELS
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            // Stored digits at this level strictly exceed the cursor's
            // digit, so the lowest set bit is the next window in time.
            let slot = occ.trailing_zeros() as usize;
            // lint:allow(no-slice-index) — level < LEVELS, slot < 64; buckets has LEVELS×SLOTS rows
            let batch = std::mem::take(&mut self.buckets[level * SLOTS + slot]);
            // lint:allow(no-slice-index) — level < LEVELS
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // Level 0 resolves exact ticks: every entry in this
                // bucket fires at tick `t`.
                let t = (self.cursor >> SLOT_BITS << SLOT_BITS) | slot as u64;
                debug_assert!(t > self.cursor);
                self.cursor = t;
                for e in batch {
                    self.ready.push(Reverse(e));
                }
            } else {
                // Jump the cursor to the start of the expiring window,
                // then cascade: each entry now differs from the cursor
                // only below this level, so it re-files strictly lower
                // (or straight into `ready` at the window start).
                let shift = (level as u32 + 1) * SLOT_BITS;
                let window =
                    (self.cursor >> shift << shift) | ((slot as u64) << (level as u32 * SLOT_BITS));
                debug_assert!(window > self.cursor);
                self.cursor = window;
                for e in batch {
                    self.place(e);
                }
            }
            return true;
        }
        // Wheel empty: bring in the earliest overflow super-window.
        let Some(&Reverse(min)) = self.overflow.peek() else {
            return false;
        };
        let min_super = tick_of(min.key) >> HORIZON_BITS;
        // Overflow entries always sit in a later super-window than the
        // cursor (that is what put them past the horizon), so this jump
        // never moves backwards.
        debug_assert!(min_super > self.cursor >> HORIZON_BITS);
        self.cursor = min_super << HORIZON_BITS;
        while let Some(&Reverse(e)) = self.overflow.peek() {
            if tick_of(e.key) >> HORIZON_BITS != min_super {
                break;
            }
            let Some(Reverse(e)) = self.overflow.pop() else { break };
            self.place(e);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::pack_key;

    fn entry(at_nanos: i64, seq: u64) -> Entry {
        Entry { key: pack_key(SimTime(at_nanos), seq), slot: seq as u32 }
    }

    /// Reference scheduler: plain min-heap over the same entries.
    struct RefHeap(BinaryHeap<Reverse<Entry>>);

    impl RefHeap {
        fn new() -> Self {
            RefHeap(BinaryHeap::new())
        }
        fn push(&mut self, e: Entry) {
            self.0.push(Reverse(e));
        }
        fn pop_before(&mut self, t: SimTime) -> Option<Entry> {
            let &Reverse(e) = self.0.peek()?;
            if key_time(e.key) > t {
                return None;
            }
            self.0.pop().map(|Reverse(e)| e)
        }
    }

    const TICK: i64 = 1 << TICK_SHIFT;
    /// First nanosecond beyond the wheel horizon.
    const HORIZON_NS: i64 = 1i64 << (TICK_SHIFT + HORIZON_BITS);

    #[test]
    fn same_tick_entries_pop_in_key_order() {
        let mut w = Wheel::new();
        // Same 1 ms tick, distinct nanosecond times and sequences.
        w.push(entry(TICK * 5 + 300, 2));
        w.push(entry(TICK * 5 + 100, 0));
        w.push(entry(TICK * 5 + 100, 1));
        let order: Vec<u64> = std::iter::from_fn(|| w.pop_before(SimTime(i64::MAX)))
            .map(|e| e.key as u64)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn pop_before_respects_the_boundary() {
        let mut w = Wheel::new();
        w.push(entry(TICK * 3, 0));
        w.push(entry(TICK * 900, 1));
        assert_eq!(w.pop_before(SimTime(TICK * 3)).map(|e| e.key as u64), Some(0));
        assert_eq!(w.pop_before(SimTime(TICK * 3)), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_before(SimTime(TICK * 900)).map(|e| e.key as u64), Some(1));
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn cascade_boundaries_preserve_order() {
        // One entry per level (tick 1, 64, 64², 64³) plus one in overflow,
        // pushed in reverse: each pop crosses a cascade or migration.
        let mut w = Wheel::new();
        let ticks = [1i64, 64, 64 * 64, 64 * 64 * 64, 1 << HORIZON_BITS];
        for (seq, t) in ticks.iter().enumerate().rev() {
            w.push(entry(t * TICK, seq as u64));
        }
        let order: Vec<u64> = std::iter::from_fn(|| w.pop_before(SimTime(i64::MAX)))
            .map(|e| e.key as u64)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_migrates_in_super_window_batches() {
        let mut w = Wheel::new();
        // Two distinct super-windows beyond the horizon, plus one near event.
        w.push(entry(HORIZON_NS * 3 + 17 * TICK, 2));
        w.push(entry(HORIZON_NS + 5 * TICK, 1));
        w.push(entry(2 * TICK, 0));
        let order: Vec<u64> = std::iter::from_fn(|| w.pop_before(SimTime(i64::MAX)))
            .map(|e| e.key as u64)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn interleaved_push_pop_matches_reference() {
        // Deterministic interleave: pops happen while later pushes are
        // still pending, forcing placements relative to a moving cursor.
        let mut w = Wheel::new();
        let mut r = RefHeap::new();
        let times: Vec<i64> = (0..200)
            .map(|i| ((i * 2_654_435_761u64) % (1 << 30)) as i64 * 37)
            .collect();
        for (phase, chunk) in times.chunks(40).enumerate() {
            for (j, &t) in chunk.iter().enumerate() {
                let e = entry(t, (phase * 100 + j) as u64);
                w.push(e);
                r.push(e);
            }
            let limit = SimTime((phase as i64 + 1) * (1 << 28));
            loop {
                let (a, b) = (w.pop_before(limit), r.pop_before(limit));
                assert_eq!(a, b, "phase {phase}");
                if a.is_none() {
                    break;
                }
            }
        }
        loop {
            let (a, b) = (w.pop_before(SimTime(i64::MAX)), r.pop_before(SimTime(i64::MAX)));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(w.len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::kernel::pack_key;
    use devtools::prop;
    use devtools::{prop_assert_eq, props};

    fn drain_both(
        wheel: &mut Wheel,
        reference: &mut BinaryHeap<Reverse<Entry>>,
        limit: SimTime,
    ) -> devtools::prop::PropResult {
        loop {
            let from_ref = match reference.peek() {
                Some(&Reverse(e)) if key_time(e.key) <= limit => {
                    reference.pop().map(|Reverse(e)| e)
                }
                _ => None,
            };
            let from_wheel = wheel.pop_before(limit);
            prop_assert_eq!(from_wheel, from_ref);
            if from_wheel.is_none() {
                return Ok(());
            }
        }
    }

    props! {
        /// Any randomized (time, order) schedule — spanning sub-tick ties,
        /// multi-level cascades and the overflow horizon — fires from the
        /// wheel in exactly the reference heap's sequence, across
        /// interleaved bounded pops.
        fn wheel_matches_heap_on_random_schedules(
            coarse in prop::vecs(prop::ints(0..20_000_000), 1..50),
            ties in prop::vecs(prop::ints(0..40), 0..30),
        ) {
            let mut wheel = Wheel::new();
            let mut reference = BinaryHeap::new();
            let mut seq = 0u64;
            let mut push = |wheel: &mut Wheel, reference: &mut BinaryHeap<_>, nanos: i64| {
                let e = Entry { key: pack_key(SimTime(nanos), seq), slot: seq as u32 };
                seq += 1;
                wheel.push(e);
                reference.push(Reverse(e));
            };
            // Coarse times stretched across every wheel level and past the
            // ~4.9 h horizon (20e6 × 1.1e6 ns ≈ 6.1 h).
            let mid = coarse.len() / 2;
            for &t in &coarse[..mid] {
                push(&mut wheel, &mut reference, t * 1_100_000);
            }
            // Bounded pop mid-stream: later pushes then land behind, at and
            // ahead of the advanced cursor.
            drain_both(&mut wheel, &mut reference, SimTime(3_000_000_000))?;
            for &t in &coarse[mid..] {
                push(&mut wheel, &mut reference, t * 1_100_000);
            }
            // Same-instant batches: many events in a handful of ticks.
            for &t in &ties {
                push(&mut wheel, &mut reference, 4_000_000_000 + t * 300_000);
            }
            drain_both(&mut wheel, &mut reference, SimTime(i64::MAX))?;
            prop_assert_eq!(wheel.len(), 0);
        }
    }
}
