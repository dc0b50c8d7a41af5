//! Server admission: the one copy of the RATE kiss-o'-death rule.
//!
//! A server answers `RATE` instead of time to a client whose request
//! arrives sooner than the minimum spacing after that client's previous
//! one (RFC 5905 §7.4). Every simulated server decides this through an
//! [`Admission`]: `sntp::SimServer`, each shard of the batched
//! `sntp::server_core::ServerCore`, and the fleet's capacity model
//! [`crate::fleet::ServerModel`]. They differ only in what they feed it:
//!
//! * the **base floor**, the spacing enforced at any load. It is a
//!   per-call input rather than state, because a `SimServer`'s floor can
//!   change between exchanges (fault plans rewrite it);
//! * the **load**, which selects the [`Ladder`]'s tighter floors. The
//!   fleet model passes its backlog; the other two configure no ladder
//!   and pass 0.
//!
//! One arrival is judged in a fixed order: [`Admission::sheds`], then the
//! caller's own capacity check, then [`Admission::rate`] (the verdict and
//! the state update). Refused arrivals leave no trace in the tables.
//!
//! Per-client state lives in sparse [`RateTable`]s keyed by `u64` client
//! key (a source-address surrogate): Fibonacci-hashed open addressing
//! with linear probing, ≤ 7/8 load factor, amortized-doubling growth.
//! Empty slots are encoded in the *tick* array (`i64::MIN` is not a valid
//! arrival time), so keys need no reserved sentinel and any `u64` is a
//! valid client key.

use clocksim::time::SimDuration;

/// The back-off `sntp::pool::HealthConfig::rate_backoff_secs` applies
/// after a RATE kiss, seconds. [`Ladder::clamped`] caps every load floor
/// here, so a client that honours the ban is never RATE'd again.
pub const HEALTH_RATE_BAN_SECS: f64 = 64.0;

/// Knuth's 64-bit Fibonacci multiplier (⌊2⁶⁴/φ⌋, forced odd).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Tick value marking an empty slot. Arrival ticks are nanoseconds on the
/// simulation timeline and never take this value.
const EMPTY_TICK: i64 = i64::MIN;

/// Open-addressing map `client key → last-seen tick (ns)`.
#[derive(Clone, Debug)]
pub struct RateTable {
    keys: Vec<u64>,
    ticks: Vec<i64>,
    len: usize,
    mask: usize,
}

impl RateTable {
    /// A table that holds `at_least` clients before its first growth.
    pub fn with_capacity(at_least: usize) -> Self {
        // Smallest power of two keeping load ≤ 7/8 at `at_least` entries.
        let cap = (at_least.saturating_mul(8) / 7 + 1).next_power_of_two().max(16);
        RateTable { keys: vec![0; cap], ticks: vec![EMPTY_TICK; cap], len: 0, mask: cap - 1 }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no client has been seen.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot count (capacity before the next growth is 7/8 of it).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Home slot: low bits of the Fibonacci hash. (Shard routing uses the
    /// *top* bits — see [`shard_of`] — so the two decisions stay
    /// independent and per-shard probe sequences don't degenerate.)
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) as usize) & self.mask
    }

    /// Record `tick` as `key`'s last-seen instant and return the previous
    /// one, if the client was known. This is the whole rate-limit
    /// bookkeeping step: one probe sequence for both read and write.
    #[inline]
    pub fn upsert(&mut self, key: u64, tick: i64) -> Option<i64> {
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.mask;
        let mut i = self.home(key);
        loop {
            match self.ticks.get(i).copied() {
                Some(EMPTY_TICK) => {
                    if let (Some(k), Some(t)) = (self.keys.get_mut(i), self.ticks.get_mut(i)) {
                        *k = key;
                        *t = tick;
                    }
                    self.len += 1;
                    return None;
                }
                Some(prev) => {
                    if self.keys.get(i).copied() == Some(key) {
                        if let Some(t) = self.ticks.get_mut(i) {
                            *t = tick;
                        }
                        return Some(prev);
                    }
                    i = (i + 1) & mask;
                }
                // Unreachable: `i` is always masked into range.
                None => return None,
            }
        }
    }

    /// Look up `key`'s last-seen tick without modifying the table.
    pub fn get(&self, key: u64) -> Option<i64> {
        let mask = self.mask;
        let mut i = self.home(key);
        loop {
            match self.ticks.get(i).copied() {
                Some(EMPTY_TICK) | None => return None,
                Some(tick) => {
                    if self.keys.get(i).copied() == Some(key) {
                        return Some(tick);
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    /// Drop every entry, keeping the allocated slots. This is the
    /// process-restart model: the table's capacity (its memory) survives,
    /// its knowledge of clients does not — so the first post-restart poll
    /// from any client has no previous arrival to compare against and is
    /// served, never RATE'd.
    pub fn clear(&mut self) {
        self.keys.fill(0);
        self.ticks.fill(EMPTY_TICK);
        self.len = 0;
    }

    /// Double the slot count and reinsert every occupied entry.
    fn grow(&mut self) {
        let new_cap = self.keys.len().saturating_mul(2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_ticks = std::mem::replace(&mut self.ticks, vec![EMPTY_TICK; new_cap]);
        self.mask = new_cap - 1;
        self.len = 0;
        for (key, tick) in old_keys.into_iter().zip(old_ticks) {
            if tick != EMPTY_TICK {
                self.insert_fresh(key, tick);
            }
        }
    }

    /// Insert a key known to be absent (rehash path — no read needed).
    fn insert_fresh(&mut self, key: u64, tick: i64) {
        let mask = self.mask;
        let mut i = self.home(key);
        loop {
            match self.ticks.get(i).copied() {
                Some(EMPTY_TICK) => {
                    if let (Some(k), Some(t)) = (self.keys.get_mut(i), self.ticks.get_mut(i)) {
                        *k = key;
                        *t = tick;
                    }
                    self.len += 1;
                    return;
                }
                Some(_) => i = (i + 1) & mask,
                // Unreachable: `i` is always masked into range.
                None => return,
            }
        }
    }
}

/// Which of `shards` tables owns `key`. `shards` must be a power of two;
/// the routing bits are the *top* bits of the Fibonacci hash, disjoint
/// from the in-table home-slot bits (low), so every shard's table still
/// sees a well-distributed key stream.
///
/// This routing is what makes the sharded pipeline bit-deterministic:
/// a client's requests always land on the same shard, so its last-seen
/// sequence — and therefore every KoD decision — is identical no matter
/// how many shards run or how they're scheduled.
#[inline]
pub fn shard_of(key: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let bits = shards.trailing_zeros();
    (key.wrapping_mul(FIB) >> (64 - bits)) as usize
}

/// One load-selected floor: from `load` upward, a client's polls must be
/// at least `floor` apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rung {
    /// Load at and above which the rung is active.
    pub load: usize,
    /// Minimum per-client spacing while the rung is active.
    pub floor: SimDuration,
}

/// Floors that tighten with load, plus shedding of repeat offenders.
/// `Ladder::default()` is the bare rule: the base floor at any load, and
/// no strike table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ladder {
    /// The intermediate rung between the base floor and overload.
    pub ramp: Option<Rung>,
    /// The overload rung. Its load also arms shedding.
    pub overload: Option<Rung>,
    /// Consecutive RATE verdicts after which a client's arrivals are shed
    /// while the overload rung is active. `None` keeps no strike record.
    pub shed_strikes: Option<u8>,
}

impl Ladder {
    /// A ladder no ban-honouring client can trip. The overload floor is
    /// clamped into `[base, HEALTH_RATE_BAN_SECS]`; the ramp rung's floor
    /// into `[base, overload floor]` and its load to at most the overload
    /// load. (A base above the ban stays in force: the rung floors then
    /// sit below it and never bind.)
    pub fn clamped(
        base: SimDuration,
        overload: Rung,
        ramp: Option<Rung>,
        shed_strikes: Option<u8>,
    ) -> Ladder {
        let ban = SimDuration::from_secs_f64(HEALTH_RATE_BAN_SECS);
        let overload = Rung { load: overload.load, floor: overload.floor.max(base).min(ban) };
        let ramp = ramp.map(|r| Rung {
            load: r.load.min(overload.load),
            floor: r.floor.max(base).min(overload.floor),
        });
        Ladder { ramp, overload: Some(overload), shed_strikes }
    }
}

/// Per-client admission state — last-seen arrivals and strikes — and the
/// [`Ladder`] it is judged by.
#[derive(Clone, Debug)]
pub struct Admission {
    last_seen: RateTable,
    /// Consecutive RATE verdicts per client since its last compliant
    /// arrival. Kept only when the ladder sheds; a missing entry is 0.
    strikes: RateTable,
    ladder: Ladder,
}

impl Admission {
    /// Empty state for about `clients` clients (the table still grows on
    /// demand), judged by `ladder`.
    pub fn new(clients: usize, ladder: Ladder) -> Self {
        Admission {
            last_seen: RateTable::with_capacity(clients),
            strikes: RateTable::with_capacity(16),
            ladder,
        }
    }

    /// Distinct clients with an arrival on record.
    pub fn clients_tracked(&self) -> usize {
        self.last_seen.len()
    }

    /// Step 1: drop `key`'s arrival without a reply? Only while the
    /// overload rung is active, and only for a client with
    /// `shed_strikes` consecutive RATE verdicts: abusive pollers that
    /// ignore RATE stop costing queue space.
    pub fn sheds(&self, key: u64, load: usize) -> bool {
        match (self.ladder.shed_strikes, self.ladder.overload) {
            (Some(at), Some(overload)) => {
                load >= overload.load && self.strikes.get(key).unwrap_or(0) >= i64::from(at)
            }
            _ => false,
        }
    }

    /// Step 3: the RATE verdict for `key` arriving at `at_ns` under
    /// `load`, then the state update. The active floor is the largest of
    /// `base` and every rung whose load is reached. A client with no
    /// arrival on record is always served. `base = None` turns rate
    /// limiting off: nothing is RATE'd and no state is touched.
    #[inline]
    pub fn rate(&mut self, key: u64, at_ns: i64, base: Option<SimDuration>, load: usize) -> bool {
        let Some(base) = base else { return false };
        let floor = self.floor(base, load).as_nanos();
        let kod = self.last_seen.upsert(key, at_ns).is_some_and(|prev| at_ns - prev < floor);
        if self.ladder.shed_strikes.is_some() {
            self.strike(key, kod);
        }
        kod
    }

    /// Forget every client (a process restart). Capacity survives; the
    /// first poll from anyone afterwards is served, and no strike carries
    /// over.
    pub fn clear(&mut self) {
        self.last_seen.clear();
        self.strikes.clear();
    }

    #[inline]
    fn floor(&self, base: SimDuration, load: usize) -> SimDuration {
        [self.ladder.ramp, self.ladder.overload]
            .into_iter()
            .flatten()
            .filter(|rung| load >= rung.load)
            .fold(base, |floor, rung| floor.max(rung.floor))
    }

    /// A RATE verdict adds a strike; a compliant arrival clears the
    /// record, so a client that honours RATE is never shed.
    fn strike(&mut self, key: u64, kod: bool) {
        let strikes = self.strikes.get(key).unwrap_or(0);
        if kod {
            self.strikes.upsert(key, strikes.saturating_add(1));
        } else if strikes != 0 {
            self.strikes.upsert(key, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_upsert_returns_none_then_previous() {
        let mut t = RateTable::with_capacity(8);
        assert_eq!(t.upsert(7, 100), None);
        assert_eq!(t.upsert(7, 250), Some(100));
        assert_eq!(t.upsert(7, 400), Some(250));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_interfere() {
        let mut t = RateTable::with_capacity(4);
        assert_eq!(t.upsert(1, 10), None);
        assert_eq!(t.upsert(2, 20), None);
        assert_eq!(t.upsert(1, 30), Some(10));
        assert_eq!(t.upsert(2, 40), Some(20));
        assert_eq!(t.get(1), Some(30));
        assert_eq!(t.get(2), Some(40));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut t = RateTable::with_capacity(4);
        let n = 10_000u64;
        for k in 0..n {
            assert_eq!(t.upsert(k, k as i64 * 3), None, "key {k} seen twice?");
        }
        assert_eq!(t.len(), n as usize);
        for k in 0..n {
            assert_eq!(t.get(k), Some(k as i64 * 3), "key {k} lost in growth");
        }
        // Load factor invariant held.
        assert!(t.len() * 8 <= t.capacity() * 7);
    }

    #[test]
    fn sparse_keys_work() {
        let mut t = RateTable::with_capacity(8);
        for k in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, 0xDEAD_BEEF_0000_0001] {
            assert_eq!(t.upsert(k, 42), None);
        }
        for k in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, 0xDEAD_BEEF_0000_0001] {
            assert_eq!(t.get(k), Some(42), "key {k:#x}");
        }
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn adversarial_same_home_slot_keys_probe_linearly() {
        // Keys crafted to collide in home slot (same low hash bits after
        // multiplication is hard to craft directly, so just hammer a tiny
        // table where collisions are guaranteed).
        let mut t = RateTable::with_capacity(2);
        for k in 0..64u64 {
            t.upsert(k, k as i64);
        }
        for k in 0..64u64 {
            assert_eq!(t.get(k), Some(k as i64));
        }
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for &shards in &[1usize, 2, 4, 8, 16] {
            for k in 0..1000u64 {
                let s = shard_of(k, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(k, shards), "routing must be pure");
            }
        }
        // shards=1 always routes to 0.
        assert_eq!(shard_of(u64::MAX, 1), 0);
    }

    #[test]
    fn shard_routing_spreads_keys() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for k in 0..80_000u64 {
            counts[shard_of(k, shards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 10_000.0).abs() < 2_000.0,
                "shard {s} holds {c} of 80k keys — routing is skewed"
            );
        }
    }

    fn secs(s: i64) -> i64 {
        SimDuration::from_secs(s).as_nanos()
    }

    const BASE: Option<SimDuration> = Some(SimDuration(8_000_000_000));

    #[test]
    fn no_base_floor_touches_no_state() {
        let mut a = Admission::new(16, Ladder::default());
        assert!(!a.rate(1, secs(0), None, 0));
        assert!(!a.rate(1, secs(1), None, 0));
        assert_eq!(a.clients_tracked(), 0);
    }

    #[test]
    fn strikes_shed_only_under_overload_and_clear_on_compliance() {
        let ladder = Ladder {
            overload: Some(Rung { load: 10, floor: SimDuration::from_secs(8) }),
            shed_strikes: Some(2),
            ..Ladder::default()
        };
        let mut a = Admission::new(16, ladder);
        assert!(!a.rate(5, secs(0), BASE, 0));
        assert!(a.rate(5, secs(1), BASE, 0));
        assert!(a.rate(5, secs(2), BASE, 0));
        assert!(!a.sheds(5, 9), "below the overload load nothing is shed");
        assert!(a.sheds(5, 10));
        assert!(!a.sheds(6, 10), "a client with no strikes is never shed");
        // A compliant poll clears the record.
        assert!(!a.rate(5, secs(20), BASE, 0));
        assert!(!a.sheds(5, 10));
        a.clear();
        assert_eq!(a.clients_tracked(), 0);
        assert!(!a.rate(5, secs(21), BASE, 0), "a cleared table serves everyone");
    }
}
