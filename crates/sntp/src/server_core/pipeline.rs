//! The staged request pipeline: classify → rate-limit → emit.
//!
//! [`ServerCore`] answers a [`RequestRing`] batch into a [`ReplyRing`]
//! through three explicit stages, each a separate pass so it can be
//! benched, profiled, and scaled on its own:
//!
//! 1. **Ingest / classify** — zero-copy validate every datagram
//!    ([`ntp_wire::PacketView`]) and tag it SNTP-shaped, NTP-shaped, or
//!    malformed. Pure per-packet work, no shared state.
//! 2. **Discipline bookkeeping** — one [`Admission::rate`] verdict per
//!    valid request decides service vs RATE kiss-o'-death from the
//!    client's previous arrival. The only stateful stage, and the reason
//!    for sharding: each shard owns the admission state for its slice of
//!    the key space.
//! 3. **Emit** — write the reply bytes in place (allocation-free
//!    `ntp-wire` writers) and accumulate the batch's [`CoreStats`] log
//!    record.
//!
//! ## Determinism across (shards, jobs)
//!
//! Requests are routed to shards by client key ([`shard_of`]), never by
//! position, so one client's requests always form the same subsequence on
//! the same shard table regardless of the shard count — and each reply
//! depends only on that subsequence. Shard outputs land in positional
//! scratch rings that a serial pass merges back in request order. The
//! worker pool ([`devtools::par::Pool`]) only runs whole shards, and the
//! merge reads them in shard order, so the reply byte stream is identical
//! for every (shards, jobs) combination — including `shards=1, jobs=1`,
//! which is the per-packet reference the property tests compare against
//! [`crate::SimServer`].

use clocksim::time::SimDuration;
use devtools::par::Pool;
use netsim::admission::{shard_of, Admission, Ladder};
use ntp_wire::{refid::RefId, sntp_profile, NtpDuration, NtpPacket};

use super::arena::{Fate, ReplyRing, RequestRing};

/// Engine identity and policy. The defaults mirror the well-behaved
/// stratum-2 [`crate::SimServer`] the sim builds, minus its wobble: the
/// engine's clock is `true time + clock_error`, which is exactly
/// `clocksim::ReferenceClock::with_error` and keeps replies a pure
/// function of the request batch.
#[derive(Clone, Copy, Debug)]
pub struct CoreConfig {
    /// Advertised stratum.
    pub stratum: u8,
    /// Advertised reference id.
    pub refid: RefId,
    /// Constant server clock error (reply timestamps read
    /// `true + clock_error`).
    pub clock_error: NtpDuration,
    /// Processing time between receive (T2) and transmit (T3).
    pub proc_delay: SimDuration,
    /// Kiss-o'-death rate limiting: minimum spacing between requests
    /// from one client before the server answers `RATE`. `None` disables
    /// rate limiting (and its bookkeeping entirely, like `SimServer`).
    pub min_poll_interval: Option<SimDuration>,
    /// Expected distinct clients (sizes the rate tables; they still grow
    /// on demand).
    pub table_capacity: usize,
    /// Rate-table shards (rounded up to a power of two). Shard count is
    /// part of the engine's *shape*, not its behavior: replies are
    /// byte-identical at any value.
    pub shards: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            stratum: 2,
            refid: RefId::ipv4(192, 0, 2, 1),
            clock_error: NtpDuration::ZERO,
            proc_delay: SimDuration::from_micros(150),
            min_poll_interval: None,
            table_capacity: 1024,
            shards: 1,
        }
    }
}

/// Cumulative emission log: what the engine did, countable per batch or
/// per run. This is the log-emission stage's output — deterministic
/// counters only, safe to commit in artifacts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Time replies written.
    pub served: u64,
    /// RATE kiss-o'-death replies written.
    pub kod: u64,
    /// Datagrams that failed structural validation.
    pub malformed: u64,
    /// Valid requests with the RFC 4330 SNTP wire shape.
    pub sntp_shaped: u64,
    /// Valid requests with any other shape (ntpd-style pollers etc.).
    pub other_shaped: u64,
    /// Always 0: the batched engine answers every valid request. Kept so
    /// the log record has the same counters as the fleet model's
    /// `ServerModelStats`, which does shed.
    pub shed: u64,
    /// Times [`ServerCore::restart`] wiped the per-client state.
    pub restarts: u64,
}

impl CoreStats {
    /// Total datagrams examined.
    pub fn total(&self) -> u64 {
        self.served + self.kod + self.malformed
    }

    fn add(&mut self, o: &CoreStats) {
        self.served += o.served;
        self.kod += o.kod;
        self.malformed += o.malformed;
        self.sntp_shaped += o.sntp_shaped;
        self.other_shaped += o.other_shaped;
    }
}

/// Stage-1 verdict for one datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Malformed,
    Sntp,
    Other,
}

/// One shard: the admission state for its key-space slice plus
/// positional scratch reused across batches.
struct CoreShard {
    admission: Admission,
    /// Batch indices routed to this shard, in arrival order.
    picked: Vec<u32>,
    /// Stage-1 verdicts, parallel to `picked`.
    classes: Vec<Class>,
    /// Replies for `picked`, parallel by position.
    scratch: ReplyRing,
    /// This batch's emission counters.
    stats: CoreStats,
}

impl CoreShard {
    fn new(table_capacity: usize) -> Self {
        CoreShard {
            admission: Admission::new(table_capacity, Ladder::default()),
            picked: Vec::new(),
            classes: Vec::new(),
            scratch: ReplyRing::new(),
            stats: CoreStats::default(),
        }
    }

    /// Stage 1 — ingest/classify: validate each routed datagram.
    fn stage_classify(&mut self, reqs: &RequestRing) {
        self.classes.clear();
        for &idx in &self.picked {
            let class = match reqs.get(idx as usize) {
                Some((_, wire)) => match NtpPacket::parse_ref(wire) {
                    Ok(view) if view.is_sntp_client_shape() => Class::Sntp,
                    Ok(_) => Class::Other,
                    Err(_) => Class::Malformed,
                },
                None => Class::Malformed,
            };
            self.classes.push(class);
        }
    }

    /// Stage 2 — discipline bookkeeping: one admission verdict per valid
    /// request decides its fate, exactly as `SimServer::handle_from`
    /// decides it for a batch of one: with rate limiting off, no state is
    /// touched and everything valid is served.
    fn stage_rate_limit(&mut self, cfg: &CoreConfig, reqs: &RequestRing) {
        self.scratch.begin_batch(self.picked.len());
        for (j, (&idx, &class)) in self.picked.iter().zip(&self.classes).enumerate() {
            if class == Class::Malformed {
                continue; // fate stays Malformed
            }
            let Some((meta, _)) = reqs.get(idx as usize) else { continue };
            let kod =
                self.admission.rate(meta.client, meta.arrival.as_nanos(), cfg.min_poll_interval, 0);
            self.scratch.set_fate(j, if kod { Fate::Kod } else { Fate::Time });
        }
    }

    /// Stage 3 — emit: write each reply in place and log the batch.
    fn stage_emit(&mut self, cfg: &CoreConfig, reqs: &RequestRing) {
        self.stats = CoreStats::default();
        for (j, (&idx, &class)) in self.picked.iter().zip(&self.classes).enumerate() {
            let Some(fate) = self.scratch.fate(j) else { continue };
            if fate == Fate::Malformed {
                self.stats.malformed += 1;
                continue;
            }
            let Some((meta, wire)) = reqs.get(idx as usize) else { continue };
            // Validated in stage 1; re-borrowing the view is a few loads.
            let Ok(view) = NtpPacket::parse_ref(wire) else { continue };
            let Some(slot) = self.scratch.slot_mut(j) else { continue };
            let departure = meta.arrival + cfg.proc_delay;
            let t3 = departure.to_ntp() + cfg.clock_error;
            match fate {
                Fate::Kod => {
                    sntp_profile::write_kod_into(&view, RefId::KISS_RATE, t3, slot);
                    self.stats.kod += 1;
                }
                _ => {
                    let t2 = meta.arrival.to_ntp() + cfg.clock_error;
                    sntp_profile::write_server_reply_into(
                        &view,
                        t2,
                        t3,
                        cfg.stratum,
                        cfg.refid,
                        t2,
                        slot,
                    );
                    self.stats.served += 1;
                }
            }
            match class {
                Class::Sntp => self.stats.sntp_shaped += 1,
                Class::Other => self.stats.other_shaped += 1,
                Class::Malformed => {}
            }
        }
    }

    fn run_stages(&mut self, cfg: &CoreConfig, reqs: &RequestRing) {
        self.stage_classify(reqs);
        self.stage_rate_limit(cfg, reqs);
        self.stage_emit(cfg, reqs);
    }
}

/// The batched server engine. Owns the sharded rate tables and all batch
/// scratch; the caller owns the request/reply rings (so ingest and output
/// buffers can be double-buffered, pooled, or handed between stages
/// without copying through the engine).
pub struct ServerCore {
    cfg: CoreConfig,
    shards: Vec<CoreShard>,
    stats: CoreStats,
}

impl ServerCore {
    /// Build an engine from `cfg`. `cfg.shards` is rounded up to a power
    /// of two; the table capacity is split evenly across shards.
    pub fn new(cfg: CoreConfig) -> Self {
        let shards = cfg.shards.max(1).next_power_of_two();
        let per_shard = (cfg.table_capacity / shards).max(16);
        let cfg = CoreConfig { shards, ..cfg };
        ServerCore {
            cfg,
            shards: (0..shards).map(|_| CoreShard::new(per_shard)).collect(),
            stats: CoreStats::default(),
        }
    }

    /// The engine's (normalized) configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Cumulative emission counters across every processed batch.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Distinct clients currently tracked across all shard tables.
    pub fn clients_tracked(&self) -> usize {
        self.shards.iter().map(|s| s.admission.clients_tracked()).sum()
    }

    /// Model a process restart: every shard forgets its per-client
    /// arrival state (capacity, config, and cumulative stats survive — a
    /// restarted daemon keeps its logs). The point is the recovery
    /// behavior: with the tables cold, the first post-restart poll from
    /// every client — including the reconnecting herd — has no previous
    /// arrival on record, so ban-honoring clients are *served*, not
    /// mass-RATE'd.
    pub fn restart(&mut self) {
        for shard in &mut self.shards {
            shard.admission.clear();
        }
        self.stats.restarts += 1;
    }

    /// Run only stage 1 (ingest/classify) over a batch, serially — the
    /// profiling hook behind the pipeline's stage split, so the pure
    /// per-packet validation cost can be measured apart from table
    /// bookkeeping and reply emission. Returns `(sntp, other,
    /// malformed)` counts; no rate-table, reply, or stats state changes.
    pub fn classify_batch(&mut self, reqs: &RequestRing) -> (u64, u64, u64) {
        for shard in &mut self.shards {
            shard.picked.clear();
        }
        let nshards = self.shards.len();
        for (idx, (meta, _)) in reqs.iter().enumerate() {
            if let Some(shard) = self.shards.get_mut(shard_of(meta.client, nshards)) {
                shard.picked.push(idx as u32);
            }
        }
        let (mut sntp, mut other, mut malformed) = (0u64, 0u64, 0u64);
        for shard in &mut self.shards {
            shard.stage_classify(reqs);
            for class in &shard.classes {
                match class {
                    Class::Sntp => sntp += 1,
                    Class::Other => other += 1,
                    Class::Malformed => malformed += 1,
                }
            }
        }
        (sntp, other, malformed)
    }

    /// Answer one batch serially on the calling thread.
    pub fn process_batch(&mut self, reqs: &RequestRing, out: &mut ReplyRing) {
        self.process_batch_on(reqs, out, &Pool::with_jobs(1));
    }

    /// Answer one batch with shard stages fanned out over `pool`. The
    /// reply stream is byte-identical to [`ServerCore::process_batch`]
    /// for any pool size — the pool only changes wall-clock time.
    pub fn process_batch_on(&mut self, reqs: &RequestRing, out: &mut ReplyRing, pool: &Pool) {
        // Route (serial, cheap): client-keyed, never positional.
        for shard in &mut self.shards {
            shard.picked.clear();
        }
        let nshards = self.shards.len();
        for (idx, (meta, _)) in reqs.iter().enumerate() {
            if let Some(shard) = self.shards.get_mut(shard_of(meta.client, nshards)) {
                shard.picked.push(idx as u32);
            }
        }
        // Per-shard stages (parallel; each shard touches only its own
        // table and scratch).
        let cfg = self.cfg;
        pool.map(self.shards.iter_mut().collect::<Vec<_>>(), |shard| shard.run_stages(&cfg, reqs));
        // Merge (serial, in shard order): positional copy back into
        // request order, plus the log roll-up.
        out.begin_batch(reqs.len());
        for shard in &self.shards {
            for (j, &idx) in shard.picked.iter().enumerate() {
                let Some(fate) = shard.scratch.fate(j) else { continue };
                if let (Some(src), Some(dst)) =
                    (shard.scratch.slot(j), out.slot_mut(idx as usize))
                {
                    dst.copy_from_slice(src);
                }
                out.set_fate(idx as usize, fate);
            }
            self.stats.add(&shard.stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server_core::arena::SLOT;
    use clocksim::time::SimTime;
    use ntp_wire::{sntp_profile::client_request, NtpTimestamp, PacketView};

    fn request_bytes(secs: u32) -> Vec<u8> {
        client_request(NtpTimestamp::from_parts(secs, 0)).serialize()
    }

    fn batch(clients: &[(u64, i64)]) -> RequestRing {
        let mut ring = RequestRing::with_capacity(clients.len());
        for &(client, at_ms) in clients {
            ring.push(client, SimTime::from_millis(at_ms), &request_bytes(at_ms as u32));
        }
        ring
    }

    #[test]
    fn serves_a_simple_batch() {
        let mut core = ServerCore::new(CoreConfig::default());
        let reqs = batch(&[(1, 1000), (2, 2000), (3, 3000)]);
        let mut out = ReplyRing::new();
        core.process_batch(&reqs, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out.fates(), &[Fate::Time; 3]);
        assert_eq!(core.stats().served, 3);
        assert_eq!(core.stats().sntp_shaped, 3);
        // Replies are valid server packets echoing the request transmit.
        for i in 0..3 {
            let view = PacketView::new(out.slot(i).unwrap()).unwrap();
            assert_eq!(view.mode(), ntp_wire::Mode::Server);
            assert_eq!(view.stratum(), 2);
        }
    }

    #[test]
    fn malformed_datagrams_get_zeroed_slots() {
        let mut core = ServerCore::new(CoreConfig::default());
        let mut reqs = RequestRing::with_capacity(3);
        reqs.push(1, SimTime::from_secs(1), &request_bytes(1));
        reqs.push(2, SimTime::from_secs(1), &[0xFF; 10]); // truncated
        reqs.push(3, SimTime::from_secs(1), &[0u8; SLOT]); // version 0
        let mut out = ReplyRing::new();
        core.process_batch(&reqs, &mut out);
        assert_eq!(out.fates(), &[Fate::Time, Fate::Malformed, Fate::Malformed]);
        assert_eq!(out.slot(1).unwrap(), &[0u8; SLOT]);
        assert_eq!(out.slot(2).unwrap(), &[0u8; SLOT]);
        assert_eq!(core.stats().malformed, 2);
    }

    #[test]
    fn rate_limit_kods_fast_client_but_not_interleaved_peer() {
        let cfg = CoreConfig {
            min_poll_interval: Some(SimDuration::from_secs(8)),
            ..CoreConfig::default()
        };
        let mut core = ServerCore::new(cfg);
        // Client 1 polls every 10 s (fine); client 2 re-polls after 2 s.
        let reqs = batch(&[(1, 0), (2, 1000), (2, 3000), (1, 10_000)]);
        let mut out = ReplyRing::new();
        core.process_batch(&reqs, &mut out);
        assert_eq!(out.fates(), &[Fate::Time, Fate::Time, Fate::Kod, Fate::Time]);
        assert_eq!(core.stats().kod, 1);
        // The KoD is a proper RATE kiss.
        let kod = PacketView::new(out.slot(2).unwrap()).unwrap();
        assert_eq!(kod.stratum(), 0);
        assert_eq!(kod.reference_id().as_kiss_code(), Some(*b"RATE"));
    }

    #[test]
    fn rate_state_persists_across_batches() {
        let cfg = CoreConfig {
            min_poll_interval: Some(SimDuration::from_secs(8)),
            ..CoreConfig::default()
        };
        let mut core = ServerCore::new(cfg);
        let mut out = ReplyRing::new();
        core.process_batch(&batch(&[(9, 1000)]), &mut out);
        assert_eq!(out.fates(), &[Fate::Time]);
        // Second batch, 2 s later: same client is now too fast.
        core.process_batch(&batch(&[(9, 3000)]), &mut out);
        assert_eq!(out.fates(), &[Fate::Kod]);
        assert_eq!(core.clients_tracked(), 1);
    }

    #[test]
    fn sharded_output_matches_serial_reference() {
        let mk_reqs = || {
            let mut ring = RequestRing::with_capacity(512);
            for i in 0..512u64 {
                // 64 clients, each polling repeatedly — some too fast.
                let client = i % 64;
                let at = (i * 731) % 50_000;
                ring.push(client, SimTime::from_millis(at as i64), &request_bytes(at as u32));
            }
            ring
        };
        let cfg = CoreConfig {
            min_poll_interval: Some(SimDuration::from_secs(4)),
            clock_error: NtpDuration::from_millis(3),
            ..CoreConfig::default()
        };
        let mut reference = ReplyRing::new();
        ServerCore::new(CoreConfig { shards: 1, ..cfg })
            .process_batch(&mk_reqs(), &mut reference);
        for shards in [2usize, 4, 8] {
            for jobs in [1usize, 4] {
                let mut core = ServerCore::new(CoreConfig { shards, ..cfg });
                let mut out = ReplyRing::new();
                core.process_batch_on(&mk_reqs(), &mut out, &Pool::with_jobs(jobs));
                assert_eq!(
                    out.as_bytes(),
                    reference.as_bytes(),
                    "reply stream diverged at shards={shards} jobs={jobs}"
                );
                assert_eq!(out.fates(), reference.fates());
            }
        }
    }

    #[test]
    fn classify_batch_counts_shapes_without_state_changes() {
        let mut core = ServerCore::new(CoreConfig {
            min_poll_interval: Some(SimDuration::from_secs(8)),
            ..CoreConfig::default()
        });
        let mut reqs = RequestRing::with_capacity(4);
        reqs.push(1, SimTime::from_secs(1), &request_bytes(1));
        reqs.push(2, SimTime::from_secs(1), &[0xFF; 10]);
        let ntpd = ntp_wire::NtpPacket {
            poll: 6,
            precision: -20,
            ..client_request(NtpTimestamp::from_parts(1, 0))
        };
        reqs.push(3, SimTime::from_secs(1), &ntpd.serialize());
        assert_eq!(core.classify_batch(&reqs), (1, 1, 1));
        // Pure: no clients tracked, no stats, and an immediate re-poll by
        // client 1 is *not* too fast (the classify pass touched no table).
        assert_eq!(core.clients_tracked(), 0);
        assert_eq!(core.stats().total(), 0);
        let mut out = ReplyRing::new();
        core.process_batch(&batch(&[(1, 1500)]), &mut out);
        assert_eq!(out.fates(), &[Fate::Time]);
    }

    #[test]
    fn stats_accumulate_across_batches() {
        let mut core = ServerCore::new(CoreConfig::default());
        let mut out = ReplyRing::new();
        core.process_batch(&batch(&[(1, 0), (2, 0)]), &mut out);
        core.process_batch(&batch(&[(3, 1000)]), &mut out);
        assert_eq!(core.stats().served, 3);
        assert_eq!(core.stats().total(), 3);
    }

    #[test]
    fn restart_serves_returning_clients_without_mass_rate() {
        let mut core = ServerCore::new(CoreConfig {
            min_poll_interval: Some(SimDuration::from_secs(8)),
            ..CoreConfig::default()
        });
        let mut out = ReplyRing::new();
        core.process_batch(&batch(&[(1, 0), (2, 100), (3, 200)]), &mut out);
        assert_eq!(core.clients_tracked(), 3);
        core.restart();
        assert_eq!(core.clients_tracked(), 0);
        assert_eq!(core.stats().restarts, 1);
        // The whole herd reconnects 1 s later — way inside the 8 s
        // minimum interval, but the cold table has no previous arrival to
        // hold against them: everyone is served.
        core.process_batch(&batch(&[(1, 1000), (2, 1100), (3, 1200)]), &mut out);
        assert_eq!(out.fates(), &[Fate::Time; 3]);
    }
}
