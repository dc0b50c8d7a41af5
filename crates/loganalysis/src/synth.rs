//! Synthetic server-log generation.
//!
//! For each Table 1 server profile, generate a (scaled-down) day of
//! client traffic as *real 48-byte NTP packets*: every record carries the
//! request bytes as captured at the server, plus the capture-side
//! metadata a tcpdump-based pipeline has (server receive time, client
//! hostname from reverse DNS). Ground-truth fields (true provider, true
//! protocol, true client clock error, true OWD) ride along so the
//! analysis heuristics can be *validated*, which the paper could not do
//! with production traces.
//!
//! Two generators share one client model (`draw_client_spec` /
//! `emit_record` / `write_hostname` are the common core):
//!
//! - [`generate_server_log`] — the original batch generator: materialize
//!   the whole (scaled) day, sort it, return a [`ServerLog`]. Pinned
//!   byte-identical across refactors; every committed artifact rides on
//!   it.
//! - [`stream_chunk`] — the full-scale streaming generator: the day is
//!   cut into fixed-size record chunks, each keyed *only* by
//!   `(seed, server, chunk)`, so any chunk can be produced independently
//!   and in parallel with no whole-day materialization and no global
//!   sort. Arrival times are drawn per chunk inside the chunk's time
//!   window and sorted locally, so concatenating chunks in index order
//!   yields a globally time-ordered stream. Client identity is a uniform
//!   draw per record and the client's spec is a pure function of
//!   `(seed, server, client)` — the same spec every time the client
//!   shows up, in any chunk. A chunk keeps the specs it derives in a
//!   fixed-size direct-mapped cache, so a client seen again in the same
//!   chunk is not re-derived, and every record is filled into one reused
//!   [`LogRecord`]. (The batch generator skews per-client volume
//!   Zipf-style; the streaming generator's volume is uniform per client
//!   — a documented modelling difference, not a bug.)

use clocksim::rng::SimRng;
use devtools::sketch::sort_total_order;
use ntp_wire::{packet::Mode, sntp_profile, NtpDuration, NtpPacket, NtpTimestamp, Version};

use crate::model::{ProviderCategory, ServerProfile, PROVIDERS};

/// Generation parameters.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Scale divisor applied to Table 1 counts (default 1000).
    pub scale: u64,
    /// Capture duration, seconds (paper: 24 h).
    pub duration_secs: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig { scale: 1000, duration_secs: 86_400 }
    }
}

/// One captured request as the analysis pipeline sees it, plus ground
/// truth for validation.
#[derive(Clone, Debug)]
pub struct LogRecord {
    /// Client identity (index into the synthetic population).
    pub client_id: u32,
    /// Reverse-DNS hostname of the client.
    pub hostname: String,
    /// Raw request bytes as captured.
    pub request: Vec<u8>,
    /// Server receive time (server clock ≈ true time), seconds into the
    /// capture.
    pub received_at_secs: f64,
    // ---- ground truth (not available to heuristics; used by tests) ----
    /// Which provider the client belongs to.
    pub true_provider: usize,
    /// Whether the client arrived over IPv6 (only on dual-stack servers).
    pub true_ipv6: bool,
    /// True protocol: `true` = SNTP.
    pub true_sntp: bool,
    /// True client→server OWD of this request, ms.
    pub true_owd_ms: f64,
    /// True client clock error at send time, ms.
    pub true_clock_err_ms: f64,
}

/// A synthetic day of traffic at one server.
#[derive(Clone, Debug)]
pub struct ServerLog {
    /// Which server this log belongs to.
    pub server: ServerProfile,
    /// Captured requests, in time order.
    pub records: Vec<LogRecord>,
    /// Unique clients generated.
    pub unique_clients: u64,
}

/// The draws behind a client's reverse-DNS hostname, rendered by
/// [`write_hostname`].
#[derive(Clone, Copy, Debug)]
struct HostParts {
    /// Category keyword label.
    keyword: &'static str,
    /// First address-like label.
    a: u8,
    /// Second address-like label.
    b: u8,
}

#[derive(Clone, Copy, Debug)]
struct ClientSpec {
    provider: usize,
    ipv6: bool,
    host: HostParts,
    sntp: bool,
    /// Minimum (propagation) OWD, ms.
    min_owd_ms: f64,
    /// Per-request jitter mean, ms.
    jitter_mean_ms: f64,
    /// Clock error at capture start, ms.
    clock_err_ms: f64,
    /// Clock skew, ppm.
    skew_ppm: f64,
    /// Number of requests in the capture.
    requests: u32,
    /// Whether the client's clock is well synchronized (drives the
    /// Durairajan filter's ground truth).
    synchronized: bool,
}

/// Draw a client's minimum OWD for a category. Cloud/ISP: tight
/// lognormal. Broadband: wider. Mobile: near-uniform spread over a huge
/// range — the "linear trend" of Figure 1's mobile CDFs.
fn draw_min_owd(cat: ProviderCategory, rng: &mut SimRng) -> f64 {
    match cat {
        ProviderCategory::CloudHosting => rng.lognormal(40.0f64.ln(), 0.35),
        ProviderCategory::Isp => rng.lognormal(50.0f64.ln(), 0.40),
        ProviderCategory::Broadband => rng.lognormal(250.0f64.ln(), 0.55),
        ProviderCategory::Mobile => rng.uniform_range(100.0, 1000.0),
    }
}

/// Sum of the providers' client weights, added in [`PROVIDERS`] order.
const CLIENT_WEIGHT_TOTAL: f64 = {
    let mut total = 0.0;
    let mut rest: &[crate::model::ProviderProfile] = &PROVIDERS;
    while let [p, tail @ ..] = rest {
        total += p.client_weight;
        rest = tail;
    }
    total
};

fn pick_provider(rng: &mut SimRng, isp_internal: bool) -> usize {
    if isp_internal {
        // ISP-internal servers see mostly the ISP's own wired
        // infrastructure (category Isp), some cloud monitoring.
        if rng.chance(0.8) {
            rng.int_range(3, 8) as usize
        } else {
            rng.int_range(0, 2) as usize
        }
    } else {
        let mut x = rng.uniform() * CLIENT_WEIGHT_TOTAL;
        for (i, p) in PROVIDERS.iter().enumerate() {
            x -= p.client_weight;
            if x <= 0.0 {
                return i;
            }
        }
        PROVIDERS.len() - 1
    }
}

fn draw_host_parts(cat: ProviderCategory, rng: &mut SimRng) -> HostParts {
    let kw = cat.hostname_keywords();
    let keyword = kw.get(rng.index(kw.len())).copied().unwrap_or("net");
    let a = rng.int_range(1, 254) as u8;
    let b = rng.int_range(1, 254) as u8;
    HostParts { keyword, a, b }
}

/// Append client `client`'s hostname to `out`:
/// `{a}-{b}-{client % 251}.{keyword}.{provider name, spaces dropped,
/// lowercased}.example.net`. Both generators render through here.
fn write_hostname(provider: usize, client: u32, parts: &HostParts, out: &mut String) {
    let Some(p) = PROVIDERS.get(provider) else {
        return; // unreachable: provider comes from pick_provider
    };
    push_decimal(out, u32::from(parts.a));
    out.push('-');
    push_decimal(out, u32::from(parts.b));
    out.push('-');
    push_decimal(out, client % 251);
    out.push('.');
    out.push_str(parts.keyword);
    out.push('.');
    // Provider names are ASCII.
    for b in p.name.bytes() {
        if b != b' ' {
            out.push(char::from(b.to_ascii_lowercase()));
        }
    }
    out.push_str(".example.net");
}

/// Append `n` in decimal, as `{n}` formats it.
fn push_decimal(out: &mut String, n: u32) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

/// Draw one client's spec — the shared client model of both generators.
/// The draw order here is the batch generator's original order and is
/// load-bearing: reordering it changes every committed artifact.
fn draw_client_spec(rng: &mut SimRng, server: &ServerProfile) -> ClientSpec {
    let provider = pick_provider(rng, server.isp_internal);
    let cat = PROVIDERS.get(provider).map(|p| p.category).unwrap_or(ProviderCategory::Isp);
    // ISP-internal servers (CI*/EN*) serve the ISP's own
    // infrastructure, which runs full ntpd regardless of category.
    let sntp = if server.isp_internal {
        rng.chance(0.15)
    } else {
        rng.chance(cat.sntp_fraction())
    };
    let min_owd_ms = draw_min_owd(cat, rng);
    // NTP clients are synchronized; SNTP clients often are not
    // (their clocks can be off by seconds — §2's vendor policies).
    let synchronized = if sntp { rng.chance(0.45) } else { rng.chance(0.97) };
    let clock_err_ms = if synchronized {
        rng.normal(0.0, 8.0)
    } else {
        // Up to several seconds of error, either sign.
        rng.normal(0.0, 2_500.0)
    };
    // Dual-stack servers (Table 1's "v4/v6") see a minority of
    // clients over IPv6; cloud/ISP infrastructure leads adoption.
    let ipv6 = server.ip_version == crate::model::IpVersion::V4V6
        && rng.chance(match cat {
            ProviderCategory::CloudHosting => 0.45,
            ProviderCategory::Isp => 0.30,
            ProviderCategory::Broadband => 0.15,
            ProviderCategory::Mobile => 0.25,
        });
    ClientSpec {
        provider,
        ipv6,
        host: draw_host_parts(cat, rng),
        sntp,
        min_owd_ms,
        jitter_mean_ms: match cat {
            ProviderCategory::Mobile => 80.0,
            ProviderCategory::Broadband => 25.0,
            _ => 6.0,
        },
        clock_err_ms,
        // Disciplined clients hold their rate near true; free-running
        // ones drift at crystal tolerance.
        skew_ppm: if synchronized { rng.normal(0.0, 0.1) } else { rng.normal(0.0, 15.0) },
        requests: 1, // at least one; remainder distributed below
        synchronized,
    }
}

/// Fill `record` with one request of client `ci` — the shared request
/// model of both generators. `t_send` and `owd_ms` are drawn by the
/// caller (the two generators parameterize time differently); the
/// packet-shaping draws (`poll`, reference age) happen here, after them,
/// in the batch generator's original order. Every field is overwritten;
/// the hostname and request buffers keep their capacity.
fn emit_record(
    rng: &mut SimRng,
    c: &ClientSpec,
    ci: u32,
    t_send: f64,
    owd_ms: f64,
    received_at_secs: f64,
    record: &mut LogRecord,
) {
    let clock_err = c.clock_err_ms + c.skew_ppm * 1e-3 * t_send; // ppm·s → ms
    // T1 on the client's clock.
    let t1 = ts_at(t_send).wrapping_add_duration(NtpDuration::from_seconds_f64(clock_err / 1e3));
    let packet = if c.sntp {
        sntp_profile::client_request(t1)
    } else {
        // Full ntpd-style request: poll/precision/stratum set,
        // reference timestamp recent when synchronized.
        let mut p = NtpPacket {
            version: Version::V4,
            mode: Mode::Client,
            stratum: 3,
            poll: 6 + rng.int_range(0, 4) as i8,
            precision: -20,
            transmit_ts: t1,
            ..Default::default()
        };
        p.reference_id = ntp_wire::RefId::ipv4(198, 51, 100, (ci % 250) as u8 + 1);
        let ref_age = if c.synchronized {
            rng.uniform_range(1.0, 900.0)
        } else {
            rng.uniform_range(100_000.0, 10_000_000.0)
        };
        p.reference_ts = t1.wrapping_add_duration(NtpDuration::from_seconds_f64(-ref_age));
        p.root_delay = ntp_wire::NtpShort::from_millis(30);
        p.root_dispersion = ntp_wire::NtpShort::from_millis(15);
        p
    };
    record.client_id = ci;
    record.hostname.clear();
    write_hostname(c.provider, ci, &c.host, &mut record.hostname);
    record.request.clear();
    record.request.extend_from_slice(&packet.to_bytes());
    record.received_at_secs = received_at_secs;
    record.true_provider = c.provider;
    record.true_ipv6 = c.ipv6;
    record.true_sntp = c.sntp;
    record.true_owd_ms = owd_ms;
    record.true_clock_err_ms = clock_err;
}

/// A record for [`emit_record`] to fill, with room for any hostname and
/// request the generators produce.
fn blank_record() -> LogRecord {
    LogRecord {
        client_id: 0,
        hostname: String::with_capacity(48),
        request: Vec::with_capacity(ntp_wire::PACKET_LEN),
        received_at_secs: 0.0,
        true_provider: 0,
        true_ipv6: false,
        true_sntp: false,
        true_owd_ms: 0.0,
        true_clock_err_ms: 0.0,
    }
}

/// Generate one server's synthetic log.
pub fn generate_server_log(server: &ServerProfile, cfg: &SynthConfig, seed: u64) -> ServerLog {
    let mut rng = SimRng::new(seed ^ 0x5EED_1065);
    let n_clients = (server.unique_clients / cfg.scale).max(5) as u32;
    let total_requests = (server.total_measurements / cfg.scale).max(n_clients as u64);

    // Build the client population.
    let mut clients = Vec::with_capacity(n_clients as usize);
    for _ in 0..n_clients {
        clients.push(draw_client_spec(&mut rng, server));
    }
    // Distribute the remaining request budget: NTP clients poll
    // periodically and soak up most of the volume (a Zipf-ish skew).
    let mut remaining = total_requests.saturating_sub(n_clients as u64);
    while remaining > 0 {
        let i = rng.index(clients.len());
        let Some(cl) = clients.get_mut(i) else { break };
        let boost = if cl.sntp {
            1
        } else {
            rng.int_range(5, 40) as u64
        }
        .min(remaining);
        cl.requests += boost as u32;
        remaining -= boost;
    }

    // Emit records.
    let mut records = Vec::with_capacity(total_requests as usize);
    for (ci, c) in clients.iter().enumerate() {
        for _ in 0..c.requests {
            let t_send = rng.uniform_range(0.0, cfg.duration_secs as f64);
            let owd_ms = c.min_owd_ms + rng.exponential(c.jitter_mean_ms);
            let mut record = blank_record();
            emit_record(&mut rng, c, ci as u32, t_send, owd_ms, t_send + owd_ms / 1e3, &mut record);
            records.push(record);
        }
    }
    records.sort_by(|a, b| a.received_at_secs.total_cmp(&b.received_at_secs));
    ServerLog { server: *server, records, unique_clients: n_clients as u64 }
}

/// NTP timestamp for `secs` into the capture (true timescale).
pub fn ts_at(secs: f64) -> NtpTimestamp {
    NtpTimestamp::from_parts(3_000_000, 0)
        .wrapping_add_duration(NtpDuration::from_seconds_f64(secs))
}

// ---------------------------------------------------------------------
// Streaming chunked generator
// ---------------------------------------------------------------------

/// Parameters of the chunked streaming generator.
#[derive(Clone, Debug)]
pub struct StreamSynthConfig {
    /// Scale divisor applied to Table 1 counts (`1` = the paper's full
    /// 209M-record regime).
    pub scale: u64,
    /// Capture duration, seconds (paper: 24 h).
    pub duration_secs: u64,
    /// Target records per chunk. This fixes the chunk boundaries — it is
    /// part of the *result's* identity, never derived from shard or job
    /// counts, which is what makes every (shards, jobs) decomposition
    /// byte-identical (DESIGN.md §13).
    pub chunk_records: u64,
}

impl Default for StreamSynthConfig {
    fn default() -> Self {
        StreamSynthConfig { scale: 1, duration_secs: 86_400, chunk_records: 1 << 20 }
    }
}

/// The chunk decomposition of one server's day under a
/// [`StreamSynthConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Records this server emits in total (Table 1 count ÷ scale).
    pub total_records: u64,
    /// Client population size.
    pub n_clients: u32,
    /// Number of chunks the day is cut into.
    pub chunks: u64,
}

/// Compute a server's chunk decomposition: same count model as
/// [`generate_server_log`], split into `ceil(total / chunk_records)`
/// time-window chunks.
pub fn chunk_plan(server: &ServerProfile, cfg: &StreamSynthConfig) -> ChunkPlan {
    let scale = cfg.scale.max(1);
    let n_clients = (server.unique_clients / scale).max(5) as u32;
    let total_records = (server.total_measurements / scale).max(n_clients as u64);
    let chunks = total_records.div_ceil(cfg.chunk_records.max(1)).max(1);
    ChunkPlan { total_records, n_clients, chunks }
}

/// Records in chunk `chunk` of a plan: the total split as evenly as
/// possible, earlier chunks taking the remainder.
pub fn chunk_len(plan: &ChunkPlan, chunk: u64) -> u64 {
    if chunk >= plan.chunks {
        return 0;
    }
    let base = plan.total_records / plan.chunks;
    let rem = plan.total_records % plan.chunks;
    base + u64::from(chunk < rem)
}

/// Stateless mixing of `(seed, server, salt, n)` into an independent RNG
/// seed (SplitMix64 finalizer over the combined words). This is the only
/// coupling between chunks: no generator state crosses a chunk boundary.
fn stream_key(seed: u64, server_index: usize, salt: u64, n: u64) -> u64 {
    let mut z = seed
        ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (server_index as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ n.wrapping_mul(0xA24B_AED4_963E_E407);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const KEY_CHUNK: u64 = 0xC1;
const KEY_CLIENT: u64 = 0xC2;

/// Most client specs one [`stream_chunk`] call caches (a power of two).
/// The bound holds the cache to about 0.3 MB whatever the chunk size, so
/// memory stays flat in the full regime's 1 Mi-record chunks.
const CLIENT_MEMO_SLOTS: usize = 4096;

/// Generate one chunk of one server's stream, pushing each record into
/// `sink` in server receive-time order. Memory is bounded by the chunk:
/// one `f64` arrival time per record, a fixed direct-mapped cache of at
/// most `CLIENT_MEMO_SLOTS` client specs, and a single [`LogRecord`]
/// refilled in place for every record — no whole-day materialization
/// and no global sort (concatenating chunks in index order is already
/// globally sorted, because chunk `c` owns the day's `c`-th time window).
///
/// The chunk is a pure function of `(seed, server, chunk)` under a fixed
/// config: any subset of chunks can be generated in any order, on any
/// worker, and byte-identical records come out.
pub fn stream_chunk(
    server: &ServerProfile,
    server_index: usize,
    cfg: &StreamSynthConfig,
    seed: u64,
    chunk: u64,
    sink: &mut dyn FnMut(&LogRecord),
) {
    let plan = chunk_plan(server, cfg);
    let len = chunk_len(&plan, chunk);
    if len == 0 {
        return;
    }
    let window = cfg.duration_secs as f64 / plan.chunks as f64;
    let t0 = chunk as f64 * window;
    let mut rng = SimRng::new(stream_key(seed, server_index, KEY_CHUNK, chunk));
    // Pass 1: the chunk's arrival times, sorted locally.
    let arrivals = sort_total_order((0..len).map(|_| rng.uniform_range(t0, t0 + window)).collect());
    // Pass 2: one record per arrival. Client identity is a uniform draw;
    // the client's spec comes from its pure per-client stream, so it is
    // identical in every chunk it appears in. The cache only skips
    // re-deriving it: slot `ci & mask`, tagged with the client id, and
    // allocated per call so no state crosses a chunk boundary.
    let slots = (plan.n_clients as usize).min(CLIENT_MEMO_SLOTS).next_power_of_two();
    let mask = slots - 1;
    let mut memo: Vec<Option<(u32, ClientSpec)>> = vec![None; slots];
    let mut record = blank_record();
    for t_arrive in arrivals {
        let ci = rng.below(plan.n_clients as u64) as u32;
        let spec = match memo.get_mut(ci as usize & mask) {
            Some(Some((tag, spec))) if *tag == ci => *spec,
            slot => {
                let key = stream_key(seed, server_index, KEY_CLIENT, u64::from(ci));
                let spec = draw_client_spec(&mut SimRng::new(key), server);
                if let Some(slot) = slot {
                    *slot = Some((ci, spec));
                }
                spec
            }
        };
        let owd_ms = spec.min_owd_ms + rng.exponential(spec.jitter_mean_ms);
        emit_record(&mut rng, &spec, ci, t_arrive - owd_ms / 1e3, owd_ms, t_arrive, &mut record);
        sink(&record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SERVERS;

    fn small_cfg() -> SynthConfig {
        SynthConfig { scale: 10_000, duration_secs: 86_400 }
    }

    #[test]
    fn counts_scale_with_table1() {
        let su1 = SERVERS.iter().find(|s| s.id == "SU1").unwrap();
        let log = generate_server_log(su1, &small_cfg(), 1);
        // 21,101 clients / 10,000 → max(2,5) = 5; 16.4M / 10k = 1640 reqs.
        assert_eq!(log.unique_clients, 5);
        let expect = (su1.total_measurements / 10_000) as usize;
        assert!(
            (log.records.len() as i64 - expect as i64).abs() < expect as i64 / 5 + 10,
            "records {} vs {expect}",
            log.records.len()
        );
    }

    #[test]
    fn records_are_parseable_packets_in_time_order() {
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        let log = generate_server_log(ag1, &small_cfg(), 2);
        let mut prev = 0.0;
        for r in &log.records {
            let p = NtpPacket::parse(&r.request).expect("valid packet");
            assert_eq!(p.mode, Mode::Client);
            assert!(r.received_at_secs >= prev);
            prev = r.received_at_secs;
        }
    }

    #[test]
    fn sntp_records_have_sntp_shape() {
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        let log = generate_server_log(ag1, &small_cfg(), 3);
        for r in &log.records {
            let p = NtpPacket::parse(&r.request).unwrap();
            assert_eq!(p.is_sntp_client_shape(), r.true_sntp, "host {}", r.hostname);
        }
    }

    #[test]
    fn mobile_clients_mostly_sntp() {
        let mw2 = SERVERS.iter().find(|s| s.id == "MW2").unwrap();
        let log = generate_server_log(mw2, &SynthConfig::default(), 4);
        // Per *client*, as the paper counts: >95% of mobile clients SNTP.
        let mut seen = std::collections::BTreeMap::new();
        for r in &log.records {
            if PROVIDERS[r.true_provider].category == ProviderCategory::Mobile {
                seen.insert(r.client_id, r.true_sntp);
            }
        }
        assert!(!seen.is_empty());
        let sntp = seen.values().filter(|s| **s).count() as f64 / seen.len() as f64;
        assert!(sntp > 0.9, "mobile SNTP client share {sntp}");
    }

    #[test]
    fn isp_internal_servers_are_ntp_heavy() {
        let ci1 = SERVERS.iter().find(|s| s.id == "CI1").unwrap();
        // CI1 has few clients; use scale 1 for fidelity.
        let log = generate_server_log(ci1, &SynthConfig { scale: 10, duration_secs: 86_400 }, 5);
        let sntp = log.records.iter().filter(|r| r.true_sntp).count() as f64
            / log.records.len() as f64;
        assert!(sntp < 0.5, "ISP-internal server should be NTP-majority, sntp={sntp}");
    }

    #[test]
    fn mobile_owds_exceed_cloud_owds() {
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        let log = generate_server_log(ag1, &small_cfg(), 6);
        let owds_of = |cat: ProviderCategory| -> Vec<f64> {
            log.records
                .iter()
                .filter(|r| PROVIDERS[r.true_provider].category == cat)
                .map(|r| r.true_owd_ms)
                .collect()
        };
        let cloud = clocksim::stats::median(&owds_of(ProviderCategory::CloudHosting));
        let mobile = clocksim::stats::median(&owds_of(ProviderCategory::Mobile));
        assert!(mobile > cloud * 4.0, "cloud={cloud} mobile={mobile}");
    }

    #[test]
    fn ipv6_only_on_dual_stack_servers() {
        let cfg = SynthConfig { scale: 2_000, duration_secs: 86_400 };
        // MW2 is v4-only: no IPv6 clients ever.
        let mw2 = SERVERS.iter().find(|s| s.id == "MW2").unwrap();
        let log = generate_server_log(mw2, &cfg, 11);
        assert!(log.records.iter().all(|r| !r.true_ipv6));
        // SU1 is dual-stack: a visible IPv6 minority.
        let su1 = SERVERS.iter().find(|s| s.id == "SU1").unwrap();
        let log = generate_server_log(su1, &SynthConfig { scale: 500, duration_secs: 86_400 }, 12);
        let mut seen = std::collections::BTreeMap::new();
        for r in &log.records {
            seen.insert(r.client_id, r.true_ipv6);
        }
        let v6 = seen.values().filter(|v| **v).count();
        assert!(v6 > 0, "dual-stack server should see some IPv6 clients");
        assert!(v6 * 2 < seen.len(), "IPv6 stays a minority");
    }

    #[test]
    fn deterministic() {
        let jw1 = SERVERS.iter().find(|s| s.id == "JW1").unwrap();
        let a = generate_server_log(jw1, &small_cfg(), 7);
        let b = generate_server_log(jw1, &small_cfg(), 7);
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.records[0].request, b.records[0].request);
    }

    // ---- streaming generator ----

    fn stream_cfg(scale: u64, chunk_records: u64) -> StreamSynthConfig {
        StreamSynthConfig { scale, duration_secs: 86_400, chunk_records }
    }

    fn collect_chunk(server_idx: usize, cfg: &StreamSynthConfig, seed: u64, chunk: u64) -> Vec<LogRecord> {
        let mut out = Vec::new();
        stream_chunk(&SERVERS[server_idx], server_idx, cfg, seed, chunk, &mut |r| {
            out.push(r.clone())
        });
        out
    }

    /// FNV-1a-64 over a byte stream.
    struct Fnv1a(u64);

    impl Fnv1a {
        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }

        /// Every field of a record: floats by their bits, the hostname
        /// and request by their (length-prefixed) bytes.
        fn record(&mut self, r: &LogRecord) {
            self.bytes(&r.client_id.to_le_bytes());
            self.bytes(&(r.hostname.len() as u64).to_le_bytes());
            self.bytes(r.hostname.as_bytes());
            self.bytes(&(r.request.len() as u64).to_le_bytes());
            self.bytes(&r.request);
            self.bytes(&r.received_at_secs.to_bits().to_le_bytes());
            self.bytes(&(r.true_provider as u64).to_le_bytes());
            self.bytes(&[u8::from(r.true_ipv6), u8::from(r.true_sntp)]);
            self.bytes(&r.true_owd_ms.to_bits().to_le_bytes());
            self.bytes(&r.true_clock_err_ms.to_bits().to_le_bytes());
        }
    }

    #[test]
    fn stream_chunk_bytes_are_pinned() {
        // The first and last chunk of four servers at scale 1/1000 in
        // 2 Ki-record chunks. MW2's 9 482 clients overflow the 4096-slot
        // client cache, so its chunks take both cache hits and slot
        // collisions; CI1 and SU1 are dual-stack; and the mix carries
        // SNTP and full-NTP requests.
        let cfg = stream_cfg(1_000, 2_048);
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        let (mut records, mut sntp, mut ipv6) = (0u64, 0u64, 0u64);
        for id in ["AG1", "CI1", "MW2", "SU1"] {
            let si = SERVERS.iter().position(|s| s.id == id).unwrap();
            let mut chunks = vec![0, chunk_plan(&SERVERS[si], &cfg).chunks - 1];
            chunks.dedup();
            for chunk in chunks {
                stream_chunk(&SERVERS[si], si, &cfg, 2016, chunk, &mut |r| {
                    h.record(r);
                    records += 1;
                    sntp += u64::from(r.true_sntp);
                    ipv6 += u64::from(r.true_ipv6);
                });
            }
        }
        assert!(sntp > 0 && sntp < records && ipv6 > 0, "sntp {sntp} ipv6 {ipv6} of {records}");
        assert_eq!((records, h.0), (13_141, 0x3218_27f1_b50e_2665));
    }

    #[test]
    fn chunk_lengths_cover_the_total_exactly() {
        let cfg = stream_cfg(5_000, 300);
        for (i, s) in SERVERS.iter().enumerate() {
            let plan = chunk_plan(s, &cfg);
            let sum: u64 = (0..plan.chunks).map(|c| chunk_len(&plan, c)).sum();
            assert_eq!(sum, plan.total_records, "server {i}");
            assert_eq!(chunk_len(&plan, plan.chunks), 0);
        }
    }

    #[test]
    fn chunks_are_pure_functions_of_their_key() {
        let cfg = stream_cfg(5_000, 500);
        let a = collect_chunk(0, &cfg, 2016, 3);
        let b = collect_chunk(0, &cfg, 2016, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.request, y.request);
            assert_eq!(x.hostname, y.hostname);
            assert_eq!(x.received_at_secs, y.received_at_secs);
        }
        // Different chunk / seed / server keys give different streams.
        assert_ne!(collect_chunk(0, &cfg, 2016, 2).first().map(|r| r.received_at_secs),
                   a.first().map(|r| r.received_at_secs));
    }

    #[test]
    fn concatenated_chunks_are_globally_time_ordered() {
        let cfg = stream_cfg(5_000, 400);
        let plan = chunk_plan(&SERVERS[0], &cfg);
        assert!(plan.chunks >= 3, "want a multi-chunk plan, got {}", plan.chunks);
        let mut prev = f64::NEG_INFINITY;
        let mut n = 0u64;
        for c in 0..plan.chunks {
            for r in collect_chunk(0, &cfg, 7, c) {
                assert!(r.received_at_secs >= prev, "chunk {c} breaks order");
                prev = r.received_at_secs;
                n += 1;
            }
        }
        assert_eq!(n, plan.total_records);
    }

    #[test]
    fn client_specs_are_stable_across_chunks() {
        // The same client id must resolve to the same hostname, provider,
        // and protocol wherever it appears.
        let cfg = stream_cfg(20_000, 200);
        let plan = chunk_plan(&SERVERS[0], &cfg);
        let mut seen: std::collections::BTreeMap<u32, (String, usize, bool)> =
            std::collections::BTreeMap::new();
        for c in 0..plan.chunks {
            for r in collect_chunk(0, &cfg, 9, c) {
                let entry = (r.hostname.clone(), r.true_provider, r.true_sntp);
                if let Some(prev) = seen.get(&r.client_id) {
                    assert_eq!(prev, &entry, "client {} flipped spec", r.client_id);
                } else {
                    seen.insert(r.client_id, entry);
                }
            }
        }
        assert!(seen.len() > 1);
    }

    #[test]
    fn streamed_records_are_valid_packets_with_consistent_truth() {
        let cfg = stream_cfg(10_000, 300);
        for r in collect_chunk(4, &cfg, 11, 0) {
            let p = NtpPacket::parse(&r.request).expect("valid packet");
            assert_eq!(p.mode, Mode::Client);
            assert_eq!(p.is_sntp_client_shape(), r.true_sntp);
            assert!(r.true_owd_ms > 0.0);
        }
    }

    #[test]
    fn streamed_category_latencies_match_the_model() {
        let cfg = stream_cfg(2_000, 2_000);
        let mut cloud = Vec::new();
        let mut mobile = Vec::new();
        for c in 0..chunk_plan(&SERVERS[0], &cfg).chunks.min(4) {
            for r in collect_chunk(0, &cfg, 13, c) {
                match PROVIDERS[r.true_provider].category {
                    ProviderCategory::CloudHosting => cloud.push(r.true_owd_ms),
                    ProviderCategory::Mobile => mobile.push(r.true_owd_ms),
                    _ => {}
                }
            }
        }
        assert!(cloud.len() > 50 && mobile.len() > 50);
        let c = clocksim::stats::median(&cloud);
        let m = clocksim::stats::median(&mobile);
        assert!(m > c * 4.0, "cloud={c} mobile={m}");
    }
}
