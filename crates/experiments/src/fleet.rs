//! Fleet-scale sweep: N clients per server pool, three client stacks.
//!
//! The paper's client-side experiments are one phone on one bench; its
//! server-side study is 19 production servers under millions of
//! clients. This sweep closes the loop in simulation: one shared world
//! ([`netsim::fleet::FleetNet`]) hosts N clients — a mix of naive SNTP,
//! hardened MNTP, and the reference ntpd — behind one access point and
//! a 4-server pool with bounded service queues. Each trial reports both
//! ends:
//!
//! * client side: steady-state |clock error| percentiles per stack;
//! * server side: arrival/KoD/drop rates and peak backlog.
//!
//! The N=1000 trial additionally keeps the raw server-side arrival log
//! (request bytes, true arrival times) and feeds it through the same
//! `loganalysis` pipeline the paper ran over tcpdump captures: packet-
//! shape protocol classification (Figure 2) and the inter-arrival
//! analysis of Figures 11/12 — regenerated here from a *simulated*
//! fleet instead of production servers.

use clocksim::rng::SimRng;
use clocksim::time::SimTime;
use clocksim::{OscillatorConfig, SimClock};
use devtools::par::Pool;
use loganalysis::model::{IpVersion, ServerProfile};
use loganalysis::synth::{LogRecord, ServerLog};
use loganalysis::InterarrivalSummary;
use mntp::{
    run_fleet_on, Discipline, FleetClient, FleetRunConfig, MntpConfig, MntpDiscipline,
    RobustConfig, SntpDiscipline,
};
use netsim::fleet::{FleetConfig, FleetNet};
use ntpd_sim::{NtpdConfig, NtpdDiscipline};
use sntp::fleet::{FleetArrival, RequestShape};
use sntp::{PickLane, PoolConfig, ServerPool};

/// Number of servers every fleet trial runs against.
const SERVERS: usize = 4;

/// Shards per fleet world. Fixed for every trial (shard count is
/// not observable in results, but fixing it keeps artifact bytes
/// independent of any future heuristic).
const SHARDS: usize = 8;

/// Populations at or above this size switch to compact steady-state
/// sampling ([`FleetRunConfig::steady_cutoff_secs`]): per-client `f32`
/// |error| samples instead of the full timestamped series.
const STEADY_SAMPLING_MIN_CLIENTS: usize = 100_000;

/// Client-stack mix by id: half naive SNTP, 3/10 MNTP, 2/10 ntpd —
/// SNTP-dominant, as the paper's Figure 2 found on real servers.
fn stack_for(client: usize) -> Stack {
    match client % 10 {
        0..=4 => Stack::Sntp,
        5..=7 => Stack::Mntp,
        _ => Stack::Ntpd,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Stack {
    Sntp,
    Mntp,
    Ntpd,
}

impl Stack {
    fn name(self) -> &'static str {
        match self {
            Stack::Sntp => "SNTP (naive)",
            Stack::Mntp => "MNTP (hardened)",
            Stack::Ntpd => "NTP (ntpd)",
        }
    }
}

/// Steady-state |error| percentiles for one client stack in one trial.
#[derive(Clone, Debug)]
pub struct FleetArmStats {
    /// Stack label.
    pub name: &'static str,
    /// Clients running this stack.
    pub clients: usize,
    /// Median |error|, ms, over the steady-state half of the trial.
    pub p50_ms: f64,
    /// 90th percentile |error|, ms.
    pub p90_ms: f64,
    /// 99th percentile |error|, ms.
    pub p99_ms: f64,
    /// Worst |error|, ms.
    pub max_ms: f64,
}

/// One fleet trial: N clients against the shared 4-server world.
#[derive(Clone, Debug)]
pub struct FleetTrialResult {
    /// Total clients.
    pub n_clients: usize,
    /// Trial length, seconds.
    pub duration_secs: u64,
    /// Per-stack offset statistics (only stacks with ≥1 client).
    pub arms: Vec<FleetArmStats>,
    /// Requests that reached any server.
    pub arrivals: u64,
    /// Requests answered with time.
    pub served: u64,
    /// RATE kisses sent.
    pub kod: u64,
    /// Requests dropped on backlog overflow.
    pub dropped: u64,
    /// Deepest service backlog seen at any server.
    pub peak_backlog: usize,
    /// Mean server-side arrival rate, requests/s.
    pub mean_rate: f64,
    /// Peak per-second arrival count.
    pub peak_rate: u64,
    /// Client polls attempted (all stacks).
    pub polls_sent: u64,
}

/// §3.1-pipeline analysis of the simulated server log.
#[derive(Clone, Debug)]
pub struct FleetLogAnalysis {
    /// Which trial the log came from (client count).
    pub n_clients: usize,
    /// Captured requests.
    pub records: usize,
    /// Distinct clients seen at the servers.
    pub clients_seen: usize,
    /// Fraction of clients the packet-shape classifier labels SNTP.
    pub sntp_share: f64,
    /// Aggregate inter-arrival distribution (herding view).
    pub global: Option<InterarrivalSummary>,
    /// Same-client inter-arrival distribution (effective poll interval).
    pub per_client: Option<InterarrivalSummary>,
}

/// Everything the fleet artifact reports.
#[derive(Clone, Debug)]
pub struct FleetSweepResult {
    /// One row per population size.
    pub trials: Vec<FleetTrialResult>,
    /// Log-pipeline analysis of the N=1000 trial.
    pub log: FleetLogAnalysis,
}

fn client_clock(seed: u64) -> SimClock {
    let osc = OscillatorConfig::laptop().with_skew_ppm(30.0).build(SimRng::new(seed));
    SimClock::new(osc, SimTime::ZERO)
}

fn build_clients(n: usize, seed: u64) -> Vec<FleetClient> {
    (0..n)
        .map(|i| {
            let clock = client_clock(seed ^ (0x10_000 + i as u64));
            let select = PickLane::new(SERVERS, seed ^ (0x30_000 + i as u64));
            match stack_for(i) {
                Stack::Sntp => FleetClient {
                    discipline: Box::new(SntpDiscipline::naive().self_paced(5.0))
                        as Box<dyn Discipline>,
                    clock,
                    select,
                    shape: RequestShape::Sntp,
                },
                Stack::Mntp => {
                    let rcfg = RobustConfig {
                        health_seed: seed ^ (0x20_000 + i as u64),
                        ..RobustConfig::default()
                    };
                    FleetClient {
                        discipline: Box::new(MntpDiscipline::hardened(
                            MntpConfig::default(),
                            &rcfg,
                            SERVERS,
                        )),
                        clock,
                        select,
                        shape: RequestShape::Sntp,
                    }
                }
                Stack::Ntpd => FleetClient {
                    discipline: Box::new(NtpdDiscipline::new(&NtpdConfig::with_peers(
                        (0..SERVERS).collect(),
                    ))),
                    clock,
                    select,
                    shape: RequestShape::Ntpd,
                },
            }
        })
        .collect()
}

/// Run one fleet trial, ticking its shards over `jobs` worker
/// threads (the output is identical at any job count). Returns the
/// summary row plus the raw arrival log when `collect_log` is set (the
/// log does not perturb the trial: collection only stores observations).
pub fn fleet_trial(
    n: usize,
    seed: u64,
    duration_secs: u64,
    collect_log: bool,
    jobs: usize,
) -> (FleetTrialResult, Vec<FleetArrival>) {
    let fcfg =
        FleetConfig { clients: n, servers: SERVERS, shards: SHARDS, ..FleetConfig::default() };
    let mut net = FleetNet::new(&fcfg, seed);
    let mut pool = ServerPool::new(
        PoolConfig { size: SERVERS, ..PoolConfig::default() },
        seed ^ 0x9001,
    );
    let mut clients = build_clients(n, seed);
    // Steady state: second half of the trial. Large populations keep
    // only the compact per-client |error| samples past the cutoff; the
    // full timestamped series at 1M clients would dwarf the trial state.
    let cutoff = duration_secs as f64 / 2.0;
    let steady = n >= STEADY_SAMPLING_MIN_CLIENTS;
    let cfg = FleetRunConfig {
        start_secs: 0.0,
        duration_secs,
        tick_secs: 1.0,
        sample_period_secs: 30.0,
        collect_arrivals: collect_log,
        steady_cutoff_secs: steady.then_some(cutoff),
    };
    let run = run_fleet_on(&Pool::with_jobs(jobs), &mut clients, &mut net, &mut pool, &cfg);

    let mut arms = Vec::new();
    for stack in [Stack::Sntp, Stack::Mntp, Stack::Ntpd] {
        let mut errs: Vec<f64> = Vec::new();
        let mut members = 0usize;
        if steady {
            for (i, samples) in run.steady_abs_ms.iter().enumerate() {
                if stack_for(i) != stack {
                    continue;
                }
                members += 1;
                errs.extend(samples.iter().map(|&e| e as f64));
            }
        } else {
            for (i, series) in run.true_error_ms.iter().enumerate() {
                if stack_for(i) != stack {
                    continue;
                }
                members += 1;
                errs.extend(
                    series.iter().filter(|(t, _)| *t >= cutoff).map(|(_, e)| e.abs()),
                );
            }
        }
        if members == 0 {
            continue;
        }
        errs.sort_by(f64::total_cmp);
        arms.push(FleetArmStats {
            name: stack.name(),
            clients: members,
            p50_ms: devtools::sketch::percentile_nearest_rank(&errs, 0.50),
            p90_ms: devtools::sketch::percentile_nearest_rank(&errs, 0.90),
            p99_ms: devtools::sketch::percentile_nearest_rank(&errs, 0.99),
            max_ms: errs.last().copied().unwrap_or(0.0),
        });
    }

    let mut arrivals = 0u64;
    let mut served = 0u64;
    let mut kod = 0u64;
    let mut dropped = 0u64;
    let mut peak_backlog = 0usize;
    for j in 0..SERVERS {
        if let Some(m) = net.server_model(j) {
            arrivals += m.stats.arrivals;
            served += m.stats.served;
            kod += m.stats.kod_sent;
            dropped += m.stats.dropped;
            peak_backlog = peak_backlog.max(m.stats.peak_backlog);
        }
    }
    let peak_rate = run.arrivals_per_sec.iter().copied().max().unwrap_or(0);
    let row = FleetTrialResult {
        n_clients: n,
        duration_secs,
        arms,
        arrivals,
        served,
        kod,
        dropped,
        peak_backlog,
        mean_rate: arrivals as f64 / duration_secs as f64,
        peak_rate,
        polls_sent: run.polls_sent,
    };
    (row, run.arrivals)
}

/// Convert a fleet arrival log into the [`ServerLog`] shape the §3.1
/// pipeline consumes. Hostnames are synthesized with the `mobile`
/// keyword (the whole fleet sits behind a wireless AP); ground-truth
/// fields not observable in this capture are zeroed.
pub fn arrivals_to_server_log(n_clients: usize, arrivals: &[FleetArrival]) -> ServerLog {
    let server = ServerProfile {
        id: "SIM",
        stratum: 2,
        ip_version: IpVersion::V4,
        unique_clients: n_clients as u64,
        total_measurements: arrivals.len() as u64,
        isp_internal: false,
    };
    let mut seen = std::collections::BTreeSet::new();
    let records = arrivals
        .iter()
        .map(|a| {
            seen.insert(a.client_id);
            LogRecord {
                client_id: a.client_id,
                hostname: format!("c{}.mobile.simfleet.example.net", a.client_id),
                request: a.request.clone(),
                received_at_secs: a.at.as_secs_f64(),
                true_provider: 0,
                true_ipv6: false,
                true_sntp: false,
                true_owd_ms: 0.0,
                true_clock_err_ms: 0.0,
            }
        })
        .collect();
    ServerLog { server, records, unique_clients: seen.len() as u64 }
}

/// Run the §3.1 pipeline over the collected log.
pub fn analyze_log(n_clients: usize, arrivals: &[FleetArrival]) -> FleetLogAnalysis {
    let log = arrivals_to_server_log(n_clients, arrivals);
    FleetLogAnalysis {
        n_clients,
        records: log.records.len(),
        clients_seen: log.unique_clients as usize,
        sntp_share: loganalysis::protocol::sntp_share(&log),
        global: loganalysis::global_interarrival(&log),
        per_client: loganalysis::per_client_interarrival(&log),
    }
}

/// Population sizes for one sweep.
pub fn sweep_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 100, 1000]
    } else {
        vec![1, 100, 1000, 10_000, 100_000, 1_000_000]
    }
}

/// Run the sweep with trials fanned out over `pool`. Trials own all
/// their state and seeds, so the output is identical at any job count.
///
/// Small populations run as one task each (trial-level parallelism);
/// populations at the steady-sampling threshold and above run one at a
/// time with their shards fanned across `pool.jobs()` workers
/// instead — at that size a single trial dominates the sweep, so
/// shard-level parallelism is the useful axis.
pub fn run_sweep_on(pool: &Pool, seed: u64, quick: bool) -> FleetSweepResult {
    let duration = if quick { 600 } else { 1800 };
    let (small, big): (Vec<usize>, Vec<usize>) = sweep_sizes(quick)
        .into_iter()
        .partition(|&n| n < STEADY_SAMPLING_MIN_CLIENTS);
    let mut results = pool.map(small, |n| fleet_trial(n, seed, duration, n == 1000, 1));
    for n in big {
        results.push(fleet_trial(n, seed, duration, false, pool.jobs()));
    }
    let mut trials = Vec::new();
    let mut log = None;
    for (row, arrivals) in results {
        if row.n_clients == 1000 {
            log = Some(analyze_log(row.n_clients, &arrivals));
        }
        trials.push(row);
    }
    let log = log.unwrap_or(FleetLogAnalysis {
        n_clients: 0,
        records: 0,
        clients_seen: 0,
        sntp_share: 0.0,
        global: None,
        per_client: None,
    });
    FleetSweepResult { trials, log }
}

fn render_summary(label: &str, s: &Option<InterarrivalSummary>, out: &mut String) {
    match s {
        Some(s) => out.push_str(&format!(
            "  {label}: mean={:.2} ms  p50={:.2}  p90={:.2}  p99={:.2}  sub-ms share={:.1}%  (n={})\n",
            s.mean_ms,
            s.p50_ms,
            s.p90_ms,
            s.p99_ms,
            s.sub_ms_share * 100.0,
            s.gaps
        )),
        None => out.push_str(&format!("  {label}: (no gaps)\n")),
    }
}

/// ASCII artifact body.
pub fn render(r: &FleetSweepResult) -> String {
    let mut out = String::new();
    out.push_str("Fleet sweep: N mixed clients vs a shared AP and a 4-server pool\n");
    out.push_str(
        "(bounded service queues; RATE kisses under load; steady-state = 2nd half)\n\n",
    );
    for t in &r.trials {
        out.push_str(&format!(
            "N={} clients, {} s, {} polls sent\n",
            t.n_clients, t.duration_secs, t.polls_sent
        ));
        out.push_str(&format!(
            "  server side: {} arrivals ({:.2}/s mean, {} peak/s), {} served, {} RATE, {} dropped, peak backlog {}\n",
            t.arrivals, t.mean_rate, t.peak_rate, t.served, t.kod, t.dropped, t.peak_backlog
        ));
        out.push_str(&format!(
            "  {:<16} {:>7} {:>12} {:>10} {:>10} {:>10}\n",
            "stack", "clients", "p50|err|ms", "p90 ms", "p99 ms", "max ms"
        ));
        for a in &t.arms {
            out.push_str(&format!(
                "  {:<16} {:>7} {:>12.2} {:>10.2} {:>10.2} {:>10.2}\n",
                a.name, a.clients, a.p50_ms, a.p90_ms, a.p99_ms, a.max_ms
            ));
        }
        out.push('\n');
    }
    let l = &r.log;
    out.push_str(&format!(
        "Server-log analysis of the N={} trial (simulated capture -> 3.1 pipeline)\n",
        l.n_clients
    ));
    out.push_str(&format!(
        "  {} records from {} distinct clients; packet-shape SNTP share {:.1}%\n",
        l.records,
        l.clients_seen,
        l.sntp_share * 100.0
    ));
    render_summary("global inter-arrival (herding view)", &l.global, &mut out);
    render_summary("per-client inter-arrival (poll view)", &l.per_client, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_trial_reports_all_three_stacks() {
        let (row, _) = fleet_trial(10, 77, 120, false, 1);
        assert_eq!(row.n_clients, 10);
        assert_eq!(row.arms.len(), 3);
        assert_eq!(row.arms.iter().map(|a| a.clients).sum::<usize>(), 10);
        assert!(row.arrivals > 0);
    }

    #[test]
    fn trial_is_deterministic() {
        let (a, _) = fleet_trial(12, 5, 90, false, 1);
        let (b, _) = fleet_trial(12, 5, 90, false, 1);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn collected_log_feeds_pipeline() {
        let (_, arrivals) = fleet_trial(20, 9, 180, true, 1);
        assert!(!arrivals.is_empty());
        let analysis = analyze_log(20, &arrivals);
        assert!(analysis.records == arrivals.len());
        assert!(analysis.clients_seen > 0 && analysis.clients_seen <= 20);
        // Mix is 7/10 SNTP-shaped (naive + MNTP) and the classifier
        // votes per client: the share must reflect a majority of SNTP.
        assert!(analysis.sntp_share > 0.5);
    }

    #[test]
    fn render_mentions_every_trial() {
        // Miniature sweep through the public entry point shape.
        let (row1, _) = fleet_trial(1, 3, 60, false, 1);
        let (row2, arr) = fleet_trial(8, 3, 60, true, 1);
        let r = FleetSweepResult {
            trials: vec![row1, row2],
            log: analyze_log(8, &arr),
        };
        let txt = render(&r);
        assert!(txt.contains("N=1 clients"));
        assert!(txt.contains("N=8 clients"));
        assert!(txt.contains("SNTP share"));
    }
}
