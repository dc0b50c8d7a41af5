//! Assemble the paper's §3.1 artifacts: Table 1, Figure 1, Figure 2.

use std::collections::BTreeSet;

use clocksim::stats::{ecdf, Summary};

use crate::classify::{classify_hostname, HostClass};
use crate::model::{ServerProfile, PROVIDERS, SERVERS};
use crate::owd::{extract_owds, ClientOwds, OwdFilter};
use crate::protocol::{classify_clients, Protocol};
use crate::synth::{generate_server_log, ServerLog, SynthConfig};

/// Generate all nineteen logs (one per Table 1 server).
pub fn generate_all_logs(cfg: &SynthConfig, seed: u64) -> Vec<ServerLog> {
    SERVERS
        .iter()
        .enumerate()
        .map(|(i, s)| generate_server_log(s, cfg, seed.wrapping_add(i as u64 * 7919)))
        .collect()
}

/// One row of the reproduced Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Server profile (paper-side identity and full-scale counts).
    pub server: ServerProfile,
    /// Unique clients in the synthetic (scaled) log.
    pub observed_clients: u64,
    /// Measurements in the synthetic log.
    pub observed_measurements: u64,
}

/// Build Table 1 from generated logs.
pub fn table1(logs: &[ServerLog]) -> Vec<Table1Row> {
    logs.iter()
        .map(|log| Table1Row {
            server: log.server,
            observed_clients: log.unique_clients,
            observed_measurements: log.records.len() as u64,
        })
        .collect()
}

/// Each client with its provider index by the hostname heuristic, in
/// order of first appearance (first record wins; hostnames are stable
/// per client). Clients the heuristic places in no provider are
/// skipped.
fn client_providers(log: &ServerLog) -> impl Iterator<Item = (u32, usize)> + '_ {
    let mut seen = BTreeSet::new();
    log.records.iter().filter(move |r| seen.insert(r.client_id)).filter_map(|r| {
        match classify_hostname(&r.hostname) {
            HostClass::Provider(p) => Some((r.client_id, p)),
            _ => None,
        }
    })
}

/// One provider's min-OWD distribution at one server (Figure 1).
#[derive(Clone, Debug)]
pub struct Figure1Row {
    /// Provider label ("SP n").
    pub provider: &'static str,
    /// Category description.
    pub category: crate::model::ProviderCategory,
    /// Number of clients with a surviving minimum OWD.
    pub clients: usize,
    /// Summary of per-client minimum OWDs, ms.
    pub min_owd: Summary,
    /// Empirical CDF points of per-client minimum OWDs.
    pub cdf: Vec<(f64, f64)>,
}

/// Build the Figure 1 rows for one server's log: classify clients into
/// providers by hostname, extract filtered OWDs, and summarize each
/// provider's per-client minimum OWD.
pub fn figure1(log: &ServerLog, filter: &OwdFilter) -> Vec<Figure1Row> {
    let owds = extract_owds(log, filter);
    let mut per_provider: Vec<Vec<f64>> = vec![Vec::new(); PROVIDERS.len()];
    for (client, p) in client_providers(log) {
        let min = owds.get(&client).and_then(ClientOwds::min_owd_ms);
        if let (Some(bucket), Some(min)) = (per_provider.get_mut(p), min) {
            bucket.push(min);
        }
    }
    per_provider
        .into_iter()
        .zip(PROVIDERS.iter())
        .map(|(mins, provider)| Figure1Row {
            provider: provider.name,
            category: provider.category,
            clients: mins.len(),
            min_owd: Summary::of(&mins),
            cdf: ecdf(&mins),
        })
        .collect()
}

/// SNTP/NTP share at one server (Figure 2, left).
#[derive(Clone, Debug)]
pub struct Figure2Row {
    /// Server id.
    pub server_id: &'static str,
    /// Fraction of clients classified SNTP.
    pub sntp_fraction: f64,
    /// Clients observed.
    pub clients: usize,
}

/// Build Figure 2 (left): per-server SNTP share.
pub fn figure2(logs: &[ServerLog]) -> Vec<Figure2Row> {
    logs.iter()
        .map(|log| {
            let classes = classify_clients(log);
            let sntp =
                classes.values().filter(|p| **p == Protocol::Sntp).count() as f64;
            Figure2Row {
                server_id: log.server.id,
                sntp_fraction: if classes.is_empty() { 0.0 } else { sntp / classes.len() as f64 },
                clients: classes.len(),
            }
        })
        .collect()
}

/// Figure 2 (right): per-provider SNTP share at one server.
pub fn figure2_providers(log: &ServerLog) -> Vec<(&'static str, f64, usize)> {
    let classes = classify_clients(log);
    let mut counts: Vec<(u32, u32)> = vec![(0, 0); PROVIDERS.len()];
    for (client, p) in client_providers(log) {
        let (Some(tally), Some(protocol)) = (counts.get_mut(p), classes.get(&client)) else {
            continue;
        };
        match protocol {
            Protocol::Sntp => tally.0 += 1,
            Protocol::Ntp => tally.1 += 1,
        }
    }
    counts
        .into_iter()
        .zip(PROVIDERS.iter())
        .map(|((s, n), provider)| {
            let total = s + n;
            let frac = if total == 0 { 0.0 } else { s as f64 / total as f64 };
            (provider.name, frac, total as usize)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProviderCategory;

    fn logs() -> Vec<ServerLog> {
        generate_all_logs(&SynthConfig { scale: 20_000, duration_secs: 86_400 }, 1)
    }

    #[test]
    fn table1_has_19_rows_with_scaled_counts() {
        let t = table1(&logs());
        assert_eq!(t.len(), 19);
        for row in &t {
            assert!(row.observed_clients >= 5);
            assert!(row.observed_measurements >= row.observed_clients);
        }
        // Biggest server (MW2) dominates, as in the paper.
        let mw2 = t.iter().find(|r| r.server.id == "MW2").unwrap();
        let ci1 = t.iter().find(|r| r.server.id == "CI1").unwrap();
        assert!(mw2.observed_clients > 50 * ci1.observed_clients.min(10));
    }

    #[test]
    fn figure1_reproduces_latency_ordering() {
        // Use a large public server for population size.
        let cfg = SynthConfig { scale: 5_000, duration_secs: 86_400 };
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        let log = generate_server_log(ag1, &cfg, 2);
        let rows = figure1(&log, &OwdFilter::default());
        let med = |cat: ProviderCategory| {
            let vals: Vec<f64> = rows
                .iter()
                .filter(|r| r.category == cat && r.clients >= 3)
                .map(|r| r.min_owd.median)
                .collect();
            clocksim::stats::mean(&vals)
        };
        let cloud = med(ProviderCategory::CloudHosting);
        let mobile = med(ProviderCategory::Mobile);
        let broadband = med(ProviderCategory::Broadband);
        assert!(cloud < broadband, "cloud={cloud} broadband={broadband}");
        assert!(broadband < mobile, "broadband={broadband} mobile={mobile}");
        assert!(mobile > 300.0, "mobile median {mobile}");
    }

    #[test]
    fn figure2_majority_sntp_except_isp_internal() {
        let rows = figure2(&logs());
        // Tiny populations (the ISP-internal servers have only a handful
        // of clients at this scale) are too noisy for a share assertion;
        // the dedicated test in `synth` covers them at finer scale.
        for r in rows.iter().filter(|r| r.clients >= 20) {
            let internal = SERVERS.iter().find(|s| s.id == r.server_id).unwrap().isp_internal;
            if internal {
                assert!(r.sntp_fraction < 0.5, "{} frac {}", r.server_id, r.sntp_fraction);
            } else {
                assert!(r.sntp_fraction > 0.5, "{} frac {}", r.server_id, r.sntp_fraction);
            }
        }
    }

    #[test]
    fn figure2_mobile_providers_over_95_percent() {
        let cfg = SynthConfig { scale: 2_000, duration_secs: 86_400 };
        let su1 = SERVERS.iter().find(|s| s.id == "SU1").unwrap();
        // SU1 is small; use MW2 for population and check the provider split.
        let mw2 = SERVERS.iter().find(|s| s.id == "MW2").unwrap();
        let _ = su1;
        let log = generate_server_log(mw2, &cfg, 3);
        let rows = figure2_providers(&log);
        for (name, frac, n) in rows {
            let cat = PROVIDERS.iter().find(|p| p.name == name).unwrap().category;
            if cat == ProviderCategory::Mobile && n >= 30 {
                assert!(frac > 0.9, "{name}: {frac} over {n} clients");
            }
        }
    }

    #[test]
    fn figure1_cdf_shapes() {
        let cfg = SynthConfig { scale: 5_000, duration_secs: 86_400 };
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        let log = generate_server_log(ag1, &cfg, 4);
        let rows = figure1(&log, &OwdFilter::default());
        for r in rows.iter().filter(|r| r.clients >= 5) {
            // CDFs are monotone and end at 1.
            assert!((r.cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
            for w in r.cdf.windows(2) {
                assert!(w[0].0 <= w[1].0);
            }
        }
    }
}
