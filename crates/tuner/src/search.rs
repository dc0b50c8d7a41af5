//! The tuner's search component: sweep the four MNTP parameters.
//!
//! "When provided with a range of values for the input parameters […]
//! the search component generates all possible values of the parameters
//! and invokes the emulator for each generated combination", then ranks
//! configurations by RMSE of the reported offsets against a perfectly
//! synchronized clock (§5.3). Combinations are independent, so the sweep
//! fans out over the [`devtools::par`] pool, whose workers share one
//! queue: a slow parameter combination (long warmup ⇒ many emulated
//! exchanges) does not idle a whole chunk's worth of siblings, and the
//! order-preserving map plus a stable sort keeps the ranking
//! byte-identical to the serial sweep at any `MNTP_JOBS`.

use devtools::par::Pool;
use mntp::MntpConfig;

use crate::emulator::{emulate, EmulationResult};
use crate::trace::Trace;

/// Value grids for the four Algorithm 1 parameters, in **minutes**
/// (matching the paper's Table 2 units).
#[derive(Clone, Debug)]
pub struct ParamGrid {
    /// `warmupPeriod` candidates.
    pub warmup_period_min: Vec<f64>,
    /// `warmupWaitTime` candidates.
    pub warmup_wait_min: Vec<f64>,
    /// `regularWaitTime` candidates.
    pub regular_wait_min: Vec<f64>,
    /// `resetPeriod` candidates.
    pub reset_period_min: Vec<f64>,
}

impl ParamGrid {
    /// The grid spanning the paper's Table 2 configurations.
    pub fn paper_table2() -> Self {
        ParamGrid {
            warmup_period_min: vec![30.0, 40.0, 50.0, 70.0, 90.0, 240.0],
            warmup_wait_min: vec![0.084, 0.25],
            regular_wait_min: vec![15.0, 30.0],
            reset_period_min: vec![240.0],
        }
    }

    /// All combinations, row-major.
    pub fn combinations(&self) -> Vec<(f64, f64, f64, f64)> {
        let mut out = Vec::new();
        for &wp in &self.warmup_period_min {
            for &ww in &self.warmup_wait_min {
                for &rw in &self.regular_wait_min {
                    for &rp in &self.reset_period_min {
                        out.push((wp, ww, rw, rp));
                    }
                }
            }
        }
        out
    }
}

/// One ranked configuration.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// `(warmupPeriod, warmupWaitTime, regularWaitTime, resetPeriod)`,
    /// minutes.
    pub params: (f64, f64, f64, f64),
    /// RMSE of corrected offsets vs a perfect clock, ms.
    pub rmse_ms: f64,
    /// Requests the configuration emitted over the trace.
    pub requests: u64,
    /// Full emulation output.
    pub result: EmulationResult,
}

/// Run the grid search over `trace`, ranked best (lowest RMSE) first.
/// `base` supplies every non-swept configuration field. Fans out over a
/// pool sized from `MNTP_JOBS` / the machine; see [`grid_search_on`].
pub fn grid_search(base: &MntpConfig, grid: &ParamGrid, trace: &Trace) -> Vec<SearchResult> {
    grid_search_on(&Pool::from_env(), base, grid, trace)
}

/// [`grid_search`] over an explicit pool. The combination→result map
/// preserves grid order and the rank sort is stable, so the returned
/// ranking is byte-identical for every worker count.
pub fn grid_search_on(
    pool: &Pool,
    base: &MntpConfig,
    grid: &ParamGrid,
    trace: &Trace,
) -> Vec<SearchResult> {
    let mut results = pool.map(grid.combinations(), |(wp, ww, rw, rp)| {
        let cfg = MntpConfig {
            warmup_period_secs: wp * 60.0,
            warmup_wait_secs: ww * 60.0,
            regular_wait_secs: rw * 60.0,
            reset_period_secs: rp * 60.0,
            ..base.clone()
        };
        let result = emulate(&cfg, trace);
        SearchResult {
            params: (wp, ww, rw, rp),
            rmse_ms: result.rmse_ms(),
            requests: result.requests,
            result,
        }
    });
    results.sort_by(|a, b| a.rmse_ms.partial_cmp(&b.rmse_ms).expect("no NaN rmse"));
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRow;
    use netsim::WirelessHints;

    fn trace() -> Trace {
        let mut rows = Vec::new();
        let mut t = 0.0;
        let mut i = 0usize;
        while t <= 4.0 * 3600.0 {
            let o = -0.04 * t + [(0.6), (-0.5), (0.3), (-0.2)][i % 4];
            let spike = if i % 13 == 12 { 300.0 } else { 0.0 };
            rows.push(TraceRow {
                t_secs: t,
                hints: Some(WirelessHints { rssi_dbm: -62.0, noise_dbm: -91.0 }),
                offsets_ms: vec![Some(o + spike), Some(o + 0.2), Some(o - 0.2)],
            });
            t += 5.0;
            i += 1;
        }
        Trace { rows, interval_secs: 5.0 }
    }

    #[test]
    fn grid_combinations_cartesian() {
        let g = ParamGrid {
            warmup_period_min: vec![10.0, 20.0],
            warmup_wait_min: vec![0.25],
            regular_wait_min: vec![5.0, 15.0],
            reset_period_min: vec![240.0],
        };
        assert_eq!(g.combinations().len(), 4);
    }

    #[test]
    fn search_ranks_by_rmse_and_is_complete() {
        let g = ParamGrid {
            warmup_period_min: vec![10.0, 60.0],
            warmup_wait_min: vec![0.25, 1.0],
            regular_wait_min: vec![15.0],
            reset_period_min: vec![240.0],
        };
        let results = grid_search(&MntpConfig::default(), &g, &trace());
        assert_eq!(results.len(), 4);
        for w in results.windows(2) {
            assert!(w[0].rmse_ms <= w[1].rmse_ms);
        }
    }

    #[test]
    fn more_requests_generally_better() {
        let g = ParamGrid {
            warmup_period_min: vec![10.0, 120.0],
            warmup_wait_min: vec![0.25],
            regular_wait_min: vec![15.0],
            reset_period_min: vec![240.0],
        };
        let results = grid_search(&MntpConfig::default(), &g, &trace());
        let short = results.iter().find(|r| r.params.0 == 10.0).unwrap();
        let long = results.iter().find(|r| r.params.0 == 120.0).unwrap();
        assert!(long.requests > short.requests);
        assert!(long.rmse_ms <= short.rmse_ms + 1.0, "long={} short={}", long.rmse_ms, short.rmse_ms);
    }

    #[test]
    fn ranking_identical_across_worker_counts() {
        // The determinism contract: serial (jobs=1) and heavily
        // oversubscribed (jobs=8) sweeps must produce the same ranking
        // with bitwise-equal statistics.
        let g = ParamGrid::paper_table2();
        let tr = trace();
        let fingerprint = |pool: &Pool| -> Vec<(u64, u64, (f64, f64, f64, f64))> {
            grid_search_on(pool, &MntpConfig::default(), &g, &tr)
                .into_iter()
                .map(|r| (r.rmse_ms.to_bits(), r.requests, r.params))
                .collect()
        };
        let serial = fingerprint(&Pool::with_jobs(1));
        assert_eq!(fingerprint(&Pool::with_jobs(8)), serial);
        assert_eq!(fingerprint(&Pool::with_jobs(3)), serial);
    }

    #[test]
    fn deterministic_despite_threads() {
        let g = ParamGrid::paper_table2();
        let tr = trace();
        let a: Vec<(u64, i64)> = grid_search(&MntpConfig::default(), &g, &tr)
            .into_iter()
            .map(|r| (r.requests, (r.rmse_ms * 1e6) as i64))
            .collect();
        let b: Vec<(u64, i64)> = grid_search(&MntpConfig::default(), &g, &tr)
            .into_iter()
            .map(|r| (r.requests, (r.rmse_ms * 1e6) as i64))
            .collect();
        assert_eq!(a, b);
    }
}
