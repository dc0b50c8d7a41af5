//! The determinism contract of `devtools::par`, checked end to end:
//! running the same workload serially (`jobs = 1`) and heavily
//! oversubscribed (`jobs = 8`, on any machine) must produce
//! **byte-identical** artifacts — the pool is an execution detail, never
//! an observable one.

use std::path::Path;

use devtools::par::Pool;
use experiments::repro;
use mntp::MntpConfig;
use netsim::WirelessHints;
use tuner::{grid_search_on, ParamGrid, Trace, TraceRow};

fn read_artifacts(dir: &Path, ids: &[&str]) -> Vec<(String, Vec<u8>)> {
    ids.iter()
        .map(|id| {
            let path = dir.join(format!("{id}.txt"));
            let body = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("missing artifact {}: {e}", path.display()));
            (id.to_string(), body)
        })
        .collect()
}

/// FNV-1a-64 of an artifact body: pins its bytes across commits, which
/// a serial-vs-parallel comparison within one build cannot do.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// One real figure pipeline through the `repro` orchestrator: the
/// written artifact bytes must not depend on the worker count.
#[test]
fn repro_artifacts_identical_serial_vs_parallel() {
    let ids = ["fig6", "ablations"];
    let run_with = |jobs: usize, tag: &str| -> Vec<(String, Vec<u8>)> {
        // lint:allow(no-env) — OS scratch dir for throwaway test output; its location never reaches an artifact
        let out_dir = std::env::temp_dir().join(format!("mntp_equiv_{tag}"));
        let _ = std::fs::remove_dir_all(&out_dir);
        let opts = repro::Options {
            quick: true,
            selected: ids.iter().map(|s| s.to_string()).collect(),
            out_dir: out_dir.clone(),
            jobs: Some(jobs),
            print: false,
        };
        let report = repro::run(&opts);
        assert!(report.write_failures.is_empty(), "write failures: {:?}", report.write_failures);
        let arts = read_artifacts(&out_dir, &ids);
        let _ = std::fs::remove_dir_all(&out_dir);
        arts
    };
    let serial = run_with(1, "serial");
    let parallel = run_with(8, "parallel");
    for ((id, a), (_, b)) in serial.iter().zip(parallel.iter()) {
        assert_eq!(a, b, "artifact {id}.txt differs between jobs=1 and jobs=8");
    }
}

/// The fault sweep drives every injected-fault scenario through three
/// protocol arms; its artifact (each arm's plan draws included) must be
/// byte-identical at any worker count.
#[test]
fn faultsweep_artifact_identical_serial_vs_parallel() {
    let ids = ["faultsweep"];
    let run_with = |jobs: usize, tag: &str| -> Vec<(String, Vec<u8>)> {
        // lint:allow(no-env) — OS scratch dir for throwaway test output; its location never reaches an artifact
        let out_dir = std::env::temp_dir().join(format!("mntp_equiv_faults_{tag}"));
        let _ = std::fs::remove_dir_all(&out_dir);
        let opts = repro::Options {
            quick: true,
            selected: ids.iter().map(|s| s.to_string()).collect(),
            out_dir: out_dir.clone(),
            jobs: Some(jobs),
            print: false,
        };
        let report = repro::run(&opts);
        assert!(report.write_failures.is_empty(), "write failures: {:?}", report.write_failures);
        let arts = read_artifacts(&out_dir, &ids);
        let _ = std::fs::remove_dir_all(&out_dir);
        arts
    };
    let serial = run_with(1, "serial");
    let parallel = run_with(8, "parallel");
    assert_eq!(
        serial[0].1, parallel[0].1,
        "faultsweep.txt differs between jobs=1 and jobs=8"
    );
}

/// The full-scale streaming pipeline fans generation chunks out over
/// the pool and folds their summaries in fixed (server, chunk) order;
/// the artifact — sketched quantiles included — must be byte-identical
/// between a serial run and a heavily oversubscribed one.
#[test]
fn fullscale_artifact_identical_serial_vs_parallel() {
    let ids = ["fullscale"];
    let run_with = |jobs: usize, tag: &str| -> Vec<(String, Vec<u8>)> {
        // lint:allow(no-env) — OS scratch dir for throwaway test output; its location never reaches an artifact
        let out_dir = std::env::temp_dir().join(format!("mntp_equiv_fullscale_{tag}"));
        let _ = std::fs::remove_dir_all(&out_dir);
        let opts = repro::Options {
            quick: true,
            selected: ids.iter().map(|s| s.to_string()).collect(),
            out_dir: out_dir.clone(),
            jobs: Some(jobs),
            print: false,
        };
        let report = repro::run(&opts);
        assert!(report.write_failures.is_empty(), "write failures: {:?}", report.write_failures);
        let arts = read_artifacts(&out_dir, &ids);
        let _ = std::fs::remove_dir_all(&out_dir);
        arts
    };
    let serial = run_with(1, "serial");
    let parallel = run_with(8, "parallel");
    assert_eq!(
        serial[0].1, parallel[0].1,
        "fullscale.txt differs between jobs=1 and jobs=8"
    );
}

/// The tuner's grid search: ranking, statistics, and bit patterns must
/// match between worker counts.
#[test]
fn grid_search_identical_serial_vs_parallel() {
    let mut rows = Vec::new();
    let mut t = 0.0;
    let mut i = 0usize;
    while t <= 2.0 * 3600.0 {
        let o = -0.03 * t + [0.4, -0.6, 0.2, -0.1][i % 4];
        let spike = if i % 17 == 16 { 250.0 } else { 0.0 };
        rows.push(TraceRow {
            t_secs: t,
            hints: Some(WirelessHints { rssi_dbm: -60.0, noise_dbm: -92.0 }),
            offsets_ms: vec![Some(o + spike), Some(o + 0.3), Some(o - 0.3)],
        });
        t += 5.0;
        i += 1;
    }
    let trace = Trace { rows, interval_secs: 5.0 };
    let grid = ParamGrid {
        warmup_period_min: vec![10.0, 30.0, 60.0],
        warmup_wait_min: vec![0.084, 0.25],
        regular_wait_min: vec![15.0],
        reset_period_min: vec![240.0],
    };
    let fingerprint = |jobs: usize| -> Vec<(u64, u64, (f64, f64, f64, f64))> {
        grid_search_on(&Pool::with_jobs(jobs), &MntpConfig::default(), &grid, &trace)
            .into_iter()
            .map(|r| (r.rmse_ms.to_bits(), r.requests, r.params))
            .collect()
    };
    let serial = fingerprint(1);
    assert!(!serial.is_empty());
    assert_eq!(fingerprint(8), serial, "jobs=8 diverged from the serial sweep");
}

/// The fleet sweep steps thousands of clients through one shared world
/// and feeds the collected server log through the analysis pipeline;
/// its artifact must be byte-identical at any worker count.
#[test]
fn fleet_artifact_identical_serial_vs_parallel() {
    let ids = ["fleet"];
    let run_with = |jobs: usize, tag: &str| -> Vec<(String, Vec<u8>)> {
        // lint:allow(no-env) — OS scratch dir for throwaway test output; its location never reaches an artifact
        let out_dir = std::env::temp_dir().join(format!("mntp_equiv_fleet_{tag}"));
        let _ = std::fs::remove_dir_all(&out_dir);
        let opts = repro::Options {
            quick: true,
            selected: ids.iter().map(|s| s.to_string()).collect(),
            out_dir: out_dir.clone(),
            jobs: Some(jobs),
            print: false,
        };
        let report = repro::run(&opts);
        assert!(report.write_failures.is_empty(), "write failures: {:?}", report.write_failures);
        let arts = read_artifacts(&out_dir, &ids);
        let _ = std::fs::remove_dir_all(&out_dir);
        arts
    };
    let serial = run_with(1, "serial");
    let parallel = run_with(8, "parallel");
    assert_eq!(serial[0].1, parallel[0].1, "fleet.txt differs between jobs=1 and jobs=8");
    assert_eq!(fnv1a64(&serial[0].1), 0x0753_2732_79a0_29f8, "quick fleet.txt bytes changed");
}

/// The server-core ingest harness: its artifact folds in a lockstep
/// serial-vs-sharded engine comparison over every batch, and the
/// rendered bytes (traffic shape, fates, the equality verdict) must not
/// depend on the worker count driving the sharded engine. The digest
/// pins those bytes across commits: all three servers judge RATE through
/// one `Admission`, so a rate-table change that moves them alike passes
/// every cross-server comparison but not this pin.
#[test]
fn servercore_artifact_identical_serial_vs_parallel() {
    let ids = ["servercore"];
    let run_with = |jobs: usize, tag: &str| -> Vec<(String, Vec<u8>)> {
        // lint:allow(no-env) — OS scratch dir for throwaway test output; its location never reaches an artifact
        let out_dir = std::env::temp_dir().join(format!("mntp_equiv_servercore_{tag}"));
        let _ = std::fs::remove_dir_all(&out_dir);
        let opts = repro::Options {
            quick: true,
            selected: ids.iter().map(|s| s.to_string()).collect(),
            out_dir: out_dir.clone(),
            jobs: Some(jobs),
            print: false,
        };
        let report = repro::run(&opts);
        assert!(report.write_failures.is_empty(), "write failures: {:?}", report.write_failures);
        let arts = read_artifacts(&out_dir, &ids);
        let _ = std::fs::remove_dir_all(&out_dir);
        arts
    };
    let serial = run_with(1, "serial");
    let parallel = run_with(8, "parallel");
    assert_eq!(
        serial[0].1, parallel[0].1,
        "servercore.txt differs between jobs=1 and jobs=8"
    );
    assert_eq!(fnv1a64(&serial[0].1), 0x4740_dd58_6f1f_865c, "quick servercore.txt bytes changed");
    let body = String::from_utf8_lossy(&serial[0].1).into_owned();
    assert!(
        body.contains("== serial reply stream: yes"),
        "lockstep engine comparison failed:\n{body}"
    );
}

/// The sharded fleet runner itself: one trial's shards ticked by
/// one worker vs. many must agree on every statistic and on the raw
/// server-side arrival log, byte for byte. (The artifact test above
/// parallelizes across trials; this one parallelizes inside a trial.)
#[test]
fn fleet_trial_identical_serial_vs_sharded_parallel() {
    let fingerprint = |jobs: usize| {
        let (row, arrivals) = experiments::fleet::fleet_trial(600, 41, 120, true, jobs);
        let log: Vec<(u32, usize, i64, bool, bool, Vec<u8>)> = arrivals
            .into_iter()
            .map(|a| (a.client_id, a.server_id, a.at.as_nanos(), a.dropped, a.kod, a.request))
            .collect();
        (format!("{row:?}"), log)
    };
    let serial = fingerprint(1);
    assert!(!serial.1.is_empty(), "trial produced no arrivals");
    assert_eq!(fingerprint(4), serial, "jobs=4 diverged from the serial trial");
    assert_eq!(fingerprint(8), serial, "jobs=8 diverged from the serial trial");
}

/// The chaos fleet replays a deterministic fault timeline (loss storm,
/// server blackhole, falseticker, clock-step wave) over a shared world;
/// the artifact — which embeds its own serial-vs-sharded lockstep
/// verdict — must be byte-identical at any worker count.
#[test]
fn chaos_artifact_identical_serial_vs_parallel() {
    let ids = ["chaosfleet"];
    let run_with = |jobs: usize, tag: &str| -> Vec<(String, Vec<u8>)> {
        // lint:allow(no-env) — OS scratch dir for throwaway test output; its location never reaches an artifact
        let out_dir = std::env::temp_dir().join(format!("mntp_equiv_chaos_{tag}"));
        let _ = std::fs::remove_dir_all(&out_dir);
        let opts = repro::Options {
            quick: true,
            selected: ids.iter().map(|s| s.to_string()).collect(),
            out_dir: out_dir.clone(),
            jobs: Some(jobs),
            print: false,
        };
        let report = repro::run(&opts);
        assert!(report.write_failures.is_empty(), "write failures: {:?}", report.write_failures);
        let arts = read_artifacts(&out_dir, &ids);
        let _ = std::fs::remove_dir_all(&out_dir);
        arts
    };
    let serial = run_with(1, "serial");
    let parallel = run_with(8, "parallel");
    assert_eq!(
        serial[0].1, parallel[0].1,
        "chaosfleet.txt differs between jobs=1 and jobs=8"
    );
    assert_eq!(
        fnv1a64(&serial[0].1),
        0xc6f5_26d2_0e77_b300,
        "quick chaosfleet.txt bytes changed"
    );
    let body = String::from_utf8_lossy(&serial[0].1).into_owned();
    assert!(
        body.contains("matches sharded run: yes"),
        "in-artifact serial replay check failed:\n{body}"
    );
}
