//! The committed `results/*.txt` artifacts are what the code produces.
//!
//! Regenerates the 22 single-device and log-analysis artifacts and the
//! server-core ingest artifact at the full horizons `repro` uses by
//! default and requires each to equal its committed copy byte for byte,
//! so a behaviour change cannot land with stale figures. The server-core
//! run takes under a second on a release build and a few seconds on a
//! debug one. The fleet, chaos-fleet and full-scale artifacts take
//! minutes; they are regenerated with
//! `cargo run --release -p experiments --bin repro -- fleet chaosfleet fullscale`.

use std::path::Path;

use experiments::repro;

/// The minutes-long pipelines this test leaves out.
const HEAVY: [&str; 3] = ["fleet", "fullscale", "chaosfleet"];

#[test]
fn cheap_artifacts_match_committed_results() {
    // lint:allow(no-env) — OS scratch dir for throwaway test output; its location never reaches an artifact
    let out_dir = std::env::temp_dir().join("mntp_committed_artifacts");
    let _ = std::fs::remove_dir_all(&out_dir);
    let mut ids = repro::expected_ids(false);
    ids.retain(|id| !HEAVY.contains(id));
    assert_eq!(ids.len(), 23);
    // `repro` selects the `validation_*` and `extended_*` artifacts by
    // their prefix.
    let mut selected: Vec<String> =
        ids.iter().map(|id| id.split('_').next().unwrap_or(id).to_string()).collect();
    selected.dedup();
    let opts = repro::Options {
        quick: false,
        selected,
        out_dir: out_dir.clone(),
        jobs: None,
        print: false,
    };
    let report = repro::run(&opts);
    assert!(report.write_failures.is_empty(), "write failures: {:?}", report.write_failures);
    let written: Vec<&str> = report.written.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(written, ids);

    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let read = |dir: &Path, id: &str| {
        let path = dir.join(format!("{id}.txt"));
        std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    let stale: Vec<&str> =
        written.into_iter().filter(|id| read(&out_dir, id) != read(&committed, id)).collect();
    let _ = std::fs::remove_dir_all(&out_dir);
    assert!(
        stale.is_empty(),
        "results/ no longer matches the code for {stale:?} — regenerate with \
         `cargo run --release -p experiments --bin repro -- <selector>` and review the diff"
    );
}
