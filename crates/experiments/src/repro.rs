//! The `repro` orchestrator: regenerate every table and figure of the
//! paper, fanning independent pipelines out over the `devtools::par` pool.
//!
//! Each paper artifact is produced by a *task* — an independent trial
//! (or family of trials) that owns all of its RNG streams and returns
//! `(id, body)` pairs. Tasks run concurrently on [`devtools::par`], but
//! every `emit` is **buffered**: bodies are printed and written strictly
//! in the fixed task order after the fleet drains, so stdout and
//! `results/*.txt` are byte-identical at any `--jobs` / `MNTP_JOBS`
//! setting (`--jobs 1` *is* the serial loop).
//!
//! Result-write failures do not abort the run (later artifacts still
//! regenerate) but are collected into the returned [`Report`] — the
//! binary exits nonzero if any artifact failed to land, so CI cannot go
//! green with missing figures.

use std::fs;
use std::path::{Path, PathBuf};

use devtools::par::Pool;

use crate::*;

/// Parsed command line of the `repro` binary.
#[derive(Clone, Debug)]
pub struct Options {
    /// Short horizons (`--quick`): 15-minute hours, skip the 4-hour and
    /// tuner pipelines.
    pub quick: bool,
    /// Artifact ids or groups (`validation`, `extended`) to produce;
    /// empty = everything.
    pub selected: Vec<String>,
    /// Output directory for `<id>.txt` artifacts.
    pub out_dir: PathBuf,
    /// Worker override (`--jobs N`); `None` defers to `MNTP_JOBS` / the
    /// machine's core count.
    pub jobs: Option<usize>,
    /// Suppress the per-artifact stdout dump (tests).
    pub print: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            quick: false,
            selected: Vec::new(),
            out_dir: PathBuf::from("results"),
            jobs: None,
            print: true,
        }
    }
}

impl Options {
    /// Parse the binary's arguments (everything after `argv[0]`).
    pub fn from_args(args: &[String]) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => opts.quick = true,
                "--jobs" | "-j" => {
                    let v = it.next().ok_or("--jobs requires a positive integer argument")?;
                    let n: usize =
                        v.parse().map_err(|_| format!("invalid --jobs value {v:?}"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                    opts.jobs = Some(n);
                }
                "--out" => {
                    let v = it.next().ok_or("--out requires a directory argument")?;
                    opts.out_dir = PathBuf::from(v);
                }
                other if !other.starts_with('-') => {
                    if !expected_ids(false).iter().any(|id| *id == other || group(id) == other) {
                        return Err(format!("unknown artifact or group: {other}"));
                    }
                    opts.selected.push(other.to_string());
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }

    /// Whether artifact `id` is selected, by its id or by its group.
    fn want(&self, id: &str) -> bool {
        self.selected.is_empty() || self.selected.iter().any(|s| s == id || s == group(id))
    }

    fn hour(&self) -> u64 {
        if self.quick {
            900
        } else {
            3600
        }
    }
}

/// What a finished run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// `(artifact id, file path)` for every artifact written, in emit
    /// order.
    pub written: Vec<(String, PathBuf)>,
    /// `(artifact id, error)` for every artifact whose file write
    /// failed.
    pub write_failures: Vec<(String, String)>,
}

/// The group of artifact `id`: the part before its `_`
/// (`validation_drift` → `validation`), or the whole id.
fn group(id: &str) -> &str {
    id.split_once('_').map_or(id, |(g, _)| g)
}

/// The artifact ids a full (non-quick) run produces, in emit order.
/// `--quick` drops `fig12`, `table2`, and `fig11`.
pub fn expected_ids(quick: bool) -> Vec<&'static str> {
    let mut ids = vec![
        "table1", "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    ];
    if !quick {
        ids.extend(["fig12", "table2", "fig11"]);
    }
    ids.extend([
        "validation_drift",
        "validation_temperature",
        "ablations",
        "extended_threeway",
        "extended_vendor",
        "extended_huffpuff",
        "extended_autotune",
        "extended_scenarios",
        "faultsweep",
        "fleet",
        "fullscale",
        "servercore",
        "chaosfleet",
    ]);
    ids
}

/// Fixed seeds: EXPERIMENTS.md numbers regenerate from exactly these.
const SEED: u64 = 2016;

type Task<'a> = Box<dyn FnOnce() -> Vec<(&'static str, String)> + Send + 'a>;

/// Run the selected experiments and write `results/<id>.txt` artifacts.
pub fn run(opts: &Options) -> Report {
    let pool = opts.jobs.map(Pool::with_jobs).unwrap_or_else(Pool::from_env);
    let quick = opts.quick;
    let hour = opts.hour();

    // One task per independent pipeline, in the fixed emit order. Each
    // closure owns its inputs; nothing is shared, so the fleet order
    // cannot leak into the output.
    let mut tasks: Vec<Task<'_>> = Vec::new();
    if opts.want("table1") {
        let scale = if quick { 20_000 } else { 1_000 };
        tasks.push(Box::new(move || {
            vec![("table1", table1::render(&table1::run(SEED, scale)))]
        }));
    }
    if opts.want("fig1") {
        let scale = if quick { 10_000 } else { 2_000 };
        tasks.push(Box::new(move || vec![("fig1", fig1::render(&fig1::run(SEED, scale)))]));
    }
    if opts.want("fig2") {
        let scale = if quick { 10_000 } else { 2_000 };
        tasks.push(Box::new(move || vec![("fig2", fig2::render(&fig2::run(SEED, scale)))]));
    }
    if opts.want("fig4") {
        tasks.push(Box::new(move || vec![("fig4", fig4::render(&fig4::run(SEED, hour)))]));
    }
    if opts.want("fig5") {
        let d = if quick { 1800 } else { 3 * 3600 };
        tasks.push(Box::new(move || vec![("fig5", fig5::render(&fig5::run(SEED, d)))]));
    }
    if opts.want("fig6") {
        tasks.push(Box::new(move || vec![("fig6", fig6::render(&fig6::run(SEED, hour)))]));
    }
    if opts.want("fig7") {
        tasks.push(Box::new(move || vec![("fig7", fig7::render(&fig7::run(SEED, hour)))]));
    }
    if opts.want("fig8") {
        tasks.push(Box::new(move || vec![("fig8", fig8::render(&fig8::run(SEED, hour)))]));
    }
    if opts.want("fig9") {
        tasks.push(Box::new(move || {
            vec![("fig9", fig9and10::render_fig9(&fig9and10::run(SEED, hour, true)))]
        }));
    }
    if opts.want("fig10") {
        tasks.push(Box::new(move || {
            vec![("fig10", fig9and10::render_fig10(&fig9and10::run(SEED, hour, false)))]
        }));
    }
    if opts.want("fig12") && !quick {
        tasks.push(Box::new(move || vec![("fig12", fig12::render(&fig12::run(SEED)))]));
    }
    if (opts.want("table2") || opts.want("fig11")) && !quick {
        let want_t2 = opts.want("table2");
        let want_f11 = opts.want("fig11");
        tasks.push(Box::new(move || {
            let t2 = table2::run(SEED);
            let mut out = Vec::new();
            if want_t2 {
                out.push(("table2", table2::render(&t2)));
            }
            if want_f11 {
                out.push(("fig11", fig11::render(&fig11::run(&t2))));
            }
            out
        }));
    }
    if opts.want("validation_drift") {
        tasks.push(Box::new(move || {
            vec![(
                "validation_drift",
                validation::render_drift(&validation::drift_estimation_accuracy(SEED)),
            )]
        }));
    }
    if opts.want("validation_temperature") {
        tasks.push(Box::new(move || {
            vec![(
                "validation_temperature",
                validation::render_temperature(&validation::temperature_step(SEED)),
            )]
        }));
    }
    if opts.want("ablations") {
        let d = if quick { 1800 } else { 3600 };
        // The suite fans its 8 arms out itself; a serial inner pool here
        // keeps the worker budget at `jobs` overall.
        tasks.push(Box::new(move || {
            let inner = Pool::with_jobs(1);
            vec![("ablations", ablations::render_suite(&ablations::run_suite_on(&inner, SEED, d)))]
        }));
    }
    if opts.want("extended_threeway") {
        let d3 = if quick { 1800 } else { 2 * 3600 };
        tasks.push(Box::new(move || {
            let inner = Pool::with_jobs(1);
            vec![(
                "extended_threeway",
                extended::render_three_way(&extended::three_way_on(&inner, SEED, d3)),
            )]
        }));
    }
    if opts.want("extended_vendor") {
        let days = if quick { 1 } else { 3 };
        tasks.push(Box::new(move || {
            let inner = Pool::with_jobs(1);
            vec![(
                "extended_vendor",
                extended::render_vendor(&extended::vendor_policies_on(&inner, SEED, days)),
            )]
        }));
    }
    if opts.want("extended_huffpuff") {
        let dh = if quick { 1800 } else { 3600 };
        tasks.push(Box::new(move || {
            vec![(
                "extended_huffpuff",
                extended::render_huffpuff(&extended::huffpuff_comparison(SEED, dh)),
            )]
        }));
    }
    if opts.want("extended_autotune") {
        let da = if quick { 1800 } else { 2 * 3600 };
        tasks.push(Box::new(move || {
            let inner = Pool::with_jobs(1);
            vec![(
                "extended_autotune",
                extended::render_autotune(&extended::autotune_comparison_on(&inner, SEED, da)),
            )]
        }));
    }
    if opts.want("extended_scenarios") {
        let ds = if quick { 1800 } else { 3600 };
        tasks.push(Box::new(move || {
            let inner = Pool::with_jobs(1);
            vec![(
                "extended_scenarios",
                extended::render_scenarios(&extended::scenario_sweep_on(&inner, SEED, ds)),
            )]
        }));
    }

    if opts.want("faultsweep") {
        let d = if quick { 1800 } else { 5400 };
        // The sweep fans its 21 runs out itself; serial inner pool keeps
        // the worker budget at `jobs` overall.
        tasks.push(Box::new(move || {
            let inner = Pool::with_jobs(1);
            vec![(
                "faultsweep",
                faultsweep::render_sweep(&faultsweep::run_sweep_on(&inner, SEED, d)),
            )]
        }));
    }

    if opts.want("fleet") {
        // The sweep fans its per-size trials out itself; serial inner
        // pool keeps the worker budget at `jobs` overall.
        tasks.push(Box::new(move || {
            let inner = Pool::with_jobs(1);
            vec![("fleet", fleet::render(&fleet::run_sweep_on(&inner, SEED, quick)))]
        }));
    }

    if opts.want("fullscale") {
        let cfg =
            if quick { fullscale::FullScaleConfig::quick() } else { fullscale::FullScaleConfig::full() };
        let jobs = opts.jobs;
        // Unlike the simulation pipelines, this one is pure streaming
        // fan-out over generation chunks and is proven pool-invariant
        // (tests pin jobs=1 == jobs=8), so it gets the run's worker
        // budget: at full scale it is the heaviest single task and a
        // serial inner pool would leave the machine idle.
        tasks.push(Box::new(move || {
            let inner = jobs.map(Pool::with_jobs).unwrap_or_else(Pool::from_env);
            vec![("fullscale", fullscale::render(&fullscale::run_on(&inner, SEED, &cfg)))]
        }));
    }

    if opts.want("servercore") {
        // The harness drives the sharded engine itself; serial inner
        // pool keeps the worker budget at `jobs` overall (the artifact
        // is pool-invariant regardless).
        tasks.push(Box::new(move || {
            let inner = Pool::with_jobs(1);
            vec![("servercore", servercore::render(&servercore::run_on(&inner, SEED, quick)))]
        }));
    }

    if opts.want("chaosfleet") {
        // Three full-timeline replays (two arms + the serial lockstep
        // reference); serial inner pool keeps the worker budget at
        // `jobs` overall, and the result is pool-invariant regardless.
        tasks.push(Box::new(move || {
            let inner = Pool::with_jobs(1);
            vec![("chaosfleet", chaosfleet::render(&chaosfleet::run_on(&inner, SEED, quick)))]
        }));
    }

    // Fan out, then emit strictly in task order.
    let buffered = pool.invoke(tasks);
    let mut report = Report::default();
    if let Err(e) = fs::create_dir_all(&opts.out_dir) {
        report
            .write_failures
            .push(("<out dir>".into(), format!("create {}: {e}", opts.out_dir.display())));
    }
    for (id, body) in buffered.into_iter().flatten() {
        emit(opts, id, &body, &mut report);
    }
    report
}

fn emit(opts: &Options, id: &str, body: &str, report: &mut Report) {
    if opts.print {
        println!("\n=================== {id} ===================");
        println!("{body}");
    }
    let path = Path::new(&opts.out_dir).join(format!("{id}.txt"));
    match fs::write(&path, body) {
        Ok(()) => report.written.push((id.to_string(), path)),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            report.write_failures.push((id.to_string(), e.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_and_ids() {
        let args: Vec<String> =
            ["--quick", "fig6", "--jobs", "4", "fig8"].iter().map(|s| s.to_string()).collect();
        let o = Options::from_args(&args).unwrap();
        assert!(o.quick);
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.selected, vec!["fig6", "fig8"]);
        assert!(o.want("fig6") && o.want("fig8") && !o.want("fig12"));
        // One artifact of a group runs alone. The out dir sits below a
        // file, so nothing lands on disk: each artifact the run produced
        // shows up as a write failure instead.
        let o = Options {
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml").join("out"),
            jobs: Some(1),
            print: false,
            ..Options::from_args(&["validation_drift".to_string()]).unwrap()
        };
        let failures = run(&o).write_failures;
        let produced: Vec<&str> =
            failures.iter().map(|(id, _)| id.as_str()).filter(|id| *id != "<out dir>").collect();
        assert_eq!(produced, ["validation_drift"]);
        // A group selects each of its artifacts.
        let o = Options::from_args(&["extended".to_string()]).unwrap();
        assert!(o.want("extended_vendor") && o.want("extended_scenarios") && !o.want("fig6"));
    }

    #[test]
    fn args_reject_bad_jobs_and_unknown_flags() {
        let bad = |args: &[&str]| {
            Options::from_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert!(bad(&["--jobs"]).is_err());
        assert!(bad(&["--jobs", "0"]).is_err());
        assert!(bad(&["--jobs", "many"]).is_err());
        assert!(bad(&["--frobnicate"]).is_err());
        assert!(bad(&["fig3"]).is_err());
        assert!(bad(&["fig"]).is_err());
    }

    #[test]
    fn expected_ids_cover_quick_subset() {
        let full = expected_ids(false);
        let quick = expected_ids(true);
        assert_eq!(full.len(), quick.len() + 3);
        for id in ["fig12", "table2", "fig11"] {
            assert!(full.contains(&id) && !quick.contains(&id));
        }
        for id in &quick {
            assert!(full.contains(id));
        }
    }

    #[test]
    fn write_failure_is_reported_not_fatal() {
        // Point the out dir at a path that cannot be a directory.
        // lint:allow(no-env) — OS scratch dir for a write-failure test; its location never reaches an artifact
        let base = std::env::temp_dir().join("mntp_repro_unwritable");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let file_in_the_way = base.join("results");
        std::fs::write(&file_in_the_way, b"not a directory").unwrap();
        let opts = Options {
            quick: true,
            selected: vec!["fig6".into()],
            out_dir: file_in_the_way,
            jobs: Some(1),
            print: false,
        };
        let report = run(&opts);
        assert!(report.written.is_empty());
        assert!(!report.write_failures.is_empty());
        let _ = std::fs::remove_dir_all(&base);
    }
}
