//! A criterion-free micro/figure/ablation benchmark harness.
//!
//! Each suite is a plain `[[bin]]` target: it registers benchmarks, the
//! harness warms each one up, calibrates how many iterations fit in one
//! sample, collects timing samples, and writes machine-readable JSON
//! (mean / p50 / p99 / min / max / stddev per benchmark) to
//! `results/bench/BENCH_<suite>.json`, printing a human summary as it
//! goes.
//!
//! ```no_run
//! use devtools::bench::Suite;
//! use std::hint::black_box;
//!
//! let mut suite = Suite::from_args("micro");
//! suite.bench("sum_1k", |b| b.iter(|| (0..1000u64).map(black_box).sum::<u64>()));
//! suite.finish().expect("write bench json");
//! ```
//!
//! CLI of every suite binary: `[FILTER] [--quick] [--out DIR]` —
//! `FILTER` keeps only benchmarks whose name contains the substring,
//! `--quick` cuts warmup/samples for smoke runs (env `BENCH_QUICK=1`
//! does the same), `--out` redirects the JSON (env `BENCH_OUT`).

use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime};

/// Timing policy for one suite.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Minimum wall-clock spent warming up (and calibrating) each bench.
    pub warmup: Duration,
    /// Target wall-clock per sample; iterations-per-sample is calibrated
    /// so one sample takes roughly this long.
    pub sample_target: Duration,
    /// Samples collected per benchmark.
    pub samples: usize,
    /// Directory the JSON report is written into.
    pub out_dir: PathBuf,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: Duration::from_millis(200),
            sample_target: Duration::from_millis(50),
            samples: 30,
            out_dir: PathBuf::from("results/bench"),
        }
    }
}

impl BenchConfig {
    /// The reduced-fidelity profile used by `--quick` / `BENCH_QUICK`.
    pub fn quick() -> Self {
        BenchConfig {
            warmup: Duration::from_millis(10),
            sample_target: Duration::from_millis(5),
            samples: 5,
            ..Default::default()
        }
    }
}

/// Summary statistics over one benchmark's samples (all per-iteration
/// nanoseconds).
#[derive(Clone, Debug)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: f64,
    /// 99th percentile (nearest-rank).
    pub p99_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Population standard deviation.
    pub stddev_ns: f64,
}

impl Stats {
    /// Summarize raw per-iteration samples (nanoseconds). Sorting, the
    /// nearest-rank percentiles, and the population stddev live here so
    /// they can be unit-tested away from any clock.
    pub fn from_samples(mut ns: Vec<f64>) -> Stats {
        assert!(!ns.is_empty());
        ns.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = ns.len();
        let mean = ns.iter().sum::<f64>() / n as f64;
        let var = ns.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let pct = |p: f64| crate::sketch::percentile_nearest_rank(&ns, p / 100.0);
        Stats {
            mean_ns: mean,
            p50_ns: pct(50.0),
            p99_ns: pct(99.0),
            min_ns: ns[0],
            max_ns: ns[n - 1],
            stddev_ns: var.sqrt(),
        }
    }
}

/// One finished benchmark: identity, calibration, and statistics.
#[derive(Clone, Debug)]
pub struct Record {
    /// Benchmark name (unique within the suite).
    pub name: String,
    /// Iterations folded into each timing sample.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
    /// The summary statistics.
    pub stats: Stats,
}

/// How many iterations to fold into one timing sample so the sample
/// lasts roughly `sample_target_secs`, given the warmup's estimate of
/// seconds-per-iteration. Never returns 0: even a pathologically slow
/// iteration is still timed once per sample.
pub fn calibrate_iters(sample_target_secs: f64, est_per_iter_secs: f64) -> u64 {
    ((sample_target_secs / est_per_iter_secs) as u64).max(1)
}

/// Passed to each benchmark closure; call [`Bencher::iter`] exactly once
/// with the code under test.
pub struct Bencher {
    cfg: BenchConfig,
    samples_override: Option<usize>,
    result: Option<(u64, usize, Stats)>,
}

impl Bencher {
    /// Measure the closure: warm up, calibrate iterations-per-sample so a
    /// sample lasts roughly `sample_target`, then time the samples.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        loop {
            black_box(f());
            warmup_iters += 1;
            if warmup_start.elapsed() >= self.cfg.warmup {
                break;
            }
        }
        let est_per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;
        let per_sample = calibrate_iters(self.cfg.sample_target.as_secs_f64(), est_per_iter);
        let n_samples = self.samples_override.unwrap_or(self.cfg.samples);
        let mut samples_ns = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            let t = Instant::now();
            for _ in 0..per_sample {
                black_box(f());
            }
            samples_ns.push(t.elapsed().as_nanos() as f64 / per_sample as f64);
        }
        self.result = Some((per_sample, n_samples, Stats::from_samples(samples_ns)));
    }
}

/// A named collection of benchmarks producing one JSON report.
pub struct Suite {
    name: String,
    cfg: BenchConfig,
    filter: Option<String>,
    samples_override: Option<usize>,
    records: Vec<Record>,
}

impl Suite {
    /// Build a suite with an explicit configuration.
    pub fn new(name: &str, cfg: BenchConfig) -> Suite {
        Suite { name: name.to_string(), cfg, filter: None, samples_override: None, records: Vec::new() }
    }

    /// Build a suite configured from `std::env::args()` and the
    /// `BENCH_QUICK` / `BENCH_OUT` environment variables.
    pub fn from_args(name: &str) -> Suite {
        let mut cfg = if std::env::var_os("BENCH_QUICK").is_some() {
            BenchConfig::quick()
        } else {
            BenchConfig::default()
        };
        if let Some(dir) = std::env::var_os("BENCH_OUT") {
            cfg.out_dir = PathBuf::from(dir);
        }
        let mut filter = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => {
                    let out_dir = cfg.out_dir.clone();
                    cfg = BenchConfig::quick();
                    cfg.out_dir = out_dir;
                }
                "--out" => {
                    let dir = args.next().unwrap_or_else(|| {
                        eprintln!("--out requires a directory argument");
                        // lint:allow(no-process) — usage-error exit for the bench-suite CLI entry point shared by every [[bin]] target
                        std::process::exit(2);
                    });
                    cfg.out_dir = PathBuf::from(dir);
                }
                other if !other.starts_with('-') => filter = Some(other.to_string()),
                other => {
                    eprintln!("unknown argument: {other}");
                    // lint:allow(no-process) — usage-error exit for the bench-suite CLI entry point shared by every [[bin]] target
                    std::process::exit(2);
                }
            }
        }
        let mut s = Suite::new(name, cfg);
        s.filter = filter;
        s
    }

    /// Override the sample count for benchmarks registered from now on
    /// (used by the whole-simulation figure benches, where one iteration
    /// is an entire run).
    pub fn set_samples(&mut self, n: usize) {
        self.samples_override = Some(n);
    }

    /// Restore the configured sample count.
    pub fn reset_samples(&mut self) {
        self.samples_override = None;
    }

    /// Register and immediately run one benchmark.
    pub fn bench<F: FnOnce(&mut Bencher)>(&mut self, name: &str, f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            cfg: self.cfg.clone(),
            samples_override: self.samples_override,
            result: None,
        };
        f(&mut b);
        let (iters_per_sample, samples, stats) =
            b.result.unwrap_or_else(|| panic!("bench '{name}' never called Bencher::iter"));
        println!(
            "{:<40} mean {:>12}  p50 {:>12}  p99 {:>12}  ({} samples x {} iters)",
            format!("{}/{}", self.name, name),
            fmt_ns(stats.mean_ns),
            fmt_ns(stats.p50_ns),
            fmt_ns(stats.p99_ns),
            samples,
            iters_per_sample,
        );
        self.records.push(Record { name: name.to_string(), iters_per_sample, samples, stats });
    }

    /// Write `BENCH_<suite>.json` into the output directory and return
    /// its path. If a filter excluded every benchmark, nothing is
    /// written (so a typo'd filter can't clobber a previous report).
    pub fn finish(self) -> std::io::Result<PathBuf> {
        let path = self.cfg.out_dir.join(format!("BENCH_{}.json", self.name));
        if self.records.is_empty() {
            if let Some(filter) = &self.filter {
                eprintln!("no benchmarks matched filter {filter:?}; not writing {}", path.display());
                return Ok(path);
            }
        }
        std::fs::create_dir_all(&self.cfg.out_dir)?;
        let mut f = std::fs::File::create(&path)?;
        f.write_all(render_json(&self.name, &self.records).as_bytes())?;
        println!("wrote {}", path.display());
        Ok(path)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// JSON numbers must be finite; stats over real timings always are, but
/// guard anyway so a pathological clock can't produce invalid JSON.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

fn render_json(suite: &str, records: &[Record]) -> String {
    let created = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"suite\": \"{}\",\n", json_escape(suite)));
    out.push_str(&format!("  \"created_unix\": {created},\n"));
    out.push_str("  \"benches\": [\n");
    for (i, r) in records.iter().enumerate() {
        let s = &r.stats;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters_per_sample\": {}, \"samples\": {}, \
             \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"min_ns\": {}, \"max_ns\": {}, \"stddev_ns\": {}}}{}\n",
            json_escape(&r.name),
            r.iters_per_sample,
            r.samples,
            json_num(s.mean_ns),
            json_num(s.p50_ns),
            json_num(s.p99_ns),
            json_num(s.min_ns),
            json_num(s.max_ns),
            json_num(s.stddev_ns),
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_percentiles() {
        let ns: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Stats::from_samples(ns);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
        assert_eq!(s.p50_ns, 51.0); // nearest-rank on 0-indexed 99*0.5 = 49.5 -> 50
        assert_eq!(s.p99_ns, 99.0);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.max_ns, 100.0);
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let rec = Record {
            name: "a\"b\\c".to_string(),
            iters_per_sample: 10,
            samples: 3,
            stats: Stats {
                mean_ns: 1.0,
                p50_ns: 1.0,
                p99_ns: 2.0,
                min_ns: 0.5,
                max_ns: 2.0,
                stddev_ns: 0.1,
            },
        };
        let j = render_json("unit", &[rec]);
        assert!(j.contains("\"suite\": \"unit\""));
        assert!(j.contains("a\\\"b\\\\c"));
        assert!(j.contains("\"p99_ns\": 2.000"));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn bencher_measures_something() {
        let mut suite = Suite::new(
            "selftest",
            BenchConfig {
                warmup: Duration::from_millis(1),
                sample_target: Duration::from_micros(200),
                samples: 3,
                out_dir: PathBuf::from("results/bench"),
            },
        );
        suite.bench("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        assert_eq!(suite.records.len(), 1);
        assert!(suite.records[0].stats.mean_ns > 0.0);
    }

    #[test]
    fn p50_index_comment_is_right() {
        // Documents the nearest-rank convention used above.
        let ns: Vec<f64> = (0..4).map(|i| i as f64).collect();
        let s = Stats::from_samples(ns);
        assert_eq!(s.p50_ns, 2.0); // (3 * 0.5).round() = 2
    }

    #[test]
    fn stats_singleton_sample() {
        let s = Stats::from_samples(vec![42.0]);
        assert_eq!(s.mean_ns, 42.0);
        assert_eq!(s.p50_ns, 42.0);
        assert_eq!(s.p99_ns, 42.0);
        assert_eq!(s.min_ns, 42.0);
        assert_eq!(s.max_ns, 42.0);
        assert_eq!(s.stddev_ns, 0.0);
    }

    #[test]
    fn stats_even_length_percentiles() {
        // Even-length sets have no exact middle; nearest-rank rounds the
        // fractional index, so [10,20] -> p50 at round(0.5) = index 1.
        let s = Stats::from_samples(vec![20.0, 10.0]);
        assert_eq!(s.p50_ns, 20.0);
        assert_eq!(s.p99_ns, 20.0);
        assert_eq!(s.mean_ns, 15.0);
        assert_eq!(s.stddev_ns, 5.0);

        // Six samples: p50 index = round(5 * 0.5) = 3 (fourth-smallest),
        // p99 index = round(5 * 0.99) = 5 (the max).
        let s = Stats::from_samples(vec![6.0, 1.0, 5.0, 2.0, 4.0, 3.0]);
        assert_eq!(s.p50_ns, 4.0);
        assert_eq!(s.p99_ns, 6.0);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.max_ns, 6.0);
    }

    #[test]
    fn stats_sorts_unsorted_input() {
        let s = Stats::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.p50_ns, 2.0);
        assert_eq!(s.max_ns, 3.0);
    }

    #[test]
    fn calibration_targets_sample_duration() {
        // 50 ms target at 1 us/iter -> 50_000 iterations per sample.
        assert_eq!(calibrate_iters(0.05, 1e-6), 50_000);
        // Iterations slower than the target still run once per sample.
        assert_eq!(calibrate_iters(0.05, 0.2), 1);
        // Exactly at the target: one iteration fills the sample.
        assert_eq!(calibrate_iters(0.05, 0.05), 1);
    }
}

/// One benchmark read back from a report written by [`Suite::finish`].
#[derive(Clone, Debug, PartialEq)]
pub struct ReportEntry {
    /// Benchmark name.
    pub name: String,
    /// Mean per-iteration nanoseconds.
    pub mean_ns: f64,
    /// Median per-iteration nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile per-iteration nanoseconds.
    pub p99_ns: f64,
}

fn json_field_str(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn json_field_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parse a report produced by [`Suite::finish`]. This reads only the
/// line-per-bench format `render_json` writes — it is not a general
/// JSON parser, which keeps the workspace registry-free.
pub fn parse_report(text: &str) -> Vec<ReportEntry> {
    text.lines()
        .filter_map(|line| {
            Some(ReportEntry {
                name: json_field_str(line, "name")?,
                mean_ns: json_field_num(line, "mean_ns")?,
                p50_ns: json_field_num(line, "p50_ns")?,
                p99_ns: json_field_num(line, "p99_ns")?,
            })
        })
        .collect()
}

/// The outcome of comparing one benchmark across two reports.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Benchmark name.
    pub name: String,
    /// Baseline mean, ns.
    pub baseline_ns: f64,
    /// Current mean, ns.
    pub current_ns: f64,
    /// `current / baseline` — above 1.0 is slower than baseline.
    pub ratio: f64,
}

impl Delta {
    /// Slower than baseline by more than `tolerance` (e.g. `0.3` allows
    /// +30% before flagging)?
    pub fn regressed(&self, tolerance: f64) -> bool {
        self.ratio > 1.0 + tolerance
    }
}

/// Compare two parsed reports by benchmark name (mean ns). Benchmarks
/// present in only one report are skipped — renames should not fail the
/// gate; the baseline refresh workflow covers them.
pub fn compare_reports(baseline: &[ReportEntry], current: &[ReportEntry]) -> Vec<Delta> {
    current
        .iter()
        .filter_map(|c| {
            let b = baseline.iter().find(|b| b.name == c.name)?;
            if b.mean_ns <= 0.0 {
                return None;
            }
            Some(Delta {
                name: c.name.clone(),
                baseline_ns: b.mean_ns,
                current_ns: c.mean_ns,
                ratio: c.mean_ns / b.mean_ns,
            })
        })
        .collect()
}

#[cfg(test)]
mod compare_tests {
    use super::*;

    fn entry(name: &str, mean: f64) -> ReportEntry {
        ReportEntry { name: name.into(), mean_ns: mean, p50_ns: mean, p99_ns: mean }
    }

    #[test]
    fn report_roundtrips_through_parser() {
        let records = vec![
            Record {
                name: "alpha".into(),
                iters_per_sample: 100,
                samples: 30,
                stats: Stats::from_samples(vec![10.0, 20.0, 30.0]),
            },
            Record {
                name: "beta \"quoted\"".into(),
                iters_per_sample: 1,
                samples: 5,
                stats: Stats::from_samples(vec![1e6]),
            },
        ];
        let parsed = parse_report(&render_json("micro", &records));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "alpha");
        assert!((parsed[0].mean_ns - 20.0).abs() < 1e-9);
        assert_eq!(parsed[0].p50_ns, 20.0);
        assert_eq!(parsed[0].p99_ns, 30.0);
        assert_eq!(parsed[1].name, "beta \"quoted\"");
        assert_eq!(parsed[1].mean_ns, 1e6);
    }

    #[test]
    fn compare_flags_only_regressions_beyond_tolerance() {
        let baseline = vec![entry("a", 100.0), entry("b", 100.0), entry("gone", 50.0)];
        let current = vec![entry("a", 125.0), entry("b", 80.0), entry("new", 10.0)];
        let deltas = compare_reports(&baseline, &current);
        // "gone" and "new" are skipped; a regressed 25%, b improved.
        assert_eq!(deltas.len(), 2);
        let a = deltas.iter().find(|d| d.name == "a").unwrap();
        let b = deltas.iter().find(|d| d.name == "b").unwrap();
        assert!(a.regressed(0.2));
        assert!(!a.regressed(0.3));
        assert!(!b.regressed(0.0));
        assert!((a.ratio - 1.25).abs() < 1e-9);
    }

    #[test]
    fn parser_ignores_non_bench_lines() {
        let text = "{\n  \"suite\": \"micro\",\n  \"created_unix\": 1,\n  \"benches\": [\n  ]\n}\n";
        assert!(parse_report(text).is_empty());
    }
}
