//! `e2ebench` — end-to-end benchmark runner.
//!
//! ```text
//! e2ebench --workload NAME [--seed N] [--seconds S | --reps R] [--trace 0|1] [--out DIR]
//! e2ebench [--seed N] [--reps R] [--trace] [--out DIR] [WORKLOAD ...]
//! e2ebench --calibrate [--runs N] [--seed N] [--out DIR] [WORKLOAD ...]
//! ```
//!
//! With `--workload`, one workload runs in this process: it prints one
//! `workload metric value unit` line per metric and, as the last line
//! of standard output, a JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; it also writes
//! `DIR/<workload>.json`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics of a traced replay.
//!
//! Without `--workload`, every named workload (default: all) runs in a
//! child process of its own, so peak RSS is per workload. `--trace`
//! writes the traced results next to `DIR`, in `baseline/`.
//! `--calibrate` runs two sets of `--runs` child runs per workload, each
//! run on its own seed, and prints each end-to-end metric's median and
//! interquartile spread per set, with a suggested regression bound.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use e2ebench::fleet::FleetSpec;
use e2ebench::fullscale::FullscaleSpec;
use e2ebench::servercore::ServercoreSpec;
use e2ebench::stats::{iqr_share, median, percentile, quantile_label, tail_quantile};
use e2ebench::{fleet, fullscale, servercore};
use e2ebench::{measure, peak_rss_mb, profile, Measurement, Trace, Workload};

/// A workload's name and the wall time one repetition takes (set-up,
/// timed region and untimed checks) on the calibration box; `--seconds`
/// is divided by it to get the repetition count.
const WORKLOADS: &[(&str, f64)] = &[
    ("fleet-mixed", 3.2),
    ("fleet-chaos", 3.4),
    ("servercore-ingest", 2.2),
    ("fullscale-stream", 2.8),
];

/// End-to-end metrics: name, unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Floor of the suggested regression bound per end-to-end metric.
const BOUND_FLOORS: &[(&str, f64)] = &[
    ("setup_s", 0.10),
    ("throughput_per_s", 0.05),
    ("step_p50_ms", 0.05),
    ("step_tail_ms", 0.10),
    ("peak_rss_mb", 0.05),
];

/// Coverage a traced replay's named spans must reach.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: Option<String>,
    names: Vec<String>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: bool,
    calibrate: bool,
    runs: usize,
    out: PathBuf,
}

fn usage() -> &'static str {
    "usage: e2ebench --workload NAME [--seed N] [--seconds S | --reps R] [--trace 0|1] [--out DIR]\n       e2ebench [--seed N] [--reps R] [--trace] [--calibrate [--runs N]] [--out DIR] [WORKLOAD ...]"
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        names: Vec::new(),
        seed: 2016,
        seconds: 16.0,
        reps: None,
        trace: false,
        calibrate: false,
        runs: 5,
        out: PathBuf::from("e2ebench/out"),
    };
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--reps" => {
                a.reps = Some(value("--reps")?.parse().map_err(|e| format!("--reps: {e}"))?);
            }
            "--runs" => a.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => a.out = PathBuf::from(value("--out")?),
            "--calibrate" => a.calibrate = true,
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            name if !name.starts_with('-') => a.names.push(name.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    for name in a.workload.iter().chain(&a.names) {
        if !WORKLOADS.iter().any(|(w, _)| w == name) {
            let known: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
            return Err(format!("unknown workload {name} (known: {})", known.join(", ")));
        }
    }
    if a.seconds <= 0.0 || a.seconds.is_nan() {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Repetitions for `workload`: `--reps`, or as many nominal repetitions
/// as fit in `--seconds` (at least one). A pure function of the
/// arguments, so the sample count — and with it the tail percentile —
/// is the same on every run.
fn reps_for(workload: &str, a: &Args) -> usize {
    a.reps.unwrap_or_else(|| {
        let nominal = WORKLOADS.iter().find(|(w, _)| *w == workload).map_or(3.0, |(_, s)| *s);
        ((a.seconds / nominal).round() as usize).max(1)
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a single-workload run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra `key: json` members for the per-workload file.
    details: Vec<(String, String)>,
    /// Human lines printed before the metrics.
    lines: Vec<String>,
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
    format!("[{}]", items.join(","))
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn notes_json(notes: &[e2ebench::Note]) -> String {
    let items: Vec<String> =
        notes.iter().map(|n| format!("{}:{}", json_str(n.name), json_num(n.value))).collect();
    format!("{{{}}}", items.join(","))
}

fn failures_json(failures: &[String]) -> String {
    let items: Vec<String> = failures.iter().map(|f| json_str(f)).collect();
    format!("[{}]", items.join(","))
}

/// End-to-end metrics of a measurement. Step percentiles are taken
/// within each repetition, then the median across repetitions, so a
/// burst of host contention during one repetition does not move them.
fn end_to_end(workload: &str, m: &Measurement) -> Outcome {
    let throughput: Vec<f64> =
        m.reps.iter().map(|r| r.units as f64 / r.run_s.max(f64::MIN_POSITIVE)).collect();
    let steps_per_rep = m.reps.first().map_or(0, |r| r.steps_ms.len());
    let tail_q = tail_quantile(steps_per_rep);
    let p50: Vec<f64> = m.reps.iter().map(|r| percentile(&r.steps_ms, 0.5)).collect();
    let tail: Vec<f64> = m.reps.iter().map(|r| percentile(&r.steps_ms, tail_q)).collect();
    let attempted: u64 = m.reps.iter().map(|r| r.units).sum();
    let failed: u64 = m.reps.iter().filter(|r| !r.failures.is_empty()).map(|r| r.units).sum();
    let values =
        [median(&m.setup_s), median(&throughput), median(&p50), median(&tail), peak_rss_mb()];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name: name.into(), value, unit })
        .collect();
    let last = m.reps.last();
    let mut lines = vec![
        format!(
            "{workload} # {} reps of {steps_per_rep} steps, tail = {}, run_s {:?}",
            m.reps.len(),
            quantile_label(tail_q),
            m.reps.iter().map(|r| (r.run_s * 1e4).round() / 1e4).collect::<Vec<_>>()
        ),
        format!(
            "{workload} # {} checks failed; simulated failed_share {:.6}",
            m.failures.len(),
            last.map_or(0.0, |r| r.failed_share)
        ),
    ];
    lines.extend(
        last.into_iter()
            .flat_map(|r| &r.notes)
            .map(|n| format!("{workload} # {} {}", n.name, n.value)),
    );
    lines.extend(m.failures.iter().map(|f| format!("{workload} # CHECK FAILED: {f}")));
    let details = vec![
        ("reps".into(), m.reps.len().to_string()),
        ("setup_s".into(), json_array(&m.setup_s)),
        ("run_s".into(), json_array(&m.reps.iter().map(|r| r.run_s).collect::<Vec<_>>())),
        ("units".into(), json_array(&m.reps.iter().map(|r| r.units as f64).collect::<Vec<_>>())),
        ("steps_per_rep".into(), steps_per_rep.to_string()),
        ("tail_quantile".into(), json_num(tail_q)),
        ("step_p50_ms".into(), json_array(&p50)),
        ("step_tail_ms".into(), json_array(&tail)),
        ("failed_share".into(), json_num(last.map_or(0.0, |r| r.failed_share))),
        ("check_failures".into(), m.failures.len().to_string()),
        ("failures".into(), failures_json(&m.failures)),
        ("notes".into(), last.map_or("{}".into(), |r| notes_json(&r.notes))),
    ];
    Outcome { correct: m.failures.is_empty(), attempted, failed, metrics, details, lines }
}

/// Every per-layer metric: each workload's span shares, the derived
/// server-core ratios, and the replay-wide figures.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    for span in fleet::SPANS.iter().chain(servercore::SPANS).chain(fullscale::SPANS) {
        names.push((format!("{span}_share"), "ratio"));
    }
    for derived in servercore::DERIVED {
        names.push((derived.to_string(), "ratio"));
    }
    names.push(("trace_s".into(), "s"));
    names.push(("trace_overhead_ratio".into(), "ratio"));
    names.push(("span_coverage".into(), "ratio"));
    names
}

/// Per-layer metrics of a traced replay, plus the "where the time goes"
/// table.
fn per_layer(workload: &str, t: &Trace) -> Outcome {
    let coverage = t.coverage();
    let overhead = t.traced_s / t.untraced_s.max(f64::MIN_POSITIVE);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for s in &t.spans {
        values.insert(format!("{}_share", s.name), s.self_s / t.traced_s.max(f64::MIN_POSITIVE));
    }
    for d in &t.replay.derived {
        values.insert(d.name.to_string(), d.value);
    }
    values.insert("trace_s".into(), t.traced_s);
    values.insert("trace_overhead_ratio".into(), overhead);
    values.insert("span_coverage".into(), coverage);
    let metrics: Vec<Metric> = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric { name, value, unit }
        })
        .collect();

    let mut failures = t.replay.failures.clone();
    if coverage < MIN_COVERAGE {
        failures.push(format!("named spans cover {:.1}% of the replay", coverage * 100.0));
    }
    let mut rows = t.spans.clone();
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    let mut lines = vec![
        format!("{workload} # where the time goes (traced replay)"),
        format!(
            "{workload} #   traced {:.3} s, untraced {:.3} s, overhead {overhead:.2}x, coverage {:.1}%, digest {}",
            t.traced_s,
            t.untraced_s,
            coverage * 100.0,
            if t.digest_match { "matches" } else { "DIFFERS: per-layer numbers invalid" }
        ),
        format!("{workload} #   {:<32} {:>10} {:>7} {:>12}", "span", "self_s", "share", "calls"),
    ];
    for r in &rows {
        lines.push(format!(
            "{workload} #   {:<32} {:>10.4} {:>6.1}% {:>12}",
            r.name,
            r.self_s,
            100.0 * r.self_s / t.traced_s.max(f64::MIN_POSITIVE),
            r.calls
        ));
    }
    lines.extend(
        t.replay.derived.iter().map(|d| format!("{workload} #   {} {:.4}", d.name, d.value)),
    );
    lines.extend(t.replay.notes.iter().map(|n| format!("{workload} # {} {}", n.name, n.value)));
    lines.extend(failures.iter().map(|f| format!("{workload} # CHECK FAILED: {f}")));

    let spans: Vec<String> = t
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"self_s\":{},\"share\":{},\"calls\":{}}}",
                json_str(s.name),
                json_num(s.self_s),
                json_num(s.self_s / t.traced_s.max(f64::MIN_POSITIVE)),
                s.calls
            )
        })
        .collect();
    let details = vec![
        ("spans".into(), format!("[{}]", spans.join(","))),
        ("untraced_s".into(), json_num(t.untraced_s)),
        ("digest_match".into(), t.digest_match.to_string()),
        ("failures".into(), failures_json(&failures)),
        ("notes".into(), notes_json(&t.replay.notes)),
    ];
    let correct = failures.is_empty();
    Outcome {
        correct,
        attempted: t.replay.units.max(1),
        failed: if correct { 0 } else { t.replay.units.max(1) },
        metrics,
        details,
        lines,
    }
}

fn run_workload<W: Workload>(w: &W, name: &str, a: &Args) -> Outcome {
    if a.trace {
        per_layer(name, &profile(w, a.seed))
    } else {
        end_to_end(name, &measure(w, a.seed, reps_for(name, a)))
    }
}

fn write_file(path: &Path, body: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, body));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn single(name: &str, a: &Args) -> ExitCode {
    let o = match name {
        "fleet-mixed" => run_workload(&FleetSpec::MIXED, name, a),
        "fleet-chaos" => run_workload(&FleetSpec::CHAOS, name, a),
        "servercore-ingest" => run_workload(&ServercoreSpec::INGEST, name, a),
        _ => run_workload(&FullscaleSpec::stream(), name, a),
    };
    for l in &o.lines {
        println!("{l}");
    }
    for m in &o.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    let line = result_line(&o);
    let mut file = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"result\":{line}",
        json_str(name),
        a.seed,
        a.trace
    );
    for (k, v) in &o.details {
        file.push_str(&format!(",{}:{v}", json_str(k)));
    }
    file.push_str("}\n");
    write_file(&a.out.join(format!("{name}.json")), &file);
    println!("{line}");
    ExitCode::SUCCESS
}

/// Run one workload in a child process; returns its stdout lines.
fn child(name: &str, seed: u64, a: &Args, out: &Path, trace: bool) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &a.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if let Some(r) = a.reps {
        cmd.args(["--reps", &r.to_string()]);
    }
    cmd.arg("--out").arg(out);
    let output = cmd.output().map_err(|e| format!("{name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name}: exited with {}", output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout).lines().map(str::to_string).collect())
}

/// `workload metric value unit` lines of a child's output, by metric.
fn metric_values(lines: &[String]) -> BTreeMap<String, f64> {
    lines
        .iter()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [_, metric, value, _] if END_TO_END.iter().any(|(m, _)| m == metric) => {
                    value.parse().ok().map(|v| (metric.to_string(), v))
                }
                _ => None,
            }
        })
        .collect()
}

fn selected(a: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .filter(|w| a.names.is_empty() || a.names.iter().any(|n| n == w))
        .collect()
}

fn orchestrate(a: &Args) -> ExitCode {
    let out = if a.trace {
        a.out.parent().map_or(PathBuf::from("baseline"), |p| p.join("baseline"))
    } else {
        a.out.clone()
    };
    let mut ok = true;
    for name in selected(a) {
        match child(name, a.seed, a, &out, a.trace) {
            Ok(lines) => {
                let (result, body) =
                    lines.split_last().map_or((None, &[][..]), |(l, b)| (Some(l), b));
                for l in body {
                    println!("{l}");
                }
                ok &= result.is_some_and(|r| r.contains("\"correct\":true"));
            }
            Err(e) => {
                eprintln!("error: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn calibrate(a: &Args) -> ExitCode {
    let mut ok = true;
    println!(
        "{:<18} {:<17} {:>14} {:>8} {:>14} {:>8} {:>8} {:>8}",
        "workload", "metric", "median_1", "iqr_1", "median_2", "iqr_2", "drift", "bound"
    );
    for name in selected(a) {
        let mut sets: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
        for set_no in 1..=2 {
            let mut set: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for i in 0..a.runs {
                let seed = a.seed + i as u64;
                match child(name, seed, a, &a.out, false) {
                    Ok(lines) => {
                        ok &= lines.last().is_some_and(|r| r.contains("\"correct\":true"));
                        let values = metric_values(&lines);
                        let shown: Vec<String> =
                            values.iter().map(|(k, v)| format!("{k}={v:.6}")).collect();
                        println!("# {name} set {set_no} seed {seed}: {}", shown.join(" "));
                        for (k, v) in values {
                            set.entry(k).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ok = false;
                    }
                }
            }
            sets.push(set);
        }
        for (metric, _) in END_TO_END {
            let get =
                |s: usize| sets.get(s).and_then(|m| m.get(*metric)).cloned().unwrap_or_default();
            let (v1, v2) = (get(0), get(1));
            let (m1, m2) = (median(&v1), median(&v2));
            let (s1, s2) = (iqr_share(&v1), iqr_share(&v2));
            let drift = if m1 != 0.0 { (m2 - m1).abs() / m1.abs() } else { 0.0 };
            let floor = BOUND_FLOORS.iter().find(|(m, _)| m == metric).map_or(0.05, |(_, f)| *f);
            let bound = floor.max(3.0 * s1.max(s2)).max(2.0 * drift).min(0.25);
            println!(
                "{name:<18} {metric:<17} {m1:>14.6e} {:>7.2}% {m2:>14.6e} {:>7.2}% {:>7.2}% {bound:>8.3}",
                s1 * 100.0,
                s2 * 100.0,
                drift * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match (&a.workload, a.calibrate) {
        (Some(name), _) => single(name, &a),
        (None, true) => calibrate(&a),
        (None, false) => orchestrate(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_names().into_iter().map(|(n, _)| n));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64, "{n} is too long");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
    }

    #[test]
    fn reps_follow_seconds() {
        let a = parse_args(&["--workload".into(), "fleet-mixed".into()]).expect("args");
        assert_eq!(reps_for("fleet-mixed", &a), 5);
        let a = parse_args(&["--reps".into(), "7".into(), "--trace".into()]).expect("args");
        assert_eq!(reps_for("fleet-mixed", &a), 7);
        assert!(a.trace);
        assert!(parse_args(&["nonesuch".into()]).is_err());
    }
}
