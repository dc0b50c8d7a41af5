//! The workspace determinism & panic-policy linter.
//!
//! ```text
//! cargo run --release -p devtools --bin lint            # gate: exit 1 on findings
//! cargo run --release -p devtools --bin lint -- --report  # suppression audit + call-graph summary
//! cargo run --release -p devtools --bin lint -- --graph   # dump the full workspace call graph
//! cargo run --release -p devtools --bin lint -- --format json
//! cargo run --release -p devtools --bin lint -- --root DIR
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/configuration error.

use std::path::PathBuf;
use std::process::ExitCode;

use devtools::lint;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut report = false;
    let mut quiet = false;
    let mut dump_graph = false;
    let mut format = "text".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => report = true,
            "--quiet" => quiet = true,
            "--graph" => dump_graph = true,
            "--format" => match args.next() {
                Some(f) if f == "text" || f == "json" => format = f,
                Some(f) => {
                    eprintln!("--format must be `text` or `json`, got `{f}`");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--format requires an argument (text|json)");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: lint [--root DIR] [--report] [--graph] [--format text|json] [--quiet]");
                return ExitCode::from(2);
            }
        }
    }

    let analysis = match lint::analyze(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };
    let out = &analysis.outcome;

    if dump_graph {
        print!("{}", lint::graph::render(&analysis.graph));
        if !out.clean() {
            eprintln!("lint: {} finding(s) — graph reflects the dirty tree", out.findings.len());
            return ExitCode::from(1);
        }
        return ExitCode::SUCCESS;
    }

    if report {
        print!("{}", lint::report(&analysis));
        if !out.clean() {
            eprintln!("lint: {} finding(s) — report reflects the dirty tree", out.findings.len());
            return ExitCode::from(1);
        }
        return ExitCode::SUCCESS;
    }

    if format == "json" {
        println!("[");
        for (i, f) in out.findings.iter().enumerate() {
            let comma = if i + 1 < out.findings.len() { "," } else { "" };
            println!(
                "  {{\"file\":\"{}\",\"line\":{},\"col\":{},\"lint\":\"{}\",\"message\":\"{}\"}}{}",
                json_escape(&f.file),
                f.line,
                f.col,
                json_escape(&f.lint),
                json_escape(&f.message),
                comma,
            );
        }
        println!("]");
    } else {
        for f in &out.findings {
            println!("{f}");
        }
    }
    if !quiet {
        let (exact, approx, unres) = analysis.graph.edge_counts();
        eprintln!(
            "lint: {} file(s), {} finding(s), {} suppression(s); graph: {} fn(s), {} exact + {} approx edge(s), {} unresolved name(s)",
            out.files_scanned,
            out.findings.len(),
            out.allows.len(),
            analysis.graph.nodes.len(),
            exact,
            approx,
            unres,
        );
    }
    if out.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
