//! The workspace determinism & panic-policy linter.
//!
//! ```text
//! cargo run --release -p devtools --bin lint            # gate: exit 1 on findings
//! cargo run --release -p devtools --bin lint -- --report  # suppression audit + call-graph summary
//! cargo run --release -p devtools --bin lint -- --graph   # dump the full workspace call graph
//! cargo run --release -p devtools --bin lint -- --root DIR
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/configuration error or a
//! failed write to stdout. A reader that stops early (`lint --graph |
//! head`) is not a failure: the output stops and the exit code is the
//! run's own.

use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use devtools::lint;

/// Write `text` to `w` (locked stdout in `main`) and return `code`, the
/// run's exit code. A closed pipe ends the output quietly with that
/// code; any other write error is reported and exits 2.
fn print_out(w: &mut impl Write, text: &str, code: u8) -> u8 {
    match w.write_all(text.as_bytes()).and_then(|()| w.flush()) {
        Ok(()) => code,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => code,
        Err(e) => {
            eprintln!("lint: writing stdout: {e}");
            2
        }
    }
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut report = false;
    let mut quiet = false;
    let mut dump_graph = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => report = true,
            "--quiet" => quiet = true,
            "--graph" => dump_graph = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: lint [--root DIR] [--report] [--graph] [--quiet]");
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
    let code = if out.clean() { 0 } else { 1 };

    let text = if dump_graph {
        lint::graph::render(&analysis.graph)
    } else if report {
        lint::report(&analysis)
    } else {
        out.findings.iter().map(|f| format!("{f}\n")).collect()
    };
    let code = print_out(&mut std::io::stdout().lock(), &text, code);
    if dump_graph || report {
        if !out.clean() {
            let what = if dump_graph { "graph" } else { "report" };
            eprintln!("lint: {} finding(s) — {what} reflects the dirty tree", out.findings.len());
        }
    } else if !quiet {
        let fns = analysis.graph.nodes.iter().filter(|n| !n.is_test).count();
        let (exact, approx, unres) = analysis.graph.edge_counts();
        eprintln!(
            "lint: {} file(s), {} finding(s), {} suppression(s); graph: {} fn(s), {} exact + {} approx edge(s), {} unresolved name(s)",
            out.files_scanned,
            out.findings.len(),
            out.allows.len(),
            fns,
            exact,
            approx,
            unres,
        );
    }
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose every write fails with the wrapped kind.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_keeps_the_runs_exit_code() {
        assert_eq!(print_out(&mut Failing(ErrorKind::BrokenPipe), "a\nb\n", 0), 0);
        assert_eq!(print_out(&mut Failing(ErrorKind::BrokenPipe), "a\nb\n", 1), 1);
        assert_eq!(print_out(&mut Failing(ErrorKind::PermissionDenied), "a\n", 0), 2);
        let mut sink = Vec::new();
        assert_eq!(print_out(&mut sink, "a\nb\n", 1), 1);
        assert_eq!(sink, b"a\nb\n");
    }
}
