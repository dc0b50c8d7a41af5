//! The workspace's determinism & panic-policy linter.
//!
//! A zero-dependency static-analysis pass over every Rust file in the
//! repository, enforcing the invariant classes that the reproduction's
//! headline claims rest on (DESIGN.md §8):
//!
//! - **determinism** — no wall clocks, no hasher-ordered containers, no
//!   environment-dependent branching in artifact-producing code;
//! - **concurrency** — all parallelism flows through [`crate::par`];
//!   no `static mut`, no un-audited `unsafe`;
//! - **panic policy** — the hot-path crates return `Result` or carry a
//!   documented invariant instead of `unwrap`/`expect`/`panic!`/indexing;
//! - **hermeticity** — no subprocesses outside bin targets, no real
//!   sockets outside the designated I/O module.
//!
//! Per-site opt-outs use `// lint:allow(<name>) — <reason>` pragmas
//! (covering that line and the next); per-path policy lives in
//! `lint.toml` at the repo root. [`report`] renders the audit artifact
//! committed as `results/lint_allowlist.txt`.

pub mod analysis;
pub mod config;
pub mod graph;
pub mod items;
pub mod rules;
pub mod tokens;
pub mod walk;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

pub use config::Config;
pub use rules::{lint_by_name, Class, Lint, LINTS};

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Root-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Lint name (or the meta lints `bad-pragma` / `unknown-pragma` /
    /// `unused-pragma`).
    pub lint: String,
    /// Human explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}: {}", self.file, self.line, self.col, self.lint, self.message)
    }
}

/// One `lint:allow` site, for the audit report.
#[derive(Clone, Debug)]
pub struct AllowSite {
    /// Root-relative path.
    pub file: String,
    /// 1-based line of the pragma.
    pub line: u32,
    /// Lint being suppressed.
    pub lint: String,
    /// The stated reason.
    pub reason: String,
}

/// Result of linting a set of files.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Unsuppressed violations, sorted by (file, line, col, lint).
    pub findings: Vec<Finding>,
    /// Every pragma that suppressed at least one finding.
    pub allows: Vec<AllowSite>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// True when the tree is clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Full result of the workspace pass: the lint outcome plus the call
/// graph the interprocedural analyses ran over (for `--graph`).
pub struct Analysis {
    /// Findings, allows, and counts.
    pub outcome: Outcome,
    /// The assembled workspace call graph.
    pub graph: graph::Graph,
}

/// Load `lint.toml` from `root` (falling back to defaults when absent)
/// and lint every configured file — token rules plus the workspace
/// interprocedural pass.
pub fn run(root: &Path) -> io::Result<Outcome> {
    analyze(root).map(|a| a.outcome)
}

/// Like [`run`], but also returns the call graph.
pub fn analyze(root: &Path) -> io::Result<Analysis> {
    let cfg = load_config(root)?;
    let files = walk::rust_files(root, &cfg)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    Ok(analyze_sources(&sources, &cfg, &crate_name_map(root)))
}

/// Map `crates/<dir>` names (plus `""` for the root package) to crate
/// idents by scraping each `Cargo.toml`'s `name = "…"` — the resolver
/// needs `crates/core` → `mntp`, `crates/ntp-wire` → `ntp_wire`, etc.
pub fn crate_name_map(root: &Path) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let scrape = |path: &Path| -> Option<String> {
        let text = fs::read_to_string(path).ok()?;
        let mut in_package = false;
        for line in text.lines() {
            let l = line.trim();
            if l.starts_with('[') {
                in_package = l == "[package]";
                continue;
            }
            if in_package {
                if let Some(rest) = l.strip_prefix("name") {
                    let rest = rest.trim_start().strip_prefix('=')?.trim();
                    return Some(rest.trim_matches('"').replace('-', "_"));
                }
            }
        }
        None
    };
    if let Some(name) = scrape(&root.join("Cargo.toml")) {
        map.insert(String::new(), name);
    }
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.file_name()).collect();
        dirs.sort();
        for dir in dirs {
            let dir = dir.to_string_lossy().to_string();
            if let Some(name) = scrape(&root.join("crates").join(&dir).join("Cargo.toml")) {
                map.insert(dir, name);
            }
        }
    }
    map
}

/// The whole pipeline over in-memory sources: token rules per file,
/// item extraction, graph assembly, interprocedural analyses, then
/// pragma resolution (a pragma is "used" when it suppresses a token
/// finding, a panic seed, or an interprocedural finding).
pub fn analyze_sources(
    sources: &[(String, String)],
    cfg: &Config,
    crate_names: &BTreeMap<String, String>,
) -> Analysis {
    let mut out = Outcome::default();
    let mut seeds = analysis::Seeds::default();
    let mut file_items: Vec<(String, items::FileItems)> = Vec::with_capacity(sources.len());
    let mut pragmas_by_file: Vec<(String, Vec<rules::Pragma>)> = Vec::with_capacity(sources.len());

    for (rel, src) in sources {
        let toks = tokens::tokenize(src);
        let scan = rules::scan_tokens(&toks, |lint| {
            cfg.lint_enabled(lint.name, lint.class == Class::Panic, rel)
        });
        for f in scan.findings {
            out.findings.push(Finding {
                file: rel.clone(),
                line: f.line,
                col: f.col,
                lint: f.lint.to_string(),
                message: f.message.to_string(),
            });
        }
        for s in scan.seeds {
            let site = analysis::SeedSite { file: rel.clone(), line: s.line, col: s.col, lint: s.lint };
            match s.lint {
                "no-panic" | "no-unwrap" | "no-slice-index" => seeds.panic.push(site),
                "no-unordered-map" => seeds.unordered.push(site),
                "no-wallclock" => seeds.wallclock.push(site),
                _ => {}
            }
        }
        let tests = scan.test_lines;
        file_items.push((rel.clone(), items::extract(&toks, |line| rules::in_regions(&tests, line))));
        pragmas_by_file.push((rel.clone(), scan.pragmas));
        out.files_scanned += 1;
    }

    let g = graph::build(&file_items, crate_names);
    let mut interproc = analysis::run(&g, &seeds, cfg);

    // Pragma application for interprocedural findings: same coverage
    // rule as token findings (own line + next non-pragma line).
    interproc.retain(|f| {
        let Some((_, pragmas)) = pragmas_by_file.iter_mut().find(|(rel, _)| rel == &f.file)
        else {
            return true;
        };
        let pragma_lines: Vec<u32> = pragmas.iter().map(|p| p.line).collect();
        let mut suppressed = false;
        for p in pragmas.iter_mut() {
            let covered = p.line == f.line || {
                let mut next = p.line + 1;
                while pragma_lines.contains(&next) {
                    next += 1;
                }
                next == f.line
            };
            if p.lint == f.lint && covered {
                p.used = true;
                suppressed = true;
            }
        }
        !suppressed
    });
    out.findings.extend(interproc);

    // Pragma meta-findings and the allow audit, now that every analysis
    // has had its chance to mark pragmas used.
    for (rel, pragmas) in pragmas_by_file {
        resolve_pragmas(&rel, pragmas, &mut out);
    }

    out.findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, &a.lint).cmp(&(&b.file, b.line, b.col, &b.lint))
    });
    out.allows.sort_by(|a, b| (&a.file, a.line, &a.lint).cmp(&(&b.file, b.line, &b.lint)));
    Analysis { outcome: out, graph: g }
}

/// Turn a file's pragmas into meta-findings (`unknown-pragma`,
/// `bad-pragma`, `unused-pragma`) or audit entries.
fn resolve_pragmas(rel: &str, pragmas: Vec<rules::Pragma>, out: &mut Outcome) {
    for p in pragmas {
        if lint_by_name(&p.lint).is_none() {
            out.findings.push(Finding {
                file: rel.to_string(),
                line: p.line,
                col: p.col,
                lint: "unknown-pragma".to_string(),
                message: format!("pragma names no known lint: `{}`", p.lint),
            });
            continue;
        }
        if p.reason.is_empty() {
            out.findings.push(Finding {
                file: rel.to_string(),
                line: p.line,
                col: p.col,
                lint: "bad-pragma".to_string(),
                message: format!("lint:allow({}) needs a reason: `// lint:allow({}) — why`", p.lint, p.lint),
            });
        }
        if !p.used {
            out.findings.push(Finding {
                file: rel.to_string(),
                line: p.line,
                col: p.col,
                lint: "unused-pragma".to_string(),
                message: format!("lint:allow({}) suppresses nothing here; remove it", p.lint),
            });
            continue;
        }
        out.allows.push(AllowSite {
            file: rel.to_string(),
            line: p.line,
            lint: p.lint,
            reason: p.reason,
        });
    }
}

/// Read and parse `root/lint.toml`, or fall back to the built-in policy.
/// Every path the policy names must exist under `root`: a renamed file
/// would otherwise drop out of its policy without a word.
pub fn load_config(root: &Path) -> io::Result<Config> {
    let path = root.join("lint.toml");
    if !path.exists() {
        return Ok(Config::fallback());
    }
    let text = fs::read_to_string(&path)?;
    let cfg = config::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if let Some((section, key, p)) = cfg.named_paths().find(|(_, _, p)| !root.join(p).exists()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("lint.toml: [{section}] {key} names `{p}`, which does not exist"),
        ));
    }
    Ok(cfg)
}

/// Lint one file's source text into `out` — token rules plus the
/// interprocedural analyses over the file's own (single-file) call
/// graph. Public so tests (and the fixture suite) can lint strings
/// without touching the filesystem; multi-file fixtures go through
/// [`analyze_sources`].
pub fn lint_source(rel: &str, src: &str, cfg: &Config, out: &mut Outcome) {
    let a = analyze_sources(&[(rel.to_string(), src.to_string())], cfg, &BTreeMap::new());
    out.findings.extend(a.outcome.findings);
    out.allows.extend(a.outcome.allows);
}

/// Render the sorted `lint:allow` audit (the `--report` artifact). Every
/// line is `file:line: lint — reason`, preceded by a count header, so
/// allowlist growth shows up in review diffs.
pub fn report(out: &Outcome) -> String {
    let mut s = String::new();
    s.push_str("# lint:allow audit — regenerate with `cargo run -p devtools --bin lint -- --report`\n");
    let files: std::collections::BTreeSet<&str> =
        out.allows.iter().map(|a| a.file.as_str()).collect();
    s.push_str(&format!(
        "# {} suppression(s) across {} file(s)\n",
        out.allows.len(),
        files.len()
    ));
    for a in &out.allows {
        s.push_str(&format!("{}:{}: {} — {}\n", a.file, a.line, a.lint, a.reason));
    }
    s
}
