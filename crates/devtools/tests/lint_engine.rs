//! The lint engine's own test suite: tokenizer edge cases, rule
//! matching, test-region exemption, pragma semantics, config parsing,
//! and the fixture corpus under `lint_fixtures/` (each fixture is a
//! deliberately-dirty file asserting every lint fires exactly where
//! expected and pragmas suppress it).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use devtools::lint;
use devtools::lint::config::{self, Config};
use devtools::lint::rules::scan_file;
use devtools::lint::tokens::{tokenize, TokenKind};
use devtools::lint::{analyze_sources, lint_source, Outcome};

// ---------------------------------------------------------------- tokenizer

fn kinds(src: &str) -> Vec<(TokenKind, String)> {
    tokenize(src).into_iter().map(|t| (t.kind, t.text)).collect()
}

#[test]
fn tokenizer_nested_block_comment_is_one_token() {
    let toks = kinds("a /* x /* y */ z */ b");
    assert_eq!(toks.len(), 3);
    assert_eq!(toks[0], (TokenKind::Ident, "a".into()));
    assert_eq!(toks[1].0, TokenKind::BlockComment);
    assert_eq!(toks[1].1, "/* x /* y */ z */");
    assert_eq!(toks[2], (TokenKind::Ident, "b".into()));
}

#[test]
fn tokenizer_raw_strings_with_fencing() {
    let toks = kinds(r####"let s = r#"inner "quote" HashMap"# ;"####);
    let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Str).collect();
    assert_eq!(strs.len(), 1);
    assert!(strs[0].1.contains("HashMap"));
    // No Ident token for HashMap — it was swallowed by the raw string.
    assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "HashMap"));
}

#[test]
fn tokenizer_double_fenced_raw_string_keeps_inner_fence() {
    let toks = kinds(r#####"r##"outer r#"in"# SystemTime"## x"#####);
    assert_eq!(toks[0].0, TokenKind::Str);
    assert!(toks[0].1.contains("SystemTime"));
    assert_eq!(toks[1], (TokenKind::Ident, "x".into()));
}

#[test]
fn tokenizer_byte_and_raw_byte_strings() {
    let toks = kinds(r##"b"HashSet" br#"RandomState"# tail"##);
    assert_eq!(toks[0].0, TokenKind::Str);
    assert_eq!(toks[1].0, TokenKind::Str);
    assert_eq!(toks[2], (TokenKind::Ident, "tail".into()));
}

#[test]
fn tokenizer_char_vs_lifetime() {
    // 'a' is a char; 'a (no closing tick) is a lifetime; '\'' escapes.
    let toks = kinds(r"'a' <'a> '\'' '\n' 'static");
    let k: Vec<TokenKind> = toks.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        k,
        vec![
            TokenKind::Char,     // 'a'
            TokenKind::Punct,    // <
            TokenKind::Lifetime, // 'a
            TokenKind::Punct,    // >
            TokenKind::Char,     // '\''
            TokenKind::Char,     // '\n'
            TokenKind::Lifetime, // 'static
        ]
    );
}

#[test]
fn tokenizer_quote_char_literal_does_not_open_a_string() {
    // If '"' were mis-lexed, the rest of the line would be swallowed.
    let toks = kinds(r#"let c = '"'; let m = HashMap::new();"#);
    assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "HashMap"));
}

#[test]
fn tokenizer_path_separator_is_one_token() {
    let toks = kinds("std::thread::spawn");
    let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
    assert_eq!(texts, vec!["std", "::", "thread", "::", "spawn"]);
}

#[test]
fn tokenizer_numbers_do_not_eat_ranges_or_method_calls() {
    let texts: Vec<String> = tokenize("0..10 1.5f64 1.max(2)")
        .into_iter()
        .map(|t| t.text)
        .collect();
    assert_eq!(texts, vec!["0", ".", ".", "10", "1.5f64", "1", ".", "max", "(", "2", ")"]);
}

#[test]
fn tokenizer_positions_are_one_based_lines_and_cols() {
    let toks = tokenize("ab\n  cd");
    assert_eq!((toks[0].line, toks[0].col), (1, 1));
    assert_eq!((toks[1].line, toks[1].col), (2, 3));
}

#[test]
fn tokenizer_line_comment_runs_to_newline_only() {
    let toks = kinds("x // HashMap here\ny");
    assert_eq!(toks[0].1, "x");
    assert_eq!(toks[1].0, TokenKind::LineComment);
    assert_eq!(toks[2].1, "y");
}

// ---------------------------------------------------------------- matching

fn scan_all(src: &str) -> Vec<(String, u32)> {
    scan_file(src, |_| true).findings.into_iter().map(|f| (f.lint.to_string(), f.line)).collect()
}

#[test]
fn slice_index_flags_expressions_not_types_attrs_or_macros() {
    let clean = r"
#[derive(Clone)]
struct S { a: [u8; 4] }
fn f(x: &[u8]) -> Vec<u8> {
    let v = vec![1, 2];
    let [p, q] = [3, 4];
    let arr: [[u8; 2]; 2] = [[0; 2]; 2];
    v
}
";
    assert!(
        !scan_all(clean).iter().any(|(l, _)| l == "no-slice-index"),
        "false positives: {:?}",
        scan_all(clean)
    );
    let dirty = "fn f(v: &[u8]) -> u8 { v[0] + v.as_ref()[1] }";
    let hits: Vec<_> =
        scan_all(dirty).into_iter().filter(|(l, _)| l == "no-slice-index").collect();
    assert_eq!(hits.len(), 2);
}

#[test]
fn cfg_test_modules_are_exempt_from_panic_lints_only() {
    let src = r#"
fn hot(o: Option<u32>) -> u32 { o.unwrap() }
#[cfg(test)]
mod tests {
    fn helper(o: Option<u32>) -> u32 { o.unwrap() }
    #[test]
    fn t() {
        let m = std::collections::HashMap::new();
        helper(None);
    }
}
"#;
    let found = scan_all(src);
    let unwraps: Vec<_> = found.iter().filter(|(l, _)| l == "no-unwrap").collect();
    assert_eq!(unwraps.len(), 1, "only the non-test unwrap: {found:?}");
    assert_eq!(unwraps[0].1, 2);
    // Determinism lints still apply inside the test module.
    assert!(found.iter().any(|(l, line)| l == "no-unordered-map" && *line == 8));
}

#[test]
fn cfg_not_test_is_not_a_test_region() {
    let src = r#"
#[cfg(not(test))]
fn live(o: Option<u32>) -> u32 { o.unwrap() }
"#;
    assert!(scan_all(src).iter().any(|(l, _)| l == "no-unwrap"));
}

#[test]
fn test_attribute_on_fn_is_exempt() {
    let src = r#"
#[test]
fn t(o: Option<u32>) { o.unwrap(); }
"#;
    assert!(!scan_all(src).iter().any(|(l, _)| l == "no-unwrap"));
}

// ---------------------------------------------------------------- pragmas

fn lint_str(rel: &str, src: &str, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    lint_source(rel, src, cfg, &mut out);
    out
}

fn hotpath_cfg() -> Config {
    let mut cfg = Config::fallback();
    cfg.panic_paths = vec!["hot.rs".into()];
    cfg
}

#[test]
fn pragma_suppresses_same_line_and_next_line() {
    let src = "// lint:allow(no-unordered-map) — reason one\nlet m = HashMap::new();\nlet n = HashMap::new();\n";
    let out = lint_str("x.rs", src, &Config::fallback());
    let maps: Vec<_> = out.findings.iter().filter(|f| f.lint == "no-unordered-map").collect();
    assert_eq!(maps.len(), 1, "line 3 is uncovered: {:?}", out.findings);
    assert_eq!(maps[0].line, 3);
    assert_eq!(out.allows.len(), 1);
    assert_eq!(out.allows[0].reason, "reason one");
}

#[test]
fn stacked_pragmas_cover_the_statement_below() {
    let src = "// lint:allow(no-unordered-map) — a\n// lint:allow(no-wallclock) — b\nlet m = HashMap::new(); let t = SystemTime::now();\n";
    let out = lint_str("x.rs", src, &Config::fallback());
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert_eq!(out.allows.len(), 2);
}

#[test]
fn pragma_without_reason_is_a_finding() {
    let src = "// lint:allow(no-unordered-map)\nlet m = HashMap::new();\n";
    let out = lint_str("x.rs", src, &Config::fallback());
    assert!(out.findings.iter().any(|f| f.lint == "bad-pragma"));
    assert!(!out.findings.iter().any(|f| f.lint == "no-unordered-map"));
}

#[test]
fn unknown_and_unused_pragmas_are_findings() {
    let src = "// lint:allow(no-such-lint) — typo\nlet a = 1;\n// lint:allow(no-wallclock) — dead\nlet b = 2;\n";
    let out = lint_str("x.rs", src, &Config::fallback());
    assert!(out.findings.iter().any(|f| f.lint == "unknown-pragma" && f.line == 1));
    assert!(out.findings.iter().any(|f| f.lint == "unused-pragma" && f.line == 3));
    assert!(out.allows.is_empty());
}

#[test]
fn prose_describing_the_syntax_is_not_a_pragma() {
    let src = "// pragmas look like `lint:allow(<name>) — <reason>`\nlet a = 1;\n";
    let out = lint_str("x.rs", src, &Config::fallback());
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

// ---------------------------------------------------------------- config

#[test]
fn config_parses_sections_arrays_and_comments() {
    let text = r#"
# comment
[workspace]
roots = ["crates", "tests"]  # trailing comment
exclude = [
    "crates/devtools/tests/lint_fixtures",
]

[skip]
no-wallclock = ["crates/devtools/src/bench.rs"]

[panic]
paths = ["crates/sntp/src"]
"#;
    let cfg = config::parse(text).expect("parses");
    assert_eq!(cfg.roots, vec!["crates", "tests"]);
    assert_eq!(cfg.exclude, vec!["crates/devtools/tests/lint_fixtures"]);
    assert_eq!(cfg.skip["no-wallclock"], vec!["crates/devtools/src/bench.rs"]);
    assert_eq!(cfg.panic_paths, vec!["crates/sntp/src"]);
}

#[test]
fn config_rejects_malformed_lines() {
    assert!(config::parse("[workspace\n").is_err());
    assert!(config::parse("[skip]\nnot a kv line\n").is_err());
    assert!(config::parse("[skip]\nx = [\"unterminated\"\n").is_err());
}

#[test]
fn config_scoping_prefix_semantics() {
    let mut cfg = Config::fallback();
    cfg.skip.insert("no-wallclock".into(), vec!["crates/devtools".into()]);
    cfg.panic_paths = vec!["crates/sntp/src".into()];
    assert!(!cfg.lint_enabled("no-wallclock", false, "crates/devtools/src/bench.rs"));
    assert!(cfg.lint_enabled("no-wallclock", false, "crates/devtools2/src/lib.rs"));
    assert!(cfg.lint_enabled("no-unwrap", true, "crates/sntp/src/pool.rs"));
    assert!(!cfg.lint_enabled("no-unwrap", true, "crates/core/src/filter.rs"));
    // Bin targets own their exit codes.
    assert!(!cfg.lint_enabled("no-process", false, "crates/tuner/src/bin/mntp-tuner.rs"));
    assert!(cfg.lint_enabled("no-process", false, "crates/tuner/src/lib.rs"));
}

#[test]
fn load_config_rejects_a_policy_path_that_names_nothing() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_stale_policy_path");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/a/src")).unwrap();
    std::fs::write(root.join("crates/a/src/lib.rs"), "pub fn f() {}\n").unwrap();
    let policy = |hot: &str| {
        format!(
            r#"
[workspace]
roots = ["crates"]

[panic]
paths = ["crates/a/src", "{hot}"]
"#
        )
    };
    std::fs::write(root.join("lint.toml"), policy("crates/a/src/lib.rs")).unwrap();
    assert!(lint::load_config(&root).is_ok());
    std::fs::write(root.join("lint.toml"), policy("crates/a/src/gone.rs")).unwrap();
    let err = lint::load_config(&root).expect_err("a stale [panic] path must not load");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("[panic] paths") && msg.contains("`crates/a/src/gone.rs`"), "{msg}");
    assert!(lint::analyze(&root).is_err(), "the linter must refuse the stale policy");
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------- fixtures

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/lint_fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn lines_of(out: &Outcome, lint: &str) -> Vec<u32> {
    out.findings.iter().filter(|f| f.lint == lint).map(|f| f.line).collect()
}

#[test]
fn fixture_determinism_fires_on_every_site() {
    let out = lint_str("fx/determinism.rs", &fixture("determinism.rs"), &Config::fallback());
    assert_eq!(lines_of(&out, "no-unordered-map"), vec![2, 5, 5, 6, 7]);
    assert_eq!(lines_of(&out, "no-wallclock"), vec![3, 3, 8, 9]);
    assert_eq!(lines_of(&out, "no-env"), vec![10]);
    assert_eq!(out.findings.len(), 10, "{:?}", out.findings);
}

#[test]
fn fixture_concurrency_fires_on_every_site() {
    let out = lint_str("fx/concurrency.rs", &fixture("concurrency.rs"), &Config::fallback());
    assert_eq!(lines_of(&out, "no-thread-spawn"), vec![3, 4]);
    assert_eq!(lines_of(&out, "no-static-mut"), vec![6]);
    assert_eq!(lines_of(&out, "no-unsafe"), vec![7, 9]);
    assert_eq!(out.findings.len(), 5, "{:?}", out.findings);
}

#[test]
fn fixture_panic_fires_outside_tests_only() {
    let out = lint_str("hot.rs", &fixture("panic.rs"), &hotpath_cfg());
    assert_eq!(lines_of(&out, "no-unwrap"), vec![4, 5]);
    assert_eq!(lines_of(&out, "no-panic"), vec![7, 10]);
    assert_eq!(lines_of(&out, "no-slice-index"), vec![13, 17]);
    assert_eq!(out.findings.len(), 6, "{:?}", out.findings);
}

#[test]
fn fixture_panic_is_silent_outside_hot_paths() {
    let out = lint_str("cold.rs", &fixture("panic.rs"), &Config::fallback());
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn fixture_hermeticity_fires_on_every_site() {
    let out = lint_str("fx/hermeticity.rs", &fixture("hermeticity.rs"), &Config::fallback());
    // Line 4 fires twice: both the `process::` and `Command::new` patterns.
    assert_eq!(lines_of(&out, "no-process"), vec![3, 4, 4]);
    // std::net:: and UdpSocket both fire on line 5; TcpListener on 6.
    assert_eq!(lines_of(&out, "no-socket"), vec![5, 5, 6]);
    assert_eq!(out.findings.len(), 6, "{:?}", out.findings);
}

#[test]
fn fixture_hermeticity_process_exempt_in_bins() {
    let out =
        lint_str("crates/x/src/bin/tool.rs", &fixture("hermeticity.rs"), &Config::fallback());
    assert!(lines_of(&out, "no-process").is_empty());
    assert_eq!(lines_of(&out, "no-socket").len(), 3);
}

#[test]
fn fixture_pragmas_suppress_and_audit() {
    let out = lint_str("fx/pragmas.rs", &fixture("pragmas.rs"), &Config::fallback());
    // Suppressed: HashMap on 4 (standalone), HashSet on 5 (trailing),
    // HashMap on 7 (reasonless pragma on 6 — still suppresses, but is a
    // bad-pragma finding), HashMap + SystemTime on 15 (stacked pair).
    assert!(lines_of(&out, "no-unordered-map").is_empty(), "{:?}", out.findings);
    assert!(lines_of(&out, "no-wallclock").is_empty(), "{:?}", out.findings);
    assert_eq!(lines_of(&out, "bad-pragma"), vec![6]);
    assert_eq!(lines_of(&out, "unknown-pragma"), vec![8]);
    assert_eq!(lines_of(&out, "unused-pragma"), vec![10]);
    // The audit records every *used* pragma (even the reasonless one).
    let audited: Vec<u32> = out.allows.iter().map(|a| a.line).collect();
    assert_eq!(audited, vec![3, 5, 6, 12, 13]);
}

#[test]
fn fixture_tokenizer_tricky_only_real_code_fires() {
    let out = lint_str("fx/tricky.rs", &fixture("tokenizer_tricky.rs"), &Config::fallback());
    assert_eq!(lines_of(&out, "no-unordered-map"), vec![14, 19], "{:?}", out.findings);
    assert_eq!(out.findings.len(), 2, "{:?}", out.findings);
}

// ---------------------------------------------------------------- report

#[test]
fn report_is_sorted_and_counts_suppressions() {
    let sources = [
        ("b.rs", "// lint:allow(no-unordered-map) — b\nlet m = HashMap::new();\n"),
        ("a.rs", "// lint:allow(no-wallclock) — a\nlet t = SystemTime::now();\n"),
    ]
    .map(|(rel, src)| (rel.to_string(), src.to_string()));
    let analysis = analyze_sources(&sources, &Config::fallback(), &BTreeMap::new());
    let rep = devtools::lint::report(&analysis);
    assert!(rep.starts_with("# lint:allow audit"));
    assert!(rep.contains("# 2 suppression(s) across 2 file(s)"));
    let a = rep.find("a.rs:1: no-wallclock — a").expect("a.rs line");
    let b = rep.find("b.rs:1: no-unordered-map — b").expect("b.rs line");
    assert!(a < b, "sorted by file");
}

// ------------------------------------------------------- config strictness

#[test]
fn config_rejects_unknown_section_with_line_number() {
    let err = config::parse("[workspace]\nroots = [\"crates\"]\n\n[typo]\nx = []\n").unwrap_err();
    assert!(err.contains("lint.toml:4"), "{err}");
    assert!(err.contains("unknown section `[typo]`"), "{err}");
}

#[test]
fn config_rejects_duplicate_keys_with_line_number() {
    let err = config::parse("[workspace]\nroots = [\"a\"]\nroots = [\"b\"]\n").unwrap_err();
    assert!(err.contains("lint.toml:3"), "{err}");
    assert!(err.contains("duplicate key `roots`"), "{err}");
}

#[test]
fn config_rejects_unknown_keys_and_key_before_section() {
    let err = config::parse("[workspace]\nrots = [\"a\"]\n").unwrap_err();
    assert!(err.contains("lint.toml:2") && err.contains("unknown key `rots`"), "{err}");
    let err = config::parse("roots = [\"a\"]\n").unwrap_err();
    assert!(err.contains("lint.toml:1") && err.contains("before any [section]"), "{err}");
}

#[test]
fn config_rejects_skip_keys_naming_no_lint() {
    let err = config::parse("[skip]\nno-typo = [\"src\"]\n").unwrap_err();
    assert!(err.contains("lint.toml:2") && err.contains("names no known lint"), "{err}");
}

#[test]
fn config_parses_interproc_artifact_paths() {
    let cfg = config::parse("[interproc]\nartifact_paths = [\"crates/experiments/src\"]\n")
        .expect("parses");
    assert_eq!(cfg.artifact_paths, vec!["crates/experiments/src"]);
}

// ------------------------------------------------------------- call graph

fn cg_sources(names: &[(&str, &str)]) -> Vec<(String, String)> {
    names
        .iter()
        .map(|(rel, file)| ((*rel).to_string(), fixture(&format!("callgraph/{file}"))))
        .collect()
}

#[test]
fn callgraph_cross_module_panic_chain_is_reported_with_full_chain() {
    let mut cfg = Config::fallback();
    cfg.panic_paths = vec!["fxchain/chain_entry.rs".into()];
    let sources = cg_sources(&[
        ("fxchain/chain_entry.rs", "chain_entry.rs"),
        ("fxchain/chain_mid.rs", "chain_mid.rs"),
        ("fxchain/chain_deep.rs", "chain_deep.rs"),
    ]);
    let a = analyze_sources(&sources, &cfg, &BTreeMap::new());
    let hits: Vec<_> =
        a.outcome.findings.iter().filter(|f| f.lint == "panic-reachability").collect();
    assert_eq!(hits.len(), 1, "{:?}", a.outcome.findings);
    let f = hits[0];
    assert_eq!((f.file.as_str(), f.line, f.col), ("fxchain/chain_entry.rs", 6, 8));
    assert!(
        f.message.contains("fxchain::chain_entry::poll_once (fxchain/chain_entry.rs:6)"),
        "{}",
        f.message
    );
    assert!(
        f.message.contains("-> fxchain::chain_mid::advance (fxchain/chain_mid.rs:4)"),
        "{}",
        f.message
    );
    assert!(
        f.message.contains("-> fxchain::chain_deep::commit (fxchain/chain_deep.rs:4)"),
        "{}",
        f.message
    );
    assert!(f.message.contains("no-slice-index site at fxchain/chain_deep.rs:5"), "{}", f.message);
    // The seed file is outside the hot set, so the reachability finding
    // is the only finding, and both chain hops are exact edges.
    assert_eq!(a.outcome.findings.len(), 1, "{:?}", a.outcome.findings);
    let (exact, approx, _) = a.graph.edge_counts();
    assert_eq!((exact, approx), (2, 0));
}

#[test]
fn callgraph_par_captured_rng_fires_only_on_captured_draw() {
    let sources = cg_sources(&[("fxpar/par_rng.rs", "par_rng.rs")]);
    let a = analyze_sources(&sources, &Config::fallback(), &BTreeMap::new());
    let hits: Vec<_> = a.outcome.findings.iter().filter(|f| f.lint == "par-captured-rng").collect();
    assert_eq!(hits.len(), 1, "{:?}", a.outcome.findings);
    let f = hits[0];
    assert_eq!((f.file.as_str(), f.line), ("fxpar/par_rng.rs", 5));
    assert!(f.message.contains("`rng.next_u64()`"), "{}", f.message);
    assert!(f.message.contains("par_map"), "{}", f.message);
    // The per-item forked variant stays silent.
    assert_eq!(a.outcome.findings.len(), 1, "{:?}", a.outcome.findings);
}

#[test]
fn callgraph_map_iteration_taints_artifact_entry_point() {
    let mut cfg = Config::fallback();
    cfg.artifact_paths = vec!["fxart/taint_emit.rs".into()];
    let sources = cg_sources(&[
        ("fxart/taint_emit.rs", "taint_emit.rs"),
        ("fxart/taint_maps.rs", "taint_maps.rs"),
    ]);
    let a = analyze_sources(&sources, &cfg, &BTreeMap::new());
    let hits: Vec<_> = a.outcome.findings.iter().filter(|f| f.lint == "map-order-taint").collect();
    assert_eq!(hits.len(), 1, "{:?}", a.outcome.findings);
    let f = hits[0];
    assert_eq!((f.file.as_str(), f.line, f.col), ("fxart/taint_emit.rs", 4, 8));
    assert!(f.message.contains("fxart::taint_maps::render_rows"), "{}", f.message);
    assert!(f.message.contains("no-unordered-map site at fxart/taint_maps.rs:4"), "{}", f.message);
    // The local token lint fires too — a pragma there would justify the
    // local use but must not silence the artifact-path taint.
    assert_eq!(lines_of(&a.outcome, "no-unordered-map"), vec![4]);
}

#[test]
fn callgraph_wallclock_taint_fires_on_exact_cross_crate_edge() {
    let mut crates = BTreeMap::new();
    crates.insert("fxwa".to_string(), "fxwa".to_string());
    crates.insert("fxwb".to_string(), "fxwb".to_string());
    let sources =
        cg_sources(&[("fxwa/wall_a.rs", "wall_a.rs"), ("fxwb/wall_b.rs", "wall_b.rs")]);
    let a = analyze_sources(&sources, &Config::fallback(), &crates);
    let hits: Vec<_> = a.outcome.findings.iter().filter(|f| f.lint == "wallclock-taint").collect();
    assert_eq!(hits.len(), 1, "{:?}", a.outcome.findings);
    let f = hits[0];
    assert_eq!((f.file.as_str(), f.line), ("fxwa/wall_a.rs", 6));
    assert!(f.message.contains("fxwb::wall_b::now_epoch_ms"), "{}", f.message);
    assert!(f.message.contains("no-wallclock site at fxwb/wall_b.rs:4"), "{}", f.message);
    // The reader's own token finding still fires inside its crate.
    assert_eq!(lines_of(&a.outcome, "no-wallclock"), vec![4]);

    // Skip-listing the reader makes it an audited boundary (like the
    // bench harness): no token finding, no seed, no taint.
    let mut cfg = Config::fallback();
    cfg.skip.insert("no-wallclock".into(), vec!["fxwb/wall_b.rs".into()]);
    let a2 = analyze_sources(&sources, &cfg, &crates);
    assert!(a2.outcome.findings.is_empty(), "{:?}", a2.outcome.findings);
}

#[test]
fn callgraph_summary_of_the_fixture_corpus_is_pinned() {
    let mut crates = BTreeMap::new();
    crates.insert("fxwa".to_string(), "fxwa".to_string());
    crates.insert("fxwb".to_string(), "fxwb".to_string());
    let mut sources = cg_sources(&[
        ("fxchain/chain_entry.rs", "chain_entry.rs"),
        ("fxchain/chain_mid.rs", "chain_mid.rs"),
        ("fxchain/chain_deep.rs", "chain_deep.rs"),
        ("fxpar/par_rng.rs", "par_rng.rs"),
        ("fxart/taint_emit.rs", "taint_emit.rs"),
        ("fxart/taint_maps.rs", "taint_maps.rs"),
        ("fxwa/wall_a.rs", "wall_a.rs"),
        ("fxwb/wall_b.rs", "wall_b.rs"),
    ]);
    let pinned = "\
# call-graph summary — the full graph prints with `cargo run -p devtools --bin lint -- --graph`
# 9 nodes (0 test nodes omitted), 4 exact edges, 0 approx edges, 22 unresolved names
# 5 crate key(s), test nodes and edges into them left out: fns, exact edges, approx edges, unresolved names
fxart: 2 fn(s), 1 exact, 0 approx, 8 unresolved
fxchain: 3 fn(s), 2 exact, 0 approx, 0 unresolved
fxpar: 2 fn(s), 0 exact, 0 approx, 9 unresolved
fxwa: 1 fn(s), 1 exact, 0 approx, 0 unresolved
fxwb: 1 fn(s), 0 exact, 0 approx, 5 unresolved
# 19 distinct unresolved name(s)
? .as_millis
? .clone
? .collect
? .duration_since
? .entry
? .fork
? .iter
? .map
? .next_u64
? .or_insert
? .push
? .push_str
? .to_string
? .unwrap_or
? .wrapping_add
? String::new
? par_map
? std::collections::HashMap::new
? std::time::SystemTime::now
";
    let a = analyze_sources(&sources, &Config::fallback(), &crates);
    let summary = lint::graph::summary(&a.graph);
    assert_eq!(summary, pinned);
    // The totals line is `--graph`'s third header line.
    assert_eq!(summary.lines().nth(1), lint::graph::render(&a.graph).lines().nth(2));
    assert_totals_equal_row_sums(&summary);

    // A test node's own edges and names, and the approximate edge from
    // `probe` into it, stay out of the totals line, the rows and the
    // name list, as they stay out of `--graph`'s body.
    sources.push((
        "fxchain/chain_tests.rs".to_string(),
        "pub fn probe() -> f64 {\n    helper()\n}\n\n#[cfg(test)]\nmod tests {\n    \
         pub fn helper() -> f64 {\n        f64::max(crate::chain_entry::poll_once(&[1.0]), 0.0)\n    \
         }\n}\n"
            .to_string(),
    ));
    let b = analyze_sources(&sources, &Config::fallback(), &crates);
    let want = pinned
        .replace(
            "# 9 nodes (0 test nodes omitted), 4 exact edges, 0 approx edges, 22 unresolved names",
            "# 10 nodes (1 test nodes omitted), 4 exact edges, 0 approx edges, 22 unresolved names",
        )
        .replace("fxchain: 3 fn(s)", "fxchain: 4 fn(s)");
    let summary = lint::graph::summary(&b.graph);
    assert_eq!(summary, want);
    assert_totals_equal_row_sums(&summary);
}

/// The summary's totals line (its second) names the exact, approx and
/// unresolved counts the per-crate rows sum to.
fn assert_totals_equal_row_sums(summary: &str) {
    let mut sums = [0usize; 3];
    for row in summary.lines().filter(|l| !l.starts_with('#') && !l.starts_with('?')) {
        // `krate: F fn(s), E exact, A approx, U unresolved`
        for (sum, col) in sums.iter_mut().zip(row.split(", ").skip(1)) {
            *sum += col.split(' ').next().and_then(|n| n.parse::<usize>().ok()).expect(row);
        }
    }
    let want = format!("{} exact edges, {} approx edges, {} unresolved names", sums[0], sums[1], sums[2]);
    assert!(summary.lines().nth(1).is_some_and(|l| l.ends_with(&want)), "{want}\n{summary}");
}
