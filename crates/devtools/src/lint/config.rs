//! `lint.toml` — per-path lint policy.
//!
//! A deliberately small TOML subset (the workspace is hermetic, so no
//! TOML crate): `[section]` headers, `key = ["a", "b"]` string arrays
//! (single- or multi-line), and `#` comments. That is everything the
//! policy file needs:
//!
//! ```toml
//! [workspace]
//! roots   = ["crates", "src", "tests", "examples"]
//! exclude = ["crates/devtools/tests/lint_fixtures"]
//!
//! [skip]
//! # lint-name = [path prefixes where the lint does not run]
//! no-wallclock = ["crates/devtools/src/bench.rs"]
//!
//! [panic]
//! # panic-policy lints run ONLY under these paths (the hot-path set)
//! paths = ["crates/sntp/src", "crates/core/src/engine.rs"]
//! ```
//!
//! All paths are `/`-separated and relative to the repo root; a prefix
//! matches the path itself or anything below it.

use std::collections::BTreeMap;

/// Parsed policy.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Directories (relative to root) the walker descends into.
    pub roots: Vec<String>,
    /// Path prefixes excluded from walking entirely (fixture corpora).
    pub exclude: Vec<String>,
    /// lint name → path prefixes where that lint is skipped.
    pub skip: BTreeMap<String, Vec<String>>,
    /// Path prefixes where the panic-policy class applies.
    pub panic_paths: Vec<String>,
    /// Path prefixes whose functions are artifact-emitting entry points
    /// for the map-order-taint analysis (`[interproc] artifact_paths`).
    pub artifact_paths: Vec<String>,
}

impl Config {
    /// Policy used when no `lint.toml` exists: walk the conventional
    /// roots, apply every lint everywhere, panic policy nowhere.
    pub fn fallback() -> Config {
        Config {
            roots: vec!["crates".into(), "src".into(), "tests".into(), "examples".into()],
            ..Config::default()
        }
    }

    /// Every path the policy names, as `(section, key, path)`.
    pub(crate) fn named_paths(&self) -> impl Iterator<Item = (&'static str, &str, &str)> + '_ {
        let lists: [(&'static str, &str, &[String]); 4] = [
            ("workspace", "roots", &self.roots),
            ("workspace", "exclude", &self.exclude),
            ("panic", "paths", &self.panic_paths),
            ("interproc", "artifact_paths", &self.artifact_paths),
        ];
        let skips = self.skip.iter().map(|(lint, paths)| ("skip", lint.as_str(), paths.as_slice()));
        lists
            .into_iter()
            .chain(skips)
            .flat_map(|(section, key, paths)| paths.iter().map(move |p| (section, key, p.as_str())))
    }

    /// Does `lint` apply to `path` (a `/`-separated root-relative path)?
    pub fn lint_enabled(&self, lint: &str, is_panic_class: bool, path: &str) -> bool {
        if is_panic_class && !self.panic_paths.iter().any(|p| path_has_prefix(path, p)) {
            return false;
        }
        if let Some(prefixes) = self.skip.get(lint) {
            if prefixes.iter().any(|p| path_has_prefix(path, p)) {
                return false;
            }
        }
        // Bin targets own their process: exit codes are their interface.
        if lint == "no-process" && (path.contains("/bin/") || path.ends_with("main.rs")) {
            return false;
        }
        true
    }
}

/// True when `path` equals `prefix` or lives below it.
pub fn path_has_prefix(path: &str, prefix: &str) -> bool {
    path == prefix
        || (path.len() > prefix.len()
            && path.starts_with(prefix)
            && path.as_bytes()[prefix.len()] == b'/')
}

/// Sections the policy file may contain.
const SECTIONS: &[&str] = &["workspace", "skip", "panic", "interproc"];

/// Parse the config text. The parser is strict: unknown section names,
/// unknown keys, duplicate keys, and `[skip]` entries naming no known
/// lint are all line-numbered errors — a typo'd policy must fail loud,
/// not silently lint less.
pub fn parse(text: &str) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut section = String::new();
    let mut seen: std::collections::BTreeSet<(String, String)> = std::collections::BTreeSet::new();
    let mut lines = text.lines().enumerate();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(format!("lint.toml:{}: unterminated section header", lineno + 1));
            };
            section = name.trim().to_string();
            if !SECTIONS.contains(&section.as_str()) {
                return Err(format!(
                    "lint.toml:{}: unknown section `[{}]` (expected one of: {})",
                    lineno + 1,
                    section,
                    SECTIONS.join(", "),
                ));
            }
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(format!("lint.toml:{}: expected `key = [..]`", lineno + 1));
        };
        let key = line[..eq].trim().to_string();
        if section.is_empty() {
            return Err(format!("lint.toml:{}: `{key}` appears before any [section]", lineno + 1));
        }
        if !seen.insert((section.clone(), key.clone())) {
            return Err(format!(
                "lint.toml:{}: duplicate key `{key}` in section `[{section}]`",
                lineno + 1,
            ));
        }
        let mut value = line[eq + 1..].trim().to_string();
        // Multi-line arrays: keep consuming until the bracket closes.
        while !value.contains(']') {
            let Some((_, cont)) = lines.next() else {
                return Err(format!("lint.toml:{}: unterminated array", lineno + 1));
            };
            value.push(' ');
            value.push_str(strip_comment(cont).trim());
        }
        let items = parse_string_array(&value)
            .map_err(|e| format!("lint.toml:{}: {e}", lineno + 1))?;
        match (section.as_str(), key.as_str()) {
            ("workspace", "roots") => cfg.roots = items,
            ("workspace", "exclude") => cfg.exclude = items,
            ("panic", "paths") => cfg.panic_paths = items,
            ("interproc", "artifact_paths") => cfg.artifact_paths = items,
            ("skip", lint) => {
                if super::rules::lint_by_name(lint).is_none() {
                    return Err(format!(
                        "lint.toml:{}: `[skip]` key `{lint}` names no known lint",
                        lineno + 1,
                    ));
                }
                cfg.skip.insert(lint.to_string(), items);
            }
            (s, k) => {
                return Err(format!("lint.toml:{}: unknown key `{k}` in section `[{s}]`", lineno + 1));
            }
        }
    }
    if cfg.roots.is_empty() {
        cfg.roots = Config::fallback().roots;
    }
    Ok(cfg)
}

/// Remove a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `["a", "b"]` into its items.
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected a string array, got `{v}`"))?;
    let mut out = Vec::new();
    for piece in inner.split(',') {
        let p = piece.trim();
        if p.is_empty() {
            continue; // trailing comma
        }
        let s = p
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("expected a quoted string, got `{p}`"))?;
        out.push(s.to_string());
    }
    Ok(out)
}
