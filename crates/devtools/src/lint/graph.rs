//! Workspace call-graph assembly.
//!
//! Takes every file's [`FileItems`] and builds one graph whose
//! nodes are function definitions and whose edges are call sites,
//! classified by how the callee was resolved (DESIGN.md §8):
//!
//! - **exact** (`=`) — absolute/relative paths resolved through the
//!   crate map, `use` declarations (including renames, groups, and one
//!   level of re-export), `crate`/`self`/`super`/`Self` keywords, and
//!   `Type::method` against the workspace's `impl` blocks;
//! - **approx** (`~`) — method calls matched by name (with receiver
//!   type hints narrowing when available) and trait-dispatch fan-out to
//!   every implementation; callers must treat these as "may call";
//! - **unresolved** (`?`) — call sites whose callee lives outside the
//!   workspace (std, mostly) or defeats the resolver; recorded per
//!   node, never silently dropped.
//!
//! Type and trait names are assumed workspace-unique (they are, and a
//! collision only widens the approximation — still conservative).

use std::collections::{BTreeMap, BTreeSet};

use super::items::{CallKind, FileItems, RngCapture};

/// Edge classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Callee identified through path/type resolution.
    Exact,
    /// Callee matched by name or trait fan-out; treat as "may call".
    Approx,
}

/// One call edge, with the first call site's position for diagnostics.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// Resolution confidence.
    pub kind: EdgeKind,
    /// 1-based line of the (first) call site.
    pub line: u32,
    /// 1-based column of the (first) call site.
    pub col: u32,
}

/// One function definition in the workspace.
#[derive(Clone, Debug)]
pub struct Node {
    /// Root-relative file path.
    pub file: String,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// Column of the `fn` name.
    pub col: u32,
    /// Crate key (`sntp`, `mntp`, or a `bin:`/`test:` pseudo-crate).
    pub krate: String,
    /// Module path inside the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// Enclosing `impl`/`trait` type, when any.
    pub impl_type: Option<String>,
    /// Function name.
    pub name: String,
    /// Inside a `#[cfg(test)]`/`#[test]` region — excluded from analyses.
    pub is_test: bool,
    /// Inclusive line extent of the definition.
    pub body: (u32, u32),
    /// Captured-RNG draws in par closures (determinism-taint input).
    pub rng_captures: Vec<RngCapture>,
}

impl Node {
    /// Canonical display path: `krate::module::Type::name`.
    pub fn display(&self) -> String {
        let mut s = self.krate.clone();
        for m in &self.module {
            s.push_str("::");
            s.push_str(m);
        }
        if let Some(t) = &self.impl_type {
            s.push_str("::");
            s.push_str(t);
        }
        s.push_str("::");
        s.push_str(&self.name);
        s
    }
}

/// The assembled workspace graph.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// All function nodes, in deterministic (file, position) order.
    pub nodes: Vec<Node>,
    /// Outgoing edges per node, deduped by callee, insertion-ordered.
    pub edges: Vec<Vec<Edge>>,
    /// Unresolved callee names per node, sorted and deduped. Method
    /// names carry a leading `.`.
    pub unresolved: Vec<Vec<String>>,
}

impl Graph {
    /// (exact, approx, unresolved-name) totals of the graph [`render`]
    /// prints: test nodes and edges into them are left out.
    pub fn edge_counts(&self) -> (usize, usize, usize) {
        let mut totals = (0, 0, 0);
        for i in (0..self.nodes.len()).filter(|&i| !self.nodes[i].is_test) {
            let (exact, approx, unres) = self.node_counts(i);
            totals = (totals.0 + exact, totals.1 + approx, totals.2 + unres);
        }
        totals
    }

    /// Node `i`'s (exact, approx, unresolved-name) counts, edges into
    /// test nodes left out: the one counter behind [`Graph::edge_counts`]
    /// and [`summary`]'s rows.
    fn node_counts(&self, i: usize) -> (usize, usize, usize) {
        let mut counts = (0, 0, self.unresolved[i].len());
        for e in self.edges[i].iter().filter(|e| !self.nodes[e.to].is_test) {
            match e.kind {
                EdgeKind::Exact => counts.0 += 1,
                EdgeKind::Approx => counts.1 += 1,
            }
        }
        counts
    }

    /// Node index for a (file, line) position — the innermost function
    /// whose extent contains the line.
    pub fn node_at(&self, file: &str, line: u32) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.file == file && line >= n.body.0 && line <= n.body.1 {
                let tighter = best.map_or(true, |b| {
                    let bb = &self.nodes[b];
                    (n.body.1 - n.body.0) < (bb.body.1 - bb.body.0)
                });
                if tighter {
                    best = Some(i);
                }
            }
        }
        best
    }
}

/// std container/type names whose methods never resolve into the
/// workspace: a typed receiver hint naming one of these makes the call
/// site unresolved instead of name-approximate, cutting `vec.push(..)`
/// -style noise without losing workspace edges.
fn is_std_type(t: &str) -> bool {
    matches!(
        t,
        "Vec" | "VecDeque"
            | "String"
            | "str"
            | "BTreeMap"
            | "BTreeSet"
            | "BinaryHeap"
            | "Option"
            | "Result"
            | "Box"
            | "Rc"
            | "Arc"
            | "RefCell"
            | "Cell"
            | "Mutex"
            | "RwLock"
            | "PathBuf"
            | "Path"
            | "File"
            | "Duration"
            | "Range"
            | "Ordering"
            | "Cow"
            | "OsString"
            | "OsStr"
            | "Formatter"
            | "Write"
            | "Read"
            | "BufWriter"
            | "BufReader"
            | "Sender"
            | "Receiver"
            | "u8"
            | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
            | "bool"
            | "char"
    )
}

/// Derive (crate key, module path) for a root-relative file path.
/// `crate_names` maps `crates/<dir>` dir names to package idents
/// (`core` → `mntp`); bins, tests, and examples become pseudo-crates
/// (their `crate::` is file-local, and nothing imports them).
pub fn file_crate_module(rel: &str, crate_names: &BTreeMap<String, String>) -> (String, Vec<String>) {
    let parts: Vec<&str> = rel.split('/').collect();
    let stem = |s: &str| s.trim_end_matches(".rs").to_string();
    let module_of = |rest: &[&str]| -> Vec<String> {
        let mut m: Vec<String> = rest.iter().map(|p| stem(p)).collect();
        match m.last().map(String::as_str) {
            Some("mod") => {
                m.pop();
            }
            Some("lib") if m.len() == 1 => {
                m.pop();
            }
            _ => {}
        }
        m
    };
    if parts.len() >= 3 && parts[0] == "crates" {
        let dir = parts[1];
        let name = crate_names.get(dir).cloned().unwrap_or_else(|| dir.replace('-', "_"));
        match parts[2] {
            "src" => {
                let rest = &parts[3..];
                if rest == ["main.rs"] || rest.first() == Some(&"bin") {
                    let last = rest.last().copied().unwrap_or("main.rs");
                    return (format!("bin:{}/{}", dir, stem(last)), Vec::new());
                }
                return (name, module_of(rest));
            }
            "tests" | "examples" | "benches" => {
                let last = parts.last().copied().unwrap_or("x.rs");
                return (format!("test:{}/{}", dir, stem(last)), Vec::new());
            }
            _ => {}
        }
    }
    if parts.first() == Some(&"src") {
        let root_name =
            crate_names.get("").cloned().unwrap_or_else(|| "mntp_repro".to_string());
        let rest = &parts[1..];
        if rest == ["main.rs"] || rest.first() == Some(&"bin") {
            let last = rest.last().copied().unwrap_or("main.rs");
            return (format!("bin:root/{}", stem(last)), Vec::new());
        }
        return (root_name, module_of(rest));
    }
    if matches!(parts.first(), Some(&"tests") | Some(&"examples")) {
        let last = parts.last().copied().unwrap_or("x.rs");
        return (format!("test:root/{}", stem(last)), Vec::new());
    }
    // Fixture-style layouts (`fx/helper.rs`): first component is the
    // crate, the rest are modules.
    if parts.len() >= 2 {
        return (parts[0].to_string(), module_of(&parts[1..]));
    }
    ("file".to_string(), module_of(&parts))
}

struct FileCtx {
    krate: String,
    module: Vec<String>,
}

/// Build the workspace graph from per-file items. `files` must be in
/// deterministic order (the walker's sorted order); `crate_names` maps
/// `crates/*` dir names (and `""` for the root package) to crate idents.
pub fn build(files: &[(String, FileItems)], crate_names: &BTreeMap<String, String>) -> Graph {
    let crate_idents: BTreeSet<&str> = crate_names.values().map(String::as_str).collect();

    // Pass 1: nodes + per-file context.
    let mut g = Graph::default();
    let mut ctxs: Vec<FileCtx> = Vec::new();
    let mut node_of: Vec<Vec<usize>> = Vec::new(); // file idx → its node indices (parallel to items.fns)
    for (rel, items) in files.iter() {
        let (krate, module) = file_crate_module(rel, crate_names);
        let mut own = Vec::with_capacity(items.fns.len());
        for f in &items.fns {
            let mut m = module.clone();
            m.extend(f.module.iter().cloned());
            own.push(g.nodes.len());
            g.nodes.push(Node {
                file: rel.clone(),
                line: f.line,
                col: f.col,
                krate: krate.clone(),
                module: m,
                impl_type: f.impl_type.clone(),
                name: f.name.clone(),
                is_test: f.is_test,
                body: f.body_lines,
                rng_captures: f.rng_captures.clone(),
            });
        }
        ctxs.push(FileCtx { krate, module });
        node_of.push(own);
    }

    // Pass 2: indexes.
    // free functions: (krate, joined module, name) → nodes
    let mut free: BTreeMap<(String, String, String), Vec<usize>> = BTreeMap::new();
    // impl-block functions (methods + assoc fns): (type, name) → nodes
    let mut by_type: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    // trait-keyed methods (dispatch fan-out): (trait, name) → nodes
    let mut by_trait: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    // fallback name indexes
    let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    // (krate, joined module) → file idx, for one-level re-export chasing
    let mut module_file: BTreeMap<(String, String), usize> = BTreeMap::new();

    for (file_idx, (_, items)) in files.iter().enumerate() {
        let ctx = &ctxs[file_idx];
        module_file.insert((ctx.krate.clone(), ctx.module.join("::")), file_idx);
        for (k, f) in items.fns.iter().enumerate() {
            let idx = node_of[file_idx][k];
            let node = &g.nodes[idx];
            match &node.impl_type {
                Some(t) => {
                    by_type.entry((t.clone(), f.name.clone())).or_default().push(idx);
                    methods_by_name.entry(f.name.clone()).or_default().push(idx);
                    if let Some(tr) = &f.impl_trait {
                        by_trait.entry((tr.clone(), f.name.clone())).or_default().push(idx);
                    }
                }
                None => {
                    free.entry((
                        node.krate.clone(),
                        node.module.join("::"),
                        f.name.clone(),
                    ))
                    .or_default()
                    .push(idx);
                    free_by_name.entry(f.name.clone()).or_default().push(idx);
                }
            }
        }
    }

    // Resolve `use`-style paths to absolute (krate, module-segments).
    let abs_use = |ctx: &FileCtx, path: &[String]| -> Option<(String, Vec<String>)> {
        let mut i = 0usize;
        let (krate, mut module): (String, Vec<String>) = match path.first().map(String::as_str) {
            Some("crate") => {
                i = 1;
                (ctx.krate.clone(), Vec::new())
            }
            Some("self") => {
                i = 1;
                (ctx.krate.clone(), ctx.module.clone())
            }
            Some("super") => {
                let mut m = ctx.module.clone();
                while path.get(i).map(String::as_str) == Some("super") {
                    m.pop();
                    i += 1;
                }
                (ctx.krate.clone(), m)
            }
            Some(first) if crate_idents.contains(first) => {
                i = 1;
                (first.to_string(), Vec::new())
            }
            _ => return None, // std / external — not a workspace path
        };
        module.extend(path[i..].iter().cloned());
        Some((krate, module))
    };

    // Pass 3: resolve each call site.
    g.edges = vec![Vec::new(); g.nodes.len()];
    g.unresolved = vec![Vec::new(); g.nodes.len()];
    for (file_idx, (_, items)) in files.iter().enumerate() {
        let ctx = &ctxs[file_idx];
        for (k, f) in items.fns.iter().enumerate() {
            let caller = node_of[file_idx][k];
            let full_module = {
                let mut m = ctx.module.clone();
                m.extend(f.module.iter().cloned());
                m
            };
            let mut unres: BTreeSet<String> = BTreeSet::new();
            for call in &f.calls {
                let mut targets: Vec<(usize, EdgeKind)> = Vec::new();
                match &call.kind {
                    CallKind::Path(segs) => {
                        let name = segs.last().cloned().unwrap_or_default();
                        // CamelCase terminal segment = tuple-struct or
                        // enum-variant constructor, not a function call.
                        if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                            continue;
                        }
                        resolve_path(
                            segs,
                            &name,
                            ctx,
                            &full_module,
                            f.impl_type.as_deref(),
                            items,
                            files,
                            &ctxs,
                            &abs_use,
                            &free,
                            &by_type,
                            &by_trait,
                            &free_by_name,
                            &module_file,
                            &mut targets,
                            &mut unres,
                        );
                    }
                    CallKind::Method { name, recv_type } => {
                        resolve_method(
                            name,
                            recv_type.as_deref(),
                            f.impl_type.as_deref(),
                            &by_type,
                            &by_trait,
                            &methods_by_name,
                            &mut targets,
                            &mut unres,
                        );
                    }
                }
                for (to, kind) in targets {
                    if to == caller {
                        continue; // self-recursion adds nothing
                    }
                    let known = g.edges[caller].iter_mut().find(|e| e.to == to);
                    match known {
                        Some(e) => {
                            // Keep the strongest classification.
                            if kind == EdgeKind::Exact {
                                e.kind = EdgeKind::Exact;
                            }
                        }
                        None => g.edges[caller].push(Edge {
                            to,
                            kind,
                            line: call.line,
                            col: call.col,
                        }),
                    }
                }
            }
            g.unresolved[caller] = unres.into_iter().collect();
        }
    }
    g
}

/// Resolve a path call (`a::b::f(..)` or bare `f(..)`).
#[allow(clippy::too_many_arguments)]
fn resolve_path(
    segs: &[String],
    name: &str,
    ctx: &FileCtx,
    full_module: &[String],
    impl_type: Option<&str>,
    items: &FileItems,
    files: &[(String, FileItems)],
    ctxs: &[FileCtx],
    abs_use: &dyn Fn(&FileCtx, &[String]) -> Option<(String, Vec<String>)>,
    free: &BTreeMap<(String, String, String), Vec<usize>>,
    by_type: &BTreeMap<(String, String), Vec<usize>>,
    by_trait: &BTreeMap<(String, String), Vec<usize>>,
    free_by_name: &BTreeMap<String, Vec<usize>>,
    module_file: &BTreeMap<(String, String), usize>,
    targets: &mut Vec<(usize, EdgeKind)>,
    unres: &mut BTreeSet<String>,
) {
    let lookup_free = |krate: &str, module: &[String], name: &str| -> Option<&Vec<usize>> {
        free.get(&(krate.to_string(), module.join("::"), name.to_string()))
    };

    if segs.len() == 1 {
        // Bare call: same module (inline or file scope) first.
        if let Some(v) = lookup_free(&ctx.krate, full_module, name) {
            targets.extend(v.iter().map(|&i| (i, EdgeKind::Exact)));
            return;
        }
        if full_module != ctx.module {
            if let Some(v) = lookup_free(&ctx.krate, &ctx.module, name) {
                targets.extend(v.iter().map(|&i| (i, EdgeKind::Exact)));
                return;
            }
        }
        // `use` alias naming the function directly.
        for u in &items.uses {
            if u.alias == name {
                if let Some((k, m)) = abs_use(ctx, &u.path) {
                    if let Some((module, fname)) = m.split_last_with_name() {
                        if let Some(v) = lookup_free(&k, module, fname) {
                            targets.extend(v.iter().map(|&i| (i, EdgeKind::Exact)));
                            return;
                        }
                    }
                }
            }
        }
        // Glob imports.
        for gpath in &items.globs {
            if let Some((k, m)) = abs_use(ctx, gpath) {
                if let Some(v) = lookup_free(&k, &m, name) {
                    targets.extend(v.iter().map(|&i| (i, EdgeKind::Exact)));
                    return;
                }
            }
        }
        // Unique snake_case free fn anywhere → name-approximate.
        if let Some(v) = free_by_name.get(name) {
            if v.len() == 1 {
                targets.push((v[0], EdgeKind::Approx));
                return;
            }
        }
        unres.insert(name.to_string());
        return;
    }

    // Multi-segment path. `Self::f` first.
    let prefix = &segs[..segs.len() - 1];
    if prefix.len() == 1 && prefix[0] == "Self" {
        if let Some(t) = impl_type {
            if let Some(v) = by_type.get(&(t.to_string(), name.to_string())) {
                targets.extend(v.iter().map(|&i| (i, EdgeKind::Exact)));
                return;
            }
        }
    }

    // Candidate absolute prefixes.
    let mut cands: Vec<(String, Vec<String>)> = Vec::new();
    if let Some(c) = abs_use(ctx, prefix) {
        cands.push(c);
    }
    // Alias expansion of the first segment.
    if !matches!(prefix[0].as_str(), "crate" | "self" | "super" | "Self") {
        for u in &items.uses {
            if u.alias == prefix[0] {
                if let Some((k, m)) = abs_use(ctx, &u.path) {
                    let mut full = m;
                    full.extend(prefix[1..].iter().cloned());
                    cands.push((k, full));
                }
            }
        }
        // Module-relative submodule path.
        let mut rel = full_module.to_vec();
        rel.extend(prefix.iter().cloned());
        cands.push((ctx.krate.clone(), rel));
        if full_module != ctx.module {
            let mut rel = ctx.module.to_vec();
            rel.extend(prefix.iter().cloned());
            cands.push((ctx.krate.clone(), rel));
        }
    }

    for (k, m) in &cands {
        if let Some(v) = lookup_free(k, m, name) {
            targets.extend(v.iter().map(|&i| (i, EdgeKind::Exact)));
        }
    }
    if !targets.is_empty() {
        return;
    }

    // One level of re-export: `k::m::name` where module `m` has
    // `pub use <path>` binding `name`.
    for (k, m) in &cands {
        if let Some(&fi) = module_file.get(&(k.clone(), m.join("::"))) {
            let fctx = &ctxs[fi];
            for u in &files[fi].1.uses {
                if u.alias == name {
                    if let Some((k2, m2)) = abs_use(fctx, &u.path) {
                        if let Some((module, fname)) = m2.split_last_with_name() {
                            if let Some(v) = lookup_free(&k2, module, fname) {
                                targets.extend(v.iter().map(|&i| (i, EdgeKind::Exact)));
                            }
                        }
                    }
                }
            }
        }
    }
    if !targets.is_empty() {
        return;
    }

    // `Type::assoc_fn` / `Trait::method` by bare type name.
    let t = prefix.last().map(String::as_str).unwrap_or_default();
    if let Some(v) = by_type.get(&(t.to_string(), name.to_string())) {
        targets.extend(v.iter().map(|&i| (i, EdgeKind::Exact)));
        return;
    }
    if let Some(v) = by_trait.get(&(t.to_string(), name.to_string())) {
        targets.extend(v.iter().map(|&i| (i, EdgeKind::Approx)));
        return;
    }

    // Unique snake_case free fn anywhere.
    if let Some(v) = free_by_name.get(name) {
        if v.len() == 1 {
            targets.push((v[0], EdgeKind::Approx));
            return;
        }
    }
    unres.insert(segs.join("::"));
}

/// Resolve a method call (`recv.name(..)`).
fn resolve_method(
    name: &str,
    recv_type: Option<&str>,
    impl_type: Option<&str>,
    by_type: &BTreeMap<(String, String), Vec<usize>>,
    by_trait: &BTreeMap<(String, String), Vec<usize>>,
    methods_by_name: &BTreeMap<String, Vec<usize>>,
    targets: &mut Vec<(usize, EdgeKind)>,
    unres: &mut BTreeSet<String>,
) {
    let t = match recv_type {
        Some("Self") => impl_type,
        other => other,
    };
    if let Some(t) = t {
        if let Some(v) = by_type.get(&(t.to_string(), name.to_string())) {
            targets.extend(v.iter().map(|&i| (i, EdgeKind::Exact)));
            return;
        }
        if let Some(v) = by_trait.get(&(t.to_string(), name.to_string())) {
            // Trait-typed receiver: fan out to every implementation.
            targets.extend(v.iter().map(|&i| (i, EdgeKind::Approx)));
            return;
        }
        if is_std_type(t) {
            unres.insert(format!(".{name}"));
            return;
        }
        // Known workspace type without this method, or an opaque
        // generic — fall through to the name approximation.
    }
    match methods_by_name.get(name) {
        Some(v) if !v.is_empty() => {
            targets.extend(v.iter().map(|&i| (i, EdgeKind::Approx)));
        }
        _ => {
            unres.insert(format!(".{name}"));
        }
    }
}

/// Split `[a, b, f]` into (`[a, b]`, `f`) — tiny helper so use-path
/// resolution reads naturally.
trait SplitLastName {
    fn split_last_with_name(&self) -> Option<(&[String], &str)>;
}

impl SplitLastName for Vec<String> {
    fn split_last_with_name(&self) -> Option<(&[String], &str)> {
        self.split_last().map(|(last, init)| (init, last.as_str()))
    }
}

/// Render the full graph (`lint --graph`): deterministic, sorted by
/// node display path. Test nodes and edges into them are omitted
/// (analyses skip them too); [`summary`] condenses the same view.
pub fn render(g: &Graph) -> String {
    let mut order: Vec<usize> = (0..g.nodes.len()).filter(|&i| !g.nodes[i].is_test).collect();
    order.sort_by(|&a, &b| {
        let (na, nb) = (&g.nodes[a], &g.nodes[b]);
        (na.display(), &na.file, na.line).cmp(&(nb.display(), &nb.file, nb.line))
    });
    let mut s = String::new();
    s.push_str("# workspace call graph — regenerate with `cargo run -p devtools --bin lint -- --graph`\n");
    s.push_str("# `=` exact edge, `~` name/trait-approximate edge, `?` unresolved callees (std or external)\n");
    s.push_str(&totals_line(g));
    for &i in &order {
        let n = &g.nodes[i];
        s.push_str(&format!("{} {}:{}\n", n.display(), n.file, n.line));
        let mut callees: Vec<&Edge> = g.edges[i].iter().filter(|e| !g.nodes[e.to].is_test).collect();
        callees.sort_by_key(|e| (g.nodes[e.to].display(), e.to));
        for e in callees {
            let mark = match e.kind {
                EdgeKind::Exact => '=',
                EdgeKind::Approx => '~',
            };
            s.push_str(&format!("  {} {}\n", mark, g.nodes[e.to].display()));
        }
        if !g.unresolved[i].is_empty() {
            s.push_str(&format!("  ? {}\n", g.unresolved[i].join(" ")));
        }
    }
    s
}

/// The graph's totals, as the third line of [`render`].
fn totals_line(g: &Graph) -> String {
    let kept = g.nodes.iter().filter(|n| !n.is_test).count();
    let (exact, approx, unres) = g.edge_counts();
    format!(
        "# {} nodes ({} test nodes omitted), {} exact edges, {} approx edges, {} unresolved names\n",
        kept,
        g.nodes.len() - kept,
        exact,
        approx,
        unres,
    )
}

/// Condense the graph for the committed `lint --report` artifact: the
/// totals line of [`render`], one line per crate key (its non-test fns
/// and their exact, approx and unresolved callee counts), then every
/// distinct unresolved name, sorted. Like [`render`], every part leaves
/// out test nodes and edges into them, so the rows sum to the totals.
pub fn summary(g: &Graph) -> String {
    // (fns, exact, approx, unresolved) per crate key.
    let mut rows: BTreeMap<&str, (usize, usize, usize, usize)> = BTreeMap::new();
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for (i, n) in g.nodes.iter().enumerate().filter(|(_, n)| !n.is_test) {
        let (exact, approx, unres) = g.node_counts(i);
        let row = rows.entry(n.krate.as_str()).or_default();
        *row = (row.0 + 1, row.1 + exact, row.2 + approx, row.3 + unres);
        names.extend(g.unresolved[i].iter().map(String::as_str));
    }
    let mut s = String::new();
    s.push_str("# call-graph summary — the full graph prints with `cargo run -p devtools --bin lint -- --graph`\n");
    s.push_str(&totals_line(g));
    s.push_str(&format!(
        "# {} crate key(s), test nodes and edges into them left out: fns, exact edges, approx edges, unresolved names\n",
        rows.len()
    ));
    for (krate, (fns, exact, approx, unres)) in &rows {
        s.push_str(&format!("{krate}: {fns} fn(s), {exact} exact, {approx} approx, {unres} unresolved\n"));
    }
    s.push_str(&format!("# {} distinct unresolved name(s)\n", names.len()));
    for name in names {
        s.push_str(&format!("? {name}\n"));
    }
    s
}
