//! `gemini-tidy` — repo-invariant static analysis for the Gemini
//! workspace.
//!
//! The workspace has three properties that ordinary compiler checks
//! cannot enforce and that regress silently:
//!
//! 1. **Determinism.** Campaign artifacts must be byte-identical at
//!    any thread or shard count. Hash-ordered collections, wall-clock
//!    reads and environment reads on the artifact path all break this
//!    while every test stays green.
//! 2. **Panic safety.** The daemon answers hostile sockets; a single
//!    `.unwrap()` on the request path converts a malformed line into
//!    downtime.
//! 3. **Lock discipline.** The service layer holds several mutexes;
//!    acquisition order is a global property no single file review
//!    can see.
//!
//! This crate is a hand-rolled token-level scanner (no syntax tree, no
//! dependencies) that walks the workspace and enforces those
//! invariants plus a set of cross-file consistency checks, with an
//! explicit, reasoned waiver mechanism (`// tidy:allow(<lint>,
//! reason = "...")`) for the justified exceptions. See
//! `docs/LINTS.md` for the catalogue.

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod source;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use diag::{json_escape, Diagnostic, Waiver};
use source::SourceFile;

/// Path prefixes (workspace-relative, `/`-separated) on the
/// artifact/fingerprint path — the determinism lints apply here.
pub const DETERMINISM_SCOPES: &[&str] = &[
    "crates/core/src/campaign/",
    "crates/core/src/traffic/",
    "crates/core/src/sa.rs",
    "crates/core/src/joint.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/partition.rs",
    "crates/model/src/layer.rs",
    "crates/noc/src/network.rs",
    "crates/sim/src/evaluate.rs",
    "crates/sim/src/delta.rs",
    "crates/sim/src/cache.rs",
    "crates/sim/src/bound.rs",
];

/// Path prefix of the service request path — the panic-safety and
/// lock-discipline lints apply here.
pub const SERVICE_SCOPE: &str = "crates/core/src/service/";

/// Directory names never descended into: build output, vendored deps,
/// test/bench code (exempt from every lint by design) and fixtures.
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", ".git", ".github", "tests", "benches", "examples", "fixtures",
];

/// The result of one full workspace scan.
pub struct Report {
    /// Surviving (non-waived) diagnostics, sorted by file/line/lint.
    pub diagnostics: Vec<Diagnostic>,
    /// Every parsed waiver, used or not (the census).
    pub waivers: Vec<Waiver>,
    /// Number of Rust sources scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The machine-readable report: diagnostics, the waiver census and
    /// the scan size, as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&d.file),
                d.line,
                json_escape(&d.lint),
                json_escape(&d.message)
            ));
        }
        s.push_str("\n  ],\n  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \
                 \"reason\": \"{}\", \"used\": {}}}",
                json_escape(&w.file),
                w.line,
                json_escape(&w.lint),
                json_escape(&w.reason),
                w.used
            ));
        }
        s.push_str(&format!(
            "\n  ],\n  \"files_scanned\": {}\n}}\n",
            self.files_scanned
        ));
        s
    }
}

/// Whether `rel` (a `/`-separated relative path) is in the determinism
/// scope.
fn in_determinism_scope(rel: &str) -> bool {
    DETERMINISM_SCOPES.iter().any(|s| rel.starts_with(s))
}

/// Whether `rel` is in the service scope.
fn in_service_scope(rel: &str) -> bool {
    rel.starts_with(SERVICE_SCOPE)
}

/// Recursively collects workspace `.rs` files, skipping [`SKIP_DIRS`].
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated.
fn rel_path(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs every lint over the workspace at `root` and returns the
/// report. IO errors abort the scan (a file the scanner cannot read is
/// not a file it can vouch for).
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths)?;

    let mut sources: Vec<SourceFile> = Vec::new();
    for p in &paths {
        let text = std::fs::read_to_string(p)?;
        sources.push(SourceFile::new(&rel_path(p, root), &text));
    }

    // Raw (pre-waiver) diagnostics, grouped per file so waivers apply
    // file-locally.
    let mut per_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    let push = |d: Diagnostic, map: &mut BTreeMap<String, Vec<Diagnostic>>| {
        map.entry(d.file.clone()).or_default().push(d);
    };

    for sf in &sources {
        if in_determinism_scope(&sf.path) {
            for d in lints::determinism::check(sf) {
                push(d, &mut per_file);
            }
        }
        if in_service_scope(&sf.path) {
            for d in lints::panic_safety::check(sf) {
                push(d, &mut per_file);
            }
        }
        for d in lints::consistency::check_error_enum_docs(sf) {
            push(d, &mut per_file);
        }
    }

    // Lock discipline is a whole-service-layer analysis.
    let service_files: Vec<&SourceFile> = sources
        .iter()
        .filter(|s| in_service_scope(&s.path))
        .collect();
    for d in lints::locks::check(&service_files) {
        push(d, &mut per_file);
    }

    // Cross-file consistency over non-Rust inputs.
    let exists = |rel: &str| root.join(rel).is_file();
    let ci_rel = ".github/workflows/ci.yml";
    if let Ok(ci_text) = std::fs::read_to_string(root.join(ci_rel)) {
        for d in lints::consistency::check_ci_pins(ci_rel, &ci_text, &exists) {
            push(d, &mut per_file);
        }
    }
    for doc in doc_files(root) {
        if let Ok(text) = std::fs::read_to_string(root.join(&doc)) {
            for d in lints::consistency::check_doc_manifests(&doc, &text, &exists) {
                push(d, &mut per_file);
            }
        }
    }

    // Waivers: parse per source file, apply to that file's findings,
    // then flag the unused ones.
    let mut all_diags: Vec<Diagnostic> = Vec::new();
    let mut all_waivers: Vec<Waiver> = Vec::new();
    for sf in &sources {
        let mut waiver_errs = Vec::new();
        let mut waivers = diag::parse_waivers(&sf.path, &sf.lexed.comments, &mut waiver_errs);
        let file_diags = per_file.remove(&sf.path).unwrap_or_default();
        let mut surviving = diag::apply_waivers(file_diags, &mut waivers);
        diag::flag_unused(&waivers, &mut surviving);
        all_diags.extend(waiver_errs);
        all_diags.extend(surviving);
        all_waivers.extend(waivers);
    }
    // Diagnostics in files with no parsed source (ci.yml, docs).
    for (_, ds) in per_file {
        all_diags.extend(ds);
    }

    all_diags.sort_by(|a, b| (&a.file, a.line, &a.lint).cmp(&(&b.file, b.line, &b.lint)));
    Ok(Report {
        diagnostics: all_diags,
        waivers: all_waivers,
        files_scanned: sources.len(),
    })
}

/// Documentation files whose manifest references are checked: the
/// README plus everything under `docs/` and the roadmap.
fn doc_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for name in ["README.md", "ROADMAP.md", "ARCHITECTURE.md"] {
        if root.join(name).is_file() {
            out.push(name.to_string());
        }
    }
    if let Ok(rd) = std::fs::read_dir(root.join("docs")) {
        let mut docs: Vec<String> = rd
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("md"))
            .filter_map(|e| e.file_name().to_str().map(|n| format!("docs/{n}")))
            .collect();
        docs.sort();
        out.extend(docs);
    }
    out
}
