//! The self-check: `gemini-tidy` must run clean on the workspace it
//! lives in. This is the test the CI lint job pins; if a determinism,
//! panic-safety, lock-order or consistency violation lands anywhere in
//! the tree, it fails here first.

use std::path::PathBuf;

#[test]
fn workspace_scans_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = gemini_tidy::run(&root).expect("scan");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.is_clean(),
        "gemini-tidy found {} violation(s) in the workspace:\n{}",
        report.diagnostics.len(),
        rendered.join("\n")
    );
    // The scan actually covered the tree, and the waiver census is an
    // honest artifact: every recorded waiver suppresses something.
    assert!(
        report.files_scanned > 20,
        "scanned {}",
        report.files_scanned
    );
    assert!(
        !report.waivers.is_empty(),
        "expected a nonzero waiver census"
    );
    for w in &report.waivers {
        assert!(
            w.used,
            "stale waiver at {}:{} for {}",
            w.file, w.line, w.lint
        );
    }
    // Likewise every scope entry names a real path, so a rename cannot
    // silently drop a file out of the lints.
    for scope in gemini_tidy::DETERMINISM_SCOPES
        .iter()
        .chain([&gemini_tidy::SERVICE_SCOPE])
    {
        assert!(root.join(scope).exists(), "stale lint scope {scope}");
    }
}
