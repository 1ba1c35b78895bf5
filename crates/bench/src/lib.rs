//! Shared harness utilities for the experiment benches.
//!
//! Every table and figure of the paper's evaluation has a `[[bench]]`
//! target in `benches/` (`docs/CONCORDANCE.md` maps each paper claim to
//! the harness that regenerates it). All
//! harnesses honour two environment variables:
//!
//! * `GEMINI_DSE_MODE=quick|full` — `quick` (default) subsamples DSE
//!   grids and shortens annealing so the whole suite runs on a laptop;
//!   `full` explores everything (server-scale, like the paper's 80-100
//!   thread runs);
//! * `GEMINI_SA_ITERS=n` — overrides the annealing budget everywhere;
//! * `GEMINI_SA_THREADS=n` — SA chain workers per mapping run (`0`,
//!   the default, uses every core). Mapping results are bit-identical
//!   at any thread count, so this knob only moves wall-clock time.
//!
//! CSV outputs land in `bench_results/` at the workspace root.

use std::path::PathBuf;

use gemini_core::engine::{MappedDnn, MappingEngine, MappingOptions};
use gemini_core::sa::SaOptions;
use gemini_model::Dnn;
use gemini_sim::Evaluator;

pub use gemini_core::report::{sig6, write_csv};

/// Execution scale of an experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Laptop-scale: subsampled grids, short annealing.
    Quick,
    /// Paper-scale: full grids.
    Full,
}

/// Reads `GEMINI_DSE_MODE` (default quick).
pub fn mode() -> Mode {
    match std::env::var("GEMINI_DSE_MODE").as_deref() {
        Ok("full") => Mode::Full,
        _ => Mode::Quick,
    }
}

/// SA iteration budget: `GEMINI_SA_ITERS` override, else per-mode
/// default.
pub fn sa_iters(quick: u32, full: u32) -> u32 {
    if let Ok(v) = std::env::var("GEMINI_SA_ITERS") {
        if let Ok(n) = v.parse() {
            return n;
        }
    }
    match mode() {
        Mode::Quick => quick,
        Mode::Full => full,
    }
}

/// SA chain-worker count: `GEMINI_SA_THREADS` override, else `0`
/// (= all available cores).
pub fn sa_threads() -> usize {
    std::env::var("GEMINI_SA_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// The workspace root (where `BENCH_*.json` perf-trajectory files and
/// `bench_results/` live).
pub fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

/// The `bench_results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    let p = workspace_root().join("bench_results");
    std::fs::create_dir_all(&p).expect("create bench_results");
    p
}

/// Whether a named section of the `micro` bench should run.
///
/// `GEMINI_MICRO_SECTIONS` is a comma-separated allowlist (e.g.
/// `sa_delta` for the CI perf-smoke job); unset or empty runs every
/// section. It is the bench's only selector.
pub fn section_enabled(name: &str) -> bool {
    match std::env::var("GEMINI_MICRO_SECTIONS") {
        Ok(list) if !list.trim().is_empty() => {
            list.split(',').any(|s| s.trim().eq_ignore_ascii_case(name))
        }
        _ => true,
    }
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!(
        "\n==== {title} {}",
        "=".repeat(66usize.saturating_sub(title.len()))
    );
}

/// Standard mapping options with the given SA budget and seed (chain
/// workers from [`sa_threads`]).
pub fn mapping_opts(iters: u32, seed: u64) -> MappingOptions {
    MappingOptions {
        sa: SaOptions {
            iters,
            seed,
            threads: sa_threads(),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Maps with Gemini (SA).
pub fn g_map(ev: &Evaluator, dnn: &Dnn, batch: u32, iters: u32, seed: u64) -> MappedDnn {
    MappingEngine::new(ev).map(dnn, batch, &mapping_opts(iters, seed))
}

/// Maps with the Tangram baseline (stripe only).
pub fn t_map(ev: &Evaluator, dnn: &Dnn, batch: u32) -> MappedDnn {
    MappingEngine::new(ev).map_stripe(dnn, batch, &MappingOptions::default())
}

/// Geometric mean of a slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mode_defaults_quick() {
        // Unless the environment says otherwise, quick mode.
        if std::env::var("GEMINI_DSE_MODE").is_err() {
            assert_eq!(mode(), Mode::Quick);
        }
    }

    #[test]
    fn results_dir_exists() {
        let d = results_dir();
        assert!(d.ends_with("bench_results"));
        assert!(d.is_dir());
    }
}
