//! Smoke tests of the `gemini` CLI front end (argument handling, fast
//! subcommands and error paths). Cargo builds the binary for
//! integration tests and exposes its path via `CARGO_BIN_EXE_gemini`.

use std::process::Command;

fn gemini(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gemini"))
        .args(args)
        .output()
        .expect("spawn gemini CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_args_prints_usage_and_fails() {
    let (ok, _, err) = gemini(&[]);
    assert!(!ok);
    assert!(err.contains("usage:"));
    assert!(err.contains("gemini dse"));
}

#[test]
fn models_lists_all_abbreviations() {
    let (ok, out, _) = gemini(&["models"]);
    assert!(ok);
    for abbr in ["rn-50", "tf", "bert", "effnet", "vgg"] {
        assert!(out.contains(abbr), "missing {abbr} in:\n{out}");
    }
}

#[test]
fn models_detail_prints_summaries() {
    let (ok, out, _) = gemini(&["models", "--detail"]);
    assert!(ok);
    assert!(out.contains("GMACs"));
    assert!(out.contains("weights"));
}

#[test]
fn archs_lists_presets() {
    let (ok, out, _) = gemini(&["archs"]);
    assert!(ok);
    assert!(out.contains("s-arch"));
    assert!(out.contains("g-arch"));
    assert!(out.contains("TOPS"));
}

#[test]
fn cost_reports_breakdown() {
    let (ok, out, _) = gemini(&["cost", "g-arch"]);
    assert!(ok);
    for field in ["silicon", "DRAM", "packaging", "total", "yield"] {
        assert!(out.contains(field), "missing {field} in:\n{out}");
    }
}

#[test]
fn usage_mentions_fidelity_flags() {
    let (ok, _, err) = gemini(&[]);
    assert!(!ok);
    assert!(err.contains("--fidelity"));
    assert!(err.contains("--rerank-k"));
}

#[test]
fn dse_rejects_unknown_fidelity_policy() {
    let (ok, _, err) = gemini(&["dse", "--fidelity", "bogus"]);
    assert!(!ok);
    assert!(err.contains("unknown fidelity policy"));
    assert!(err.contains("analytic|rerank|validate"));
}

#[test]
fn dse_rejects_a_tops_that_is_not_finite_and_positive() {
    for tops in ["0", "-1", "nan"] {
        let (ok, _, err) = gemini(&["dse", "--tops", tops, "--stride", "400", "--iters", "1"]);
        assert!(!ok, "--tops {tops} must fail");
        assert!(err.contains("invalid tops"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

/// Runs the CLI like [`gemini`], but kills it and fails the test when
/// it is still running after `secs` seconds.
fn gemini_within(secs: u64, args: &[&str]) -> (bool, String, String) {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_gemini"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gemini CLI");
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child.try_wait().expect("poll gemini CLI").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("gemini {args:?} still running after {secs} s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect gemini CLI output");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn dse_refuses_a_tops_with_no_grid_within_the_core_limit_promptly() {
    for tops in ["1e9", "1e300"] {
        let (ok, _, err) = gemini_within(
            20,
            &["dse", "--tops", tops, "--stride", "400", "--iters", "1"],
        );
        assert!(!ok, "--tops {tops} must fail");
        assert!(err.contains("invalid tops"), "{err}");
        assert!(err.contains("65535 cores"), "{err}");
        assert!(err.trim_end().len() < 80, "echoes a short value: {err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn the_largest_decode_position_maps_promptly() {
    let (ok, out, err) = gemini_within(
        20,
        &[
            "map",
            "decode-tiny@4294967295",
            "--batch",
            "1",
            "--iters",
            "10",
        ],
    );
    assert!(ok, "map failed:\n{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.contains("G-Map"), "{out}");
}

#[test]
fn the_largest_decode_position_campaigns_promptly() {
    let dir = std::env::temp_dir().join(format!("gemini-cli-hugepos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("huge.toml");
    std::fs::write(
        &manifest,
        "[campaign]\nname = \"huge-position\"\nseed = 2\nsa_iters = 10\nbatches = [1]\n\
         objectives = [\"mc-e-d\"]\nfidelity = \"analytic\"\n\n\
         [workloads]\nnames = [\"decode-tiny@4294967295\"]\nmode = \"each\"\n\n\
         [[arch]]\npreset = \"g-arch\"\n",
    )
    .expect("write manifest");
    let out_dir = dir.join("out");
    let (ok, out, err) = gemini_within(
        20,
        &[
            "campaign",
            manifest.to_str().expect("utf-8 temp dir"),
            "--out",
            out_dir.to_str().expect("utf-8 temp dir"),
        ],
    );
    assert!(ok, "campaign failed:\n{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.contains("1 cell(s) evaluated"), "{out}");
    for artifact in ["journal.jsonl", "cells.csv", "pareto.csv", "pareto.json"] {
        assert!(
            out_dir.join("huge-position").join(artifact).exists(),
            "{artifact} missing"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_zero_is_refused_on_every_mapping_verb() {
    for args in [
        &["map", "rn-50", "--batch", "0", "--iters", "1"][..],
        &["heatmap", "rn-50", "--batch", "0", "--iters", "1"],
        &["hetero", "rn-50", "--batch", "0", "--iters", "1"],
        &["dse", "--batch", "0", "--stride", "400", "--iters", "1"],
    ] {
        let (ok, out, err) = gemini_within(20, args);
        assert!(!ok, "{args:?} must fail");
        assert_eq!(
            err.trim(),
            "invalid batch 0: must be at least 1",
            "{args:?}"
        );
        assert!(out.is_empty(), "{args:?} printed before refusing: {out}");
    }
}

#[test]
fn dse_refuses_stride_zero_promptly() {
    let (ok, out, err) = gemini_within(20, &["dse", "--stride", "0", "--iters", "1"]);
    assert!(!ok, "--stride 0 must fail");
    assert_eq!(err.trim(), "invalid stride 0: must be at least 1");
    assert!(out.is_empty(), "printed before refusing: {out}");
}

#[test]
fn dse_refuses_rerank_k_zero() {
    let (ok, out, err) = gemini_within(
        20,
        &[
            "dse",
            "--fidelity",
            "rerank",
            "--rerank-k",
            "0",
            "--iters",
            "1",
        ],
    );
    assert!(!ok, "--rerank-k 0 must fail");
    assert_eq!(err.trim(), "invalid rerank_k 0: must be at least 1");
    assert!(out.is_empty(), "printed before refusing: {out}");
}

#[test]
fn dse_refuses_objective_rates_and_budgets_out_of_range() {
    for (objective, what) in [
        ("p99@1e300", "rate"),
        ("goodput@1e-300:25ms", "rate"),
        ("goodput@500:1e300ms", "budget"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gemini"))
            .args([
                "dse",
                "--objective",
                objective,
                "--stride",
                "400",
                "--iters",
                "1",
            ])
            .output()
            .expect("spawn gemini CLI");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{objective}: {err}");
        assert!(out.stdout.is_empty(), "{objective} printed before refusing");
        assert!(
            err.starts_with(&format!(
                "malformed objective '{objective}': {what} must be a number"
            )),
            "{objective}: {err}"
        );
        assert!(err.contains("[0.001, 1e6]"), "{objective}: {err}");
    }
}

#[test]
fn unparsable_numeric_flags_are_refused_not_defaulted() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/manifests/ci_tiny.toml");
    for (args, refusal) in [
        (
            &["map", "two-conv", "--batch", "two", "--iters", "1"][..],
            "invalid --batch 'two'",
        ),
        (
            &["map", "two-conv", "--iters", "1e3"],
            "invalid --iters '1e3'",
        ),
        (
            &[
                "dse", "--tops", "seventy", "--stride", "400", "--iters", "1",
            ],
            "invalid --tops 'seventy'",
        ),
        (
            &["campaign", manifest, "--shards", "x", "--shard-index", "0"],
            "invalid --shards 'x'",
        ),
    ] {
        let (ok, out, err) = gemini_within(20, args);
        assert!(!ok, "{args:?} must fail");
        assert_eq!(err.trim(), refusal, "{args:?}");
        assert!(out.is_empty(), "{args:?} printed before refusing: {out}");
    }
}

#[test]
fn campaign_usage_and_error_paths() {
    let (ok, _, err) = gemini(&[]);
    assert!(!ok);
    assert!(err.contains("gemini campaign"));
    // Missing manifest operand.
    let (ok, _, err) = gemini(&["campaign"]);
    assert!(!ok);
    assert!(err.contains("campaign <manifest"));
    // Flag in the manifest position is not swallowed as a path.
    let (ok, _, err) = gemini(&["campaign", "--resume"]);
    assert!(!ok);
    assert!(err.contains("campaign <manifest"));
    // Unreadable manifest fails cleanly.
    let (ok, _, err) = gemini(&["campaign", "/does/not/exist.toml"]);
    assert!(!ok);
    assert!(err.contains("manifest error"));
}

#[test]
fn campaign_runs_the_tiny_manifest() {
    let out_dir = std::env::temp_dir().join(format!("gemini-cli-camp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/manifests/ci_tiny.toml");
    let (ok, out, err) = gemini(&[
        "campaign",
        manifest,
        "--threads",
        "2",
        "--out",
        out_dir.to_str().expect("utf-8 temp dir"),
    ]);
    assert!(ok, "campaign failed:\n{err}");
    assert!(out.contains("4 cell(s) evaluated"), "{out}");
    assert!(out.contains("Pareto front"), "{out}");
    for artifact in ["journal.jsonl", "cells.csv", "pareto.csv", "pareto.json"] {
        assert!(
            out_dir.join("ci-tiny").join(artifact).exists(),
            "{artifact} missing"
        );
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn campaign_shard_flags_are_validated() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/manifests/ci_tiny.toml");
    // The usage text advertises the sharded form and the merge verb.
    let (ok, _, err) = gemini(&["campaign"]);
    assert!(!ok);
    assert!(err.contains("--shards"), "{err}");
    assert!(err.contains("campaign merge"), "{err}");
    // Shard flags come as a pair, in range, and only on a shard run.
    let (ok, _, err) = gemini(&["campaign", manifest, "--shards", "2"]);
    assert!(!ok);
    assert!(err.contains("--shards requires --shard-index"), "{err}");
    let (ok, _, err) = gemini(&["campaign", manifest, "--shard-index", "0"]);
    assert!(!ok);
    assert!(err.contains("--shard-index requires --shards"), "{err}");
    let (ok, _, err) = gemini(&["campaign", manifest, "--shards", "2", "--shard-index", "5"]);
    assert!(!ok);
    assert!(err.contains("out of range"), "{err}");
    let (ok, _, err) = gemini(&["campaign", manifest, "--steal"]);
    assert!(!ok);
    assert!(err.contains("--steal requires"), "{err}");
    let (ok, _, err) = gemini(&[
        "campaign",
        "merge",
        manifest,
        "--shards",
        "2",
        "--shard-index",
        "0",
    ]);
    assert!(!ok);
    assert!(err.contains("takes no shard flags"), "{err}");
    // Merging a directory with no shard journals fails cleanly.
    let out_dir = std::env::temp_dir().join(format!("gemini-cli-merge0-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let (ok, _, err) = gemini(&[
        "campaign",
        "merge",
        manifest,
        "--out",
        out_dir.to_str().expect("utf-8 temp dir"),
    ]);
    assert!(!ok);
    assert!(err.contains("no shard journals"), "{err}");
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn campaign_cli_shards_then_merges_the_tiny_manifest() {
    let out_dir = std::env::temp_dir().join(format!("gemini-cli-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/manifests/ci_tiny.toml");
    let out = out_dir.to_str().expect("utf-8 temp dir");
    for k in ["0", "1"] {
        let (ok, stdout, err) = gemini(&[
            "campaign",
            manifest,
            "--threads",
            "2",
            "--out",
            out,
            "--shards",
            "2",
            "--shard-index",
            k,
        ]);
        assert!(ok, "shard {k} failed:\n{err}");
        assert!(stdout.contains(&format!("shard {k}/2")), "{stdout}");
        assert!(stdout.contains("campaign merge"), "{stdout}");
    }
    let dir = out_dir.join("ci-tiny");
    // Shard runs journal but never write artifacts.
    assert!(dir.join("journal-shard-0.jsonl").exists());
    assert!(dir.join("journal-shard-1.jsonl").exists());
    assert!(!dir.join("journal.jsonl").exists());
    assert!(!dir.join("cells.csv").exists());

    let (ok, stdout, err) = gemini(&["campaign", "merge", manifest, "--out", out]);
    assert!(ok, "merge failed:\n{err}");
    assert!(stdout.contains("merged 4 cell(s)"), "{stdout}");
    assert!(stdout.contains("Pareto front"), "{stdout}");
    for artifact in ["cells.csv", "pareto.csv", "pareto.json"] {
        assert!(dir.join(artifact).exists(), "{artifact} missing");
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn unknown_model_and_preset_are_rejected() {
    let (ok, _, err) = gemini(&["cost", "not-an-arch"]);
    assert!(!ok);
    assert!(err.contains("unknown preset"));
    let (ok, _, err) = gemini(&["map", "not-a-model"]);
    assert!(!ok);
    assert!(err.contains("unknown model"));
    let (ok, _, _) = gemini(&["frobnicate"]);
    assert!(!ok);
}

#[test]
fn unknown_subcommand_prints_the_full_verb_list() {
    let (ok, _, err) = gemini(&["frobnicate"]);
    assert!(!ok, "unknown subcommand must exit non-zero");
    assert!(
        err.contains("unknown subcommand 'frobnicate'"),
        "pinned message missing:\n{err}"
    );
    // The verb list is the single source of truth and must include the
    // daemon verbs.
    for verb in [
        "models", "archs", "cost", "map", "dse", "hetero", "heatmap", "campaign", "serve",
        "request",
    ] {
        assert!(err.contains(verb), "verb list is missing '{verb}':\n{err}");
    }
    // Bare invocation prints usage with the daemon verbs documented.
    let (_, _, usage) = gemini(&[]);
    assert!(usage.contains("serve"), "{usage}");
    assert!(usage.contains("--addr"), "{usage}");
}
