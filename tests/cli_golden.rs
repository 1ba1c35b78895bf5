//! Byte-pinned transcripts of the mapping verbs.
//!
//! The other CLI suites compare runs of one binary with each other (1
//! vs 4 threads, CLI vs socket, cold vs resumed); these tests pin what
//! the mapping engine prints. Each command runs with
//! `GEMINI_SA_SEED=7` and `--threads 1`, and its stdout must equal the
//! recorded transcript byte for byte: the T-Map and G-Map figures, the
//! `SA evals:` counter line, the `--stats` table and the heatmaps.
//!
//! A change that moves any printed number or counter fails here; if it
//! is meant to, re-record the transcript and say so in CHANGES.md.

use std::process::Command;

/// Runs the CLI with a pinned SA seed and no other SA override from the
/// environment, and returns its stdout (asserting a clean exit).
fn transcript(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gemini"))
        .args(args)
        .env("GEMINI_SA_SEED", "7")
        .env_remove("GEMINI_SA_ITERS")
        .env_remove("GEMINI_SA_THREADS")
        .output()
        .expect("spawn gemini CLI");
    assert!(
        out.status.success(),
        "gemini {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn assert_transcript(args: &[&str], expected: &str) {
    let got = transcript(args);
    assert!(
        got == expected,
        "gemini {args:?} printed\n{got}\nexpected\n{expected}"
    );
}

const MAP_TWO_CONV: &str = concat!(
    "mapping two-conv onto (2, 36, 144GB/s, 32GB/s, 16GB/s, 2048KB, 1024) (batch 2, SA 40 x 1 threads)\n",
    "T-Map :     0.010 ms      0.014 mJ\n",
    "G-Map :     0.010 ms      0.013 mJ   (1.06x perf, 1.14x energy)\n",
    "SA evals: 16 delta, 24 full; layer records reused 20.0% (16/80)\n",
);

const MAP_DECODE_TINY: &str = concat!(
    "mapping decode-tiny@64 onto (2, 36, 144GB/s, 32GB/s, 16GB/s, 2048KB, 1024) (batch 1, SA 40 x 1 threads)\n",
    "T-Map :     0.050 ms      0.038 mJ\n",
    "G-Map :     0.050 ms      0.038 mJ   (1.00x perf, 1.00x energy)\n",
    "SA evals: 29 delta, 2 full; layer records reused 68.5% (161/235)\n",
);

const MAP_GN_T_ARCH: &str = concat!(
    "mapping gn onto (1, 120, 100GB/s, 64GB/s, None, 1024KB, 512) (batch 2, SA 40 x 1 threads)\n",
    "T-Map :     1.665 ms      2.202 mJ\n",
    "G-Map :     1.609 ms      2.155 mJ   (1.04x perf, 1.02x energy)\n",
    "SA evals: 36 delta, 4 full; layer records reused 70.1% (227/324)\n",
);

const MAP_TINY_RESNET_STATS: &str = concat!(
    "mapping tiny-resnet onto (36, 36, 144GB/s, 32GB/s, 8GB/s, 1024KB, 1024) (batch 4, SA 60 x 1 threads)\n",
    "T-Map :     0.102 ms      0.030 mJ\n",
    "G-Map :     0.067 ms      0.029 mJ   (1.52x perf, 1.04x energy)\n",
    "SA evals: 54 delta, 0 full; layer records reused 67.0% (362/540)\n",
    "\n",
    "per-group utilization and network-fidelity ladder (G-Map):\n",
    "group   cores     busy  MAC eff      D2D    analytic      fluid     packet\n",
    "    0    100%       6%       5%      99%       4.12us      2.45us      3.12us\n",
);

const HEATMAP_TINY_RESNET: &str = concat!(
    "busiest-group link pressure on (2, 36, 144GB/s, 32GB/s, 16GB/s, 2048KB, 1024) (0-9):\n",
    "\n",
    "T-Map:\n",
    "4 7 9 8 4 1 \n",
    "1 1 2 2 4 1 \n",
    "1 1 1 1 4 1 \n",
    "1 2 5 8 5 1 \n",
    "0 0 1 3 1 1 \n",
    "0 1 2 3 0 0 \n",
    "\n",
    "G-Map (SA 30):\n",
    "1 2 2 2 1 1 \n",
    "1 2 3 2 1 1 \n",
    "1 1 2 3 1 2 \n",
    "1 3 7 9 6 3 \n",
    "0 0 1 3 1 0 \n",
    "0 1 2 2 0 0 \n",
    "\n",
);

#[test]
fn map_two_conv() {
    assert_transcript(
        &[
            "map",
            "two-conv",
            "--batch",
            "2",
            "--iters",
            "40",
            "--threads",
            "1",
        ],
        MAP_TWO_CONV,
    );
}

#[test]
fn map_decode_tiny() {
    assert_transcript(
        &[
            "map",
            "decode-tiny@64",
            "--batch",
            "1",
            "--iters",
            "40",
            "--threads",
            "1",
        ],
        MAP_DECODE_TINY,
    );
}

#[test]
fn map_googlenet_on_t_arch() {
    assert_transcript(
        &[
            "map",
            "gn",
            "--arch",
            "t-arch",
            "--batch",
            "2",
            "--iters",
            "40",
            "--threads",
            "1",
        ],
        MAP_GN_T_ARCH,
    );
}

#[test]
fn map_tiny_resnet_on_s_arch_with_stats() {
    assert_transcript(
        &[
            "map",
            "tiny-resnet",
            "--arch",
            "s-arch",
            "--batch",
            "4",
            "--iters",
            "60",
            "--stats",
            "--threads",
            "1",
        ],
        MAP_TINY_RESNET_STATS,
    );
}

#[test]
fn heatmap_tiny_resnet() {
    assert_transcript(
        &[
            "heatmap",
            "tiny-resnet",
            "--batch",
            "2",
            "--iters",
            "30",
            "--threads",
            "1",
        ],
        HEATMAP_TINY_RESNET,
    );
}
