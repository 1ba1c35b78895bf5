#!/usr/bin/env bash
# CLI byte-diff checks of the determinism contracts, end to end through
# the release binary: thread counts, the fidelity re-rank, campaign
# resume and shard merge, the serving campaign, the p99 DSE and pruning
# on/off. Run from anywhere after `cargo build --release`; it exits
# non-zero on the first check that fails. Each `diff` stands on its own
# line, because `set -e` ignores a failure on the left of `&&`. Outputs
# land in the repo root (`*.txt`, gitignored) and under /tmp.
set -euo pipefail
cd "$(dirname "$0")/.."

# --- SA chain workers (pins: tests/delta_eval.rs) ------------------------
# ... and this step checks the bit-identity claim end to end
# through the only surface that *reads* the variable (the CLI via
# SaOptions::from_env): a 1-thread and a 4-thread mapping of the
# same workload must print byte-identical results (including the
# delta-hit/full-eval counter line).
./target/release/gemini map rn-50 --batch 4 --iters 150 --threads 1 | tail -3 > seq.txt
GEMINI_SA_THREADS=4 ./target/release/gemini map rn-50 --batch 4 --iters 150 | tail -3 > par.txt
diff seq.txt par.txt
echo "bit-identical at 1 and 4 threads"

# --- Congestion-aware re-rank (pins: tests/fidelity_dse.rs) -------------
# The fidelity re-rank stage (fluid NoC re-scoring of the top-K
# analytic survivors) must pick the same architecture at any
# SA-chain worker count: run a tiny strided DSE with
# `--fidelity rerank --rerank-k 4` at 1 and 4 threads and diff
# everything the CLI prints (winner, metrics, re-rank table).
./target/release/gemini dse --tops 72 --stride 400 --batch 2 --iters 60 \
  --fidelity rerank --rerank-k 4 --threads 1 > rerank1.txt
GEMINI_SA_THREADS=4 ./target/release/gemini dse --tops 72 --stride 400 --batch 2 --iters 60 \
  --fidelity rerank --rerank-k 4 > rerank4.txt
diff rerank1.txt rerank4.txt
echo "re-ranked winner bit-identical at 1 and 4 threads"

# --- Campaign resume (pins: tests/campaign.rs) --------------------------
# The campaign contract end to end, through the CLI surface:
# 1. run the tiny 2x2 campaign cold at 1 thread;
# 2. run it cold at 4 threads — artifacts must be byte-identical;
# 3. truncate the 4-thread journal to its header + half the
#    cells (simulating an interrupt) and rerun with --resume at
#    4 threads — the resumed artifacts must still be
#    byte-identical to the cold 1-thread run.
# (journal.jsonl is excluded from the diffs: its *line order* is
# completion order by design; its content per cell is what the
# resume consumes.)
./target/release/gemini campaign manifests/ci_tiny.toml --threads 1 --out /tmp/camp1
./target/release/gemini campaign manifests/ci_tiny.toml --threads 4 --out /tmp/camp4
diff -r /tmp/camp1/ci-tiny /tmp/camp4/ci-tiny --exclude=journal.jsonl
echo "artifacts byte-identical at 1 and 4 threads"
head -3 /tmp/camp4/ci-tiny/journal.jsonl > /tmp/camp4/ci-tiny/journal.trunc
mv /tmp/camp4/ci-tiny/journal.trunc /tmp/camp4/ci-tiny/journal.jsonl
./target/release/gemini campaign manifests/ci_tiny.toml --threads 4 --out /tmp/camp4 --resume \
  | tee /tmp/resume.log
grep -q "2 resumed from the journal" /tmp/resume.log
diff -r /tmp/camp1/ci-tiny /tmp/camp4/ci-tiny --exclude=journal.jsonl
echo "resumed artifacts byte-identical to the cold run"

# --- Campaign shards (pins: tests/campaign_shards.rs) -------------------
# The sharding contract end to end, through the CLI surface:
# 1. run the tiny campaign unsharded — the reference bytes;
# 2. run it as 3 shards, but "kill" shard 1 mid-run by cutting
#    its journal back to the header (as if it died before
#    journaling anything), then resume it;
# 3. merge — the merged artifacts must be byte-identical to the
#    unsharded run (journals excluded from the diff: the sharded
#    directory intentionally has journal-shard-*.jsonl instead
#    of journal.jsonl).
./target/release/gemini campaign manifests/ci_tiny.toml --threads 2 --out /tmp/ref
./target/release/gemini campaign manifests/ci_tiny.toml --threads 2 --out /tmp/sh \
  --shards 3 --shard-index 0
./target/release/gemini campaign manifests/ci_tiny.toml --threads 2 --out /tmp/sh \
  --shards 3 --shard-index 1
# Kill shard 1 retroactively: forget everything it journaled.
head -1 /tmp/sh/ci-tiny/journal-shard-1.jsonl > /tmp/sh/ci-tiny/journal.trunc
mv /tmp/sh/ci-tiny/journal.trunc /tmp/sh/ci-tiny/journal-shard-1.jsonl
./target/release/gemini campaign manifests/ci_tiny.toml --threads 2 --out /tmp/sh \
  --shards 3 --shard-index 2
# An incomplete merge must refuse, naming the hole.
if ./target/release/gemini campaign merge manifests/ci_tiny.toml --out /tmp/sh; then
  echo "merge of an incomplete shard set must fail" && exit 1
fi
# Resume the killed shard, then merge.
./target/release/gemini campaign manifests/ci_tiny.toml --threads 2 --out /tmp/sh \
  --shards 3 --shard-index 1 --resume
./target/release/gemini campaign merge manifests/ci_tiny.toml --out /tmp/sh
diff -r /tmp/ref/ci-tiny /tmp/sh/ci-tiny --exclude='journal*'
echo "merged artifacts byte-identical to the unsharded run"

# --- Serving campaign + SLA objective (pins: tests/decode_serving.rs) ---
# The `test` job's tier-1 suite already runs tests/decode_serving.rs
# (golden decode-step counts, member-record reuse across the
# position sweep, the p99 >= p50 >= mapped-floor property, campaign
# determinism with traffic objectives, and the pinned pre-redesign
# ci_tiny fingerprint). This job checks the same determinism claim
# end to end through the CLI surface: the serving campaign (decode
# workload, `p99@500` and `goodput@500:25ms` objectives, a traffic
# Pareto axis) must be byte-identical at 1 and 4 threads and across
# a resume from a header-only journal. The traffic replay is seeded
# and closed-form, so nothing in the artifacts may depend on timing.
./target/release/gemini campaign manifests/serving_tiny.toml --threads 1 --out /tmp/srv1
./target/release/gemini campaign manifests/serving_tiny.toml --threads 4 --out /tmp/srv4
diff -r /tmp/srv1/serving-tiny /tmp/srv4/serving-tiny --exclude=journal.jsonl
echo "serving artifacts byte-identical at 1 and 4 threads"
head -2 /tmp/srv4/serving-tiny/journal.jsonl > /tmp/srv4/serving-tiny/journal.trunc
mv /tmp/srv4/serving-tiny/journal.trunc /tmp/srv4/serving-tiny/journal.jsonl
./target/release/gemini campaign manifests/serving_tiny.toml --threads 4 --out /tmp/srv4 --resume
diff -r /tmp/srv1/serving-tiny /tmp/srv4/serving-tiny --exclude=journal.jsonl
echo "resumed serving artifacts byte-identical to the cold run"
# The SLA-aware objective reaches the DSE surface: a p99@500
# strided DSE at 1 and 4 threads prints the identical winner.
./target/release/gemini dse --tops 72 --stride 400 --batch 2 --iters 60 \
  --objective p99@500 --threads 1 > p99_1.txt
GEMINI_SA_THREADS=4 ./target/release/gemini dse --tops 72 --stride 400 --batch 2 --iters 60 \
  --objective p99@500 > p99_4.txt
diff p99_1.txt p99_4.txt
echo "p99 winner bit-identical at 1 and 4 threads"

# --- Rung-0 bound pruning (pins: tests/bound_soundness.rs) --------------
# The `test` job's tier-1 suite already runs the rung-0 contract's
# tests: bound soundness over >= 1000 workload/arch/mapping triples
# (tests/bound_soundness.rs), prune invisibility on DSE winners and
# reports (tests/bound_dse_differential.rs) and the golden integer
# bounds (tests/bound_golden.rs). This job checks the invisibility
# claim end to end through the CLI surface: a strided 72-TOPs DSE
# with pruning off and on must print the identical winner block,
# and the prune run must report a non-zero prune counter.
./target/release/gemini dse --tops 72 --stride 400 --batch 2 --iters 60 \
  --fidelity analytic --threads 1 | grep -v "bound prune:" > off.txt
./target/release/gemini dse --tops 72 --stride 400 --batch 2 --iters 60 \
  --fidelity analytic+prune --threads 1 | grep -v "bound prune:" > on.txt
diff off.txt on.txt
echo "winner byte-identical with pruning on and off"
./target/release/gemini dse --tops 72 --stride 400 --batch 2 --iters 60 \
  --fidelity analytic+prune --threads 1 | grep "bound prune:" | tee prune.txt
grep -vq "0/.* candidate(s) pruned (0.0%)" prune.txt
