#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the `gemini` program.

Run from the repository root:

    python3 perfbench/run.py --workload dse-prune --seed 1 --seconds 20 --trace 0

It builds `gemini` (and, with `--trace 1`, the in-process tracer in
`perfbench/tracer`) from source with `cargo build --release --offline`,
then drives one workload:

* `--trace 0` starts fresh `gemini serve` daemons and drives them from
  outside, as a user does, and reports the end-to-end metrics;
* `--trace 1` runs the workload once more through the daemon (for its
  payload digest and daemon-side counters) and then re-drives it
  in-process through the layers' public functions (`perfbench-tracer`),
  and reports the per-layer metrics.

While a workload runs, `perfbench/witness.py` samples how fast each core
runs, and host times are scaled to nominal core speed (see
`WITNESS_NOMINAL_NS`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it is
the run context (commit, host, thread counts, build profile, generator
lag, sample counts and the payload digest). A wrong or missing answer,
a payload digest that differs between runs of the same code and seed,
or a lagging load generator makes the run fail with exit code 1.
See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("dse-prune", "campaign-fluid", "serving-decode", "daemon-mixed")

END_TO_END = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("best_score", "score"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("goodput_rps", "1/s"),
]

PER_LAYER = [
    ("partition.s", "s"),
    ("partition.groups", "count"),
    ("stripe.s", "s"),
    ("sa.s", "s"),
    ("sa.chains", "count"),
    ("sa.cache_hit_pct", "%"),
    ("sa.delta_pct", "%"),
    ("sa.member_reuse_pct", "%"),
    ("sa.member_sims", "count"),
    ("eval.s", "s"),
    ("intracore.entries", "count"),
    ("bound.s", "s"),
    ("bound.calls", "count"),
    ("bound.prune_pct", "%"),
    ("bound.winner_gap", "ratio"),
    ("fluid.s", "s"),
    ("fluid.flows", "count"),
    ("traffic.s", "s"),
    ("traffic.calls", "count"),
    ("cost.s", "s"),
    ("journal.s", "s"),
    ("journal.bytes", "bytes"),
    ("pareto.s", "s"),
    ("artifacts.s", "s"),
    ("artifacts.bytes", "bytes"),
    ("service.handle_ms.p50", "ms"),
    ("service.handle_ms.p95", "ms"),
    ("service.memo_hit_pct", "%"),
    ("service.memo_evictions", "count"),
    ("service.eval_cache_hit_pct", "%"),
    ("service.eval_cache_evictions", "count"),
    ("queue.wait_ms.p95", "ms"),
    ("queue.depth_max", "count"),
    ("server.busy", "count"),
    ("server.expired", "count"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.bytes", "bytes"),
    ("loadgen.lag_ms.p99", "ms"),
    ("loadgen.samples", "count"),
    ("fail_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.wall_s", "s"),
]

# Every phase is a single-process client using at most this many
# threads, so numbers from hosts with different core counts stay
# comparable: the daemon's sweep, cell or request workers.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
WORKERS = min(2, NPROC)

# The host's cores change speed by up to ~1.7x within seconds as
# neighbours load their sibling hyperthreads, and each core does so on
# its own. Every host-time metric but `setup_s` is therefore scaled to
# nominal core speed: a timing is divided by the slowdown the
# core-speed witness (`witness.py`) read over the same interval. The
# nominal reading is the witness loop's time on a fast core while
# `gemini` works beside it on the 2-vCPU Xeon host the benchmark was
# tuned on; it only sets the scale. Raw values are in the run context.
WITNESS_NOMINAL_NS = 420_000
MAX_WITNESSES = 8

# Spawn-to-first-ping samples per run; `setup_s` is their median.
SETUP_SPAWNS = 15
# The daemon's accept loop polls every 10 ms.
ACCEPT_POLL_S = 0.010

# dse-prune: the Table-I 72-TOPs grid at stride 29 (305 candidates).
DSE = {"tops": 72, "stride": 29, "batch": 64, "iters": 300,
       "fidelity": "analytic+prune", "objective": "mc-e-d"}

# campaign-fluid: manifests/dse_72tops.toml with the seed written in.
CAMPAIGN_FLUID = """[campaign]
name = "campaign-fluid"
seed = {seed}
sa_iters = 400
batches = [64]
objectives = ["mc-e-d"]
fidelity = "fluid"
pareto = ["latency", "energy", "edp", "mc"]

[workloads]
names = ["tf"]

[grid]
tops = 72.0
stride = 37
"""

# serving-decode: GPT-2 decode steps at a short and a long KV position
# across a strided Table-I grid, scored by the SLA-aware objectives.
SERVING_DECODE = """[campaign]
name = "serving-decode"
seed = {seed}
sa_iters = 200
batches = [1]
objectives = ["mc-e-d", "p99@500", "goodput@500:25ms"]
fidelity = "analytic"
pareto = ["latency", "energy", "p99@500"]

[workloads]
names = ["gpt2-decode@128", "gpt2-decode@2048"]
mode = "each"

[grid]
tops = 72.0
stride = 193
"""

PRIMARY_OBJECTIVE = {"campaign-fluid": "mc-e-d", "serving-decode": "p99@500"}

# daemon-mixed: an open-loop Poisson stream of `map` requests. Every
# block of 20 requests holds one fresh request per pool entry, 4 exact
# repeats (request-memo hits) and 3 repeats that differ only in `iters`
# (T-Map eval-cache replays) of the first `MIX_REPEATABLE` entries, in a
# seeded order with seeded SA seeds. Each seed sends the same mix, and a
# run sends more distinct requests than the 256-entry memo holds. The
# nominal phase uses the light and mid-weight `MIX_POOL`; the overload
# phase swaps its last two entries for the ~110 ms GPT-2 steps. Heavy
# requests in the nominal phase made p50 and p95 swing with the queueing
# they caused behind them (measured spread 0.56 over six seeds).
MIX_POOL = [
    ("tiny-resnet", 4, 40), ("two-conv", 8, 40), ("decode-tiny@512", 8, 40),
    ("gn", 4, 80), ("gn", 8, 120), ("gn", 1, 40), ("decode-tiny@64", 1, 80),
    ("decode-tiny@512", 4, 120), ("two-conv", 2, 80), ("tiny-resnet", 1, 120),
    ("decode-tiny@256", 2, 80), ("tiny-resnet", 8, 80), ("gn", 2, 80),
]
MIX_REPEATABLE = 11
MIX_OVERLOAD_POOL = MIX_POOL[:MIX_REPEATABLE] + [("gpt2-decode@128", 1, 40),
                                                 ("gpt2-decode@1024", 1, 40)]
MIX_ITERS = [40, 80, 120]
MIX_REPEATS, MIX_VARIANTS = 4, 3
# At 10 req/s the two workers are mostly idle and p95 is the heavy
# requests' own service time; at 20 req/s it was the Poisson clumps
# queueing behind them, which swung p95 by ±10% from seed to seed.
NOMINAL_RPS = 10.0
OVERLOAD_RPS = 240.0
NOMINAL_SHARE = 0.72  # of --seconds
OVERLOAD_SHARE = 0.2  # of --seconds
LATENCY_LIMIT_MS = 500
MIX_QUEUE = 16
# A run whose generator sent its 99th-percentile nominal-phase request
# later than this after its due time measured the generator, not the
# daemon.
MAX_LAG_MS = 50.0


class BenchError(Exception):
    """A wrong, missing or inconsistent answer: the run is not valid."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sub_seed(seed, tag):
    """A seed derived from the workload seed, stable across runs."""
    return random.Random(f"{seed}:{tag}").randrange(1, 2 ** 31)


def canonical(v):
    """JSON text of a payload with every number as a float, so the same
    payload digests the same whichever side printed it."""
    def norm(x):
        if isinstance(x, bool) or x is None or isinstance(x, str):
            return x
        if isinstance(x, (int, float)):
            return float(x)
        if isinstance(x, list):
            return [norm(y) for y in x]
        return {k: norm(y) for k, y in x.items()}
    return json.dumps(norm(v), sort_keys=True, separators=(",", ":"))


def sha(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else c.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- build

def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(trace):
    for need in ("Cargo.toml", os.path.join("src", "bin", "gemini.rs"), "crates"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"perfbench: {need} is missing; run from a checkout of the repository")
            sys.exit(2)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmds = [["cargo", "build", "--release", "--offline", "--bin", "gemini"]]
    if trace:
        cmds.append(["cargo", "build", "--release", "--offline", "--manifest-path",
                     os.path.join("perfbench", "tracer", "Cargo.toml")])
    for cmd in cmds:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log(f"perfbench: build failed: {' '.join(cmd)}")
            sys.exit(2)
    return (os.path.join(target_dir(), "release", "gemini"),
            os.path.join(target_dir(), "release", "perfbench-tracer"))


def run_context(args):
    commit = None
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
            profile = tomllib.load(f).get("profile", {}).get("release", {})
    except (OSError, tomllib.TOMLDecodeError):
        profile = {}
    return {
        "commit": commit,
        "source_tree": source_tree_hash(),
        "nproc": NPROC,
        "workers": WORKERS,
        "sa_threads_per_worker": 1,
        "build_profile": dict(profile, profile="release"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def source_tree_hash():
    """Digest of the program's and the benchmark's sources: the checkout
    may not be a git repository, and the digest ledger keys on the code
    that ran."""
    files = ["Cargo.toml", "Cargo.lock"]
    for pat in ("src/**/*.rs", "crates/**/*.rs", "crates/*/Cargo.toml",
                "vendor/**/*.rs", "vendor/*/Cargo.toml", "perfbench/*.py",
                "perfbench/tracer/src/*.rs"):
        files += sorted(glob.glob(pat, root_dir=ROOT, recursive=True))
    h = hashlib.sha256()
    for f in files:
        try:
            with open(os.path.join(ROOT, f), "rb") as fh:
                h.update(f.encode() + b"\0" + fh.read() + b"\0")
        except OSError:
            pass
    return h.hexdigest()[:16]


# --------------------------------------------------------------- daemon

class Daemon:
    """One `gemini serve` process on an ephemeral port plus one client
    connection. Construction is the set-up `setup_s` measures: spawn
    until the first `ping` is answered."""

    def __init__(self, exe, tmp, workers, queue=None, arrive_s=0.0):
        cmd = [exe, "serve", "--addr", "127.0.0.1:0", "--workers", str(workers)]
        if queue:
            cmd += ["--queue", str(queue)]
        self.errlog = open(os.path.join(tmp, "daemon.err"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=tmp, stdout=subprocess.PIPE,
                                     stderr=self.errlog, stdin=subprocess.DEVNULL)
        try:
            line = self.proc.stdout.readline().decode()
            m = re.match(r"listening on (\S+):(\d+)", line)
            if not m:
                raise BenchError(f"daemon did not announce its port: {line!r}")
            time.sleep(arrive_s)
            self.sock = socket.create_connection((m.group(1), int(m.group(2))), timeout=60)
            self.rfile = self.sock.makefile("rb")
            pong = self.call({"id": "setup", "verb": "ping"})
            self.setup_s = time.perf_counter() - t0 - arrive_s
            if not pong.get("ok"):
                raise BenchError(f"ping refused: {pong}")
        except BaseException:
            self.kill()
            raise

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def recv(self):
        line = self.rfile.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line)

    def call(self, req):
        self.send(json.dumps(req))
        return self.recv()

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def shutdown(self):
        try:
            r = self.call({"id": "bye", "verb": "shutdown"})
            if not r.get("ok"):
                raise BenchError(f"shutdown refused: {r}")
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self):
        for c in ("rfile", "sock"):
            if hasattr(self, c):
                getattr(self, c).close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.errlog.close()


class Witness:
    """One `witness.py` process pinned to each CPU this benchmark may
    use, sampling core speed while a workload runs. Use as a context
    manager; the samples are read when it exits."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.procs, self.paths = [], []
        self.times, self.readings = [], []

    def __enter__(self):
        try:
            for cpu in sorted(os.sched_getaffinity(0))[:MAX_WITNESSES]:
                path = os.path.join(self.tmp, f"witness{cpu}.txt")
                self.paths.append(path)
                self.procs.append(subprocess.Popen(
                    [sys.executable, os.path.join(HERE, "witness.py"), str(cpu), path],
                    stdin=subprocess.DEVNULL))
            deadline = time.perf_counter() + 10
            while not all(os.path.exists(p) and os.path.getsize(p) for p in self.paths):
                if time.perf_counter() > deadline or any(p.poll() is not None for p in self.procs):
                    raise BenchError("the core-speed witness did not start")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc):
        self.stop()
        samples = []
        for path in self.paths:
            with open(path) as f:
                for line in f:
                    parts = line.split()
                    if len(parts) == 2 and line.endswith("\n"):
                        samples.append((float(parts[0]), int(parts[1])))
        samples.sort()
        self.times = [t for t, _ in samples]
        self.readings = [ns for _, ns in samples]
        return False

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.terminate()
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()

    def slowdown(self, t0, t1):
        return stats.slowdown(self.times, self.readings, t0, t1, WITNESS_NOMINAL_NS)


def setup_samples(exe, tmp, workers, seed):
    """`SETUP_SPAWNS` spawn-to-first-ping times. The client arrives after
    the daemon announces its port (that wait is not counted) at offsets
    spread evenly over one accept-poll period, in a seeded order. So the
    poll wait it meets does not depend on which process wins a race, and
    takes the same set of values in every run: with uniformly random
    offsets the median of 15 spread 0.2-0.3 from run to run."""
    offsets = [(k + 0.5) / SETUP_SPAWNS * ACCEPT_POLL_S for k in range(SETUP_SPAWNS)]
    random.Random(f"setup:{seed}").shuffle(offsets)
    out = []
    for arrive_s in offsets:
        d = Daemon(exe, tmp, workers, arrive_s=arrive_s)
        out.append(d.setup_s)
        d.shutdown()
    return out


# ------------------------------------------------------ batch workloads

def batch_request(workload, seed, tmp, out_dir):
    if workload == "dse-prune":
        return dict(DSE, id="dse", verb="dse", threads=WORKERS, seed=sub_seed(seed, "dse"))
    text = (CAMPAIGN_FLUID if workload == "campaign-fluid" else SERVING_DECODE)
    manifest = os.path.join(tmp, f"{workload}.toml")
    with open(manifest, "w") as f:
        f.write(text.format(seed=sub_seed(seed, workload)))
    return {"id": "campaign", "verb": "campaign", "manifest": manifest,
            "threads": WORKERS, "out": out_dir}


def check_batch(workload, req, resp):
    """Checks one batch answer and returns `(cells, best_score, digest)`."""
    if not resp.get("ok"):
        raise BenchError(f"{workload}: request failed: {resp.get('error')}")
    p = resp["payload"]
    if workload == "dse-prune":
        m = re.match(r"(\d+) candidates in the", p["report"])
        if not m:
            raise BenchError("dse report lacks the candidate count")
        expected = math.ceil(int(m.group(1)) / req["stride"])
        if p.get("bound_total") != expected or not 0 <= p["bound_pruned"] < expected:
            raise BenchError(f"dse answered {p.get('bound_total')} of {expected} candidates")
        score = p["mc"] * p["energy_j"] * p["delay_s"]
        if not (math.isfinite(score) and score > 0):
            raise BenchError(f"dse winner score {score} is not a positive number")
        return expected, score, sha(canonical(dse_fields(p)))
    dirs = {os.path.dirname(a) for a in p["artifacts"]}
    if len(dirs) != 1:
        raise BenchError("campaign artifacts are not in one directory")
    cells, score, digest = campaign_outputs(workload, dirs.pop())
    if not (p["cells"] == p["evaluated"] == cells and p["skipped"] == 0):
        raise BenchError(f"campaign answered {p['evaluated']}/{p['cells']} cells, "
                         f"cells.csv has {cells}")
    return cells, score, digest


def dse_fields(payload):
    return {k: v for k, v in payload.items() if k != "report"}


def campaign_outputs(workload, d):
    """Row count, primary-objective score and digest of a campaign's
    `cells.csv` and `pareto.json`."""
    with open(os.path.join(d, "cells.csv"), "rb") as f:
        cells_csv = f.read()
    with open(os.path.join(d, "pareto.json"), "rb") as f:
        pareto_raw = f.read()
    pareto = json.loads(pareto_raw)
    rows = cells_csv.count(b"\n") - 1
    if pareto["cells_total"] != rows:
        raise BenchError("pareto.json and cells.csv disagree on the cell count")
    best = [b["score"] for b in pareto["best"] if b["objective"] == PRIMARY_OBJECTIVE[workload]]
    if len(best) != len(pareto["groups"]):
        raise BenchError("a group has no winner under the primary objective")
    return rows, stats.geomean(best), sha(cells_csv, pareto_raw)


def run_batch(args, exe, tmp, tally):
    res = {}
    setups = [] if args.trace else setup_samples(exe, tmp, 1, args.seed)
    reps = []
    with Witness(tmp) as witness:
        t_start = time.perf_counter()
        # The first repetition warms the host and is checked but not
        # timed: it ran up to a fifth slower than the rest. Repeat while
        # one more repetition of the mean length still ends within
        # --seconds (one repetition in a traced run).
        while len(reps) < (1 if args.trace else 2) or (not args.trace and time.perf_counter()
                                                       - t_start + sum(r["wall"] for r in reps)
                                                       / len(reps) <= args.seconds):
            out_dir = os.path.join(tmp, f"out{len(reps)}")
            req = batch_request(args.workload, args.seed, tmp, out_dir)
            d = Daemon(exe, tmp, 1)
            try:
                t0 = time.perf_counter()
                resp = d.call(req)
                wall = time.perf_counter() - t0
                rss = d.peak_rss_mb()
            finally:
                d.shutdown()
            tally["attempted"] += 1
            if not resp.get("ok"):
                tally["failed"] += 1
            cells, score, digest = check_batch(args.workload, req, resp)
            reps.append({"t0": t0, "wall": wall, "cells": cells, "score": score,
                         "digest": digest, "rss": rss, "service": resp.get("service", {}),
                         "req": req})
            shutil.rmtree(out_dir, ignore_errors=True)
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        raise BenchError(f"payload digest differs between repetitions: {sorted(digests)}")
    if len({r["score"] for r in reps}) != 1:
        raise BenchError("best score differs between repetitions")
    raw = [r["wall"] for r in reps]
    slow = [witness.slowdown(r["t0"], r["t0"] + r["wall"]) for r in reps]
    walls = [w / s for w, s in zip(raw, slow)]
    res["digest"] = reps[0]["digest"]
    res["samples"] = {"setup": len(setups), "requests": len(reps),
                      "wall_s": [round(w, 4) for w in raw],
                      "slowdown": [round(s, 3) for s in slow]}
    if args.trace:
        res["layers"] = trace_batch(args, tmp, reps[0])
        return res
    raw, walls = raw[1:], walls[1:]
    res["raw"] = {"cells_per_s": reps[0]["cells"] / stats.median(raw),
                  "p50_ms": 1e3 * stats.median(raw)}
    res["metrics"] = {
        "setup_s": stats.median(setups),
        "cells_per_s": reps[0]["cells"] / stats.median(walls),
        "best_score": reps[0]["score"],
        "peak_rss_mb": stats.median([r["rss"] for r in reps]),
        "p50_ms": 1e3 * stats.median(walls),
        "p95_ms": 1e3 * stats.percentile(walls, 95),
        "goodput_rps": 1 / stats.median(walls),
    }
    return res


def run_tracer(tracer, mode, tmp, lines):
    path = os.path.join(tmp, f"trace-{mode}.jsonl")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    r = subprocess.run([tracer, mode, path], cwd=tmp, capture_output=True, text=True,
                       timeout=170)
    if r.returncode != 0:
        raise BenchError(f"tracer failed: {r.stderr.strip()}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def trace_batch(args, tmp, rep):
    req = dict(rep["req"])
    if args.workload != "dse-prune":
        req["out"] = os.path.join(tmp, "traced")
    t = run_tracer(args.tracer, "dse" if args.workload == "dse-prune" else "campaign",
                   tmp, [json.dumps(req)])
    if args.workload == "dse-prune":
        digest = sha(canonical(t["result"]))
    else:
        _, _, digest = campaign_outputs(args.workload, t["result"]["dir"])
    if digest != rep["digest"]:
        raise BenchError(f"traced digest {digest} differs from the untraced {rep['digest']}")
    svc = rep["service"]
    layers = layer_metrics(t, svc)
    layers.update({
        "queue.depth_max": svc.get("queue_depth", 0),
        "loadgen.samples": 1,
        "fail_pct": stats.fail_pct(1, 1),
    })
    return layers


def layer_metrics(t, svc):
    """Per-layer metrics from a tracer report and a daemon `service`
    section. Every `.s` metric is self time."""
    spans, c = t["spans"], t["counters"]

    def s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def per_call_us(name):
        sp = spans.get(name)
        return 1e6 * sp["self_s"] / sp["calls"] if sp and sp["calls"] else 0.0

    memo, ev = svc.get("request_memo", {}), svc.get("eval_cache", {})
    return {
        "partition.s": s("partition"),
        "partition.groups": c["partition.groups"],
        "stripe.s": s("stripe"),
        "sa.s": s("sa"),
        "sa.chains": c["sa.chains"],
        "sa.cache_hit_pct": stats.ratio_pct(c["sa.cache_hits"],
                                            c["sa.cache_hits"] + c["sa.cache_misses"]),
        "sa.delta_pct": stats.ratio_pct(c["sa.delta_hits"],
                                        c["sa.delta_hits"] + c["sa.full_evals"]),
        "sa.member_reuse_pct": stats.ratio_pct(c["sa.member_reuses"],
                                               c["sa.member_reuses"] + c["sa.member_sims"]),
        "sa.member_sims": c["sa.member_sims"],
        "eval.s": s("eval"),
        "intracore.entries": c["intracore.entries"],
        "bound.s": s("bound"),
        "bound.calls": c["bound.calls"],
        "bound.prune_pct": stats.ratio_pct(c["bound.pruned"], c["bound.total"]),
        "bound.winner_gap": c["bound.winner_gap"],
        "fluid.s": s("fluid"),
        "fluid.flows": c["fluid.flows"],
        "traffic.s": s("traffic"),
        "traffic.calls": c["traffic.calls"],
        "cost.s": s("cost"),
        "journal.s": s("journal"),
        "journal.bytes": c["journal.bytes"],
        "pareto.s": s("pareto"),
        "artifacts.s": s("artifacts"),
        "artifacts.bytes": c["artifacts.bytes"],
        "service.handle_ms.p50": 0.0,
        "service.handle_ms.p95": 0.0,
        "service.memo_hit_pct": stats.ratio_pct(memo.get("hits", 0),
                                                memo.get("hits", 0) + memo.get("misses", 0)),
        "service.memo_evictions": memo.get("evictions", 0),
        "service.eval_cache_hit_pct": stats.ratio_pct(ev.get("hits", 0),
                                                      ev.get("hits", 0) + ev.get("misses", 0)),
        "service.eval_cache_evictions": ev.get("evictions", 0),
        "queue.wait_ms.p95": 0.0,
        "queue.depth_max": 0,
        "server.busy": 0,
        "server.expired": 0,
        "wire.decode_us": per_call_us("wire.decode"),
        "wire.encode_us": per_call_us("wire.encode"),
        "wire.bytes": c["wire.bytes"],
        "loadgen.lag_ms.p99": 0.0,
        "trace.coverage_pct": stats.ratio_pct(t["covered_s"], t["wall_s"]),
        "trace.wall_s": t["wall_s"],
    }


# ------------------------------------------------------- daemon-mixed

class MapStream:
    """The seeded daemon-mixed request stream, one block at a time."""

    def __init__(self, seed, pool, tag):
        self.pool = pool
        self.rng = random.Random(f"daemon-mixed:{tag}:{seed}")
        self.pending = []
        self.blocks = 0

    def _block(self):
        rng = self.rng
        pool = list(self.pool)
        rng.shuffle(pool)
        fresh = [{"model": m, "batch": b, "iters": i, "seed": rng.randrange(1, 2 ** 31)}
                 for m, b, i in pool]
        seq = list(fresh)
        # Which entries are repeated rotates from block to block, so
        # every entry is repeated and varied equally often.
        n_extra = MIX_REPEATS + MIX_VARIANTS
        for k in range(n_extra):
            orig = fresh[pool.index(self.pool[(self.blocks * n_extra + k) % MIX_REPEATABLE])]
            p = dict(orig)
            if k >= MIX_REPEATS:
                p["iters"] = rng.choice([i for i in MIX_ITERS if i != p["iters"]])
            at = next(j for j, x in enumerate(seq) if x is orig)
            seq.insert(rng.randrange(at + 1, len(seq) + 1), p)
        self.blocks += 1
        return seq

    def next(self):
        if not self.pending:
            self.pending = self._block()[::-1]
        return dict(self.pending.pop())


def map_key(p):
    return (p["model"], p["batch"], p["iters"], p["seed"])


def mixed_phases(seed, seconds):
    """The nominal and overload phases: lists of `(id, due offset,
    request)`."""
    stream = MapStream(seed, MIX_POOL, "nominal")
    arrivals = random.Random(f"arrivals:{seed}")
    # Whole blocks only, so every seed sends the same multiset of models:
    # a part block moved p95 across the gap between the heavy requests
    # and the rest, by up to a quarter from seed to seed.
    block = len(MIX_POOL) + MIX_REPEATS + MIX_VARIANTS
    n_nom = block * max(math.ceil(stats.min_samples_for(95) / block),
                        round(NOMINAL_RPS * NOMINAL_SHARE * seconds / block))
    nominal, t = [], 0.0
    for i in range(n_nom):
        t += arrivals.expovariate(NOMINAL_RPS)
        nominal.append((f"n{i}", t, dict(stream.next(), verb="map", arch="g-arch", threads=1)))
    stream = MapStream(seed, MIX_OVERLOAD_POOL, "overload")
    overload, t, phase_s = [], 0.0, OVERLOAD_SHARE * seconds
    while True:
        t += arrivals.expovariate(OVERLOAD_RPS)
        if t > phase_s:
            break
        overload.append((f"o{len(overload)}", t, dict(stream.next(), verb="map", arch="g-arch",
                                                      threads=1, deadline_ms=LATENCY_LIMIT_MS)))
    return nominal, overload, phase_s


def open_loop(d, phase):
    """Sends `phase` on schedule from a sender thread while this thread
    reads the answers. Returns `(start, sent, done, responses)`, times
    on the `perf_counter` clock."""
    start = time.perf_counter() + 0.05
    sent, done, resp = {}, {}, {}
    errors = []

    def sender():
        try:
            for rid, off, req in phase:
                delay = start + off - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent[rid] = time.perf_counter()
                d.send(json.dumps(dict(req, id=rid)))
        except OSError as e:
            errors.append(e)

    th = threading.Thread(target=sender)
    th.start()
    try:
        while len(resp) < len(phase):
            r = d.recv()
            done[r["id"]] = time.perf_counter()
            resp[r["id"]] = r
    except socket.timeout:
        raise BenchError(f"{len(phase) - len(resp)} request(s) were never answered")
    finally:
        th.join()
    if errors:
        raise BenchError(f"sender failed: {errors[0]}")
    return start, sent, done, resp


def run_mixed(args, exe, tmp, tally):
    nominal, overload, phase_s = mixed_phases(args.seed, args.seconds)
    setups = setup_samples(exe, tmp, WORKERS, args.seed)
    with Witness(tmp) as witness:
        d = Daemon(exe, tmp, WORKERS, MIX_QUEUE)
        try:
            n_start, n_sent, n_done, n_resp = open_loop(d, nominal)
            # Read after the fixed nominal work: every distinct request the
            # overload phase gets served grows the eval cache, and how many
            # get served follows the host's speed.
            rss = d.peak_rss_mb()
            o_start, o_sent, o_done, o_resp = open_loop(d, overload)
        finally:
            d.shutdown()

    failed = sum(1 for rid, _, _ in nominal if not n_resp[rid].get("ok"))
    unexpected = [r for r in o_resp.values() if not r.get("ok")
                  and r.get("error", {}).get("code") not in ("busy", "expired")]
    failed += len(unexpected)
    tally.update(attempted=len(nominal) + len(overload), failed=failed)
    # Same request, same payload: memo hits and overload answers must
    # reproduce the first answer byte for byte.
    payloads = {}
    for rid, _, req in nominal + overload:
        r = (n_resp if rid in n_resp else o_resp)[rid]
        if r.get("ok"):
            text = canonical(r["payload"])
            if payloads.setdefault(map_key(req), text) != text:
                raise BenchError(f"request {rid} answered a different payload for a repeat")
    nominal_keys = {map_key(req) for _, _, req in nominal}
    if failed:
        raise BenchError(f"{failed} request(s) failed: "
                         f"{[r.get('error') for r in unexpected][:3]}")
    digest = sha(*sorted(payloads[k] for k in nominal_keys))
    edp = []
    for k in nominal_keys:
        p = json.loads(payloads[k])
        edp.append(p["gmap_energy_j"] * p["gmap_delay_s"]
                   / (p["tmap_energy_j"] * p["tmap_delay_s"]))

    due = {rid: n_start + off for rid, off, _ in nominal}
    lat = stats.latencies_from_due(due, n_done)
    o_due = {rid: o_start + off for rid, off, _ in overload}
    o_lat = stats.latencies_from_due(o_due, o_done)
    # Scaled to nominal core speed: each latency by the slowdown over its
    # own interval, the overload phase's rates by the phase's slowdown.
    lat_n = {rid: v / witness.slowdown(due[rid], n_done[rid]) for rid, v in lat.items()}
    o_lat_n = {rid: v / witness.slowdown(o_due[rid], o_done[rid]) for rid, v in o_lat.items()}
    o_slow = witness.slowdown(o_start, max(o_done.values()))
    outcomes = [(o_resp[rid].get("ok"), o_lat_n.get(rid)) for rid, _, _ in overload]
    n_lag = stats.sender_lag(due, n_sent)
    lag_ms = 1e3 * stats.percentile(n_lag + stats.sender_lag(o_due, o_sent), 99)
    if 1e3 * stats.percentile(n_lag, 99) > MAX_LAG_MS:
        raise BenchError(f"load generator lagged in the nominal phase: p99 "
                         f"{1e3 * stats.percentile(n_lag, 99):.1f} ms > {MAX_LAG_MS} ms")
    ok_over = [o_done[rid] for rid, _, _ in overload if o_resp[rid].get("ok")]
    if not ok_over:
        raise BenchError("no overload request was answered ok")
    codes = [r.get("error", {}).get("code") for r in o_resp.values()]
    services = [r["service"] for r in list(n_resp.values()) + list(o_resp.values())
                if "service" in r]
    res = {
        "digest": digest,
        "samples": {"setup": len(setups), "nominal": len(lat),
                    "beyond_p95": stats.samples_beyond(len(lat), 95),
                    "overload_sent": len(overload), "overload_ok": len(ok_over),
                    "distinct_nominal": len(nominal_keys), "distinct_total": len(payloads)},
        "lag_ms_p99": lag_ms,
        "raw": {"cells_per_s": len(ok_over) / phase_s,
                "p50_ms": 1e3 * stats.percentile(lat.values(), 50),
                "p95_ms": 1e3 * stats.percentile(lat.values(), 95),
                "overload_slowdown": o_slow},
        "metrics": {
            "setup_s": stats.median(setups),
            "cells_per_s": len(ok_over) * o_slow / phase_s,
            "best_score": stats.geomean(edp),
            "peak_rss_mb": rss,
            "p50_ms": 1e3 * stats.percentile(lat_n.values(), 50),
            "p95_ms": 1e3 * stats.percentile(lat_n.values(), 95),
            "goodput_rps": stats.goodput_rps(outcomes, LATENCY_LIMIT_MS / 1e3, phase_s / o_slow),
        },
    }
    if args.trace:
        t = run_tracer(args.tracer, "map", tmp,
                       [json.dumps(dict(req, id=rid)) for rid, _, req in nominal])
        traced = {map_key(req): canonical(t["result"]["payloads"][rid])
                  for rid, _, req in nominal}
        t_digest = sha(*sorted(traced[k] for k in nominal_keys))
        if t_digest != digest:
            raise BenchError(f"traced digest {t_digest} differs from the untraced {digest}")
        handle = t["result"]["handle_ms"]
        last = max(services, key=lambda s: s.get("served", 0))
        layers = layer_metrics(t, last)
        wait = [1e3 * (n_done[rid] - n_sent[rid]) - handle[rid] for rid, _, _ in nominal]
        layers.update({
            "service.handle_ms.p50": stats.percentile(handle.values(), 50),
            "service.handle_ms.p95": stats.percentile(handle.values(), 95),
            "queue.wait_ms.p95": stats.percentile(wait, 95),
            "queue.depth_max": max(s.get("queue_depth", 0) for s in services),
            "server.busy": codes.count("busy"),
            "server.expired": codes.count("expired"),
            "loadgen.lag_ms.p99": lag_ms,
            "loadgen.samples": len(lat),
            "fail_pct": stats.fail_pct(len(nominal), len(nominal) - failed),
        })
        res["layers"] = layers
    return res


# ----------------------------------------------------------------- main

def digest_ledger(ctx, digest):
    """Fails when the same code, workload, seed and run length produced
    a different digest in an earlier run in this checkout."""
    path = os.path.join(ROOT, ".bench_tmp", "digests.json")
    try:
        with open(path) as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    key = f"{ctx['source_tree']}:{ctx['workload']}:{ctx['seed']}:{ctx['seconds']}"
    if ledger.setdefault(key, digest) != digest:
        raise BenchError(f"digest {digest} differs from {ledger[key]} recorded by an "
                         "earlier run of the same code and inputs")
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    exe, args.tracer = build(args.trace)
    ctx = run_context(args)
    tmp = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    tally = {"attempted": 0, "failed": 0}
    try:
        res = (run_mixed if args.workload == "daemon-mixed" else run_batch)(args, exe, tmp, tally)
        digest_ledger(ctx, res["digest"])
        correct = True
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"perfbench: {args.workload}: {type(e).__name__}: {e}")
        res, correct = {}, False
        tally["attempted"] = max(1, tally["attempted"])
        tally["failed"] = max(1, tally["failed"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ctx.update({k: res[k] for k in ("digest", "samples", "lag_ms_p99", "raw")
                if k in res})
    print(json.dumps({"context": ctx}, sort_keys=True))
    metrics = {}
    if correct:
        table, values = (PER_LAYER, res["layers"]) if args.trace else (END_TO_END, res["metrics"])
        for name, unit in table:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{args.workload:>15} {name:<30} {values[name]:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
