"""Arithmetic of the benchmark's metrics, kept apart so it can be tested.

Every function here is pure: it takes recorded numbers and returns a
metric. Times are in seconds unless a name says otherwise.
"""

import bisect
import math


def median(values):
    """The median of a non-empty sequence."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least `pct`
    percent of the samples at or below it."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(s)))
    return s[rank - 1]


def samples_beyond(n, pct):
    """How many of `n` samples lie strictly beyond the nearest-rank
    `pct`-th percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n)) if n else 0


def min_samples_for(pct, beyond=10):
    """The fewest samples for which the nearest-rank `pct`-th percentile
    has at least `beyond` samples beyond it."""
    n = beyond
    while samples_beyond(n, pct) < beyond:
        n += 1
    return n


def latencies_from_due(due, done):
    """Per-request latency of an open loop, timed from when each request
    was *due* to be sent (not when the sender got to it), so a stalled
    sender charges its stall to every request it delayed.

    `due` and `done` map request id to a time; requests without a
    `done` time are left out (the caller counts them as failed)."""
    return {rid: done[rid] - t for rid, t in due.items() if rid in done}


def sender_lag(due, sent):
    """How late the sender wrote each request: `sent - due` per id."""
    return [sent[rid] - t for rid, t in due.items() if rid in sent]


def goodput_rps(outcomes, limit_s, phase_s):
    """Requests answered `ok` within `limit_s` (timed from the due time)
    per second of phase. `outcomes` is a list of `(ok, latency_s)`; a
    refused, expired, failed or unanswered request (`ok` false or
    latency `None`) counts as a miss."""
    if phase_s <= 0:
        raise ValueError("phase length must be positive")
    good = sum(1 for ok, lat in outcomes if ok and lat is not None and lat <= limit_s)
    return good / phase_s


def fail_pct(sent, answered_ok):
    """Share of the requests *sent* that were not answered `ok`, in
    percent. The base is every request sent, so an unanswered request
    counts as failed."""
    if sent <= 0:
        raise ValueError("no requests sent")
    if answered_ok > sent:
        raise ValueError("more answers than requests")
    return 100.0 * (sent - answered_ok) / sent


def ratio_pct(part, whole):
    """`part / whole` in percent, 0 when `whole` is 0."""
    return 100.0 * part / whole if whole else 0.0


def slowdown(times, readings, t0, t1, nominal_ns, pad_s=0.1):
    """How much slower than nominal the cores ran over `[t0, t1]`.

    `times` (sorted) and `readings` are the core-speed witness's samples
    from every CPU: when each was taken and how many ns its loop took.
    The answer is the mean reading in the interval widened by `pad_s` on
    each side (so a short request still sees a few readings) over
    `nominal_ns`. A timing divided by it is the time the same work takes
    on cores running at the nominal speed; a rate is multiplied by it."""
    if t1 < t0 or nominal_ns <= 0:
        raise ValueError("empty interval or non-positive nominal time")
    lo, hi = bisect.bisect_left(times, t0 - pad_s), bisect.bisect_right(times, t1 + pad_s)
    if lo == hi:
        raise ValueError("no witness reading near the interval")
    return sum(readings[lo:hi]) / (hi - lo) / nominal_ns


def geomean(values):
    """Geometric mean of positive values."""
    vals = list(values)
    if not vals or any(v <= 0 or not math.isfinite(v) for v in vals):
        raise ValueError("geomean needs positive finite values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
