"""Seeded input generation for the perfbench workloads.

`generate(workload, seed)` returns the text of one inputs file for the
workload binary: the specialization keys (stencil descriptors, SpMV row counts and
band offsets) and the clients' step schedule. The same (workload, seed)
always yields byte-identical text. Every distribution is stratified -- point
counts cycle through their whole range, job lengths are drawn one per
log-stratum -- so that run-level medians do not depend on which seed drew
them, while the individual keys (and so IR sizes and compile times) do.
"""

import math
import random

# Neighbour offsets (dx, dy) a stencil point may use: the kernels compute
# rows and columns 1..N-2, so offsets stay within one cell.
OFFSETS = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
POINT_COUNTS = list(range(2, 9))  # FlatStencil/SortedGroup capacity is 8
KINDS = ("lf", "ls", "ef", "sp")

# Workload geometry.
COLD_KEYS = 6000          # fresh keys; more than a 60 s window uses
COLD_SHARED_EVERY = 5     # one step in 5 hands one key to both clients
WARMUP_POINTS = 5          # stencil points / SpMV bands of the set-up's keys
TIERED_KEYS = 3000
TIERED_STRATA = 16
TIERED_MIN_CALLS = 100
TIERED_MAX_CALLS = 100000

# Set-ups per run (setup_s is their median) and client threads per workload.
# cold_specialize needs two clients for its shared keys; tiered_jobs runs one,
# so no job queues behind the other client's Tier-0a compile.
SETUP_REPS = {
    "cold_specialize": 21,
    "tiered_jobs": 41,
}
CLIENTS = {
    "cold_specialize": 2,
    "tiered_jobs": 1,
}
WORKLOADS = tuple(SETUP_REPS)


def _cycle(rng, values):
    """Endless stream that visits every value once per shuffled pass."""
    while True:
        batch = list(values)
        rng.shuffle(batch)
        yield from batch


def _factor(rng):
    return repr(round(rng.uniform(0.05, 0.3), 6))


def _flat(rng, points):
    chosen = rng.sample(OFFSETS, points)
    body = " ".join(f"{_factor(rng)} {dx} {dy}" for dx, dy in chosen)
    return f"{points} {body}"


def _sorted(rng, points, groups=None):
    groups = groups or rng.randint(1, min(4, points))
    cuts = sorted(rng.sample(range(1, points), groups - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [points])]
    chosen = rng.sample(OFFSETS, points)
    parts, at = [], 0
    for size in sizes:
        pts = " ".join(f"{dx} {dy}" for dx, dy in chosen[at:at + size])
        parts.append(f"{_factor(rng)} {size} {pts}")
        at += size
    return f"{groups} " + " ".join(parts)


def _spmv(rng, rows, bands):
    offsets = sorted([0] + rng.sample([o for o in range(-32, 33) if o], bands - 1))
    return f"{rows} {bands} " + " ".join(str(o) for o in offsets)


class _Keys:
    """Builds distinct key lines, stratified per kind."""

    def __init__(self, rng):
        self.rng = rng
        self.lines = []
        self.points = {k: _cycle(rng, POINT_COUNTS) for k in ("lf", "ls", "ef")}
        self.rows = _cycle(rng, range(64, 1024))
        self.bands = _cycle(rng, range(3, 8))
        self.seen = set()

    def add(self, kind, points=None, bands=None, groups=None):
        while True:
            if kind == "sp":
                body = _spmv(self.rng, next(self.rows), bands or next(self.bands))
            elif kind == "ls":
                body = _sorted(self.rng, points or next(self.points[kind]), groups)
            else:
                body = _flat(self.rng, points or next(self.points[kind]))
            if body not in self.seen:  # SpMV keys differ by row count
                break
        self.seen.add(body)
        self.lines.append(f"key {len(self.lines)} {kind} {body}")
        return len(self.lines) - 1


def _warmup(keys, kinds):
    """Keys the set-up compiles before the window (never scheduled). Their
    shapes are fixed, so every seed's set-up does the same work."""
    return [f"warmup {keys.add(kind, points=WARMUP_POINTS, bands=WARMUP_POINTS, groups=2)}"
            for kind in kinds]


def _cold(rng, keys):
    lines = _warmup(keys, KINDS)
    ids = []
    while len(ids) < COLD_KEYS:
        block = list(KINDS)
        rng.shuffle(block)
        ids.extend(keys.add(kind) for kind in block)
    # Walk the keys; a fixed share of steps hands one key to both clients.
    at = 0
    shared = _cycle(rng, [True] + [False] * (COLD_SHARED_EVERY - 1))
    while at + 1 < len(ids):
        if next(shared):
            lines.append(f"step {ids[at]} {ids[at]}")
            at += 1
        else:
            lines.append(f"step {ids[at]} {ids[at + 1]}")
            at += 2
    return lines


def _tiered(rng, keys):
    # Job lengths log-uniform in [MIN, MAX], one draw per log-stratum per
    # block of TIERED_STRATA jobs.
    lo, hi = TIERED_MIN_CALLS, TIERED_MAX_CALLS
    span = math.log10(hi) - math.log10(lo)

    def lengths():
        while True:
            block = [
                int(10 ** (math.log10(lo) + span * (s + rng.random()) / TIERED_STRATA))
                for s in range(TIERED_STRATA)
            ]
            rng.shuffle(block)
            yield from block

    calls = lengths()
    kinds = _cycle(rng, ("lf", "ls"))
    lines = _warmup(keys, ("lf", "ls"))
    for _ in range(TIERED_KEYS):  # one client: one key per step
        key, n = keys.add(next(kinds)), next(calls)
        lines.append(f"step {key} {key} {n} {n}")
    return lines


def generate(workload, seed):
    """Inputs-file text for one workload and seed."""
    if workload not in SETUP_REPS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    keys = _Keys(rng)
    body = {"cold_specialize": _cold, "tiered_jobs": _tiered}[workload](rng, keys)
    head = [f"workload {workload}", f"setup_reps {SETUP_REPS[workload]}",
            f"clients {CLIENTS[workload]}"]
    return "\n".join(head + keys.lines + body) + "\n"
