"""The benchmark's workloads, their correctness gates and their metrics.

One process, one closed-loop client: each call starts only after the
previous one returned.  Every call goes through nilbij's module
attributes at call time (``nilbij.census.verify_theorem``, not a name
bound at import), so a :class:`tracer.Tracer` sees it.

* ``audit``, ``count``, ``joyal`` run census entry points over whole grid
  points.  They are exhaustive, so their inputs do not depend on the
  seed; each report is checked against ``digests.json`` and must be ok.
* ``calls`` round-trips a seeded stream of random operators through the
  library and through in-process ``nilbij.cli.main``, with one malformed
  payload per operator that must exit 2.  The two known input-handling
  escapes are probed once per run, outside the timed stream, and
  reported on a note line.

See README.md for why each workload exists and what it predicts.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import nilbij
import nilbij.census
import nilbij.cli
from nilbij import FieldSpec, Matrix, NilpotentPair

from hostspeed import HostClock
from tracer import Tracer, span_names

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Grid points of the calls corpus, (p, k, n): all beyond exhaustive reach.
CALLS_GRID = ((2, 1, 8), (2, 1, 16), (3, 1, 6), (3, 2, 5))

# Malformed payload classes that nilbij rejects, one per operator in
# rotation; each must exit 2.
MALFORMED = ("out_of_range", "wrong_shape", "missing_key", "non_prime_p")

# Known input-handling escapes (ROADMAP item 4): "str_entry" (a ValueError
# escapes cli.main) and "float_p" (p = 2.7 is read as 2).  Every operation
# of a timed run must succeed, so they are not in the timed stream; each
# run probes them once and prints the outcome on a note line.  A huge
# prime-looking p (1000000000000000003) is left out: _is_prime trial
# division runs unbounded on it, and a hang cannot be timed.
KNOWN_ESCAPES = ("str_entry", "float_p")

# Traced runs do a fixed amount of work so their call counts repeat.
TRACE_CALL_ITEMS = 48

SETUP_REPEATS = 21

# Census steps run for seconds, long enough for the host to change speed
# within one; the host job is also timed this often inside each step.
HOST_SAMPLE_S = 0.1

PER_ITEM = (
    "linalg.rref", "linalg.mat_inv", "linalg.Matrix", "subspaces.Subspace",
    "subspaces.is_complementary", "bijection.forward",
)


def dumps(obj) -> str:
    """Canonical JSON, byte for byte what ``nilbij.cli`` writes.

    Kept local so the benchmark's own checks add no ``cli`` spans."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def make_spec(p: int, k: int) -> FieldSpec:
    return FieldSpec(p) if k == 1 else FieldSpec(p, k)


# -- bookkeeping -------------------------------------------------------


@dataclass
class Tally:
    """Attempted and failed operations, by reason.

    ``wrong`` counts failures on well-formed inputs: a wrong report, a
    broken round trip, an exception.  Only those make a run incorrect;
    malformed payloads that fail to exit 2 count in ``failed`` alone.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, reason: str | None, well_formed: bool = True) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.wrong += well_formed
            self.reasons[reason] += 1


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest integer percentile (nearest rank) with at least ten
    samples beyond it, and its value; None below 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# Runs in a fresh interpreter: import nilbij and build every field the
# workload uses, lazy tables filled; print the seconds that took and the
# host's slowness, measured after it.
_SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import importlib
for name in json.loads(sys.argv[3]):
    importlib.import_module(name)
from nilbij import FieldSpec
for p, k in json.loads(sys.argv[4]):
    spec = FieldSpec(p) if k == 1 else FieldSpec(p, k)
    spec.add(0, 0), spec.mul(0, 0), spec.neg(0)
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import hostspeed
print(elapsed, hostspeed.job_seconds() / hostspeed.REFERENCE_S)
"""


def measure_setup(src: Path, modules: list[str], fields: list[tuple[int, int]]) -> float:
    """Median scaled set-up time over fresh processes; one unmeasured
    warm-up first, since the first import in a checkout compiles bytecode."""
    argv = [sys.executable, "-I", "-c", _SETUP_CODE, str(src), str(Path(__file__).parent),
            json.dumps(modules), json.dumps(fields)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
        elapsed, slowness = map(float, done.stdout.split())
        times.append(elapsed / slowness)
    return statistics.median(times[1:])


# -- census workloads ----------------------------------------------------


@dataclass(frozen=True)
class CensusStep:
    """One census entry point at one grid point."""

    entry: str
    p: int
    k: int
    n: int

    @property
    def label(self) -> str:
        if self.entry == "verify_joyal":
            return f"verify_joyal n={self.n}"
        return f"{self.entry} GF({self.p ** self.k}) n={self.n}"

    def run(self, specs: dict) -> tuple[dict, bool, int]:
        """Call the entry point; return its deterministic payload, whether
        it reports ok, and the number of items it audited."""
        census = nilbij.census
        n = self.n
        if self.entry == "verify_joyal":
            report = census.verify_joyal(n)
            payload = report.to_json()
            del payload["elapsed_s"]
            return payload, report.ok, report.total_functions
        spec = specs[self.p, self.k]
        items = spec.q ** (n * n)
        if self.entry == "verify_theorem":
            report = census.verify_theorem(spec, n)
            payload = report.to_json()
            del payload["elapsed_s"]
            return payload, report.ok, items
        if self.entry == "verify_degree_refinement":
            strata = census.verify_degree_refinement(spec, n)
            payload = {"q": spec.q, "n": n, "strata": [s.to_json() for s in strata]}
            return payload, all(s.ok for s in strata), items
        count = census.count_nilpotents(spec, n)
        payload = {"q": spec.q, "n": n, "count": count}
        return payload, count == spec.q ** (n * (n - 1)), items


CENSUS = {
    "audit": (
        CensusStep("verify_theorem", 2, 1, 3),
        CensusStep("verify_degree_refinement", 2, 1, 3),
    ),
    "count": (CensusStep("count_nilpotents", 3, 1, 3), CensusStep("count_nilpotents", 3, 2, 2)),
    "joyal": (CensusStep("verify_joyal", 0, 0, 6),),
}


def digest(payload: dict) -> str:
    return hashlib.sha256(dumps(payload).encode()).hexdigest()


def census_pass(steps, specs, digests, tally: Tally, step_times: dict,
                host: HostClock) -> tuple[int, float, float]:
    """One pass over the steps; returns items, seconds, and seconds
    scaled to the reference host.  A step's seconds leave out the host
    job that ``host`` timed inside it."""
    items, seconds, scaled = 0, 0.0, 0.0
    for step in steps:
        host.start()
        start = time.perf_counter()
        try:
            payload, ok, n_items = step.run(specs)
        except Exception as exc:  # counted, never dropped
            tally.record(f"{step.label}: {type(exc).__name__}")
            host.slowness()
            continue
        finally:
            host.stop()
        elapsed = time.perf_counter() - start - host.paused_s
        step_times.setdefault(step.label, []).append((elapsed, n_items))
        items += n_items
        seconds += elapsed
        scaled += elapsed / host.slowness()
        if not ok:
            tally.record(f"{step.label}: report not ok")
        elif digest(payload) != digests.get(step.label):
            tally.record(f"{step.label}: digest {digest(payload)} differs")
        else:
            tally.record(None)
    return items, seconds, scaled


def census_specs(steps) -> dict:
    return {(s.p, s.k): make_spec(s.p, s.k) for s in steps if s.entry != "verify_joyal"}


# -- calls workload ------------------------------------------------------


@dataclass(frozen=True)
class CallItem:
    """One operator of the calls corpus, with its malformed sibling."""

    grid: tuple[int, int, int]
    q: Matrix
    text: str
    bad_kind: str
    bad_text: str


def _malform(kind: str, obj: dict, q: int) -> dict:
    if kind == "out_of_range":
        obj["data"][0][0] = q
    elif kind == "wrong_shape":
        obj["data"].pop()
    elif kind == "missing_key":
        del obj["data"]
    elif kind == "non_prime_p":
        obj["field"]["p"] *= 2
    elif kind == "str_entry":
        obj["data"][0][0] = "a"
    else:  # float_p: 2.7 for GF(2), p + 0.7 in general
        obj["field"]["p"] += 0.7
    return obj


def calls_corpus(seed: int, specs: dict):
    """Endless deterministic stream of CallItems: cycles over CALLS_GRID,
    uniform random entries, malformed kinds in rotation, shifted by one
    each cycle so every grid point meets every kind."""
    rng = random.Random(seed)
    for index, grid in enumerate(itertools.cycle(CALLS_GRID)):
        p, k, n = grid
        spec = specs[p, k]
        data = tuple(tuple(rng.randrange(spec.q) for _ in range(n)) for _ in range(n))
        q = Matrix(spec, n, n, data)
        kind = MALFORMED[(index + index // len(CALLS_GRID)) % len(MALFORMED)]
        bad = _malform(kind, q.to_json(), spec.q)
        yield CallItem(grid, q, dumps(q.to_json()), kind, dumps(bad))


def calls_specs() -> dict:
    return {(p, k): make_spec(p, k) for p, k, _ in CALLS_GRID}


def _cli(command: str, text: str) -> tuple[int, str]:
    out = io.StringIO()
    code = nilbij.cli.main([command], io.StringIO(text), out, io.StringIO())
    return code, out.getvalue()


@dataclass
class CallTimes:
    inverse: dict = field(default_factory=dict)
    forward: dict = field(default_factory=dict)
    cli: dict = field(default_factory=dict)
    item_s: list = field(default_factory=list)


def malformed_outcome(kind: str, text: str) -> str | None:
    """None when ``cli inverse`` rejects the payload with exit 2, else
    what it did instead."""
    try:
        code = _cli("inverse", text)[0]
    except Exception as exc:
        return f"malformed {kind}: {type(exc).__name__}"
    return None if code == 2 else f"malformed {kind}: exit {code}"


def escape_note(specs: dict) -> str:
    """Probe each known escape once on a fixed operator; untimed and
    outside the tally."""
    p, k, n = CALLS_GRID[0]
    spec = specs[p, k]
    outcomes = []
    for kind in KNOWN_ESCAPES:
        bad = _malform(kind, Matrix.identity(spec, n).to_json(), spec.q)
        outcomes.append(malformed_outcome(kind, dumps(bad)) or f"malformed {kind}: exit 2 (fixed)")
    return "known escapes (ROADMAP item 4, not in the timed stream): " + "; ".join(outcomes)


def call_item(item: CallItem, tally: Tally, times: CallTimes) -> None:
    """Library round trip, CLI round trip, malformed payload."""
    clock = time.perf_counter
    busy = 0.0
    try:
        t0 = clock()
        t, v = nilbij.bijection.inverse(item.q)
        t1 = clock()
        back = nilbij.bijection.forward(t, v)
        t2 = clock()
        busy += t2 - t0
        times.inverse.setdefault(item.grid, []).append(t1 - t0)
        times.forward.setdefault(item.grid, []).append(t2 - t1)
        tally.record(None if back == item.q else "library round trip differs")
        pair_text = dumps(NilpotentPair(t, v).to_json())
    except Exception as exc:
        tally.record(f"library: {type(exc).__name__}")
        pair_text = None
    try:
        t3 = clock()
        code_inv, out_inv = _cli("inverse", item.text)
        code_fwd, out_fwd = _cli("forward", out_inv)
        t4 = clock()
        busy += t4 - t3
        times.cli.setdefault(item.grid, []).append(t4 - t3)
        same = (code_inv, out_inv, code_fwd, out_fwd) == (0, pair_text, 0, item.text)
        tally.record(None if same else "cli round trip bytes differ")
    except Exception as exc:
        tally.record(f"cli: {type(exc).__name__}")
    t5 = clock()
    reason = malformed_outcome(item.bad_kind, item.bad_text)
    busy += clock() - t5
    tally.record(reason, well_formed=False)
    times.item_s.append(busy)


def grid_label(grid) -> str:
    p, k, n = grid
    return f"GF({p ** k}) n={n}"


# -- runs ------------------------------------------------------------------


@dataclass
class Run:
    """What one benchmark invocation measured."""

    tally: Tally = field(default_factory=Tally)
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def result(self) -> dict:
        return {
            "correct": self.tally.wrong == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": self.metrics,
        }

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}


def _setup_args(workload: str) -> tuple[list[str], list[tuple[int, int]]]:
    if workload == "calls":
        return ["nilbij", "nilbij.cli"], [(p, k) for p, k, _ in CALLS_GRID]
    return ["nilbij"], sorted(census_specs(CENSUS[workload]))


def measure(workload: str, seed: int, seconds: float, src: Path) -> Run:
    """The untraced run: end-to-end metrics."""
    run = Run()
    run.metric("setup_s", measure_setup(src, *_setup_args(workload)), "s")
    if workload == "calls":
        rate = _measure_calls(run, seed, seconds)
    else:
        rate = _measure_census(run, workload, seconds)
    run.metric("items_per_s", rate, "1/s")
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    return run


def _measure_census(run: Run, workload: str, seconds: float) -> float:
    steps = CENSUS[workload]
    specs = census_specs(steps)
    digests = json.loads(DIGESTS_PATH.read_text())
    rates, raw_rates, step_times, passes = [], [], {}, 0
    host = HostClock(sample_every=HOST_SAMPLE_S)
    start = time.perf_counter()
    # Start a pass only when an average pass still ends by the deadline.
    while not passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        passes += 1
        items, busy, scaled = census_pass(steps, specs, digests, run.tally, step_times, host)
        if busy:
            rates.append(items / scaled)
            raw_rates.append(items / busy)
    for label, calls in step_times.items():
        wall = statistics.median(elapsed for elapsed, _ in calls)
        run.notes.append(
            f"{label}: median {wall:.3f} s over {len(calls)} calls, "
            f"{wall / calls[0][1] * 1e6:.1f} us/item"
        )
    run.notes.append(f"{passes} passes; items_per_s is the median scaled pass rate")
    run.notes.append(_host_note(host, raw_rates))
    return statistics.median(rates) if rates else 0.0


# Items per chunk of the calls stream: whole cycles, so every chunk has
# the same mix of grid points.
CHUNK = 4 * len(CALLS_GRID)


def _measure_calls(run: Run, seed: int, seconds: float) -> float:
    specs = calls_specs()
    times = CallTimes()
    corpus = calls_corpus(seed, specs)
    rates, raw_rates = [], []
    host = HostClock()
    deadline = time.perf_counter() + seconds
    while len(rates) < 2 or time.perf_counter() < deadline:
        done = len(times.item_s)
        for item in itertools.islice(corpus, CHUNK):
            call_item(item, run.tally, times)
        raw_rates.append(CHUNK / sum(times.item_s[done:]))
        rates.append(raw_rates[-1] * host.slowness())
    for what, by_grid in (("inverse", times.inverse), ("forward", times.forward),
                          ("cli round trip", times.cli)):
        for grid in CALLS_GRID:
            run.notes.append(_latency_note(what, grid, by_grid.get(grid, [])))
    run.notes.append(
        f"{len(times.item_s)} operators and as many malformed payloads in "
        f"{len(rates)} chunks; items_per_s is the median scaled chunk rate"
    )
    run.notes.append(_host_note(host, raw_rates))
    run.notes.append(escape_note(specs))
    return statistics.median(rates)


def _host_note(host: HostClock, raw_rates: list[float]) -> str:
    return (
        f"host slowness: median {statistics.median(host.readings):.3f}, range "
        f"{min(host.readings):.3f} to {max(host.readings):.3f}; unscaled "
        f"items/s median {statistics.median(raw_rates):.6g}"
    )


def _latency_note(what: str, grid, samples: list[float]) -> str:
    if not samples:
        return f"{what} {grid_label(grid)}: no samples"
    text = f"{what} {grid_label(grid)}: p50 {statistics.median(samples) * 1e3:.3f} ms"
    high = tail(samples)
    if high is not None:
        text += f", p{high[0]} {high[1] * 1e3:.3f} ms"
    return text + f" (n={len(samples)})"


def trace(workload: str, seed: int) -> Run:
    """The traced run: a fixed amount of work, once untraced for the
    overhead ratio, then once traced for the per-layer metrics."""
    run = Run()
    if workload == "calls":
        specs = calls_specs()
        corpus = list(itertools.islice(calls_corpus(seed, specs), TRACE_CALL_ITEMS))
        times = CallTimes()

        def once() -> int:
            for item in corpus:
                call_item(item, run.tally, times)
            return len(corpus)
    else:
        steps = CENSUS[workload]
        specs = census_specs(steps)
        digests = json.loads(DIGESTS_PATH.read_text())

        def once() -> int:
            return census_pass(steps, specs, digests, run.tally, {}, HostClock())[0]

    host = HostClock()
    start = time.perf_counter()
    once()
    plain = (time.perf_counter() - start) / host.slowness()
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        items = once()
    traced = (time.perf_counter() - start) / host.slowness()
    for name in span_names():
        run.metric(f"{name}.calls", tracer.calls[name], "count")
        run.metric(f"{name}.self_s", tracer.self_s[name], "s")
    for name in PER_ITEM:
        run.metric(f"{name}.per_item", tracer.calls[name] / items if items else 0.0,
                   "calls/item")
    run.metric("trace.overhead", traced / plain, "ratio")
    run.notes.append(
        f"traced {items} items: {traced:.2f} s traced, {plain:.2f} s untraced, "
        "both scaled to the reference host"
    )
    return run
