"""Tests of the benchmark's own code: tracing restores what it patched,
self time adds up, traced counts repeat, and inputs follow the seed."""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import hostspeed  # noqa: E402
import nilbij  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nilbij import FieldSpec  # noqa: E402

# A census workload small enough for the test suite.
TINY = (
    workloads.CensusStep("verify_theorem", 2, 1, 2),
    workloads.CensusStep("verify_joyal", 0, 0, 3),
)


def _namespaces() -> dict[tuple[str, str], object]:
    """Every attribute of every nilbij module and class, by identity."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "nilbij" or mod_name.startswith("nilbij."):
            for attr, value in vars(mod).items():
                out[mod_name, attr] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[f"{mod_name}.{attr}", cattr] = cvalue
    return out


def test_trace_restores_every_patched_name():
    before = _namespaces()
    original = nilbij.linalg.mat_inv
    with tracer.Tracer() as t:
        assert nilbij.bijection.mat_inv is not original
        assert nilbij.bijection.mat_inv is nilbij.linalg.mat_inv
        assert nilbij.mat_inv is nilbij.linalg.mat_inv
        nilbij.census.verify_theorem(FieldSpec(2), 2)
    assert t.calls["linalg.mat_inv"] > 0
    assert t.calls["linalg.Matrix"] > 0
    after = _namespaces()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert nilbij.bijection.mat_inv is nilbij.linalg.mat_inv is original
    assert not hasattr(original, "__wrapped__")


def test_trace_restores_after_an_exception():
    before = _namespaces()
    with pytest.raises(nilbij.NotInvertible):
        with tracer.Tracer():
            nilbij.mat_inv(nilbij.Matrix.zero(FieldSpec(2), 2, 2))
    after = _namespaces()
    assert all(after[key] is before[key] for key in before)


def test_self_time_of_nested_spans():
    # outer [0, 10] opens mid [1, 7], which opens leaf [2, 4].
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    leaf = t.wrap("leaf", lambda: None)
    mid = t.wrap("mid", lambda: leaf())
    outer = t.wrap("outer", lambda: mid())
    outer()
    assert t.self_s == {"leaf": 2.0, "mid": 4.0, "outer": 4.0}
    assert t.calls == {"leaf": 1, "mid": 1, "outer": 1}


def test_self_time_of_sibling_spans_and_repeats():
    # outer [0, 10] opens a [1, 3] then a [4, 7].
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    a = t.wrap("a", lambda: None)

    def body():
        a()
        a()

    t.wrap("outer", body)()
    assert t.self_s == {"a": 5.0, "outer": 5.0}
    assert t.calls == {"a": 2, "outer": 1}


def test_host_slowness_averages_the_job_around_each_unit(monkeypatch):
    ref = hostspeed.REFERENCE_S
    readings = iter([ref, 3 * ref, 2 * ref])
    monkeypatch.setattr(hostspeed, "job_seconds", lambda: next(readings))
    host = hostspeed.HostClock()
    assert host.slowness() == pytest.approx(2.0)
    assert host.slowness() == pytest.approx(2.5)
    assert host.readings == pytest.approx([2.0, 2.5])


def _traced_counts(monkeypatch, workload: str) -> dict:
    monkeypatch.setitem(workloads.CENSUS, "tiny", TINY)
    monkeypatch.setattr(workloads, "TRACE_CALL_ITEMS", 6)
    metrics = workloads.trace(workload, seed=7).metrics
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}


@pytest.mark.parametrize("workload", ["tiny", "calls"])
def test_traced_call_counts_repeat(monkeypatch, workload):
    first = _traced_counts(monkeypatch, workload)
    second = _traced_counts(monkeypatch, workload)
    assert first == second
    assert first["linalg.rref.calls"] > 0


def test_metric_names_match_benchmark_json(monkeypatch):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(workloads, "TRACE_CALL_ITEMS", 6)
    traced = workloads.trace("calls", seed=1)
    assert set(traced.metrics) == {m["name"] for m in spec["per_layer"]}
    plain = workloads.measure("calls", seed=1, seconds=0.0, src=BENCH.parent / "src")
    assert set(plain.metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in plain.metrics.values())
    assert plain.tally.failed == 0
    assert plain.tally.reasons == {}


def test_known_escapes_are_probed_outside_the_tally():
    note = workloads.escape_note(workloads.calls_specs())
    assert all(f"malformed {kind}:" in note for kind in workloads.KNOWN_ESCAPES)
    assert not set(workloads.KNOWN_ESCAPES) & set(workloads.MALFORMED)


def test_calls_corpus_is_seeded():
    def texts(seed):
        items = itertools.islice(workloads.calls_corpus(seed, workloads.calls_specs()), 12)
        return [(item.text, item.bad_text) for item in items]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_malformed_payloads_meet_every_grid_point():
    items = itertools.islice(workloads.calls_corpus(0, workloads.calls_specs()), 16)
    pairs = {(item.grid, item.bad_kind) for item in items}
    assert pairs == set(itertools.product(workloads.CALLS_GRID, workloads.MALFORMED))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail(list(range(19))) is None
    assert workloads.tail(list(range(20))) == (50, 9)
    assert workloads.tail(list(range(100))) == (90, 89)


def test_host_samples_inside_a_unit_count_and_are_paused(monkeypatch):
    ref = hostspeed.REFERENCE_S
    readings = iter([ref, 3 * ref, 2 * ref])
    monkeypatch.setattr(hostspeed, "job_seconds", lambda repeats=3: next(readings))
    host = hostspeed.HostClock(sample_every=60.0)
    host.start()
    host._sample(None, None)
    assert host.slowness() == pytest.approx(2.0)
    assert host.paused_s > 0
    host.start()
    assert host.paused_s == 0
    host.stop()
