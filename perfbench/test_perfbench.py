"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _span(tracer_spans, sid, name, start, end, parent=None):
    s = spans.Span(sid, name, start, parent, 0, None)
    s.end = end
    tracer_spans.append(s)
    return s


def test_self_time_arithmetic():
    tree = []
    root = _span(tree, 0, "bench.op", 0.0, 10.0)
    _span(tree, 1, "field.pow", 1.0, 4.0, parent=0)
    _span(tree, 2, "field.pow", 2.0, 3.0, parent=1)  # recursion
    _span(tree, 3, "algebra.mul", 5.0, 9.0, parent=0)
    selfs = spans.self_times(tree)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert spans.subtree_self_sum(tree, root, selfs) == root.dur
    layers = spans.layer_metrics(tree)
    assert layers["field.pow.calls"] == 2
    assert layers["field.pow.s"] == 3.0  # the nested call is not counted twice
    assert layers["field.pow.self_s"] == 3.0
    assert layers["bench.op.self_s"] == 3.0


def _snapshot():
    out = {}
    for mod in spans._modules():
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for k, v in vars(val).items():
                    out[(mod.__name__, key, k)] = v
    return out


def test_install_covers_imported_names_and_restores():
    from cqunits import algebra, unitgroup, verifier
    before = _snapshot()
    handle = spans.install(spans.Tracer("test"))
    try:
        wrapped = set(spans.wrapped_attributes())
        # names bound by `from .x import f` are wrapped too
        assert "cqunits.verifier.centralizer_in_gamma" in wrapped
        assert "cqunits.unitgroup.from_projections" in wrapped
        assert "cqunits.verifier.make_field" in wrapped
        assert unitgroup.Subspace.__init__ is algebra.Subspace.__init__
        assert hasattr(unitgroup.Subspace.__init__, spans._MARK)
        assert verifier.centralizer_in_gamma is unitgroup.centralizer_in_gamma
    finally:
        handle.restore()
    assert spans.wrapped_attributes() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


EXACT = ("linalg.rref.cells", "group.tables.bytes", "algebra.mul.calls",
         "algebra.invert.products", "unitgroup.sample.trials")


@pytest.mark.parametrize("wl", [workloads.SamplingC7(), workloads.ExtfieldGf49()],
                         ids=lambda wl: wl.name)
def test_traced_counts_repeat_exactly(at_root, wl):
    # the timed workloads take minutes; the smoke workloads run the same code
    first = run.measure_traced(wl, workloads, seed=7)
    second = run.measure_traced(wl, workloads, seed=7)
    for tally, metrics, units, _ in (first, second):
        assert tally.failed == 0, tally.errors
        assert set(metrics) == set(run.PER_LAYER)
        # the smoke checks reach every traced layer, so no time reads zero
        assert all(metrics[k] > 0 for k, u in units.items()
                   if u == "s" and k != "bench.trace_overhead_s")
    for key in EXACT:
        assert first[1][key] == second[1][key] > 0, key


def test_wrong_output_counts_as_failed(at_root, monkeypatch):
    import dataclasses
    original = workloads.unitgroup.sample_disjoint_classes

    def one_hit(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), hits_v=1)

    monkeypatch.setattr(workloads.unitgroup, "sample_disjoint_classes", one_hit)
    tally = run.Tally()
    clocks, _ = run.run_ops(tally, workloads.SamplingC7(), seed=1, count=2)
    assert clocks == []
    assert (tally.attempted, tally.failed) == (3, 2)  # prepare passes, both ops fail
    assert all("WrongOutput" in e for e in tally.errors)
