"""Span recorder for the traced benchmark run.

The traced run wraps public entry points of cqunits from the benchmark's
own code, records one span per call (name, start, end, parent span, run
id, operation id and shape attributes), keeps the spans in memory and
writes them out at the end.  `install` returns a handle whose `restore`
puts every wrapped attribute back, so the untraced code runs unchanged.
"""

from __future__ import annotations

import functools
import gzip
import json
import resource
import sys
import time
from collections import defaultdict

import numpy as np

_MARK = "__perfbench_span__"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, sid, name, start, parent, op, attrs):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span stack; single-threaded, like the benchmark itself."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = None  # id of the benchmark operation being measured

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, 0.0, parent, self.op, attrs)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        return s

    def close(self, s: Span, rss: bool = False) -> None:
        s.end = time.perf_counter()
        if rss:
            if s.attrs is None:
                s.attrs = {}
            s.attrs["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        popped = self._stack.pop()
        if popped is not s:
            raise RuntimeError(f"span {s.name!r} closed out of order")

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "op": s.op, "run": self.run_id}
                if s.attrs:
                    rec["attrs"] = s.attrs
                fh.write(json.dumps(rec, default=str) + "\n")


# ---------------------------------------------------------------------------
# wrapping entry points


def _wrap(tracer: Tracer, name: str, fn, attrs=None, after=None, rss=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        s = tracer.open(name, attrs(*args, **kwargs) if attrs else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(s, rss)
        if after is not None:
            after(s, args, result)
        return result

    setattr(wrapper, _MARK, name)
    return wrapper


def _shape_attrs(ctx, M, *rest, **kw):
    return {"shape": tuple(int(d) for d in np.shape(M))}


def _table_bytes(s, args, result):
    group = args[0].group
    total = 0
    for key in ("a_add", "mul_table"):
        table = group.__dict__.get(key)  # cached_property values, if built
        if table is not None:
            total += int(table.nbytes)
    s.attrs = {"table_bytes": total}


def _sample_counts(s, args, result):
    s.attrs = {"trials": 2 * result.trials, "hits": result.hits_v + result.hits_vstar}


def targets():
    """(span name, owner, attribute, attrs fn, after fn, record rss) to wrap."""
    from cqunits import _linalg, algebra, cli, cqstruct, field, group, unitgroup, verifier

    def subspace_attrs(self, field_, rows, *rest, **kw):
        return _shape_attrs(field_, rows)

    vec = [("field.vec", field.FieldCtx, m, None, None, False)
           for m in ("vadd", "vsub", "vmul", "vneg", "vsum")]
    return [
        ("linalg.rref", _linalg, "rref", _shape_attrs, None, False),
        ("linalg.right_kernel", _linalg, "right_kernel", _shape_attrs, None, False),
        ("linalg.reduce_against", _linalg, "reduce_against", _shape_attrs, None, False),
        ("linalg.solve_right", _linalg, "solve_right", _shape_attrs, None, False),
        ("algebra.sym_skew_subspaces", algebra.GroupAlgebra, "sym_skew_subspaces",
         None, None, True),
        ("algebra.Subspace", algebra.Subspace, "__init__", subspace_attrs, None, False),
        ("algebra.mul", algebra.GroupAlgebra, "mul_coeffs", None, None, False),
        ("algebra.invert", algebra.GroupAlgebra, "invert", None, None, False),
        ("algebra.GroupAlgebra", algebra.GroupAlgebra, "__init__", None, _table_bytes, False),
        ("group.make_group", group, "make_group", None, None, False),
        ("field.make_field", field, "make_field", None, None, False),
        ("cli.parse_config", cli, "parse_config", None, None, False),
        *vec,
        ("field.pow", field.FieldCtx, "pow", None, None, False),
        ("cqstruct.from_projections", cqstruct, "from_projections", None, None, False),
        ("unitgroup.centralizer_in_gamma", unitgroup, "centralizer_in_gamma",
         None, None, True),
        ("unitgroup.sample", unitgroup, "sample_disjoint_classes", None, _sample_counts, False),
        ("unitgroup.random_unit", unitgroup, "random_unit_vfg", None, None, False),
        ("unitgroup.random_unit", unitgroup, "random_unitary_vfg", None, None, False),
        ("unitgroup.cayley", unitgroup, "cayley", None, None, False),
        ("unitgroup.cayley_inv", unitgroup, "cayley_inv", None, None, False),
        ("verifier.counting_certificate", verifier, "counting_certificate", None, None, False),
        ("verifier.report", verifier.Certificate, "as_dict", None, None, False),
    ]


def _modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "cqunits" or name.startswith("cqunits."))]


class Installed:
    """Handle on the wrapped attributes; `restore` undoes `install`."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every target.  A module-level function is also replaced under
    every other cqunits module name bound to it (`from .x import f`)."""
    handle = Installed()
    mods = _modules()
    for name, owner, attr, attrs, after, rss in targets():
        original = owner.__dict__[attr]
        wrapper = _wrap(tracer, name, original, attrs, after, rss)
        if isinstance(owner, type):
            handle.patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is original:
                    handle.patched.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return handle


def wrapped_attributes() -> list[str]:
    """Names of cqunits attributes that are still span wrappers (should be none)."""
    found = []
    for mod in _modules():
        for key, val in vars(mod).items():
            if hasattr(val, _MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(val).items()
                          if hasattr(v, _MARK)]
    return found


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur
    return {s.id: s.dur - child[s.id] for s in spans}


def subtree_self_sum(spans: list[Span], root: Span, selfs: dict[int, float]) -> float:
    """Sum of self times over `root` and all spans below it."""
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s.parent].append(s)
    total, todo = 0.0, [root]
    while todo:
        s = todo.pop()
        total += selfs[s.id]
        todo.extend(by_parent[s.id])
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures by span name: calls, inclusive s, self_s and extras.

    Inclusive time counts only spans without a same-named ancestor, so
    recursion (field.pow) is not counted twice.
    """
    byid = {s.id: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)

    def ancestors(s):
        while s.parent is not None:
            s = byid[s.parent]
            yield s

    peak: dict[str, int] = defaultdict(int)
    for s in spans:
        name = s.name
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[s.id]
        anc = list(ancestors(s))
        if all(a.name != name for a in anc):
            out[f"{name}.s"] += s.dur
        a = s.attrs or {}
        if "shape" in a and len(a["shape"]) == 2:
            out[f"{name}.cells"] += a["shape"][0] * a["shape"][1]
        if "peak_rss_kb" in a:
            peak[name] = max(peak[name], a["peak_rss_kb"])
        if "table_bytes" in a:
            out["group.tables.bytes"] = max(out["group.tables.bytes"], a["table_bytes"])
        if "trials" in a:
            out["unitgroup.sample.trials"] += a["trials"]
            out["unitgroup.sample.hits"] += a["hits"]
        if name == "algebra.mul" and any(x.name == "algebra.invert" for x in anc):
            out["algebra.invert.products_total"] += 1
    for name, kb in peak.items():
        out[f"{name}.peak_rss_mb"] = kb / 1024.0
    if out["algebra.invert.calls"]:
        out["algebra.invert.products"] = (out["algebra.invert.products_total"]
                                          / out["algebra.invert.calls"])
    if out["unitgroup.sample.trials"]:
        out["unitgroup.sample.hit_ratio"] = (out["unitgroup.sample.hits"]
                                             / out["unitgroup.sample.trials"])
    return dict(out)
