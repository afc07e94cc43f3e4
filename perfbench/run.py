"""cqunits benchmark: one workload per invocation, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload certificate-c31sq --seed 1 --seconds 10 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off: it times
`setup_s` in fresh processes, runs the smoke checks, then repeats the
workload's operation until `--seconds` have passed (at least once).
`--trace 1` is the separate traced run for the per-layer metrics: it
wraps the cqunits entry points, runs the smoke checks and a fixed number
of operations, restores the entry points and repeats the same operations
untraced to measure the tracing overhead.

The last line of standard output is the result object; the line before
it is a detail record (environment, samples, per-layer extras, errors),
also written to perfbench/out/ with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

_T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 6
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REQUIRED = ("src/cqunits/__init__.py", "configs/c7.cfg", "configs/c19.cfg",
            "configs/f11c5.cfg", "configs/c31sq.cfg")

END_TO_END = {"setup_s": "s", "op_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count",
    "linalg.right_kernel.s": "s",
    "linalg.reduce_against.s": "s",
    "linalg.solve_right.calls": "count",
    "linalg.solve_right.s": "s",
    "algebra.sym_skew_subspaces.s": "s",
    "algebra.sym_skew_subspaces.peak_rss_mb": "MB",
    "algebra.Subspace.calls": "count",
    "algebra.Subspace.s": "s",
    "algebra.mul.calls": "count",
    "algebra.mul.s": "s",
    "algebra.invert.calls": "count",
    "algebra.invert.s": "s",
    "algebra.invert.products": "count",
    "algebra.GroupAlgebra.s": "s",
    "group.make_group.s": "s",
    "group.tables.bytes": "B",
    "field.make_field.s": "s",
    "cli.parse_config.s": "s",
    "field.vec.calls": "count",
    "field.vec.s": "s",
    "field.pow.calls": "count",
    "cqstruct.from_projections.calls": "count",
    "cqstruct.from_projections.s": "s",
    "unitgroup.centralizer_in_gamma.calls": "count",
    "unitgroup.centralizer_in_gamma.s": "s",
    "unitgroup.centralizer_in_gamma.self_s": "s",
    "unitgroup.centralizer_in_gamma.peak_rss_mb": "MB",
    "unitgroup.sample.trials": "count",
    "unitgroup.sample.hit_ratio": "1",
    "unitgroup.random_unit.self_s": "s",
    "unitgroup.cayley.calls": "count",
    "unitgroup.cayley.s": "s",
    "unitgroup.cayley_inv.s": "s",
    "verifier.counting_certificate.self_s": "s",
    "verifier.report.s": "s",
    "bench.op_traced_s": "s",
    "bench.trace_overhead_s": "s",
}


class Tally:
    """Operations attempted and failed; a failure is an exception or a
    wrong output, and its traceback goes to standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, name: str, fn, *args):
        """(ok, result, seconds) of one call."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # the benchmark must report, not stop
            self.failed += 1
            self.errors.append(f"{name}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return False, None, time.perf_counter() - t0
        return True, result, time.perf_counter() - t0

    def require(self, cond: bool, what: str) -> None:
        self.attempted += 1
        if not cond:
            self.failed += 1
            self.errors.append(what)


def _median(ok: list[float], fallback: list[float]) -> float:
    return statistics.median(ok or fallback)


def _git_commit(root: str):
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str, seed: int, threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "commit": _git_commit(root), "seed": seed}


def probe_setup(config_text: str) -> None:
    # no timeout: with one, the wait polls at up to 50 ms steps
    subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                   input=config_text, text=True, stdout=subprocess.DEVNULL, check=True)


def run_smoke(tally: Tally, workloads) -> None:
    for name, fn in workloads.smoke_checks():
        tally.attempt(f"smoke {name}", fn)


def run_ops(tally: Tally, wl, seed: int, count=None, seconds=None, tracer=None):
    """Prepare seeded inputs, then run operations; returns the clocks of
    the operations that succeeded and the seconds spent in all."""
    import numpy as np
    rng = np.random.default_rng(seed)
    clocks, start, i = [], time.perf_counter(), 0
    ok, state, _ = tally.attempt("prepare", wl.prepare, rng)
    if not ok:
        return clocks, time.perf_counter() - start
    while True:
        if tracer is not None:
            tracer.op = i
        ok, clock, _ = tally.attempt(f"op {i}", wl.op, state, rng, tracer)
        if ok:
            clocks.append(clock)
        i += 1
        if count is not None and i >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.op = None
    return clocks, time.perf_counter() - start


def measure(wl, workloads, seed: int, seconds: float):
    tally = Tally()

    def probes(n):  # half before and half after the operations, to span the run
        return [tally.attempt("setup probe", probe_setup, wl.setup_config) for _ in range(n)]

    setup = probes(SETUP_PROBES // 2)
    run_smoke(tally, workloads)
    clocks, spent = run_ops(tally, wl, seed, seconds=seconds)
    setup += probes(SETUP_PROBES - SETUP_PROBES // 2)
    metrics = {
        "setup_s": _median([t for ok, _, t in setup if ok], [t for _, _, t in setup]),
        "op_s": _median([c.elapsed for c in clocks], [spent]),
        "wall_s": time.perf_counter() - _T0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"ops": len(clocks), "op_s_samples": [c.elapsed for c in clocks],
              "setup_s_samples": [t for _, _, t in setup]}
    return tally, metrics, END_TO_END, detail


def measure_traced(wl, workloads, seed: int):
    import spans

    tally = Tally()
    tracer = spans.Tracer(run_id=f"{wl.name}-seed{seed}-pid{os.getpid()}")
    handle = spans.install(tracer)
    try:
        run_smoke(tally, workloads)
        traced, spent = run_ops(tally, wl, seed, count=wl.traced_ops, tracer=tracer)
    finally:
        handle.restore()
    leftover = spans.wrapped_attributes()
    tally.require(not leftover, f"span wrappers left installed: {leftover}")
    plain, _ = run_ops(tally, wl, seed, count=wl.traced_ops)

    selfs = spans.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.name == "bench.op"]
    gaps = [abs(spans.subtree_self_sum(tracer.spans, r, selfs) - r.dur) for r in roots]
    tally.require(all(g < 1e-6 for g in gaps), f"self times do not add up: {gaps}")

    layers = spans.layer_metrics(tracer.spans)
    layers["bench.op_traced_s"] = _median([c.elapsed for c in traced], [spent])
    layers["bench.trace_overhead_s"] = (sum(c.elapsed for c in traced)
                                        - sum(c.elapsed for c in plain))
    metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{wl.name}-seed{seed}-spans.jsonl.gz")
    tracer.write(spans_path)
    detail = {"ops": len(traced), "traced_op_s_samples": [c.elapsed for c in traced],
              "untraced_op_s_samples": [c.elapsed for c in plain],
              "spans": len(tracer.spans),
              "spans_file": os.path.relpath(spans_path), "selftime_gaps_s": gaps,
              "layers": layers}
    return tally, metrics, PER_LAYER, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if sys.flags.optimize:
        print("error: cqunits guards results with asserts; do not run under -O",
              file=sys.stderr)
        return 2
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: run from the repository root; missing {missing}", file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:  # before numpy is imported, here and in the probes
        os.environ[var] = str(threads)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cqunits
    if not os.path.realpath(cqunits.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"error: imported cqunits from {cqunits.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        tally, values, units, detail = measure_traced(wl, workloads, args.seed)
    else:
        tally, values, units, detail = measure(wl, workloads, args.seed, args.seconds)

    detail.update({"workload": wl.name, "why": wl.why, "seconds": args.seconds,
                   "trace": args.trace, "env": environment(root, args.seed, threads),
                   "attempted": tally.attempted, "failed": tally.failed,
                   "fail_ratio": tally.failed / max(tally.attempted, 1),
                   "errors": tally.errors})
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
