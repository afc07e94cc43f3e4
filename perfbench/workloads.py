"""Benchmark workloads: seeded inputs, one timed operation each, output checks.

Every workload is a closed loop with one caller in one process: the next
operation starts when the previous one has returned and been checked.
Inputs come from the benchmark's own generator seeded by `--seed`; the
program only sees the generated elements.  A wrong output raises
`WrongOutput`, which the runner counts as a failed operation, as it does
any exception raised by a measured call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time

import numpy as np

from cqunits import cli, unitgroup, verifier

GF49_CONFIG = """\
# GF(7^2) (modulus x^2 + 1), q = 3, A = C_7 x C_7, action diag(2, 4)
p = 7
f = 2
q = 3
A = 7,7
action = 2,0;0,4
"""


class WrongOutput(Exception):
    """An operation returned, but its output is not the known answer."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def read_config(name: str) -> str:
    if name == "gf49":
        return GF49_CONFIG
    with open(f"configs/{name}.cfg", encoding="utf-8") as fh:
        return fh.read()


class OpClock:
    """Times one operation's measured region; in a traced run the region is
    also the `bench.op` root span, so its self times add up to the time."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.span = self.tracer.open("bench.op") if self.tracer else None
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if self.span is not None:
            self.tracer.close(self.span)
        return False


def cold_instance(config_text: str):
    """A fresh Instance with its algebra built (what `setup_s` measures)."""
    inst = cli.parse_config(config_text)
    inst.algebra
    return inst


def random_skew(alg, rng: np.random.Generator):
    """Seeded skew element of gamma, built from the benchmark's generator."""
    v = alg.elem(rng.integers(0, alg.field.size, alg.order, dtype=np.int64))
    g = v - alg.from_b_coeffs(v.rho_coeffs())
    return g.sym_skew_split()[1]


# ---------------------------------------------------------------------------
# expected certificates


class CertExpect:
    def __init__(self, p, dims, L, R, a_order):
        self.p, self.dims, self.L, self.R, self.a_order = p, dims, L, R, a_order


C31SQ_CERT = CertExpect(31, (4800, 2400, 960, 480), (4, 2400), (179, 2398), 961)
GF49_CERT = CertExpect(7, (144, 72, 48, 24), (2, 144), (15, 142), 49)


def check_certificate(cert, report: str, exp: CertExpect) -> None:
    dims = (cert.gamma_dim, cert.s2_dim, cert.centralizer_dim, cert.centralizer_skew_dim)
    check(dims == exp.dims, f"dims {dims} != {exp.dims}")
    for side, got, (cof, e) in (("L", cert.L, exp.L), ("R", cert.R, exp.R)):
        check((got.p, got.cofactor, got.exp) == (exp.p, cof, e),
              f"{side} = {got!r}, expected {cof}*{exp.p}^{e}")
        check(got.value == cof * exp.p ** e, f"{side} value mismatch")
    check(cert.a_order == exp.a_order and cert.intermediate_bound == exp.R[0]
          and cert.intermediate_ok and cert.a_order > cert.intermediate_bound,
          f"|A| = {cert.a_order} > {cert.intermediate_bound} not established")
    failed = [k for k, v in cert.checks.items() if not v]
    check(not failed, f"certificate checks failed: {failed}")
    check(cert.counting_ok and cert.verdict == "NoNormalComplement",
          f"verdict {cert.verdict!r}")
    doc = json.loads(report)
    check(doc["verdict"] == "NoNormalComplement", "report verdict")
    check(doc["L"]["dec"] == str(cert.L.value) and doc["R"]["dec"] == str(cert.R.value),
          "report decimals")


def certificate_op(inst):
    """Counting certificate plus its JSON report."""
    cert = verifier.counting_certificate(inst)
    return cert, json.dumps(cert.as_dict())


def roundtrip(alg, l):
    u = unitgroup.cayley(l)
    return u, unitgroup.cayley_inv(u) == l


def check_roundtrip(alg, u, same: bool) -> None:
    check(same, "cayley_inv(cayley(l)) != l")
    check(u * u.star() == alg.one(), "u u* != 1")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""
    config = ""
    traced_ops = 1

    def prepare(self, rng):
        """Untimed state the operations share (instance, seeded inputs)."""
        return None

    def op(self, state, rng, tracer=None) -> OpClock:
        raise NotImplementedError

    @property
    def setup_config(self) -> str:
        return read_config(self.config)


class CertificateC31sq(Workload):
    name = "certificate-c31sq"
    why = ("counting certificate for c31sq (|G| = 4805) from a cold instance; "
           "the big prime-field rref and the sym/skew split dominate")
    config = "c31sq"

    def op(self, state, rng, tracer=None):
        inst = cold_instance(self.setup_config)
        with OpClock(tracer) as clock:
            cert, report = certificate_op(inst)
        check_certificate(cert, report, C31SQ_CERT)
        return clock


class CayleyC31sq(Workload):
    name = "cayley-c31sq"
    why = ("seeded Cayley round trips on c31sq: the only workload on the slice-path "
           "product (132 products a round trip), with no big rref")
    config = "c31sq"

    def prepare(self, rng):
        return cold_instance(self.setup_config).algebra

    def op(self, alg, rng, tracer=None):
        l = random_skew(alg, rng)
        with OpClock(tracer) as clock:
            u, same = roundtrip(alg, l)
        check_roundtrip(alg, u, same)
        return clock


WORKLOADS = {w.name: w for w in (CertificateC31sq(), CayleyC31sq())}


# ---------------------------------------------------------------------------
# smoke checks, run once per invocation.  sampling-c7 and extfield-gf49 are
# interpreter-bound: their times follow the host's load by up to 1.8x over
# minutes, too much for a bound, so they run here, checked but not timed.


class SamplingC7(Workload):
    """Criterion 11's shape on c7 (|G| = 21): `sample_disjoint_classes` on
    seeded pairs of distinct unitary b-centralizer units, plus
    `centralizer_in_gamma(b*z)` for a seeded z."""

    name = "sampling-c7"
    config = "c7"
    traced_ops = 2
    trials = 10  # per family and call

    def prepare(self, rng):
        inst = cold_instance(self.setup_config)
        alg = inst.algebra
        b = alg.basis(alg.group.b())
        rep = unitgroup.centralizer_in_gamma(alg, b)
        p = alg.field.p
        units = []
        while len(units) < 5:
            coeffs = rng.integers(0, p, rep.kernel.dim)
            sk = alg.elem((coeffs @ rep.kernel.basis) % p).sym_skew_split()[1]
            if sk.is_zero():
                continue
            u = unitgroup.cayley(sk)
            if all(u != v for v in units):
                units.append(u)
        # the z1 = z2 control must be recognised as conjugate
        ctl = unitgroup.sample_disjoint_classes(alg, b, units[0], units[0], trials=5,
                                                seed=int(rng.integers(2 ** 31)))
        check(ctl.identical_pair_hit, "z1 = z2 control did not hit")
        return {"alg": alg, "b": b, "rep": rep,
                "pairs": list(itertools.combinations(units, 2))}

    def op(self, state, rng, tracer=None):
        alg, b, rep = state["alg"], state["b"], state["rep"]
        z1, z2 = state["pairs"][int(rng.integers(len(state["pairs"])))]
        seed = int(rng.integers(2 ** 31))
        p = alg.field.p
        z = alg.one() + alg.elem((rng.integers(0, p, rep.kernel.dim) @ rep.kernel.basis) % p)
        with OpClock(tracer) as clock:
            ev = unitgroup.sample_disjoint_classes(alg, b, z1, z2, trials=self.trials,
                                                   seed=seed)
            rz = unitgroup.centralizer_in_gamma(alg, b * z)
        check(not ev.identical_pair_hit, "distinct pair reported identical")
        check(ev.hits_v == 0 and ev.hits_vstar == 0,
              f"hits for a distinct pair: V={ev.hits_v}, V*={ev.hits_vstar}")
        check(ev.lower_bound_ok, "dim C(w z1) > dim C(w)")
        check(rz.dim <= rep.dim, f"dim C(b z) = {rz.dim} > dim C(b) = {rep.dim}")
        return clock


class ExtfieldGf49(Workload):
    """The f > 1 path: GF(7^2), A = C_7^2, |G| = 147.  A cold counting
    certificate plus a seeded Cayley round trip, through the generic rref
    and the einsum products."""

    name = "extfield-gf49"
    config = "gf49"

    def op(self, state, rng, tracer=None):
        inst = cold_instance(self.setup_config)
        l = random_skew(inst.algebra, rng)
        with OpClock(tracer) as clock:
            cert, report = certificate_op(inst)
            u, same = roundtrip(inst.algebra, l)
        check_certificate(cert, report, GF49_CERT)
        check_roundtrip(inst.algebra, u, same)
        return clock


def _cli_json(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--json"])
    check(code == 0, f"cqunits {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())["result"]


def smoke_checks():
    """(name, callable) pairs; each raises on a wrong answer.  Together they
    call every traced entry point, so a traced run measures every layer."""
    def verify(cfg, verdict):
        def run():
            got = _cli_json(["verify", "--config", f"configs/{cfg}.cfg"])["verdict"]
            check(got == verdict, f"verify {cfg}: {got!r} != {verdict!r}")
        return (f"verify-{cfg}", run)

    def once(wl):
        def run():
            rng = np.random.default_rng(0)
            wl.op(wl.prepare(rng), rng)
        return (wl.name, run)

    return [verify("c7", "NoNormalComplement"), verify("c19", "NoNormalComplement"),
            verify("f11c5", "TheoremSilent"), once(SamplingC7()), once(ExtfieldGf49())]
