import signal
from pathlib import Path

import numpy as np
import pytest

from cqunits import GroupAlgebra, cli, make_field, make_group
from cqunits.verifier import Instance, make_instance

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def deadline():
    """Fail a test that runs past 30 s (a hang) with TimeoutError instead of
    stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError("test ran past its 30 s deadline")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="session")
def f7():
    return make_field(7)


@pytest.fixture(scope="session")
def f11():
    return make_field(11)


@pytest.fixture(scope="session")
def f13():
    return make_field(13)


@pytest.fixture(scope="session")
def f19():
    return make_field(19)


@pytest.fixture(scope="session")
def f31():
    return make_field(31)


@pytest.fixture(scope="session")
def f49():
    return make_field(7, 2)


@pytest.fixture(scope="session")
def g21(f7):
    return make_group(f7, 3, [7], [[2]])


@pytest.fixture(scope="session")
def alg21(f7, g21):
    return GroupAlgebra(f7, g21)


@pytest.fixture(scope="session")
def inst7() -> Instance:
    return make_instance(7, 1, 3, [7], [[2]])


@pytest.fixture(scope="session")
def inst31() -> Instance:
    # C_31 x C_31 x| C_5 over GF(31); the action is diag(w5, w5^2) with w5 = 16
    return make_instance(31, 1, 5, [31, 31], [[16, 0], [0, 8]])


@pytest.fixture(scope="session")
def inst19() -> Instance:
    return make_instance(19, 1, 3, [19], [[7]])


@pytest.fixture(scope="session")
def inst11() -> Instance:
    return make_instance(11, 1, 5, [11], [[3]])


@pytest.fixture(scope="session")
def config_instance():
    """Builds a fresh Instance from configs/<name>.cfg."""
    def build(name: str) -> Instance:
        return cli.parse_config((CONFIGS / f"{name}.cfg").read_text())
    return build


def mul_reference(alg, x, y):
    """Independent oracle for x y: every product of a support element of x
    with every g in G, indexed by GroupSpec.mul_idx and summed in int64."""
    field = alg.field
    g = np.flatnonzero(x)
    idx = alg.group.mul_idx(g[:, None], np.arange(alg.order)[None, :])
    prods = field.decode(field._vmul_tensor(x[g][:, None], y[None, :]))
    acc = np.zeros((alg.order, field.f), dtype=np.int64)
    np.add.at(acc, idx.ravel(), prods.reshape(-1, field.f))
    return field.encode(acc)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


# --- acceptance reporting ---------------------------------------------------
# test_acceptance registers one line per criterion; they are echoed in the
# terminal summary so a plain `pytest` run shows the pass/fail table.

ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def record_criterion(number: int, description: str, status: str = "PASS"):
    ACCEPTANCE_RESULTS[number] = (status, description)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    crit = getattr(item, "_acceptance_criterion", None)
    if crit is not None and report.when == "call" and report.failed:
        number, description = crit
        ACCEPTANCE_RESULTS[number] = ("FAIL", description)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        status, description = ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(f"criterion {number:2d}: {status}  {description}")
