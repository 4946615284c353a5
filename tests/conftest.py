"""Shared graph fixtures and cached engine results.

The same small graph catalog feeds the unit tests and the acceptance
gate, so every expensive polynomial is computed once per session.
"""

import json
import os
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from chromfield.graphs import (Graph, circuit_graph, complete_graph,
                               line_graph, null_graph, square_with_diagonal,
                               star_graph)
from chromfield.partition import ph_poly, z_poly

FIXTURE_DIR = Path(__file__).parent / "fixtures"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# one line per acceptance criterion, filled by test_acceptance and
# echoed after the run (terminal summaries are never capture-swallowed)
ACCEPTANCE_VERDICTS: list[str] = []
# SKIP verdict lines keyed by test name, for acceptance criteria that a
# skipif condition may skip: a skipped body never runs to print its own
SKIPPED_VERDICTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.skipped and report.when == "setup":
        line = SKIPPED_VERDICTS.get(report.nodeid.rpartition("::")[2])
        if line:
            ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@contextmanager
def time_limit(seconds: int):
    """Fail instead of hanging where SIGALRM exists; no limit elsewhere."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise AssertionError(f"still walking after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def fresh_env() -> dict[str, str]:
    """The environment for a fresh ``python`` that imports this tree's
    chromfield: the caller's, with the source directory first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def named_fixture_graphs() -> dict[str, Graph]:
    """The n <= 6 catalog: null / line / star / circuit families plus
    K_3, K_4 and the diagonal-braced square."""
    out: dict[str, Graph] = {}
    for n in range(1, 7):
        out[f"null{n}"] = null_graph(n)
        out[f"line{n}"] = line_graph(n)
        out[f"circuit{n}"] = circuit_graph(n)
    for n in range(3, 7):
        out[f"star{n}"] = star_graph(n)
    out["k3"] = complete_graph(3)
    out["k4"] = complete_graph(4)
    out["c4d"] = square_with_diagonal()
    return out


def connected_simple_fixtures() -> dict[str, Graph]:
    """Loop-free connected members of the catalog (circuit1 is a loop)."""
    return {name: g for name, g in named_fixture_graphs().items()
            if g.is_connected() and not g.has_loop()
            and not name.startswith("null")}


@pytest.fixture(scope="session")
def catalog():
    return named_fixture_graphs()


@pytest.fixture(scope="session")
def z_cache(catalog):
    return {name: z_poly(g) for name, g in catalog.items()}


@pytest.fixture(scope="session")
def ph_cache(catalog):
    return {name: ph_poly(g) for name, g in catalog.items()}


@pytest.fixture(scope="session")
def golden_z():
    with open(FIXTURE_DIR / "golden_z.json") as f:
        return json.load(f)


@pytest.fixture(scope="session")
def golden_ph():
    with open(FIXTURE_DIR / "golden_ph.json") as f:
        return json.load(f)
