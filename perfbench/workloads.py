"""The benchmark's workloads: seeded inputs, operation lists and their checks.

Every pass draws a fresh relabeling of each base graph (vertices permuted,
edges shuffled) that no earlier pass of the run used, so no input repeats
within a run.  chromfield functions are called through their modules
(``partition.z_poly``), never through names bound here, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


# -- base graphs, built here so the program only receives the inputs ----------

def grid(ly: int, lx: int):
    edges = []
    for r in range(ly):
        for c in range(lx):
            x = r * lx + c
            if c + 1 < lx:
                edges.append((x, x + 1))
            if r + 1 < ly:
                edges.append((x, x + lx))
    return ly * lx, edges


def circuit(n: int):
    return n, [(i, (i + 1) % n) for i in range(n)]


def circulant(n: int, jumps):
    return n, [(i, (i + j) % n) for j in jumps for i in range(n)]


def complete(n: int):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def star(n: int):
    return n, [(0, i) for i in range(1, n)]


C4D = (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])

BASES = {
    "strip": {"sq2x6": grid(2, 6), "sq3x4": grid(3, 4), "sq2x7": grid(2, 7),
              "C18": circuit(18), "C20": circuit(20)},
    "dense": {"K6": complete(6), "K7": complete(7),
              "C9(1,2)": circulant(9, (1, 2)), "C10(1,2)": circulant(10, (1, 2))},
    "suite": {"K4": complete(4), "K5": complete(5), "C4d": C4D, "C8": circuit(8),
              "S6": star(6), "sq3x3": grid(3, 3), "sq2x5": grid(2, 5)},
    "cli": {"sq2x3": grid(2, 3), "C4d": C4D, "K4": complete(4), "C5": circuit(5)},
}


class Relabeler:
    """Seeded relabelings; never returns the same labeled edge list twice."""

    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{seed}:{workload}")
        self.seen: set = set()
        self.drawn = self.redrawn = 0

    def __call__(self, n: int, edges):
        while True:
            perm = list(range(n))
            self.rng.shuffle(perm)
            new = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
            self.rng.shuffle(new)
            key = (n, tuple(new))
            if key not in self.seen:
                self.seen.add(key)
                self.drawn += 1
                return new
            self.redrawn += 1


@dataclass
class Op:
    """One call into the program; ``run`` gets the pass's earlier outputs."""
    label: str
    run: Callable
    check: Callable
    known_fault: bool = False


def execute(ops: list[Op]) -> tuple[float, dict]:
    """Run a pass's operations in order; returns wall time and outputs."""
    out: dict = {}
    t0 = perf_counter()
    for op in ops:
        try:
            out[op.label] = op.run(out)
        except Exception as exc:  # a failing operation is counted, not fatal
            out[op.label] = exc
    return perf_counter() - t0, out


def verify(ops: list[Op], out: dict) -> tuple[int, list[str]]:
    """Check every output; returns failed count and unexpected failures."""
    failed, wrong = 0, []
    for op in ops:
        res = out[op.label]
        err = (f"raised {res!r}" if isinstance(res, Exception)
               else op.check(res, out))
        if err:
            failed += 1
            if not op.known_fault:
                wrong.append(f"{op.label}: {err}")
    return failed, wrong


# -- in-process workloads -----------------------------------------------------

class InProcess:
    """strip, dense and suite: chromfield called in this process."""

    def __init__(self, name: str, seed: int):
        # imported here, so that the cli workload's own process never imports chromfield
        import chromfield.graphs
        import chromfield.identities
        import chromfield.partition
        import chromfield.zeros
        self.graphs = chromfield.graphs
        self.partition = chromfield.partition
        self.identities = chromfield.identities
        self.zeros = chromfield.zeros
        self.name = name
        self.relabel = Relabeler(seed, name)
        self.rng = random.Random(f"{seed}:{name}:points")
        self.ref_z: dict = {}

    def warm_up(self) -> None:
        label, (n, edges) = next(iter(BASES[self.name].items()))
        g = self.graphs.Graph.make(n, edges, label)
        if self.name == "suite":
            self.identities.identity_suite(g)
        else:
            self.partition.z_poly(g).substitute(v=-1)

    def build(self) -> list[Op]:
        ops: list[Op] = []
        for label, (n, base) in BASES[self.name].items():
            edges = self.relabel(n, base)
            g = self.graphs.Graph.make(n, edges, label)
            if self.name == "suite":
                ops += self._suite_ops(label, g, n, edges)
            else:
                ops += self._walk_ops(label, g, n, edges)
        return ops

    def _walk_ops(self, label, g, n, edges) -> list[Op]:
        zl, pl = f"{label}/z", f"{label}/ph"

        def check_z(z, out):
            terms = z.terms
            ref = self.ref_z.setdefault(label, terms)
            return (checks.check_relabel(terms, ref) or checks.check_v0(terms, n)
                    or checks.check_one_color(terms, len(edges)))

        return [
            Op(zl, lambda out: self.partition.z_poly(g), check_z),
            Op(pl, lambda out: out[zl].substitute(v=-1),
               lambda ph, out: checks.check_bipartite(ph.terms, n, edges)),
        ]

    def _suite_ops(self, label, g, n, edges) -> list[Op]:
        rng = self.rng
        pl = f"{label}/ph"
        points = []
        for q in (2, 3, 4):
            s = rng.randint(0, q)
            w = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            points.append((q, s, w, checks.ph_brute(n, edges, q, s, w)))

        def check_ph(ph, out):
            for q, s, w, brute in points:
                err = checks.check_point(ph.terms, brute, brute, q, s, w)
                if err:
                    return err
            return None

        ops = [
            Op(f"{label}/identities", lambda out: self.identities.identity_suite(g),
               lambda verdicts, out: checks.check_verdicts(verdicts)),
            Op(pl, lambda out: self.partition.ph_poly(g), check_ph),
        ]
        for q, s, w, brute in points:

            def check_oracle(value, out, q=q, s=s, w=w, brute=brute):
                return checks.check_point(out[pl].terms, value, brute, q, s, w)

            ops.append(Op(f"{label}/oracle(q={q})",
                          lambda out, q=q, s=s, w=w: self.partition.oracle_ph(g, q, s, w),
                          check_oracle))
        # w values are dyadic so the float slices are exact
        sq, wq = rng.choice((1, 2)), rng.choice((0.25, 0.5, 0.75, 1.5))
        qw, sw = n + 1, rng.choice((1, 2))
        for var, fixed in (("q", {"s": sq, "w": wq}), ("w", {"q": qw, "s": sw})):

            def check_slice(sl, out, var=var, fixed=fixed):
                exact = {k: Fraction(v) for k, v in fixed.items()}
                coeffs = checks.univariate(out[pl].terms, var, **exact)
                return checks.check_roots(coeffs, sl.roots, sl.actual_degree)

            ops.append(Op(f"{label}/zeros({var})",
                          lambda out, var=var, fixed=fixed: self.zeros.zeros_in(
                              out[pl], var, {k: float(v) for k, v in fixed.items()}),
                          check_slice))
        return ops


# -- the cli workload ---------------------------------------------------------

def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    """One-shot ``chromfield`` invocations, one at a time, on tiny inputs."""

    def __init__(self, seed: int):
        self.relabel = Relabeler(seed, "cli")
        self.work = OUT / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = cli_env()
        self.span_dir: Path | None = None  # set to trace each invocation
        self.count = self.passes = 0
        self.invocation_s: list[float] = []  # untraced invocations

    def close(self) -> None:
        for f in self.work.iterdir():
            f.unlink()
        self.work.rmdir()

    def warm_up(self) -> None:
        self._invoke(["family", "--family", "line:2"], None)

    def _invoke(self, args: list[str], stdin: str | None):
        if self.span_dir is None:
            cmd = [sys.executable, "-m", "chromfield.cli", *args]
        else:
            self.count += 1
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"),
                   str(self.span_dir / f"spans-{self.count}.json"), *args]
        t0 = perf_counter()
        res = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                             cwd=ROOT, env=self.env, timeout=120)
        if self.span_dir is None:
            self.invocation_s.append(perf_counter() - t0)
        return res

    def build(self) -> list[Op]:
        graphs = {k: (n, self.relabel(n, e)) for k, (n, e) in BASES["cli"].items()}
        self.passes += 1
        edge_file = self.work / f"pass{self.passes}.edges"
        json_file = self.work / f"pass{self.passes}.json"
        k4_file = self.work / f"pass{self.passes}-k4.json"
        n_e, e_e = graphs["sq2x3"]
        edge_file.write_text(f"{n_e} {len(e_e)}\n" + "".join(f"{u} {v}\n" for u, v in e_e))
        n_c, e_c = graphs["C4d"]
        json_file.write_text(json.dumps({"n": n_c, "edges": e_c}))
        n_k, e_k = graphs["K4"]
        k4_file.write_text(json.dumps({"n": n_k, "edges": e_k}))
        n_5, e_5 = graphs["C5"]
        stdin = f"{n_5} {len(e_5)}\n# relabeled C5\n" + "".join(f"{u} {v}\n" for u, v in e_5)
        pts_z = [(2, 1, -1, 3), (3, 1, 2, Fraction(1, 2)), (4, 2, 5, 2)]
        pts_ph = [(2, 1, 0, 3), (3, 1, 0, Fraction(1, 2)), (4, 2, 0, 2)]
        path4 = (4, [(0, 1), (1, 2), (2, 3)])

        def op(label, args, check, stdin=None, known_fault=False):
            return Op(label, lambda out: self._invoke(args, stdin),
                      check, known_fault)

        def doc(check, parse=checks.parse_json):
            """Check the output of an invocation that must succeed."""
            return lambda res, out: (f"exit {res.returncode}: {res.stderr[-200:]}"
                                     if res.returncode else check(parse(res.stdout)))

        def text(check):
            return doc(check, parse=str)

        def usage_error(res, out):
            return checks.check_usage_error(res.returncode, res.stderr)

        ops = [
            op("compute-family", ["compute", "--family", "circuit:6", "--mode", "z"],
               doc(lambda d: checks.check_poly_output(d, *circuit(6), "z", pts_z))),
            op("compute-edges", ["compute", "--graph", str(edge_file), "--mode", "ph"],
               doc(lambda d: checks.check_poly_output(d, n_e, e_e, "ph", pts_ph))),
            op("compute-stdin", ["compute", "--graph", "-", "--mode", "z"],
               doc(lambda d: checks.check_poly_output(d, n_5, e_5, "z", pts_z)), stdin=stdin),
            op("compute-json", ["compute", "--graph", str(k4_file), "--mode", "ph", "--text"],
               doc(lambda d: checks.check_poly_output(d, n_k, e_k, "ph", pts_ph))),
            op("family", ["family", "--family", "line:4"],
               doc(lambda d: checks.check_poly_output(d, *path4, "z", pts_z))),
            op("oracle", ["oracle", "--graph", str(edge_file), "--q", "3", "--s", "1",
                          "--w", "2"],
               doc(lambda d: checks.check_oracle_output(d, n_e, e_e, 3, 1, 2))),
            op("check", ["check", "--graph", str(json_file)], text(checks.check_report)),
            op("strips", ["strips", "--ly", "4"], text(checks.check_report)),
            op("zeros", ["zeros", "--graph", str(edge_file), "--var", "q",
                         "--fix", "s=1,w=1/2"],
               doc(lambda d: checks.check_zeros_output(d, n_e, e_e, 1, Fraction(1, 2)))),
            op("phi", ["phi", "--q", "5", "--s", "2", "--w", "0.5"],
               doc(lambda d: checks.check_phi_output(d, 5, 2, 0.5))),
            op("qc", ["qc", "--s", "4", "--w", "0.5"],
               doc(lambda d: checks.check_qc_output(d, 4, 0.5))),
            op("bad-family-size", ["compute", "--family", "circuit:x"], usage_error,
               known_fault=True),
            op("bad-fix-value", ["zeros", "--family", "line:2", "--var", "q",
                                 "--fix", "s=abc"], usage_error, known_fault=True),
        ]
        return ops
