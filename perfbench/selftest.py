"""Show that every correctness check of the benchmark rejects a wrong answer.

    python3 perfbench/selftest.py

Each case takes a right answer (a real output of chromfield, except for
the bad-input case, whose right answer chromfield does not give yet),
confirms that its check accepts it, then changes it slightly (one
coefficient, one root, one CLI value, a traceback in place of an
``error:`` line) and confirms that the check rejects the change.  Exits 1 if any
check accepts a wrong answer or rejects a right one.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import ROOT, circuit, cli_env, complete, grid  # noqa: E402


def bump(terms: dict, keep=lambda e: True) -> dict:
    """A copy with one coefficient, the first whose exponent passes ``keep``, off by one."""
    out = dict(terms)
    exp = min(e for e in terms if keep(e))
    out[exp] += 1
    return out


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "chromfield.cli", *args],
                          capture_output=True, text=True, cwd=ROOT, env=cli_env(),
                          timeout=120)


def cases():
    from chromfield.graphs import Graph
    from chromfield.identities import identity_suite
    from chromfield.partition import oracle_ph, z_poly
    from chromfield.zeros import zeros_in

    n, e = grid(2, 3)
    g = Graph.make(n, e)
    zp = z_poly(g)
    z, ph = zp.terms, zp.substitute(v=-1).terms
    kn, ke = complete(4)
    phk = z_poly(Graph.make(kn, ke)).substitute(v=-1).terms
    yield ("strip: Z equal across relabelings",
           checks.check_relabel(z, z), checks.check_relabel(bump(z), z))
    yield ("strip: Z(v=0) = (q-s+sw)^n",
           checks.check_v0(z, n), checks.check_v0(bump(z, lambda x: x[2] == 0), n))
    yield ("strip: Z(q=1,s=0) = (1+v)^e",
           checks.check_one_color(z, len(e)),
           checks.check_one_color(bump(z, lambda x: x[1] == 0), len(e)))
    yield ("strip: bipartite Ph(2,1,w) = w^|A| + w^|B|",
           checks.check_bipartite(ph, n, e), checks.check_bipartite(bump(ph), n, e))
    yield ("dense: odd-cycle Ph(2,1,w) = 0",
           checks.check_bipartite(phk, kn, ke), checks.check_bipartite(bump(phk), kn, ke))

    verdicts = identity_suite(g)
    flipped = copy.deepcopy(verdicts)
    flipped[3].holds = False
    yield ("suite: every identity verdict holds",
           checks.check_verdicts(verdicts), checks.check_verdicts(flipped))
    q, s, w = 3, 1, Fraction(2, 3)
    value = oracle_ph(g, q, s, w)
    brute = checks.ph_brute(n, e, q, s, w)
    yield ("suite: oracle_ph equals Ph and brute force",
           checks.check_point(ph, value, brute, q, s, w),
           checks.check_point(ph, value + 1, brute, q, s, w))
    yield ("suite: Ph at a point equals brute force",
           checks.check_point(ph, value, brute, q, s, w),
           checks.check_point(bump(ph), value, brute, q, s, w))
    sl = zeros_in(zp.substitute(v=-1), "q", {"s": 1.0, "w": 0.5})
    coeffs = checks.univariate(ph, "q", s=1, w=Fraction(1, 2))
    moved = list(sl.roots)
    moved[0] += 1e-3
    yield ("suite: root residuals under Horner",
           checks.check_roots(coeffs, sl.roots, sl.actual_degree),
           checks.check_roots(coeffs, moved, sl.actual_degree))
    yield ("suite: root count equals degree",
           checks.check_roots(coeffs, sl.roots, sl.actual_degree),
           checks.check_roots(coeffs, sl.roots[1:], sl.actual_degree))

    def altered(doc: dict, path: list, change) -> dict:
        doc = copy.deepcopy(doc)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
        return doc

    pts = [(2, 1, -1, 3), (3, 1, 2, Fraction(1, 2))]
    c6 = json.loads(cli("compute", "--family", "circuit:6", "--mode", "z").stdout)
    yield ("cli: compute polynomial matches brute force",
           checks.check_poly_output(c6, *circuit(6), "z", pts),
           checks.check_poly_output(altered(c6, ["poly", "terms", 0, "c"],
                                            lambda c: str(int(c) + 1)),
                                    *circuit(6), "z", pts))
    orc = json.loads(cli("oracle", "--family", "complete:3", "--q", "3", "--s", "1",
                         "--w", "2").stdout)
    k3 = complete(3)
    yield ("cli: oracle value matches brute force",
           checks.check_oracle_output(orc, *k3, 3, 1, 2),
           checks.check_oracle_output(altered(orc, ["value"], lambda v: str(int(v) + 1)),
                                      *k3, 3, 1, 2))
    report = cli("check", "--family", "circuit:4").stdout
    yield ("cli: check reports every line ok",
           checks.check_report(report), checks.check_report(report.replace("ok  ", "FAIL", 1)))
    strips = cli("strips", "--ly", "3").stdout
    yield ("cli: strips reports every line ok",
           checks.check_report(strips), checks.check_report(strips.replace("ok  ", "FAIL", 1)))
    zdoc = json.loads(cli("zeros", "--family", "line:3", "--var", "q",
                          "--fix", "s=1,w=1/2").stdout)
    line3 = (3, [(0, 1), (1, 2)])
    half = Fraction(1, 2)
    yield ("cli: zeros have small residuals",
           checks.check_zeros_output(zdoc, *line3, 1, half),
           checks.check_zeros_output(altered(zdoc, ["roots", 0, 0], lambda x: x + 1e-3),
                                     *line3, 1, half))
    phi = json.loads(cli("phi", "--q", "5", "--s", "2", "--w", "0.5").stdout)
    yield ("cli: phi equals the largest transfer eigenvalue",
           checks.check_phi_output(phi, 5, 2, 0.5),
           checks.check_phi_output(altered(phi, ["phi"], lambda x: x * (1 + 1e-6)), 5, 2, 0.5))
    qc = json.loads(cli("qc", "--s", "4", "--w", "0.5").stdout)
    yield ("cli: q_c equals s + 1 - w(s-1)",
           checks.check_qc_output(qc, 4, 0.5),
           checks.check_qc_output(altered(qc, ["value"], lambda x: x + 1e-6), 4, 0.5))
    yield ("cli: bad input exits 2 with error:, no traceback",
           checks.check_usage_error(2, "error: --family wants KIND:N, got 'circuit:x'\n"),
           checks.check_usage_error(1, "Traceback (most recent call last):\n"
                                       "ValueError: invalid literal for int()\n"))


def main() -> int:
    ok = True
    for name, good, bad in cases():
        fine = good is None and bad is not None
        ok &= fine
        print(f"{'ok  ' if fine else 'FAIL'} {name}: "
              f"{'accepts' if good is None else 'REJECTS'} the right answer, "
              f"{'rejects' if bad else 'ACCEPTS'} the wrong one ({bad or good})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
