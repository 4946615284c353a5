"""Acceptance gate.

Nine criteria cover the package end to end: frozen golden polynomials,
oracle equivalence, the exact identity suite, strip multiplicity tables,
sign alternation, zero closed forms, asymptotic series and locus
crossings, bipartite lower bounds, and performance sanity.  Each
criterion prints exactly one machine-greppable verdict line

    ACCEPTANCE criterion-N (label): PASS|FAIL|SKIP

on the real stdout (bypassing capture), then enforces itself with plain
assertions.  SKIP is reserved for a criterion whose skipif condition says
the machine cannot exercise it; its line appears in the summary block.
"""

import os
import random
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (ACCEPTANCE_VERDICTS, SKIPPED_VERDICTS,
                      connected_simple_fixtures)
from chromfield import strips
from chromfield.asymptotics import (arc_endpoints, arc_endpoints_from_samples,
                                    circuit_limit_demo, phi_asym_largew,
                                    phi_asym_s1_largew, phi_circuit,
                                    phi_series_largeq, phi_series_near_sq,
                                    phi_series_small_s, phi_series_w1,
                                    qc_circuit, qc_locate_pair_degeneracy,
                                    qc_locate_unit_modulus, wcond_interval)
from chromfield.families import (family_z, ph_complete, transmigration_check,
                                 z_circuit, z_line, z_star)
from chromfield.graphs import Graph, complete_graph, line_graph, star_graph
from chromfield.identities import (alpha_magnitude_profile, alpha_sign_report,
                                   bipartite_lower_bounds, cycle_deviation,
                                   dcr_deviation, identity_suite, is_unimodal,
                                   kit_deviation, tutte_equivalent_difference)
from chromfield.partition import (oracle_ph, oracle_z, ph_poly, subgraph_counts,
                                  z_poly)
from chromfield.poly import Q, S, V, W, MultiPoly, RationalExpr
from chromfield.zeros import (l1_q_zero, l1_s_zero, l1_w_zero, l2_q_zeros,
                              l2_s_zeros, l2_v_zero, l2_w_zeros, match_roots,
                              q_shift_check, w_inversion_check, zeros_in)

QT = Q - S


def _verdict_line(num, label, verdict, extra=""):
    line = f"ACCEPTANCE criterion-{num} ({label}): {verdict}"
    return f"{line}  [{extra}]" if extra else line


def _verdict(num, label, verdict, extra=""):
    line = _verdict_line(num, label, verdict, extra)
    ACCEPTANCE_VERDICTS.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


@contextmanager
def criterion(num, label):
    note = {}
    try:
        yield note
    except BaseException:
        _verdict(num, label, "FAIL", note.get("extra", ""))
        raise
    _verdict(num, label, "PASS", note.get("extra", ""))


# -- criterion 1: golden polynomial fixtures -----------------------------------

def test_criterion_1_golden_fixtures(catalog, golden_z, golden_ph):
    with criterion(1, "golden fixtures") as note:
        worst = 0.0

        def timed_equal(build, frozen):
            nonlocal worst
            t0 = time.perf_counter()
            got = build()
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            assert got == MultiPoly.from_json_dict(frozen)
            assert dt < 1.0

        family_builders = {
            "null3": lambda: family_z("null", 3),
            "line2": lambda: z_line(2), "line3": lambda: z_line(3),
            "line4": lambda: z_line(4),
            "star4": lambda: z_star(4), "star5": lambda: z_star(5),
            "circuit2": lambda: z_circuit(2), "circuit3": lambda: z_circuit(3),
            "circuit4": lambda: z_circuit(4),
        }
        for name, frozen in golden_z.items():
            timed_equal(lambda: z_poly(catalog[name]), frozen)
            if name in family_builders:
                timed_equal(family_builders[name], frozen)
        for name, frozen in golden_ph.items():
            g = complete_graph(5) if name == "k5" else catalog[name]
            timed_equal(lambda: ph_poly(g), frozen)
        # the distinguished-set expansion of Ph(K_n) up to n = 5
        for n in range(1, 6):
            timed_equal(lambda: ph_complete(n),
                        ph_poly(complete_graph(n)).to_json_dict())
        note["extra"] = f"slowest item {worst * 1000:.0f} ms"


# -- criterion 2: oracle equivalence -------------------------------------------

def test_criterion_2_oracle_equivalence(catalog):
    with criterion(2, "oracle equivalence") as note:
        t0 = time.perf_counter()
        pairs = 0
        for name, g in catalog.items():
            z = z_poly(g)
            ph = ph_poly(g)
            for q in range(5):
                for s in range(q + 1):
                    assert oracle_z(g, q, s, V, W) == z.substitute(q=q, s=s), \
                        f"oracle_z mismatch on {name} at q={q}, s={s}"
                    assert oracle_ph(g, q, s, W) == ph.substitute(q=q, s=s), \
                        f"oracle_ph mismatch on {name} at q={q}, s={s}"
                    pairs += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        note["extra"] = f"{len(catalog)} graphs, {pairs} (q,s) pairs, {elapsed:.1f}s"


# -- criterion 3: identity suite with named deviation values -------------------

def test_criterion_3_identity_suite(catalog, z_cache):
    with criterion(3, "identity suite") as note:
        graphs = dict(connected_simple_fixtures())
        graphs["null3"] = catalog["null3"]
        checks = 0
        for name, g in graphs.items():
            for v in identity_suite(g):
                assert v.holds, f"{name}: {v.name}: {v.detail}"
                checks += 1

        # exact deletion-contraction deviations
        assert dcr_deviation(line_graph(2), 0) == S * V * W * (W - 1)
        for idx in range(2):
            assert (dcr_deviation(line_graph(3), idx)
                    == S * V * W * (W - 1) * (S * (W - 1) + W * V + Q))
        for idx in range(3):
            assert (dcr_deviation(catalog["circuit3"], idx)
                    == S * V * W * (W - 1)
                    * (W * V * V + 2 * W * V + S * (W - 1) + Q))

        # exact complete-separator quotient deviations
        den = Q + S * (W - 1)
        assert kit_deviation(line_graph(3), [0, 1], [1, 2]).equals(
            RationalExpr(S * QT * W * (W - 1) ** 2, den))
        assert kit_deviation(line_graph(4), [0, 1, 2], [2, 3]).equals(
            RationalExpr(S * QT * W * (W - 1) ** 2 * (den - (W + 1)), den))
        ph_k2 = ph_poly(complete_graph(2))
        assert kit_deviation(catalog["c4d"], [0, 1, 2], [0, 2, 3]).equals(
            RationalExpr(2 * S * QT * W * (W - 1) ** 2
                         * (ph_k2 - 2 * (Q - 1) * W), ph_k2))

        # Tutte-equivalent pair and the doubled-edge difference
        assert (tutte_equivalent_difference(star_graph(4), line_graph(4))
                == S * QT * V ** 2 * W * (W - 1) ** 2)
        assert (ph_poly(star_graph(4)) - ph_poly(line_graph(4))
                == S * QT * W * (W - 1) ** 2)
        assert (z_poly(catalog["circuit2"]) - z_poly(line_graph(2))
                == V * (V + 1) * (QT + S * W ** 2))

        # cycle-scaling defect: zero on forests, closed form on circuits
        for name in ("line4", "star5", "null3", "line6"):
            assert cycle_deviation(z_cache[name], catalog[name].n).num.is_zero()
        for n in range(3, 7):
            assert cycle_deviation(z_cache[f"circuit{n}"], n).equals(
                RationalExpr((S - 1) * (QT + S * W ** n) * V ** n, S))
        note["extra"] = f"{checks} suite verdicts + named deviations, exact"


# -- criterion 4: strip multiplicity combinatorics -----------------------------

def test_criterion_4_strips():
    with criterion(4, "strip tables") as note:
        zh = strips.zh_count_rows(6)
        ph = strips.ph_count_rows(6)
        for failures, what in ((strips.verify_row_structure(zh, ph), "rows"),
                               (strips.verify_sum_identities(zh, ph), "sums"),
                               (strips.verify_totals(zh, ph), "totals"),
                               (strips.verify_c_values(), "coefficients")):
            assert not failures, f"{what}: {failures}"
        # n_Ph(Ly, d) at s equals n_Zh(Ly, d) + n_Zh(Ly-1, d) at s-1
        zero = MultiPoly.zero()
        for ly in range(1, 7):
            for d in range(ly + 1):
                lower = zh[ly - 1].get(d, zero)
                assert (ph[ly][d]
                        == (zh[ly][d] + lower).substitute(s=S - 1)), (ly, d)
        note["extra"] = "rows, sums, totals, shift relation for Ly <= 6"


# -- criterion 5: sign alternation and unimodality report ----------------------

def test_criterion_5_sign_alternation():
    with criterion(5, "sign alternation") as note:
        rng = random.Random(20260825)
        checked = 0
        not_unimodal = 0
        for name, g in connected_simple_fixtures().items():
            ph = ph_poly(g)
            for _ in range(20):
                w = Fraction(rng.randrange(10 ** 6), 10 ** 6)
                for s in range(4):
                    failures = alpha_sign_report(ph, g.n, s, w)
                    assert not failures, f"{name} at s={s}, w={w}: {failures}"
                    profile = alpha_magnitude_profile(ph, g.n, s, w)
                    if not is_unimodal(profile):
                        not_unimodal += 1
                    checked += 1
        # unimodality is conjectural: counted and reported, never failed
        note["extra"] = (f"{checked} sign checks pass; "
                         f"unimodality violations {not_unimodal}/{checked}")


# -- criterion 6: zero closed forms, shift, inversion --------------------------

QVALS = [0.7, 1.3, 2.2, 3.4, 4.6]
SVALS = [0.5, 1.0, 1.7, 2.3, 3.1]
VVALS = [-1.8, -0.6, 0.4, 1.2, 2.1]
WVALS = [0.25, 0.6, 1.4, 2.2, 3.5]


def test_criterion_6_zero_closed_forms(catalog):
    with criterion(6, "zero closed forms") as note:
        z1 = z_poly(catalog["line1"])
        z2 = z_poly(catalog["line2"])
        grids = 0

        def check(p, var, fixed, expected):
            nonlocal grids
            sl = zeros_in(p, var, fixed)
            assert match_roots(sl.roots, expected, rel_tol=1e-9), \
                (var, fixed, sl.roots, expected)
            grids += 1

        for s in SVALS:
            for v in VVALS:
                for w in WVALS:
                    check(z1, "q", {"s": s, "v": v, "w": w},
                          [l1_q_zero(s, w)])
                    check(z2, "q", {"s": s, "v": v, "w": w},
                          l2_q_zeros(s, v, w))
        for q in QVALS:
            for v in VVALS:
                for w in WVALS:
                    check(z1, "s", {"q": q, "v": v, "w": w},
                          [l1_s_zero(q, w)])
                    check(z2, "s", {"q": q, "v": v, "w": w},
                          l2_s_zeros(q, v, w))
        for q in QVALS:
            for s in SVALS:
                for v in VVALS:
                    check(z1, "w", {"q": q, "s": s, "v": v},
                          [l1_w_zero(q, s)])
                    check(z2, "w", {"q": q, "s": s, "v": v},
                          l2_w_zeros(q, s, v))
        for q in QVALS:
            for s in SVALS:
                for w in WVALS:
                    check(z2, "v", {"q": q, "s": s, "w": w},
                          [l2_v_zero(q, s, w)])

        # the w = 1 -> w = 0 root translation by s, on every fixture
        for name, g in catalog.items():
            z = z_poly(g)
            for s_val, v_val in ((2.0, -1.3), (0.7, 0.4)):
                assert q_shift_check(z, s_val, v_val), (name, s_val, v_val)

        # w-root inversion symmetry on the self-reciprocal slices q = 2s
        assert w_inversion_check(ph_poly(catalog["line2"]), 1.5)
        assert w_inversion_check(ph_poly(catalog["circuit3"]), 2.0)
        note["extra"] = f"{grids} grid slices at rel 1e-9; shift + inversion"


# -- criterion 7: asymptotic series, crossings, order of limits ----------------

def _shrink_ratios(fn, points, rel=False):
    residuals = []
    for q, s, w in points:
        truth = phi_circuit(q, s, w)
        assert truth.region == "R1"
        r = abs(truth.phi - fn(q, s, w))
        if rel:
            r /= abs(fn(q, s, w))
        residuals.append(r)
    return [a / b for a, b in zip(residuals, residuals[1:])]


def test_criterion_7_asymptotics():
    with criterion(7, "asymptotics") as note:
        # residual order: halving the small parameter must shrink the
        # residual by the predicted factor, within 25%
        series = [
            (phi_series_w1, [(5, 2, 1 - d) for d in (0.2, 0.1, 0.05)], 8, False),
            (phi_series_largeq, [(q, 2, 0.5) for q in (8, 16, 32)], 4, False),
            (phi_series_small_s, [(4, s, 0.5) for s in (0.4, 0.2, 0.1)], 4, False),
            (phi_series_near_sq, [(5, 5 - d, 0.5) for d in (0.4, 0.2, 0.1)], 4, False),
            (lambda q, s, w: phi_asym_s1_largew(q, w),
             [(3, 1, w) for w in (100, 400, 1600)], 2, True),
            (phi_asym_largew, [(5, 3, w) for w in (50, 100, 200)], 2, False),
        ]
        for fn, points, predicted, rel in series:
            for ratio in _shrink_ratios(fn, points, rel):
                assert 0.75 * predicted < ratio < 1.25 * predicted, \
                    (getattr(fn, "__name__", "series"), ratio, predicted)

        # real-axis crossings against the numeric locators
        scanned = skipped = 0
        for s in (1, 2, 4, 6):
            for w in (0.2, 0.5, 0.9):
                res = qc_circuit(s, w)
                if res.value is None:
                    lo, _ = wcond_interval(s)
                    assert w <= lo  # outside the stated window
                    skipped += 1
                    continue
                if res.mode == "unit-modulus":
                    located = qc_locate_unit_modulus(s, w)
                else:
                    located = qc_locate_pair_degeneracy(s, w)
                assert abs(located - res.value) < 1e-6, (s, w)
                scanned += 1

        # arc endpoints: closed form versus discriminant-fit detection
        for s, w in ((1, 0.5), (2, 0.3), (2, 0.7), (4, 0.5), (6, 0.9)):
            a, b = arc_endpoints(s, w)
            fa, fb = arc_endpoints_from_samples(s, w)
            assert min(abs(a - fa) + abs(b - fb),
                       abs(a - fb) + abs(b - fa)) < 1e-6, (s, w)

        for n in range(1, 9):
            assert transmigration_check(n)

        demo = circuit_limit_demo(3, 1, -1, 2)
        assert demo.distinct_term_sets
        note["extra"] = (f"6 series, {scanned} crossings located "
                         f"({skipped} outside window), limits demo")


# -- criterion 8: bipartite lower bounds against brute force -------------------

def test_criterion_8_bipartite_bounds(catalog):
    with criterion(8, "bipartite bounds") as note:
        applicable = 0
        for name in ("circuit4", "circuit6", "star5"):
            g = catalog[name]
            for q in range(2, 5):
                for s in range(q + 1):
                    for w in (Fraction(0), Fraction(1, 2), Fraction(1),
                              Fraction(2), Fraction(7, 2)):
                        value = oracle_ph(g, q, s, w)
                        for chk in bipartite_lower_bounds(g, q, s, w, value):
                            if chk.applicable:
                                assert chk.holds, (name, q, s, w, chk.name)
                                applicable += 1
        note["extra"] = f"{applicable} applicable bound instances hold"


# -- criterion 9: performance sanity -------------------------------------------

def _circulant_two_chord():
    n = 10
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + 2) % n) for i in range(n)]
    return Graph.make(n, edges, "circulant10(1,2)")


def test_criterion_9_time_budget():
    with criterion(9, "20-edge time budget") as note:
        g = _circulant_two_chord()
        assert g.e == 20
        t0 = time.perf_counter()
        single = z_poly(g, workers=1)
        t_single = time.perf_counter() - t0
        assert single.substitute(s=0, w=1) == single.substitute(s=0, w=0)
        assert t_single < 10.0
        note["extra"] = f"{t_single:.2f}s single worker"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    exposes one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


USABLE_CPUS = _usable_cpus()
# 4 workers on c usable CPUs cannot beat min(4, c)x.  Require 65% of that
# ceiling, capped at the criterion's 2x: exactly 2x wherever 4 or more
# CPUs are usable, 1.95x on 3, 1.3x on 2.
SCALING_BOUND = min(2.0, 0.65 * min(4, USABLE_CPUS))
# one wall-clock pair is noise-dominated; decide on the median of several
SCALING_PAIRS = 5
SKIPPED_VERDICTS["test_criterion_9_parallel_scaling"] = _verdict_line(
    9, "4-worker scaling", "SKIP", f"{USABLE_CPUS} usable cpu(s)")


@pytest.mark.skipif(USABLE_CPUS < 2,
                    reason="one usable CPU: no speedup is possible")
def test_criterion_9_parallel_scaling():
    with criterion(9, "4-worker scaling") as note:
        g = _circulant_two_chord()
        ratios = []
        for _ in range(SCALING_PAIRS):
            # the walk itself: z_poly takes the vertex-subset sum on this graph
            t0 = time.perf_counter()
            single = subgraph_counts(g, workers=1)
            t1 = time.perf_counter()
            quad = subgraph_counts(g, workers=4)
            t2 = time.perf_counter()
            assert quad == single
            ratios.append((t1 - t0) / (t2 - t1))
        speedup = statistics.median(ratios)
        measured = (f"median {speedup:.2f}x of pair ratios "
                    f"{', '.join(f'{r:.2f}' for r in ratios)}; "
                    f"bound {SCALING_BOUND:.2f}x; {USABLE_CPUS} usable of "
                    f"os.cpu_count()={os.cpu_count()} cpu(s)")
        note["extra"] = measured
        assert speedup >= SCALING_BOUND, (
            f"4-worker speedup below bound: {measured}; the bound is "
            f"min(2, 0.65 * min(4, usable cpus))")
