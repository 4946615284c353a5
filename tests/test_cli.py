"""Command-line surface: JSON envelopes, text reports, graph input
routes, exit statuses, and byte-level determinism."""

import argparse
import io
import json
import math
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fresh_env, time_limit
from chromfield import identities, strips, zeros
from chromfield.cli import STRIP_WIDTH_CAP, _load_graph, main
from chromfield.errors import BadInputError
from chromfield.families import family_ph, z_circuit, z_circuit_zero_field
from chromfield.graphs import Graph, line_graph
from chromfield.partition import DEFAULT_VERTEX_CAP, chromatic_poly, ph_poly
from chromfield.poly import MultiPoly


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# -- compute -------------------------------------------------------------------

def test_compute_envelope_and_poly(capsys):
    data = run_json(capsys, ["compute", "--family", "line:3", "--mode", "ph"])
    assert set(data) == {"graph_hash", "n", "edges", "mode", "poly"}
    assert data["n"] == 3 and data["edges"] == 2 and data["mode"] == "ph"
    assert MultiPoly.from_json_dict(data["poly"]) == ph_poly(line_graph(3))


def test_compute_text_rendering(capsys):
    data = run_json(capsys, ["compute", "--family", "circuit:3",
                             "--mode", "z", "--text"])
    assert data["text"] == z_circuit(3).render()


def test_compute_tutte_mode(capsys):
    data = run_json(capsys, ["compute", "--family", "complete:3",
                             "--mode", "tutte", "--text"])
    assert data["mode"] == "tutte"
    assert "x" in data["text"] and "q" not in data["text"]


def test_compute_zero_field_mode(capsys):
    data = run_json(capsys, ["compute", "--family", "circuit:4",
                             "--mode", "zero-field"])
    assert data["mode"] == "zero-field"
    assert MultiPoly.from_json_dict(data["poly"]) == z_circuit_zero_field(4)


def test_compute_workers_flag_same_output(capsys):
    one = run_json(capsys, ["compute", "--family", "circuit:4"])
    par = run_json(capsys, ["compute", "--family", "circuit:4",
                            "--workers", "2"])
    assert one["poly"] == par["poly"]


# -- family and oracle ---------------------------------------------------------

def test_family_closed_form(capsys):
    data = run_json(capsys, ["family", "--family", "circuit:4"])
    assert data["mode"] == "z" and data["n"] == 4
    assert MultiPoly.from_json_dict(data["poly"]) == z_circuit(4)


def test_family_ph_slice(capsys):
    data = run_json(capsys, ["family", "--family", "complete:4", "--ph"])
    assert data["mode"] == "ph"
    assert MultiPoly.from_json_dict(data["poly"]) == family_ph("complete", 4)


def test_oracle_value(capsys):
    data = run_json(capsys, ["oracle", "--family", "complete:3",
                             "--q", "3", "--s", "1", "--v", "-1", "--w", "2"])
    # Ph(K3, 3, 1, w) = 6w: each of the 6 proper colorings uses the
    # distinguished color exactly once
    assert data["value"] == "12"


def test_oracle_fraction_weights(capsys):
    data = run_json(capsys, ["oracle", "--family", "line:2",
                             "--q", "2", "--s", "1", "--v", "-1",
                             "--w", "1/2"])
    # Ph(L2) = s(s-1)w^2 + 2s(q-s)w + (q-s)(q-s-1) at q=2, s=1: 2w
    assert data["value"] == "1"


def test_oracle_negative_fraction_as_its_own_word(capsys):
    # argparse reads "-1/3" as an option unless it is joined to its flag
    base = ["oracle", "--family", "circuit:3", "--q", "3", "--s", "1"]
    apart = run_cli(capsys, base + ["--v", "-1/3", "--w", "-2/5"])
    joined = run_cli(capsys, base + ["--v=-1/3", "--w=-2/5"])
    assert apart == joined
    assert apart[0] == 0 and json.loads(apart[1])["v"] == "-1/3"


# -- graph input routes --------------------------------------------------------

def test_graph_from_edge_list_file(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    data = run_json(capsys, ["compute", "--graph", str(path),
                             "--mode", "chromatic"])
    assert MultiPoly.from_json_dict(data["poly"]) == chromatic_poly(line_graph(3))


def test_graph_from_json_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(line_graph(3).to_json_dict()))
    data = run_json(capsys, ["compute", "--graph", str(path), "--mode", "ph"])
    assert data["graph_hash"] == line_graph(3).graph_hash()


def test_graph_from_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 1\n0 1\n"))
    data = run_json(capsys, ["compute", "--graph", "-", "--mode", "z"])
    assert data["n"] == 2 and data["edges"] == 1


# -- check and strips reports --------------------------------------------------

def test_check_reports_all_identities(capsys):
    code, out, err = run_cli(capsys, ["check", "--family", "circuit:4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("ok  ") for l in lines[:-1])
    total = len(lines) - 1
    assert lines[-1] == f"{total}/{total} identities hold"


def test_strips_report(capsys):
    code, out, err = run_cli(capsys, ["strips", "--ly", "3"])
    assert code == 0
    assert all(line.startswith("ok") for line in out.strip().splitlines())
    for name in ("rows", "sums", "totals", "coeffs"):
        assert f"strips-{name}" in out


def test_failing_checks_print_fail_lines(capsys, monkeypatch):
    monkeypatch.setattr(strips, "verify_totals",
                        lambda zh, ph: ["N_Zh(Ly=2) != binomial closed form",
                                        "N_Ph(Ly=3) != shifted closed form"])
    code, out, err = run_cli(capsys, ["strips", "--ly", "3"])
    assert code == 1
    assert out.splitlines() == [
        "ok   strips-rows", "ok   strips-sums",
        "FAIL strips-totals: N_Zh(Ly=2) != binomial closed form; "
        "N_Ph(Ly=3) != shifted closed form",
        "ok   strips-coeffs"]

    monkeypatch.setattr(identities, "alpha_layer_report",
                        lambda g, ph: ["alpha_n != 1"])
    monkeypatch.setattr(identities, "multi_edge_invariance",
                        lambda g, ph: False)
    code, out, err = run_cli(capsys, ["check", "--family", "circuit:4"])
    assert code == 1
    lines = out.splitlines()
    assert "FAIL alpha-layers: alpha_n != 1" in lines
    assert "FAIL multi-edge-invariance" in lines
    assert sum(line.startswith("FAIL") for line in lines) == 2
    total = len(lines) - 1
    assert lines[-1] == f"{total - 2}/{total} identities hold"


def test_strips_growth_lines(capsys):
    code, out, err = run_cli(capsys, ["strips", "--ly", "3", "--growth-s", "2"])
    assert code == 0
    assert "growth zh s=2" in out and "limit=6.0" in out
    assert "growth ph s=2" in out and "limit=5.0" in out


def test_strips_growth_ratios(capsys):
    code, out, err = run_cli(capsys, ["strips", "--ly", "3", "--growth-s", "2"])
    assert code == 0
    ratios = {line.split()[1]: line.split("ratios=")[1].split(" limit=")[0]
              for line in out.splitlines() if line.startswith("growth")}
    assert ratios == {
        "zh": "['4.500', '4.889', '5.159', '5.339', '5.460', '5.545']",
        "ph": "['3.500', '4.000', '4.286', '4.450', '4.552', '4.622']"}


# -- zeros, phi, qc ------------------------------------------------------------

def test_zeros_slice_matches_library(capsys):
    data = run_json(capsys, ["zeros", "--family", "line:2", "--var", "q",
                             "--fix", "s=1,w=1/2", "--mode", "ph"])
    sl = zeros.zeros_in(ph_poly(line_graph(2)), "q", {"s": 1.0, "w": 0.5})
    want = sorted([[round(z.real, 12), round(z.imag, 12)] for z in sl.roots])
    assert data["roots"] == want
    assert data["variable"] == "q" and data["fixed"] == {"s": 1.0, "w": 0.5}
    assert data["nominal_degree"] == 2


@pytest.mark.parametrize("argv", [
    ["--family", "circuit:5", "--var", "q", "--fix", "s=1,w=1/2"],
    ["--family", "complete:5", "--var", "q", "--fix", "s=2,w=0"],
    ["--family", "circuit:4", "--mode", "z", "--var", "w",
     "--fix", "q=3,s=1,v=-7/10"],
])
def test_zeros_prints_no_negative_zero(capsys, argv):
    # each of these slices has a real root whose imaginary part rounds to
    # a zero of either sign; both print as 0.0
    code, out, err = run_cli(capsys, ["zeros", *argv])
    assert code == 0, err
    parts = [x for root in json.loads(out)["roots"] for x in root]
    assert 0.0 in parts
    assert all(math.copysign(1.0, x) > 0 for x in parts if x == 0)
    assert "-0.0" not in out


def test_phi_payload(capsys):
    data = run_json(capsys, ["phi", "--q", "5", "--s", "2", "--w", "0.5"])
    assert data["region"] == "R1" and data["dominant"] == "lam1"
    assert set(data["candidates"]) == {"lam1", "lam2", "orbit_vw", "orbit_v"}


def test_phi_payload_in_region_r2(capsys):
    data = run_json(capsys, ["phi", "--q", "1.5", "--s", "2", "--w", "0.5"])
    assert (data["region"], data["dominant"]) == ("R2", "lam2")
    assert data["phi"] == pytest.approx((1 + math.sqrt(2)) / 2, rel=1e-12)
    assert data["candidates"]["orbit_v"] == [-1, 0]


def test_qc_located_residual(capsys):
    data = run_json(capsys, ["qc", "--s", "2", "--w", "0.5"])
    assert data["mode"] == "unit-modulus"
    assert data["residual"] < 1e-6


def test_qc_unspecified_has_no_locate(capsys):
    data = run_json(capsys, ["qc", "--s", "4", "--w", "0.2"])
    assert data["mode"] == "unspecified" and data["value"] is None
    assert "located" not in data


# -- exit statuses and determinism ---------------------------------------------

def test_domain_error_exit_one(capsys):
    code, out, err = run_cli(capsys, ["family", "--family", "circuit:0"])
    assert code == 1
    assert err.startswith("error:")


def test_not_expressible_exit_one(capsys):
    # the complete family has no four-variable closed form at general v
    code, out, err = run_cli(capsys, ["family", "--family", "complete:4"])
    assert code == 1
    assert err.startswith("error:")


def test_zeros_no_convergence_is_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(zeros, "_MAX_ITER", 1)
    code, out, err = run_cli(capsys, ["zeros", "--family", "line:3",
                                      "--var", "q", "--fix", "s=1,w=1/2"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--family", "line:2", "--var", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["compute", "--family", "circuit:x"],
    ["compute", "--family", "foo:3"],
    ["family", "--family", "bogus:3"],
    ["zeros", "--family", "line:2", "--var", "q", "--fix", "s=abc"],
    ["oracle", "--family", "line:2", "--q", "-1", "--s", "0"],
    ["oracle", "--family", "line:2", "--q", "2", "--s", "3"],
    ["oracle", "--family", "line:2", "--q", "2", "--s", "1", "--w", "abc"],
    ["oracle", "--family", "line:2", "--q", "2", "--s", "1", "--w", "1/0"],
    ["strips", "--ly", "0"],
    ["strips", "--ly", "-2", "--growth-s", "2"],
    ["strips", "--ly", "3", "--growth-s", "-2"],
    ["phi", "--q", "nan", "--s", "1", "--w", "1"],
    ["phi", "--q", "3", "--s", "1", "--w", "inf"],
    ["qc", "--s", "nan", "--w", "1"],
    ["qc", "--s", "1", "--w=-inf"],
    ["compute", "--family", "circuit:3", "--workers", "0"],
    ["compute", "--family", "circuit:3", "--workers", "-4"],
    ["check", "--family", "circuit:3", "--workers", "-1"],
    ["zeros", "--family", "line:3", "--var", "q", "--fix", "s=1,w=0.5", "--drop-tol", "5"],
    ["zeros", "--family", "line:3", "--var", "q", "--fix", "s=1,w=0.5", "--drop-tol", "-1"],
    ["zeros", "--family", "line:3", "--var", "q", "--fix", "s=1,w=0.5", "--drop-tol", "nan"],
    ["zeros", "--family", "line:4", "--var", "q", "--fix", "s=1,w=1e-400"],
    ["zeros", "--family", "line:3", "--var", "q", "--fix", "s=1"],
    ["zeros", "--family", "line:3", "--var", "q", "--mode", "z", "--fix", "s=1,w=2"],
])
def test_bad_argument_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["phi", "--q", "1e308", "--s", "1e308", "--w", "1e308"],
    ["phi", "--q", "1e200", "--s", "1", "--w", "1e200"],
    ["zeros", "--family", "line:3", "--var", "q", "--fix", "s=1e308,w=1e308"],
    ["zeros", "--family", "line:3", "--var", "q", "--fix", "s=1,w=1e200"],
])
def test_result_overflow_is_domain_error(capsys, argv):
    # finite arguments whose float result overflows: no Infinity or NaN
    # token (not JSON) and no OverflowError traceback
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_qc_large_s_terminates(capsys):
    # near q = 5e19 adjacent floats are farther apart than the bisection
    # tolerance, which once kept it halving forever
    with time_limit(10):
        data = run_json(capsys, ["qc", "--s", "1e20", "--w", "0.5"])
    assert data["mode"] == "pair-degeneracy"
    assert data["located"] == data["value"] == 5e19


def test_family_sizes_at_both_ends(capsys):
    assert run_json(capsys, ["family", "--family", "null:0"])["text"] == "1"
    data = run_json(capsys, ["family", "--family", f"null:{DEFAULT_VERTEX_CAP}"])
    assert data["n"] == DEFAULT_VERTEX_CAP
    code, out, err = run_cli(capsys, ["family", "--family",
                                      f"null:{DEFAULT_VERTEX_CAP + 1}"])
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["family", "--family", f"circuit:{DEFAULT_VERTEX_CAP + 1}"],
    ["family", "--family", "circuit:200"],
    ["family", "--family", "star:200", "--ph"],
    ["family", "--family", "line:2000"],
    ["strips", "--ly", str(STRIP_WIDTH_CAP + 1)],
    ["strips", "--ly", "80", "--growth-s", "2"],
])
def test_family_and_strips_refuse_before_work(capsys, argv):
    # circuit:70 took 11 s and printed 12.7 MB, and circuit:200 and
    # strips --ly 80 ran past 30 s, before these were refused
    with time_limit(10):
        code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "cap" in err


@pytest.mark.parametrize("fix", ["x=1", "q=1", "s=1,x=2", "s=1,q=2", "=1",
                                 "s=1,s=2"])
def test_fix_name_not_a_free_variable_exit_two(capsys, fix):
    # a name outside q, s, v, w, or the variable being solved for, would
    # fix nothing and yet be echoed back in "fixed"; a name given twice
    # would keep only its last value
    code, out, err = run_cli(capsys, ["zeros", "--family", "line:2",
                                      "--var", "q", "--fix", fix])
    assert code == 2 and out == ""
    assert err.startswith("error:")


_fix_items = st.tuples(
    st.sampled_from(["q", "s", "v", "w", "x", " w ", ""]) | st.text(max_size=3),
    st.sampled_from(["=", "", "=="]),
    st.text(alphabet="0123456789+-./eE_ nainf", max_size=10)
    | st.floats().map(repr) | st.fractions().map(str)
    | st.integers(-400, 400).map(lambda k: f"1e{k}"))


@given(st.sampled_from(["q", "s", "v", "w"]),
       st.lists(_fix_items, max_size=3).map(
           lambda items: ",".join("".join(item) for item in items))
       | st.text(max_size=20))
@example("q", "s=1e99999999")
@example("q", "s=1e400")
@example("q", "s=1e308,w=1e308")
@settings(max_examples=150, deadline=None)
def test_fix_text_parses_or_is_refused(var, fix):
    # whatever the --fix text, zeros prints a slice, refuses the text as a
    # usage error (exit 2), or finds the parsed values outside its domain
    # (exit 1), with an error line and never a traceback
    out, err = io.StringIO(), io.StringIO()
    with time_limit(10), mock.patch("sys.stdout", out), \
            mock.patch("sys.stderr", err):
        code = main(["zeros", "--family", "line:2", "--var", var,
                     f"--fix={fix}"])
    if code == 0:
        assert json.loads(out.getvalue())["variable"] == var
    else:
        assert code in (1, 2) and out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert code == 2 or "--fix" not in err.getvalue()


def test_miscounted_edge_list_exit_two(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO("3 3\n0 1\n1 2\n"))
    code, out, err = run_cli(capsys, ["compute", "--graph", "-"])
    assert code == 2 and out == ""
    assert err.startswith("error: header says 3 edges, found 2")


@pytest.mark.parametrize("text", ['{"n": 3, "edges": [[0, 1], [1', '{"edges": []}',
                                  '{"n": -3, "edges": []}',
                                  '{"n": 2.7, "edges": [[0, 1]]}',
                                  '{"n": true, "edges": []}',
                                  '{"n": 3, "edges": [[0, 1, 2]]}',
                                  '{"n": 3, "edges": [[0, 1.9]]}',
                                  '{"n": Infinity, "edges": []}'])
def test_malformed_json_graph_exit_two(capsys, monkeypatch, text):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, ["compute", "--graph", "-"])
    assert code == 2 and out == ""
    assert err.startswith("error: bad JSON graph")


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)
_json_graphs = st.fixed_dictionaries({
    "n": st.integers(-2, 6) | st.floats() | _json_values,
    "edges": st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=4) | _json_values,
}, optional={"name": _json_values})


@given(st.text(alphabet="0123456789 -.#x\n", max_size=40) | st.text(max_size=40),
       _json_graphs)
@example("1 1\n0", {"n": math.inf, "edges": []})
@example("", {"n": 2, "edges": [[0, -math.inf]]})
@settings(max_examples=200, deadline=None)
def test_graph_readers_raise_only_bad_input(text, data):
    # whatever the edge-list text or the JSON object, a reader returns a
    # graph or raises BadInputError, which main turns into exit status 2
    try:
        Graph.from_edge_list_text(text)
    except BadInputError:
        pass
    args = argparse.Namespace(family=None, graph="-")
    with mock.patch("sys.stdin", io.StringIO(json.dumps(data))):
        try:
            _load_graph(args)
        except BadInputError:
            pass


def test_negative_vertex_count_exit_two(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO("-1 0\n"))
    code, out, err = run_cli(capsys, ["compute", "--graph", "-"])
    assert code == 2 and out == ""
    assert err.startswith("error: vertex count must be >= 0")


def test_empty_graph_check_holds(capsys):
    code, out, _ = run_cli(capsys, ["check", "--family", "null:0"])
    assert code == 0
    assert "FAIL" not in out


def test_missing_graph_file_exit_two(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["compute", "--graph", str(tmp_path / "none")])
    assert code == 2 and err.startswith("error: cannot read")


def test_bad_edge_cap_setting_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("CHROMFIELD_EDGE_CAP", "abc")
    code, out, err = run_cli(capsys, ["compute", "--family", "circuit:3"])
    assert code == 2 and out == ""
    assert err.startswith("error: CHROMFIELD_EDGE_CAP")


def test_missing_graph_argument_aborts():
    with pytest.raises(SystemExit):
        main(["compute", "--mode", "z"])


def test_byte_identical_reruns(capsys):
    _, first, _ = run_cli(capsys, ["compute", "--family", "star:4", "--mode", "ph"])
    _, second, _ = run_cli(capsys, ["compute", "--family", "star:4", "--mode", "ph"])
    assert first == second


def _strips_lines(out):
    lines = out.splitlines()
    return (len(lines) == 4
            and all(line.startswith("ok   strips-") for line in lines))


def _identity_lines(out):
    lines = out.splitlines()
    total = len(lines) - 1
    return (total > 0 and all(line.startswith("ok  ") for line in lines[:-1])
            and lines[-1] == f"{total}/{total} identities hold")


# each subcommand in a fresh interpreter: subcommands import their own
# modules when they run, and an in-process test would find every module
# already loaded by the tests before it
COLD_RUNS = [
    (["compute", "--family", "complete:5", "--mode", "ph", "--workers", "2"],
     lambda out: set(json.loads(out)) == {"graph_hash", "n", "edges", "mode",
                                          "poly"}),
    (["family", "--family", "line:2"],
     lambda out: json.loads(out)["family"] == "line" and json.loads(out)["n"] == 2),
    (["oracle", "--family", "line:2", "--q", "3", "--s", "1", "--w", "2"],
     lambda out: set(json.loads(out)) == {"graph_hash", "q", "s", "v", "w",
                                          "value"}),
    (["check", "--family", "circuit:3"], _identity_lines),
    (["strips", "--ly", "2"], _strips_lines),
    (["zeros", "--family", "line:3", "--var", "q", "--fix", "s=1,w=1/2"],
     lambda out: len(json.loads(out)["roots"]) == 3),
    (["phi", "--q", "5", "--s", "2", "--w", "0.5"],
     lambda out: {"phi", "dominant", "region", "candidates"} <= set(json.loads(out))),
    (["qc", "--s", "4", "--w", "0.5"],
     lambda out: {"mode", "value", "note", "located"} <= set(json.loads(out))),
]


@pytest.mark.parametrize("argv, shape", COLD_RUNS,
                         ids=[argv[0] for argv, _ in COLD_RUNS])
def test_module_entry_point_subprocess(argv, shape):
    proc = subprocess.run([sys.executable, "-m", "chromfield.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=fresh_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert shape(proc.stdout), proc.stdout
