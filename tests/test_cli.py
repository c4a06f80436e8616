import json
import os
import sys

import pytest

from quiveralg.cli import (SpecError, load_algebra, parse_spec, run,
                           serialize_spec)
from quiveralg.quivers import Path

A2_SPEC = """\
name kA2
field GF(32003)
vertices [1 2]
arrows [a: 1 -> 2]
relations []
"""

NAK3_SPEC = """\
field GF(32003)
vertices [1 2 3]
arrows [a1: 1 -> 2, a2: 2 -> 3]
relations [a1*a2]
"""


def _run(argv, stdin_text=""):
    from contextlib import redirect_stdout
    import io as _io
    buf = _io.StringIO()
    old = sys.stdin
    sys.stdin = _io.StringIO(stdin_text)
    try:
        with redirect_stdout(buf):
            code = run(argv)
    finally:
        sys.stdin = old
    return code, buf.getvalue()


def test_parse_minimal_a2():
    quiver, field, relations, meta = parse_spec(A2_SPEC)
    assert quiver.n_vertices == 2
    assert quiver.n_arrows == 1
    assert relations == []
    assert meta["name"] == "kA2"


def test_parse_relation():
    quiver, field, relations, meta = parse_spec(NAK3_SPEC)
    assert len(relations) == 1


def test_parse_non_composable():
    bad = NAK3_SPEC.replace("a1*a2", "a2*a1")
    with pytest.raises(SpecError) as ei:
        parse_spec(bad)
    assert "non-composable" in str(ei.value)


def test_parse_unknown_arrow():
    bad = NAK3_SPEC.replace("a1*a2", "zz*a2")
    with pytest.raises(SpecError):
        parse_spec(bad)


def test_roundtrip_through_serializer():
    A = load_algebra(NAK3_SPEC)
    text = serialize_spec(A, name="nak3")
    B = load_algebra(text)
    assert B.dim == A.dim
    assert B.quiver.n_arrows == A.quiver.n_arrows
    # serialization is canonical: a second pass is byte-identical
    assert serialize_spec(B, name="nak3") == text


def test_family_pipe_analyze_exit_codes():
    code, spec = _run(["family", "linear_nakayama", "3"])
    assert code == 0
    code, out = _run(["check", "n-rep-finite", "--n", "2"], stdin_text=spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["value"] is True


@pytest.mark.parametrize("family, argv, code", [
    (["linear_nakayama", "3"], ["--n", "2"], 0),
    (["auslander", "A3-nonlinear"], ["--n", "1"], 2),
    (["auslander", "A4"], ["--n", "2", "--cap", "1"], 3),
], ids=["rigid", "gldim-above-n", "tau-cap-hit"])
def test_check_rigidity_exit_codes(family, argv, code):
    """The preprojective module is split first, so gldim > n is an error
    (2) and a hit tau_n-orbit cap is an unknown (3)."""
    _, spec = _run(["family"] + family)
    got, out = _run(["check", "rigidity"] + argv, stdin_text=spec)
    assert got == code
    if code == 0:
        assert json.loads(out)["report"]["value"] is True


CAP_1 = {"error": "a resolution exceeded the length cap 1"}


@pytest.mark.parametrize("family, argv, code, want", [
    (["linear_nakayama", "3"], ["--n", "2"], 0,
     {"value": True,
      "witness": {"serre_power_to_projective": {"0": 1, "1": 0, "2": 0}}}),
    (["linear_nakayama", "3"], ["--n", "2", "--cap", "1"], 3, CAP_1),
    (["auslander", "A3-nonlinear"], ["--n", "2"], 1,
     {"value": False,
      "witness": {"cohomology": {"1": 1, "2": 2}, "injective": 0,
                  "iterate": 2, "reason": "iterate left module territory"}}),
    (["auslander", "A5"], ["--n", "2", "--cap", "2"], 3,
     {"value": "unknown", "witness": {"cap": 2, "injective": 3}}),
    (["dynkin", "A4"], ["--n", "1"], 0,
     {"value": True, "witness": {"serre_power_to_projective": {
         "0": 3, "1": 2, "2": 1, "3": 0}}}),
], ids=["true", "length-cap", "false-cohomology", "unknown", "hereditary"])
def test_check_n_rep_finite_exit_codes(family, argv, code, want):
    _, spec = _run(["family"] + family)
    got, out = _run(["check", "n-rep-finite"] + argv, stdin_text=spec)
    assert got == code
    payload = json.loads(out)
    if "error" in want:
        assert payload == want
    else:
        assert payload["report"] == {"check": "n-rep-finite", **want}


def test_check_false_exit_code():
    code, spec = _run(["family", "dynkin", "A2"])
    assert code == 0
    code, out = _run(["check", "self-injective"], stdin_text=spec)
    assert code == 1
    assert json.loads(out)["report"]["value"] is False


def test_error_exit_code():
    code, out = _run(["check", "self-injective"], stdin_text="vertices [\n")
    assert code == 2


def test_denominator_divisible_by_p_is_a_spec_error():
    bad = NAK3_SPEC.replace("field GF(32003)\n", "").replace(
        "a1*a2", "1/32003*a1*a2")
    with pytest.raises(SpecError, match="line 3"):
        parse_spec(bad)
    code, out = _run(["analyze", "--n", "2"], stdin_text=bad)
    assert code == 2
    assert "32003" in json.loads(out)["error"]


@pytest.mark.parametrize("field", [None, "Q"])
@pytest.mark.parametrize("coef", ["1/0", "0/0"])
def test_zero_denominator_is_a_spec_error(coef, field):
    bad = NAK3_SPEC.replace("a1*a2", f"{coef}*a1*a2")
    with pytest.raises(SpecError, match="line 4"):
        parse_spec(bad)
    argv = ["analyze", "--n", "2"] + (["--field", field] if field else [])
    code, out = _run(argv, stdin_text=bad)
    assert code == 2
    assert "zero denominator" in json.loads(out)["error"]


def test_coefficient_divisible_by_p_vanishes():
    with pytest.raises(SpecError, match="relation is empty"):
        parse_spec(NAK3_SPEC.replace("a1*a2", "32003*a1*a2"))
    _, _, relations, _ = parse_spec(
        NAK3_SPEC.replace("a1*a2", "a1*a2 + 32003*a1*a2"))
    assert relations[0].terms == parse_spec(NAK3_SPEC)[2][0].terms


@pytest.mark.parametrize("n", ["0", "-1"])
def test_n_below_one_is_an_error(n):
    code, out = _run(["analyze", "--n", n],
                     stdin_text="vertices [1]\narrows []\nrelations []\n")
    assert code == 2
    assert "--n must be at least 1" in json.loads(out)["error"]


@pytest.mark.parametrize("argv", [["check", "tau-finite"],
                                  ["check", "ig-dim"],
                                  ["check", "vosnex", "--n", "3"]])
def test_cap_below_zero_is_an_error(argv):
    code, out = _run(argv + ["--cap", "-1"], stdin_text=A2_SPEC)
    assert code == 2
    assert "--cap must be at least 0" in json.loads(out)["error"]


@pytest.mark.parametrize("field", ["GF(4)", "GF(4294967311)"])
def test_bad_field_is_an_error(field):
    code, out = _run(["check", "tau-finite", "--n", "1", "--field", field],
                     stdin_text=A2_SPEC)
    assert code == 2
    assert "error" in json.loads(out)


def test_family_auslander_gamma():
    code, spec = _run(["family", "auslander", "A3-nonlinear"])
    assert code == 0
    code, out = _run(["gamma", "--n", "2"], stdin_text=spec)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["dim"] == 5
    assert rep["vertices"] == 3
    assert rep["arrows"] == 2


def test_amiot_hom_command():
    code, spec = _run(["family", "dynkin", "A2"])
    code, out = _run(["amiot-hom", "--n", "1"], stdin_text=spec)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["total"] == 4
    assert rep["pieces"] == {"0": 3, "1": 1}


@pytest.mark.parametrize("argv, code, want", [
    (["--n", "2"], 0, {"report": {"pieces": {"0": 9, "1": 3}, "total": 12}}),
    (["--n", "2", "--cap", "1"], 3, CAP_1),
], ids=["pieces", "length-cap"])
def test_amiot_hom_command_on_linear_nakayama_4(argv, code, want):
    _, spec = _run(["family", "linear_nakayama", "4"])
    got, out = _run(["amiot-hom"] + argv, stdin_text=spec)
    assert got == code
    payload = json.loads(out)
    assert {k: payload[k] for k in want} == want


def test_preprojective_command_spec_format():
    code, spec = _run(["family", "linear_nakayama", "3"])
    code, out = _run(["preprojective", "--n", "2", "--format", "spec"],
                     stdin_text=spec)
    assert code == 0
    A = load_algebra(out)
    assert A.dim == 6
    assert A.quiver.n_vertices == 3
    assert A.quiver.n_arrows == 3


@pytest.mark.parametrize("family, argv", [
    (["linear_nakayama", "3"], ["analyze", "--n", "2"]),
    (["linear_nakayama", "3"], ["check", "self-injective"]),
    (["dynkin", "A2"], ["amiot-hom", "--n", "1"]),
    (["dynkin", "A1"], ["gamma", "--n", "1"]),
], ids=["analyze", "check", "amiot-hom", "gamma-zero"])
def test_format_spec_without_an_algebra_is_refused(family, argv, capsys):
    """--format spec writes an algebra's spec; where a command has none to
    write (Gamma of A1 is 0), it exits 2 with an error line and prints
    nothing on stdout."""
    _, spec = _run(["family"] + family)
    code, out = _run(argv + ["--format", "spec"], stdin_text=spec)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: --format spec ")


def test_json_determinism():
    code, spec = _run(["family", "linear_nakayama", "3"])
    out1 = _run(["analyze", "--n", "2", "--seed", "7"], stdin_text=spec)[1]
    out2 = _run(["analyze", "--n", "2", "--seed", "7"], stdin_text=spec)[1]
    assert out1 == out2


def test_markdown_report_contains_tau_table():
    code, spec = _run(["family", "auslander", "A3-nonlinear"])
    code, out = _run(["analyze", "--n", "2", "--format", "md"],
                     stdin_text=spec)
    assert code == 0
    assert "tau_n^- iterates" in out
    assert "| iterate |" in out


def test_rational_field_spec():
    spec = NAK3_SPEC.replace("GF(32003)", "Q")
    A = load_algebra(spec)
    assert A.field.kind == "Q"
    assert A.dim == 5


def test_fractional_coefficients_roundtrip():
    spec = """\
field Q
vertices [s m1 m2 z]
arrows [x1: s -> m1, y1: m1 -> z, x2: s -> m2, y2: m2 -> z]
relations [x1*y1 - 1/2*x2*y2]
"""
    A = load_algebra(spec)
    assert A.dim == 4 + 4 + 1
    text = serialize_spec(A)
    B = load_algebra(text)
    assert B.dim == A.dim


SQUARE_SPEC = """\
{field}vertices [s m1 m2 z]
arrows [x1: s -> m1, y1: m1 -> z, x2: s -> m2, y2: m2 -> z]
relations [{relation}]
"""


@pytest.mark.parametrize("relation, x, y", [
    ("x1*y1 - x2*y2", 1, -1), ("x1*y1 -+ x2*y2", 1, -1),
    ("x1*y1 +- x2*y2", 1, -1), ("x1*y1 + - x2*y2", 1, -1),
    ("x1*y1 -- x2*y2", 1, 1), ("x1*y1 ++ x2*y2", 1, 1),
    ("- x1*y1 + x2*y2", -1, 1), ("-x1*y1-x2*y2", -1, -1)])
def test_consecutive_signs_in_a_relation_compose(relation, x, y):
    _, field, relations, _ = parse_spec(SQUARE_SPEC.format(
        field="", relation=relation))
    assert relations[0].terms == {Path(0, (0, 1)): field.el(x),
                                  Path(0, (2, 3)): field.el(y)}


@pytest.mark.parametrize("field_line", ["", "field GF(32003)\n"],
                         ids=["default", "GF(32003)"])
@pytest.mark.parametrize("relation", ["x1*y1 - x2*y2", "x1*y1 - 1/2*x2*y2"])
@pytest.mark.parametrize("target", ["Q", "GF(65521)"])
def test_field_override_reads_relations_over_the_new_field(
        field_line, relation, target):
    """--field gives the algebra of the spec with that field line written
    in: the relations are read over the requested field, not converted
    from GF(32003) residues."""
    got = load_algebra(SQUARE_SPEC.format(field=field_line,
                                          relation=relation), target)
    want = load_algebra(SQUARE_SPEC.format(field=f"field {target}\n",
                                           relation=relation))
    assert got.field == want.field
    assert [r.terms for r in got.relations] == \
        [r.terms for r in want.relations]
    assert got.dim == want.dim == 9


@pytest.mark.parametrize("params", [
    ["linear_nakayama"], ["linear_nakayama", "x"], ["thm39_type2"],
    ["canonical_2222"], ["canonical_2222", "1/0"], ["dynkin"],
    ["auslander"], ["higher_auslander_chain", "3"],
    ["higher_auslander_chain", "3", "x"]])
def test_bad_family_parameters_are_errors(params):
    code, out = _run(["family"] + params)
    assert code == 2
    assert "error" in json.loads(out)


def test_selftest_passes():
    code, out = _run(["selftest"])
    assert code == 0
    assert out.splitlines()[-1] == "selftest: ok"


def test_pipe_preprojective_of_aus_a4_self_injective():
    code, spec = _run(["family", "auslander", "A4"])
    assert code == 0
    code, tilde = _run(["preprojective", "--n", "2", "--format", "spec"],
                       stdin_text=spec)
    assert code == 0
    code, out = _run(["check", "self-injective"], stdin_text=tilde)
    assert code == 0
    assert json.loads(out)["report"]["value"] is True


def test_analyze_unknown_exit_code_on_kronecker():
    spec = """\
field GF(32003)
vertices [1 2]
arrows [a: 1 -> 2, b: 1 -> 2]
relations []
"""
    code, out = _run(["analyze", "--n", "1", "--cap", "5"], stdin_text=spec)
    assert code == 3
    assert json.loads(out)["report"]["tau_n_finite"]["value"] == "unknown"


KRONECKER_SPEC = """\
vertices [1 2]
arrows [a: 1 -> 2, b: 1 -> 2]
"""


@pytest.mark.parametrize("argv,spec,error", [
    (["amiot-hom", "--n", "1"],
     "vertices [1]\narrows [a: 1 -> 1]\nrelations [a*a]\n",
     "a resolution exceeded the length cap 32"),
    (["preprojective", "--n", "1", "--cap", "5"], KRONECKER_SPEC,
     "tau_n^-i(A) still has dimension 52 at iterate cap 5"),
], ids=["amiot-hom-loop", "preprojective-kronecker"])
def test_a_hit_cap_exits_3_with_its_error_line(argv, spec, error):
    code, out = _run(argv, stdin_text=spec)
    assert code == 3
    assert json.loads(out) == {"error": error}


A4_SPEC = """\
name A4
field GF(32003)
vertices [1 2 3 4]
arrows [a: 1 -> 2, b: 2 -> 3, c: 3 -> 4]
relations [a*b]
"""


def _with_line(spec: str, key: str, line: str) -> str:
    """``spec`` with ``line`` added after its ``key`` line."""
    out = []
    for ln in spec.splitlines():
        out.append(ln)
        if ln.startswith(key + " "):
            out.append(line)
    return "\n".join(out) + "\n"


# each input that would be misread is refused with exit 2 and one error
# line that names its spec line
@pytest.mark.parametrize("argv, spec, error", [
    (["analyze"], A4_SPEC.replace("a: 1", "2: 1").replace("a*b", "2*b*c"),
     "arrow name '2' would read as a coefficient or a sign in a relation "
     "(line 4)"),
    (["analyze"], A4_SPEC.replace("a: 1", "a-b: 1").replace("a*b", "c*c"),
     "arrow name 'a-b' would read as a coefficient or a sign in a "
     "relation (line 4)"),
    (["analyze"], A4_SPEC.replace("a: 1", "a+b: 1"),
     "arrow name 'a+b' would read as a coefficient or a sign in a "
     "relation (line 4)"),
    (["analyze"], _with_line(A4_SPEC, "name", "name other"),
     "a second 'name' line (line 2)"),
    (["analyze"], _with_line(A4_SPEC, "field", "field Q"),
     "a second 'field' line (line 3)"),
    (["analyze"], _with_line(A4_SPEC, "vertices", "vertices [1 2]"),
     "a second 'vertices' line (line 4)"),
    (["analyze"], _with_line(A4_SPEC, "arrows", "arrows [d: 4 -> 1]"),
     "a second 'arrows' line (line 5)"),
    (["analyze"], _with_line(A4_SPEC, "relations", "relations [b*c]"),
     "a second 'relations' line (line 6)"),
    (["analyze"], A4_SPEC.replace("a*b", "a*b -"),
     "relation 'a*b -' ends in a sign (line 5)"),
    (["analyze"], A4_SPEC.replace("a*b", "a*b +"),
     "relation 'a*b +' ends in a sign (line 5)"),
    (["family", "canonical_2222", "1/32003"], "",
     "lambda must be a rational number defined over GF(32003), got "
     "'1/32003'"),
], ids=["digit-arrow", "minus-arrow", "plus-arrow", "second-name",
        "second-field", "second-vertices", "second-arrows",
        "second-relations", "trailing-minus", "trailing-plus",
        "lambda-not-in-the-field"])
def test_input_that_would_be_misread_is_refused(argv, spec, error):
    code, out = _run(argv, stdin_text=spec)
    assert code == 2
    assert json.loads(out) == {"error": error}


def test_meta_lines_may_repeat():
    spec = A4_SPEC + "meta source test\nmeta note two meta lines\n"
    assert parse_spec(spec)[3] == {"source": "test",
                                   "note": "two meta lines", "name": "A4"}


def test_amiot_hom_refuses_gldim_above_n():
    """The pieces i < 0 vanish only when gldim A <= n; linear Nakayama 3
    has gldim 2."""
    _, spec = _run(["family", "linear_nakayama", "3"])
    code, out = _run(["amiot-hom", "--n", "1"], stdin_text=spec)
    assert code == 2
    assert json.loads(out) == {"error": "gldim(A) = 2 exceeds n = 1"}


@pytest.mark.parametrize("command", ["analyze", "preprojective", "gamma"])
def test_a_spec_with_no_vertices_is_a_spec_error(command):
    with pytest.raises(SpecError) as ei:
        parse_spec("vertices []\n")
    assert ei.value.line == 1
    code, out = _run([command], stdin_text="name empty\nvertices [ ]\n")
    assert code == 2
    assert json.loads(out) == {
        "error": "the quiver needs at least one vertex (line 2)"}


# Goldens written by `quiveralg family ... | quiveralg gamma --n 2 --format
# spec` before Gamma was built corner by corner; the relations depend on
# the basis of Gamma, so these bytes pin it.
GAMMA_GOLDENS = [("auslander", "A3-nonlinear"), ("auslander", "A4"),
                 ("linear_nakayama", "9")]


def _assert_spec_matches_golden(command, family, param):
    path = os.path.join(os.path.dirname(__file__), "data",
                        f"{command}_{family}_{param}_n2.spec")
    with open(path) as fh:
        want = fh.read()
    code, spec = _run(["family", family, param])
    assert code == 0
    code, out = _run([command, "--n", "2", "--format", "spec"],
                     stdin_text=spec)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("family, param", GAMMA_GOLDENS,
                         ids=[f"{f}_{p}" for f, p in GAMMA_GOLDENS])
def test_gamma_spec_matches_golden(family, param):
    _assert_spec_matches_golden("gamma", family, param)


# Goldens written by `quiveralg family ... | quiveralg preprojective --n 2
# --format spec` while quiver_presentation still enumerated every product
# u g w of a relation g to find the ideal; they pin the relations of the
# (n+1)-preprojective algebra.
@pytest.mark.parametrize("family, param", GAMMA_GOLDENS,
                         ids=[f"{f}_{p}" for f, p in GAMMA_GOLDENS])
def test_preprojective_spec_matches_golden(family, param):
    _assert_spec_matches_golden("preprojective", family, param)


@pytest.mark.parametrize("family, param", GAMMA_GOLDENS,
                         ids=[f"{f}_{p}" for f, p in GAMMA_GOLDENS])
def test_a_preprojective_golden_loads_with_its_verdict(family, param):
    """Each golden's quiver has oriented cycles, so loading it walks the
    radical series of the algebra, which reaches 0; Aus(A3-nonlinear) is
    not 2-representation-finite, so its preprojective algebra is not
    self-injective."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        f"preprojective_{family}_{param}_n2.spec")
    with open(path) as fh:
        spec = fh.read()
    code, out = _run(["check", "self-injective"], stdin_text=spec)
    want = param != "A3-nonlinear"
    assert code == (0 if want else 1)
    assert json.loads(out)["report"]["value"] is want


# Ideals with a finite path basis that are not admissible: a^3 = a^2 makes
# a^2 an idempotent (A is k[a]/(a^2) x k, with two simples), and
# (ab)^2 = ab makes ab one.
NON_ADMISSIBLE = [
    "vertices [1]\narrows [a: 1 -> 1]\nrelations [a*a*a - a*a]\n",
    "vertices [1 2]\narrows [a: 1 -> 2, b: 2 -> 1]\n"
    "relations [a*b - a*b*a*b, b*a*b - b*a*b*a*b]\n"]


@pytest.mark.parametrize("spec", NON_ADMISSIBLE, ids=["aaa-aa", "ab-abab"])
@pytest.mark.parametrize("argv", [["check", "self-injective"],
                                  ["analyze", "--n", "3"]])
def test_a_non_admissible_ideal_is_refused_at_load(spec, argv):
    with pytest.raises(SpecError, match="not admissible"):
        load_algebra(spec)
    code, out = _run(argv, stdin_text=spec)
    assert code == 2
    assert "not admissible" in json.loads(out)["error"]
