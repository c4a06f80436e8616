"""Command-line interface: spec-file parsing, dispatch, report emission.

The input format is line-oriented key/value with bracketed lists::

    name my-algebra
    field GF(32003)
    vertices [1 2 3]
    arrows [a1: 1 -> 2, a2: 2 -> 3]
    relations [a1*a2, 2*x - 1/3*y*z]

Exit codes: 0 success, 1 a `check` verdict is false, 2 errors,
3 a cap was hit: a verdict is unknown, or a command stopped at its cap
(window, tau-orbit or resolution length) with an error line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .checks import (analyze, is_n_rep_finite,
                     is_self_injective, is_tau_n_finite,
                     iwanaga_gorenstein_dim, rigidity, vosnex)
from .derived import amiot_hom
from .errors import (AboveCap, AboveCapError, NotTauFinite, QuiverAlgError,
                     WindowInconclusive)
from .exactla import DEFAULT_FIELD, GF, QQ, Field
from .families import (auslander_algebra, canonical_2222,
                       dynkin_path_algebra, higher_auslander_chain,
                       linear_nakayama, thm39_type2)
from .findim import quiver_presentation
from .homology import global_dimension, tau_n_inv
from .modules import projective, radical_series, regular
from .preprojective import (preprojective_algebra, preprojective_module,
                            stable_endomorphism)
from .quivers import (BoundQuiverAlgebra, Path, PathElement, Quiver,
                      complete_basis)

__all__ = ["parse_spec", "serialize_spec", "run", "emit_report", "main"]


class SpecError(QuiverAlgError):
    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        where = f" (line {line}" + (f", col {col}" if col else "") + ")" \
            if line else ""
        super().__init__(msg + where)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_FIELD_RE = re.compile(r"^(Q|GF\((\d+)\))$")
_ARROW_RE = re.compile(r"^\s*([\w.+-]+)\s*:\s*([\w.+-]+)\s*->\s*([\w.+-]+)\s*$")


def _field_from_string(s: str) -> Field:
    m = _FIELD_RE.match(s.strip())
    if not m:
        raise SpecError(f"unrecognized field {s!r}; use Q or GF(p)")
    if m.group(1) == "Q":
        return QQ
    try:
        return GF(int(m.group(2)))
    except ValueError as e:
        raise SpecError(str(e)) from e


def _split_bracket_list(value: str, line: int, sep: str):
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise SpecError("expected a bracketed list", line)
    inner = value[1:-1].strip()
    if not inner:
        return []
    return [x.strip() for x in inner.split(sep)]


def _parse_relation(expr: str, quiver: Quiver, field: Field, line: int):
    """A signed sum of (coefficient *)? arrow paths; consecutive signs
    compose."""
    tokens = re.findall(r"[+-]|[^+\s-]+", expr)
    terms = {}
    sign = 1
    expect_term = True
    for tok in tokens:
        if tok in "+-":
            if not expect_term:
                sign, expect_term = 1, True
            if tok == "-":
                sign = -sign
            continue
        if not expect_term:
            raise SpecError(f"unexpected token {tok!r} in relation", line)
        parts = [p.strip() for p in tok.split("*")]
        coef = Fraction(sign)
        names = parts
        if re.fullmatch(r"\d+(/\d+)?", parts[0]):
            try:
                coef = coef * Fraction(parts[0])
            except ZeroDivisionError:
                raise SpecError(f"zero denominator in {parts[0]!r}",
                                line) from None
            names = parts[1:]
        if not names:
            raise SpecError("a relation term needs at least one arrow", line)
        arrows = []
        for nm in names:
            if nm not in quiver.aindex:
                raise SpecError(f"unknown arrow {nm!r}", line)
            arrows.append(quiver.aindex[nm])
        at = quiver.source(arrows[0])
        for a in arrows:
            if quiver.source(a) != at:
                raise SpecError(
                    f"non-composable path "
                    f"{'*'.join(names)}", line)
            at = quiver.target(a)
        p = Path(quiver.source(arrows[0]), tuple(arrows))
        terms[p] = terms.get(p, Fraction(0)) + coef
        expect_term = False
    if tokens and expect_term:
        raise SpecError(f"relation {expr!r} ends in a sign", line)
    try:
        terms = {p: field.el(c) for p, c in terms.items()}
    except ZeroDivisionError as e:
        raise SpecError(f"a coefficient is not defined over {field}: {e}",
                        line) from e
    # a coefficient can vanish in the field without vanishing in Q
    terms = {p: c for p, c in terms.items() if c != field.zero}
    if not terms:
        raise SpecError("relation is empty", line)
    return PathElement(quiver, terms)


def parse_spec(text: str):
    """(Quiver, Field, relations, metadata) from the text format."""
    return _parse_spec(text, None)


def _parse_spec(text: str, override: Field | None):
    """``parse_spec`` with the relations read over ``override`` in place of
    the spec's own field, when given."""
    field = None
    vertices = None
    arrows = []
    rel_exprs = []
    meta = {}
    name = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        linestr = raw.strip()
        if not linestr or linestr.startswith("#"):
            continue
        key, _, value = linestr.partition(" ")
        value = value.strip()
        if key in seen:
            raise SpecError(f"a second {key!r} line", lineno)
        if key != "meta":
            seen.add(key)
        if key == "name":
            name = value
        elif key == "field":
            field = _field_from_string(value)
        elif key == "vertices":
            vertices = _split_bracket_list(value, lineno, None)
            vertices = [v for chunk in vertices for v in chunk.split()]
            if not vertices:
                raise SpecError("the quiver needs at least one vertex",
                                lineno)
        elif key == "arrows":
            for item in _split_bracket_list(value, lineno, ","):
                m = _ARROW_RE.match(item)
                if not m:
                    raise SpecError(f"malformed arrow {item!r}", lineno)
                arrow = m.group(1)
                if re.fullmatch(r"\d+", arrow) or re.search(r"[+-]", arrow):
                    raise SpecError(
                        f"arrow name {arrow!r} would read as a "
                        "coefficient or a sign in a relation", lineno)
                arrows.append((arrow, m.group(2), m.group(3)))
        elif key == "relations":
            rel_exprs = [(e, lineno)
                         for e in _split_bracket_list(value, lineno, ",")]
        elif key == "meta":
            k, _, v = value.partition(" ")
            meta[k] = v
        else:
            raise SpecError(f"unknown key {key!r}", lineno)
    if vertices is None:
        raise SpecError("missing 'vertices' line")
    field = override or field or DEFAULT_FIELD
    try:
        quiver = Quiver(vertices, arrows)
    except ValueError as e:
        raise SpecError(str(e)) from e
    relations = [_parse_relation(e, quiver, field, ln)
                 for e, ln in rel_exprs]
    if name:
        meta["name"] = name
    return quiver, field, relations, meta


def _coef_str(field: Field, c) -> str:
    if field.kind == "GF":
        v = int(c) % field.p
        if v > field.p // 2:
            v -= field.p
        return str(v)
    return str(c)


def serialize_spec(A: BoundQuiverAlgebra, name: str = "") -> str:
    q = A.quiver
    lines = []
    if name:
        lines.append(f"name {name}")
    f = A.field
    lines.append("field " + ("Q" if f.kind == "Q" else f"GF({f.p})"))
    lines.append("vertices [" + " ".join(q.vertices) + "]")
    arrs = ", ".join(f"{n}: {q.vertices[s]} -> {q.vertices[t]}"
                     for n, s, t in q.arrows)
    lines.append(f"arrows [{arrs}]")
    rels = []
    for rel in A.relations:
        bits = []
        for p, c in sorted(rel.terms.items()):
            cs = _coef_str(f, c)
            word = "*".join(q.arrows[a][0] for a in p.arrows)
            neg = cs.startswith("-")
            mag = cs[1:] if neg else cs
            term = word if mag == "1" else f"{mag}*{word}"
            if bits:
                bits.append("- " + term if neg else "+ " + term)
            else:
                bits.append("-" + term if neg else term)
        rels.append(" ".join(bits))
    lines.append("relations [" + ", ".join(rels) + "]")
    return "\n".join(lines) + "\n"


def _has_oriented_cycle(q: Quiver) -> bool:
    """Does a cycle survive removing, again and again, every vertex with
    no arrow in from the vertices left?"""
    left = set(range(q.n_vertices))
    while True:
        sources = {v for v in left
                   if all(q.source(a) not in left for a in q.arrows_into(v))}
        if not sources:
            return bool(left)
        left -= sources


def load_algebra(text: str, field_override: str | None = None,
                 cap: int = 64) -> BoundQuiverAlgebra:
    """The algebra of a spec.  The ideal must be admissible: the arrows
    generate a nilpotent ideal, so the radical series of A reaches 0.  An
    acyclic quiver ensures that; over a quiver with an oriented cycle a
    radical step that leaves a nonzero module unchanged refuses it."""
    override = _field_from_string(field_override) if field_override else None
    quiver, field, relations, meta = _parse_spec(text, override)
    A = complete_basis(quiver, field, relations, cap=cap)
    if _has_oriented_cycle(quiver):
        M = regular(A)
        while not M.is_zero():
            rad = radical_series(M)[0]
            if rad.total_dim == M.total_dim:
                raise SpecError("the relation ideal is not admissible: the "
                                f"radical series of A stops at dimension "
                                f"{M.total_dim}, not at 0")
            M = rad
    A.meta = meta
    return A


# ---------------------------------------------------------------------------
# families from the command line
# ---------------------------------------------------------------------------

def _parse_orientation(tag: str, s: int):
    if tag in ("", "linear"):
        return ["f"] * (s - 1)
    if tag == "nonlinear":
        return ["f" if i % 2 == 0 else "b" for i in range(s - 1)]
    if all(c in "fb" for c in tag) and len(tag) == s - 1:
        return list(tag)
    raise SpecError(f"unrecognized orientation {tag!r}")


def _param(params: list[str], i: int, what: str) -> str:
    if i >= len(params):
        raise SpecError(f"family needs {what}")
    return params[i]


def _int_param(params: list[str], i: int, what: str) -> int:
    s = _param(params, i, what)
    try:
        return int(s)
    except ValueError:
        raise SpecError(f"{what} must be an integer, got {s!r}") from None


def _dynkin_param(params: list[str], field: Field):
    tag = _param(params, 0, "a Dynkin parameter such as A3")
    m = re.fullmatch(r"A(\d+)(?:-(\w+))?", tag)
    if not m:
        raise SpecError(f"unrecognized Dynkin parameter {tag!r}")
    s = int(m.group(1))
    orient = _parse_orientation(m.group(2) or "", s)
    return dynkin_path_algebra(s, orient, field)


def build_family(name: str, params: list[str],
                 field: Field) -> tuple[BoundQuiverAlgebra, str]:
    if name == "linear_nakayama":
        v = _int_param(params, 0, "the number of vertices")
        return linear_nakayama(v, field), f"linear_nakayama-{v}"
    if name == "thm39_type2":
        v = _int_param(params, 0, "the number of vertices")
        choices = [c.strip() for c in params[1].split(",")] if len(params) > 1 \
            else ["gamma"] * (v - 1)
        return thm39_type2(v, choices, field), \
            f"thm39_type2-{v}-{'.'.join(choices)}"
    if name == "canonical_2222":
        tag = _param(params, 0, "the parameter lambda")
        try:
            lam = field.el(Fraction(tag))
        except (ValueError, ZeroDivisionError):
            raise SpecError(f"lambda must be a rational number defined "
                            f"over {field!r}, got {tag!r}") from None
        return canonical_2222(lam, field), f"canonical_2222-{tag}"
    if name == "dynkin":
        return _dynkin_param(params, field), f"dynkin-{params[0]}"
    if name == "auslander":
        H = _dynkin_param(params, field)
        return auslander_algebra(H), f"auslander-{params[0]}"
    if name == "higher_auslander_chain":
        s = _int_param(params, 0, "the number of vertices")
        m_ = _int_param(params, 1, "the chain length")
        chain = higher_auslander_chain(s, m_, field)
        return chain[-1], f"{m_}-aus-A{s}"
    raise SpecError(f"unknown family {name!r}; known: linear_nakayama, "
                    "thm39_type2, canonical_2222, dynkin, auslander, "
                    "higher_auslander_chain")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _envelope(payload: dict, text: str, seed: int) -> dict:
    return {
        "tool": "quiveralg",
        "version": __version__,
        "input_digest": hashlib.sha256(text.encode()).hexdigest()[:16],
        "seed": seed,
        "report": payload,
    }


def emit_report(report, fmt: str, timings: dict | None = None) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2,
                          default=str) + "\n"
    return _markdown_report(report, timings or {})


def _markdown_report(env: dict, timings: dict) -> str:
    rep = env.get("report", env)
    lines = [f"# quiveralg report ({env.get('version', '')})", ""]
    for k in sorted(rep):
        v = rep[k]
        if isinstance(v, dict):
            lines.append(f"- **{k}**:")
            for k2 in sorted(v, key=str):
                lines.append(f"    - {k2}: {v[k2]}")
        else:
            lines.append(f"- **{k}**: {v}")
    if timings:
        lines.append("")
        lines.append("## timings (seconds)")
        for k, t in timings.items():
            lines.append(f"- {k}: {t:.3f}")
    return "\n".join(lines) + "\n"


def _quiver_markdown(A: BoundQuiverAlgebra) -> list[str]:
    lines = ["", "## quiver (adjacency)", ""]
    for v in range(A.quiver.n_vertices):
        outs = [f"{A.quiver.arrows[a][0]}:{A.quiver.vertices[A.quiver.target(a)]}"
                for a in A.quiver.arrows_from(v)]
        lines.append(f"- {A.quiver.vertices[v]} -> "
                     f"[{' '.join(outs) if outs else '.'}]")
    return lines


def _radical_layers_markdown(A: BoundQuiverAlgebra) -> list[str]:
    from .modules import radical_series
    lines = ["", "## projectives (radical layers, dims per vertex)", ""]
    for v in range(A.quiver.n_vertices):
        M = projective(A, v)
        layers = []
        while M.total_dim:
            rad, incl = radical_series(M)
            top = tuple(d - r for d, r in zip(M.dims, rad.dims))
            layers.append("(" + ",".join(map(str, top)) + ")")
            M = rad
            if len(layers) > 16:
                break
        lines.append(f"- P_{A.quiver.vertices[v]}: " + " / ".join(layers))
    return lines


def _tau_table_markdown(A: BoundQuiverAlgebra, n: int) -> list[str]:
    lines = ["", "## tau_n^- iterates of the indecomposable projectives", ""]
    header = "| iterate | " + " | ".join(
        f"P_{v}" for v in A.quiver.vertices) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (A.quiver.n_vertices + 1))
    mods = [projective(A, v) for v in range(A.quiver.n_vertices)]
    row = ["0"] + [_dims_str(m) for m in mods]
    lines.append("| " + " | ".join(row) + " |")
    i = 0
    while any(not m.is_zero() for m in mods) and i < 16:
        i += 1
        mods = [tau_n_inv(m, n) if not m.is_zero() else m for m in mods]
        lines.append("| " + " | ".join(
            [str(i)] + [_dims_str(m) for m in mods]) + " |")
    return lines


def _dims_str(m) -> str:
    if m.is_zero():
        return "-"
    return "(" + ",".join(str(d) for d in m.dims) + ")"


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _read_input(args) -> str:
    if args.input and args.input != "-":
        with open(args.input) as fh:
            return fh.read()
    return sys.stdin.read()


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="quiveralg",
        description="exact structural analysis of bound quiver algebras")
    parser.add_argument("command", choices=[
        "analyze", "preprojective", "check", "gamma", "amiot-hom",
        "family", "selftest"])
    parser.add_argument("params", nargs="*")
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--cap", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["json", "md", "spec"],
                        default="json")
    parser.add_argument("--field", default=None,
                        help="GF(p) or Q (default GF(32003))")
    parser.add_argument("--input", "-i", default=None,
                        help="spec file (default: stdin)")
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (WindowInconclusive, NotTauFinite, AboveCapError) as e:
        _err(args, str(e))  # a cap was hit
        return 3
    except QuiverAlgError as e:
        _err(args, str(e))
        return 2


def _err(args, msg: str):
    if args.format == "json":
        print(json.dumps({"error": msg}, sort_keys=True))
    else:
        print(f"error: {msg}", file=sys.stderr)


def _dispatch(args) -> int:
    fmt = args.format
    if args.command == "family":
        if not args.params:
            raise SpecError("family needs a name")
        field = _field_from_string(args.field) if args.field else DEFAULT_FIELD
        A, name = build_family(args.params[0], args.params[1:], field)
        sys.stdout.write(serialize_spec(A, name=name))
        return 0
    if args.command == "selftest":
        return _selftest()
    if args.n < 1:
        raise SpecError(f"--n must be at least 1, got {args.n}")
    if args.cap < 0:
        raise SpecError(f"--cap must be at least 0, got {args.cap}")
    if fmt == "spec" and args.command in ("analyze", "check", "amiot-hom"):
        raise SpecError("--format spec writes an algebra, and "
                        f"{args.command} gives none")

    text = _read_input(args)
    t0 = time.time()
    A = load_algebra(text, args.field, cap=max(args.cap, 64))
    timings = {"parse+complete_basis": time.time() - t0}

    if args.command == "analyze":
        t0 = time.time()
        rep = analyze(A, args.n, cap=args.cap,
                      algebra_id=getattr(A, "meta", {}).get("name", "algebra"),
                      seed=args.seed)
        timings["analyze"] = time.time() - t0
        payload = asdict(rep)
        env = _envelope(payload, text, args.seed)
        out = emit_report(env, "json" if fmt == "json" else "md", timings)
        if fmt == "md":
            out = out + "\n".join(_quiver_markdown(A)
                                  + _radical_layers_markdown(A)
                                  + _tau_table_markdown(A, args.n)) + "\n"
        sys.stdout.write(out)
        for k, t in timings.items():
            print(f"timing {k}: {t:.3f}s", file=sys.stderr)
        unknowns = ("unknown" in (rep.tau_n_finite.get("value"),
                                  rep.n_rep_finite.get("value")))
        return 3 if unknowns else 0

    if args.command == "preprojective":
        split = preprojective_module(A, args.n, args.cap)
        talg = preprojective_algebra(A, args.n, args.cap)
        pres = quiver_presentation(talg)
        if fmt == "spec":
            sys.stdout.write(serialize_spec(pres, name="preprojective"))
            return 0
        payload = {
            "dim": talg.dim,
            "graded_dims": split.grade_dims,
            "vertices": pres.quiver.n_vertices,
            "arrows": pres.quiver.n_arrows,
            "arrow_list": [f"{n}: {pres.quiver.vertices[s]} -> "
                           f"{pres.quiver.vertices[t]}"
                           for n, s, t in pres.quiver.arrows],
            "arrow_degrees": pres.arrow_degrees,
            "relations": len(pres.relations),
        }
        sys.stdout.write(emit_report(_envelope(payload, text, args.seed), fmt))
        return 0

    if args.command == "gamma":
        gamma = stable_endomorphism(A, args.n, args.cap)
        if fmt == "spec" and not gamma.dim:
            raise SpecError("--format spec writes an algebra, and Gamma is 0")
        payload: dict = {"dim": gamma.dim}
        if gamma.dim:
            gp = quiver_presentation(gamma)
            gl = global_dimension(gp, args.cap)
            payload.update({
                "vertices": gp.quiver.n_vertices,
                "arrows": gp.quiver.n_arrows,
                "arrow_list": [f"{n}: {gp.quiver.vertices[s]} -> "
                               f"{gp.quiver.vertices[t]}"
                               for n, s, t in gp.quiver.arrows],
                "gldim": str(gl),
            })
            if fmt == "spec":
                sys.stdout.write(serialize_spec(gp, name="gamma"))
                return 0
        sys.stdout.write(emit_report(_envelope(payload, text, args.seed), fmt))
        return 0

    if args.command == "amiot-hom":
        gh = amiot_hom(A, args.n, cap=args.cap)
        payload = {"total": gh.total,
                   "pieces": {str(k): v for k, v in sorted(gh.pieces.items())}}
        sys.stdout.write(emit_report(_envelope(payload, text, args.seed), fmt))
        return 0

    if args.command == "check":
        if not args.params:
            raise SpecError("check needs a predicate name")
        name = args.params[0]
        verdict, witness = _run_check(A, name, args)
        payload = {"check": name, "value": verdict, "witness": witness}
        sys.stdout.write(emit_report(_envelope(payload, text, args.seed), fmt))
        if verdict is True:
            return 0
        if verdict is False:
            return 1
        return 3

    raise SpecError(f"unknown command {args.command}")


def _run_check(A, name: str, args):
    n, cap = args.n, args.cap
    if name == "self-injective":
        v = is_self_injective(A)
    elif name == "tau-finite":
        v = is_tau_n_finite(A, n, cap)
    elif name == "n-rep-finite":
        v = is_n_rep_finite(A, n, cap)
    elif name == "vosnex":
        v = vosnex(A, n, cap)
    elif name == "rigidity":
        return rigidity(preprojective_module(A, n, cap).orbit, n), None
    elif name == "ig-dim":
        d = iwanaga_gorenstein_dim(A, cap)
        if isinstance(d, AboveCap):
            return "unknown", str(d)
        return True, {"ig_dimension": d}
    else:
        raise SpecError(f"unknown check {name!r}; known: self-injective, "
                        "tau-finite, n-rep-finite, vosnex, rigidity, ig-dim")
    return v.value, v.witness


def _selftest() -> int:
    """A fast built-in verification of the headline reproductions."""
    failures = 0

    def check(label, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failures += 1

    H = dynkin_path_algebra(3, ["f", "b"])
    L = auslander_algebra(H)
    tots = sorted(tau_n_inv(projective(L, v), 2).total_dim for v in range(6))
    check("tau_2^- totals of Aus(A3-nonlinear) projectives = {0,0,0,1,1,3}",
          tots == [0, 0, 0, 1, 1, 3])
    gamma = stable_endomorphism(L, 2)
    check("stable endomorphism algebra has dimension 5", gamma.dim == 5)
    gp = quiver_presentation(gamma)
    check("its quiver is a 3-point A3 with 2 arrows",
          gp.quiver.n_vertices == 3 and gp.quiver.n_arrows == 2)
    check("Aus(A3-nonlinear) is not 2-representation-finite",
          is_n_rep_finite(L, 2).value is False)
    nak = linear_nakayama(3)
    check("linear Nakayama(3) is 2-representation-finite",
          is_n_rep_finite(nak, 2).value is True)
    talg = preprojective_algebra(nak, 2)
    check("its 3-preprojective algebra has dimension 6", talg.dim == 6)
    si = is_self_injective(quiver_presentation(talg))
    check("which is self-injective", si.value is True)
    ka2 = dynkin_path_algebra(2)
    gh = amiot_hom(ka2, 1)
    check("orbit Hom total for kA2 equals 4 with pieces (3, 1)",
          gh.total == 4 and gh.pieces == {0: 3, 1: 1})
    print("selftest:", "ok" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
