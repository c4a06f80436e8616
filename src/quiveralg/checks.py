"""Decidable structural predicates and the analysis report.

Every verdict carries a machine-checkable witness; cap overruns surface
as "unknown" (never as a boolean).  The n-representation-finiteness test
looks for a projective module among the iterates S_n^l I of each
indecomposable injective I; leaving module territory before that happens
refutes the property.  It walks them over A^op, where D S_n = S_n^{-1} D
makes D S_n^l I the negative Serre orbit of the projective D I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .derived import (ComplexOfModules, amiot_hom, module_complex,
                      serre_context)
from .errors import AboveCap, AboveCapError, WindowInconclusive
from .findim import quiver_presentation
from .homology import (ext, gldim_at_most, global_dimension,
                       injective_dimension, min_proj_resolution, syzygy,
                       tau_n_orbit)
from .modules import (Representation, dual, map_cokernel, op_algebra,
                      projective, projective_cover, regular, simple)
from .preprojective import (preprojective_algebra, preprojective_module,
                            stable_endomorphism)
from .quivers import BoundQuiverAlgebra

__all__ = ["is_tau_n_finite", "is_n_rep_finite", "is_self_injective",
           "vosnex", "iwanaga_gorenstein_dim", "is_cm", "rigidity",
           "cy_spot_check", "AnalysisReport", "analyze"]


@dataclass
class Verdict:
    """Tri-state verdict; compare ``.value`` explicitly (True / False /
    "unknown"), truthiness is deliberately not defined."""

    value: object
    witness: object = None


def is_tau_n_finite(A: BoundQuiverAlgebra, n: int, cap: int = 32) -> Verdict:
    gldim_at_most(A, n)
    trace = []
    for i in range(1, cap + 1):
        cur = tau_n_orbit(A, n, i)
        trace.append(cur.total_dim)
        if cur.is_zero():
            return Verdict(True, {"vanishing_index": i, "trace": trace})
    return Verdict("unknown", {"cap": cap, "trace": trace})


def is_n_rep_finite(A: BoundQuiverAlgebra, n: int, cap: int = 32) -> Verdict:
    """Is some S_n^l I_v a projective module, l <= cap, for every vertex v?
    S_n^l I_v is walked as its k-dual S_n^{-l} (D I_v) over A^op, whose
    cohomology is that of S_n^l I_v with the degrees negated; it is a
    projective module iff that cohomology lies in degree 0 and D H^0 is
    projective over A."""
    gl = global_dimension(A, cap=max(n + 1, 4))
    if isinstance(gl, AboveCap) or gl > n:
        return Verdict(False, {"reason": "gldim", "gldim": str(gl)})
    B = op_algebra(A)
    ctx = serre_context(B, n, cap)
    witnesses = {}
    for v in range(A.quiver.n_vertices):
        cur = module_complex(projective(B, v))  # D I_v
        found = None
        for ell in range(cap + 1):
            hdims = dict(sorted((-i, d) for i, d in
                                cur.cohomology_dims().items()))
            if set(hdims) - {0}:
                return Verdict(False, {
                    "injective": v, "iterate": ell,
                    "cohomology": hdims,
                    "reason": "iterate left module territory"})
            dh0 = dual(_h0(cur))
            # its cover is onto, so an isomorphism iff the dims agree
            if projective_cover(dh0).source.dims == dh0.dims:
                found = ell
                break
            cur = ctx.next_neg(cur)
        if found is None:
            return Verdict("unknown", {"injective": v, "cap": cap})
        witnesses[v] = found
    return Verdict(True, {"serre_power_to_projective": witnesses})


def _h0(P: ComplexOfModules) -> Representation:
    """H^0 of a minimized complex of projectives P with cohomology in
    degree 0 only: its differentials lie in the radical, so it has no
    term above degree 0, and H^0 is the cokernel of d^{-1}."""
    d = P.diffs.get(-1)
    return map_cokernel(d)[0] if d is not None else P.term(0)


def socle_vertex(A: BoundQuiverAlgebra, M: Representation):
    from .modules import socle
    soc = socle(M)[0]
    verts = [v for v, d in enumerate(soc.dims) if d]
    if len(verts) == 1 and soc.total_dim == 1:
        return verts[0]
    return None


def is_self_injective(A: BoundQuiverAlgebra) -> Verdict:
    """True iff every indecomposable projective is injective; witness is
    the Nakayama permutation vertex -> socle vertex.  Kept in the
    algebra's memo, so callers share one verdict and must not change it."""
    hit = A.memo.get(("self_injective",))
    if hit is None:
        hit = A.memo[("self_injective",)] = _self_injective(A)
    return hit


def _self_injective(A: BoundQuiverAlgebra) -> Verdict:
    """The socle of a module is essential, so P_v with socle S_w embeds in
    the injective envelope I_w of S_w, and is I_w iff the two have the same
    dimension vector; dim e_j I_w = dim e_j A e_w."""
    verts = range(A.quiver.n_vertices)
    perm = {}
    for v in verts:
        P = projective(A, v)
        w = socle_vertex(A, P)
        if w is None:
            return Verdict(False, {"projective": v,
                                   "reason": "socle not simple"})
        if P.dims != tuple(len(A.basis_between(j, w)) for j in verts):
            return Verdict(False, {"projective": v, "socle_vertex": w,
                                   "reason": "not injective"})
        perm[v] = w
    if sorted(perm.values()) != list(verts):
        return Verdict(False, {"reason": "socle map not a permutation",
                               "map": perm})
    return Verdict(True, {"nakayama_permutation": perm})


def vosnex(A: BoundQuiverAlgebra, n: int, cap: int = 32,
           window_cap: int = 64) -> Verdict:
    """Vanishing of small negative extensions: H^{-i}(S_n^{-l} A) = 0 for
    i in 1..n-2 across the orbit; vacuous for n <= 2."""
    if n <= 2:
        return Verdict(True, {"vacuous": True})
    tf = is_tau_n_finite(A, n, cap)
    if tf.value is not True:
        return Verdict("unknown", {"reason": "tau-finiteness unknown"})
    ctx = serre_context(A, n, cap)
    ell = 0
    while True:
        hdims = ctx.orbit(ell).cohomology_dims()
        for i in range(1, n - 1):
            if hdims.get(-i, 0):
                return Verdict(False, {"i": i, "orbit_index": ell})
        if not hdims or max(hdims) < -(n - 2):
            return Verdict(True, {"separation_at": ell})
        if ell >= window_cap:
            raise WindowInconclusive(window_cap)
        ell += 1


def iwanaga_gorenstein_dim(A: BoundQuiverAlgebra, cap: int = 32):
    """max(id A_A, id _A A), or ``AboveCap``; 0 for a self-injective
    algebra, read off its memoized verdict without a resolution."""
    if is_self_injective(A).value is True:
        return 0
    right = injective_dimension(regular(A), cap)
    if isinstance(right, AboveCap):
        return right
    left = injective_dimension(regular(op_algebra(A)), cap)
    if isinstance(left, AboveCap):
        return left
    return max(right, left)


def is_cm(B: BoundQuiverAlgebra, X: Representation, cap: int = 32) -> bool:
    """Cohen-Macaulay test: Ext^i(X, B) = 0 for 1 <= i <= IG-dim(B), from
    one resolution of X of length IG-dim(B) + 1."""
    if X.algebra is not B:
        raise ValueError("X must be a module over B")
    d = iwanaga_gorenstein_dim(B, cap)
    if isinstance(d, AboveCap):
        raise AboveCapError(cap)
    R = regular(B)
    res = min_proj_resolution(X, d + 1)
    return all(ext(X, R, i, res) == 0 for i in range(1, d + 1))


def rigidity(parts: list[Representation], n: int) -> bool:
    """Ext^i(M, M) = 0 for 1 <= i <= n-1, where M is the sum of the parts.
    Ext is additive, so this is Ext^i(X, Y) = 0 for every pair of parts,
    from one resolution of each X; a projective X resolves in length 0."""
    if n < 2:
        return True
    for X in parts:
        res = min_proj_resolution(X, n)
        if any(ext(X, Y, i, res) for Y in parts for i in range(1, n)):
            return False
    return True


def cy_spot_check(A: BoundQuiverAlgebra, n: int) -> dict[int, bool]:
    """For a self-injective algebra: nu(S) = Omega^{-(n+2)}(S) per simple,
    up to projective summands, the object-level shadow of the stable
    category being (n+1)-Calabi-Yau.

    With the Nakayama permutation pi (v -> socle vertex of P_v), nu S_v is
    S_w for pi(w) = v, and Omega is an equivalence of the stable category,
    so the test is Omega^{n+2} S_w = S_v.  Omega of a non-projective module
    has no projective summand and S_v is the only module of dimension
    vector e_v, so the dimension vectors decide it.  When P_v is simple,
    S_v = S_w is projective and both sides vanish."""
    si = is_self_injective(A)
    if si.value is not True:
        raise ValueError("cy_spot_check requires a self-injective algebra")
    # nu S_v = S_{nu[v]}
    nu = {v: w for w, v in si.witness["nakayama_permutation"].items()}
    out = {}
    for v in range(A.quiver.n_vertices):
        S = simple(A, v)
        out[v] = (A.projective_blocks(v).dims == S.dims
                  or syzygy(simple(A, nu[v]), n + 2).dims == S.dims)
    return out


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class AnalysisReport:
    algebra_id: str
    field: str
    n: int
    dim: int
    gldim: object
    tau_n_finite: dict
    n_rep_finite: dict
    self_injective_tilde: dict
    vosnex: dict
    ig_dimension: object
    rigidity: bool | None
    gamma: dict
    cross_validation: dict
    cy_spot_check: dict | None
    notes: list = field(default_factory=list)


def _verdict_dict(v: Verdict) -> dict:
    return {"value": v.value, "witness": v.witness}


def analyze(A: BoundQuiverAlgebra, n: int, cap: int = 32,
            window_cap: int = 64, algebra_id: str = "algebra",
            seed: int = 0) -> AnalysisReport:
    gl = global_dimension(A, cap)
    notes = []
    tau_v = Verdict("unknown", {"reason": "gldim exceeds n"})
    nrf_v = is_n_rep_finite(A, n, cap)
    vos_v = Verdict("unknown", None)
    tilde_si = {"value": "unknown"}
    ig: object = "unknown"
    rig = None
    gamma_info: dict = {}
    cross: dict = {}
    cy = None
    if not isinstance(gl, AboveCap) and gl <= n:
        tau_v = is_tau_n_finite(A, n, cap)
        if tau_v.value is True:
            vos_v = vosnex(A, n, cap, window_cap)
            split = preprojective_module(A, n, cap)
            tilde_alg = preprojective_algebra(A, n, cap)
            tilde_pres = quiver_presentation(tilde_alg)
            si = is_self_injective(tilde_pres)
            tilde_si = _verdict_dict(si)
            igv = iwanaga_gorenstein_dim(tilde_pres, cap)
            ig = igv if not isinstance(igv, AboveCap) else "unknown"
            rig = rigidity(split.orbit, n)
            gh = amiot_hom(A, n, window_cap, cap)
            cross = {
                "preprojective_module_dim": split.dim,
                "preprojective_algebra_dim": tilde_alg.dim,
                "amiot_hom_total": gh.total,
                "graded": {str(k): v for k, v in sorted(gh.pieces.items())},
            }
            gamma = stable_endomorphism(A, n, cap)
            gdim: object = None
            gq = {}
            if gamma.dim > 0:
                gpres = quiver_presentation(gamma)
                gg = global_dimension(gpres, cap)
                gdim = gg if not isinstance(gg, AboveCap) else "unknown"
                gq = {"vertices": gpres.quiver.n_vertices,
                      "arrows": gpres.quiver.n_arrows}
            gamma_info = {"dim": gamma.dim, "quiver": gq, "gldim": gdim}
            if si.value is True:
                cy = {str(k): v
                      for k, v in cy_spot_check(tilde_pres, n).items()}
    return AnalysisReport(
        algebra_id=algebra_id,
        field=repr(A.field),
        n=n,
        dim=A.dim,
        gldim=gl if not isinstance(gl, AboveCap) else "unknown",
        tau_n_finite=_verdict_dict(tau_v),
        n_rep_finite=_verdict_dict(nrf_v),
        self_injective_tilde=tilde_si,
        vosnex=_verdict_dict(vos_v),
        ig_dimension=ig,
        rigidity=rig,
        gamma=gamma_info,
        cross_validation=cross,
        cy_spot_check=cy,
        notes=notes,
    )

