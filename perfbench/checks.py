"""Output checks that do not use the program's own code.

Every quantity here is recomputed from the JSON the program emits, with
``sympy.Matrix`` over the rationals, or compared with a value the mathematics
forces.  Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp


def rational(text: str) -> sp.Rational:
    num, den = text.split("/")
    return sp.Rational(int(num), int(den))


def monad_dims(r: int, a: list[int], k: int) -> tuple[list[int], list[int]]:
    """End-term dimensions ``(dim K_i, dim L_i)`` of the monad, from the paper.

    ``K_0 = k + (|a|^2 + sum a)/2`` and ``L_0 = k + (|a|^2 - sum a)/2``;
    for ``i >= 1``, ``K_i = K_0 - a_i`` and ``L_i = K_0``.
    """
    norm2 = sum(x * x for x in a)
    k0 = k + (norm2 + sum(a)) // 2
    l0 = k + (norm2 - sum(a)) // 2
    return [k0] + [k0 - x for x in a], [l0] + [k0 for _ in a]


def expected_moduli_dim(r: int, a: list[int], k: int) -> int:
    """``2 r k + (r - 1) |a|^2``, the dimension the tangent computation must find."""
    return 2 * r * k + (r - 1) * sum(x * x for x in a)


def _block(rows: list, nrows: int, ncols: int) -> sp.Matrix:
    if nrows == 0 or ncols == 0:
        return sp.zeros(nrows, ncols)
    return sp.Matrix(nrows, ncols, lambda i, j: rational(rows[i][j]))


def _blocks(doc: dict) -> dict:
    """The configuration's blocks as sympy matrices, shaped by its parameters."""
    params = doc["params"]
    r, a = params["r"], params["a"]
    kd, ld = monad_dims(r, a, params["k"])
    b = doc["blocks"]
    n = len(a)
    return {
        "r": r, "n": n, "kd": kd, "ld": ld,
        "points": [(rational(p), rational(q)) for p, q in doc["points"]],
        "a00": _block(b["a00"], ld[0], kd[0]),
        "a0i": [_block(b["a0i"][i], ld[0], kd[i + 1]) for i in range(n)],
        "ai0": [_block(b["ai0"][i], ld[i + 1], kd[0]) for i in range(n)],
        "aii": [_block(b["aii"][i], ld[i + 1], kd[i + 1]) for i in range(n)],
        "aA00": [_block(b["aA00"][A], ld[0], kd[0]) for A in (0, 1)],
        "c": _block(b["c"], r, kd[0]),
        "d": _block(b["d"], ld[0], r),
    }


def _arrowhead(cfg: dict, corner: sp.Matrix, scale) -> sp.Matrix:
    """Block matrix ``L -> K`` with ``corner`` at (0, 0), arrow blocks scaled by ``scale(i)``."""
    kd, ld, n = cfg["kd"], cfg["ld"], cfg["n"]
    rows = [[corner] + [cfg["a0i"][j] * scale(j) for j in range(n)]]
    for i in range(n):
        row = [cfg["ai0"][i] * scale(i)]
        for j in range(n):
            row.append(cfg["aii"][i] * scale(i) if i == j
                       else sp.zeros(ld[i + 1], kd[j + 1]))
        rows.append(row)
    out = sp.zeros(sum(ld), sum(kd))
    r0 = 0
    for i, row in enumerate(rows):
        c0 = 0
        for j, blk in enumerate(row):
            out[r0:r0 + ld[i], c0:c0 + kd[j]] = blk
            c0 += kd[j]
        r0 += ld[i]
    return out


def check_config(doc: dict) -> list[str]:
    """``det(a) != 0`` and the compact constraint ``(q^A a^{-1} q_A)^{00} + dc = 0``.

    ``a`` is the arrowhead matrix of the blocks, ``q^A`` has corner
    ``-a^A_00`` and arrow blocks scaled by the point coordinate ``p_i^A``, and
    ``x^A y_A = x^1 y^0 - x^0 y^1``.
    """
    cfg = _blocks(doc)
    if sum(cfg["kd"]) == 0:
        a_inv = sp.zeros(0, 0)
    else:
        a = _arrowhead(cfg, cfg["a00"], lambda i: 1)
        if a.det() == 0:
            return ["det(a) = 0"]
        a_inv = a.inv()
    q = [_arrowhead(cfg, -cfg["aA00"][A], lambda i, A=A: cfg["points"][i][A])
         for A in (0, 1)]
    l0, k0 = cfg["ld"][0], cfg["kd"][0]
    s = q[1] * a_inv * q[0] - q[0] * a_inv * q[1]
    compact = s[:l0, :k0] + cfg["d"] * cfg["c"]
    if not compact.is_zero_matrix:
        return [f"compact constraint is {compact.tolist()}, not 0"]
    return []


def _frac(x: sp.Rational) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def plane_oracle(doc: dict) -> list[tuple[Fraction, Fraction]] | None:
    """Singular points of an ``n = 0`` configuration with ``a00 = Id`` and diagonal ``aA00``.

    Column ``i`` of ``alpha`` at ``(x0 : x1 : 1)`` is
    ``(-(x1 + mu_i), x0 + lambda_i, c_i)``, so ``alpha`` drops rank exactly at
    ``(-lambda_i : -mu_i : 1)`` for the columns with ``c_i = 0``.  Returns
    None when the configuration is not of this shape.
    """
    cfg = _blocks(doc)
    k = cfg["kd"][0]
    lam, mu = cfg["aA00"]
    if (cfg["n"] != 0 or cfg["a00"] != sp.eye(k)
            or not lam.is_diagonal() or not mu.is_diagonal()):
        return None
    pairs = [(lam[i, i], mu[i, i]) for i in range(k)]
    if len(set(pairs)) != k:
        return None
    return sorted((_frac(-l), _frac(-m)) for i, (l, m) in enumerate(pairs)
                  if cfg["c"][:, i].is_zero_matrix)


def _alpha_rank(cfg: dict, z: tuple[Fraction, ...]) -> int:
    """Rank of ``alpha`` of an ``n = 0`` configuration at ``(z0 : z1 : z2)``.

    With the lowered pairs ``z_A`` and ``a^A_00``, the rows of ``alpha`` are
    ``z_A a00 + z2 a_A``: ``-z1 a00 - z2 aA00[1]``, ``z0 a00 + z2 aA00[0]``,
    then ``z2 c``.
    """
    z0, z1, z2 = (sp.Rational(x.numerator, x.denominator) for x in z)
    a00 = cfg["a00"]
    lam, mu = cfg["aA00"]
    alpha = (-z1 * a00 - z2 * mu).col_join(z0 * a00 + z2 * lam).col_join(z2 * cfg["c"])
    return alpha.rank()


def _generic_points(report: dict) -> list[tuple[Fraction, Fraction]] | None:
    pts = []
    for p in report["singular_points"]:
        z0, z1, z2 = (Fraction(s) for s in p.get("z", ("0", "0", "0")))
        if p["kind"] != "generic" or z2 == 0:
            return None
        pts.append((z0 / z2, z1 / z2))
    return sorted(pts)


def check_report(doc: dict, report: dict) -> list[str]:
    """Checks on ``report --json`` for the configuration ``doc``."""
    problems = []
    params = doc["params"]
    r, a, k = params["r"], params["a"], params["k"]
    if report.get("valid") is not True:
        problems.append(f"report is not valid: {report.get('failures')}")
    if "tangent" not in report:
        problems.append("report has no tangent section")
    else:
        problems += check_tangent(r, a, k, report["tangent"])

    if r == 1 and bool(report["singular_points"]) != (k > 0):
        # A rank-1 torsion-free sheaf with instanton number k is L (x) I_Z with
        # length(Z) = k, so it has singular points exactly when k > 0.
        problems.append(
            f"rank 1, k = {k}, but {len(report['singular_points'])} singular points")

    oracle = plane_oracle(doc)
    if oracle is None:
        return problems
    cfg = _blocks(doc)
    reported = _generic_points(report)
    if reported != oracle:
        problems.append(f"singular points {reported} differ from {oracle}")
    if r == 1 or len(oracle) == k:
        # an ideal sheaf of k distinct points: each is a simple singular point
        jump = sum(k - _alpha_rank(cfg, (x0, x1, Fraction(1)))
                   for x0, x1 in reported or ())
        if jump != k:
            problems.append(f"total fibre jump {jump}, expected {k}")
    for spot in report["fiber_spotchecks"]:
        z = tuple(Fraction(s) for s in spot["point"]["z"])
        want = r + k - _alpha_rank(cfg, z)
        if spot["fiber_dim"] != want:
            problems.append(f"fibre dimension {spot['fiber_dim']} at {z}, expected {want}")
    return problems


def check_tangent(r: int, a: list[int], k: int, tangent: dict) -> list[str]:
    """Checks on a ``tangent --json`` document (or the tangent part of a report)."""
    problems = []
    want = expected_moduli_dim(r, a, k)
    if tangent["empirical_moduli_dim"] != want:
        problems.append(
            f"empirical moduli dimension {tangent['empirical_moduli_dim']}, expected {want}")
    if tangent["abstract_formula"] != want:
        problems.append(f"abstract formula {tangent['abstract_formula']}, expected {want}")
    if tangent["stabilizer_dim"] != 0:
        problems.append(f"stabilizer dimension {tangent['stabilizer_dim']}")
    if tangent["dim_orbit"] != tangent["dim_group"] - tangent["stabilizer_dim"]:
        problems.append("orbit dimension is not group minus stabilizer")
    if (tangent["empirical_moduli_dim"]
            != tangent["dim_ker_jacobian"] - tangent["dim_orbit"]):
        problems.append("moduli dimension is not kernel minus orbit")
    return problems
