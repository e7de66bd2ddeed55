"""JSON serialisation of configurations, group elements and reports.

Rationals travel as strings ``"num/den"`` in lowest terms with a positive
denominator, so files round-trip exactly.  Parsing is strict: unknown fields
are rejected, and every matrix shape is checked against the dimensions forced
by the parameters.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Mapping

from .adhm import AdhmConfig, GroupElement
from .errors import ConfigFormatError
from .lattice import MonadDims, monad_dims
from .linalg import Matrix
from .monad import SpotCheck, SurfacePoint, ValidationReport
from .sections import BlowupPoints

SCHEMA_VERSION = 1
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def frac_from_str(s: Any) -> Fraction:
    """A rational from an integer or a string ``"num/den"`` or ``"num"``."""
    if _is_int(s):
        return Fraction(s)
    if isinstance(s, str) and _RATIONAL.fullmatch(s):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ConfigFormatError(f"bad rational {s!r}: zero denominator") from None
        except ValueError as exc:  # past Python's digit limit
            raise ConfigFormatError(f"bad rational {s[:20]!r}...: {exc}") from None
    raise ConfigFormatError(f"expected a rational \"num/den\", got {s!r}")


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[frac_to_str(x) for x in row] for row in m.rows]


def matrix_from_json(data: Any, nrows: int, ncols: int, name: str) -> Matrix:
    if not isinstance(data, list) or len(data) != nrows:
        raise ConfigFormatError(f"{name}: expected {nrows} rows")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != ncols:
            raise ConfigFormatError(f"{name}: expected rows of length {ncols}")
        rows.append([frac_from_str(x) for x in row])
    return Matrix(rows, ncols=ncols)


def _check_keys(obj: Mapping, allowed: set[str], required: set[str], where: str):
    if not isinstance(obj, Mapping):
        raise ConfigFormatError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigFormatError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigFormatError(f"{where}: missing fields {sorted(missing)}")


def config_to_json(cfg: AdhmConfig, seed: int | None = None) -> dict:
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "params": {"r": cfg.r, "a": list(cfg.a_vec), "k": cfg.k},
        "points": [[frac_to_str(p), frac_to_str(q)] for p, q in cfg.points.points],
        "blocks": {
            "a00": matrix_to_json(cfg.a00),
            "a0i": [matrix_to_json(m) for m in cfg.a0i],
            "ai0": [matrix_to_json(m) for m in cfg.ai0],
            "aii": [matrix_to_json(m) for m in cfg.aii],
            "aA00": [matrix_to_json(cfg.aA00[0]), matrix_to_json(cfg.aA00[1])],
            "c": matrix_to_json(cfg.c),
            "d": matrix_to_json(cfg.d),
        },
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def config_from_json(doc: Any) -> tuple[AdhmConfig, int | None]:
    _check_keys(doc, {"schema", "params", "points", "blocks", "seed"},
                {"params", "points", "blocks"}, "configuration")
    schema = doc.get("schema", SCHEMA_VERSION)
    if not _is_int(schema) or schema != SCHEMA_VERSION:
        raise ConfigFormatError(f"unsupported schema {schema!r}")
    params = doc["params"]
    _check_keys(params, {"r", "a", "k"}, {"r", "a", "k"}, "params")
    r, a_vec, k = params["r"], params["a"], params["k"]
    if not _is_int(r) or not _is_int(k):
        raise ConfigFormatError("params.r and params.k must be integers")
    if not isinstance(a_vec, list) or not all(_is_int(x) for x in a_vec):
        raise ConfigFormatError("params.a must be a list of integers")
    dims = monad_dims(r, a_vec, k)
    n = dims.n
    pts_doc = doc["points"]
    if not isinstance(pts_doc, list) or len(pts_doc) != n:
        raise ConfigFormatError(f"points: expected {n} entries")
    pts = []
    for entry in pts_doc:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigFormatError("points: entries must be pairs")
        pts.append((frac_from_str(entry[0]), frac_from_str(entry[1])))
    try:
        points = BlowupPoints(pts)
    except ValueError as exc:
        raise ConfigFormatError(str(exc)) from None

    blocks = doc["blocks"]
    _check_keys(blocks, {"a00", "a0i", "ai0", "aii", "aA00", "c", "d"},
                {"a00", "a0i", "ai0", "aii", "aA00", "c", "d"}, "blocks")
    kd, ld = dims.dim_k, dims.dim_l

    def block_list(key: str, shapes: list[tuple[int, int]]) -> list[Matrix]:
        data = blocks[key]
        if not isinstance(data, list) or len(data) != len(shapes):
            raise ConfigFormatError(f"blocks.{key}: expected {len(shapes)} matrices")
        return [
            matrix_from_json(d, m_, n_, f"blocks.{key}[{i}]")
            for i, (d, (m_, n_)) in enumerate(zip(data, shapes))
        ]

    a00 = matrix_from_json(blocks["a00"], ld[0], kd[0], "blocks.a00")
    a0i = block_list("a0i", [(ld[0], kd[i + 1]) for i in range(n)])
    ai0 = block_list("ai0", [(ld[i + 1], kd[0]) for i in range(n)])
    aii = block_list("aii", [(ld[i + 1], kd[i + 1]) for i in range(n)])
    aA = block_list("aA00", [(ld[0], kd[0]), (ld[0], kd[0])])
    c = matrix_from_json(blocks["c"], r, kd[0], "blocks.c")
    d = matrix_from_json(blocks["d"], ld[0], r, "blocks.d")
    cfg = AdhmConfig(r, a_vec, k, points, a00, tuple(a0i), tuple(ai0), tuple(aii),
                     (aA[0], aA[1]), c, d)

    seed = doc.get("seed")
    if seed is not None and not _is_int(seed):
        raise ConfigFormatError("seed must be an integer")
    return cfg, seed


def group_element_to_json(el: GroupElement) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "g00": matrix_to_json(el.g00),
        "g0i": [matrix_to_json(m) for m in el.g0i],
        "h00": matrix_to_json(el.h00),
        "hii": [matrix_to_json(m) for m in el.hii],
    }


def group_element_from_json(doc: Any, dims: MonadDims) -> GroupElement:
    _check_keys(doc, {"schema", "g00", "g0i", "h00", "hii"},
                {"g00", "g0i", "h00", "hii"}, "witness")
    n = dims.n
    kd, ld = dims.dim_k, dims.dim_l
    g0i_doc, hii_doc = doc["g0i"], doc["hii"]
    if not isinstance(g0i_doc, list) or len(g0i_doc) != n:
        raise ConfigFormatError(f"witness.g0i: expected {n} matrices")
    if not isinstance(hii_doc, list) or len(hii_doc) != n:
        raise ConfigFormatError(f"witness.hii: expected {n} matrices")
    return GroupElement(
        g00=matrix_from_json(doc["g00"], ld[0], ld[0], "witness.g00"),
        g0i=tuple(
            matrix_from_json(g0i_doc[i], ld[0], ld[i + 1], f"witness.g0i[{i}]")
            for i in range(n)
        ),
        h00=matrix_from_json(doc["h00"], kd[0], kd[0], "witness.h00"),
        hii=tuple(
            matrix_from_json(hii_doc[i], kd[i + 1], kd[i + 1], f"witness.hii[{i}]")
            for i in range(n)
        ),
    )


def point_to_json(pt: SurfacePoint) -> dict:
    if pt.is_exceptional:
        return {
            "kind": "exceptional",
            "i": pt.exceptional_index,
            "w": [frac_to_str(pt.coords[0]), frac_to_str(pt.coords[1])],
        }
    return {"kind": "generic", "z": [frac_to_str(c) for c in pt.coords]}


def _spot_to_json(s: SpotCheck) -> dict:
    return {
        "point": point_to_json(s.point),
        "rank_alpha": s.rank_alpha,
        "dim_ker_beta": s.dim_ker_beta,
        "fiber_dim": s.fiber_dim,
        "beta_surjective": s.beta_surjective,
        "ok": s.ok,
    }


def report_to_json(rep: ValidationReport) -> dict:
    """Schema 1: ``a_invertible`` under four keys, ``monad_condition`` under three."""
    return {
        "schema": SCHEMA_VERSION,
        "valid": rep.valid,
        **dict.fromkeys(("det_a_nonzero", "framing", "framing_det", "framing_fiber"),
                        rep.a_invertible),
        **dict.fromkeys(("raw_residual_zero", "compact_residual_zero", "monad_identity_zero"),
                        rep.monad_condition),
        "finite_rank_drop": rep.finite_rank_drop,
        "singular_points": [point_to_json(p) for p in rep.singular_points],
        "scan_complete": rep.scan_complete,
        "fiber_spotchecks": [_spot_to_json(s) for s in rep.fiber_spotchecks],
        "ch_check": rep.ch_check,
        "stabilizer_dim": rep.stabilizer_dim,
        "normalizable": rep.normalizable,
        "failures": list(rep.failures),
    }


def dump_canonical(doc: Any) -> str:
    """Stable JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
