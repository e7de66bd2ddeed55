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
from .monad import SurfacePoint, ValidationReport
from .sections import BlowupPoints

SCHEMA_VERSION = 1
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def frac_from_str(s: Any) -> Fraction:
    """A rational from an integer or a string ``"num/den"`` or ``"num"``."""
    if _is_int(s):
        return Fraction(s)
    match = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if match:
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den or 1))
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


def _check_schema(doc: Mapping) -> None:
    schema = doc.get("schema", SCHEMA_VERSION)
    if not _is_int(schema) or schema != SCHEMA_VERSION:
        raise ConfigFormatError(f"unsupported schema {schema!r}")


def _block_list(data: Any, shapes: list[tuple[int, int]], name: str) -> list[Matrix]:
    """One matrix per entry of ``shapes``, each of that shape."""
    if not isinstance(data, list) or len(data) != len(shapes):
        raise ConfigFormatError(f"{name}: expected {len(shapes)} matrices")
    return [matrix_from_json(d, m, n, f"{name}[{i}]")
            for i, (d, (m, n)) in enumerate(zip(data, shapes))]


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
    _check_schema(doc)
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
    a00 = matrix_from_json(blocks["a00"], ld[0], kd[0], "blocks.a00")
    a0i = _block_list(blocks["a0i"], [(ld[0], x) for x in kd[1:]], "blocks.a0i")
    ai0 = _block_list(blocks["ai0"], [(x, kd[0]) for x in ld[1:]], "blocks.ai0")
    aii = _block_list(blocks["aii"], list(zip(ld[1:], kd[1:])), "blocks.aii")
    aA = _block_list(blocks["aA00"], [(ld[0], kd[0])] * 2, "blocks.aA00")
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
    _check_schema(doc)
    kd, ld = dims.dim_k, dims.dim_l
    return GroupElement(
        g00=matrix_from_json(doc["g00"], ld[0], ld[0], "witness.g00"),
        g0i=tuple(_block_list(doc["g0i"], [(ld[0], x) for x in ld[1:]], "witness.g0i")),
        h00=matrix_from_json(doc["h00"], kd[0], kd[0], "witness.h00"),
        hii=tuple(_block_list(doc["hii"], [(x, x) for x in kd[1:]], "witness.hii")),
    )


def point_to_json(pt: SurfacePoint) -> dict:
    if pt.is_exceptional:
        return {
            "kind": "exceptional",
            "i": pt.exceptional_index,
            "w": [frac_to_str(pt.coords[0]), frac_to_str(pt.coords[1])],
        }
    return {"kind": "generic", "z": [frac_to_str(c) for c in pt.coords]}


def report_to_json(rep: ValidationReport) -> dict:
    """Schema 1, the one place that spells it out.

    ``a_invertible`` goes under four keys, ``monad_condition`` under three and
    ``scan`` under three; ``ch_check`` is always true, since
    :func:`.lattice.monad_dims` fixes the end terms from the Chern character,
    and ``fiber_spotchecks`` is always empty, since no point is sampled:
    :func:`.monad.validate_config` certifies beta everywhere.
    """
    scan = rep.scan
    return {
        "schema": SCHEMA_VERSION,
        "valid": rep.valid,
        **dict.fromkeys(("det_a_nonzero", "framing", "framing_det", "framing_fiber"),
                        rep.a_invertible),
        **dict.fromkeys(("raw_residual_zero", "compact_residual_zero", "monad_identity_zero"),
                        rep.monad_condition),
        "finite_rank_drop": scan is not None if rep.a_invertible else None,
        "singular_points": [point_to_json(p) for p in scan.points] if scan else [],
        "scan_complete": scan.complete if scan else None,
        "fiber_spotchecks": [],
        "ch_check": True,
        "stabilizer_dim": rep.stabilizer_dim,
        "normalizable": rep.normalizable,
        "failures": list(rep.failures),
    }


def dump_canonical(doc: Any) -> str:
    """Stable JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
