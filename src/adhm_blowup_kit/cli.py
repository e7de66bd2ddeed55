"""Command-line front end.

Subcommands: ``validate``, ``dims``, ``chi``, ``sample``, ``scan``,
``tangent``, ``orbit``, ``report``.  All output is deterministic given the
flags and the input; only ``sample`` and ``tangent -r -k`` take a seed.  JSON
reports are emitted with sorted keys and rationals as exact ``num/den``
strings.  Exit codes: 0 success/valid, 1 usage or I/O error, 2 mathematical
invalidity, 3 sampling failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import adhm, config_io, lattice, monad
from .errors import (
    AdhmKitError,
    ConfigFormatError,
    FramingViolationError,
    InfeasibleParametersError,
    NonGenericStratumError,
    NotInPError,
    SamplingFailureError,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_SAMPLING = 3


def _parse_int_csv(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigFormatError(f"bad integer list {text!r}: {exc}") from None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError: bad JSON, bytes that are not UTF-8, or an integer
        # past Python's digit limit
        raise ConfigFormatError(f"{path}: {exc}") from None


def _load_config(path: str):
    """The configuration at ``path``; a ``seed`` the file records is not used."""
    return config_io.config_from_json(_load_json(path))[0]


def _emit(doc, as_json: bool, text_lines) -> None:
    if as_json:
        sys.stdout.write(config_io.dump_canonical(doc))
    else:
        for line in text_lines:
            print(line)


def _cmd_validate(args) -> int:
    rep = monad.validate_config(_load_config(args.path))
    doc = config_io.report_to_json(rep)
    lines = [f"valid: {rep.valid}"]
    lines += [f"  {k}: {doc[k]}" for k in (
        "det_a_nonzero", "raw_residual_zero", "compact_residual_zero",
        "monad_identity_zero", "framing", "finite_rank_drop", "ch_check",
        "stabilizer_dim", "scan_complete")]
    lines.append(f"  singular_points: {len(doc['singular_points'])}")
    lines += [f"    {p}" for p in doc["singular_points"]]
    if rep.failures:
        lines.append("  failures:")
        lines += [f"    - {msg}" for msg in rep.failures]
    _emit(doc, args.json, lines)
    return EXIT_OK if rep.valid else EXIT_INVALID


def _cmd_dims(args) -> int:
    dims = lattice.monad_dims(args.r, _parse_int_csv(args.a), args.k)
    doc = {
        "schema": config_io.SCHEMA_VERSION,
        "dim_k": list(dims.dim_k),
        "dim_l": list(dims.dim_l),
        "rank_w": dims.rank_w,
    }
    _emit(doc, args.json, [
        f"K = {tuple(dims.dim_k)}",
        f"L = {tuple(dims.dim_l)}",
        f"rank W = {dims.rank_w}",
    ])
    return EXIT_OK


def _cmd_chi(args) -> int:
    q = _parse_int_csv(args.q)
    d = lattice.DivisorClass(args.p, q)
    if args.r is not None:
        a_vec = _parse_int_csv(args.a)
        if len(a_vec) != len(q):
            raise ConfigFormatError("-a and -q must have the same length")
        ch = lattice.ChernCharacter.of_sheaf(args.r, a_vec, args.k or 0)
        value = lattice.chi_twisted(ch, d)
    else:
        value = lattice.chi_line(d)
    if args.json:
        _emit({"schema": config_io.SCHEMA_VERSION,
               "chi": config_io.frac_to_str(Fraction(value))}, True, [])
    else:
        print(value)
    return EXIT_OK


def _cmd_sample(args) -> int:
    cfg = adhm.sample_config(args.r, _parse_int_csv(args.a), args.k, seed=args.seed)
    text = config_io.dump_canonical(config_io.config_to_json(cfg, seed=args.seed))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _require_monad(cfg):
    """``cfg``, or :class:`NotInPError` (exit 2) if its compact residual is nonzero."""
    if not adhm.constraint_residual(cfg).is_zero():
        raise NotInPError("configuration does not satisfy the monad condition")
    return cfg


def _cmd_scan(args) -> int:
    # the scan certifies completeness only on a monad (see monad._scan_chart)
    cfg = _require_monad(_load_config(args.path))
    try:
        scan = monad.singular_scan(monad.build_monad(cfg))
    except NotInPError as exc:
        _emit({"schema": config_io.SCHEMA_VERSION, "finite_rank_drop": False,
               "reason": str(exc)}, args.json, [f"not in P: {exc}"])
        return EXIT_INVALID
    doc = {
        "schema": config_io.SCHEMA_VERSION,
        "finite_rank_drop": True,
        "singular_points": [config_io.point_to_json(p) for p in scan.points],
        "scan_complete": scan.complete,
    }
    lines = [f"singular points: {len(scan.points)} (complete: {scan.complete})"]
    lines += [f"  {config_io.point_to_json(p)}" for p in scan.points]
    _emit(doc, args.json, lines)
    return EXIT_OK


def _tangent_doc(cfg) -> dict:
    rep = adhm.tangent_dims(cfg)
    abstract, section3 = lattice.moduli_dim_formulas(cfg.r, cfg.a_vec, cfg.k)
    emp = rep.empirical_moduli_dim
    if emp == abstract and emp == section3:
        verdict = "matches_both"
    elif emp == abstract:
        verdict = "matches_abstract"
    elif emp == section3:
        verdict = "matches_section3"
    else:
        verdict = "matches_neither"
    return {
        "schema": config_io.SCHEMA_VERSION,
        "dim_ker_jacobian": rep.dim_ker_jacobian,
        "dim_group": rep.dim_group,
        "stabilizer_dim": rep.stabilizer_dim,
        "dim_orbit": rep.dim_orbit,
        "empirical_moduli_dim": emp,
        "abstract_formula": abstract,
        "section3_formula": section3,
        "formulas_disagree": abstract != section3,
        "verdict": verdict,
    }


def _tangent_config(args):
    if args.path is not None:
        # the file fixes (r, a, k), and nothing is drawn from a seed
        given = [flag for flag, value in (("-r", args.r), ("-a", args.a), ("-k", args.k),
                                          ("--seed", args.seed)) if value is not None]
        if given:
            raise ConfigFormatError(f"tangent takes a config file or -r, -a, -k and --seed, "
                                    f"not both: {' '.join(given)} given with {args.path}")
        return _require_monad(adhm.gauge_fix(_load_config(args.path)))
    if args.r is None or args.k is None:
        raise ConfigFormatError("tangent needs a config file or -r and -k")
    return adhm.sample_config(args.r, _parse_int_csv(args.a or ""), args.k,
                              seed=args.seed or 0)


def _cmd_tangent(args) -> int:
    doc = _tangent_doc(_tangent_config(args))
    lines = [
        f"empirical moduli dimension: {doc['empirical_moduli_dim']}",
        f"  dim ker J = {doc['dim_ker_jacobian']}, "
        f"dim G = {doc['dim_group']}, "
        f"stabilizer = {doc['stabilizer_dim']}, "
        f"orbit = {doc['dim_orbit']}",
        f"  closed forms: 2r(k+|a|^2/2)-|a|^2 = {doc['abstract_formula']}, "
        f"2(k+|a|^2/2)-|a| = {doc['section3_formula']}",
        f"  verdict: {doc['verdict']}",
    ]
    if doc["formulas_disagree"]:
        lines.append("  note: the two closed forms disagree on these parameters")
    _emit(doc, args.json, lines)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    cfg1, cfg2 = _load_config(args.config1), _load_config(args.config2)
    if (cfg1.r, cfg1.a_vec, cfg1.k) != (cfg2.r, cfg2.a_vec, cfg2.k):
        raise ConfigFormatError("configurations have different parameters")
    witness = config_io.group_element_from_json(_load_json(args.witness), cfg1.dims)
    try:
        equivalent = adhm.verify_equivalence(cfg1, cfg2, witness)
    except ValueError as exc:  # a singular witness block, or data not in normal form
        raise ConfigFormatError(str(exc)) from None
    _emit({"schema": config_io.SCHEMA_VERSION, "equivalent": equivalent},
          args.json, [f"equivalent: {equivalent}"])
    return EXIT_OK if equivalent else EXIT_INVALID


def _cmd_report(args) -> int:
    rep = monad.validate_config(_load_config(args.path))
    doc = config_io.report_to_json(rep)
    if rep.valid and rep.normalizable:
        doc["tangent"] = _tangent_doc(rep.normalized)
    lines = [f"valid: {rep.valid}"]
    if "tangent" in doc:
        lines.append(
            f"empirical moduli dimension: {doc['tangent']['empirical_moduli_dim']} "
            f"({doc['tangent']['verdict']})"
        )
    _emit(doc, args.json, lines)
    return EXIT_OK if rep.valid else EXIT_INVALID


#: What argparse takes for a value, not a flag, after an option: a negative
#: number, as its own default matcher has it, or an integer list that starts
#: with one, such as ``-1,0``.
_NEGATIVE_NUMBER = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adhm-blowup-kit",
        description="Exact ADHM/monad toolkit on blow-ups of the plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run all checks on a configuration file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("dims", help="monad end-term dimensions for (r, a, k)")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-a", type=str, default="")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("chi", help="Euler characteristic of O(p,q) or a twist")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=str, nargs="?", const="", default="")
    p.add_argument("-r", type=int, default=None)
    p.add_argument("-a", type=str, default="")
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("sample", help="sample a valid configuration")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-a", type=str, default="")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", type=str, default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("scan", help="singular locus of a configuration file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("tangent", help="empirical moduli dimension")
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("-r", type=int, default=None)
    p.add_argument("-a", type=str, default=None)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tangent)

    p = sub.add_parser("orbit", help="verify a gauge-equivalence witness")
    p.add_argument("--witness", required=True)
    p.add_argument("config1")
    p.add_argument("config2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("report", help="validate plus tangent data, one document")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_report)

    # so that "-a -1,0" reads like "-a=-1,0" where -a or -q takes a list
    for name in ("dims", "chi", "sample", "tangent"):
        sub.choices[name]._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


#: The parser ``main`` reuses: parsing leaves it unchanged, so one serves
#: every call in a process.
_PARSER = build_parser()
#: Each subcommand's parser, by name.  ``main`` hands it the arguments after
#: the name, so that only ``--help``, a missing command and an unknown one go
#: through ``_PARSER``.
_COMMANDS = next(action.choices for action in _PARSER._actions
                 if isinstance(action, argparse._SubParsersAction))


def main(argv=None) -> int:
    """Run one command on ``argv`` (``sys.argv[1:]`` when None) and return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] in _COMMANDS:
            args = _COMMANDS[argv[0]].parse_args(argv[1:])
        else:
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage error, or the help
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InfeasibleParametersError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (FramingViolationError, NonGenericStratumError, NotInPError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SamplingFailureError as exc:
        print(f"sampling failed: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except (AdhmKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
