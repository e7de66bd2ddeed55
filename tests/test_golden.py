"""Byte-for-byte golden outputs of ``sample``, ``scan``, ``report`` and ``tangent --json``.

The configurations are the two bundled ones, four ladder rungs
(``configs/r*.json``) and an n = 0 diagonal ideal at k = 5 whose five drop
points are ``(-lambda_i : -mu_i : 1)``.  Three n = 2, r = 3, k = 2
configurations (``configs/tangent/``) pin ``tangent`` alone on larger
Jacobian and stabilizer systems.  The seven sampled configurations were
written by ``sample --seed 0`` of an earlier sampler (one method per shape)
and are now fixed inputs, so a sampler change leaves the ``scan``,
``report`` and ``tangent`` goldens alone.  ``<name>.sample.json`` pins
today's ``sample --seed 0`` on the parameters of each of them, and
``commuting_r2_k2.sample.json`` on the n = 0 shape, whose monad condition
is the commuting-variety equation ``[B, X] + dc = 0``.  A refactor of the
sampler, the scan or the tangent computation must leave every file here
unchanged.  After a deliberate output change, rewrite the goldens with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.

Every golden report must also pass the benchmark's own output checks
(``perfbench/checks.py``), so a report change that would break the benchmark
fails here first.

``invalid/`` pins ``report --json`` and the text of ``validate`` on one input
per path of ``validate_config`` that exits 2.  The configurations in
``invalid/configs/`` are fixed inputs, written once:

- ``singular_a``: ``a00`` and ``a0i`` zeroed on ``sample_config(2, [1], 1,
  seed=0)``;
- ``nonzero_residual``: ``d`` scaled by 2 on that same sample;
- ``line_drop``: ``sample_config(1, [1, 1], 1, seed=2)``, where alpha drops
  along all of ``E_1``;
- ``positive_stabilizer``: ``adhm._solve_draw(adhm._draw(2, (3,), 1, rng),
  rng)`` with ``rng = Random(0)``, whose stabilizer has dimension 3.

``beta_not_onto`` is the fixture ``r1_k2_seed0.json`` at ``--seed 47``, whose
spot points include (4 : -2 : 1), where beta drops.  These reports are not
expected to pass the benchmark's checks.
"""

from __future__ import annotations

import contextlib
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from adhm_blowup_kit import config_io
from adhm_blowup_kit.cli import main
from adhm_blowup_kit.monad import validate_config
from util import perfbench_module

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"
CONFIGS = {
    "line_bundle": resources.files("adhm_blowup_kit") / "data" / "line_bundle.json",
    "hilbert_k2": resources.files("adhm_blowup_kit") / "data" / "hilbert_k2.json",
    **{p.stem: p for p in sorted((GOLDEN / "configs").glob("*.json"))},
}
TANGENT_CONFIGS = {p.stem: p for p in sorted((GOLDEN / "configs" / "tangent").glob("*.json"))}
COMMANDS = ("scan", "report", "tangent")
CASES = [(name, command) for name in sorted(CONFIGS) for command in COMMANDS] + [
    (name, "tangent") for name in sorted(TANGENT_CONFIGS)]
INVALID = GOLDEN / "invalid"
#: One input per invalid path of ``validate_config``, with its extra flags.
INVALID_CASES = {
    **{p.stem: (p, []) for p in sorted((INVALID / "configs").glob("*.json"))},
    "beta_not_onto": (FIXTURES / "r1_k2_seed0.json", ["--seed", "47"]),
}
#: The golden's suffix and the flags of each command pinned on them.
INVALID_COMMANDS = {"report": ("report.json", ["--json"]), "validate": ("validate.txt", [])}
#: ``sample --seed 0`` output, byte for byte, on the parameters it holds.
SAMPLED = {p.name.removesuffix(".sample.json"): p for p in sorted(GOLDEN.glob("*.sample.json"))}


def _capture(argv: list[str], code: int = 0) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = main(argv)
    assert got == code
    return out.getvalue()


def _run(command: str, path) -> str:
    return _capture([command, str(path), "--json"])


def _sample(params: dict) -> str:
    # "-a=-1,0": a value starting with "-" must be attached to its flag
    a = ",".join(map(str, params["a"]))
    return _capture(["sample", "-r", str(params["r"]), f"-a={a}",
                     "-k", str(params["k"]), "--seed", "0"])


@pytest.mark.parametrize("name,command", CASES)
def test_cli_output_matches_golden(name, command):
    expected = (GOLDEN / f"{name}.{command}.json").read_text(encoding="utf-8")
    assert _run(command, {**CONFIGS, **TANGENT_CONFIGS}[name]) == expected


def _run_invalid(name: str, command: str) -> str:
    path, flags = INVALID_CASES[name]
    return _capture([command, str(path), *flags, *INVALID_COMMANDS[command][1]], code=2)


def _invalid_golden(name: str, command: str) -> Path:
    return INVALID / f"{name}.{INVALID_COMMANDS[command][0]}"


@pytest.mark.parametrize("name", sorted(INVALID_CASES))
@pytest.mark.parametrize("command", sorted(INVALID_COMMANDS))
def test_invalid_output_matches_golden(name, command):
    expected = _invalid_golden(name, command).read_text(encoding="utf-8")
    assert _run_invalid(name, command) == expected


def test_report_is_valid_iff_nothing_failed():
    fixtures = sorted(FIXTURES.glob("*.json"))
    inputs = [(p, None) for p in [*CONFIGS.values(), *TANGENT_CONFIGS.values(), *fixtures]]
    inputs += [(p, int(flags[1]) if flags else None) for p, flags in INVALID_CASES.values()]
    verdicts = []
    for path, seed in inputs:
        cfg, file_seed = config_io.config_from_json(json.loads(path.read_text(encoding="utf-8")))
        rep = validate_config(cfg, seed=seed if seed is not None else file_seed or 0)
        assert rep.valid == (not rep.failures), path
        verdicts.append(rep.valid)
    assert verdicts.count(False) == len(INVALID_CASES)


@pytest.mark.parametrize("name", sorted(p.name.removesuffix(".report.json")
                                        for p in GOLDEN.glob("*.report.json")))
def test_golden_report_passes_benchmark_checks(name):
    checks = perfbench_module("checks")
    doc = json.loads(CONFIGS[name].read_text(encoding="utf-8"))
    report = json.loads((GOLDEN / f"{name}.report.json").read_text(encoding="utf-8"))
    assert checks.check_config(doc) == []
    assert checks.check_report(doc, report) == []


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_sample_matches_golden(name):
    expected = SAMPLED[name].read_text(encoding="utf-8")
    assert _sample(json.loads(expected)["params"]) == expected


if __name__ == "__main__":
    for path in SAMPLED.values():
        path.write_text(_sample(json.loads(path.read_text(encoding="utf-8"))["params"]),
                        encoding="utf-8")
    paths = {**CONFIGS, **TANGENT_CONFIGS}
    for name, command in CASES:
        (GOLDEN / f"{name}.{command}.json").write_text(
            _run(command, paths[name]), encoding="utf-8")
    for name in INVALID_CASES:
        for command in INVALID_COMMANDS:
            _invalid_golden(name, command).write_text(
                _run_invalid(name, command), encoding="utf-8")
