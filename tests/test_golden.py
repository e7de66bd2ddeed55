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
"""

from __future__ import annotations

import contextlib
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from adhm_blowup_kit.cli import main
from util import perfbench_module

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = {
    "line_bundle": resources.files("adhm_blowup_kit") / "data" / "line_bundle.json",
    "hilbert_k2": resources.files("adhm_blowup_kit") / "data" / "hilbert_k2.json",
    **{p.stem: p for p in sorted((GOLDEN / "configs").glob("*.json"))},
}
TANGENT_CONFIGS = {p.stem: p for p in sorted((GOLDEN / "configs" / "tangent").glob("*.json"))}
COMMANDS = ("scan", "report", "tangent")
CASES = [(name, command) for name in sorted(CONFIGS) for command in COMMANDS] + [
    (name, "tangent") for name in sorted(TANGENT_CONFIGS)]
#: ``sample --seed 0`` output, byte for byte, on the parameters it holds.
SAMPLED = {p.name.removesuffix(".sample.json"): p for p in sorted(GOLDEN.glob("*.sample.json"))}


def _capture(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
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
