"""Byte-for-byte golden outputs of ``scan``, ``report`` and ``tangent --json``.

The configurations are the two bundled ones, four sampled ladder rungs
(``configs/r*.json``, written by ``sample --seed 0``) and an n = 0 diagonal
ideal at k = 5 whose five drop points are ``(-lambda_i : -mu_i : 1)``.  The
bundled configurations and ``r1_a-1_k0`` (``sum(dim K) <= 2``) take the
scan's exact minor-ideal route, the others its compressed route.  Three
n = 2, r = 3, k = 2 configurations (``configs/tangent/``, written by
``sample --seed 0``) pin ``tangent`` alone on larger Jacobian and stabilizer
systems; their scans take seconds each.  A refactor of the scan or of the
tangent computation must leave every file here unchanged.  After a
deliberate output change, rewrite the goldens with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
from importlib import resources
from pathlib import Path

import pytest

from adhm_blowup_kit.cli import main

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


def _run(command: str, path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(path), "--json"])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name,command", CASES)
def test_cli_output_matches_golden(name, command):
    expected = (GOLDEN / f"{name}.{command}.json").read_text(encoding="utf-8")
    assert _run(command, {**CONFIGS, **TANGENT_CONFIGS}[name]) == expected


if __name__ == "__main__":
    paths = {**CONFIGS, **TANGENT_CONFIGS}
    for name, command in CASES:
        (GOLDEN / f"{name}.{command}.json").write_text(
            _run(command, paths[name]), encoding="utf-8")
