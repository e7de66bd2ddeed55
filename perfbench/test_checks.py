"""Self-tests of the benchmark: each check rejects a corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

CLI = run.import_program()


def cli_json(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert CLI.main(list(argv)) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def sampled(tmp_path_factory) -> tuple[dict, dict]:
    path = tmp_path_factory.mktemp("ladder") / "cfg.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert CLI.main(["sample", "-r", "2", "-a", "1", "-k", "1", "--seed", "5",
                         "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    return doc, cli_json("report", str(path), "--json")


@pytest.fixture(scope="module")
def plane(tmp_path_factory) -> tuple[dict, dict]:
    doc = workloads.plane_config(random.Random(3), 1, 3)
    path = tmp_path_factory.mktemp("plane") / "cfg.json"
    path.write_text(json.dumps(doc))
    return doc, cli_json("report", str(path), "--json")


def test_sampled_output_passes(sampled):
    doc, report = sampled
    assert checks.check_config(doc) == []
    assert checks.check_report(doc, report) == []


def test_perturbed_d_is_rejected(sampled):
    doc, _ = sampled
    bad = copy.deepcopy(doc)
    num, den = bad["blocks"]["d"][0][0].split("/")
    bad["blocks"]["d"][0][0] = f"{int(num) + int(den)}/{den}"
    assert any("compact constraint" in p for p in checks.check_config(bad))


def test_singular_a_is_rejected(sampled):
    doc, _ = sampled
    bad = copy.deepcopy(doc)
    for key in ("a00", "a0i", "ai0", "aii"):
        blocks = bad["blocks"][key]
        bad["blocks"][key] = ([[["0/1"] * len(row) for row in m] for m in blocks]
                              if key != "a00" else [["0/1"] * len(row) for row in blocks])
    assert checks.check_config(bad) == ["det(a) = 0"]


def test_plane_output_matches_oracle(plane):
    doc, report = plane
    assert len(checks.plane_oracle(doc)) == 3
    assert checks.check_report(doc, report) == []


def test_dropped_singular_point_is_rejected(plane):
    doc, report = plane
    bad = copy.deepcopy(report)
    bad["singular_points"].pop()
    problems = checks.check_report(doc, bad)
    assert any("differ from" in p for p in problems)
    assert any("total fibre jump 2" in p for p in problems)


def test_moved_singular_point_is_rejected(plane):
    doc, report = plane
    bad = copy.deepcopy(report)
    bad["singular_points"][0]["z"][0] = "1000/1"
    assert any("differ from" in p for p in checks.check_report(doc, bad))


def test_wrong_fibre_dimension_is_rejected(plane):
    doc, report = plane
    bad = copy.deepcopy(report)
    bad["fiber_spotchecks"][-1]["fiber_dim"] += 1
    assert any("fibre dimension" in p for p in checks.check_report(doc, bad))


def test_wrong_moduli_dimension_is_rejected(sampled):
    doc, report = sampled
    bad = copy.deepcopy(report)
    bad["tangent"]["empirical_moduli_dim"] += 1
    assert any("empirical moduli dimension" in p for p in checks.check_report(doc, bad))
    tangent = cli_json("tangent", "-r", "3", "-a", "1", "-k", "1", "--seed", "2", "--json")
    assert checks.check_tangent(3, [1], 1, tangent) == []
    tangent["empirical_moduli_dim"] -= 1
    assert checks.check_tangent(3, [1], 1, tangent) != []


def test_known_faults_still_fail(tmp_path):
    """F1 and F2 operations fail; when the program is mended this test says so."""
    for workload, fault in (("ladder", "F1"), ("moduli-sweep", "F2")):
        op = next(o for o in workloads.build(workload, 0, tmp_path) if o.fault == fault)
        [res] = run.run_round([op], CLI.main)
        assert run.outcome(res) == (True, False), res


def test_moduli_grid_and_fault_list():
    grid = workloads.moduli_grid()
    assert len(grid) == len(set(grid)) == 117
    assert workloads.F2_SETS <= set(grid) and len(workloads.F2_SETS) == 32
    assert workloads.SEED_DEPENDENT_SETS <= set(grid) - workloads.F2_SETS


def test_smoke_mode():
    assert run.main(["--smoke"]) == 0


def test_trace_counts_repeat_and_wrappers_are_removed(tmp_path):
    from adhm_blowup_kit import adhm, monad

    op = next(o for o in workloads.build("ladder", 1, tmp_path) if not o.fault)
    originals = (adhm.derive_bA, monad.derive_bA, CLI.main)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert monad.derive_bA is adhm.derive_bA is not originals[0]
            run.run_round([op], CLI.main)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(0, len(tracer))
        counts.append({m: v for m, v in metrics.items() if m.endswith(".calls")})
        assert metrics["adhm.derive_bA.calls"] > 0 and metrics["monad.scan_s"] > 0
    assert counts[0] == counts[1]
    assert (adhm.derive_bA, monad.derive_bA, CLI.main) == originals


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("monad.singular_scan"):
        with tracer.span("linalg.Matrix.rank"):
            sum(range(10000))
    m = tracer.metrics(0, len(tracer))
    assert 0 < m["monad.scan_self_s"] < m["monad.scan_s"]
    assert m["linalg.rank.calls"] == 1


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", Path(tmp_path))
    assert run.main(["--workload", "ladder", "--seconds", "1"]) == 2
