"""The package runs on the standard library alone: nothing in it imports sympy.

No file under ``src/`` imports sympy, so a fresh interpreter that imports
every module of the package, runs every command of the CLI and computes with
sections (exact dict polynomials) never loads it.  sympy is a test
dependency: the tests' independent references use it.
"""

import ast
import json
from pathlib import Path

import adhm_blowup_kit
from adhm_blowup_kit import adhm, config_io
from util import run_fresh

CONFIG = Path(__file__).parent / "golden" / "configs" / "r2_a1_k1.json"
PACKAGE = Path(adhm_blowup_kit.__file__).parent
SRC = PACKAGE.parent

CHILD = """
import contextlib, io, json, sys

import adhm_blowup_kit
seen = [["import adhm_blowup_kit", 0, "sympy" in sys.modules]]
from adhm_blowup_kit import cli
seen.append(["import adhm_blowup_kit.cli", 0, "sympy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([" ".join(argv), code, "sympy" in sys.modules])
print(json.dumps(seen))
"""

SECTIONS_CHILD = """
import importlib, json, sys
from fractions import Fraction

for name in json.loads(sys.argv[1]):
    importlib.import_module(name)
from adhm_blowup_kit.sections import BlowupPoints, lambda_section, w_section, z_section

ctx = BlowupPoints([(Fraction(1, 2), 3), (-1, 0)])
s = (w_section(ctx, 1, 0) * z_section(ctx, 2) + w_section(ctx, 1, 1) * z_section(ctx, 0)
     ).scale(Fraction(2, 3)) * lambda_section(ctx, 2)
values = [str(s.eval_generic((3, 4, 5))), str(s.eval_exceptional(1, (7, 9))),
          str((s - s).eval_exceptional(2, (1, 1)))]
print(json.dumps([values, sorted(m for m in sys.modules if m.split(".")[0] == "sympy")]))
"""


def test_no_source_file_imports_sympy():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno}" for name in names
                      if name.split(".")[0] == "sympy"]
    assert found == []


def test_modules_and_sections_do_not_import_sympy():
    modules = sorted(f"adhm_blowup_kit.{p.stem}" for p in PACKAGE.glob("*.py")
                     if p.stem != "__init__")
    assert "adhm_blowup_kit.sections" in modules
    run = run_fresh("-c", SECTIONS_CHILD, json.dumps(modules))
    assert run.returncode == 0, run.stderr
    values, loaded = json.loads(run.stdout.splitlines()[-1])
    # s = 2/3 (z0 z1 - 2 z0 z2 - z2^2 / 2) at (3, 4, 5); on E_1 its lambda^1
    # coefficient 2/3 (w0 + w1 / 2) at (7, 9); s - s on E_2
    assert values == ["-61/3", "23/3", "0"]
    assert loaded == []


def test_no_command_imports_sympy(tmp_path):
    cfg, _seed = config_io.config_from_json(json.loads(CONFIG.read_text()))
    witness = tmp_path / "w.json"
    witness.write_text(config_io.dump_canonical(
        config_io.group_element_to_json(adhm.GroupElement.identity(cfg.dims))))
    steps = [["dims", "-r", "2", "-a", "1", "-k", "1"],
             ["chi", "-p", "1", "-q", "1"],
             ["sample", "-r", "2", "-a", "1", "-k", "1"],
             ["tangent", "-r", "2", "-a", "1", "-k", "1"],
             ["orbit", "--witness", str(witness), str(CONFIG), str(CONFIG)],
             ["scan", str(CONFIG)],
             ["validate", str(CONFIG)],
             ["report", str(CONFIG)]]
    run = run_fresh("-c", CHILD, json.dumps(steps))
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert [code for _, code, _ in seen] == [0] * len(seen), seen
    assert [step for step, _, loaded in seen if loaded] == [], seen
