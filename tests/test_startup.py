"""No command of the CLI imports sympy.

sympy is imported only by ``sections._ring``, on the first use of a
``SectionPoly``, and no command builds one: the singular scan reads its
eigenvalues from integer characteristic polynomials
(``linalg.rational_eigenvalues``).  So a fresh interpreter that imports the
package and runs every command never loads it.
"""

import json
from pathlib import Path

from adhm_blowup_kit import adhm, config_io
from util import run_fresh

CONFIG = Path(__file__).parent / "golden" / "configs" / "r2_a1_k1.json"

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
