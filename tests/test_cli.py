import argparse
import dataclasses
import json
from importlib import resources
from pathlib import Path

import pytest

from adhm_blowup_kit import adhm, config_io, monad
from adhm_blowup_kit.linalg import Matrix
from adhm_blowup_kit.cli import build_parser, main
from util import run_fresh


#: A fixture on which beta is not onto at two rational points.
FIXTURE_BETA = Path(__file__).parent / "fixtures" / "r1_k2_seed0.json"


def _data_path(name: str) -> str:
    return str(resources.files("adhm_blowup_kit") / "data" / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_line_bundle(capsys):
    code, out, _ = run_cli(capsys, "validate", _data_path("line_bundle.json"),
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["singular_points"] == []


def test_validate_hilbert(capsys):
    code, out, _ = run_cli(capsys, "validate", _data_path("hilbert_k2.json"),
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert len(doc["singular_points"]) == 2
    assert doc["scan_complete"] is True


def test_validate_perturbed_d_fails(capsys, tmp_path):
    doc = json.loads(Path(_data_path("hilbert_k2.json")).read_text())
    doc["blocks"]["c"] = [["1/1", "1/1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(bad), "--json")
    assert code == 2
    rep = json.loads(out)
    assert rep["raw_residual_zero"] is False


def test_validate_unknown_field_is_usage_error(capsys, tmp_path):
    doc = json.loads(Path(_data_path("hilbert_k2.json")).read_text())
    doc["surprise"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "unknown fields" in err


def test_validate_bad_shape_is_usage_error(capsys, tmp_path):
    doc = json.loads(Path(_data_path("hilbert_k2.json")).read_text())
    doc["blocks"]["c"] = [["1/1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1


def test_validate_non_utf8_file_is_format_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"r": "\xff"}')
    code, _out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("error: ") and "utf-8" in err


def test_validate_json_integer_past_digit_limit_is_format_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"r": ' + "1" * 5000 + "}")
    code, _out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("error: ") and "digits" in err


def test_validate_rational_past_digit_limit_is_format_error(capsys, tmp_path):
    doc = json.loads(Path(_data_path("hilbert_k2.json")).read_text())
    doc["blocks"]["c"] = [["1" * 5000, "1/1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("error: bad rational") and "digits" in err


def test_dims_command(capsys):
    code, out, _ = run_cli(capsys, "dims", "-r", "1", "-a", "-1", "-k", "0")
    assert code == 0
    assert "K = (0, 1)" in out
    assert "L = (1, 0)" in out
    assert "rank W = 3" in out
    code, _, err = run_cli(capsys, "dims", "-r", "1", "-a", "2", "-k", "-2")
    assert code == 2


def test_chi_command(capsys):
    code, out, _ = run_cli(capsys, "chi", "-p", "0", "-q")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "chi", "-p", "-3", "-q", "2,1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "chi", "-p", "-1", "-q", "", "-r", "2",
                           "-a", "", "-k", "3")
    assert code == 0 and out.strip() == "-3"


def test_chi_with_a_and_q_of_different_lengths_is_a_format_error(capsys):
    code, out, err = run_cli(capsys, "chi", "-p", "1", "-q", "1,2", "-r", "1", "-a", "0",
                             "-k", "0")
    assert code == 1 and out == ""
    assert err == "error: -a and -q must have the same length\n"


def test_sample_deterministic_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "sample", "-r", "1", "-a", "", "-k", "2",
                             "--seed", "7")
    code2, out2, _ = run_cli(capsys, "sample", "-r", "1", "-a", "", "-k", "2",
                             "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    cfg, seed = config_io.config_from_json(json.loads(out1))
    assert seed == 7


def test_sample_failure_exit_code(capsys, monkeypatch):
    # no stabilizer certified zero: each draw is rejected, and the message
    # counts the rejections by reason
    monkeypatch.setattr(adhm, "_stabilizer_uncertified", lambda cfg: 1)
    code, out, err = run_cli(capsys, "sample", "-r", "1", "-a", "-1", "-k", "2",
                             "--seed", "0")
    assert code == 3 and out == ""
    assert err.startswith("sampling failed: ")
    assert err.endswith("singular a: 0, system not of full rank: 0, positive stabilizer: 60\n")


def test_sample_then_validate(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    code, _, _ = run_cli(capsys, "sample", "-r", "2", "-a", "1", "-k", "1",
                         "--seed", "5", "-o", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "validate", str(path), "--json")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_scan_command(capsys):
    code, out, _ = run_cli(capsys, "scan", _data_path("hilbert_k2.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["finite_rank_drop"] is True
    assert [p["z"] for p in doc["singular_points"]] == [
        ["0/1", "0/1", "1/1"], ["1/1", "1/1", "1/1"]]


def test_tangent_command(capsys):
    code, out, _ = run_cli(capsys, "tangent", "-r", "2", "-a", "", "-k", "1",
                           "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["empirical_moduli_dim"] == 4
    assert doc["abstract_formula"] == 4
    assert doc["section3_formula"] == 2
    assert doc["formulas_disagree"] is True
    assert doc["verdict"] == "matches_abstract"


def test_tangent_on_file(capsys):
    code, out, _ = run_cli(capsys, "tangent", _data_path("hilbert_k2.json"),
                           "--json")
    assert code == 0
    assert json.loads(out)["empirical_moduli_dim"] == 4


def test_orbit_command(capsys, tmp_path):
    cfg = adhm.sample_config(2, [1], 1, seed=5)
    from util import rand_group_element
    from random import Random
    el = rand_group_element(Random(3), cfg.dims)
    moved = adhm.act(el, cfg)
    p1, p2, pw = (tmp_path / n for n in ("c1.json", "c2.json", "w.json"))
    p1.write_text(config_io.dump_canonical(config_io.config_to_json(cfg)))
    p2.write_text(config_io.dump_canonical(config_io.config_to_json(moved)))
    pw.write_text(config_io.dump_canonical(config_io.group_element_to_json(el)))
    code, out, _ = run_cli(capsys, "orbit", "--witness", str(pw), str(p1), str(p2))
    assert code == 0 and "equivalent: True" in out
    # wrong witness: identity does not map cfg to moved
    ident = adhm.GroupElement.identity(cfg.dims)
    pw.write_text(config_io.dump_canonical(config_io.group_element_to_json(ident)))
    code, out, _ = run_cli(capsys, "orbit", "--witness", str(pw), str(p1), str(p2))
    assert code == 2 and "equivalent: False" in out
    code, out, _ = run_cli(capsys, "orbit", "--witness", str(pw), str(p1), str(p1))
    assert code == 0 and "equivalent: True" in out


def test_orbit_of_different_parameters_is_a_format_error(capsys, tmp_path):
    cfg1, cfg2 = adhm.sample_config(2, [1], 1, seed=5), adhm.sample_config(1, [], 1, seed=0)
    p1, p2, pw = (tmp_path / n for n in ("c1.json", "c2.json", "w.json"))
    p1.write_text(config_io.dump_canonical(config_io.config_to_json(cfg1)))
    p2.write_text(config_io.dump_canonical(config_io.config_to_json(cfg2)))
    pw.write_text(config_io.dump_canonical(
        config_io.group_element_to_json(adhm.GroupElement.identity(cfg1.dims))))
    code, out, err = run_cli(capsys, "orbit", "--witness", str(pw), str(p1), str(p2))
    assert code == 1 and out == ""
    assert err == "error: configurations have different parameters\n"


@pytest.mark.parametrize("schema", [99, "x"])
def test_orbit_rejects_an_unsupported_witness_schema(capsys, tmp_path, schema):
    cfg = adhm.sample_config(2, [1], 1, seed=5)
    p1, pw = tmp_path / "c1.json", tmp_path / "w.json"
    p1.write_text(config_io.dump_canonical(config_io.config_to_json(cfg)))
    witness = config_io.group_element_to_json(adhm.GroupElement.identity(cfg.dims))
    pw.write_text(json.dumps({**witness, "schema": schema}))
    code, out, err = run_cli(capsys, "orbit", "--witness", str(pw), str(p1), str(p1))
    assert code == 1 and out == ""
    assert err == f"error: unsupported schema {schema!r}\n"


def test_report_command(capsys):
    code, out, _ = run_cli(capsys, "report", _data_path("hilbert_k2.json"),
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    # r = 1: both closed forms coincide at 2k = 4
    assert doc["tangent"]["empirical_moduli_dim"] == 4
    assert doc["tangent"]["verdict"] == "matches_both"


def test_validate_singular_a_exit_code(capsys, tmp_path):
    doc = json.loads(Path(_data_path("hilbert_k2.json")).read_text())
    doc["blocks"]["a00"] = [["0/1", "0/1"], ["0/1", "0/1"]]
    bad = tmp_path / "sing.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(bad), "--json")
    assert code == 2
    rep = json.loads(out)
    assert rep["det_a_nonzero"] is False
    assert rep["raw_residual_zero"] is None


def test_tangent_rejects_invalid_file(capsys, tmp_path):
    doc = json.loads(Path(_data_path("hilbert_k2.json")).read_text())
    doc["blocks"]["c"] = [["1/1", "1/1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _out, err = run_cli(capsys, "tangent", str(bad))
    assert code == 2
    assert "monad condition" in err


@pytest.mark.parametrize("source, block, value, message", [
    (str(Path(__file__).parent / "golden" / "configs" / "r2_a1_k1.json"), "d",
     [["1/1", "25/24"]], "configuration does not satisfy the monad condition"),
    (_data_path("hilbert_k2.json"), "a00",
     [["0/1", "0/1"], ["0/1", "0/1"]], "assembled matrix a is singular"),
], ids=["edited d", "singular a"])
def test_scan_refuses_a_non_monad(capsys, tmp_path, source, block, value, message):
    # the scan certifies completeness only on a monad, as tangent PATH checks
    doc = json.loads(Path(source).read_text())
    doc["blocks"][block] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "scan", str(bad), "--json")
    assert code == 2 and out == ""
    assert err == f"invalid: {message}\n"


OPTIONS = {
    "scan": {"path", "--json"},
    "validate": {"path", "--json"},
    "report": {"path", "--json"},
    "sample": {"-r", "-a", "-k", "--seed", "-o", "--output"},
    "tangent": {"path", "-r", "-a", "-k", "--seed", "--json"},
}


@pytest.mark.parametrize("command", OPTIONS)
def test_config_commands_take_only_seed_and_json(command):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    offered = {opt for action in subparsers.choices[command]._actions
               for opt in action.option_strings or [action.dest]}
    assert offered == OPTIONS[command] | {"-h", "--help"}


def test_tangent_without_k_is_a_format_error(capsys):
    code, out, err = run_cli(capsys, "tangent", "-r", "2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "-r and -k" in err


@pytest.mark.parametrize("command", ("tangent", "sample", "dims",
                                     "validate", "scan", "report", "orbit", "tangent PATH"))
def test_infeasible_parameters_exit_2(capsys, tmp_path, command):
    if command in ("tangent", "sample", "dims"):
        argv = [command, "-r", "0", "-k", "1"]
    else:
        # a file whose parameters are infeasible: the same exit as -r 0
        doc = json.loads(Path(_data_path("hilbert_k2.json")).read_text())
        doc["params"]["r"] = 0
        path = tmp_path / "r0.json"
        path.write_text(json.dumps(doc))
        argv = {"orbit": ["orbit", "--witness", str(path), str(path), str(path)],
                "tangent PATH": ["tangent", str(path)]}.get(command, [command, str(path)])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("infeasible:") and "rank must be >= 1" in err


def test_scan_block_in_config_is_rejected(capsys, tmp_path):
    doc = json.loads(Path(_data_path("hilbert_k2.json")).read_text())
    doc["scan"] = {}
    bad = tmp_path / "scan_block.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "scan", str(bad), "--json")
    assert code == 1 and out == ""
    assert "unknown fields ['scan']" in err


@pytest.mark.parametrize("path, value, message", [
    (("params", "r"), True, "params.r and params.k must be integers"),
    (("seed",), True, "seed must be an integer"),
    (("blocks", "a00", 0, 0), "1.0", "expected a rational"),
    (("blocks", "a00", 0, 0), "1e0", "expected a rational"),
    (("blocks", "a00", 0, 0), True, "expected a rational"),
    (("blocks", "a00", 0, 0), "1/0", "zero denominator"),
])
def test_config_rejects_loose_numbers(capsys, tmp_path, path, value, message):
    doc = json.loads(Path(_data_path("hilbert_k2.json")).read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "loose.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(bad), "--json")
    assert code == 1 and out == ""
    assert message in err


def test_reports_are_byte_stable(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "validate", _data_path("hilbert_k2.json"), "--json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize("command", ("validate", "report"))
def test_reports_do_not_depend_on_the_file_seed(capsys, tmp_path, command):
    # nothing in validate_config is drawn at random: the seed a file records
    # changes no byte, on a valid input and on one where beta is not onto
    for source, code in ((_data_path("hilbert_k2.json"), 0), (FIXTURE_BETA, 2)):
        doc = json.loads(Path(source).read_text())
        outs = set()
        for seed in (None, 0, 47):
            doc.pop("seed", None)
            if seed is not None:
                doc["seed"] = seed
            path = tmp_path / "seeded.json"
            path.write_text(json.dumps(doc))
            got, out, _ = run_cli(capsys, command, str(path), "--json")
            assert got == code
            outs.add(out)
        assert len(outs) == 1, source


@pytest.mark.parametrize("argv", [
    ["validate", "cfg.json", "--seed", "3"], ["report", "cfg.json", "--seed", "3"],
    ["tangent", "--no-such-flag"], ["dims", "-r", "x", "-k", "1"], [],
], ids=["validate --seed", "report --seed", "unknown flag", "bad integer", "no command"])
def test_usage_errors_exit_1(capsys, argv):
    # exit 2 means mathematically invalid, so a usage error must not give it
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "error:" in err


def test_help_exits_0(capsys):
    code, out, err = run_cli(capsys, "validate", "--help")
    assert code == 0 and out.startswith("usage:") and err == ""


def test_main_reuses_one_parser(capsys, monkeypatch):
    # one parser serves every call: an argparse error leaves it usable, and
    # no ArgumentParser (nor subcommand parser) is built per call
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    tangent = ("tangent", "-r", "2", "-a", "", "-k", "1", "--seed", "3", "--json")
    code, out, _ = run_cli(capsys, "dims", "-r", "1", "-a", "-1", "-k", "0")
    assert code == 0 and "rank W = 3" in out
    first = run_cli(capsys, *tangent)
    assert first[0] == 0
    assert main(["tangent", "--no-such-flag"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run_cli(capsys, *tangent) == first
    assert built == []


def test_report_gauge_fixes_once(capsys, monkeypatch, tmp_path):
    # validate_config gauge-fixes a non-normalised input for the stabilizer,
    # and report's tangent reads that configuration instead of fixing again
    base = adhm.sample_config(2, [1], 1, seed=21)
    blk = Matrix([[2, 1], [1, 1]])
    pre = base.replace(ai0=(blk,), aii=(blk * base.aii[0],))
    path = tmp_path / "pre.json"
    path.write_text(config_io.dump_canonical(config_io.config_to_json(pre, seed=0)))
    fixed = []
    real = adhm.gauge_fix

    def counted(cfg):
        fixed.append(cfg)
        return real(cfg)

    monkeypatch.setattr(adhm, "gauge_fix", counted)
    monkeypatch.setattr(monad, "gauge_fix", counted)
    code, out, _ = run_cli(capsys, "report", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["normalizable"] is True and "tangent" in doc
    assert fixed == [pre]


def _orbit_files(tmp_path, case):
    base = adhm.sample_config(2, [1], 1, seed=5)
    witness = adhm.GroupElement.identity(base.dims)
    if case == "singular witness":
        witness = dataclasses.replace(witness, g00=Matrix.zeros(*witness.g00.shape))
    else:  # a valid file that is not in normal form: ai0 is not the identity
        blk = Matrix([[2, 1], [1, 1]])
        base = base.replace(ai0=(blk,), aii=(blk * base.aii[0],))
    cfg, pw = tmp_path / "c.json", tmp_path / "w.json"
    cfg.write_text(config_io.dump_canonical(config_io.config_to_json(base)))
    pw.write_text(config_io.dump_canonical(config_io.group_element_to_json(witness)))
    return ["orbit", "--witness", str(pw), str(cfg), str(cfg)]


BAD_INPUTS = {  # case: (exit code, start of stderr)
    "negative rank": (2, "infeasible:"),
    "unknown flag": (1, "usage:"),
    "unwritable output": (1, "error:"),
    "singular witness": (1, "error:"),
    "witness on data not in normal form": (1, "error:"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_gives_a_message_not_a_traceback(tmp_path, case):
    if case == "negative rank":
        argv = ["chi", "-p", "1", "-q", "1", "-r", "-1", "-a", "0", "-k", "0"]
    elif case == "unknown flag":
        argv = ["validate", _data_path("hilbert_k2.json"), "--seed", "3"]
    elif case == "unwritable output":
        argv = ["sample", "-r", "1", "-k", "1", "-o", str(tmp_path / "missing" / "x.json")]
    else:
        argv = _orbit_files(tmp_path, case)
    run = run_fresh("-m", "adhm_blowup_kit.cli", *argv)
    code, prefix = BAD_INPUTS[case]
    assert run.returncode == code and run.stdout == ""
    assert run.stderr.startswith(prefix) and "Traceback" not in run.stderr


COMMANDS = ("validate", "dims", "chi", "sample", "scan", "tangent", "orbit", "report")


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help_is_the_full_parsers(capsys, command):
    # main hands the arguments after the command to that command's parser;
    # its help is the one the full parser prints for the same command
    code, out, err = run_cli(capsys, command, "--help")
    assert code == 0 and err == ""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv, prefix", [
    ([], "usage: adhm-blowup-kit [-h]"),
    (["nope"], "usage: adhm-blowup-kit [-h]"),
    (["dims", "-k", "1"], "usage: adhm-blowup-kit dims "),
    (["validate", "x", "--seed", "3"], "usage: adhm-blowup-kit validate "),
], ids=["no command", "unknown command", "missing required flag", "unknown flag"])
def test_dispatch_usage_errors(capsys, argv, prefix):
    # an unknown flag prints the usage line of its subcommand's parser
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(prefix) and "error:" in err


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["adhm-blowup-kit", "dims", "-r", "1", "-k", "0"])
    assert main() == 0
    assert "rank W" in capsys.readouterr().out
