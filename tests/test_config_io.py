"""Property tests of the JSON parser: exact round trips, and malformed input.

Every emitted configuration and group element parses back to itself.  A
fuzzer breaks a golden configuration or witness in one place (a dropped or
renamed key, a value of the wrong type, a bool for an int, a ragged list or
a bad rational) and checks that each command that reads the file exits 1 or
2 with a message instead of raising.  The integer-row parser and emitter
and the canonical emitter are checked against the routes they replaced:
``Fraction`` per entry and ``json.dumps(..., sort_keys=True, indent=2)``.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhm_blowup_kit import config_io
from adhm_blowup_kit.adhm import GroupElement, sample_config
from adhm_blowup_kit.cli import main
from adhm_blowup_kit.errors import ConfigFormatError
from adhm_blowup_kit.lattice import monad_dims
from adhm_blowup_kit.linalg import Matrix
from test_adhm import GRID
from util import rand_group_element

GOLDEN_CONFIG = Path(__file__).parent / "golden" / "configs" / "r2_a1_k1.json"
CONFIG_DOC = json.loads(GOLDEN_CONFIG.read_text(encoding="utf-8"))
WITNESS_DOC = config_io.group_element_to_json(
    GroupElement.identity(config_io.config_from_json(CONFIG_DOC)[0].dims))
#: Top-level keys a document may leave out.
OPTIONAL = {"schema", "seed"}
BAD_RATIONALS = ["1/0", "1.0", "1e3", "", "1/-2", " 1", "0x1", "1//2", "one"]
WRONG_TYPES = [1.5, "x", {}, None]


@functools.lru_cache(maxsize=None)
def _grid_sample(i: int):
    r, a, k = GRID[i]
    return sample_config(r, a, k, seed=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(GRID) - 1), st.one_of(st.none(), st.integers(-2**70, 2**70)))
def test_config_round_trip(i, seed):
    cfg = _grid_sample(i)
    doc = config_io.config_to_json(cfg, seed)
    text = config_io.dump_canonical(doc)
    assert config_io.config_from_json(json.loads(text)) == (cfg, seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(GRID) - 1), st.integers(0, 2**32))
def test_group_element_round_trip(i, seed):
    dims = monad_dims(*GRID[i])
    el = rand_group_element(Random(seed), dims)
    text = config_io.dump_canonical(config_io.group_element_to_json(el))
    assert config_io.group_element_from_json(json.loads(text), dims) == el


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("-4/6", Fraction(-2, 3)), ("007/14", Fraction(1, 2)), ("-0/5", Fraction(0)),
    (7, Fraction(7)),
])
def test_rationals_parse_exactly(text, value):
    assert config_io.frac_from_str(text) == value


@pytest.mark.parametrize("text, message", [
    ("1/0", "bad rational '1/0': zero denominator"),
    ("-12/000", "bad rational '-12/000': zero denominator"),
    ("1" * 5000, "bad rational '11111111111111111111'...: Exceeds the limit (4300 digits) for "
     "integer string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to "
     "increase the limit"),
    ("1/" + "2" * 5000, "bad rational '1/222222222222222222'...: Exceeds the limit (4300 "
     "digits) for integer string conversion: value has 5000 digits; use "
     "sys.set_int_max_str_digits() to increase the limit"),
])
def test_bad_rational_messages(text, message):
    with pytest.raises(ConfigFormatError) as info:
        config_io.frac_from_str(text)
    assert str(info.value) == message


def _places(doc, path=()):
    """Every ``(path, value)`` below ``doc``, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _places(value, path + (key,))


def _mutations(doc) -> list:
    """Each a ``(description, path, op, argument)`` that makes ``doc`` malformed."""
    out = []
    for path, value in _places(doc):
        if isinstance(_at(doc, path[:-1]), dict):
            if path not in {(k,) for k in OPTIONAL}:
                out.append(("drop", path, "drop", None))
            out.append(("rename", path, "rename", None))
        if isinstance(value, list):
            # every list has an exact length: one more entry is always wrong
            out.append(("ragged", path, "append", "0/1"))
        for wrong in WRONG_TYPES:
            if wrong is None and path == ("seed",):
                continue  # "seed": null means no seed
            if type(wrong) is not type(value):
                out.append(("wrong type", path, "set", wrong))
        if isinstance(value, int):
            out.append(("bool for int", path, "set", True))
        if isinstance(value, str):  # the only strings are rationals
            out.append(("bool for rational", path, "set", False))
            out += [("bad rational", path, "set", bad) for bad in BAD_RATIONALS]
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _apply(doc, mutation):
    _, path, op, arg = mutation
    doc = copy.deepcopy(doc)
    parent, key = _at(doc, path[:-1]), path[-1]
    if op == "drop":
        del parent[key]
    elif op == "rename":
        parent[key + "_x"] = parent.pop(key)
    elif op == "append":
        parent[key].append(arg)
    else:
        parent[key] = arg
    return doc


CONFIG_MUTATIONS = _mutations(CONFIG_DOC)
WITNESS_MUTATIONS = _mutations(WITNESS_DOC)


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


def _check_rejected(argv: list[str], mutation) -> None:
    code, message = _run(argv)
    assert code in (1, 2), (mutation, code)
    assert message.strip(), mutation


def test_mutations_cover_every_kind():
    kinds = {"drop", "rename", "ragged", "wrong type", "bool for int", "bool for rational",
             "bad rational"}
    assert {m[0] for m in CONFIG_MUTATIONS} == kinds
    assert {m[0] for m in WITNESS_MUTATIONS} == kinds


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONFIG_MUTATIONS))
def test_malformed_config_gives_a_message(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        bad, witness = Path(tmp) / "bad.json", Path(tmp) / "w.json"
        bad.write_text(json.dumps(_apply(CONFIG_DOC, mutation)), encoding="utf-8")
        witness.write_text(json.dumps(WITNESS_DOC), encoding="utf-8")
        for command in ("validate", "scan", "tangent", "report"):
            _check_rejected([command, str(bad)], mutation)
        _check_rejected(["orbit", "--witness", str(witness), str(bad), str(bad)], mutation)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(WITNESS_MUTATIONS))
def test_malformed_witness_gives_a_message(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        witness = Path(tmp) / "w.json"
        witness.write_text(json.dumps(_apply(WITNESS_DOC, mutation)), encoding="utf-8")
        _check_rejected(["orbit", "--witness", str(witness), str(GOLDEN_CONFIG),
                         str(GOLDEN_CONFIG)], mutation)


# -- the integer-row parser and the canonical emitter against the json and Fraction routes --

def _old_frac_from_str(s):
    """The parser's earlier route: one ``Fraction`` per entry."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", s) if isinstance(s, str) else None
    if match:
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den or 1))
        except ZeroDivisionError:
            raise ConfigFormatError(f"bad rational {s!r}: zero denominator") from None
        except ValueError as exc:
            raise ConfigFormatError(f"bad rational {s[:20]!r}...: {exc}") from None
    raise ConfigFormatError(f"expected a rational \"num/den\", got {s!r}")


JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**80, 2**80) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_dump_canonical_is_json_dumps(doc):
    assert config_io.dump_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {}, [], {"": {}, "a": [[], {}]}, 'q"b\\s\x00\x1f\n\té \U0001f600', 2**64 + 1, -2**70,
    [True, False, None], {"b": 1, "a": [1, "x"], "c": {"z": None, "y": [[]]}},
])
def test_dump_canonical_edge_cases(doc):
    assert config_io.dump_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


ENTRIES = st.one_of(
    st.integers(-2**300, 2**300),
    st.integers(-2**300, 2**300).map(str),
    st.tuples(st.integers(-2**300, 2**300), st.integers(1, 2**300)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(st.integers(-50, 50), st.integers(1, 60)).map(lambda t: f"{t[0]}/{t[1]}"),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_matrix_json_matches_the_fraction_route(m, n, data):
    doc = [[data.draw(ENTRIES) for _ in range(n)] for _ in range(m)]
    got = config_io.matrix_from_json(doc, m, n, "x")
    want = Matrix([[_old_frac_from_str(x) for x in row] for row in doc], ncols=n)
    assert got == want and got.shape == (m, n)
    assert config_io.matrix_to_json(got) == [
        [f"{x.numerator}/{x.denominator}" for x in row] for row in want.rows]


@pytest.mark.parametrize("bad", [
    "1/0", "+1", " 1", "1/-2", "1_0", "٣", "1/٣", 1.5, True, False, None, "1" * 5000,
    "1/" + "2" * 5000, "-12/000", "1.0", "", "1//2",
])
def test_bad_rationals_fail_as_before(bad):
    with pytest.raises(ConfigFormatError) as want:
        _old_frac_from_str(bad)
    for parse in (config_io.frac_from_str,
                  lambda x: config_io.matrix_from_json([[0, x]], 1, 2, "m")):
        with pytest.raises(ConfigFormatError) as got:
            parse(bad)
        assert str(got.value) == str(want.value)


def test_every_grid_sample_round_trips():
    for i in range(len(GRID)):
        cfg = _grid_sample(i)
        assert config_io.config_from_json(config_io.config_to_json(cfg)) == (cfg, None)
