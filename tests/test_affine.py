"""The plane's affine group, and relabelling the centres, as oracles for the monad's verdicts.

An affine change of coordinates ``x -> M x + t`` moves the configuration
(:func:`util.affine_image`) and the sheaf with it, so every verdict must
follow: the compact residual scales by ``det M``, a drop point ``x`` of the
chart moves to ``M x + t`` and one ``w`` on ``E_i`` to ``M w``, and
completeness, a drop along a whole line, validity, the stabilizer and the
tangent dimensions stay.  The points where beta is not onto move the same
way.  None of this shares the scans' algebra.  It runs on grid samples, on
the pinned fixtures (one of which has two points where beta is not onto) and
on configurations with a planted drop of alpha, or of beta, on ``E_1``,
which samples almost never have.

Off the monad condition the chart operators need not commute, so the
chart's completeness, which reads the eigenvalues of each operator on its
own, is compared on monads only; its drop points and the lines' verdicts
move with the plane on any data.

Renumbering the centres (:func:`util.relabel`) moves nothing in the plane:
the residual, the chart's points and completeness and every verdict stay,
and the points of ``E_i``, or its whole-line drop, move to ``E_perm(i)``.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path
from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adhm_blowup_kit import config_io
from adhm_blowup_kit.adhm import constraint_residual, sample_config, tangent_dims
from adhm_blowup_kit.errors import NotInPError
from adhm_blowup_kit.linalg import Matrix
from adhm_blowup_kit.monad import _scan_chart, _scan_divisor, build_monad, validate_config
from test_adhm import GRID
from test_pencil import LINE_PLANTS, PLANT_SHAPES, _has_room, _plant_on_E1
from util import affine_image, plant_beta_drop, rand_config, relabel

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))


def _fixture(name: str):
    path = next(p for p in FIXTURES if p.name == name)
    return config_io.config_from_json(json.loads(path.read_text()))[0]


def _planted(kind: str, seed: int):
    """A random configuration with a drop of ``kind`` planted on ``E_1``."""
    rng = Random(seed)
    n = 2 if kind == "decoy" else 1 + seed % 2
    z = LINE_PLANTS[kind](3 if kind == "irrational" else (1 + seed % 3, 2 - seed % 5))
    shapes = [sh for sh in PLANT_SHAPES[n] if _has_room(sh, kind)]
    cfg = None
    while cfg is None:
        cfg = _plant_on_E1(rand_config(rng, *rng.choice(shapes)), rng, z, kind == "decoy")
    return cfg


def _planted_beta(seed: int):
    """A random configuration where beta drops on ``E_1``: at one point, or along it at (1,(0),1)."""
    rng = Random(seed)
    shape = ((1, (1,), 1), (1, (1, 0), 1), (1, (0,), 1), (1, (2,), 0))[seed % 4]
    cfg = None
    while cfg is None:
        cfg = plant_beta_drop(rand_config(rng, *shape), (1 + seed % 3, 2 - seed % 5))
    return cfg


SOURCES = {
    "grid": lambda i: sample_config(*GRID[i % len(GRID)], seed=0),
    "fixture": lambda i: _fixture(FIXTURES[i % len(FIXTURES)].name),
    "planted": lambda i: _planted(sorted(LINE_PLANTS)[i % len(LINE_PLANTS)], i),
    "planted beta": _planted_beta,
}

entries = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
invertible = st.lists(entries, min_size=4, max_size=4).map(
    lambda e: Matrix([e[:2], e[2:]])).filter(lambda m: m.det() != 0)


def _normal(pt) -> tuple:
    """A drop point as ``(None, x0, x1)`` in the chart or ``(i, w0 : w1)`` scaled to ``w0 = 1``."""
    c = pt.coords
    if not pt.is_exceptional:
        return None, c[0] / c[2], c[1] / c[2]
    return (pt.exceptional_index, Fraction(1), c[1] / c[0]) if c[0] else (
        pt.exceptional_index, Fraction(0), Fraction(1))


def _moved(key: tuple, m: Matrix, t) -> tuple:
    """The point ``_normal`` gave ``key`` after ``x -> M x + t``: ``w -> M w`` on a line."""
    i, y0, y1 = key
    (m00, m01), (m10, m11) = m.rows
    z0, z1 = m00 * y0 + m01 * y1, m10 * y0 + m11 * y1
    if i is None:
        return None, z0 + t[0], z1 + t[1]
    return (i, Fraction(1), z1 / z0) if z0 else (i, Fraction(0), Fraction(1))


def _scans(cfg):
    """Alpha's and beta's scans: the chart's drop points and completeness, and each line's.

    A line's is None for a drop along the whole line.
    """
    monad = build_monad(cfg)
    out = []
    for side in (monad.alpha_side, monad.beta_side):
        lines = []
        for i in range(1, cfg.n + 1):
            try:
                points, complete = _scan_divisor(monad, side, i)
                lines.append(({_normal(pt) for pt in points}, complete))
            except NotInPError:
                lines.append(None)
        points, complete = _scan_chart(monad, side)
        out.append(({_normal(pt) for pt in points}, complete, lines))
    return out


def _verdicts(cfg):
    rep = validate_config(cfg)
    tangent = None if rep.normalized is None else tangent_dims(rep.normalized)
    return rep.a_invertible, rep.monad_condition, rep.valid, rep.stabilizer_dim, tangent


@settings(derandomize=True, max_examples=80, deadline=None)
@given(source=st.sampled_from(sorted(SOURCES)), index=st.integers(0, 10 ** 6),
       m=invertible, t=st.tuples(entries, entries))
# the fixtures' drop points are (1 : 0) on E_1 and (1/2, 2/3) in the chart:
# move the first to (0 : 1) and the second to the origin, then elsewhere
@example(source="fixture", index=0, m=Matrix([[0, 1], [1, 0]]), t=(0, 0))
@example(source="fixture", index=1, m=Matrix.identity(2), t=(Fraction(-1, 2), Fraction(-2, 3)))
@example(source="fixture", index=1, m=Matrix([[2, 1], [1, 1]]), t=(1, -3))
@example(source="fixture", index=2, m=Matrix([[1, 3], [0, -2]]), t=(-3, 2))
@example(source="planted", index=0, m=Matrix([[1, -1], [2, 3]]), t=(2, 1))
@example(source="planted", index=1, m=Matrix([[3, 0], [1, 1]]), t=(0, 0))
@example(source="planted", index=2, m=Matrix([[-1, 2], [1, 1]]), t=(1, 1))
@example(source="planted", index=3, m=Matrix([[2, 1], [3, 2]]), t=(-1, 2))
# beta drops at (-2, -4) and (4, -2) in the chart of the third fixture, at
# (2 : 1) on E_1 of planted beta 1 and along E_1 of planted beta 2
@example(source="fixture", index=2, m=Matrix([[1, 3], [0, -2]]), t=(-3, 2))
@example(source="planted beta", index=1, m=Matrix([[1, -1], [2, 3]]), t=(2, 1))
@example(source="planted beta", index=2, m=Matrix([[3, 0], [1, 1]]), t=(0, 0))
def test_verdicts_follow_an_affine_change_of_coordinates(source, index, m, t):
    cfg = SOURCES[source](index)
    image = affine_image(cfg, m, t)
    residual = constraint_residual(cfg)
    assert constraint_residual(image) == residual.scale(m.det())
    for (chart, chart_complete, lines), (chart_image, chart_image_complete, lines_image) in zip(
            _scans(cfg), _scans(image)):
        assert {_moved(key, m, t) for key in chart} == chart_image
        if residual.is_zero():
            assert chart_complete == chart_image_complete
        assert lines_image == [line and ({_moved(key, m, t) for key in line[0]}, line[1])
                               for line in lines]
    assert _verdicts(image) == _verdicts(cfg)


def _relabelled(line, perm):
    """A line's scan from :func:`_scans` once its centre ``i`` is renumbered ``perm[i - 1] + 1``."""
    return line and ({(perm[i - 1] + 1, w0, w1) for i, w0, w1 in line[0]}, line[1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(source=st.sampled_from(sorted(SOURCES)), index=st.integers(0, 10 ** 6),
       turn=st.integers(0, 10 ** 6))
# the first fixture drops at (1 : 0) on E_1; planted index 1 has an
# irrational pair on E_1, index 3 a drop along E_1, and index 4 a decoy
# there that the K_2 rows rule out; beta drops on E_1 of planted beta 1,
# which has two centres
@example(source="fixture", index=0, turn=1)
@example(source="planted", index=1, turn=1)
@example(source="planted", index=3, turn=1)
@example(source="planted", index=4, turn=1)
@example(source="planted beta", index=1, turn=1)
def test_verdicts_follow_a_relabelling_of_the_centres(source, index, turn):
    cfg = SOURCES[source](index)
    perms = list(itertools.permutations(range(cfg.n)))
    perm = perms[turn % len(perms)]
    image = relabel(cfg, perm)
    assert constraint_residual(image) == constraint_residual(cfg)
    for (chart, chart_complete, lines), (chart_image, chart_image_complete, lines_image) in zip(
            _scans(cfg), _scans(image)):
        assert (chart_image, chart_image_complete) == (chart, chart_complete)
        assert [lines_image[j] for j in perm] == [_relabelled(line, perm) for line in lines]
    assert _verdicts(image) == _verdicts(cfg)
