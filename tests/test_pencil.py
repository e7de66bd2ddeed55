"""The monad's integer pencils against the section references, on random data.

The data are random configurations with ``sum(dim K) <= 5`` and ``n <= 2``,
invertible ``a`` and no further constraint, so they are mostly not monads.
Some are pushed towards chart drop points: ``c = 0`` (the whole space is
unobservable), upper triangular ``aA00`` (a common eigenvector) or
``aA00[0] = aA00[1]`` (many, often irrational).  The rest are sampled monads.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhm_blowup_kit.adhm import sample_config
from adhm_blowup_kit.errors import AmbiguousPointError, InfeasibleParametersError
from adhm_blowup_kit.lattice import monad_dims
from adhm_blowup_kit.linalg import Matrix
from adhm_blowup_kit.monad import (
    SurfacePoint,
    _scan_chart,
    build_monad,
    check_monad_condition,
    composite_is_zero,
)
from util import (
    rand_config,
    reference_scan_chart,
    section_coefficients,
    section_composite,
    section_maps,
)


def _shapes():
    for r in (1, 2, 3):
        for n in range(3):
            for a_vec in product((-1, 0, 1), repeat=n):
                for k in range(3):
                    try:
                        dims = monad_dims(r, a_vec, k)
                    except InfeasibleParametersError:
                        continue
                    if 1 <= dims.total_k <= 5:
                        yield r, a_vec, k


SHAPES = list(_shapes())
MODES = ("random", "c = 0", "triangular", "equal pair", "sampled")
#: Shapes that ``sample_config`` samples at seeds 0, 1 and 2.
SAMPLED = [(1, (), 2), (1, (-1,), 1), (1, (0,), 1), (2, (1,), 1), (2, (1, 0), 1),
           (3, (0, 0), 1), (1, (1, 1), 0), (2, (-1,), 2)]


def _upper(m: Matrix) -> Matrix:
    return Matrix([[x if j >= i else 0 for j, x in enumerate(row)]
                   for i, row in enumerate(m.rows)], ncols=m.ncols)


@st.composite
def configs(draw):
    mode = draw(st.sampled_from(MODES))
    if mode == "sampled":
        return sample_config(*draw(st.sampled_from(SAMPLED)), seed=draw(st.integers(0, 2)))
    r, a_vec, k = draw(st.sampled_from(SHAPES))
    rng = Random(draw(st.integers(0, 2 ** 32 - 1)))
    cfg = rand_config(rng, r, a_vec, k, with_cai=draw(st.booleans()),
                      normalized=draw(st.booleans()))
    if mode != "random":
        cfg = cfg.replace(c=Matrix.zeros(*cfg.c.shape))
    if mode == "triangular":
        cfg = cfg.replace(aA00=(_upper(cfg.aA00[0]), _upper(cfg.aA00[1])))
    elif mode == "equal pair":
        cfg = cfg.replace(aA00=(cfg.aA00[0], cfg.aA00[0]))
    return cfg


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cfg=configs(), z=st.tuples(fractions, fractions, fractions),
       w=st.tuples(fractions, fractions))
def test_pencil_values_match_sections(cfg, z, w):
    m = build_monad(cfg)
    alpha, beta = section_maps(cfg)
    plane = [SurfacePoint.generic(*z), SurfacePoint.generic(z[0], z[1], 0)] \
        if any(z[:2]) else [SurfacePoint.generic(0, 0, 1)]
    lines = [SurfacePoint.exceptional(i, *w) for i in range(1, cfg.n + 1) if any(w)]
    for pt in plane + lines:
        for maps, at, pencil in ((alpha, m.alpha_at, m.alpha), (beta, m.beta_at, m.beta)):
            try:
                if pt.is_exceptional:
                    want = [[e.eval_exceptional(pt.exceptional_index, pt.coords) for e in row]
                            for row in maps]
                else:
                    want = [[e.eval_generic(pt.coords) for e in row] for row in maps]
            except AmbiguousPointError:
                with pytest.raises(AmbiguousPointError):
                    at(pt)  # a blow-up centre, refused by both
                continue
            got = at(pt)
            assert got == Matrix(want, ncols=got.ncols)
            assert pencil.rank_at(pt, m.ctx) == got.rank()


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cfg=configs())
def test_pencil_monad_condition_matches_section_composite(cfg):
    m = build_monad(cfg)
    comp = section_composite(*section_maps(cfg), cfg.dims, cfg.points)
    by_monomial = check_monad_condition(m)
    assert by_monomial == section_coefficients(comp, cfg.dims)
    assert composite_is_zero(by_monomial) == all(e.is_zero() for row in comp for e in row)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cfg=configs())
def test_chart_eigen_route_matches_elimination(cfg):
    m = build_monad(cfg)
    points, complete = _scan_chart(m)
    ref_points, ref_complete = reference_scan_chart(m, Random(0), m.dims.total_k <= 2)
    assert sorted(p.coords for p in points) == sorted(p.coords for p in ref_points)
    assert complete == ref_complete
