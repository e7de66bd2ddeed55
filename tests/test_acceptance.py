"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything here is exact rational arithmetic; every tolerance is zero.
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines, or plain ``pytest`` to just gate on them.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from random import Random

from adhm_blowup_kit.adhm import (
    AdhmConfig,
    act,
    assemble_a,
    constraint_residual,
    sample_config,
    stabilizer_dim,
    tangent_dims,
)
from adhm_blowup_kit.cli import main as cli_main
from adhm_blowup_kit.errors import InfeasibleParametersError
from adhm_blowup_kit.lattice import (
    ChernCharacter,
    DivisorClass,
    chi_line,
    moduli_dim_formulas,
    monad_dims,
)
from adhm_blowup_kit.linalg import Matrix
from adhm_blowup_kit.monad import (
    SurfacePoint,
    build_monad,
    check_monad_condition,
    cohomology_ch_check,
    fiber_data,
    framing_verdicts,
    singular_scan,
)
from adhm_blowup_kit.sections import BlowupPoints
from util import (
    coefficient_block,
    composite_is_zero,
    rand_config,
    rand_group_element,
    rand_matrix,
    reference_qA,
    section_composite,
    section_maps,
)

GRID_R = (1, 2, 3)
GRID_K = range(5)


def _grid_a_vectors():
    for n in range(4):
        yield from product(range(-2, 3), repeat=n)


def _passed(name: str):
    print(f"ACCEPTANCE {name}: PASS")


def _hilbert_k2():
    return AdhmConfig(
        1, [], 2, BlowupPoints(()),
        a00=Matrix.identity(2), a0i=(), ai0=(), aii=(),
        aA00=(Matrix([[0, 0], [0, -1]]), Matrix([[0, 0], [0, -1]])),
        c=Matrix.zeros(1, 2), d=Matrix([[1], [1]]),
    )


def _valid_sample_pool():
    pool = []
    for seed in range(4):
        pool.append(sample_config(1, [], 1, seed=seed))
        pool.append(sample_config(2, [], 2, seed=seed))
        pool.append(sample_config(1, [-1], 0, seed=seed))
        pool.append(sample_config(2, [1], 1, seed=seed))
        pool.append(sample_config(2, [1, 0], 1, seed=seed))
    return pool


def test_criterion_1_riemann_roch_anchors():
    assert chi_line(DivisorClass(0, [])) == 1
    for n in (1, 2, 3):
        for i in range(n):
            q = [1] * n
            q[i] += 1
            assert chi_line(DivisorClass(-3, q)) == 0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                q = [0] * n
                q[i] += 1
                q[j] += 1
                assert chi_line(DivisorClass(-2, q)) == 0
    _passed("criterion-1 riemann-roch anchors")


def test_criterion_2_dimension_bookkeeping():
    checked = 0
    for r in GRID_R:
        for a_vec in _grid_a_vectors():
            for k in GRID_K:
                try:
                    dims = monad_dims(r, a_vec, k)
                except InfeasibleParametersError:
                    continue
                assert dims.total_k == dims.total_l
                norm2 = sum(x * x for x in a_vec)
                expected = ChernCharacter(
                    r, DivisorClass(0, a_vec), -(k + Fraction(norm2, 2)))
                assert cohomology_ch_check(dims) == expected
                checked += 1
    assert checked > 2000
    _passed(f"criterion-2 dimension bookkeeping ({checked} parameter sets)")


def test_criterion_3_monad_identity():
    # one sampler for every shape; ten configurations per shape class: n = 0,
    # the line-bundle shape (r = 1, k = 0, a = -e_i) and the rest
    per_shape = {
        "n = 0": [sample_config(r, [], k, seed=s)
                  for s, (r, k) in enumerate(
                      [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1),
                       (1, 3), (2, 3), (3, 2), (1, 4), (3, 3)])],
        "the rest": [sample_config(r, a, k, seed=s)
                     for s, (r, a, k) in enumerate(
                         [(2, [1], 1), (1, [0], 1), (2, [0], 1), (2, [1, 0], 1),
                          (1, [-1], 1), (3, [1], 2), (3, [1], 1), (2, [-1], 1),
                          (3, [1, 0], 1), (2, [0, 0], 1)])],
        "line bundle": [sample_config(1, a, 0, seed=s)
                        for s, a in enumerate([[-1], [-1, 0], [0, -1]] * 3 + [[-1]])],
    }
    for shape, cfgs in per_shape.items():
        assert len(cfgs) >= 10
        for cfg in cfgs:
            comp = check_monad_condition(build_monad(cfg))
            assert composite_is_zero(comp), shape
    # one sample per shape class also passes the full finite validation
    from adhm_blowup_kit.monad import validate_config
    for cfgs in per_shape.values():
        assert validate_config(cfgs[0]).valid
    # rows i >= 1 vanish identically even on invalid data
    rng = Random(99)
    for _ in range(6):
        cfg = rand_config(rng, rng.choice((1, 2)), rng.choice(([1], [0], [1, 0])),
                          rng.choice((1, 2)))
        comp = check_monad_condition(build_monad(cfg))
        l0 = cfg.dims.dim_l[0]
        for coeff in comp.values():
            assert coeff.submatrix(l0, coeff.nrows, 0, coeff.ncols).is_zero()
    _passed("criterion-3 monad identity (10+ configs per shape class)")


def test_criterion_4_compact_constraint_calibration():
    rng = Random(4)
    shapes = [(1, [], 2), (2, [], 1), (1, [0], 1), (2, [1], 1), (1, [1, 0], 1),
              (2, [0, 0], 1), (1, [-1], 1)]
    for trial in range(20):
        r, a_vec, k = shapes[trial % len(shapes)]
        cfg = rand_config(rng, r, a_vec, k)  # random, not necessarily valid
        res = constraint_residual(cfg)
        dims = cfg.dims
        # single candidate block: the z2^2 coefficient in block (0,0) of the
        # composite of sections, and of the pencils' composite
        comp = section_composite(*section_maps(cfg), dims, cfg.points)
        assert coefficient_block(comp, dims, 0, 0, (0, 0, 2)) == res
        total_terms = sum(len(e.poly) for row in comp for e in row)
        in_block = sum(1 for row in res.rows for x in row if x != 0)
        assert total_terms == in_block
        by_monomial = check_monad_condition(build_monad(cfg))
        l0, k0 = dims.dim_l[0], dims.dim_k[0]
        assert by_monomial[(0, 0, 2)].submatrix(0, l0, 0, k0) == res
        assert sum(1 for coeff in by_monomial.values()
                   for row in coeff.rows for x in row if x != 0) == in_block
        # global sign: compact form computed with sigma = +1 from q^A
        ainv = assemble_a(cfg).inverse()
        q = reference_qA(cfg)
        s = q[1] * ainv * q[0] - q[0] * ainv * q[1]
        l0, k0 = dims.dim_l[0], dims.dim_k[0]
        assert res == s.submatrix(0, l0, 0, k0) + cfg.d * cfg.c
    _passed("criterion-4 compact constraint calibration (sigma = +1)")


def test_criterion_5_classical_reduction():
    rng = Random(5)
    # at n = 0 with a00 = Id the constraint is the commutator equation
    for _ in range(10):
        k, r = rng.randint(1, 3), rng.randint(1, 2)
        cfg = AdhmConfig(r, [], k, BlowupPoints(()),
                         a00=Matrix.identity(k), a0i=(), ai0=(), aii=(),
                         aA00=(rand_matrix(rng, k, k), rand_matrix(rng, k, k)),
                         c=rand_matrix(rng, r, k), d=rand_matrix(rng, k, r))
        res = constraint_residual(cfg)
        a0, a1 = cfg.aA00
        assert res == (a1 * a0 - a0 * a1) + cfg.d * cfg.c
    cfg = _hilbert_k2()
    m = build_monad(cfg)
    scan = singular_scan(m)
    assert scan.complete
    assert [p.coords for p in scan.points] == [
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(1))]
    for p in scan.points:
        assert fiber_data(m, p).fiber_dim == 2
    for z in ((3, 4), (-1, 2), (0, 1), (1, 0)):
        assert fiber_data(m, SurfacePoint.generic(*z, 1)).fiber_dim == 1
    _passed("criterion-5 classical reduction and length-2 singular locus")


def test_criterion_6_framing_equivalence():
    valid = _valid_sample_pool()
    assert len(valid) == 20
    agree = 0
    for cfg in valid:
        det_v, fiber_v = framing_verdicts(cfg)
        assert det_v is True and fiber_v is True
        agree += 1
    invalid = []
    for cfg in valid[:5]:
        kd, ld = cfg.dims.dim_k, cfg.dims.dim_l
        # kill the whole L_0 block row of a, which leaves it singular
        invalid.append(cfg.replace(
            a00=Matrix.zeros(ld[0], kd[0]),
            a0i=tuple(Matrix.zeros(*m.shape) for m in cfg.a0i),
        ))
        assert assemble_a(invalid[-1]).det() == 0
    assert len(invalid) == 5
    for cfg in invalid:
        det_v, fiber_v = framing_verdicts(cfg)
        assert det_v is False and fiber_v is False
        agree += 1
    assert agree == 25
    _passed("criterion-6 framing equivalence (25/25 agree)")


def test_criterion_7_group_action():
    rng = Random(7)
    cfgs = [sample_config(2, [1], 1, seed=1),
            sample_config(1, [], 2, seed=1),
            sample_config(1, [-1], 0, seed=1),
            sample_config(2, [1, 0], 1, seed=1)]
    for trial in range(20):
        cfg = cfgs[trial % len(cfgs)]
        e1 = rand_group_element(rng, cfg.dims)
        e2 = rand_group_element(rng, cfg.dims)
        assert act(e2, act(e1, cfg)) == act(e2.compose(e1), cfg)
        moved = act(e1, cfg)
        assert constraint_residual(moved).is_zero()
        assert assemble_a(moved).det() != 0
    for cfg in _valid_sample_pool():
        assert stabilizer_dim(cfg) == 0
    _passed("criterion-7 group action (law, preservation, trivial isotropy)")


def test_criterion_8_moduli_dimension():
    instances = [
        (1, [], 1), (1, [], 2), (2, [], 1), (3, [], 1),
        (1, [1], 0), (1, [-1], 0), (1, [-1], 1), (2, [1], 1),
        (1, [1, 1], 0), (2, [1, 0], 1), (2, [-1], 1),
    ]
    for r, a_vec, k in instances:
        cfg = sample_config(r, a_vec, k, seed=3)
        rep = tangent_dims(cfg)
        abstract, _section3 = moduli_dim_formulas(r, a_vec, k)
        norm2 = sum(x * x for x in a_vec)
        assert abstract == 2 * r * k + (r - 1) * norm2
        assert rep.empirical_moduli_dim == abstract, (r, a_vec, k)
    # the named anchors
    assert tangent_dims(sample_config(1, [], 1, seed=0)).empirical_moduli_dim == 2
    assert tangent_dims(sample_config(2, [], 1, seed=0)).empirical_moduli_dim == 4
    assert tangent_dims(sample_config(1, [1], 0, seed=0)).empirical_moduli_dim == 0
    # the report flags the disagreement of the two published forms at (2,[],1)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["tangent", "-r", "2", "-a", "", "-k", "1",
                         "--seed", "0", "--json"])
    assert code == 0
    doc = json.loads(buf.getvalue())
    assert doc["abstract_formula"] == 4 and doc["section3_formula"] == 2
    assert doc["formulas_disagree"] is True
    assert doc["verdict"] == "matches_abstract"
    _passed("criterion-8 moduli dimension (matches 2r(k+|a|^2/2)-|a|^2)")


def test_criterion_9_determinism():
    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        assert code == 0
        return buf.getvalue()

    sample_args = ["sample", "-r", "2", "-a", "1", "-k", "1", "--seed", "7"]
    assert run(sample_args) == run(sample_args)
    first = run(sample_args)
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            fh.write(first)
        validate_args = ["validate", path, "--json"]
        assert run(validate_args) == run(validate_args)
        report_args = ["report", path, "--json"]
        assert run(report_args) == run(report_args)
    _passed("criterion-9 determinism (byte-identical reports)")
