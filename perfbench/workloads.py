"""The benchmark's workloads: seeded inputs, the CLI steps of each operation and their checks.

An operation is one configuration taken through its CLI command(s).  A round
is one pass over a workload's operations; every round of a run repeats the
same operations, so the share of failed operations and the traced call counts
are the same in every round.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

#: The workloads of BENCHMARK.json, which ``--workload all`` runs.
WORKLOADS = ("ladder", "moduli-sweep")
#: Runnable by name but not part of the benchmark: its figures spread past
#: any usable bound on a shared machine (see README.md).
EXTRA_WORKLOADS = ("plane-ideals",)

#: Seed of the sampler for operations that fail because of a known fault.
#: Their inputs do not depend on the run seed, so they fail in every run.
FAULT_SEED = 0

FAULTS = {
    "F1": "validate_config checks beta only at spot points, so a sampled "
          "configuration with d = 0, whose beta is not surjective at some points, "
          "is reported valid with no singular points",
    "F2": "the solve-d sampler raises SamplingFailureError: c cannot span the "
          "target when dim K_0 > r, and an empty constraint yields d = 0 with a "
          "positive stabilizer",
}

#: Ladder rungs (r, a, k) that finish today, with the fault that fails them.
#: Left out: (3,(1,0),2), whose scan runs over 10 minutes; (1,(1,1),1), which
#: cannot be sampled today; and (2,(-1),1), whose sampled configuration has a
#: non-surjective beta for some seeds (174664, 414002), so it would fail in
#: some runs and not in others.
LADDER = (
    ((1, (), 4), "F1"),
    ((2, (1,), 1), None),
    ((2, (1, 0), 1), None),
    ((3, (1,), 2), None),
    ((1, (0,), 1), "F1"),
    ((1, (-1,), 0), None),
)

#: plane-ideals: configurations per k, for each rank r in (1, 2).  The k = 4
#: class holds the middle of the sorted operation times, so the median
#: operation is an exact-route scan and not the gap between two classes; the
#: k = 5 scans, which set ops_per_s, vary by configuration and get two.
PLANE_COUNTS = {2: 1, 3: 2, 4: 3, 5: 2}

#: Rounds a run makes at least.  An operation's time is its fastest repeat in
#: the run, which filters the slow spells of a shared machine, so every
#: operation is repeated at least once.
MIN_ROUNDS = {"plane-ideals": 2, "ladder": 3, "moduli-sweep": 2}

#: The 32 parameter sets of the moduli-sweep grid that the sampler fails on
#: with seed 0 (fault F2).
F2_SETS = frozenset([
    (1, (-1,), 2), (1, (-1, -1), 0), (1, (-1, -1), 2), (1, (-1, 0), 2),
    (1, (-1, 1), 1), (1, (-1, 1), 2), (1, (0,), 2), (1, (0, -1), 2),
    (1, (0, 0), 2), (1, (0, 1), 2), (1, (1,), 2), (1, (1, -1), 1),
    (1, (1, -1), 2), (1, (1, 0), 2), (1, (1, 1), 1), (1, (1, 1), 2),
    (2, (-1,), 0), (2, (-1, -1), 0), (2, (-1, 0), 0), (2, (-1, 1), 2),
    (2, (0, -1), 0), (2, (0, 1), 2), (2, (1,), 2), (2, (1, -1), 2),
    (2, (1, 0), 2), (2, (1, 1), 1), (2, (1, 1), 2), (3, (-1,), 0),
    (3, (-1, -1), 0), (3, (-1, 0), 0), (3, (0, -1), 0), (3, (1, 1), 2),
])


@dataclass(frozen=True)
class Operation:
    label: str
    kind: str                       # "plane", "ladder" or "moduli"
    params: tuple                   # (r, a, k)
    steps: tuple[tuple[str, ...], ...]
    config: str | None              # the configuration file the report reads
    fault: str | None               # known fault expected to fail it


#: Grid sets left out of moduli-sweep: for 2-5% of sampler seeds, solve-d
#: exhausts its 60 attempts on them (one attempt in 100 tries succeeded 5-6
#: times; the next worst set succeeded 76 times), so they would fail in some
#: runs and not in others.  Seen first as (1,(1),1) with sampler seed 914052.
SEED_DEPENDENT_SETS = frozenset([(1, (1,), 1), (1, (1, 0), 1), (1, (0, 1), 1)])


def moduli_grid() -> list[tuple[int, tuple[int, ...], int]]:
    """r <= 3, n <= 2, a_i in {-1, 0, 1}, k <= 2: 117 parameter sets."""
    return [(r, a, k)
            for r in (1, 2, 3)
            for n in (0, 1, 2)
            for a in itertools.product((-1, 0, 1), repeat=n)
            for k in (0, 1, 2)]


def _rac_args(r: int, a: tuple[int, ...], k: int) -> list[str]:
    # "-a=-1,0": a value starting with "-" must be attached to its flag
    return ["-r", str(r)] + ([f"-a={','.join(map(str, a))}"] if a else []) + ["-k", str(k)]


def _fs(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _rand_q(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))


def plane_config(rng: random.Random, r: int, k: int) -> dict:
    """n = 0: a00 = Id, diagonal aA00 with k distinct pairs, c = 0, d[:, 0] without zeros.

    Its singular locus is {(-lambda_i : -mu_i : 1)}, each point simple.
    """
    pairs: list[tuple[Fraction, Fraction]] = []
    while len(pairs) < k:
        pair = (_rand_q(rng), _rand_q(rng))
        if pair not in pairs:
            pairs.append(pair)

    def diag(values):
        return [[_fs(Fraction(values[i]) if i == j else Fraction(0)) for j in range(k)]
                for i in range(k)]

    d = [[_fs(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))) if m == 0 else _fs(_rand_q(rng))
          for m in range(r)] for _ in range(k)]
    return {
        "schema": 1,
        "params": {"r": r, "a": [], "k": k},
        "points": [],
        "blocks": {
            "a00": diag([1] * k),
            "a0i": [], "ai0": [], "aii": [],
            "aA00": [diag([p[0] for p in pairs]), diag([p[1] for p in pairs])],
            "c": [[_fs(Fraction(0))] * k for _ in range(r)],
            "d": d,
        },
    }


def build(workload: str, seed: int, workdir: Path) -> list[Operation]:
    """Generate and write the inputs of one round; return its operations."""
    rng = random.Random(seed)
    ops: list[Operation] = []
    if workload == "plane-ideals":
        for r in (1, 2):
            for k, count in PLANE_COUNTS.items():
                for j in range(count):
                    path = workdir / f"plane-r{r}-k{k}-{j}.json"
                    path.write_text(json.dumps(plane_config(rng, r, k)), encoding="utf-8")
                    ops.append(Operation(
                        f"report r={r} k={k} #{j}", "plane", (r, (), k),
                        (("report", str(path), "--json"),), str(path), None))
    elif workload == "ladder":
        for (r, a, k), fault in LADDER:
            s = FAULT_SEED if fault else rng.randrange(10**6)
            path = workdir / f"ladder-r{r}-a{'_'.join(map(str, a))}-k{k}.json"
            ops.append(Operation(
                f"sample+report r={r} a={a} k={k} seed={s}", "ladder", (r, a, k),
                (("sample", *_rac_args(r, a, k), "--seed", str(s), "-o", str(path)),
                 ("report", str(path), "--json")),
                str(path), fault))
    elif workload == "moduli-sweep":
        for r, a, k in moduli_grid():
            if (r, a, k) in SEED_DEPENDENT_SETS:
                continue
            fault = "F2" if (r, a, k) in F2_SETS else None
            s = FAULT_SEED if fault else rng.randrange(10**6)
            ops.append(Operation(
                f"tangent r={r} a={a} k={k} seed={s}", "moduli", (r, a, k),
                (("tangent", *_rac_args(r, a, k), "--seed", str(s), "--json"),),
                None, fault))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = [{"label": op.label, "steps": op.steps, "fault": op.fault} for op in ops]
    (workdir / "operations.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return ops


def check(op: Operation, stdouts: list[str]) -> list[str]:
    """Problems with an operation's outputs; empty when they are right."""
    import checks  # not at module level: setup_s times the program's imports alone

    r, a, k = op.params
    if op.kind == "moduli":
        return checks.check_tangent(r, list(a), k, json.loads(stdouts[0]))
    doc = json.loads(Path(op.config).read_text(encoding="utf-8"))
    problems = checks.check_config(doc) if op.kind == "ladder" else []
    return problems + checks.check_report(doc, json.loads(stdouts[-1]))
