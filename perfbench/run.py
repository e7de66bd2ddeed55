"""Benchmark of the adhm-blowup-kit pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

Runs one workload single-process through ``adhm_blowup_kit.cli.main``, imported
from ``src/`` of the checkout, for whole rounds: the workload's ``MIN_ROUNDS``,
then more while one more round, taking as long as the last, would still end
within ``--seconds``.  Every operation's output is checked (see ``checks.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Other modes: ``--workload all`` runs every workload of the benchmark in turn,
each in its own process (``--workload plane-ideals`` runs the one workload kept
out of it); ``--smoke`` runs one operation per workload; ``--table`` prints the
per-rung scan, validate and tangent times of one traced ladder round.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Wall-clock budget of one operation; one over it is a failed timeout.
OP_BUDGET_S = 60
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 5
#: Budget of one setup probe.
PROBE_BUDGET_S = 60

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class OpTimeout(BaseException):
    """Raised by the interval timer in an operation over budget.

    A BaseException, so that no ``except Exception`` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(cli_main, op) -> tuple[float, str | None, list[str]]:
    """Run an operation's CLI steps; return (seconds, failure or None, stdouts)."""
    stdouts: list[str] = []
    failure = None
    signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
    t0 = time.perf_counter()
    try:
        for argv in op.steps:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            stdouts.append(out.getvalue())
            if code != 0:
                msg = err.getvalue().strip().splitlines()
                failure = f"{argv[0]} exit {code}: {msg[-1] if msg else ''}"
                break
    except OpTimeout:
        failure = f"timeout after {OP_BUDGET_S} s"
    except Exception as exc:  # a traceback from the program is a failed operation
        failure = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, failure, stdouts


def run_round(ops, cli_main, tracer=None, before=None) -> list[dict]:
    """Run and check every operation once; ``before(i)`` is called ahead of operation i."""
    import sympy
    import workloads

    results = []
    for i, op in enumerate(ops):
        if before is not None:
            before(i)
        # every CLI call starts with sympy's cache empty, as in a fresh process
        sympy.core.cache.clear_cache()
        if tracer is None:
            seconds, failure, stdouts = run_op(cli_main, op)
        else:
            with tracer.span(f"op:{op.label}"):
                seconds, failure, stdouts = run_op(cli_main, op)
        problems = [] if failure else workloads.check(op, stdouts)
        results.append({"op": op, "seconds": seconds, "failure": failure,
                        "problems": problems})
    return results


def outcome(res: dict) -> tuple[bool, bool]:
    """(failed, wrong) for one operation result.

    An operation fails when a CLI step exits non-zero, raises or runs over
    budget, or when it is expected to fail by a known fault and its check
    finds a problem.  Any other problem is a wrong output.
    """
    if res["failure"]:
        return True, False
    if res["problems"]:
        return (True, False) if res["op"].fault else (False, True)
    return False, False


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to having imported and written the inputs."""
    with tempfile.TemporaryDirectory(dir=WORK) as probe_dir:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed), "--workdir", probe_dir]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would quantise the measurement
        signal.setitimer(signal.ITIMER_REAL, PROBE_BUDGET_S)
        try:
            code = proc.wait()
        except OpTimeout:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"setup probe over {PROBE_BUDGET_S} s") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}")
        return elapsed


def import_program():
    sys.path.insert(0, str(SRC))
    from adhm_blowup_kit import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"adhm_blowup_kit imported from {cli.__file__}, not {SRC}")
    return cli


def summarize(results: list[dict]) -> tuple[int, int, bool]:
    attempted = len(results)
    failed = sum(outcome(r)[0] for r in results)
    correct = not any(outcome(r)[1] for r in results)
    return attempted, failed, correct


def report_failures(results: list[dict]) -> None:
    import workloads

    seen = set()
    for r in results:
        failed, wrong = outcome(r)
        if not (failed or wrong):
            continue
        op = r["op"]
        why = r["failure"] or "; ".join(r["problems"])
        key = (op.label, why)
        if key in seen:
            continue
        seen.add(key)
        tag = f"known fault {op.fault}" if op.fault and failed else (
            "WRONG OUTPUT" if wrong else "unexpected failure")
        print(f"  {'failed' if failed else 'wrong'}: {op.label} [{tag}]: {why[:160]}")
    for fault in sorted({r["op"].fault for r in results if r["op"].fault and outcome(r)[0]}):
        print(f"  {fault}: {workloads.FAULTS[fault]}")


def run_workload(args) -> int:
    import tracing
    import workloads

    WORK.mkdir(exist_ok=True)
    cli = import_program()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        tracer = None
        untraced_round = None
        if args.trace:
            t0 = time.perf_counter()
            run_round(ops, cli.main)
            untraced_round = time.perf_counter() - t0
            tracer = tracing.Tracer()
            tracer.install()
        # setup_s probes are spread over the first round, not run back to
        # back, so that one slow spell of a shared machine does not set them all
        setup: list[float] = []
        probe_at = {len(ops) * i // SETUP_PROBES for i in range(SETUP_PROBES)}

        def probe(i):
            if i in probe_at and not args.trace and len(setup) < SETUP_PROBES:
                setup.append(setup_probe_seconds(args.workload, args.seed))

        # the traced run's numbers are means over its rounds, not fastest
        # repeats, so one round is enough
        min_rounds = 1 if args.trace else workloads.MIN_ROUNDS[args.workload]
        results: list[dict] = []
        bounds = [0]
        start = time.perf_counter()
        try:
            while True:
                round_start = time.perf_counter()
                results += run_round(ops, cli.main, tracer, probe)
                bounds.append(len(tracer) if tracer else 0)
                now = time.perf_counter()
                elapsed, last_round = now - start, now - round_start
                if (len(bounds) > min_rounds and elapsed + last_round > args.seconds):
                    break
        finally:
            if tracer:
                tracer.uninstall()
        rounds = len(bounds) - 1
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, correct = summarize(results)
    print(f"workload {args.workload}, seed {args.seed}: {rounds} round(s) of "
          f"{len(ops)} operations in {wall:.1f} s; attempted {attempted}, "
          f"failed {failed}, correct {correct}")
    report_failures(results)

    if tracer:
        per_round = [tracer.metrics(bounds[i], bounds[i + 1]) for i in range(rounds)]
        metrics = {}
        for m in per_round[0]:
            values = [pr[m] for pr in per_round]
            metrics[m] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
            if m.endswith("calls") and len(set(values)) > 1:
                print(f"  warning: {m} differs between rounds: {values}")
        traced_round = wall / rounds
        print(f"tracing overhead: {traced_round - untraced_round:.3f} s per round "
              f"({traced_round:.3f} s traced, {untraced_round:.3f} s untraced, "
              f"{len(tracer)} spans)")
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.tsv"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        out = {m: {"value": v, "unit": tracing.unit_of(m)} for m, v in metrics.items()}
    else:
        # An operation's time is its fastest repeat in the run.  op_s is the
        # geometric mean over the operations that did not fail: every one
        # weighs the same whatever its size, and no single operation near the
        # middle of the sorted times sets it, as it would set a median.
        n = len(ops)
        fastest = [min(results[k * n + i]["seconds"] for k in range(rounds)) for i in range(n)]
        ok = [fastest[i] for i in range(n)
              if not any(outcome(results[k * n + i])[0] for k in range(rounds))]
        if not ok:
            print("error: every operation failed", file=sys.stderr)
            return 1
        values = {
            "setup_s": statistics.median(setup),
            "op_s": statistics.geometric_mean(ok),
            "ops_per_s": len(ok) / sum(fastest),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        out = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in values.items()}
    for m, v in out.items():
        print(f"  {m} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def run_all(args) -> int:
    import workloads

    code = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        code |= subprocess.run(cmd, timeout=900).returncode
    return code


def run_smoke(args) -> int:
    """One operation per workload, the first not failed by a known fault."""
    import workloads

    cli = import_program()
    WORK.mkdir(exist_ok=True)
    code = 0
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in workloads.WORKLOADS + workloads.EXTRA_WORKLOADS:
            op = next(o for o in workloads.build(workload, args.seed, Path(tmp)) if not o.fault)
            [res] = run_round([op], cli.main)
            failed, wrong = outcome(res)
            status = "ok" if not (failed or wrong) else "FAILED"
            print(f"{workload}: {op.label}: {status} in {res['seconds']:.3f} s "
                  f"{res['failure'] or '; '.join(res['problems'])}")
            code |= failed or wrong
    return code


def run_table(args) -> int:
    """Per-rung scan, validate and tangent seconds of one traced ladder round."""
    import tracing
    import workloads

    cli = import_program()
    WORK.mkdir(exist_ok=True)
    names = ("cli.main", "adhm.sample_config", "monad.singular_scan",
             "monad.validate_config", "adhm.tangent_dims")
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        ops = workloads.build("ladder", args.seed, Path(tmp))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results = run_round(ops, cli.main, tracer)
        finally:
            tracer.uninstall()
    times = tracer.op_times(0, len(tracer), names)
    print("| (r, a, k) | sampler seed | sample | scan | validate | tangent | CLI total | outcome |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for res in results:
        op = res["op"]
        t = times[f"op:{op.label}"]
        failed, wrong = outcome(res)
        status = "ok" if not (failed or wrong) else f"failed ({op.fault or 'unexpected'})"
        r, a, k = op.params
        print(f"| ({r}, {a}, {k}) | {op.label.rsplit('=', 1)[1]} "
              f"| {t['adhm.sample_config']:.2f} s | {t['monad.singular_scan']:.2f} s "
              f"| {t['monad.validate_config']:.2f} s | {t['adhm.tangent_dims']:.2f} s "
              f"| {t['cli.main']:.2f} s | {status} |")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--table", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "adhm_blowup_kit" / "__init__.py").is_file():
        print(f"error: no adhm_blowup_kit sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        import_program()
        workloads.build(args.workload, args.seed, Path(args.workdir))
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.smoke:
        return run_smoke(args)
    if args.table:
        return run_table(args)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS + workloads.EXTRA_WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{workloads.WORKLOADS + workloads.EXTRA_WORKLOADS} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
