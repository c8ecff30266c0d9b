"""Benchmark for fdual: three workloads through the public API.

    python3 bench/run.py --workload correspondence --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

Run from anywhere; fdual is imported from ``src/`` next to this directory.
A workload run builds its inputs from the seed, runs one untimed round whose
results get every check (including those that call fdual again), then
repeats the round until ``--seconds`` have passed and at least 10 rounds are
done, checking each result as it comes.  Between ops it times set-up in
fresh interpreters at even intervals of the run.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (spans then go to ``bench/out/``).
``--workload all`` runs the three workloads one after another, each in its
own process.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("correspondence", "bridge", "erm")
SETUP_PROBES = 20
# every op's time is a percentile over its repeats: at least ten of them
MIN_ROUNDS = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> float:
    """Wall time from spawning a fresh interpreter to the moment it has
    imported fdual and built this workload's inputs."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def check_round(ops) -> list:
    """Run each op once, untimed; check and audit every result."""
    problems = []
    for op in ops:
        try:
            result = op.run()
        except Exception as exc:
            problems.append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
            continue
        problems += [f"{op.kind}: {p}" for p in op.check(result)]
        if op.audit is not None:
            problems += [f"{op.kind}: {p}" for p in op.audit(result)]
    return problems


def timed_rounds(ops, seconds: float, tracer=None, probe=None):
    """Repeat whole rounds until ``seconds`` have passed and MIN_ROUNDS
    rounds are done.  Between ops, ``probe`` (if given) is called
    SETUP_PROBES times at even intervals of the run; the time it takes is
    not counted towards ``seconds``, so it costs no rounds.  Returns each
    op's seconds per round, the probe results, the failures and the check
    problems."""
    times, probes, failures, problems = [[] for _ in ops], [], [], []
    run = tracer.run_op if tracer is not None else (lambda op: op.run())
    start, probe_s = time.perf_counter(), 0.0

    def elapsed():
        return time.perf_counter() - start - probe_s

    while len(times[0]) < MIN_ROUNDS or elapsed() < seconds:
        for op, op_times in zip(ops, times):
            t0 = time.perf_counter()
            try:
                result = run(op)
            except Exception as exc:
                failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                result = None
            op_times.append(time.perf_counter() - t0)
            if result is not None:
                problems += [f"{op.kind}: {p}" for p in op.check(result)]
            if (probe is not None and len(probes) < SETUP_PROBES
                    and elapsed() >= len(probes) * seconds / SETUP_PROBES):
                t0 = time.perf_counter()
                probes.append(probe())
                probe_s += time.perf_counter() - t0
    while probe is not None and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return times, probes, failures, problems


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def op_seconds(times) -> list:
    """Each op's time: the 90th percentile of its repeats.

    A shared virtual CPU can switch between two speeds for seconds at a
    time (about 1.8x apart on the 2-vCPU Xeon host the workloads were sized
    on), and the share of time at the fast one differs from run to run.  A
    high percentile of each op's repeats reads the slower state, which every
    run visits, where a median mixes the two in varying proportions.  The
    set-up probes are spread over the run and read the same way."""
    return [p90(t) for t in times]


def ops_per_s(times, n_failed: int) -> float:
    """Ops completed per round over the summed op times of a round."""
    per_round = len(times) - n_failed / len(times[0])
    return per_round / sum(op_seconds(times))


def end_to_end(probes, times, n_failed: int) -> dict:
    ms = [1e3 * t for t in op_seconds(times)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (p90(probes), "s"),
        "ops_per_s": (ops_per_s(times, n_failed), "ops/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (p90(ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_workload(args) -> int:
    try:
        import fdual  # noqa: F401
    except ImportError as exc:
        print(f"cannot import fdual from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    ops = workloads.WORKLOADS[args.workload](args.seed)
    problems = check_round(ops)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        times, probes, failures, timed_problems = timed_rounds(
            ops, args.seconds, tracer,
            None if args.trace else (lambda: setup_probe(args)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems += timed_problems

    n = len(ops) * len(times[0])
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(times[0])}"
          f"  ops {n}  failed {len(failures)}  checks "
          f"{'ok' if not problems else f'{len(problems)} problems'}")
    for line in sorted(set(failures))[:10]:
        print(f"  failed op: {line}")
    for line in problems[:10]:
        print(f"  check: {line}")

    if tracer is None:
        metrics = end_to_end(probes, times, len(failures))
    else:
        metrics = tracer.per_layer(n)
        metrics["traced.ops_per_s"] = (ops_per_s(times, len(failures)),
                                       "ops/s")
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out, args.workload, args.seed)
        print(f"  spans written to {out.relative_to(ROOT)}")
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems, "attempted": n, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; relay their output, then print one
    JSON object keyed by workload."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
        code = code or (0 if results[name]["correct"] else 1)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
