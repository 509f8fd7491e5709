"""Benchmark for mnlqg: end-to-end and per-layer metrics on three workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ensemble|pi-large|rollout \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout and driven through
its CLI entry point ``mnlqg.cli.main`` in this process.  A run times the
import of ``mnlqg`` in IMPORT_REPEATS fresh interpreters and sets up the
workload ``setup_repeats`` times (``setup_s`` is the median import time
plus the median set-up time), then issues the workload's commands one after
another until ``--seconds`` have passed and at least ``min_commands`` ran,
then checks every command's output.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
also runs the workload's first ``traced_commands`` commands with ``--jobs 1``
twice, untraced and then under the span tracer (tracer.py), and prints the
per-layer metrics.  Human-readable lines and a
metadata line come first; the last line of standard output is the result
object.  Work files go to ``.perfbench_work/`` in the checkout and are
removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
IMPORT_REPEATS = 5
# Run in a fresh interpreter with numpy already loaded; prints the seconds
# that importing the package from the source directory argv[1] takes.
IMPORT_PROBE = (
    "import sys, time; import numpy; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import mnlqg.cli; print(time.perf_counter() - start)"
)
# One BLAS thread, so bench-random --jobs 2 uses at most nproc=2 threads.
# Set before numpy is first imported (by workloads).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(np, workload, seconds):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "sizes": workload.sizes(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(ROOT),
    }


def import_times(src):
    """Seconds to import mnlqg, once per fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, src],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(probe.stdout))
    return times


def call(cli, argv):
    """Run one CLI command; returns (exit code, wall seconds, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return code, wall, out.getvalue()


def timed_loop(cli, workload, seconds):
    """Issue commands until ``seconds`` have passed; one record per command."""
    records = []
    start = time.perf_counter()
    cpu = time.process_time()
    while len(records) < workload.min_commands or time.perf_counter() - start < seconds:
        i = len(records)
        code, wall, stdout = call(cli, workload.argv(i, "run", workload.jobs))
        records.append((code, wall, stdout))
    elapsed = time.perf_counter() - start
    return records, elapsed, (time.process_time() - cpu) / elapsed


def evaluate(workload, records, tag):
    """Outputs and per-command problems of a list of records, and the
    work and wall times of the commands that exited 0, by input key."""
    outputs, problems, by_key = [], [], {}
    for i, (code, wall, stdout) in enumerate(records):
        if code != 0:
            outputs.append(None)
            problems.append([f"exit code {code}"])
            continue
        out = workload.output(i, tag, stdout)
        outputs.append(out)
        problems.append(workload.check(out))
        by_key.setdefault(workload.key(i), []).append((workload.work(out), wall))
    return outputs, problems, by_key


def work_per_s(by_key):
    """Work of one command per input over the summed median wall time per
    input: the rate of a pass over the inputs, each taken at its median."""
    work = sum(runs[0][0] for runs in by_key.values())
    wall = sum(statistics.median(w for _, w in runs) for runs in by_key.values())
    return work / wall


def layer_metrics(tracer, untraced_wall, traced_wall, cpu_util):
    s = tracer.summary()

    def get(name, field):
        return s.get(name, {}).get(field, 0)

    m = {}
    for name in (
        "matrixmath.solve_linear_extended",
        "moments.solve_lyapunov",
        "moments.spectral_radius",
        "moments.build_second_moment_matrix",
        "moments.build_augmented",
        "riccati.riccati_residual",
        "riccati.q_operators",
        "riccati.gain_operators",
    ):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("riccati.value_iteration_solve", "riccati.policy_iteration_solve"):
        m[f"{name}.busy_s"] = get(name, "busy_s")
        m[f"{name}.iterations"] = get(name, "iterations")
    pi_iters = get("riccati.policy_iteration_solve", "iterations")
    radius_in_pi = tracer.calls_under("moments.spectral_radius", "riccati.policy_iteration_solve")
    m["moments.spectral_radius.calls_per_pi_iter"] = radius_in_pi / pi_iters if pi_iters else 0.0
    m["riccati.stabilizing_initial_controller.busy_s"] = get(
        "riccati.stabilizing_initial_controller", "busy_s"
    )
    instances = get("bench.random_problem", "calls")
    radius_in_gen = tracer.calls_under("moments.spectral_radius", "bench.random_problem")
    m["bench.random_problem.calls"] = instances
    m["bench.random_problem.busy_s"] = get("bench.random_problem", "busy_s")
    m["bench.random_problem.radius_evals_per_instance"] = (
        radius_in_gen / instances if instances else 0.0
    )
    m["bench.run_comparison.busy_s"] = get("bench.run_comparison", "busy_s")
    m["bench.convergence_metric.busy_s"] = get("bench.convergence_metric", "busy_s")
    m["bench.write_csv.busy_s"] = get("bench.write_summary_csv", "busy_s") + get(
        "bench.write_trace_csv", "busy_s"
    )
    m["bench.monte_carlo_cost.busy_s"] = get("bench.monte_carlo_cost", "busy_s")
    m["bench.monte_carlo_cost.trial_steps"] = get("bench.monte_carlo_cost", "trial_steps")
    for name in ("model.load_problem", "model.validate", "model.load_controller", "cli.main"):
        m[f"{name}.busy_s"] = get(name, "busy_s")
    m["cli.pool.cpu_util"] = cpu_util
    m["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return m


def traced_replay(cli, workload, count):
    """The first ``count`` commands again with --jobs 1 under the tracer."""
    tracer = Tracer()
    records = []
    with tracer.installed():
        for i in range(count):
            tracer.trace_id = i
            records.append(call(cli, workload.argv(i, "traced", 1)))
    return tracer, records


def compare(workload, reference, records, tag):
    """Outputs and per-command problems of a replay; an output that differs
    from ``reference[i]`` (where there is one) is a problem too."""
    outputs, problems, _ = evaluate(workload, records, tag)
    for i, out in enumerate(outputs):
        if not problems[i] and i < len(reference) and out != reference[i]:
            problems[i] = [f"{tag} command {i}: output differs from the untraced run"]
    return outputs, problems


def measure(args, np, mnlqg, cli, imports, workdir):
    """Set up, run the timed loop, check; returns (metrics, problems, meta)."""
    workload = WORKLOADS[args.workload](mnlqg, args.seed, workdir)
    setups = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            warmup = workload.setup()
        code, _, _ = call(cli, warmup)
        if code != 0:
            raise SystemExit(f"error: warm-up command {warmup} exited {code}")
        setups.append(time.perf_counter() - start)

    records, elapsed, cpu_util = timed_loop(cli, workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs, problems, by_key = evaluate(workload, records, "run")
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "work_per_s": work_per_s(by_key) if by_key else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    meta = metadata(np, workload, args.seconds)
    meta.update(
        commands=len(records),
        command_s_median=statistics.median(wall for _, wall, _ in records),
        timed_region_s=elapsed,
        import_runs_s=imports,
        setup_runs_s=setups,
    )
    if args.trace:
        # The traced replay covers a fixed number of commands, so its counts
        # repeat exactly for a seed.  Its overhead is measured against the
        # same commands run untraced with --jobs 1 just before it.
        count = workload.traced_commands
        base = [call(cli, workload.argv(i, "base", 1)) for i in range(count)]
        base_outputs, found = compare(workload, outputs, base, "base")
        problems += found
        tracer, traced = traced_replay(cli, workload, count)
        problems += compare(workload, base_outputs, traced, "traced")[1]
        base_wall = sum(wall for _, wall, _ in base)
        traced_wall = sum(wall for _, wall, _ in traced)
        meta.update(untraced_jobs1_s=base_wall, traced_s=traced_wall)
        metrics.update(layer_metrics(tracer, base_wall, traced_wall, cpu_util))
    return metrics, problems, meta


def run(args, spec):
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mnlqg", "cli.py")):
        raise SystemExit(f"error: no mnlqg sources under {src}")
    imports = import_times(src)
    sys.path.insert(0, src)
    import numpy as np

    import mnlqg
    import mnlqg.cli as cli

    if not os.path.abspath(mnlqg.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported mnlqg from {mnlqg.__file__}, not {src}")

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        metrics, problems, meta = measure(args, np, mnlqg, cli, imports, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    for found in problems:
        for line in found:
            print(f"check failed: {line}", file=sys.stderr)
    failed = sum(1 for found in problems if found)
    attempted = len(problems)
    print("metadata " + json.dumps(meta, sort_keys=True))
    print(f"failed_frac: {failed / attempted!r} ({failed} of {attempted} commands)")
    for entry in spec["end_to_end"] + (spec["per_layer"] if args.trace else []):
        print(f"{entry['name']}: {metrics[entry['name']]!r} {entry['unit']}")
    section = spec["per_layer" if args.trace else "end_to_end"]
    result = {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in section}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def run_all(args):
    """Every workload in turn, each in its own process (own peak RSS)."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r} (expected all or {sorted(WORKLOADS)})")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
