"""Command-line interface.

Commands: ``validate``, ``solve``, ``bench-pendulum``, ``bench-random``,
``rollout``.  Exit codes: 0 success, 2 input/validation error, 3
solver/benchmark failure; no other nonzero codes are produced.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys

from . import bench, riccati
from .exceptions import MnlqgError, ProblemFormatError
from .model import load_controller, load_problem, validate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3

METHOD_NAMES = {"pi": "policy_iteration", "vi": "value_iteration"}


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_problem_checked(path):
    """Load and validate a problem file; returns (problem, exit_code|None)."""
    problem = load_problem(_read(path))
    report = validate(problem)
    for violation in report.warnings:
        print(f"note: {violation}", file=sys.stderr)
    if report.errors:
        for violation in report.errors:
            print(violation)
        return problem, EXIT_INPUT
    return problem, None


def cmd_validate(args) -> int:
    problem = load_problem(_read(args.problem))
    report = validate(problem)
    for violation in report.violations:
        print(violation)
    if report.ok:
        print("ok")
    elif not report.errors:
        print("ok (with warnings)")
    return EXIT_OK if not report.errors else EXIT_INPUT


def _parse_methods(value: str):
    methods = []
    for name in value.split(","):
        name = name.strip()
        if name not in METHOD_NAMES:
            raise ValueError(f"unknown method {name!r} (expected pi, vi)")
        full = METHOD_NAMES[name]
        if full not in methods:
            methods.append(full)
    return tuple(methods)


def _resolve_initial(problem, init):
    if init == "auto":
        return None  # policy_iteration_solve's own default
    if init == "open-loop":
        return riccati.open_loop_controller(problem)
    if init == "lqg":
        return riccati.noise_free_controller(problem)
    return load_controller(_read(init))  # build_augmented rejects a misfit


def _history_documents(report, e_k):
    rows = []
    for k, entry in enumerate(report.history):
        row = {"k": k, "delta": entry.delta, "seconds": entry.seconds}
        if e_k is not None:
            row["e_k"] = e_k[k]
        rows.append(row)
    return rows


def _report_document(report, e_k=None):
    return {
        "method": report.method,
        "converged": report.converged,
        "iterations": report.iterations,
        "residual_norm": report.residual_norm,
        "cost": report.cost,
        "controller": {
            "F": report.controller.F.tolist(),
            "K": report.controller.K.tolist(),
            "L": report.controller.L.tolist(),
        },
        "solution": {
            "P": report.solution.P.tolist(),
            "Phat": report.solution.Phat.tolist(),
            "S": report.solution.S.tolist(),
            "Shat": report.solution.Shat.tolist(),
        },
        "history": _history_documents(report, e_k),
    }


def cmd_solve(args) -> int:
    if args.max_iter is not None and args.max_iter < 0:
        raise ValueError("--max-iter must be >= 0")
    if args.tol is not None and not args.tol >= 0.0:  # also rejects nan
        raise ValueError("--tol must be a nonnegative number")
    problem, code = _load_problem_checked(args.problem)
    if code is not None:
        return code
    # the solvers own the defaults: pass only the limits given on the command line
    limits = {"tol": args.tol, "max_iter": args.max_iter}
    limits = {key: value for key, value in limits.items() if value is not None}
    if args.method == "vi":
        report = riccati.value_iteration_solve(problem, **limits)
    else:
        initial = _resolve_initial(problem, args.init)
        report = riccati.policy_iteration_solve(problem, initial, **limits)

    e_k = None
    if args.trace:
        e_k = bench.convergence_metric(report.solution_history, report.solution)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(_report_document(report, e_k), handle, indent=2)
        handle.write("\n")
    print(f"method: {report.method}")
    print(f"converged: {str(report.converged).lower()}")
    print(f"iterations: {report.iterations}")
    print(f"residual_norm: {report.residual_norm!r}")
    print(f"cost: {report.cost!r}")
    print(f"report written to {args.out}")
    return EXIT_OK


def _write_bench_outputs(prefix, entries):
    summary_path = f"{prefix}_summary.csv"
    trace_path = f"{prefix}_trace.csv"
    bench.write_summary_csv(summary_path, entries)
    bench.write_trace_csv(trace_path, entries)
    print(f"summary written to {summary_path}")
    print(f"trace written to {trace_path}")


def cmd_bench_pendulum(args) -> int:
    try:
        etas = tuple(float(tok) for tok in args.etas.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"could not parse --etas: {exc}") from exc
    if not etas:
        raise ValueError("--etas must list at least one value")
    methods = _parse_methods(args.methods)
    # every eta is range-checked here, before the first solve
    problems = [bench.pendulum_problem(eta) for eta in etas]
    entries = []
    for eta, problem in zip(etas, problems):
        result = bench.run_comparison(problem, methods)
        entries.append((0, eta, result))
        for rec in result.records:
            if rec.error:
                print(f"eta={eta} {rec.method}: {rec.error}", file=sys.stderr)
    _write_bench_outputs(args.out, entries)
    return EXIT_OK


def _run_instance(instance_seed, methods):
    """One bench-random instance: (seed, eta, ComparisonResult), or
    (seed, None, error text) when it raises an MnlqgError (such as
    RetryExhausted from the generator).

    Returns picklable data, so a forked child can send it back."""
    try:
        problem, eta = bench.random_problem(instance_seed)
        return instance_seed, eta, bench.run_comparison(problem, methods)
    except MnlqgError as exc:
        return instance_seed, None, str(exc)


def _worker_count(jobs, tasks):
    """--jobs capped by the number of tasks and the CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, tasks, cpus)


def _claim_and_run(run_instance, seeds, counter):
    """Run the next unclaimed seed until none is left; returns (index, row)
    pairs, the last of them with the exception in place of the row when an
    instance raised one.  A raise also ends every process's claims, so, as
    in a serial run, no seed after the failing one is started; the seeds
    before it were all claimed already and run to their end."""
    done = []
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(seeds):
            return done
        try:
            done.append((index, run_instance(seeds[index])))
        except Exception as exc:
            with counter.get_lock():
                counter.value = len(seeds)
            done.append((index, exc))
            return done


def _ended_without_report(pid, status):
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        how = f"exited with status {code}"
    else:
        try:
            how = f"was killed by {signal.Signals(-code).name}"
        except ValueError:  # a signal without a name, such as SIGRTMIN + 1
            how = f"was killed by signal {-code}"
    return RuntimeError(f"bench-random worker process {pid} {how} before it reported its rows")


def _fan_out(run_instance, seeds, workers):
    """Rows of ``run_instance`` over ``seeds`` in seed order, from this
    process and ``workers - 1`` forked children.

    Each process claims one seed at a time from a counter shared across the
    fork, so a slow instance holds up no other.  A child sends its (index,
    row) pairs back as one pickle on its own pipe and leaves by
    ``os._exit``, which flushes no stdio buffer it inherited.  The exception
    of the lowest failing seed is raised here, as a serial run would raise
    it; a child that ends without reporting raises RuntimeError.  Every
    child is reaped before this returns or raises; when it raises before
    they have all reported (a dead child, an interrupt), the ones still
    running are killed first.
    """
    # Imported here to keep them out of every command's start-up.
    import multiprocessing
    import pickle

    counter = multiprocessing.get_context("fork").Value("i", 0)
    children = []  # (pid, read end of its pipe)
    reaped = set()
    try:
        for _ in range(workers - 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    done = _claim_and_run(run_instance, seeds, counter)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(done, pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, read_fd))

        done = _claim_and_run(run_instance, seeds, counter)
        for pid, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if os.waitstatus_to_exitcode(status) != 0:
                raise _ended_without_report(pid, status)
            done += pickle.loads(payload)
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    rows = [None] * len(seeds)
    for index, row in done:
        rows[index] = row
    failures = [row for row in rows if isinstance(row, Exception)]
    if failures:
        raise failures[0]
    return rows


def cmd_bench_random(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    methods = _parse_methods(args.methods)
    seeds = [args.seed + index for index in range(args.count)]
    run_instance = functools.partial(_run_instance, methods=methods)

    workers = _worker_count(args.jobs, len(seeds))
    if workers == 1 or not hasattr(os, "fork"):
        results = list(map(run_instance, seeds))
    else:
        # The solves hold the interpreter lock, so only processes run them in
        # parallel.  fork, not spawn: a forked child starts with numpy and
        # mnlqg imported, where a spawned one would import them again for
        # every batch, and the calling process solves instances too instead
        # of waiting on an executor; the command starts no threads before it
        # forks.
        results = _fan_out(run_instance, seeds, workers)

    failed = False
    entries = []
    for instance_seed, eta, result in results:
        if eta is None:
            print(f"seed={instance_seed}: {result}", file=sys.stderr)
            failed = True
            continue
        entries.append((instance_seed, eta, result))
        for rec in result.records:
            if rec.error:
                print(f"seed={instance_seed} {rec.method}: {rec.error}", file=sys.stderr)
    _write_bench_outputs(args.out, entries)
    return EXIT_SOLVER if failed else EXIT_OK


def cmd_rollout(args) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    problem, code = _load_problem_checked(args.problem)
    if code is not None:
        return code
    ctrl = load_controller(_read(args.controller))
    estimate = bench.monte_carlo_cost(
        problem, ctrl, horizon=args.horizon, trials=args.trials, seed=args.seed
    )
    print(f"horizon: {estimate.horizon}")
    print(f"trials: {estimate.trials}")
    print(f"cost_mean: {estimate.cost_mean!r}")
    print(f"cost_stderr: {estimate.cost_stderr!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnlqg",
        description=(
            "Solvers and benchmarks for optimal linear dynamic output feedback "
            "of discrete-time systems with multiplicative noise."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a problem file against the format invariants")
    p.add_argument("problem", help="path to a problem JSON document")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve one problem instance")
    p.add_argument("problem", help="path to a problem JSON document")
    p.add_argument("--method", choices=("pi", "vi"), default="pi")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument(
        "--init",
        default="auto",
        help=(
            "initial policy for pi: 'auto' (open loop, falling back to the "
            "noise-free design), 'open-loop', 'lqg', or a controller JSON path"
        ),
    )
    p.add_argument("--trace", action="store_true", help="include e_k in the report history")
    p.add_argument("--out", required=True, help="path for the report JSON document")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench-pendulum", help="run the pendulum noise-level sweep")
    p.add_argument("--etas", required=True, help="comma-separated noise levels in [0, 1]")
    p.add_argument("--methods", default="pi,vi")
    p.add_argument("--out", required=True, help="output prefix for the CSV files")
    p.set_defaults(func=cmd_bench_pendulum)

    p = sub.add_parser("bench-random", help="run the random-ensemble comparison")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--methods", default="pi,vi")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="output prefix for the CSV files")
    p.set_defaults(func=cmd_bench_random)

    p = sub.add_parser("rollout", help="Monte-Carlo cost estimate for a controller")
    p.add_argument("problem", help="path to a problem JSON document")
    p.add_argument("controller", help="path to a controller JSON document")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_rollout)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MnlqgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as exc:  # never leak other nonzero exit codes
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
