"""The three benchmark workloads.

Each workload drives the public CLI in-process (``mnlqg.cli.main``), closed
loop: one caller issues a command and waits for it to return before the
next.  A workload object knows how to set itself up from the seed, which
argv its i-th timed command gets, how to read that command's output, how to
check it, and how much work it represents.

* ``ensemble``: ``bench-random --count N --jobs 2 --methods pi,vi`` over a
  fixed set of windows of the n=2 random family, run in passes whose order
  the workload seed sets.  Stresses the VI residual (``riccati``),
  ``bench.random_problem``'s noise bisection and the ``--jobs`` pool; its
  Lyapunov solves have 16 unknowns, so it bypasses ``moments`` changes.
* ``pi-large``: ``solve --method pi --init auto`` on one n=10, m=2, p=2
  instance at 0.5 of critical noise, generated from INSTANCE_SEED.  Stresses policy evaluation
  (``matrixmath.solve_linear_extended``, ``moments.spectral_radius``);
  ``riccati_residual`` runs once and there is no pool, so it bypasses
  ``riccati`` and pool changes.
* ``rollout``: ``rollout`` of a PI-solved controller on an n=4, m=2, p=2
  instance at 0.5 of critical noise, generated from INSTANCE_SEED; the
  workload seed seeds the rollouts.  Measures the Monte-Carlo loop in
  ``bench.monte_carlo_cost`` and touches no solver layer.  (At 0.8 the
  per-trial cost is so heavy-tailed that the 5-standard-error check fails
  on correct output: z-scores down to -6 were seen in 25 rollouts.)

The ``pi-large`` and ``rollout`` instances do not depend on the workload
seed.  Their generation (a noise bisection, and for ``rollout`` a PI solve)
is part of set-up, and its cost and the solve's iteration count differ
from instance to instance; a fixed instance keeps ``setup_s`` and the solve
time comparable across seeds.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os

import numpy as np

from instances import synthetic_problem

HERE = os.path.dirname(os.path.abspath(__file__))

# Summary columns that hold wall-clock measurements; every other column is
# deterministic given the seeds.
WALL_COLUMNS = ("wall_seconds", "ratio_time")

RESIDUAL_LIMIT = 1e-9
COST_AGREEMENT = 1e-9
MC_STDERRS = 5.0
INSTANCE_SEED = 11  # seed of the pi-large and rollout instances


def check_summary(rows) -> list[str]:
    """Problems with bench-random summary rows: every row converged with a
    residual of at most 1e-9, and PI and VI costs agree per instance."""
    errors = []
    by_seed = {}
    for row in rows:
        label = f"seed {row['seed']} {row['method']}"
        if row["error"] or row["converged"] != "true":
            errors.append(f"{label}: {row['error'] or 'not converged'}")
            continue
        if not float(row["final_residual"]) <= RESIDUAL_LIMIT:
            errors.append(f"{label}: residual {row['final_residual']}")
        by_seed.setdefault(row["seed"], {})[row["method"]] = float(row["cost_J"])
    for seed, costs in by_seed.items():
        if len(costs) != 2:
            continue
        pi, vi = costs["policy_iteration"], costs["value_iteration"]
        if abs(pi - vi) > COST_AGREEMENT * (1.0 + abs(pi)):
            errors.append(f"seed {seed}: PI cost {pi!r} vs VI cost {vi!r}")
    return errors


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    jobs = 1  # --jobs for bench-random; 1 everywhere else
    traced_commands = 1  # commands replayed under the tracer (--trace 1)
    min_commands = 1  # timed commands a run issues even past --seconds
    setup_repeats = 15  # set-ups per run; setup_s takes their median

    def __init__(self, mnlqg, seed: int, workdir: str):
        self.mnlqg = mnlqg
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, text: str) -> str:
        """Write a set-up file; a repeated set-up must write the same bytes."""
        path = self.path(name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                if handle.read() != text:
                    raise RuntimeError(f"set-up is not deterministic: {name} changed")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def sizes(self) -> dict:
        raise NotImplementedError

    def setup(self) -> list[str]:
        """Build the inputs; returns the argv of the warm-up command."""
        raise NotImplementedError

    def argv(self, i: int, tag: str, jobs: int) -> list[str]:
        raise NotImplementedError

    def output(self, i: int, tag: str, stdout: str):
        """The command's result, reduced to the parts that must repeat exactly."""
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Problems with a command's result; empty when it is correct."""
        raise NotImplementedError

    def work(self, out) -> int:
        """Work units the command completed (see BENCHMARK.json)."""
        raise NotImplementedError

    def key(self, i: int):
        """The input of the i-th timed command; commands with equal keys
        repeat the same work.  Here every command does."""
        return 0


class Ensemble(Workload):
    name = "ensemble"
    jobs = 2
    count = 2
    windows = 32  # batches in a pass; every run works through whole passes
    traced_commands = min_commands = windows

    def __init__(self, mnlqg, seed, workdir):
        super().__init__(mnlqg, seed, workdir)
        with open(os.path.join(HERE, "ensemble_pool.json"), encoding="utf-8") as handle:
            pool = json.load(handle)
        excluded = {int(s) for s in pool["excluded"]}
        size = pool["pool_size"]
        allowed = [
            s
            for s in range(size - self.count + 1)
            if not excluded.intersection(range(s, s + self.count))
        ]
        # The same windows, evenly spaced over the pool, for every seed:
        # instance costs differ tenfold, so a seed-drawn set would make the
        # work of a run depend on the seed.  The seed orders each pass.
        step = len(allowed) // self.windows
        self.starts = allowed[::step][: self.windows]
        self.rng = np.random.default_rng(seed)
        self.order = []

    def sizes(self):
        return {"count": self.count, "jobs": self.jobs, "windows": self.starts}

    def setup(self):
        return self._argv(self.starts[0], "warmup", self.jobs)

    def _argv(self, start, prefix, jobs):
        return [
            "bench-random", "--count", str(self.count), "--seed", str(start),
            "--jobs", str(jobs), "--methods", "pi,vi", "--out", self.path(prefix),
        ]

    def key(self, i):
        while len(self.order) <= i:
            self.order.extend(self.rng.permutation(self.starts).tolist())
        return self.order[i]

    def argv(self, i, tag, jobs):
        return self._argv(self.key(i), f"{tag}{i}", jobs)

    def output(self, i, tag, stdout):
        with open(self.path(f"{tag}{i}_summary.csv"), newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        return [{k: v for k, v in row.items() if k not in WALL_COLUMNS} for row in rows]

    def check(self, rows):
        errors = check_summary(rows)
        seeds = {row["seed"] for row in rows}
        if len(seeds) != self.count:
            errors.append(f"{len(seeds)} instances in the summary, expected {self.count}")
        return errors

    def work(self, rows):
        return len({row["seed"] for row in rows})


class PiLarge(Workload):
    name = "pi-large"
    traced_commands = 2
    setup_repeats = 5  # one set-up costs about 2 s
    n, m, p, noise_fraction = 10, 2, 2, 0.5

    def sizes(self):
        return {
            "n": self.n, "m": self.m, "p": self.p, "noise_fraction": self.noise_fraction,
            "instance_seed": INSTANCE_SEED,
        }

    def setup(self):
        problem = synthetic_problem(
            self.mnlqg, INSTANCE_SEED, self.n, self.m, self.p, self.noise_fraction
        )
        self.problem_path = self.write("problem.json", self.mnlqg.save_problem(problem))
        self.problem = problem
        return ["validate", self.problem_path]

    def argv(self, i, tag, jobs):
        return [
            "solve", self.problem_path, "--method", "pi", "--init", "auto",
            "--out", self.path(f"{tag}{i}.json"),
        ]

    def output(self, i, tag, stdout):
        with open(self.path(f"{tag}{i}.json"), encoding="utf-8") as handle:
            doc = json.load(handle)
        for entry in doc["history"]:
            del entry["seconds"]
        return doc

    def check(self, doc):
        if not doc["converged"]:
            return ["solve did not converge"]
        sol = doc["solution"]
        X = self.mnlqg.ValueCovarianceTuple(sol["P"], sol["Phat"], sol["S"], sol["Shat"])
        residual = self.mnlqg.riccati_residual(X, self.problem).max_norm()
        if not residual <= RESIDUAL_LIMIT:
            return [f"riccati residual {residual!r} of the reported solution"]
        return []

    def work(self, doc):
        # One solve, so work_per_s is 1 / solve_s.
        return 1


class Rollout(Workload):
    name = "rollout"
    n, m, p, noise_fraction = 4, 2, 2, 0.5
    horizon, trials = 5000, 200
    traced_commands = 20

    def sizes(self):
        return {
            "n": self.n, "m": self.m, "p": self.p, "noise_fraction": self.noise_fraction,
            "horizon": self.horizon, "trials": self.trials, "instance_seed": INSTANCE_SEED,
        }

    def setup(self):
        mnlqg = self.mnlqg
        problem = synthetic_problem(
            mnlqg, INSTANCE_SEED, self.n, self.m, self.p, self.noise_fraction
        )
        self.problem_path = self.write("problem.json", mnlqg.save_problem(problem))
        report_path = self.path("pi_report.json")
        code = mnlqg.cli.main(
            ["solve", self.problem_path, "--method", "pi", "--init", "auto", "--out", report_path]
        )
        if code != 0:
            raise RuntimeError(f"PI solve for the rollout controller exited {code}")
        with open(report_path, encoding="utf-8") as handle:
            gains = json.load(handle)["controller"]
        ctrl = mnlqg.Controller(gains["F"], gains["K"], gains["L"])
        self.controller_path = self.write("controller.json", mnlqg.save_controller(ctrl))
        self.cost, self.bias = self._reference(problem, ctrl)
        return self._argv(50, self.seed)

    def _reference(self, problem, ctrl):
        """Lyapunov cost J and the bound on the finite-horizon bias.

        From x0 = 0 the second moment S'_t rises monotonically to S', so the
        horizon-H average cost lies in [J - b/H, J] with
        b = <Q', Y>, Y = Gamma(Y) + S' (the summed deficits S' - S'_t).
        """
        moments = self.mnlqg.moments
        aug, sol, cost = moments.evaluate_policy(problem, ctrl)
        deficit = moments.solve_lyapunov(dataclasses.replace(aug, Wprime=sol.Sprime), "covariance")
        return cost, float(np.tensordot(deficit, aug.Qprime, axes=2))

    def _argv(self, horizon, seed):
        return [
            "rollout", self.problem_path, self.controller_path,
            "--horizon", str(horizon), "--trials", str(self.trials), "--seed", str(seed),
        ]

    def argv(self, i, tag, jobs):
        return self._argv(self.horizon, self.seed * 1000 + i)

    def output(self, i, tag, stdout):
        fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        return {
            "horizon": int(fields["horizon"]),
            "trials": int(fields["trials"]),
            "cost_mean": float(fields["cost_mean"]),
            "cost_stderr": float(fields["cost_stderr"]),
        }

    def check(self, out):
        mean, stderr = out["cost_mean"], out["cost_stderr"]
        low = self.cost - self.bias / out["horizon"] - MC_STDERRS * stderr
        high = self.cost + MC_STDERRS * stderr
        if not low <= mean <= high:
            return [f"Monte-Carlo mean {mean!r} outside [{low!r}, {high!r}] (J = {self.cost!r})"]
        return []

    def work(self, out):
        return out["horizon"] * out["trials"]


WORKLOADS = {cls.name: cls for cls in (Ensemble, PiLarge, Rollout)}
