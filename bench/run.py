"""Benchmark of the quiverhh CLI: one workload per run, or all of them.

    python3 bench/run.py --workload lie --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1

A run writes the workload's inputs from the seed, then runs its job list
in fresh processes (``worker.py``), one pass per process, until
``--seconds`` are used.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates traced and untraced passes and
reports the per-layer metrics.  The last line of stdout is one JSON object;
a readable summary goes to stderr.  ``--all`` runs every workload both
ways and prints every metric by name, with its unit.

Exit status 0 with a result line, 2 without one (no program to measure, a
child process that crashed or ran out of time).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPS = 3
MIN_PLAIN = 3
# two traced passes, so the benchmark can check that every count repeats
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child(args):
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s ran out of time" % args[0]) from None
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d: %s"
                         % (args[0], proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def deterministic(metric):
    return metric["unit"] != "s" and not metric["name"].startswith("trace.")


class Run:
    """Set-up, passes and metrics of one workload at one seed."""

    def __init__(self, spec, workload, seed, seconds, trace):
        self.spec = spec
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = os.path.join(HERE, ".work", "%s-%d-%d" % (workload, seed, os.getpid()))
        self.problems = []
        self.attempted = 0
        self.misses = []
        self.wrong = 0

    def execute(self):
        os.makedirs(self.workdir)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _execute(self):
        setups = [child(["setup", self.workload, str(self.seed), self.workdir])
                  for _ in range(SETUP_REPS)]
        if len({s["digest"] for s in setups}) != 1:
            self.problems.append("one seed wrote different inputs")
        plain, traced = self._passes()
        if self.trace:
            metrics = self._layer_metrics(plain, traced)
        else:
            metrics = self._end_to_end(setups, plain)
        self.jobs = setups[0]["jobs"]
        self.pass_walls = [p["wall_s"] for p in plain], [p["wall_s"] for p in traced]
        return metrics

    def _pass(self, traced, index):
        args = ["jobs", self.workdir]
        span_file = os.path.join(self.workdir, "spans-%d.json" % index)
        if traced:
            args += ["--trace", span_file]
        result = child(args)
        for job in result["jobs"]:
            self.attempted += 1
            if job["miss"]:
                self.misses.append("%s: %s" % (job["id"], job["miss"]))
            self.wrong += job["wrong"]
        if traced:
            from tracer import summarize

            result["layers"] = summarize(span_file, result["wall_s"])
            os.remove(span_file)
        return result

    def _passes(self):
        plain, traced = [], []
        kinds = [True, False] if self.trace else [False]
        min_plain, min_traced = (1, MIN_TRACED) if self.trace else (MIN_PLAIN, 0)
        deadline = time.perf_counter() + self.seconds
        k = 0
        while True:
            kind = kinds[k % len(kinds)]
            done = traced if kind else plain
            if len(plain) >= min_plain and len(traced) >= min_traced:
                typical = statistics.median(p["wall_s"] for p in done) if done else 0.0
                if time.perf_counter() + typical > deadline:
                    break
            done.append(self._pass(kind, k))
            k += 1
        return plain, traced

    def _end_to_end(self, setups, plain):
        per_job = {}
        for p in plain:
            for job in p["jobs"]:
                per_job.setdefault(job["id"], []).append(job["seconds"])
        job_s = sorted(statistics.median(v) for v in per_job.values())
        return {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "job_s_p50": statistics.median(job_s),
            "job_s_p90": statistics.quantiles(job_s, n=10, method="inclusive")[-1],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }

    def _layer_metrics(self, plain, traced):
        layers = [p["layers"] for p in traced]
        out = {}
        for m in self.spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_ratio":
                out[name] = (statistics.median(p["wall_s"] for p in traced)
                             / statistics.median(p["wall_s"] for p in plain))
                continue
            values = [lay[name] for lay in layers]
            if deterministic(m):
                if len(set(values)) != 1:
                    self.problems.append("%s differs between traced passes: %s"
                                         % (name, values))
                out[name] = values[0]
            else:
                out[name] = statistics.median(values)
        return out

    def result(self, metrics):
        listed = self.spec["per_layer" if self.trace else "end_to_end"]
        missing = [m["name"] for m in listed if m["name"] not in metrics]
        if missing:
            raise BenchError("metrics not measured: %s" % ", ".join(missing))
        return {
            "correct": not self.wrong and not self.problems,
            "attempted": self.attempted,
            "failed": len(self.misses),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in listed},
        }

    def summary(self, result):
        lines = ["workload %s, seed %d, trace %d: %d jobs per pass" % (
            self.workload, self.seed, self.trace, self.jobs)]
        for kind, walls in zip(("untraced", "traced"), self.pass_walls):
            if walls:
                lines.append("  %d %s passes, wall s: %s" % (
                    len(walls), kind, " ".join("%.3f" % w for w in walls)))
        for name, m in result["metrics"].items():
            lines.append("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
        lines.append("  %-40s %14.6g ratio (%d of %d jobs)" % (
            "failed_ratio", result["failed"] / result["attempted"],
            result["failed"], result["attempted"]))
        lines += ["  miss: %s (%d times)" % (miss, k)
                  for miss, k in sorted(collections.Counter(self.misses).items())[:20]]
        lines += ["  problem: %s" % p for p in self.problems]
        return "\n".join(lines)


def load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quiverhh", "cli.py")):
        print("error: no program to measure at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.all:
        plan = [(w, t) for w in names for t in (0, 1)]
    elif args.workload in names:
        plan = [(args.workload, args.trace)]
    else:
        parser.error("--workload must be one of %s, or pass --all" % ", ".join(names))
    try:
        for workload, trace in plan:
            run = Run(spec, workload, args.seed, seconds, trace)
            result = run.result(run.execute())
            print(run.summary(result), file=sys.stderr if not args.all else sys.stdout)
            sys.stderr.flush()
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if not args.all:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
