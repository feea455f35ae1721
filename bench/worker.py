"""One benchmark child process: write a workload's inputs, or run its jobs.

    python3 bench/worker.py setup WORKLOAD SEED WORKDIR
    python3 bench/worker.py jobs WORKDIR [--trace SPANFILE]

``setup`` times the import of quiverhh plus writing every input file.
``jobs`` runs each job of WORKDIR/jobs.json once, in this process, as a
call of ``quiverhh.cli.main`` with stdout and stderr captured, then checks
the outputs.  Both print one JSON object on stdout.  The program is always
imported from the ``src`` directory of the checkout holding this file.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program():
    sys.path.insert(0, SRC)
    import quiverhh.cli

    where = os.path.dirname(os.path.abspath(quiverhh.cli.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError("quiverhh imported from %s, not from %s" % (where, SRC))
    return quiverhh.cli


def digest(workdir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        h.update(name.encode())
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def setup(workload, seed, workdir):
    import_program()
    import workloads

    jobs = workloads.generate(workload, seed, workdir)
    setup_s = time.perf_counter() - START
    return {"setup_s": setup_s, "jobs": len(jobs), "digest": digest(workdir)}


def run_jobs(workdir, span_file=None):
    cli = import_program()
    import workloads

    with open(os.path.join(workdir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = None
    if span_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outcomes = []
    clock = time.perf_counter
    t_start = clock()
    for k, job in enumerate(jobs):
        argv = [job["argv"][0]] + [os.path.join(workdir, a) for a in job["argv"][1:]]
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.begin_job(k)
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:  # any exception is a failed job, never fatal
            code = "%s: %s" % (type(exc).__name__, exc)
        outcomes.append((clock() - t0, code, out.getvalue()))
    wall_s = clock() - t_start
    if tracer:
        tracer.write(span_file)
    results = []
    for job, (seconds, code, stdout) in zip(jobs, outcomes):
        miss, wrong = workloads.check(job, code, stdout)
        results.append({"id": job["id"], "seconds": seconds, "miss": miss, "wrong": wrong})
    return {"wall_s": wall_s, "jobs": results, "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb():
    # VmHWM belongs to this process's own address space; ru_maxrss would
    # also count the parent's resident set at the fork before exec
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def main(argv):
    sys.path.insert(0, HERE)
    if argv[0] == "setup":
        result = setup(argv[1], int(argv[2]), argv[3])
    elif argv[0] == "jobs":
        span_file = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
        result = run_jobs(argv[1], span_file)
    else:
        raise SystemExit("usage: worker.py setup|jobs ...")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
