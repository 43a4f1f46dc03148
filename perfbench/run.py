"""Benchmark of the talbotsim command line, run from the root of a checkout.

    python3 perfbench/run.py --workload carpet_grid --seed 1 --seconds 38 --trace 0

Each workload is a closed loop with one client: a pass runs the workload's
commands one after another, each a fresh ``python -m talbotsim`` process,
and passes repeat while one more fits in --seconds.  Wall time, CPU time
and peak RSS of every child come from os.wait4.  Children run with one
BLAS/OpenMP thread (BENCH_THREADS): on a host of a few shared cores, a
second BLAS thread makes the timing depend on whether a neighbour holds
the other core, not on the program.  Set-up is ``--help``, timed once
before each pass.  Before the passes, the run checks the workload's
default-setting outputs against the SHA-256 hashes in golden.json; after
them, it checks the last pass's outputs against the references in refs.py
and that every pass wrote the same bytes.

With --trace 1 the same commands run in one child process instead
(tracing.py), alternating untraced and traced passes, and the per-layer
metrics of the median traced pass are reported.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end ones untraced, per-layer ones traced); the lines
before it are a readable report and the environment record.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from checks import check_pass
from tracing import PER_LAYER, output_digests
from workloads import GOLDEN_COMMANDS, WORKLOADS, make_inputs, pass_commands, write_input_files

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
SETUP_SAMPLES = 7
IMPORT_PROBE = (
    "import json, time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import talbotsim.cli; t2 = time.perf_counter(); "
    "print(json.dumps({'import.numpy_s': t1 - t0, 'import.talbotsim_s': t2 - t1}))"
)
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "TALBOT_THREADS")
BENCH_THREADS = {name: "1" for name in THREAD_VARIABLES}


def child_env(pinned=True) -> dict:
    """Environment of a child: the package on the path and, if pinned, BENCH_THREADS."""
    env = dict(os.environ)
    if pinned:
        env.update(BENCH_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SOURCE, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, cwd, stdout_path, pinned=True):
    """Run one child to completion; returns wall, cpu (s), peak RSS (MB), code, stdout."""
    start = time.perf_counter()
    with open(stdout_path, "wb") as out:
        child = subprocess.Popen(argv, cwd=cwd, env=child_env(pinned), stdout=out)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, encoding="ascii", errors="replace") as handle:
        text = handle.read()
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": child.returncode,
        "stdout": text,
    }


def talbotsim(args):
    return [sys.executable, "-m", "talbotsim", *args]


def fits(start, done, seconds):
    """Whether one more pass, as long as the average so far, ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def check_golden(workload, workdir, stdout_path):
    """(commands run, commands failed, mismatching outputs) for the workload's goldens.

    The goldens are the outputs of the default settings in the default
    environment, so these commands run with the machine's own BLAS threads:
    the fidelity CSV is not byte-identical across BLAS thread counts.
    """
    with open(os.path.join(HERE, "golden.json"), encoding="ascii") as handle:
        golden = json.load(handle)[workload]
    failed = mismatches = 0
    for args, files in GOLDEN_COMMANDS[workload]:
        result = run_child(talbotsim(args), workdir, stdout_path, pinned=False)
        digests = output_digests(workdir, [])
        bad = sum(digests.get(name) != golden[name] for name in files)
        mismatches += bad
        failed += result["code"] != 0 or bad > 0
    return len(GOLDEN_COMMANDS[workload]), failed, mismatches


def summarize(values):
    """Median, quartiles, count, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else (ordered[0],) * 3
    tail = {"p": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]} if n > 10 else None
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": n, "tail": tail}


def environment(load_before):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "child_threads": BENCH_THREADS,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def measure_untraced(workload, inputs, commands, passdir, stdout_path, seconds):
    """Timed subprocess passes; returns (end-to-end metrics, attempted, failed, report)."""
    # One set-up sample before each pass, so that set-up and passes are
    # sampled over the same stretch of the run; topped up to SETUP_SAMPLES.
    setup, passes, digests = [], [], []
    start = time.perf_counter()
    while not passes or fits(start, len(passes), seconds):
        setup.append(run_child(talbotsim(["--help"]), passdir, stdout_path))
        results = [run_child(talbotsim(args), passdir, stdout_path) for args in commands]
        passes.append(results)
        digests.append(output_digests(passdir, [r["stdout"] for r in results]))
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_child(talbotsim(["--help"]), passdir, stdout_path))
    setup_failed = sum(r["code"] != 0 for r in setup)

    verdicts, accuracy = check_pass(workload, inputs, passdir, [r["stdout"] for r in passes[-1]])
    failed = 0
    for results, digest in zip(passes, digests):
        same = digest == digests[0]
        failed += sum(r["code"] != 0 or not same or not ok for r, ok in zip(results, verdicts))

    walls = [sum(r["wall"] for r in results) for results in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(r["cpu"] for r in results) for results in passes),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in results) for results in passes),
        "setup_s": statistics.median(r["wall"] for r in setup),
    }
    report = {"wall_s": summarize(walls), "setup_s": summarize([r["wall"] for r in setup]),
              "accuracy": accuracy}
    return metrics, len(setup) + len(commands) * len(passes), setup_failed + failed, report


def measure_traced(workload, inputs, commands, workdir, passdir, stdout_path, seconds):
    """One in-process child alternating plain and traced passes; per-layer metrics."""
    probes = [run_child([sys.executable, "-c", IMPORT_PROBE], passdir, stdout_path)
              for _ in range(SETUP_SAMPLES)]
    probe_failed = sum(r["code"] != 0 for r in probes)
    imports = [json.loads(r["stdout"]) for r in probes if r["code"] == 0]

    plan = os.path.join(workdir, "plan.json")
    summary_path = os.path.join(workdir, "summary.json")
    with open(plan, "w", encoding="ascii") as handle:
        json.dump({"commands": commands, "workdir": passdir, "seconds": seconds,
                   "summary": summary_path}, handle)
    child = subprocess.run([sys.executable, os.path.join(HERE, "tracing.py"), plan],
                           cwd=ROOT, env=child_env(), check=False)
    if child.returncode != 0:
        return {}, len(probes) + 1, probe_failed + 1, {}
    with open(summary_path, encoding="ascii") as handle:
        summary = json.load(handle)

    verdicts, accuracy = check_pass(workload, inputs, passdir, summary["stdouts"])
    passes = len(summary["codes"]) // len(commands)
    failed = sum(code != 0 for code in summary["codes"])
    failed += passes * sum(not ok for ok in verdicts)
    if not summary["identical_outputs"]:
        failed = len(summary["codes"])

    metrics = dict(summary["metrics"])
    for name in ("import.numpy_s", "import.talbotsim_s"):
        metrics[name] = statistics.median(sample[name] for sample in imports)
    report = {"plain_walls": summarize(summary["plain_walls"]),
              "traced_walls": summarize(summary["traced_walls"]),
              "identical_outputs": summary["identical_outputs"], "accuracy": accuracy}
    return metrics, len(probes) + len(summary["codes"]), probe_failed + failed, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SOURCE, "talbotsim", "cli.py")):
        print(f"error: no talbotsim sources under {SOURCE}; run from a checkout",
              file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    passdir, goldendir = os.path.join(workdir, "pass"), os.path.join(workdir, "golden")
    stdout_path = os.path.join(workdir, "stdout.txt")
    inputs = make_inputs(args.workload, args.seed)
    commands = pass_commands(args.workload, inputs)
    try:
        os.makedirs(passdir)
        os.makedirs(goldendir)
        write_input_files(args.workload, inputs, passdir)
        golden_run, golden_failed, mismatches = check_golden(args.workload, goldendir, stdout_path)
        if args.trace:
            metrics, attempted, failed, report = measure_traced(
                args.workload, inputs, commands, workdir, passdir, stdout_path, args.seconds)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, attempted, failed, report = measure_untraced(
                args.workload, inputs, commands, passdir, stdout_path, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    attempted += golden_run
    failed += golden_failed
    # Reported by name, not gated by a bound: they are 0 when all is well
    # (error_rate, golden_mismatches) or apply to one workload (accuracy).
    checked = {"error_rate": (failed / attempted, "ratio"),
               "golden_mismatches": (mismatches, "count")}
    checked.update({name: (value, "abs") for name, value in report.get("accuracy", {}).items()})
    print("environment " + json.dumps(environment(load_before)))
    print("inputs " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "commands": commands}))
    print("report " + json.dumps(report))
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]!r} {unit}")
    for name, (value, unit) in checked.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
