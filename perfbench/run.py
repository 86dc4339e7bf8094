"""fashsim benchmark: one workload per invocation, every metric with its unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload optimize-paper --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for shapes and the reason each exists):
optimize-paper, ensemble-large, catalog-wide. One operation is one warm
``fashsim.cli.main([...])`` call, run in-process in a fresh worker process,
on a config generated from ``--seed``. Every operation's outputs are
checked (check.py); a failed check counts as a failed operation.

``--trace 0`` prints the end-to-end metrics, measured untraced:

- ``wall_s``: median wall time of one warm operation;
- ``agent_rounds_per_s``: agents x rounds x runs per operation over its
  wall time, median over operations;
- ``setup_s``: median, over several fresh processes, of the time to import
  fashsim and generate the workload's config;
- ``peak_rss_mib``: peak resident set of the measuring process;
- ``ok_frac``: operations that passed their check over operations attempted
  (1 - failed_frac; the attempted and failed counts are in the result line).

``--trace 1`` runs the workload untraced and then traced, each in its own
process and for half of ``--seconds``, and prints the per-layer metrics
(tracer.LAYER_METRICS) as medians over traced operations. The traced
outputs must be byte-identical to the untraced ones. ``trace.overhead_s``
is the traced minus the untraced median wall time.

Before the result, stdout carries the environment record and one line per
metric; the last line is the JSON result. The run exits non-zero without a
result if the checkout has no fashsim sources or a worker fails.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import BY_NAME  # noqa: E402

SETUP_PROBES = 9       # fresh processes timed for setup_s, besides the worker
TIME_LIMIT_S = 170.0   # the whole invocation must end within this

END_TO_END = (
    ("wall_s", "s"),
    ("agent_rounds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "frac"),
)


class WorkerError(RuntimeError):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git_head() -> str:
    """HEAD commit read from .git without running git; '' outside a repo."""
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    packed = _read(os.path.join(git, "packed-refs")).splitlines()
    return _read(os.path.join(git, ref)) or next(
        (line.split()[0] for line in packed if line.endswith(" " + ref)), "")


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_head": _git_head(),
        "loadavg_start": _read("/proc/loadavg"),
    }


def _worker(args, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker timed out: %s" % " ".join(args)) from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError("worker exited %d: %s" % (proc.returncode, " ".join(args)))
    return json.loads(lines[-1])


def _spread(values) -> str:
    if len(values) < 2:
        return "n=%d" % len(values)
    q = statistics.quantiles(values, n=4)
    return "n=%d q1=%.6g q3=%.6g" % (len(values), q[0], q[2])


def end_to_end(workload, base, seconds, tiny, deadline):
    """Untraced operations plus setup probes.

    Returns (rows of name, value, unit, note; attempted; failed; worker result).
    """
    ops = _worker(["ops", "--seconds", str(seconds)] + base, deadline)
    setups = [ops["setup_s"]] + [_worker(["setup"] + base, deadline)["setup_s"]
                                 for _ in range(SETUP_PROBES)]
    walls = ops["walls"]
    rates = [workload.agent_rounds(tiny) / w for w in walls]
    attempted, failed = ops["attempted"], ops["failed"]
    values = {
        "wall_s": (statistics.median(walls), _spread(walls)),
        "agent_rounds_per_s": (statistics.median(rates), _spread(rates)),
        "setup_s": (statistics.median(setups), _spread(setups)),
        "peak_rss_mib": (ops["peak_rss_mib"], "untraced process"),
        "ok_frac": ((attempted - failed) / attempted,
                    "failed_frac=%.6g attempted=%d failed=%d"
                    % (failed / attempted, attempted, failed)),
    }
    rows = [(name, values[name][0], unit, values[name][1]) for name, unit in END_TO_END]
    return rows, attempted, failed, ops


def per_layer(base, seconds, deadline):
    """Untraced then traced operations, each in its own process for half of
    seconds; the traced outputs must match the untraced digest.

    Returns (rows of name, value, unit, note; attempted; failed; worker result).
    """
    plain = _worker(["ops", "--seconds", str(seconds / 2)] + base, deadline)
    expect = ["--expect", ",".join(plain["digest"])] if plain["digest"] else []
    traced = _worker(["ops", "--trace", "--seconds", str(seconds / 2)] + base + expect,
                     deadline)
    layers = tracer.median_metrics(traced["layers"])
    layers["trace.overhead_s"] = (statistics.median(traced["walls"])
                                  - statistics.median(plain["walls"]))
    rows = [(name, layers[name], unit, "") for name, unit, _ in tracer.LAYER_METRICS]
    # Printed, not published: sanity checks on the trace itself.
    rows.append(("traced wall_s", statistics.median(traced["walls"]), "s",
                 _spread(traced["walls"])))
    rows.append(("accounted", layers["accounted"], "frac",
                 "self times over traced wall; above 1 when ensemble threads overlap"))
    return (rows, plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fashsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-scale shapes, for the benchmark's own test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "fashsim", "cli.py")):
        print("perfbench: no fashsim sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    env = environment()
    workload = BY_NAME[args.workload]
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=scratch)
    base = ["--workload", workload.name, "--seed", str(args.seed), "--work", work]
    if args.tiny:
        base.append("--tiny")
    try:
        if args.trace:
            rows, attempted, failed, ops = per_layer(base, args.seconds, deadline)
        else:
            rows, attempted, failed, ops = end_to_end(
                workload, base, args.seconds, args.tiny, deadline)
    except WorkerError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another invocation is still using it

    env.update(backend=ops["backend"], numpy=ops["numpy"],
               loadavg_end=_read("/proc/loadavg"))
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "trace": args.trace, "environment": env}))
    for row in rows:
        print("%-38s %14.6g %-5s %s" % row)
    published = {name for name, _ in END_TO_END} | {m[0] for m in tracer.LAYER_METRICS}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows if name in published},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
