"""One measuring process of the benchmark; started by run.py, never imported by it.

Usage (from the repository root):

    python3 perfbench/worker.py setup  --workload W --seed N --work DIR
    python3 perfbench/worker.py ops    --workload W --seed N --work DIR
                                       --seconds S [--trace] [--expect SHA,SHA]

``setup`` times importing fashsim and generating the workload's config in
this fresh process. ``ops`` does the same, then runs one warm-up operation
and timed operations until ``--seconds`` are spent, checking each
operation's outputs. Either prints one JSON object as its last stdout line.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
from workloads import BY_NAME, DEFAULT_SEED, REFERENCE_DIGESTS  # noqa: E402


def setup(workload, seed: int, work: str, tiny: bool):
    """Import fashsim from this checkout and write the config; returns
    (cli module, config path, seconds taken)."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fashsim.cli
    path = os.path.join(work, "workload.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(seed, tiny))
    elapsed = time.perf_counter() - t0
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(fashsim.cli.__file__).startswith(src + os.sep):
        raise SystemExit("perfbench: fashsim imported from %s, not from %s"
                         % (fashsim.cli.__file__, src))
    return sys.modules["fashsim.cli"], path, elapsed


class Checker:
    """Verdict per output digest, plus run-wide determinism.

    All operations of a run use one config, so all must produce the same
    bytes: the reference digest when one is stored or given, else the
    digest of the first operation that passed the invariant checks.
    """

    def __init__(self, expected=None):
        self.expected = expected
        self.verdicts = {}

    def ok(self, out_dir: str) -> bool:
        got = check.digest(out_dir)
        if self.expected is not None:
            return got == self.expected
        if got not in self.verdicts:
            problem = check.invariant_errors(out_dir)
            if problem is not None:
                print("perfbench: output check failed: %s" % problem, file=sys.stderr)
            self.verdicts[got] = problem is None
        if self.verdicts[got]:
            self.expected = got
        return self.verdicts[got]


def measure(cli, workload, config: str, out_dir: str, seconds: float,
            checker: Checker, recorder=None, corrupt_op: int = -1):
    """Warm-up operation, then timed operations for about `seconds`.

    Returns (wall times of the timed operations, per-layer metrics per
    timed operation or [], attempted, failed). corrupt_op damages that
    operation's trace.csv before the check, for the benchmark's own test.
    """
    argv = [workload.command, "--config", config, "--out", out_dir]
    walls, layers = [], []
    attempted = failed = 0
    t_end = None
    while True:
        gc.collect()
        if recorder is not None:
            recorder.reset()
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        if attempted == corrupt_op:
            with open(os.path.join(out_dir, "trace.csv"), "a", encoding="utf-8") as fh:
                fh.write("corrupted\n")
        passed = code == 0 and checker.ok(out_dir)
        if code != 0:
            print("perfbench: fashsim exited %d" % code, file=sys.stderr)
        failed += not passed
        if t_end is None:  # the warm-up operation is checked, not timed
            t_end = time.perf_counter() + seconds
        else:
            walls.append(wall)
            if recorder is not None:
                layers.append(_layer_metrics(recorder, out_dir))
        attempted += 1
        # Stop when the next operation would likely overrun the budget.
        left = t_end - time.perf_counter()
        if len(walls) >= 3 and left < sorted(walls)[len(walls) // 2]:
            break
    return walls, layers, attempted, failed


def _layer_metrics(recorder, out_dir):
    import tracer
    values = tracer.operation_metrics(recorder.spans)
    with open(os.path.join(out_dir, "trace.csv"), "rb") as fh:
        values["cli.rows_written"] = sum(1 for _ in fh) - 1
    values["cli.bytes_written"] = sum(
        os.path.getsize(os.path.join(out_dir, f))
        for f in ("trace.csv", "summary.json", "manifest.json"))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "ops"))
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--expect", help="required trace.csv,summary.json digests")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = BY_NAME[args.workload]
    os.makedirs(args.work, exist_ok=True)
    cli, config, setup_s = setup(workload, args.seed, args.work, args.tiny)
    result = {"setup_s": setup_s}
    if args.mode == "ops":
        import numpy
        recorder = None
        if args.trace:
            import tracer
            recorder = tracer.install()
        if args.expect:
            expected = tuple(args.expect.split(","))
        elif args.seed == DEFAULT_SEED:
            expected = REFERENCE_DIGESTS.get((workload.name, args.tiny))
        else:
            expected = None
        checker = Checker(expected)
        walls, layers, attempted, failed = measure(
            cli, workload, config, os.path.join(args.work, "out"),
            args.seconds, checker, recorder)
        result.update(
            walls=walls, layers=layers, attempted=attempted, failed=failed,
            digest=checker.expected,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            backend=sys.modules["fashsim.kernel"].BACKEND,
            numpy=numpy.__version__,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
