"""Closed-loop benchmark of the sturmion CLI, run in process.

    python3 perfbench/run.py --workload chain-rational --seed 1 --seconds 20 --trace 0

One client sends one op at a time to ``sturmion.cli.main(argv)`` with stdout
captured, and checks each output against a computation made apart from the
program.  The run goes on in whole rounds of the workload (see workloads.py)
until the ops have taken ``--seconds`` of wall time and, without tracing, at
least MIN_OPS ops were attempted.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A fuller record goes to ``perfbench/out/``.

With ``--trace 1`` the first half of the time runs untraced and the second
half runs the same ops again with every public sturmion function wrapped
(tracing.py); the difference between the two op rates is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# p90 has at least ten ops beyond it once a run has 100.
MIN_OPS = 100
SETUP_LAUNCHES = 7
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import sturmion.cli
sturmion.cli.build_parser()
print(time.perf_counter() - start)
"""


def setup_time() -> float:
    """Seconds from just before ``import sturmion.cli`` until
    ``build_parser()`` returns, in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout)


def execute(cli, op):
    """Run one op; return (seconds, exit code or error text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # a traceback from the CLI: the op failed
            code = f"{type(exc).__name__}: {exc}"
        took = perf_counter() - start
    return took, code, out.getvalue()


class Run:
    """Counts and timings of the ops of one loop."""

    def __init__(self):
        self.times = []          # one per attempted op; inf when it failed
        self.failed = 0
        self.passed = 0
        self.bad = []            # outputs that failed their check
        self.unexpected = []     # failures that are not a known fault
        self.output_bytes = 0
        self.op_seconds = 0.0
        self.rounds = 0

    def record(self, op, took, code, text):
        self.op_seconds += took
        self.output_bytes += len(text.encode())
        if code != 0:
            self.failed += 1
            self.times.append(math.inf)
            if not op.known_fault:
                self.unexpected.append(f"{' '.join(op.argv)}: exit {code}")
            return
        self.times.append(took)
        try:
            op.check(json.loads(text))
        except (AssertionError, KeyError, TypeError, ValueError) as exc:
            self.bad.append(f"{' '.join(op.argv)}: {exc}")
        else:
            self.passed += 1

    @property
    def attempted(self) -> int:
        return len(self.times)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile; failed ops rank above every completed one."""
        ordered = sorted(self.times)
        return ordered[math.ceil(q * len(ordered)) - 1]


def loop(cli, workload, seed, seconds, min_ops=1, between_rounds=None,
         tracer=None) -> Run:
    from workloads import rounds
    run = Run()
    for ops in rounds(workload, seed):
        if run.op_seconds >= seconds and run.attempted >= min_ops:
            break
        for op in ops:
            if tracer is not None:
                tracer.op = run.attempted
            run.record(op, *execute(cli, op))
        run.rounds += 1
        if between_rounds is not None:
            between_rounds(run)
    return run


def warm_up(cli):
    """First calls pay for lazy imports and caches that a user pays once."""
    for argv in (["chain", "--grid", "linear", "--n", "3"],
                 ["chain", "--grid", "trig1", "--n", "3"],
                 ["verify", "--nmax", "1"],
                 ["count", "--poly", "x^2-1", "--lo", "0", "--hi", "2"]):
        with redirect_stdout(io.StringIO()):
            cli.main(argv)


def end_to_end(cli, args):
    """The untraced run: end-to-end metrics and the set-up launches."""
    setup = []
    # compiled explicitly, since PYTHONDONTWRITEBYTECODE may be set
    compileall.compile_dir(SRC / "sturmion", quiet=1)
    setup_time()  # warms the file cache; not counted
    marks = [args.seconds * i / SETUP_LAUNCHES for i in range(SETUP_LAUNCHES)]

    def launch_due(run):
        # spread the launches over the run, so that no one slow spell of
        # the machine decides their median
        while (len(setup) < SETUP_LAUNCHES
               and run.op_seconds >= marks[len(setup)]):
            setup.append(setup_time())

    warm_up(cli)
    run = loop(cli, args.workload, args.seed, args.seconds, MIN_OPS,
               launch_due)
    while len(setup) < SETUP_LAUNCHES:
        setup.append(setup_time())
    metrics = {
        "ops_per_s": (run.passed / run.op_seconds, "1/s"),
        "op_p50_s": (run.quantile(0.5), "s"),
        "op_p90_s": (run.quantile(0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return [run], metrics, {"setup_samples": setup}


def traced(cli, args):
    """Half the time untraced, then the same ops again under the tracer."""
    import tracing
    warm_up(cli)
    half = args.seconds / 2
    plain = loop(cli, args.workload, args.seed, half)
    tracer = tracing.Tracer()
    tracer.install("sturmion")
    try:
        run = loop(cli, args.workload, args.seed, half, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer(run.attempted, run.output_bytes)
    plain_rate = plain.passed / plain.op_seconds
    traced_rate = run.passed / run.op_seconds
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (plain_rate - traced_rate, "1/s")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans, {"workload": args.workload, "seed": args.seed})
    return [plain, run], metrics, {"spans_file": str(spans.relative_to(ROOT)),
                                   "spans": len(tracer.spans)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sturmion" / "cli.py").is_file():
        sys.exit(f"perfbench: no sturmion sources under {SRC}")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    os.environ.pop("STURMION_PRECISION", None)
    from sturmion import cli
    from workloads import WORKLOADS
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported sturmion from {cli.__file__}")
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")

    runs, metrics, extra = (traced if args.trace else end_to_end)(cli, args)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    bad = [b for r in runs for b in r.bad]
    unexpected = [u for r in runs for u in r.unexpected]
    for line in (bad + unexpected)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        **result, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds,
        "loops": [{"attempted": r.attempted, "failed": r.failed,
                   "rounds": r.rounds, "op_seconds": r.op_seconds}
                  for r in runs],
        "bad": bad, "unexpected": unexpected, **extra}, indent=2) + "\n")
    if any(math.isinf(value) for value, _ in metrics.values()):
        sys.exit("perfbench: over a tenth of the ops failed, so op_p90_s "
                 f"has no finite value; see {record.relative_to(ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
