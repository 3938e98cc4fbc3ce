#!/usr/bin/env python3
"""Layered benchmark of the linemaze CLI.

    python3 perfbench/run.py --workload segments --seed 1 --seconds 30 \
        --trace 0

Runs one workload's fixed list of ``linemaze`` calls in this process, one
after the other (a closed loop with one caller), through
``linemaze.cli.run(argv)`` with stdout captured, again and again for
``--seconds``. Every call's output is checked; a call that fails or prints
something wrong or different from its first run counts in ``failed``.

With ``--trace 0`` it prints the end-to-end metrics. With ``--trace 1`` it
alternates plain passes with passes run under span wrappers (spans.py) and
prints the per-layer metrics. The last line of stdout is one JSON object;
the lines before it name every metric with its unit. Results and spans go
to ``.perfbench_out/`` at the root of the checkout.

The program is always the checkout's own ``src/linemaze`` on the pure-Python
kernel (``LINEMAZE_PURE=1``); without it the benchmark exits with code 2.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BACKEND = "pure"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Subprocess that times ``import linemaze, linemaze.cli`` inside a speed
# sampler, so the import time is rescaled like every other time.
SETUP_CODE = """\
import sys, time
sys.path[:0] = [%r, %r]
import speedref
with speedref.Sampler() as sampler:
    t0 = speedref.clock()
    import linemaze, linemaze.cli
    t1 = speedref.clock()
print(t1 - t0, sampler.scale())
"""
SETUP_RUNS = 15


def _fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def measure_setup():
    """Median rescaled import time over fresh interpreters (after one
    untimed import that writes the bytecode cache)."""
    code = SETUP_CODE % (str(SRC), str(HERE))
    samples = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-I", "-c", code],
                             capture_output=True, text=True, timeout=60,
                             check=True, env=os.environ.copy()).stdout
        t_import, scale = map(float, out.split())
        if i:
            samples.append(t_import * scale)
    return statistics.median(samples)


def identity(workload, seed):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "kernel_backend": motion_sim.KERNEL_BACKEND,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_op(op):
    """One CLI call: (seconds, speed scale, output, problem, accuracy error
    in percent). The output is stdout followed by the file the call wrote,
    if any."""
    out, err = io.StringIO(), io.StringIO()
    code, crash = None, None
    with speedref.Sampler() as sampler:
        t0 = speedref.clock()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.run(op.argv)
        except Exception:  # a crash is a failed operation, not a stopped run
            crash = traceback.format_exc()
        dt = speedref.clock() - t0
    text = out.getvalue()
    if crash is not None:
        return dt, sampler.scale(), text, crash, None
    if code != 0:
        return (dt, sampler.scale(), text,
                "exit %d: %s" % (code, err.getvalue().strip()), None)
    problem, err_pct = op.check(text)
    if op.out_file is not None:
        text += Path(op.out_file).read_text(encoding="utf-8")
    return dt, sampler.scale(), text, problem, err_pct


class Runner:
    """Runs passes over the operations and keeps what they measured."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)  # output of each op's first run
        self.times = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.raw = [[] for _ in ops]
        self.errors = [None] * len(ops)
        self.scales = []  # rescale factor of every op run, in run order
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self, tracer=None):
        t0 = time.perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = len(self.scales)
            dt, scale, text, problem, err_pct = run_op(op)
            self.scales.append(scale)
            self.times[tracer is not None][i].append(dt * scale)
            if tracer is None:
                self.raw[i].append(dt)
            if err_pct is not None:
                self.errors[i] = max(err_pct, self.errors[i] or 0.0)
            if problem is None:
                if self.first[i] is None:
                    self.first[i] = text
                elif text != self.first[i]:
                    problem = ("output differs from the first run"
                               + (" (traced)" if tracer is not None else ""))
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.problems.append("%s: %s" % (" ".join(op.argv), problem))
        return time.perf_counter() - t0

    def wall(self, traced=False):
        """One pass: the sum of each op's median rescaled time."""
        return sum(statistics.median(t) for t in self.times[traced])


def measure(runner, seconds, trace):
    """Run passes until the next one would end after ``seconds``; at least
    two, so that every op runs twice. With ``trace`` every other pass runs
    under span wrappers.

    Returns the tracer, the number of (traced) passes and the number of
    spans the first traced pass recorded.
    """
    tracer = spans.Tracer(speedref.clock) if trace else None
    start = time.perf_counter()
    passes = 0
    first_spans = 0
    while True:
        traced = trace and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            last = runner.one_pass(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
        if passes == 2 and trace:
            first_spans = len(tracer.spans)
        if passes >= 2 and time.perf_counter() - start + last > seconds:
            return tracer, passes // 2 if trace else passes, first_spans


def end_to_end(runner, ops, passes, ladder):
    wall = runner.wall()
    metrics = {
        "wall_s": wall,
        "setup_s": measure_setup(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    report = {"wall_raw_s": (sum(statistics.median(t) for t in runner.raw),
                             "s"),
              "passes": (passes, "count"),
              "failed_frac": (runner.failed / runner.attempted, "ratio")}
    nodes = sum(op.nodes for op in ops)
    if nodes:
        report["solve_nodes_per_s"] = (nodes / wall, "1/s")
        errs = [e for op, e in zip(ops, runner.errors)
                if op.nodes and e is not None]
        if errs:
            report["path_err_pct"] = (max(errs), "%")
    segments = sum(op.segments for op in ops)
    if segments:
        report["segments_per_s"] = (segments / wall, "1/s")
        errs = [e for op, e in zip(ops, runner.errors)
                if op.segments and op.odometry == "arc" and e is not None]
        if errs:
            report["seg_err_pct"] = (max(errs), "%")
    if ladder:
        points = [(op.nodes, statistics.median(t))
                  for op, t in zip(ops, runner.times[False])]
        report["growth_exp"] = (workloads.growth_exponent(points), "1")
    return metrics, report


def per_layer(runner, tracer, passes):
    metrics = spans.layer_metrics(tracer.spans, runner.scales, passes)
    metrics["trace_overhead_frac"] = runner.wall(True) / runner.wall() - 1.0
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    ids = identity(args.workload, args.seed)
    if ids["kernel_backend"] != BACKEND:
        _fail("kernel backend is %r, not %r; results would not compare"
              % (ids["kernel_backend"], BACKEND))
    print("identity %s" % json.dumps(ids, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ops = workloads.build(args.workload, args.seed, tmp, args.tiny)
        runner = Runner(ops)
        tracer, passes, first_spans = measure(runner, args.seconds,
                                              args.trace)
    if args.trace:
        values = per_layer(runner, tracer, passes)
        metrics = {k: (v, spans.UNITS[k]) for k, v in values.items()}
        report = {}
        # The first traced pass is enough to explain the metrics; all of
        # them would be megabytes.
        spans.dump(tracer.spans[:first_spans], OUT / (
            "%s-seed%d-spans.jsonl" % (args.workload, args.seed)))
    else:
        values, report = end_to_end(runner, ops, passes,
                                    args.workload == "map-ideal-large")
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    for name, (value, unit) in list(metrics.items()) + list(report.items()):
        print("metric %-40s %14.6g %s" % (name, value, unit))
    for problem in runner.problems[:10]:
        sys.stderr.write("FAILED %s\n" % problem)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    ops_out = [{"argv": op.argv, "median_s": statistics.median(t),
                "err_pct": e}
               for op, t, e in zip(ops, runner.times[False], runner.errors)]
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(dict(result, identity=ids, ops=ops_out, report={
         k: {"value": v, "unit": u} for k, (v, u) in report.items()}),
         indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if not (SRC / "linemaze" / "__init__.py").is_file():
    _fail("no linemaze sources at %s" % SRC)
# Pinned before linemaze is imported: the backend is chosen at import. A
# hand-built compiled kernel runs about 20x faster and must never read as a
# code change.
os.environ["LINEMAZE_PURE"] = "1"
os.environ.pop("MAZEBOT_SEED", None)
sys.path[:0] = [str(SRC), str(HERE)]

import linemaze.cli as cli  # noqa: E402
from linemaze import motion_sim  # noqa: E402

import spans  # noqa: E402
import speedref  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
    _fail("linemaze was imported from %s, not from %s" % (cli.__file__, SRC))

if __name__ == "__main__":
    sys.exit(main())
