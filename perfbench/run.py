"""susycdr benchmark: run one workload, timed or traced, check it, report.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads are ``certify``, ``audit`` and ``field_export`` (see
perfbench/README.md). The package is imported from ``src/`` of the
checkout the script sits in; without those sources the script exits
with a non-zero code and prints no result.

One closed-loop client in one process runs the workload's items in
whole rounds, each item once per round, until ``--seconds`` have passed.
There is no untimed warm-up: a CLI user pays the first-call costs on
every invocation. The first round leaves the outputs that are checked;
every later round must reproduce them exactly.

``--trace 0`` reports the end-to-end metrics. Their times are scaled to a
reference machine speed by a calibration loop timed just before each
item and each setup probe (see ``calibration_s``); the unscaled medians
are printed on the line before the result:

* ``setup_s``: median, over fresh interpreters started between rounds,
  of the time from process start until the workload's items are ready
  (``import susycdr`` plus building the inputs);
* ``wall_s``: median time of one round, the sum of its item latencies;
  ``--seconds`` is the summed unscaled round time a run reaches before it
  stops;
* ``item_p50_ms``: median latency of one item;
* ``peak_rss_mb``: peak resident set after the timed rounds, before the
  checks load scipy.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of :mod:`spans`, with ``trace.overhead_s`` = traced
minus untraced round time. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# numpy's thread pools held to one thread; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Fresh interpreters timed for setup_s.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# The reported times are scaled to a machine on which calibration_s()
# takes this long (its median on the 2-vCPU machine the bounds were set
# on). See calibration_s.
REFERENCE_S = 0.020


def import_package():
    """Put the checkout's src/ first on sys.path and import susycdr from it."""
    init = SRC / "susycdr" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no package sources at {init}; run the "
                         "benchmark from a susycdr checkout")
    sys.path.insert(0, str(SRC))
    import susycdr
    if Path(susycdr.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported susycdr from {susycdr.__file__}, "
                         f"not from {init}")


def setup_probe(workload, seed, probe_dir):
    """Child side of setup_s: import, build the inputs, say ready."""
    import_package()
    import workloads
    probe_dir.mkdir(parents=True)
    workloads.WORKLOADS[workload](seed, probe_dir)
    print("ready", flush=True)


def calibration_s():
    """Seconds taken by a fixed loop that does no susycdr work.

    This machine's speed drifts by itself, by up to +-30 % within a few
    minutes, and every kind of work drifts together. The loop mixes the
    three kinds of work the workloads do (interpreted float arithmetic,
    numpy ufuncs on an array, float formatting); each item and each
    setup probe is scaled by REFERENCE_S / calibration_s() measured just
    before it, which takes the drift out and leaves the program's cost.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += math.sqrt(i)
    x = np.linspace(0.1, 10.0, 20000)
    for _ in range(40):
        y = np.exp(-0.5 * x * x) * x ** 1.7
    ",".join(format(v, ".17g") for v in y[:4000])
    return time.perf_counter() - start


def setup_time(workload, seed):
    """Seconds from spawning an interpreter until its items are ready."""
    probe_dir = OUT / f"probe-{os.getpid()}"
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe", str(probe_dir)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(probe_dir, ignore_errors=True)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}")
    return elapsed


class Rounds:
    """Runs a workload's items in whole rounds and keeps the tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failed_items = set()
        self.reference = {}
        self.problems = []

    def run(self, before_item=None):
        """Run every item once; return (round seconds, item latencies)."""
        wl = self.workload
        latencies = []
        ok = []
        round_start = time.perf_counter()
        for i in range(len(wl)):
            if before_item is not None:
                before_item(i)
            start = time.perf_counter()
            try:
                ok.append(wl.run(i))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok.append(False)
            latencies.append(time.perf_counter() - start)
        wall = time.perf_counter() - round_start
        self.attempted += len(ok)
        self.failed += ok.count(False)
        for i, item_ok in enumerate(ok):
            if not item_ok:
                self.failed_items.add(i)
                continue
            fingerprint = wl.fingerprint(i)
            if self.reference.setdefault(i, fingerprint) != fingerprint:
                self.problems.append(f"item {i}: output differs between rounds")
        return wall, latencies


def timed(rounds, seconds, workload, seed):
    """End-to-end metrics, each time scaled by the calibration before it."""
    setup_time(workload, seed)  # untimed: fills file and bytecode caches
    setups, walls, latencies = [], [], []
    raw_setups, raw_walls, raw_latencies, calibrations = [], [], [], []

    def calibrate(_item=None):
        calibrations.append(calibration_s())

    def probe():
        calibrate()
        raw_setups.append(setup_time(workload, seed))
        setups.append(raw_setups[-1] * REFERENCE_S / calibrations[-1])

    # The setup probes are spread over the run, between rounds, so that
    # setup_s samples the same stretch of machine time as the rounds.
    while sum(raw_walls) < seconds:
        while (len(setups) < SETUP_PROBES
               and sum(raw_walls) >= len(setups) * seconds / SETUP_PROBES):
            probe()
        _, item_times = rounds.run(before_item=calibrate)
        scaled = [t * REFERENCE_S / c for t, c in
                  zip(item_times, calibrations[-len(item_times):])]
        raw_walls.append(sum(item_times))
        raw_latencies += item_times
        walls.append(sum(scaled))
        latencies += scaled
    while len(setups) < SETUP_PROBES:
        probe()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"unscaled: setup_s={statistics.median(raw_setups):.6g} "
          f"wall_s={statistics.median(raw_walls):.6g} "
          f"item_p50_ms={1e3 * statistics.median(raw_latencies):.6g} "
          f"calibration_ms={1e3 * statistics.median(calibrations):.6g}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "item_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def traced(rounds, seconds, trace_path):
    import spans
    tracer = spans.Tracer()
    plain, traced_walls, summaries = [], [], []

    def mark(i):
        tracer.item = i

    while sum(plain) + sum(traced_walls) < seconds:
        plain.append(rounds.run()[0])
        tracer.reset()
        with spans.instrument(tracer):
            traced_walls.append(rounds.run(before_item=mark)[0])
        summaries.append(tracer.summary())
        if len(summaries) == 1:
            tracer.write(trace_path)
        tracer.reset()
    for name in spans.COUNT_METRICS:
        if len({s[name] for s in summaries}) != 1:
            rounds.problems.append(f"count {name} differs between traced rounds")
    metrics = {}
    for name, unit in spans.PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(plain)
        elif unit == "count":
            value = summaries[0][name]
        else:
            value = statistics.median(s[name] for s in summaries)
        metrics[name] = (value, unit)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "audit", "field_export"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0

    import_package()
    import workloads
    run_dir = OUT / f"run-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        rounds = Rounds(workload)
        if args.trace:
            trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.csv.gz"
            metrics = traced(rounds, args.seconds, trace_path)
        else:
            metrics = timed(rounds, args.seconds, args.workload, args.seed)
        checked = [i for i in range(len(workload))
                   if i not in rounds.failed_items]
        try:
            problems = rounds.problems + workload.check(checked)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = ["the output checks raised"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
