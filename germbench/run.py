"""Benchmark for germ: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 germbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: run-empirical-gap, mc-bernstein-decay, exact-oracle (see
germbench/README.md).  Each run builds its inputs from --seed, runs one
warm-up pass whose outputs are checked against the benchmark's own
reference figures, then repeats the same pass for --seconds seconds in this
one process, with one germ worker and one BLAS thread.  Every repeated pass
must reproduce the warm-up outputs exactly.

The machine's speed drifts by up to 2x, in phases of seconds to minutes.
So a fixed calibration kernel is timed before and after every operation,
and each operation's time is rescaled to the speed at which that kernel
takes CALIBRATION_REF_S (germbench/README.md, "Steadiness").

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0 the
metrics are wall_s, setup_s and peak_rss_mb; with --trace 1 they are the
per-layer figures of germbench/tracer.py plus trace.overhead_s.  Details of
each run (every raw and rescaled pass time, every set-up time, the kept
spans) go to .germbench/ in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from reference import CheckFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".germbench"

# set-up is timed in fresh interpreters spread evenly over the measured window
SETUP_PROBES = 7
# median time of calibrate() on the machine the reference figures come from,
# so rescaled times read in that machine's seconds at its typical speed
CALIBRATION_REF_S = 0.0037
_CALIBRATION_ARRAY = np.linspace(0.0, 1.0, 64)


def calibrate() -> float:
    """Wall time of a fixed kernel: a pure-Python loop, then small-array NumPy.

    Its working set is a few cache lines, so the state a workload leaves
    behind does not change it; only the machine's speed does."""
    start = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    x = _CALIBRATION_ARRAY.copy()
    for _ in range(250):
        x = np.sqrt(x * x + 1.0)
        x -= x.min()
    return perf_counter() - start


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the calibrations around it."""
    return seconds * CALIBRATION_REF_S / ((before + after) / 2.0)


def import_germ():
    if not (SRC / "germ" / "__init__.py").is_file():
        sys.exit(f"error: no germ sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import germ

    if SRC.resolve() not in Path(germ.__file__).resolve().parents:
        sys.exit(f"error: imported germ from {germ.__file__}, not from {SRC}")
    return germ


def run_pass(workload) -> tuple[float, float, dict, list[str]]:
    """Run every operation once, with a calibration before and after each.

    Return the pass time, the pass time at the reference speed, the results
    and the labels of the operations that raised."""
    results = {}
    failed = []
    raw = scaled = 0.0
    before = calibrate()
    for label, op in workload.operations():
        error = None
        start = perf_counter()
        try:
            results[label] = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        seconds = perf_counter() - start
        after = calibrate()
        raw += seconds
        scaled += rescale(seconds, before, after)
        before = after
        if error is not None:
            failed.append(label)
            traceback.print_exception(error, file=sys.stderr)
    return raw, scaled, results, failed


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh interpreter doing this workload's set-up, raw
    and at the reference speed.

    The interpreter may run on the other core, so it times the calibration
    kernel itself, before and after its set-up, and prints those times;
    they are taken out of the wall time.  No timeout: with one, ``wait``
    polls in steps of up to 50 ms, which would quantize the figure."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-only"],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    seconds = perf_counter() - start
    spent, before, after = json.loads(proc.stdout.splitlines()[-1])
    seconds -= spent
    return seconds, rescale(seconds, before, after)


class Run:
    """Operation counts and outcome checks of one benchmark run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference = None

    def fail_check(self, message: str) -> None:
        self.correct = False
        print(f"check failed: {message}", file=sys.stderr)

    def warm_up(self) -> float:
        """One untimed pass whose outputs are checked against the reference."""
        seconds, _, results, failed = self.run_pass()
        if not failed:
            self.reference = self.workload.collect(results)
            try:
                self.workload.check(self.reference)
            except CheckFailed as exc:
                self.fail_check(str(exc))
        return seconds

    def run_pass(self):
        raw, scaled, results, failed = run_pass(self.workload)
        self.attempted += len(results) + len(failed)
        self.failed += len(failed)
        return raw, scaled, results, failed

    def timed_pass(self) -> tuple[float, float]:
        """One pass; its outputs must equal the warm-up pass's.  Returns the
        raw pass time and the pass time at the reference speed."""
        raw, scaled, results, failed = self.run_pass()
        if not failed and self.reference is not None and self.workload.collect(results) != self.reference:
            self.fail_check("a pass differs from the warm-up pass")
        return raw, scaled


def measure(run: Run, args, tracer) -> tuple[dict, dict, list, list]:
    """Repeat passes for ``args.seconds``.

    Untraced runs also time SETUP_PROBES fresh set-ups, spread evenly over
    the window.  Traced runs alternate untraced and traced passes.  Returns
    the pass times at the reference speed, the raw pass times, the layer
    figures of each traced pass and the (raw, rescaled) set-up times."""
    times = {"untraced": [], "traced": []}
    raw_times = {"untraced": [], "traced": []}
    layer_passes = []
    setup_times = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if not args.trace and len(setup_times) < SETUP_PROBES and elapsed >= len(setup_times) * args.seconds / SETUP_PROBES:
            setup_times.append(probe_setup(args.workload, args.seed))
            continue
        # probes come first, so all of them have run once the window is over
        if elapsed >= args.seconds and times["untraced"] and (times["traced"] or not args.trace):
            break
        traced = bool(args.trace) and len(times["untraced"]) > len(times["traced"])
        if traced:
            tracer.reset()
            tracer.install()
        raw, scaled = run.timed_pass()
        if traced:
            tracer.uninstall()
            tracer.keep_spans = False
            layer_passes.append(tracer.snapshot())
        kind = "traced" if traced else "untraced"
        times[kind].append(scaled)
        raw_times[kind].append(raw)
    return times, raw_times, layer_passes, setup_times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        start = perf_counter()
        calibrate()  # the first call in a fresh interpreter warms it up
        before = calibrate()
        spent = perf_counter() - start

    germ = import_germ()
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = OUT / f"work-{os.getpid()}"
    try:
        tracer = None
        if args.trace:
            tracer = Tracer(germ)
            tracer.keep_spans = True
            tracer.install()
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        if args.setup_only:
            start = perf_counter()
            after = calibrate()
            print(json.dumps([spent + perf_counter() - start, before, after]))
            return 0
        if tracer is not None:
            setup_raw = tracer.snapshot()
            tracer.uninstall()
            tracer.reset()

        run = Run(workload)
        warm_time = run.warm_up()
        times, raw_times, layer_passes, setup_times = measure(run, args, tracer)

        if args.trace:
            # set-up once plus the median traced pass; counts repeat exactly
            raw = {
                key: setup_raw.get(key, 0) + statistics.median_low([p.get(key, 0) for p in layer_passes])
                for key in set(setup_raw).union(*layer_passes)
            }
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer_metrics(raw).items()}
            overhead = statistics.median(times["traced"]) - statistics.median(times["untraced"])
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        else:
            metrics = {
                "wall_s": {"value": statistics.median(times["untraced"]), "unit": "s"},
                "setup_s": {"value": statistics.median(scaled for _, scaled in setup_times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
        summary = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "warmup_s": warm_time,
            "pass_s": times,
            "raw_pass_s": raw_times,
            "setup_s": [scaled for _, scaled in setup_times],
            "raw_setup_s": [raw for raw, _ in setup_times],
            "summary": summary,
        }
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
        if tracer is not None:
            (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans()), encoding="utf-8")
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
