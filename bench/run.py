"""warpdet benchmark: detection and joint training, timed with quality.

Usage, from the root of the repository:

    python3 bench/run.py --workload detect_dense --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 1

Each run trains the desk-scale detector from fixed seeds (60 images of 96 px,
the RPN for 2 epochs, joint training for 1 epoch, a 40-fern cascade) and
times that as ``setup_s``. It then drives one workload through the public
API, in this process, on one thread, as a closed loop with one client: the
next operation starts when the previous one returns.

Workloads, and why each was chosen:

- ``detect_dense``: ``pipeline.detect`` with the default options on held-out
  160-px images. The paper's accuracy path; the RPN convolutions do most of
  the work and the verification net the rest, and the fern cascade is not
  called.
- ``detect_roi``: the same images with ``use_roi_conv=True``. The paper's
  speed path; the fern scan does nearly all of the work, so it bypasses the
  conv kernels and a conv change should not move it. Today the scan passes
  no window, so the row is marked ``valid: false`` and shows AP 0.
- ``train_joint``: one ``pipeline.train_end_to_end`` step per 96-px image, on
  a fresh copy of the trained model at the start of every pass. It runs the
  backward passes, which scatter gradients where detection gathers patches.

Every run first makes one reference pass over the workload's images, traced,
which warms the process up, fixes the quality numbers and the per-layer
counts, and records each output. Every later operation must reproduce its
reference output bit for bit. Then, with tracing off, the closed loop runs
for ``--seconds`` (and at least 100 operations); its times give the
end-to-end metrics. With ``--trace 1`` a second loop runs as long with the
tracer installed and gives the per-layer metrics; the difference between the
two loops' median latencies is the tracing overhead.

On a shared host the CPU's speed drifts by up to 1.7 times over seconds to
minutes. So the gated times (``latency_ms_p50``, ``latency_ms_p90``,
``ops_per_s`` and ``setup_s``) are wall times scaled to a reference host
speed, which a fixed numpy kernel measures before and after every quarter
second of operations and every set-up stage (see ``hostspeed.py``). The wall
times are printed beside them.

Every end-to-end metric, quality included, is printed by name and unit. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics listed in BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from hostspeed import HostSpeed
from spans import CONV_ROLES, DIRECT_CHILDREN, RPN_ROLES, Tracer
from workloads import (
    DENSE_AP_FLOOR,
    WORKLOADS,
    detect_quality,
    fingerprint,
    output_problem,
    same_model,
    set_up,
)

SETUP_RUNS = 2            # set-ups per untraced run; setup_s is their median
WARMUP_SECONDS = 2.0      # reference pass plus untimed passes, at least
MIN_TIMED_OPS = 100       # so that ten samples lie beyond p90
SPEED_INTERVAL_S = 0.25   # time between host-speed timings in a timed loop

# Every end-to-end metric, as printed. Quality and failed_frac
# are printed and checked but are not in BENCHMARK.json: they are 0 or
# undefined on some workloads, and their spread across seeds is that of the
# images, not of the measurement.
END_TO_END_UNITS = {
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ops_per_s": "1/s",
    "ap": "1",
    "recall_at_fa": "1",
    "landmark_err_36px": "px",
    "train_loss": "1",
    "failed_frac": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
GATED_END_TO_END = ("latency_ms_p50", "latency_ms_p90", "ops_per_s", "setup_s",
                    "peak_rss_mb")
COUNT_METRICS = ("nn.conv_macs", "roiconv.mask_ones", "roiconv.conv_macs",
                 "ferns.windows", "ferns.survivors", "pipeline.verified",
                 "align.singular_skips", "suppress.proposals", "suppress.kept",
                 "suppress.final")
TIME_METRICS = (
    tuple(f"nn.conv_fwd_ms.{r}" for r in CONV_ROLES)
    + tuple(f"nn.conv_bwd_ms.{r}" for r in CONV_ROLES)
    + ("nn.fc_ms", "nn.sgd_step_ms", "roiconv.pyramid_ms")
    + tuple(f"roiconv.conv_ms.{r}" for r in RPN_ROLES)
    + ("ferns.scan_ms", "pipeline.rpn_forward_ms", "pipeline.verify_forward_ms",
       "pipeline.rpn_backward_ms", "pipeline.verify_backward_ms",
       "align.warp_ms", "align.estimate_similarity_ms", "align.warp_backward_ms",
       "align.landmark_grads_ms", "suppress.non_top_k_ms", "suppress.nms_ms")
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def ms_quantiles(latencies) -> tuple[float, float]:
    lat = np.asarray(latencies) * 1000.0
    return float(np.median(lat)), float(np.percentile(lat, 90))


class Run:
    """Outputs, counters and problems of one workload, over all its loops."""

    def __init__(self, workload):
        self.workload = workload
        self.reference: list = []      # output of each sample, None if it failed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.next_op = 0

    def problem(self, text: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(text)

    def loop(self, seconds: float, min_ops: int, tracer=None, speed=None,
             record: bool = False) -> dict:
        """Closed loop over the samples for ``seconds`` and ``min_ops``.

        With ``record`` set it makes exactly one pass and stores the outputs
        as the reference; otherwise each output is checked against it. With
        a ``speed`` reference, the latencies are also returned scaled by the
        host-speed timings taken before and after each stretch of operations.
        """
        wl = self.workload
        n = len(wl.samples)
        latencies, op_ids, scaled = [], [], []
        stretch = 0  # index of the first latency not yet scaled
        model = None
        i = 0
        start = time.perf_counter()
        if speed is not None:
            before, last_timing = speed.kernel_ms(), start
        while True:
            k = i % n
            if k == 0:
                model = wl.start_pass()
                if tracer is not None:
                    tracer.watch(model)
            op_id = self.next_op
            self.next_op += 1
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.run(model, wl.samples[k])
                else:
                    out = tracer.operation(op_id, wl.run, model, wl.samples[k])
            except Exception:
                out = None
                self.failed += 1
                self.problem(f"operation {op_id} failed:\n{traceback.format_exc()}")
            t1 = time.perf_counter()
            i += 1
            if out is not None:
                latencies.append(t1 - t0)
                op_ids.append(op_id)
                bad = output_problem(out)
                if bad:
                    self.problem(f"sample {k}: {bad}")
            if record:
                self.reference.append(out)
                if i == n:
                    break
                continue
            ref = self.reference[k]
            if (out is None) != (ref is None) or (
                out is not None and not _same(fingerprint(out), fingerprint(ref))
            ):
                self.problem(f"sample {k}: output differs from its reference pass")
            done = t1 - start >= seconds and i >= min_ops
            if speed is not None and (done or t1 - last_timing >= SPEED_INTERVAL_S):
                after = speed.kernel_ms()
                factor = speed.scale(before, after)
                scaled += [t * factor for t in latencies[stretch:]]
                stretch, before, last_timing = len(latencies), after, time.perf_counter()
            if done:
                break
        return {"latencies": latencies, "scaled": scaled, "op_ids": op_ids, "ops": i,
                "elapsed": time.perf_counter() - start}


def _same(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b)


def run_workload(name: str, setup, speed, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Reference pass, warm-up, the untraced loop and, if asked, the traced
    loop of one workload. Returns its report row."""
    wl = WORKLOADS[name](setup, seed)
    run = Run(wl)
    tracer = Tracer()
    warm_start = time.perf_counter()
    tracer.install()
    try:
        reference = run.loop(0.0, 0, tracer=tracer, record=True)
    finally:
        tracer.uninstall()
    warm_left = WARMUP_SECONDS - (time.perf_counter() - warm_start)
    if warm_left > 0:
        run.loop(warm_left, 0)

    timed = run.loop(seconds, MIN_TIMED_OPS, speed=speed)
    if not timed["latencies"]:
        raise RuntimeError(f"{name}: every timed operation failed")
    p50, p90 = ms_quantiles(timed["scaled"])
    wall_p50, wall_p90 = ms_quantiles(timed["latencies"])
    row = {
        "workload": name,
        "images": len(wl.samples),
        "timed_ops": timed["ops"],
        "latency_ms_p50": p50,
        "latency_ms_p90": p90,
        "ops_per_s": len(timed["scaled"]) / sum(timed["scaled"]),
        "wall": {"latency_ms_p50": wall_p50, "latency_ms_p90": wall_p90,
                 "ops_per_s": len(timed["latencies"]) / timed["elapsed"]},
    }

    counts = tracer.count_totals(reference["op_ids"])
    if wl.kind == "detect":
        outputs = [out if out is not None else [] for out in run.reference]
        row.update(detect_quality(wl.samples, outputs))
        counts["suppress.final"] = sum(len(out) for out in outputs)
        # a path that verified nothing measured no detector at all
        row["valid"] = counts["pipeline.verified"] > 0
        if name == "detect_dense" and row["ap"] < DENSE_AP_FLOOR:
            run.problem(f"dense AP {row['ap']:.3f} below the floor {DENSE_AP_FLOOR}")
    else:
        losses = [out for out in run.reference if out is not None]
        row["train_loss"] = statistics.fmean(losses) if losses else None
        row["valid"] = True

    if trace:
        tracer.install()
        try:
            traced = run.loop(seconds, MIN_TIMED_OPS, tracer=tracer, speed=speed)
        finally:
            tracer.uninstall()
        row["per_layer"] = per_layer(tracer, wl, traced, reference["op_ids"],
                                     counts, p50, run)

    row["failed_frac"] = run.failed / run.attempted
    row["attempted"] = run.attempted
    row["failed"] = run.failed
    row["problems"] = run.problems
    return row


def per_layer(tracer, wl, traced, reference_ids, counts, untraced_p50, run) -> dict:
    """Per-layer metrics: wall times from the traced loop and counts from
    the reference pass, both per operation. The overhead compares the two
    loops' latency_ms_p50, which are scaled to host speed."""
    ops = len(traced["op_ids"])
    seconds, op_s, self_s, direct = tracer.span_totals(traced["op_ids"])
    unknown = set(seconds) - set(TIME_METRICS)
    if unknown:
        run.problem(f"spans without a metric: {sorted(unknown)}")
    metrics = {name: 1000.0 * seconds.get(name, 0.0) / ops for name in TIME_METRICS}
    self_ms = 1000.0 * self_s / ops
    metrics["pipeline.detect_self_ms"] = self_ms if wl.kind == "detect" else 0.0
    metrics["pipeline.train_step_self_ms"] = self_ms if wl.kind == "train_step" else 0.0
    metrics["trace.op_ms"] = 1000.0 * op_s / ops
    metrics["trace.overhead_ms"] = ms_quantiles(traced["scaled"])[0] - untraced_p50

    # the operation's direct child spans plus its self time make up its time
    children = DIRECT_CHILDREN[wl.kind]
    if not direct <= set(children):
        run.problem(f"unaccounted child spans: {sorted(direct - set(children))}")
    residual = metrics["trace.op_ms"] - self_ms - sum(metrics[c] for c in children)
    if abs(residual) > 1e-6 * max(1.0, metrics["trace.op_ms"]):
        run.problem(f"child spans and self time miss the operation by {residual} ms")

    n_ref = len(reference_ids)
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0) / n_ref
    metrics["roiconv.mask_sparsity"] = (
        counts["roiconv.sparsity_sum"] / counts["roiconv.masks"]
        if counts.get("roiconv.masks") else 0.0
    )
    metrics["ferns.survivor_ratio"] = (
        counts["ferns.survivors"] / counts["ferns.windows"]
        if counts.get("ferns.windows") else 0.0
    )
    return metrics


def print_row(row, setup_s, rss) -> None:
    print(f"\n[{row['workload']}] {row['images']} images per pass, "
          f"{row['timed_ops']} timed operations, valid: {str(row['valid']).lower()}")
    values = dict(row, setup_s=setup_s, peak_rss_mb=rss)
    for name, unit in END_TO_END_UNITS.items():
        if name in values:
            value = values[name]
            shown = "n/a (no face found)" if value is None else f"{value:.10g}"
            wall = row["wall"].get(name)
            note = "" if wall is None else f"   (wall time: {wall:.6g})"
            print(f"  {name:<20} {shown:>20} {unit}{note}")
    if not row["valid"]:
        print("  the path verified no candidate: its times are not a speed-up")
    for name, value in row.get("per_layer", {}).items():
        print(f"  {name:<36} {value:>20.10g}")
    for text in row["problems"]:
        print(f"  PROBLEM: {text}")


def main(argv=None) -> int:
    args = parse_args(argv)
    print("environment:", json.dumps(environment(args), sort_keys=True))
    trace = bool(args.trace)
    speed = HostSpeed()
    setups = [set_up(speed) for _ in range(1 if trace else SETUP_RUNS)]
    identical = all(same_model(setups[0].model, s.model) for s in setups[1:])
    setup_s = statistics.median(s.total_s for s in setups)
    wall = [round(sum(s.wall_seconds.values()), 3) for s in setups]
    print(f"set-up: {[round(s.total_s, 3) for s in setups]} s scaled to host speed "
          f"(wall time {wall} s), median {setup_s:.4f} s, "
          f"identical models: {str(identical).lower()}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rows = [run_workload(name, setups[0], speed, args.seed, args.seconds, trace)
            for name in names]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    for row in rows:
        print_row(row, setup_s, rss)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = {}
    for row in rows:
        if trace:
            values = dict(row["per_layer"], **setups[0].seconds)
        else:
            values = dict(row, setup_s=setup_s, peak_rss_mb=rss)
            values = {name: values[name] for name in GATED_END_TO_END}
        if set(values) != set(units):
            print(f"error: metrics {sorted(set(values) ^ set(units))} do not match "
                  "BENCHMARK.json", file=sys.stderr)
            return 1
        prefix = f"{row['workload']}." if len(rows) > 1 else ""
        metrics.update({prefix + name: {"value": value, "unit": units[name]}
                        for name, value in values.items()})

    result = {
        "correct": identical and not any(row["problems"] for row in rows),
        "attempted": sum(row["attempted"] for row in rows),
        "failed": sum(row["failed"] for row in rows),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
