"""Print dense detection quality over init seeds, then its median and minimum.

Run from the repository root:

    python tests/quality.py [--images N] [--rpn-epochs N] [--joint-epochs N]
        [--seeds S ...] [--no-multitask] [--no-concat]
        [--no-supervised-transform] [--suppression MODE] [--reference] [--test]
        [--out PATH]

For each init seed it trains a detector on the first --images images of the
benchmark's set-up corpus (96 px, corpus seed 0): the proposal net for
--rpn-epochs epochs, then joint training for --joint-epochs epochs. The
three --no-* flags train the paper's ablated variants, and --suppression
picks detect's first suppression. It then runs dense detection on 50
held-out 160-px images and scores them as the benchmark does: AP, recall at
the benchmark's false-alarm budget and boxes per image. By default the
images are a validation corpus drawn from this script's own seed stream, on
which recipe choices are made; --test scores the benchmark's test images of
workload seed 11 instead, which are only for reporting. --reference also
scores ``tests/detect_oracles.detect``, which runs both nets in float64 as
training does, beside ``pipeline.detect``, which runs them in float32.
The seeds run in a pool of worker processes, one per seed up to the host's
CPUs, each on one BLAS thread, or in this process on a one-CPU host; the
rows, their order and every number do not depend on the pool.

The table gives one row per seed, then the median and the minimum over the
seeds; the last line is the run as one JSON object. --out also writes that
object to PATH as one line, with the commit checked out, the tracked files
that differ from it, the command-line arguments, the numpy version and the
wall seconds: a ``QUALITY_<n>.json`` ledger entry. Pytest does not collect
this file.
"""

import os
import sys
from pathlib import Path

# One BLAS thread, as in the test suite and the benchmark.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402

import numpy as np  # noqa: E402

import detect_oracles  # noqa: E402
import workloads  # noqa: E402
from warpdet import pipeline, synthetic  # noqa: E402

WORKLOAD_SEED = 11
VALIDATION_STREAM = 3  # the benchmark draws its detect and train images from 1 and 2
# (key, column label, format) of each scored quantity
METRICS = (("ap", "AP", ".3f"), ("recall_at_fa", "recall", ".3f"),
           ("boxes_per_image", "boxes/img", ".2f"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--images", type=int, default=workloads.SETUP_IMAGES,
                        help="training-corpus size")
    parser.add_argument("--rpn-epochs", type=int, default=workloads.SETUP_RPN_EPOCHS)
    parser.add_argument("--joint-epochs", type=int, default=1)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(8)),
                        help="init seeds")
    parser.add_argument("--no-multitask", dest="multitask", action="store_false")
    parser.add_argument("--no-concat", dest="use_concat", action="store_false")
    parser.add_argument("--no-supervised-transform", dest="supervised_transform",
                        action="store_false")
    parser.add_argument("--suppression", default="non_top_k",
                        choices=("non_top_k", "nms", "none"))
    parser.add_argument("--reference", action="store_true",
                        help="also score the float64 reference detect")
    parser.add_argument("--test", action="store_true",
                        help="score the benchmark's test images, not the validation corpus")
    parser.add_argument("--out", type=Path,
                        help="also write the JSON line, with its provenance, to this file")
    args = parser.parse_args(argv)
    repeated = [seed for i, seed in enumerate(args.seeds) if seed in args.seeds[:i]]
    if repeated:
        parser.error(f"--seeds repeats seed {repeated[0]}")
    return args


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def quality(samples, detect, model, options) -> dict:
    """The benchmark's AP and recall (workloads.detect_quality, whose
    landmark error a box-head variant cannot give) and the box counts."""
    outputs = [detect(s.image, model, options) for s in samples]
    truths = [[box for box, _ in s.faces] for s in samples]
    report = pipeline.evaluate(outputs, truths, iou_threshold=workloads.MATCH_IOU)
    budget = int(round(workloads.FALSE_ALARMS_PER_IMAGE * len(samples)))
    boxes = sum(len(out) for out in outputs)
    return {"ap": report.average_precision(),
            "recall_at_fa": report.recall_at_false_alarms(budget),
            "boxes": boxes, "boxes_per_image": boxes / len(samples)}


def print_row(first, scores, forms):
    cells = [f"{scores[form][key]:>{len(label) + 4}{fmt}}"
             for key, label, fmt in METRICS for form in forms]
    print(f"{first:>6} " + " ".join(cells))


def score_seed(seed, run):
    """Train one init seed's detector on the run's corpus and score it with
    each of the run's detects; returns its row."""
    args, corpus, samples, detects = run
    config = pipeline.TrainConfig(epochs=args.joint_epochs, seed=seed)
    model = pipeline.build_detector(
        config, multitask=args.multitask, use_concat=args.use_concat,
        supervised_transform=args.supervised_transform)
    model, _ = pipeline.train_rpn(corpus, config, model, epochs=args.rpn_epochs)
    model, _ = pipeline.train_end_to_end(corpus, model, config)
    options = pipeline.DetectOptions(suppression=args.suppression)
    return {"seed": seed, **{form: quality(samples, detect, model, options)
                             for form, detect in detects.items()}}


def scored_rows(run, seeds):
    """Each seed's row, in seed order: scored by a pool of spawned worker
    processes, one per seed up to the host's CPUs, each sent the run with its
    seed, or in this process when that is one."""
    jobs = min(len(seeds), os.cpu_count() or 1)
    if jobs == 1:
        yield from (score_seed(seed, run) for seed in seeds)
        return
    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield from pool.map(score_seed, seeds, [run] * len(seeds))


def main(argv=None):
    start = time.perf_counter()
    args = parse_args(argv)
    # read before training, so a checkout without git fails at once
    provenance = {} if args.out is None else {
        "commit": git("rev-parse", "HEAD"),
        "modified": git("diff", "--name-only", "HEAD").split(),
        "argv": sys.argv[1:] if argv is None else list(argv),
        "numpy": np.__version__,
    }
    corpus = synthetic.generate_synthetic_corpus(workloads.SETUP_SEED, args.images)
    stream = workloads.DETECT_STREAM if args.test else VALIDATION_STREAM
    samples = synthetic.generate_synthetic_corpus(
        workloads.held_out_seed(WORKLOAD_SEED, stream), workloads.DETECT_IMAGES,
        synthetic.CorpusParams(image_size=workloads.DETECT_IMAGE_SIZE),
    )
    detects = {"float32": pipeline.detect}
    if args.reference:
        detects = {"float64": detect_oracles.detect, **detects}
    run = (args, corpus, samples, detects)

    print(f"{'seed':>6} " + " ".join(f"{label} f{form[-2:]}".rjust(len(label) + 4)
                                     for _, label, _ in METRICS for form in detects))
    rows = []
    for row in scored_rows(run, args.seeds):
        print_row(row["seed"], row, detects)
        rows.append(row)
    summary = {
        stat: {form: {key: float(reduce([row[form][key] for row in rows]))
                      for key, _, _ in METRICS} for form in detects}
        for stat, reduce in (("median", np.median), ("min", np.min))
    }
    for stat, scores in summary.items():
        print_row(stat, scores, detects)
    record = {"workload_seed": WORKLOAD_SEED, "stream": stream,
              **{key: value for key, value in vars(args).items() if key != "out"},
              "rows": rows, **summary}
    print(json.dumps(record))
    if args.out is not None:
        record.update(provenance, wall_s=time.perf_counter() - start)
        args.out.write_text(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
