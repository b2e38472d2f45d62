"""Print dense detection quality in float32 against the float64 reference,
over init seeds 0-7.

Run from the repository root:

    python tests/float32_quality.py

For each init seed it trains the benchmark's desk-scale set-up (the 60-image
set-up corpus, the RPN for 2 epochs, joint training for 1 epoch) and runs
dense detection on the benchmark's 50 held-out 160-px images of workload
seed 11, twice: with ``tests/detect_oracles.detect``, which runs both nets in
float64 as training does, and with ``pipeline.detect``, which runs them in
float32. Each row gives AP, recall at the benchmark's false-alarm budget and
the box count of both. Training runs in float64 on both sides, so the rows
differ only in the arithmetic of detection. The last line is the table as
one JSON object. Pytest does not collect this file.
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

import json  # noqa: E402

import detect_oracles  # noqa: E402
import workloads  # noqa: E402
from warpdet import pipeline, synthetic  # noqa: E402

INIT_SEEDS = range(8)
WORKLOAD_SEED = 11


def quality(samples, detect, model) -> dict:
    outputs = [detect(s.image, model) for s in samples]
    report = workloads.detect_quality(samples, outputs)
    return {"ap": report["ap"], "recall_at_fa": report["recall_at_fa"],
            "boxes": sum(len(out) for out in outputs)}


def main():
    corpus = synthetic.generate_synthetic_corpus(workloads.SETUP_SEED,
                                                 workloads.SETUP_IMAGES)
    samples = synthetic.generate_synthetic_corpus(
        workloads.held_out_seed(WORKLOAD_SEED, workloads.DETECT_STREAM),
        workloads.DETECT_IMAGES,
        synthetic.CorpusParams(image_size=workloads.DETECT_IMAGE_SIZE),
    )
    rows = []
    print(f"{'seed':>4} {'AP f64':>7} {'AP f32':>7} {'recall f64':>10} "
          f"{'recall f32':>10} {'boxes f64':>9} {'boxes f32':>9}")
    for seed in INIT_SEEDS:
        config = pipeline.TrainConfig(epochs=1, seed=seed)
        model, _ = pipeline.train_rpn(corpus, config,
                                      epochs=workloads.SETUP_RPN_EPOCHS)
        model, _ = pipeline.train_end_to_end(corpus, model, config)
        row = {"seed": seed,
               "float64": quality(samples, detect_oracles.detect, model),
               "float32": quality(samples, pipeline.detect, model)}
        rows.append(row)
        ref, got = row["float64"], row["float32"]
        print(f"{seed:>4} {ref['ap']:>7.3f} {got['ap']:>7.3f} "
              f"{ref['recall_at_fa']:>10.3f} {got['recall_at_fa']:>10.3f} "
              f"{ref['boxes']:>9} {got['boxes']:>9}")
    print(json.dumps({"workload_seed": WORKLOAD_SEED, "rows": rows}))


if __name__ == "__main__":
    main()
