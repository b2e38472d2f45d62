"""Print SHA-256 digests of the detector's seeded outputs, one per part.

Run from the repository root:

    python tests/fingerprint.py

The parts are:

- setup models: the parameters of the full model and of the three ablation
  variants after set-up training, on the benchmark's set-up recipe (the
  SETUP_* constants of ``bench/workloads.py``);
- setup histories: the training histories of those four set-up runs, apart
  from their parameters, so a change to what a driver records moves this
  line and leaves setup models as it is;
- cascade: the fern pre-filter trained on the set-up corpus (every fern's
  coordinates, thresholds and scores, the stage thresholds and the training
  log);
- detect runs: dense, ROI, NMS and unsuppressed ``detect`` on seeded 160-px
  images;
- joint steps: five joint training steps and the model they leave.

The detect runs and the joint steps start from the set-up full model as
``save_model`` writes it and ``load_model`` reads it back, so their digests
also cover the model file.

The sixth line is one digest over all parts. Two commits that print the
same lines compute the same bytes on all of it, so a refactor that claims
to change no output can be checked by running this script before and
after, and a change that means to move one part shows which parts moved.
Below it, one line per detect run (dense, roi, nms, none) splits the detect
runs digest, so a moved detect runs line shows which run moved it. Pytest
does not collect this file.
"""

import os
import sys
from pathlib import Path

# One BLAS thread, as in the test suite: a thread count can change the order
# in which a product sums, and with it the last bits of every output.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import copy  # noqa: E402
import hashlib  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from warpdet import pipeline, synthetic  # noqa: E402
from warpdet.model import load_model, save_model  # noqa: E402

DETECT_IMAGES = 6
JOINT_STEPS = 5
VARIANTS = ({"multitask": False}, {"use_concat": False},
            {"supervised_transform": False})
PARTS = ("setup models", "setup histories", "cascade", "detect runs", "joint steps")
DETECT_RUNS = ("dense", "roi", "nms", "none")


def trained(corpus, config, **variant):
    model = pipeline.build_detector(config, **variant)
    model, rpn_history = pipeline.train_rpn(corpus, config, model,
                                            epochs=workloads.SETUP_RPN_EPOCHS)
    model, joint_history = pipeline.train_end_to_end(corpus, model, config)
    return model, [rpn_history, joint_history["epochs"], joint_history["singular_skips"]]


def round_trip(model):
    """The model as load_model reads back the file save_model writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.wcnn"
        save_model(model, path)
        return load_model(path)


def open_cascade(cascade):
    """The cascade with every early rejection removed: a window survives when
    its whole-cascade score is positive. The trained cascade passes no window
    of these images, which would leave the masked path unrun."""
    opened = copy.deepcopy(cascade)
    opened.stage_thresholds = np.full_like(cascade.stage_thresholds, -np.inf)
    opened.stage_thresholds[-1] = 0.0
    return opened


def update_model(digest, model):
    for p in model.params():
        digest.update(p.tobytes())


def update_cascade(digest, cascade):
    for row in zip(cascade.coords, cascade.thresholds, cascade.scores):
        for array in row:
            digest.update(array.tobytes())
    digest.update(cascade.stage_thresholds.tobytes())
    digest.update(cascade.patch_size.to_bytes(4, "little"))
    for key in sorted(cascade.train_log):
        digest.update(key.encode())
        digest.update(np.asarray(cascade.train_log[key], dtype=np.float64).tobytes())


def update_detections(digest, detections):
    digest.update(len(detections).to_bytes(4, "little"))
    for d in detections:
        digest.update(np.asarray(d.box, dtype=np.float64).tobytes())
        digest.update(np.float64(d.score).tobytes())
        digest.update(np.asarray(d.landmarks, dtype=np.float64).tobytes())


def fingerprint() -> list[tuple[str, str]]:
    """(part, hex digest) pairs, the overall digest after the parts, then
    one digest per detect run."""
    parts = {name: hashlib.sha256() for name in PARTS}
    corpus = synthetic.generate_synthetic_corpus(workloads.SETUP_SEED, workloads.SETUP_IMAGES)
    config = pipeline.TrainConfig(epochs=1, seed=workloads.SETUP_SEED)

    model, history = trained(corpus, config)
    update_model(parts["setup models"], model)
    parts["setup histories"].update(repr(history).encode())
    for variant in VARIANTS:
        variant_model, history = trained(corpus, config, **variant)
        update_model(parts["setup models"], variant_model)
        parts["setup histories"].update(repr(history).encode())

    model.cascade = pipeline.train_prefilter(corpus, num_ferns=workloads.SETUP_FERNS,
                                             seed=workloads.SETUP_SEED)
    update_cascade(parts["cascade"], model.cascade)
    model = round_trip(model)

    held = synthetic.generate_synthetic_corpus(
        workloads.SETUP_SEED + 1, DETECT_IMAGES, synthetic.CorpusParams(image_size=160)
    )
    roi_model = copy.copy(model)
    roi_model.cascade = open_cascade(model.cascade)
    runs = (
        (model, pipeline.DetectOptions()),
        (roi_model, pipeline.DetectOptions(use_roi_conv=True)),
        (model, pipeline.DetectOptions(suppression="nms")),
        (model, pipeline.DetectOptions(suppression="none")),
    )
    run_digests = {name: hashlib.sha256() for name in DETECT_RUNS}
    for name, (run_model, options) in zip(DETECT_RUNS, runs):
        for sample in held:
            detections = pipeline.detect(sample.image, run_model, options)
            update_detections(parts["detect runs"], detections)
            update_detections(run_digests[name], detections)

    steps = synthetic.generate_synthetic_corpus(workloads.SETUP_SEED + 2, JOINT_STEPS)
    stepped = copy.deepcopy(model)
    for sample in steps:
        _, history = pipeline.train_end_to_end([sample], stepped, config)
        parts["joint steps"].update(repr(history["epochs"]).encode())
    update_model(parts["joint steps"], stepped)

    overall = hashlib.sha256()
    for digest in parts.values():
        overall.update(digest.digest())
    return [(name, parts[name].hexdigest()) for name in PARTS] + [
        ("overall", overall.hexdigest())
    ] + [(f"detect {name}", run_digests[name].hexdigest()) for name in DETECT_RUNS]


if __name__ == "__main__":
    for name, digest in fingerprint():
        print(f"{name:<15} {digest}")
