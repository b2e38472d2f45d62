"""Set-up, workload inputs, operations, output checks and quality.

An operation is one ``pipeline.detect`` call on one image, or one joint
training step (``pipeline.train_end_to_end`` on one image). The benchmark
passes the program only generated images; the ground truth stays here and is
used to score the outputs.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from hostspeed import HostSpeed
from warpdet import pipeline, synthetic
from warpdet.suppress import iou

# Desk-scale set-up: fixed seeds, so every run trains the same model.
SETUP_SEED = 0
SETUP_IMAGES = 60
SETUP_RPN_EPOCHS = 2
SETUP_FERNS = 40

DETECT_IMAGES = 50        # one pass of a detect workload
DETECT_IMAGE_SIZE = 160
TRAIN_IMAGES = 40         # one pass of train_joint
FALSE_ALARMS_PER_IMAGE = 0.1
MATCH_IOU = 0.5
# Sanity floor, not a regression bound: a working dense detector scores well
# above it on every seed tried, a broken conv or warp kernel far below it.
DENSE_AP_FLOOR = 0.5


@dataclass
class SetUp:
    model: object
    config: pipeline.TrainConfig
    seconds: dict = field(default_factory=dict)       # scaled, per stage
    wall_seconds: dict = field(default_factory=dict)  # wall time, per stage

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    def stage(self, speed: HostSpeed, name: str, fn, *args, **kwargs):
        """Run and time one set-up stage between two host-speed timings."""
        before = speed.kernel_ms()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        self.wall_seconds[name] = wall
        self.seconds[name] = wall * speed.scale(before, speed.kernel_ms())
        return result


def set_up(speed: HostSpeed) -> SetUp:
    """Generate the training corpus, train RPN, joint net and fern cascade."""
    setup = SetUp(None, pipeline.TrainConfig(epochs=1, seed=SETUP_SEED))
    corpus = setup.stage(speed, "synthetic.generate_s",
                         synthetic.generate_synthetic_corpus, SETUP_SEED, SETUP_IMAGES)
    model, _ = setup.stage(speed, "pipeline.train_rpn_s", pipeline.train_rpn,
                           corpus, setup.config, epochs=SETUP_RPN_EPOCHS)
    model, _ = setup.stage(speed, "pipeline.train_end_to_end_s",
                           pipeline.train_end_to_end, corpus, model, setup.config)
    model.cascade = setup.stage(speed, "pipeline.train_prefilter_s",
                                pipeline.train_prefilter, corpus,
                                num_ferns=SETUP_FERNS, seed=SETUP_SEED)
    setup.model = model
    return setup


def model_arrays(model) -> list[np.ndarray]:
    """Every trained array of a detector, cascade included."""
    arrays = list(model.params())
    if model.cascade is not None:
        arrays.append(model.cascade.stage_thresholds)
        for fern in model.cascade.ferns:
            arrays += [fern.coords, fern.thresholds, fern.scores]
    return arrays


def same_model(a, b) -> bool:
    xs, ys = model_arrays(a), model_arrays(b)
    return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))


DETECT_STREAM, TRAIN_STREAM = 1, 2


def held_out_seed(seed: int, stream: int) -> int:
    """Corpus seed derived from the workload seed, so that no workload seed
    reproduces the set-up corpus."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


# --------------------------------------------------------------------------
# workloads


class Workload:
    """A list of inputs and the operation run on each of them."""

    name = ""
    kind = ""  # "detect" or "train_step"

    def __init__(self, setup: SetUp, seed: int):
        self.setup = setup
        self.samples = self.make_samples(seed)

    def make_samples(self, seed):
        raise NotImplementedError

    def start_pass(self):
        """Model that the next pass over the samples runs on."""
        return self.setup.model

    def run(self, model, sample):
        """One operation; returns its output for checking and scoring."""
        raise NotImplementedError


class DetectWorkload(Workload):
    kind = "detect"
    options = pipeline.DetectOptions()

    def make_samples(self, seed):
        params = synthetic.CorpusParams(image_size=DETECT_IMAGE_SIZE)
        return synthetic.generate_synthetic_corpus(
            held_out_seed(seed, DETECT_STREAM), DETECT_IMAGES, params
        )

    def run(self, model, sample):
        return pipeline.detect(sample.image, model, self.options)


class DetectDense(DetectWorkload):
    name = "detect_dense"


class DetectRoi(DetectWorkload):
    name = "detect_roi"
    options = pipeline.DetectOptions(use_roi_conv=True)


class TrainJoint(Workload):
    """Joint training steps; every pass starts from a fresh copy of the
    trained model, so step i of every pass repeats the same computation."""

    name = "train_joint"
    kind = "train_step"

    def make_samples(self, seed):
        return synthetic.generate_synthetic_corpus(
            held_out_seed(seed, TRAIN_STREAM), TRAIN_IMAGES
        )

    def start_pass(self):
        return copy.deepcopy(self.setup.model)

    def run(self, model, sample):
        _, history = pipeline.train_end_to_end([sample], model, self.setup.config)
        return history["epochs"][0]["loss"]


WORKLOADS = {cls.name: cls for cls in (DetectDense, DetectRoi, TrainJoint)}


# --------------------------------------------------------------------------
# output checks


def fingerprint(output) -> np.ndarray:
    """Exact array form of an operation's output, for repeat comparisons."""
    if isinstance(output, float):
        return np.array([output])
    rows = [
        np.concatenate([np.asarray(d.box, dtype=np.float64), [d.score],
                        np.asarray(d.landmarks, dtype=np.float64).ravel()])
        for d in output
    ]
    return np.vstack(rows) if rows else np.empty((0, 0))


def output_problem(output) -> str | None:
    """Why an output is malformed, or None."""
    if isinstance(output, float):
        return None if np.isfinite(output) else f"non-finite loss {output}"
    for d in output:
        if not np.all(np.isfinite(d.box)) or d.landmarks is None \
                or not np.all(np.isfinite(d.landmarks)):
            return f"non-finite box or landmarks in {d.box}"
        if not 0.0 <= d.score <= 1.0:
            return f"verdict score {d.score} outside [0, 1]"
    return None


# --------------------------------------------------------------------------
# quality


def detect_quality(samples, detections) -> dict:
    """AP, recall at the false-alarm budget and landmark error of one pass."""
    truths = [[box for box, _ in s.faces] for s in samples]
    report = pipeline.evaluate(detections, truths, iou_threshold=MATCH_IOU)
    budget = int(round(FALSE_ALARMS_PER_IMAGE * len(samples)))
    return {
        "ap": report.average_precision(),
        "recall_at_fa": report.recall_at_false_alarms(budget),
        "landmark_err_36px": landmark_error(samples, detections),
    }


def landmark_error(samples, detections) -> float | None:
    """Mean five-landmark error of the best-overlapping detection of each
    found face, normalised to a 36-px face; None when no face was found."""
    errors = []
    for sample, dets in zip(samples, detections):
        for box, landmarks in sample.faces:
            overlaps = [iou(d.box, box) for d in dets]
            if not overlaps or max(overlaps) < MATCH_IOU:
                continue
            best = dets[int(np.argmax(overlaps))]
            err = np.linalg.norm(best.landmarks - landmarks, axis=1).mean()
            errors.append(err * 36.0 / max(box[2], box[3]))
    return float(np.mean(errors)) if errors else None
