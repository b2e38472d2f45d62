"""Time two source trees' joint step or dense detect, alternating in one process.

Run from the repository root:

    python tests/ab_step.py OLD_TREE NEW_TREE --alternations 16 --seed 11
    python tests/ab_step.py OLD_TREE NEW_TREE --workload detect_dense

Each tree is a checkout of this repository. Its ``src/warpdet`` is imported
under its own module name (``warpdet_a`` and ``warpdet_b``), which works
because the package imports only relatively. Each side then trains the
benchmark's set-up model on the set-up recipe (the SETUP_* constants of
``bench/workloads.py``; the fern cascade, which neither workload here
reads, is left out) and builds the workload's held-out images as the
benchmark does.

An alternation runs one whole pass of the workload on each side, the
order turning each time: ``train_joint`` is one joint training step per
image, on a fresh copy of the side's set-up model; ``detect_dense`` is
``detect`` with the default options on each image. A pass's figure is its
median wall time per operation. The script prints each side's median over
the alternations, the median of the new/old ratios, and how many
alternations the new tree won, and whether the two trees' outputs were
equal bit for bit.

Two processes on a shared host drift apart by a few percent, as do two
copies of one tree, while two versions timed in turn in one process see
the same host. Times are wall times, not scaled to host speed. Pytest does
not collect this file.
"""

import os
import sys
from pathlib import Path

# One BLAS thread, as in the benchmark and the test suite.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import argparse  # noqa: E402
import copy  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("train_joint", "detect_dense")


def import_tree(tree: Path, name: str):
    """The warpdet package of a source tree, imported as module ``name``."""
    package = tree / "src" / "warpdet"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("pipeline", "synthetic"):
        importlib.import_module(f"{name}.{sub}")
    return module


class Side:
    """One tree's package, set-up model and workload inputs."""

    def __init__(self, tree: Path, name: str, workload: str, seed: int):
        self.package = import_tree(tree, name)
        self.workload = workload
        pipeline, synthetic = self.package.pipeline, self.package.synthetic
        self.config = pipeline.TrainConfig(epochs=1, seed=workloads.SETUP_SEED)
        corpus = synthetic.generate_synthetic_corpus(workloads.SETUP_SEED,
                                                     workloads.SETUP_IMAGES)
        model, _ = pipeline.train_rpn(corpus, self.config,
                                      epochs=workloads.SETUP_RPN_EPOCHS)
        self.model, _ = pipeline.train_end_to_end(corpus, model, self.config)
        if workload == "train_joint":
            self.samples = synthetic.generate_synthetic_corpus(
                workloads.held_out_seed(seed, workloads.TRAIN_STREAM),
                workloads.TRAIN_IMAGES)
        else:
            self.samples = synthetic.generate_synthetic_corpus(
                workloads.held_out_seed(seed, workloads.DETECT_STREAM),
                workloads.DETECT_IMAGES,
                synthetic.CorpusParams(image_size=workloads.DETECT_IMAGE_SIZE))

    def run_pass(self):
        """(median ms per operation, the pass's outputs as bytes)."""
        pipeline = self.package.pipeline
        model = (copy.deepcopy(self.model) if self.workload == "train_joint"
                 else self.model)
        times, outputs = [], []
        for sample in self.samples:
            start = time.perf_counter()
            if self.workload == "train_joint":
                _, history = pipeline.train_end_to_end([sample], model, self.config)
                output = np.float64(history["epochs"][0]["loss"]).tobytes()
            else:
                found = pipeline.detect(sample.image, model)
                output = b"".join(
                    np.concatenate([d.box, [d.score], d.landmarks.ravel()]).tobytes()
                    for d in found)
            times.append(time.perf_counter() - start)
            outputs.append(output)
        return 1e3 * statistics.median(times), outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree A, the baseline")
    parser.add_argument("new", type=Path, help="source tree B, the change")
    parser.add_argument("--workload", choices=WORKLOADS, default="train_joint")
    parser.add_argument("--alternations", type=int, default=16)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.alternations < 2:
        parser.error("--alternations must be at least 2")

    old = Side(args.old.resolve(), "warpdet_a", args.workload, args.seed)
    new = Side(args.new.resolve(), "warpdet_b", args.workload, args.seed)
    _, old_out = old.run_pass()  # warm-up, and the outputs to compare
    _, new_out = new.run_pass()
    times = {"old": [], "new": []}
    for n in range(args.alternations):
        order = (("old", old), ("new", new)) if n % 2 == 0 else (("new", new), ("old", old))
        for label, side in order:
            ms, _ = side.run_pass()
            times[label].append(ms)

    ratios = [b / a for a, b in zip(times["old"], times["new"])]
    wins = sum(b < a for a, b in zip(times["old"], times["new"]))
    print(f"workload {args.workload}, seed {args.seed}, {args.alternations} "
          f"alternations of {len(old.samples)} operations a side")
    for label, tree in (("old", args.old), ("new", args.new)):
        q1, q2, q3 = statistics.quantiles(times[label], n=4)
        print(f"{label} {tree}: median {q2:.4f} ms per operation "
              f"(quartiles {q1:.4f} {q3:.4f})")
    print(f"median ratio new/old {statistics.median(ratios):.4f} "
          f"({100 * (statistics.median(ratios) - 1):+.2f}%), "
          f"new faster in {wins} of {args.alternations}")
    print(f"outputs equal: {old_out == new_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
