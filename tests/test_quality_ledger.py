"""The newest quality ledger entry, ``QUALITY_<n>.json`` at the repository
root, is one complete run of ``tests/quality.py --out`` at the reference
scale on the validation corpus. The checks read the file and re-derive its
summary from its rows; one more runs the script's ``main`` at a tiny scale,
so its training and scoring calls are exercised too."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
LEDGERS = sorted(ROOT.glob("QUALITY_*.json"), key=lambda p: int(p.stem.split("_")[1]))
# The reference scale: corpus images, proposal-net epochs, joint epochs, seeds.
REFERENCE_SCALE = (300, 2, 2)
MIN_SEEDS = 8


@pytest.fixture(scope="module")
def quality():
    saved = list(sys.path)
    try:
        import quality
    finally:
        sys.path[:] = saved
    return quality


@pytest.fixture(scope="module")
def entry():
    assert LEDGERS, "no QUALITY_<n>.json at the repository root"
    lines = LEDGERS[-1].read_text().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_records_its_provenance_and_the_command_that_wrote_it(quality, entry):
    args = vars(quality.parse_args(entry["argv"]))
    assert args.pop("out").name == LEDGERS[-1].name
    assert set(entry) == {*args, "workload_seed", "stream", "rows", "median", "min",
                          "commit", "modified", "argv", "numpy", "wall_s"}
    assert {key: entry[key] for key in args} == args
    assert re.fullmatch("[0-9a-f]{40}", entry["commit"])
    assert all(isinstance(path, str) for path in entry["modified"])
    assert re.fullmatch(r"\d+\.\d+\.\d+\S*", entry["numpy"])
    assert entry["wall_s"] > 0


def test_is_a_reference_scale_run_on_the_validation_corpus(quality, entry):
    assert (entry["images"], entry["rpn_epochs"], entry["joint_epochs"]) == REFERENCE_SCALE
    assert len(set(entry["seeds"])) == len(entry["seeds"]) >= MIN_SEEDS
    assert not entry["test"]
    assert (entry["workload_seed"], entry["stream"]) == (
        quality.WORKLOAD_SEED, quality.VALIDATION_STREAM)


def check_rows_and_summary(quality, entry):
    """The rows are scores per seed, and the summary is their median and min."""
    forms = ["float64", "float32"] if entry["reference"] else ["float32"]
    keys = [key for key, _, _ in quality.METRICS]
    rows = entry["rows"]
    assert [row["seed"] for row in rows] == entry["seeds"]
    for row in rows:
        assert set(row) == {"seed", *forms}
        for form in forms:
            scores = row[form]
            assert set(scores) == {*keys, "boxes"}
            assert 0.0 <= scores["ap"] <= 1.0
            assert 0.0 <= scores["recall_at_fa"] <= 1.0
            assert isinstance(scores["boxes"], int) and scores["boxes"] >= 0
            assert scores["boxes_per_image"] == \
                scores["boxes"] / quality.workloads.DETECT_IMAGES
    for stat, reduce in (("median", np.median), ("min", np.min)):
        assert entry[stat] == {
            form: {key: float(reduce([row[form][key] for row in rows])) for key in keys}
            for form in forms
        }


def test_rows_are_scores_per_seed_and_the_summary_is_their_median_and_min(
    quality, entry
):
    check_rows_and_summary(quality, entry)


def test_main_trains_scores_and_prints_the_run_as_its_last_line(quality, capsys):
    """Two seeds at the smallest scale, with the box head and NMS, which
    keep it to a few seconds; without --out, which reads git."""
    argv = ["--images", "8", "--seeds", "0", "1", "--rpn-epochs", "1",
            "--joint-epochs", "1", "--no-multitask", "--suppression", "nms"]
    quality.main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6  # header, two seeds, median, min, JSON
    record = json.loads(lines[-1])
    args = vars(quality.parse_args(argv))
    assert args.pop("out") is None
    assert set(record) == {*args, "workload_seed", "stream", "rows", "median", "min"}
    assert {key: record[key] for key in args} == args
    assert (record["workload_seed"], record["stream"]) == (
        quality.WORKLOAD_SEED, quality.VALIDATION_STREAM)
    check_rows_and_summary(quality, record)
