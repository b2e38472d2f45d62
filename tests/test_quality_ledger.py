"""The newest quality ledger entry, ``QUALITY_<n>.json`` at the repository
root, is one complete run of ``tests/quality.py --out`` at the reference
scale on the validation corpus. The checks read the file and re-derive its
summary from its rows; two more run the script's ``main`` at a tiny scale,
so its training and scoring calls are exercised too, as on a one-CPU host in
this process and as on a four-CPU host in a pool of one worker per seed."""

import io
import json
import re
import sys
from contextlib import redirect_stdout
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


def test_a_repeated_seed_is_rejected(quality, capsys):
    """A run that trains a seed twice is no ledger entry, so the script
    refuses it before training, naming the seed."""
    with pytest.raises(SystemExit):
        quality.parse_args(["--seeds", "0", "1", "0"])
    assert "seed 0" in capsys.readouterr().err


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


# Two seeds at the smallest scale, with the box head and NMS, which keep it to
# a few seconds; without --out, which reads git.
TINY_ARGV = ["--images", "8", "--seeds", "0", "1", "--rpn-epochs", "1",
             "--joint-epochs", "1", "--no-multitask", "--suppression", "nms"]


def printed_lines(quality, cpus):
    """The tiny run's printed lines and the sizes of the worker pools it
    started, as main runs on a host of cpus CPUs."""
    out, pools = io.StringIO(), []
    executor = quality.ProcessPoolExecutor

    def counted(jobs, **kwargs):
        pools.append(jobs)
        return executor(jobs, **kwargs)

    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out):
        patch.setattr(quality.os, "cpu_count", lambda: cpus)
        patch.setattr(quality, "ProcessPoolExecutor", counted)
        quality.main(TINY_ARGV)
    return out.getvalue().splitlines(), pools


@pytest.fixture(scope="module")
def tiny_run(quality):
    return printed_lines(quality, 1)


def test_main_trains_scores_and_prints_the_run_as_its_last_line(quality, tiny_run):
    lines, pools = tiny_run
    assert pools == []  # one CPU: the seeds run in this process
    assert len(lines) == 6  # header, two seeds, median, min, JSON
    record = json.loads(lines[-1])
    args = vars(quality.parse_args(TINY_ARGV))
    assert args.pop("out") is None
    assert set(record) == {*args, "workload_seed", "stream", "rows", "median", "min"}
    assert {key: record[key] for key in args} == args
    assert (record["workload_seed"], record["stream"]) == (
        quality.WORKLOAD_SEED, quality.VALIDATION_STREAM)
    check_rows_and_summary(quality, record)


def test_a_pool_of_workers_prints_the_same_run(quality, tiny_run):
    """Four CPUs start one worker per seed; the seeds' rows come back in
    seed order with every number of the in-process run, and the printed
    table and record are the same."""
    lines, pools = printed_lines(quality, 4)
    assert pools == [2]
    assert lines == tiny_run[0]
