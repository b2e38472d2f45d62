"""tests/fingerprint.py, the digest a refactor compares before and after,
run under pytest: its parts come out named and in order, and a seeded run
gives the same bytes when run again."""

import re

import fingerprint

NAMES = [
    "setup models", "cascade", "detect runs", "joint steps", "overall",
    "detect dense", "detect roi", "detect nms", "detect none",
]


def test_fingerprint_names_nine_sha256_digests_and_repeats_them():
    first = fingerprint.fingerprint()
    assert [name for name, _ in first] == NAMES
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in first)
    assert fingerprint.fingerprint() == first
