"""tests/fingerprint.py, the digest a refactor compares before and after,
run under pytest: its parts come out named and in order, and a seeded run
gives the same bytes when run again."""

import re
import sys

import pytest

NAMES = [
    "setup models", "setup histories", "cascade", "detect runs", "joint steps",
    "overall", "detect dense", "detect roi", "detect nms", "detect none",
]


@pytest.fixture(scope="module")
def fingerprint():
    """The script as a module; the src and bench paths its import adds to
    sys.path come off again."""
    saved = list(sys.path)
    try:
        import fingerprint
    finally:
        sys.path[:] = saved
    return fingerprint


def test_fingerprint_names_nine_sha256_digests_and_repeats_them(fingerprint):
    first = fingerprint.fingerprint()
    assert [name for name, _ in first] == NAMES
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in first)
    assert fingerprint.fingerprint() == first
