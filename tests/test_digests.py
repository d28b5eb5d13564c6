"""The comparison of ``tools/digests.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import digests  # noqa: E402


def test_equal_digests_compare_clean():
    side = {"a.csv": "1", "pools/b.sol": "2"}
    assert digests.compare(side, dict(side)) == []
    assert digests.compare({}, {}) == []


def test_every_difference_is_listed_by_name():
    parent = {"a.csv": "1", "b.txt": "2", "gone.sol": "3"}
    tree = {"a.csv": "1", "b.txt": "9", "new.svg": "4"}
    assert digests.compare(parent, tree) == [
        "b.txt: differs", "gone.sol: parent only", "new.svg: tree only",
    ]

