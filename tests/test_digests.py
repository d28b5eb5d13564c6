"""The comparison of ``tools/digests.py``, the configs it runs and the reach of its fallback config."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import digests  # noqa: E402

from confdive import pipeline  # noqa: E402


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


def test_every_benchmark_workload_is_compared_at_seed_401():
    from stages import WORKLOADS  # tools/digests.py put benchmarks/ on the path

    root = Path(__file__).resolve().parent.parent
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    assert names and all(digests.CONFIGS[name] == {**WORKLOADS[name], "seed": 401} for name in names)


def test_fallback_config_reaches_the_fallback(tmp_path):
    # a threshold whose fixed set is infeasible on some instance falls back to the unfixed solve
    config = pipeline.PipelineConfig(outdir=str(tmp_path), **digests.FALLBACK)
    for stage in ("generate", "collect", "train", "gridsearch"):
        getattr(pipeline, "run_" + stage)(config)
    header, *rows = (tmp_path / "gridsearch.csv").read_text().splitlines()[:-1]  # then BEST t=
    column = header.split(",").index("feasibility_rate")
    assert any(float(row.split(",")[column]) < 1.0 for row in rows)
