"""Output digests of a parent revision against the working tree.

    python3 tools/digests.py [--parent HEAD]

Runs the five pipeline stages on the criterion-9 config of
``tests/test_acceptance.py`` (with ``svg=true``), on its criterion-10 config,
on ``FALLBACK``, and for one pass at seed 401 of each workload that
``BENCHMARK.json`` names, with the settings of ``benchmarks/stages.py``'s
``WORKLOADS``. So one command checks the same bytes on every pipeline that
the acceptance tests and the benchmark judge. Each runs once in a temporary
``git worktree`` of the parent revision (removed afterwards) and once in the
working tree, each side importing its own ``src/``. Prints every output file
whose sha256 differs or that exists on one side only, and exits 1 if there
is any: a refactor that keeps behaviour writes the same bytes. The ten
pipelines take about 30 s on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import ROOT, worktree

# the acceptance configs (test_acceptance imports confdive) and the benchmark's WORKLOADS
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src"), str(ROOT / "benchmarks")]
from stages import WORKLOADS  # noqa: E402
from test_acceptance import DETERMINISM, END_TO_END  # noqa: E402

#: A knapsack config whose low thresholds fix infeasible sets, so its
#: gridsearch reaches ``diving.dive_and_solve``'s fallback to the unfixed
#: solve, which neither acceptance config does.
FALLBACK = dict(
    family="knapsack", n_items=40, n_dims=5, n_train=8, n_valid=4, n_test=8, seed=3,
    collect_step_limit=150, collect_emphasis="aggressive", step_limit=150, emphasis="off",
    pool_size=8, hidden_dim=16, epochs=20, lr=0.1, batch_size=8,
    grid=(0.6, 0.7, 0.8, 0.9, 0.99), svg=True,
)

#: Pipeline settings per acceptance criterion, the fallback config, then one
#: pass at seed 401 of each workload that BENCHMARK.json runs.
CONFIGS = {
    "criterion9": {**END_TO_END, "svg": True},
    "criterion10": DETERMINISM,
    "fallback": FALLBACK,
    **{w["name"]: {**WORKLOADS[w["name"]], "seed": 401}
       for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]},
}

#: Runs the five stages in a fresh interpreter; argv holds the output
#: directory and the settings as JSON.
RUN_STAGES = """
import json, sys
from confdive import pipeline
settings = json.loads(sys.argv[2])
settings["grid"] = tuple(settings["grid"])
config = pipeline.PipelineConfig(outdir=sys.argv[1], **settings)
for stage in ("generate", "collect", "train", "gridsearch", "evaluate"):
    getattr(pipeline, "run_" + stage)(config)
"""


def digests(tree: Path, settings: dict, outdir: Path) -> dict[str, str]:
    """The sha256 of every file the five stages write under ``outdir``, by relative path."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, "-c", RUN_STAGES, str(outdir), json.dumps(settings)],
                   cwd=tree, env=env, check=True)
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*"))
        if p.is_file()
    }


def compare(parent: dict[str, str], tree: dict[str, str]) -> list[str]:
    """One line per file whose digest differs or that only one side wrote, by name."""
    lines = []
    for name in sorted(parent.keys() | tree.keys()):
        if name not in tree:
            lines.append(f"{name}: parent only")
        elif name not in parent:
            lines.append(f"{name}: tree only")
        elif parent[name] != tree[name]:
            lines.append(f"{name}: differs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # still removes the worktree
    differing = 0
    with worktree(args.parent) as parent_dir, tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        for name, settings in CONFIGS.items():
            sides = [digests(tree, settings, Path(tmp) / side / name)
                     for side, tree in (("parent", parent_dir), ("tree", ROOT))]
            lines = compare(*sides)
            print(f"# {name}: {len(sides[1])} files, {len(lines)} differing", flush=True)
            for line in lines:
                print(f"{name}/{line}")
            differing += len(lines)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
