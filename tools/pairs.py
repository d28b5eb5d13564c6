"""Alternating benchmark pairs: a parent revision against the working tree.

    python3 tools/pairs.py --workload covering-aggr --seed 23,5 --pairs 10 [--parent HEAD]

Checks the parent revision out into a temporary ``git worktree`` (removed
afterwards), then, for each seed of ``--seed`` (one seed or a comma list) in
turn, runs ``benchmarks/run.py --trace 0`` (at its own default ``--seconds``)
N times on each side, alternating which side goes first, and reads the
end-to-end metrics from the JSON line each run prints. It prints one block
per seed, judged on that seed's runs alone, as follows. For
``pipeline_s`` (lower is better) it prints every run of each side, the median
and the quartiles; then the wins of the working tree (ties count for neither
side) and whether the claim rule holds. The rule is judged on the paired
differences (parent minus working tree): the working tree wins at least 9 of
10 pairs, and the median difference exceeds the differences' interquartile
range. A pair's two runs follow each other, so slow drift of the machine over
the session moves both and cancels in their difference, where it would widen
the parent's own spread. The gap between the two sides' medians and the
parent's interquartile range are printed beside it, not judged. For every
other metric it prints each side's median and quartiles. Every end-to-end
metric of ``BENCHMARK.json`` is then judged by its ``better`` direction and
``bound``: it is marked ``WORSE`` when the
working tree's median is worse than the parent's by more than ``bound`` times
the parent's median. To show which stage moved, it then prints each side's
median of the stage times that ``run.py`` prints beside those metrics but
does not bound (``collect_s``, ``train_s``, ``gridsearch_s``, ``evaluate_s``),
with the tree's change against the parent; these are not judged. Last, it
compares the output sha256 that each run prints (``# N passes, output sha256
<hex>``) pair by pair, and says whether the two sides wrote the same outputs;
a difference is reported, not failed, since a change of behaviour differs on
purpose.

Each ``run.py`` starts in its own session. If this tool is stopped (Ctrl-C or
SIGTERM), the running ``run.py`` gets SIGINT, which unwinds it through its own
cleanup of the ``stages.py`` session it started, and SIGKILL if it has not
exited within ``STOP_GRACE_S``; only then is the worktree removed.

Each side writes its own ``.bench_out/``; nothing is written under
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
#: The declared benchmark: each end-to-end metric's direction and bound.
BENCHMARK = ROOT / "BENCHMARK.json"
#: The metric a claimed gain is judged on; lower is better.
METRIC = "pipeline_s"
#: Share of pairs the working tree must win for a claimed gain to hold.
WIN_SHARE = 0.9
#: Seconds a stopped run.py gets to kill its stages.py session before SIGKILL.
STOP_GRACE_S = 10.0
#: run.py's line with the sha256 of every output file its passes wrote.
DIGEST_LINE = re.compile(r"^# \d+ passes, output sha256 (\S+)$", re.MULTILINE)
#: The stage times run.py prints, unbounded, beside the end-to-end metrics.
STAGES = ("collect_s", "train_s", "gridsearch_s", "evaluate_s")
#: run.py's line for a metric it does not bound: ``<name> <value> <unit>  (not bounded)``.
UNBOUNDED_LINE = re.compile(r"^(\w+)\s+(\S+) \S+  \(not bounded\)$", re.MULTILINE)


@dataclass(frozen=True)
class Summary:
    median: float
    q1: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def summarize(values: list[float]) -> Summary:
    """Median and quartiles (linear interpolation between order statistics)."""
    if len(values) < 2:
        raise ValueError("need at least two runs per side")
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return Summary(median, q1, q3)


@dataclass(frozen=True)
class Verdict:
    wins: int
    losses: int
    ties: int
    diff: Summary  # of the paired differences, parent minus working tree: > 0 is better
    gap: float  # parent median minus working-tree median, not judged
    parent_iqr: float  # not judged

    @property
    def holds(self) -> bool:
        n = self.wins + self.losses + self.ties
        return self.wins >= WIN_SHARE * n and self.diff.median > self.diff.iqr


def judge(parent: list[float], child: list[float]) -> Verdict:
    """Pair the i-th run of each side; the claim holds when the working tree
    (``child``) wins at least WIN_SHARE of the pairs and the median paired
    difference exceeds the differences' interquartile range (lower is better)."""
    if len(parent) != len(child):
        raise ValueError(f"unpaired runs: {len(parent)} parent, {len(child)} child")
    diffs = [p - c for p, c in zip(parent, child)]
    wins = sum(d > 0 for d in diffs)
    losses = sum(d < 0 for d in diffs)
    p, c = summarize(parent), summarize(child)
    return Verdict(wins, losses, len(diffs) - wins - losses, summarize(diffs),
                   p.median - c.median, p.iqr)


def load_bounds(path: Path = BENCHMARK) -> dict[str, tuple[str, float]]:
    """Each end-to-end metric's ``better`` direction and ``bound``, read from ``path``."""
    spec = json.loads(path.read_text())
    return {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}


def is_worse(parent: float, child: float, better: str, bound: float) -> bool:
    """Whether ``child`` is worse than ``parent`` by more than ``bound`` times ``parent``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    excess = child - parent if better == "lower" else parent - child
    return excess > bound * abs(parent)


def worse_metrics(parent: list[dict[str, float]], child: list[dict[str, float]],
                  bounds: dict[str, tuple[str, float]]) -> list[str]:
    """The bounded metrics whose working-tree median is worse than the parent's
    by more than their bound, in ``bounds`` order."""
    return [name for name, (better, bound) in bounds.items()
            if name in parent[0]
            and is_worse(summarize([r[name] for r in parent]).median,
                         summarize([r[name] for r in child]).median, better, bound)]


def stop(proc: subprocess.Popen) -> None:
    """End a run.py started in its own session, and what it started."""
    try:
        os.killpg(proc.pid, signal.SIGINT)  # KeyboardInterrupt runs run.py's cleanup
        proc.wait(timeout=STOP_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    except ProcessLookupError:
        proc.wait()


@contextlib.contextmanager
def worktree(revision: str) -> Iterator[Path]:
    """A temporary detached ``git worktree`` of ``revision``, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="worktree-") as tmp:
        path = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(path), revision],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            yield path
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(path)],
                           cwd=ROOT, check=False, capture_output=True)


def parse_output(out: str) -> tuple[dict[str, float], str]:
    """The end-to-end metrics of run.py's last (JSON) line, and its output digest."""
    digest = DIGEST_LINE.search(out)
    if digest is None:
        raise ValueError("run.py printed no output digest")
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise ValueError(f"the benchmark run reported a failure: {result}")
    return {name: float(m["value"]) for name, m in result["metrics"].items()}, digest.group(1)


def parse_stage_times(out: str) -> dict[str, float]:
    """The stage times among run.py's printed metric lines, in ``STAGES`` order."""
    printed = dict(UNBOUNDED_LINE.findall(out))
    return {name: float(printed[name]) for name in STAGES if name in printed}


def stage_table(parent: list[dict[str, float]], tree: list[dict[str, float]]) -> list[str]:
    """One line per stage time both sides printed: each side's median and the tree's change."""
    lines = []
    for name in STAGES:
        if all(name in r for r in parent + tree):
            p = statistics.median(r[name] for r in parent)
            t = statistics.median(r[name] for r in tree)
            change = f"{(t - p) / p:+.1%}" if p else "n/a"
            lines.append(f"{name:18s} parent {p:.4f}  tree {t:.4f}  ({change})")
    return lines


def compare_digests(parent: list[str], tree: list[str]) -> str:
    """Whether each pair's two runs wrote the same outputs; the first pair that did not."""
    for i, (p, t) in enumerate(zip(parent, tree, strict=True), start=1):
        if p != t:
            return f"OUTPUTS DIFFER on pair {i}: parent {p} tree {t}"
    return f"outputs identical on all {len(parent)} pairs"


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict[str, float], dict[str, float], str]:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    finally:
        if proc.returncode is None:
            stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}\n{err[-3000:]}")
    try:
        metrics, digest = parse_output(out)
    except ValueError as exc:
        raise RuntimeError(f"{tree}: {exc}") from None
    return metrics, parse_stage_times(out), digest


def parse_seeds(text: str) -> list[int]:
    """``--seed``'s value: one seed, or distinct seeds in a comma list such as ``23,5``."""
    try:
        seeds = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a seed or a comma list of seeds, got {text!r}") from None
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"repeated seed in {text!r}")
    return seeds


def seed_block(sides: dict[str, Path], workload: str, seed: int, n_pairs: int, parent: str,
               bounds: dict[str, tuple[str, float]]) -> None:
    """Run ``n_pairs`` alternating pairs at one seed and print their judged block."""
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "tree": []}
    stages: dict[str, list[dict[str, float]]] = {"parent": [], "tree": []}
    digests: dict[str, list[str]] = {"parent": [], "tree": []}
    for i in range(n_pairs):
        order = ("parent", "tree") if i % 2 == 0 else ("tree", "parent")
        for side in order:
            metrics, stage_times, digest = run_once(sides[side], workload, seed)
            runs[side].append(metrics)
            stages[side].append(stage_times)
            digests[side].append(digest)
        print(f"seed {seed} pair {i + 1}: parent {runs['parent'][-1][METRIC]:.4f}  "
              f"tree {runs['tree'][-1][METRIC]:.4f}", flush=True)

    print(f"# {workload} seed={seed} {METRIC}, parent={parent}")
    judged = {side: [r[METRIC] for r in rs] for side, rs in runs.items()}
    for side, values in judged.items():
        s = summarize(values)
        print(f"{side:6s} runs {' '.join(f'{v:.4f}' for v in values)}")
        print(f"{side:6s} median {s.median:.4f}  q1 {s.q1:.4f}  q3 {s.q3:.4f}  iqr {s.iqr:.4f}")
    v = judge(judged["parent"], judged["tree"])
    print(f"tree wins {v.wins}/{n_pairs} (losses {v.losses}, ties {v.ties}); "
          f"median paired difference {v.diff.median:.4f} vs their iqr {v.diff.iqr:.4f}; "
          f"claim {'holds' if v.holds else 'does not hold'}")
    print(f"not judged: median gap {v.gap:.4f} vs parent iqr {v.parent_iqr:.4f}")
    worse = worse_metrics(runs["parent"], runs["tree"], bounds)
    for name in runs["parent"][0]:
        if name != METRIC:
            cells = []
            for side, rs in runs.items():
                s = summarize([r[name] for r in rs])
                cells.append(f"{side} {s.median:.4g} [{s.q1:.4g}, {s.q3:.4g}]")
            print(f"{name:18s} " + "  ".join(cells))
    for name in worse:
        better, bound = bounds[name]
        print(f"WORSE {name}: the tree's median is worse than the parent's by more than "
              f"{bound:g} of it ({better} is better)")
    if not worse:
        print(f"no bounded metric is worse than its bound: {', '.join(bounds)}")
    print("# stage time medians (s), not judged")
    for line in stage_table(stages["parent"], stages["tree"]):
        print(line)
    print(compare_digests(digests["parent"], digests["tree"]), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=parse_seeds, required=True,
                        help="a seed, or a comma list of seeds judged one by one")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    bounds = load_bounds()

    # a terminated run still stops run.py and removes its worktree: SIGTERM
    # unwinds like Ctrl-C. A shell starts background jobs with SIGINT ignored,
    # and run.py would inherit that; a handled SIGINT is reset to the default
    # on exec, so stop()'s SIGINT reaches run.py as KeyboardInterrupt.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    with worktree(args.parent) as parent_dir:
        sides = {"parent": parent_dir, "tree": ROOT}
        for seed in args.seed:
            seed_block(sides, args.workload, seed, args.pairs, args.parent, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
