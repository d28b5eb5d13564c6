"""Same-bytes guard for the solver and GCNN fast paths.

A tiny covering pipeline runs twice: once as shipped, and once with each fast
path swapped for its slow reference (``np.add.at`` into zeros for ``gcnn._scatter_add``,
the rescan dive in ``oracles`` for ``bnb._dive_arrays``, the per-solution loss
for ``gcnn._graph_term`` and the mask-rebuilding dual loop for
``simplex._dual_pivot_until_feasible``). Every output file must hash the same,
so a later speed-up of these paths cannot change the output bytes. Both runs
must also do the same work: the same number of tableau pivots, LP solves and
rounding dives, so a fast path that takes other pivots but happens to write
the same bytes fails too.
"""

import hashlib
from pathlib import Path

import numpy as np

import oracles
from confdive import bnb, gcnn, simplex
from confdive.pipeline import (
    PipelineConfig,
    run_collect,
    run_evaluate,
    run_generate,
    run_gridsearch,
    run_train,
)

from oracles import mask_dual_pivot_until_feasible, per_solution_graph_term, rescan_dive_arrays

TINY = dict(
    family="covering",
    n_train=6,
    n_valid=3,
    n_test=3,
    n_vars=16,
    n_rows=10,
    seed=3,
    collect_step_limit=60,
    step_limit=60,
    emphasis="aggressive",
    pool_size=4,
    hidden_dim=16,  # at 8 a reversed edge sum order still wrote the same model bytes
    epochs=4,
    lr=0.2,
    grid=(0.7, 0.9),
    svg=True,
    jobs=1,  # the references are patched into this process only
)


def run_pipeline(outdir: Path) -> dict[str, str]:
    config = PipelineConfig(outdir=str(outdir), **TINY)
    for stage in (run_generate, run_collect, run_train, run_gridsearch, run_evaluate):
        stage(config)
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*"))
        if p.is_file()
    }


def count_work(monkeypatch) -> dict[str, int]:
    """Counts the calls of ``simplex._pivot``, of ``_solve_lp_arrays`` as bound in
    ``simplex`` and in ``bnb`` and of ``bnb._dive_arrays``, through whatever is
    installed under those names when this runs. The rescan dive's own LP
    repairs call the binding in ``oracles`` and count as ``bnb``'s."""
    work = {"pivot": 0, "simplex_lp": 0, "bnb_lp": 0, "dive": 0}

    def count(module, name, key):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            work[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(simplex, "_pivot", "pivot")
    count(simplex, "_solve_lp_arrays", "simplex_lp")
    count(bnb, "_solve_lp_arrays", "bnb_lp")
    count(oracles, "_solve_lp_arrays", "bnb_lp")
    count(bnb, "_dive_arrays", "dive")
    return work


def test_fast_paths_write_the_same_bytes_as_their_references(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        fast_work = count_work(patch)
        fast = run_pipeline(tmp_path / "fast")

    calls = {"scatter": 0, "dive": 0, "loss": 0, "dual": 0}

    def add_at(seg, rows, block):
        calls["scatter"] += 1
        out = np.zeros((seg.n, rows.shape[1]))
        np.add.at(out, seg.index, rows[: seg.index.size])  # rows ends in the spare row
        return out

    def rescan(*args):
        calls["dive"] += 1
        return rescan_dive_arrays(*args)

    def per_solution(probs, packed, want_grad):
        calls["loss"] += 1
        solutions = [
            gcnn.TargetSolution(x, w) for x, w in zip(packed.values, packed.weights)
        ]
        return per_solution_graph_term(probs, gcnn.GraphTargets(packed.graph, solutions), want_grad)

    def mask_dual(*args):
        calls["dual"] += 1
        return mask_dual_pivot_until_feasible(*args)

    monkeypatch.setattr(gcnn, "_scatter_add", add_at)
    monkeypatch.setattr(bnb, "_dive_arrays", rescan)
    monkeypatch.setattr(gcnn, "_graph_term", per_solution)
    monkeypatch.setattr(simplex, "_dual_pivot_until_feasible", mask_dual)
    reference_work = count_work(monkeypatch)
    reference = run_pipeline(tmp_path / "reference")

    assert all(count > 0 for count in calls.values()), calls
    assert len(fast) > 20
    assert fast == reference
    assert all(count > 0 for count in fast_work.values()), fast_work
    assert fast_work == reference_work
