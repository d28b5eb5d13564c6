"""Same-bytes guard for the solver and GCNN fast paths.

A tiny covering pipeline runs twice: once as shipped, and once with each fast
path swapped for its slow reference (``np.add.at`` into zeros for ``gcnn._scatter_add``,
the rescan dive in ``oracles`` for ``bnb._dive_arrays``). Every output file must
hash the same, so a later speed-up of these paths cannot change the output bytes.
"""

import hashlib
from pathlib import Path

import numpy as np

from confdive import bnb, gcnn
from confdive.pipeline import (
    PipelineConfig,
    run_collect,
    run_evaluate,
    run_generate,
    run_gridsearch,
    run_train,
)

from oracles import rescan_dive_arrays

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


def test_fast_paths_write_the_same_bytes_as_their_references(tmp_path, monkeypatch):
    fast = run_pipeline(tmp_path / "fast")

    calls = {"scatter": 0, "dive": 0}

    def add_at(idx, rows, n):
        calls["scatter"] += 1
        out = np.zeros((n, rows.shape[1]))
        np.add.at(out, idx, rows)
        return out

    def rescan(*args):
        calls["dive"] += 1
        return rescan_dive_arrays(*args)

    monkeypatch.setattr(gcnn, "_scatter_add", add_at)
    monkeypatch.setattr(bnb, "_dive_arrays", rescan)
    reference = run_pipeline(tmp_path / "reference")

    assert calls["scatter"] > 0 and calls["dive"] > 0
    assert len(fast) > 20
    assert fast == reference
