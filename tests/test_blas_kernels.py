"""Instances and pools do not depend on the BLAS kernel.

numpy's OpenBLAS picks a kernel for the CPU when it loads, and
``OPENBLAS_CORETYPE`` overrides that pick. The GCNN's products, so
``model.txt`` and every file made from it, may change with the kernel; the
generated instances and the collected pools are a function of the config
alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_cli import read_tree

SRC = Path(__file__).resolve().parent.parent / "src"

#: The criterion-9 instance shape with four train instances.
MICRO = dict(family="covering", n_vars=40, n_rows=32, n_train=4, n_valid=1, n_test=1, seed=7)

RUN_STAGES = """
import json, sys
from confdive import pipeline
config = pipeline.PipelineConfig(outdir=sys.argv[1], **json.loads(sys.argv[2]))
pipeline.run_generate(config)
pipeline.run_collect(config)
"""


def uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not uses_openblas(), reason="numpy does not use OpenBLAS")
def test_instances_and_pools_keep_their_bytes_under_another_openblas_kernel(tmp_path):
    trees = []
    for side, coretype in (("default", None), ("prescott", "Prescott")):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / side
        subprocess.run([sys.executable, "-c", RUN_STAGES, str(out), json.dumps(MICRO)],
                       env=env, check=True)
        trees.append({part: read_tree(out / part) for part in ("instances", "pools")})
    assert len(trees[0]["instances"]) == 6 and len(trees[0]["pools"]) == 5  # 4 pools, skipped.txt
    assert trees[1] == trees[0]
