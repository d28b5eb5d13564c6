"""One pipeline pass in a fresh process: generate, collect, train, gridsearch, evaluate.

The benchmark harness (``run.py``) starts this script once per pass and reads
the JSON report it writes. A stage that raises is recorded in the report and
the stages after it are skipped; the process still exits 0.

    python3 benchmarks/stages.py --workload covering-aggr --seed 1 \
        --outdir .bench_out/x/out --report .bench_out/x/report.json [--trace MODE]

MODE ``maps`` times only the instance maps; ``layers`` wraps every layer
boundary (see ``layers.py``) and writes the spans next to the report.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_GRID = (0.6, 0.7, 0.8, 0.9, 0.99)

#: Pipeline settings per workload. One pass takes 6 to 10 seconds on a 2-core
#: Xeon, so a 50-second run repeats it five to seven times. BENCHMARK.json runs
#: covering-aggr and gcnn-wide; knapsack-lean is for traced runs by hand, because
#: its pipeline time moves too much from seed to seed for a bound (README.md).
WORKLOADS = {
    # Criterion-9 instance shape and emphasis: every covering LP needs phase 1,
    # and the rounding dive runs at every node in collect and evaluate. The step
    # limit is 50, not 150, so that most solves run to it and the work of a pass
    # hardly depends on the seed.
    "covering-aggr": dict(
        family="covering", n_vars=40, n_rows=32, n_train=8, n_valid=4, n_test=8,
        collect_step_limit=50, collect_emphasis="aggressive",
        step_limit=50, emphasis="aggressive",
        pool_size=8, hidden_dim=16, epochs=80, lr=0.1, batch_size=8, grid=_GRID, jobs=1,
    ),
    # Many cheap LPs with cap rows filling the tableau; low thresholds fix
    # infeasibly, evaluation dives only at the root, and the pool fans out
    # over 2 workers.
    "knapsack-lean": dict(
        family="knapsack", n_items=40, n_dims=5, n_train=16, n_valid=8, n_test=16,
        collect_step_limit=150, collect_emphasis="aggressive",
        step_limit=150, emphasis="off",
        pool_size=8, hidden_dim=16, epochs=40, lr=0.1, batch_size=8, grid=_GRID, jobs=2,
    ),
    # Wide graphs (about 3k edges) and a 64-wide network: forward and backward
    # make up most of training, and the few LPs are large.
    "gcnn-wide": dict(
        family="covering", n_vars=120, n_rows=80, n_train=3, n_valid=2, n_test=3,
        collect_step_limit=8, collect_emphasis="aggressive",
        step_limit=8, emphasis="aggressive",
        pool_size=8, hidden_dim=64, epochs=16, lr=0.1, batch_size=8, grid=(0.6, 0.8, 0.99),
        jobs=1,
    ),
}


def make_config(pipeline, workload: str, seed: int, outdir: str, jobs: int | None = None):
    values = dict(WORKLOADS[workload], seed=seed, outdir=outdir)
    if jobs is not None:
        values["jobs"] = jobs
    return pipeline.PipelineConfig(**values).validate()


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--trace", choices=("none", "maps", "layers"), default="none")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate, then exit (the set-up sample)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from confdive import bnb, diving, encoder, evaluation, gcnn, pipeline, simplex

    config = make_config(pipeline, args.workload, args.seed, args.outdir, args.jobs)
    if args.setup_only:
        pipeline.run_generate(config)
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from layers import install, install_map_timers, layer_metrics, map_seconds
    from tracer import Tracer

    tracer = Tracer()
    if args.trace == "maps":
        install_map_timers(tracer, pipeline)
    elif args.trace == "layers":
        install(tracer, dict(simplex=simplex, bnb=bnb, encoder=encoder, gcnn=gcnn,
                             diving=diving, evaluation=evaluation, pipeline=pipeline))

    report: dict = {"stage_s": {}, "errors": []}
    with tracer:
        for stage in ("generate", "collect", "train", "gridsearch", "evaluate"):
            if report["errors"]:
                report["errors"].append({"stage": stage, "error": "skipped"})
                continue
            start = time.perf_counter()
            try:
                getattr(pipeline, f"run_{stage}")(config)
            except Exception as exc:  # recorded per stage; the pass goes on
                report["errors"].append({
                    "stage": stage,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                })
                continue
            report["stage_s"][stage] = time.perf_counter() - start

    report["peak_rss_mb"] = _peak_rss_mb()
    report["map_s"], report["map_items"] = map_seconds(tracer.spans)
    if args.trace == "layers":
        report["layers"] = layer_metrics(tracer, config.epochs)
        tracer.write_jsonl(Path(args.report).with_suffix(".spans.jsonl"))
    Path(args.report).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
