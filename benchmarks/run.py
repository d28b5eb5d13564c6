"""Pipeline benchmark: stage wall time, memory and answer quality per workload.

    python3 benchmarks/run.py --workload covering-aggr --seed 1 --seconds 50 --trace 0

Every pass runs the five pipeline stages in a fresh process (``stages.py``) on
inputs generated from ``--seed``; passes repeat, on identical inputs, while
the next one is expected to end within ``--seconds``, and times are medians
over passes. ``setup_s`` is the median of several fresh processes that only
import confdive and generate the instances.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the workload
once untraced (instance maps timed) and twice with every layer boundary
wrapped, at jobs=1, and prints the per-layer metrics. Both check the outputs:
pool entries are feasible, the model loads, the grid report has its BEST
trailer, eval.csv has two rows per test instance, and every pass of a run,
traced or not, writes byte-identical output.

The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Everything else (provenance, output digest,
per-pass figures, stage errors) goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 5
#: One BLAS thread: every pass is single-threaded unless the workload sets jobs > 1.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

sys.path.insert(0, str(HERE))
from layers import EXACT_COUNTS, PER_LAYER_UNITS  # noqa: E402
from stages import WORKLOADS  # noqa: E402

#: End-to-end metrics, each bounded in BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
    "fix_feasible_rate": "ratio", "ok_share": "ratio",
}
#: Printed beside them but not bounded, because they vary from run to run or
#: seed to seed by more than any allowed bound (README.md): the stage times,
#: which add up to pipeline_s, and the primal-integral ratio.
UNBOUNDED_UNITS = {"collect_s": "s", "train_s": "s", "gridsearch_s": "s", "evaluate_s": "s",
                   "dive_pi_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a stage of the program failing)."""


def spawn(cmd: list[str], deadline: float) -> float:
    """Run one child to completion before ``deadline``; returns its wall seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True, env=CHILD_ENV)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[-1]}: did not finish within the run's time limit") from None
    finally:
        try:  # pool workers share the session; none may outlive the pass
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"stages.py exited {proc.returncode}\n{stderr[-3000:]}")
    return time.perf_counter() - start


def digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            rel = path.relative_to(outdir).as_posix().encode()
            h.update(len(rel).to_bytes(8, "little") + rel)
            data = path.read_bytes()
            h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def check_outputs(outdir: Path, config, confdive) -> tuple[list[str], dict[str, float]]:
    """Verify one pass's output files; returns (problems, quality metrics)."""
    pipeline, instances, bnb, gcnn = (confdive[k] for k in ("pipeline", "instances", "bnb", "gcnn"))
    problems: list[str] = []
    quality: dict[str, float] = {}

    for path in pipeline.instance_paths(config, "train"):
        pool_path = outdir / "pools" / (path.stem + ".sol")
        if not pool_path.exists():
            continue  # a skip, counted as a failure
        instance = instances.parse_instance(path.read_text())
        pool = bnb.parse_pool(pool_path.read_text(), instance)
        for entry in pool.entries:
            if not instances.check_feasibility(instance, entry.values):
                problems.append(f"infeasible pool entry in {pool_path.name}")

    model_path = outdir / "model.txt"
    if model_path.exists():
        try:
            gcnn.load_model(model_path.read_text())
        except ValueError as exc:
            problems.append(f"model.txt does not load: {exc}")

    grid_path = outdir / "gridsearch.csv"
    if grid_path.exists():
        lines = grid_path.read_text().splitlines()
        if not lines or not lines[-1].startswith("BEST t="):
            problems.append("gridsearch.csv has no BEST trailer")
        else:
            best = float(lines[-1].split("=", 1)[1])
            rows = [line.split(",") for line in lines[1:-1]]
            rates = [float(r[2]) for r in rows if float(r[0]) == best]
            if len(rates) != 1:
                problems.append("gridsearch.csv has no row for its BEST threshold")
            else:
                quality["fix_feasible_rate"] = rates[0]

    eval_path = outdir / "eval.csv"
    if eval_path.exists():
        names = [line.split(",", 1)[0] for line in eval_path.read_text().splitlines()[1:]]
        tests = [instances.parse_instance(p.read_text()).name
                 for p in pipeline.instance_paths(config, "test")]
        if sorted(names) != sorted(tests * 2):
            problems.append("eval.csv does not have two rows per test instance")
        summary = [line.split(",") for line in (outdir / "summary.csv").read_text().splitlines()[1:]]
        mean_pi = {row[0]: float(row[1]) for row in summary}
        dive = [v for k, v in mean_pi.items() if k.startswith("diving@")]
        if "plain" not in mean_pi or len(dive) != 1 or mean_pi["plain"] <= 0:
            problems.append("summary.csv lacks a plain and a diving row")
        else:
            quality["dive_pi_ratio"] = dive[0] / mean_pi["plain"]
    return problems, quality


def failures(report: dict, outdir: Path, config) -> tuple[int, int]:
    """(attempted, failed) instance-level operations of one pass."""
    per_stage = {
        "collect": config.n_train,
        "gridsearch": config.n_valid * len(set(config.grid)),
        "evaluate": config.n_test,
    }
    broken = {e["stage"] for e in report["errors"]}
    if "generate" in broken:
        broken |= set(per_stage)
    failed = sum(n for stage, n in per_stage.items() if stage in broken)
    skip_file = outdir / "pools" / "skipped.txt"
    if "collect" not in broken and skip_file.exists():
        failed += len([line for line in skip_file.read_text().splitlines() if line.strip()])
    return sum(per_stage.values()), failed


def provenance() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def _median(values):
    return statistics.median(values) if values else None


def stage_medians(reports: list[dict]) -> dict[str, float]:
    out = {}
    for stage in ("collect", "train", "gridsearch", "evaluate"):
        out[f"{stage}_s"] = _median([r["stage_s"][stage] for r in reports if stage in r["stage_s"]])
    sums = [sum(r["stage_s"][s] for s in ("collect", "train", "gridsearch", "evaluate"))
            for r in reports if not r["errors"]]
    out["pipeline_s"] = _median(sums)
    out["peak_rss_mb"] = _median([r["peak_rss_mb"] for r in reports])
    return out


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from confdive import bnb, gcnn, instances, pipeline
    from stages import make_config

    confdive = dict(bnb=bnb, gcnn=gcnn, instances=instances, pipeline=pipeline)
    work = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    config = make_config(pipeline, workload, seed, str(work / "cfg"))
    result: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                    "provenance": provenance(), "problems": [], "errors": [], "passes": []}
    reports: list[tuple[str, dict, Path]] = []

    def run_pass(name: str, *extra: str) -> float:
        """One stages.py process; returns its wall seconds (set-up samples are not recorded)."""
        outdir, report_path = work / name / "out", work / name / "report.json"
        seconds_ = spawn([sys.executable, str(HERE / "stages.py"), "--workload", workload,
                          "--seed", str(seed), "--outdir", str(outdir),
                          "--report", str(report_path), *extra], deadline)
        if "--setup-only" in extra:
            return seconds_
        report = json.loads(report_path.read_text())
        reports.append((name, report, outdir))
        result["passes"].append({"name": name, "wall_s": seconds_, "digest": digest(outdir),
                                 "stage_s": report["stage_s"], "peak_rss_mb": report["peak_rss_mb"],
                                 "map_s": report["map_s"]})
        result["errors"] += [dict(e, passname=name) for e in report["errors"]]
        return seconds_

    if trace:
        run_pass("untraced", "--trace", "maps")
        if config.jobs > 1:
            run_pass("untraced-jobs1", "--trace", "maps", "--jobs", "1")
        run_pass("traced1", "--trace", "layers", "--jobs", "1")
        run_pass("traced2", "--trace", "layers", "--jobs", "1")
    else:
        # Set-up samples alternate with passes, so both sample the same spells
        # of a machine whose speed drifts from one few-second spell to the next.
        setups = result["setup_samples_s"] = []
        start = time.perf_counter()
        while True:
            setups.append(run_pass(f"setup{len(setups)}", "--setup-only"))
            run_pass(f"pass{len(reports)}")
            typical = statistics.median(setups) + statistics.median(
                p["wall_s"] for p in result["passes"])
            if (time.perf_counter() - start + typical > seconds
                    or time.monotonic() + typical > deadline):
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_pass(f"setup{len(setups)}", "--setup-only"))

    digests = {p["digest"] for p in result["passes"]}
    if len(digests) != 1:
        result["problems"].append(f"passes wrote different outputs: {sorted(digests)}")
    result["digest"] = result["passes"][0]["digest"]
    first_out = reports[0][2]
    problems, quality = check_outputs(first_out, make_config(pipeline, workload, seed,
                                                             str(first_out)), confdive)
    result["problems"] += problems
    attempted = failed = 0
    for _, report, outdir in reports:
        a, f = failures(report, outdir, config)
        attempted, failed = attempted + a, failed + f

    metrics: dict[str, float] = {}
    if trace:
        by_name = {name: report for name, report, _ in reports}
        t1, t2 = by_name["traced1"], by_name["traced2"]
        if "layers" not in t1 or "layers" not in t2:
            result["problems"].append("a traced pass reported no layer metrics")
        else:
            metrics.update(t1["layers"])
            for key in EXACT_COUNTS:
                if t1["layers"][key] != t2["layers"][key]:
                    result["problems"].append(
                        f"{key} differs between traced runs: {t1['layers'][key]} vs {t2['layers'][key]}")
            u, u1 = by_name["untraced"], by_name.get("untraced-jobs1", by_name["untraced"])
            if u["map_s"] > 0:
                metrics["pipeline.parallel_efficiency"] = u1["map_s"] / (config.jobs * u["map_s"])
            base = stage_medians([u1])["pipeline_s"]
            traced = stage_medians([t1, t2])["pipeline_s"]
            if base and traced:
                metrics["trace.overhead_s"] = traced - base
                metrics["trace.overhead_share"] = (traced - base) / base
        for key, value in stage_medians([by_name["untraced"]]).items():
            if key in ("collect_s", "train_s", "gridsearch_s", "evaluate_s") and value is not None:
                metrics[f"pipeline.{key}"] = value
        if "dive_pi_ratio" in quality:
            metrics["evaluation.dive_pi_ratio"] = quality["dive_pi_ratio"]
        units = PER_LAYER_UNITS
    else:
        metrics["setup_s"] = statistics.median(result["setup_samples_s"])
        metrics.update({k: v for k, v in stage_medians([r for _, r, _ in reports]).items()
                        if v is not None})
        metrics.update(quality)
        metrics["ok_share"] = 1.0 - failed / attempted
        units = {**END_TO_END_UNITS, **UNBOUNDED_UNITS}
    missing = [k for k in units if k not in metrics]
    if missing:
        result["problems"].append(f"metrics not measured: {missing}")
    result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                         if k in metrics}
    result["correct"] = not result["problems"]
    result["attempted"], result["failed"] = attempted, failed
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "confdive" / "__init__.py").is_file():
        print(f"error: no confdive sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))

    prov = result["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: python {prov['python']}, "
          f"numpy {prov['numpy']}, nproc {prov['nproc']}, cpu {prov['cpu']}")
    print(f"# {len(result['passes'])} passes, output sha256 {result['digest']}")
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")
    for error in result["errors"]:
        print(f"# STAGE FAILED: {error['passname']} {error['stage']}: {error['error']}")
    for name, m in result["metrics"].items():
        note = "  (not bounded)" if name in UNBOUNDED_UNITS else ""
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"# full result: {path.relative_to(ROOT)}")
    bounded = {k: m for k, m in result["metrics"].items() if k not in UNBOUNDED_UNITS}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": bounded}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
