"""The whole pipeline through the library API, ending in CSV tables and an SVG chart.

Equivalent to:
    confdive generate --config demo.cfg
    confdive collect  --config demo.cfg
    confdive train    --config demo.cfg
    confdive gridsearch --config demo.cfg
    confdive evaluate --config demo.cfg --svg

Run: python3 demos/05_full_pipeline.py  (about 15 s on a 2-core Xeon; writes ./demo_out)
"""

from pathlib import Path

from confdive.pipeline import (
    PipelineConfig,
    run_collect,
    run_evaluate,
    run_generate,
    run_gridsearch,
    run_train,
)

config = PipelineConfig(
    family="covering",
    n_train=30,
    n_valid=10,
    n_test=10,
    n_vars=40,
    n_rows=32,
    seed=7,
    collect_step_limit=150,
    collect_emphasis="aggressive",
    step_limit=150,
    emphasis="aggressive",
    pool_size=8,
    hidden_dim=16,
    epochs=40,
    lr=0.1,
    grid=(0.6, 0.7, 0.8, 0.9, 0.99),
    svg=True,
    outdir="demo_out",
)

print("generating instances ...")
written = run_generate(config)
print(f"  {len(written)} files under {config.out / 'instances'}")

print("collecting solution pools ...")
skipped = run_collect(config)
print(f"  pools written, {len(skipped)} skipped")

print("training ...")
_, curve = run_train(config)
print(f"  loss {curve[0]:.3f} -> {curve[-1]:.3f}")

print("grid searching thresholds on the validation split ...")
report = run_gridsearch(config)
for row in report.rows:
    print(f"  t={row.threshold:<5g} coverage {row.mean_coverage:.2f} "
          f"feasibility {row.feasibility_rate:.2f} mean PI {row.mean_primal_integral:10.1f}")
print(f"  best t = {report.best_t:g}")

print("evaluating plain vs diving on the held-out split ...")
rows, summary = run_evaluate(config)
for label, (mean_pi, mean_reward) in summary.items():
    print(f"  {label:<16} mean primal integral {mean_pi:10.1f} (reward {mean_reward:.1f})")

plots = sorted((Path("demo_out") / "plots").glob("*.svg"))
print(f"{len(plots)} primal-bound charts written, e.g. {plots[0]}")
