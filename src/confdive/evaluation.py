"""Primal-integral metrics, method comparison tables, and SVG primal-bound plots.

The primal integral is the piecewise-constant integral of the incumbent
objective over the step horizon [0, T], minus T times a reference objective;
before the first incumbent the bound sits at a configured no-incumbent value.
Cumulative reward is its negation. Horizontal-step SVG charts are emitted as
deterministic bytes with no plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bnb import IncumbentTrajectory
from .instances import ORACLE_MAX_VARS, MilpInstance, brute_force_solve

SVG_WIDTH = 800
SVG_HEIGHT = 500

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class EventBeyondHorizon(ValueError):
    """A trajectory event lies past the evaluation horizon."""


@dataclass(frozen=True)
class EvalConfig:
    step_limit: int
    reference_objective: float
    no_incumbent_value: float

    def __post_init__(self):
        if self.step_limit < 1:
            raise ValueError("step_limit must be >= 1")
        if self.no_incumbent_value < self.reference_objective:
            raise ValueError("no_incumbent_value must be >= reference_objective")


@dataclass(eq=False)
class EvalRow:
    instance: str
    method: str
    primal_integral: float
    cumulative_reward: float
    first_incumbent_step: int | None
    final_objective: float | None
    #: Diving rows only: whether the fixed subproblem proved infeasible, and
    #: the share of variables the threshold fixed.
    fell_back: bool | None = None
    coverage: float | None = None


def primal_integral(traj: IncumbentTrajectory, cfg: EvalConfig) -> float:
    """Area between the incumbent step function and the reference over [0, T]."""
    t_limit = cfg.step_limit
    prev_step = 0
    prev_level = cfg.no_incumbent_value
    total = 0.0
    last: int | None = None
    for event in traj.events:
        if event.step > t_limit:
            raise EventBeyondHorizon(f"event at step {event.step} exceeds horizon {t_limit}")
        if event.step < 0 or (last is not None and event.step <= last):
            raise ValueError("trajectory steps must be nonnegative and strictly increasing")
        last = event.step
        total += prev_level * (event.step - prev_step)
        prev_step = event.step
        prev_level = event.objective
    total += prev_level * (t_limit - prev_step)
    return total - t_limit * cfg.reference_objective


def worst_case_objective(instance: MilpInstance) -> float:
    """Largest possible objective over the box: each variable at its worst bound."""
    c = instance.objective_vector()
    lb, ub = instance.bounds_arrays()
    worst = np.where(c > 0, c * ub, c * lb)
    worst[c == 0] = 0.0
    return float(worst.sum())


def eval_configs(
    instances: Sequence[MilpInstance],
    runs: Sequence[Sequence[IncumbentTrajectory]],
    step_limit: int,
) -> list[EvalConfig]:
    """One EvalConfig per instance; ``runs[i]`` holds every compared trajectory on it.

    The reference objective is the brute-force optimum when the oracle can
    afford the instance (all binary, at most ORACLE_MAX_VARS variables),
    otherwise the best final objective among the runs, otherwise the
    worst-case objective. A per-instance constant offsets every method's
    primal integral equally, so rankings do not depend on that choice.
    """
    if len(runs) != len(instances):
        raise ValueError("need one set of runs per instance")
    cfgs: list[EvalConfig] = []
    for instance, trajs in zip(instances, runs):
        no_inc = worst_case_objective(instance)
        if instance.n <= ORACLE_MAX_VARS and bool(instance.binary_mask().all()):
            ref = brute_force_solve(instance).objective
        else:
            finals = [t.final_objective() for t in trajs if t.final_objective() is not None]
            ref = min(finals) if finals else no_inc
        cfgs.append(EvalConfig(step_limit, ref, max(no_inc, ref)))
    return cfgs


def make_row(
    instance_name: str, method: str, traj: IncumbentTrajectory, cfg: EvalConfig
) -> EvalRow:
    pi = primal_integral(traj, cfg)
    return EvalRow(
        instance=instance_name,
        method=method,
        primal_integral=pi,
        cumulative_reward=-pi,
        first_incumbent_step=traj.first_step(),
        final_objective=traj.final_objective(),
    )


def compare(
    instances: Sequence[MilpInstance],
    methods: Sequence[tuple[str, Sequence[IncumbentTrajectory]]],
    cfgs: Sequence[EvalConfig],
) -> tuple[list[EvalRow], dict[str, tuple[float, float]]]:
    """Score every labeled method's trajectory on each instance under its EvalConfig.

    Each method carries one trajectory per instance, in instance order.
    Returns per-(instance, method) rows plus per-method
    (mean primal integral, mean cumulative reward) summaries.
    """
    if len(instances) != len(cfgs):
        raise ValueError("need one EvalConfig per instance")
    if any(len(trajs) != len(instances) for _, trajs in methods):
        raise ValueError("need one trajectory per instance for every method")
    rows: list[EvalRow] = []
    per_method: dict[str, list[float]] = {label: [] for label, _ in methods}
    for i, (instance, cfg) in enumerate(zip(instances, cfgs)):
        for label, trajs in methods:
            row = make_row(instance.name, label, trajs[i], cfg)
            rows.append(row)
            per_method[label].append(row.primal_integral)
    summary = {
        label: (float(np.mean(pis)), float(-np.mean(pis)))
        for label, pis in per_method.items()
    }
    return rows, summary


def rows_to_csv(rows: Sequence[EvalRow]) -> str:
    lines = [
        "instance,method,primal_integral,cumulative_reward,first_incumbent_step,final_objective,"
        "fell_back,coverage"
    ]
    for r in rows:
        first = "" if r.first_incumbent_step is None else str(r.first_incumbent_step)
        final = "" if r.final_objective is None else repr(float(r.final_objective))
        fell_back = "" if r.fell_back is None else str(bool(r.fell_back)).lower()
        coverage = "" if r.coverage is None else repr(float(r.coverage))
        lines.append(
            f"{r.instance},{r.method},{repr(float(r.primal_integral))},"
            f"{repr(float(r.cumulative_reward))},{first},{final},{fell_back},{coverage}"
        )
    return "\n".join(lines) + "\n"


def summary_to_csv(summary: dict[str, tuple[float, float]]) -> str:
    lines = ["method,mean_primal_integral,mean_cumulative_reward"]
    for label, (pi, reward) in summary.items():
        lines.append(f"{label},{repr(float(pi))},{repr(float(reward))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG primal-bound chart
# ---------------------------------------------------------------------------


def _fmt_coord(x: float) -> str:
    return f"{x:.2f}"


def _svg(tag: str, text: str | None = None, **attrs) -> str:
    """One SVG element; float attributes print as coordinates, ``_`` in names as ``-``."""
    body = " ".join(
        f'{key.replace("_", "-")}="{_fmt_coord(v) if isinstance(v, float) else v}"'
        for key, v in attrs.items()
    )
    return f"<{tag} {body}/>" if text is None else f"<{tag} {body}>{text}</{tag}>"


def plot_primal_bound(
    trajectories: Sequence[tuple[str, IncumbentTrajectory]], cfg: EvalConfig
) -> str:
    """Step-function chart of primal bounds over steps; deterministic bytes."""
    if not trajectories:
        raise ValueError("need at least one labeled trajectory")
    left, right, top, bottom = 70.0, 20.0, 20.0, 45.0
    plot_w = SVG_WIDTH - left - right
    plot_h = SVG_HEIGHT - top - bottom
    base = top + plot_h  # y of the x axis

    objs = [e.objective for _, traj in trajectories for e in traj.events]
    y_min = min(objs) if objs else 0.0
    y_max = max(objs) if objs else 1.0
    if y_max - y_min < 1e-12:
        y_min -= 1.0
        y_max += 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad
    x_max = float(cfg.step_limit)

    def sx(x: float) -> float:
        return left + (x / x_max) * plot_w

    def sy(y: float) -> float:
        return top + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        _svg("rect", x=0, y=0, width=SVG_WIDTH, height=SVG_HEIGHT, fill="white"),
        _svg("line", x1=left, y1=base, x2=left + plot_w, y2=base, stroke="black"),
        _svg("line", x1=left, y1=top, x2=left, y2=base, stroke="black"),
    ]
    for i in range(5):
        xv, yv = x_max * i / 4, y_min + (y_max - y_min) * i / 4
        x, y = sx(xv), sy(yv)
        parts += [
            _svg("line", x1=x, y1=base, x2=x, y2=base + 5, stroke="black"),
            _svg("text", f"{xv:g}", x=x, y=base + 20, font_size=12, text_anchor="middle"),
            _svg("line", x1=left - 5, y1=y, x2=left, y2=y, stroke="black"),
            _svg("text", f"{yv:.6g}", x=left - 8, y=y + 4, font_size=12, text_anchor="end"),
        ]
    mid = top + plot_h / 2
    parts += [
        _svg("text", "step", x=left + plot_w / 2, y=SVG_HEIGHT - 8.0, font_size=13,
             text_anchor="middle"),
        _svg("text", "primal bound", x=16, y=mid, font_size=13, text_anchor="middle",
             transform=f"rotate(-90 16 {_fmt_coord(mid)})"),
    ]

    for k, (label, traj) in enumerate(trajectories):
        color = _PALETTE[k % len(_PALETTE)]
        events = traj.events
        if events:
            corners = [(events[0].step, events[0].objective)]
            for prev, event in zip(events, events[1:]):
                corners += [(event.step, prev.objective), (event.step, event.objective)]
            corners.append((x_max, events[-1].objective))
            pts = " ".join(f"{_fmt_coord(sx(x))},{_fmt_coord(sy(y))}" for x, y in corners)
            parts.append(_svg("polyline", fill="none", stroke=color, stroke_width="1.5", points=pts))
        lx, ly = left + plot_w - 150, top + 16 + 18 * k
        parts += [
            _svg("line", x1=lx, y1=ly - 4, x2=lx + 24, y2=ly - 4, stroke=color, stroke_width="1.5"),
            _svg("text", label, x=lx + 30, y=ly, font_size=12),
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
