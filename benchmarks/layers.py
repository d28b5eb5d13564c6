"""Which confdive functions are traced, and the per-layer metrics made from the spans.

Each wrapper sits on a call from one module into another, rebound in the
calling module: ``bnb.solve`` as looked up by ``pipeline`` and ``diving``,
``_solve_lp_arrays`` as bound in ``bnb`` and in ``simplex`` (for the encoder's
root LP), ``encode`` as bound in ``pipeline`` and ``diving``, and so on.
``_two_phase`` and ``_pivot`` are counted, not timed.
"""

from __future__ import annotations

from tracer import Span, Tracer, percentile, self_times

LAYERS = ("instances", "simplex", "bnb", "encoder", "gcnn", "diving", "evaluation", "pipeline")
STAGES = ("generate", "collect", "train", "gridsearch", "evaluate")

#: Counts that a deterministic solver must repeat exactly between two traced runs.
EXACT_COUNTS = ("simplex.lp_calls", "simplex.pivots", "bnb.nodes", "bnb.dive_calls",
                "diving.proof_lp_calls")


#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "simplex.lp_calls": "count", "simplex.lp_s": "s", "simplex.lp_ms.p50": "ms",
    "simplex.lp_ms.p99": "ms", "simplex.pivots": "count", "simplex.pivots_per_lp": "pivot/lp",
    # from tableau shapes at each pivot, not a timing
    "simplex.tableau_cells_per_pivot": "cells-computed",
    "simplex.phase1_share": "ratio", "simplex.infeasible_share": "ratio",
    "simplex.breakdowns": "count",
    "bnb.solve_calls": "count", "bnb.solve_s": "s", "bnb.nodes": "count",
    "bnb.nodes_per_s": "1/s", "bnb.proved_optimal_share": "ratio",
    "bnb.infeasible_raises": "count", "bnb.dive_calls": "count", "bnb.dive_s": "s",
    "bnb.dive_success_share": "ratio", "bnb.dive_lp_repairs": "count",
    "diving.calls": "count", "diving.fixed_feasible_share": "ratio",
    "diving.coverage_mean": "ratio", "diving.proof_lp_calls": "count", "diving.fallback_s": "s",
    "encoder.calls": "count", "encoder.encode_s": "s", "encoder.edges": "count",
    "gcnn.forward_calls": "count", "gcnn.forward_s": "s", "gcnn.backward_s": "s",
    "gcnn.loss_s": "s", "gcnn.epoch_s": "s", "gcnn.edges_per_s": "1/s",
    "pipeline.map_s": "s", "pipeline.map_items": "count", "pipeline.serial_s": "s",
    "pipeline.write_s": "s", "pipeline.parallel_efficiency": "ratio",
    # stage times of the untraced pass, and the answer it gave
    "pipeline.collect_s": "s", "pipeline.train_s": "s", "pipeline.gridsearch_s": "s",
    "pipeline.evaluate_s": "s", "evaluation.dive_pi_ratio": "ratio",
    "instances.parse_s": "s", "instances.serialize_s": "s",
    "evaluation.primal_integral_s": "s",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}
#: The per-layer metrics that run.py adds from the untraced passes of a traced run.
FROM_UNTRACED = {"pipeline.parallel_efficiency", "trace.overhead_s", "trace.overhead_share",
                 "pipeline.collect_s", "pipeline.train_s", "pipeline.gridsearch_s",
                 "pipeline.evaluate_s", "evaluation.dive_pi_ratio"}


def _name_of_first(*args, **kwargs):
    return args[0].name


def _two_phase_counts(counts, args):
    A, b, _ = args
    counts["simplex.two_phase"] += 1
    counts["simplex.phase1"] += int((b < 0).any())


def _pivot_counts(counts, args):
    counts["simplex.pivots"] += 1
    counts["simplex.tableau_cells"] += args[0].size


def _lp_done(span, args, kwargs, result):
    span.info = {"status": result.status}


def _solve_done(span, args, kwargs, result):
    trajectory, _ = result
    span.info = {"nodes": trajectory.terminal_step, "proved": trajectory.proved_optimal}


def _dive_done(span, args, kwargs, result):
    span.info = {"success": result is not None}


def _diving_done(span, args, kwargs, result):
    outcome = result[1]
    span.info = {"fell_back": outcome.fell_back, "coverage": outcome.partial.coverage}


def _encode_done(span, args, kwargs, result):
    span.info = {"edges": result.n_edges}


def _forward_done(span, args, kwargs, result):
    span.info = {"edges": args[1].n_edges}


def install_map_timers(tracer: Tracer, pipeline) -> None:
    """Time only the instance maps: ``_pmap`` and the map ``grid_search`` is given.

    Both run in the calling process, so this also works when the map fans out
    over a process pool.
    """

    def items_of(span, args, kwargs, result):
        span.info = {"items": len(result)}

    tracer.span(pipeline, "_pmap", "pipeline.map", done=items_of)
    grid_search = pipeline.grid_search

    def traced_grid_search(*args, map_fn=map, **kwargs):
        timed = tracer.wrap(lambda fn, items: list(map_fn(fn, items)), "pipeline.map",
                            done=items_of)
        return grid_search(*args, map_fn=timed, **kwargs)

    tracer.patch(pipeline, "grid_search", traced_grid_search)


def install(tracer: Tracer, modules) -> None:
    """Wrap every layer boundary; ``modules`` maps a module name to the module."""
    simplex, bnb, encoder, gcnn = (modules[k] for k in ("simplex", "bnb", "encoder", "gcnn"))
    diving, evaluation, pipeline = (modules[k] for k in ("diving", "evaluation", "pipeline"))

    for stage in STAGES:
        tracer.span(pipeline, f"run_{stage}", f"pipeline.{stage}")
    tracer.span(pipeline, "_atomic_write", "pipeline.write")
    install_map_timers(tracer, pipeline)
    tracer.span(pipeline, "grid_search", "diving.grid_search")

    tracer.span(pipeline, "parse_instance", "instances.parse")
    tracer.span(pipeline, "serialize_instance", "instances.serialize")
    tracer.span(bnb, "parse_solution", "instances.parse")
    tracer.span(bnb, "serialize_solution", "instances.serialize")

    for module in (simplex, bnb):
        tracer.span(module, "_solve_lp_arrays", "simplex.lp", done=_lp_done)
    tracer.count(simplex, "_two_phase", _two_phase_counts)
    tracer.count(simplex, "_pivot", _pivot_counts)

    tracer.span(bnb, "solve", "bnb.solve", instance=_name_of_first, done=_solve_done)
    tracer.span(bnb, "_dive_arrays", "bnb.dive", done=_dive_done)

    for module in (pipeline, diving):
        tracer.span(module, "dive_and_solve", "diving.dive", instance=_name_of_first,
                    done=_diving_done)
        tracer.span(module, "encode", "encoder.encode", instance=_name_of_first,
                    done=_encode_done)

    tracer.span(pipeline, "train", "gcnn.train")
    tracer.span(gcnn, "_forward_cached", "gcnn.forward", done=_forward_done)
    tracer.span(gcnn, "_backward_graph", "gcnn.backward")
    tracer.span(gcnn, "_graph_term", "gcnn.loss")

    tracer.span(pipeline, "compare", "evaluation.compare")
    for module in (evaluation, diving):
        tracer.span(module, "primal_integral", "evaluation.primal_integral")


def _ancestor(spans: list[Span], i: int, name: str) -> int:
    p = spans[i].parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return p


def map_seconds(spans: list[Span]) -> tuple[float, int]:
    maps = [s for s in spans if s.name == "pipeline.map"]
    return sum(s.duration for s in maps), sum(s.info["items"] for s in maps if s.info)


def layer_metrics(tracer: Tracer, epochs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (seconds, counts and shares)."""
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def infos(name, key):
        return [spans[i].info[key] for i in by_name.get(name, ()) if spans[i].info
                and key in spans[i].info]

    def share(num, den):
        return num / den if den else 0.0

    def parent_name(i):
        return spans[spans[i].parent].name if spans[i].parent >= 0 else None

    def raised(i, exc_name):
        return bool(spans[i].info) and spans[i].info.get("raised") == exc_name

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    lps = by_name.get("simplex.lp", [])
    lp_ms = [spans[i].duration * 1e3 for i in lps]
    statuses = infos("simplex.lp", "status")
    m["simplex.lp_calls"] = len(lps)
    m["simplex.lp_s"] = total("simplex.lp")
    m["simplex.lp_ms.p50"] = percentile(lp_ms, 50)
    m["simplex.lp_ms.p99"] = percentile(lp_ms, 99)
    m["simplex.pivots"] = counts["simplex.pivots"]
    m["simplex.pivots_per_lp"] = share(counts["simplex.pivots"], len(lps))
    m["simplex.tableau_cells_per_pivot"] = share(counts["simplex.tableau_cells"],
                                                 counts["simplex.pivots"])
    m["simplex.phase1_share"] = share(counts["simplex.phase1"], counts["simplex.two_phase"])
    m["simplex.infeasible_share"] = share(statuses.count("infeasible"), len(lps))
    m["simplex.breakdowns"] = sum(raised(i, "NumericalBreakdown") for i in lps)

    solves = by_name.get("bnb.solve", [])
    nodes = sum(infos("bnb.solve", "nodes"))
    m["bnb.solve_calls"] = len(solves)
    m["bnb.solve_s"] = total("bnb.solve")
    m["bnb.nodes"] = nodes
    m["bnb.nodes_per_s"] = share(nodes, m["bnb.solve_s"])
    m["bnb.proved_optimal_share"] = share(sum(infos("bnb.solve", "proved")), len(solves))
    m["bnb.infeasible_raises"] = sum(raised(i, "InfeasibleSubproblem") for i in solves)
    dives = by_name.get("bnb.dive", [])
    m["bnb.dive_calls"] = len(dives)
    m["bnb.dive_s"] = total("bnb.dive")
    m["bnb.dive_success_share"] = share(sum(infos("bnb.dive", "success")), len(dives))
    m["bnb.dive_lp_repairs"] = sum(parent_name(i) == "bnb.dive" for i in lps)

    divings = by_name.get("diving.dive", [])
    # dive_and_solve runs bnb.solve under the fixings; when that raises, it reruns unfixed
    proof_solves = {i for i in solves
                    if parent_name(i) == "diving.dive" and raised(i, "InfeasibleSubproblem")}
    fallback_solves = [i for i in solves
                       if parent_name(i) == "diving.dive" and i not in proof_solves
                       and (spans[spans[i].parent].info or {}).get("fell_back")]
    m["diving.calls"] = len(divings)
    m["diving.fixed_feasible_share"] = share(
        sum(1 for fb in infos("diving.dive", "fell_back") if not fb), len(divings))
    coverages = infos("diving.dive", "coverage")
    m["diving.coverage_mean"] = share(sum(coverages), len(coverages))
    m["diving.proof_lp_calls"] = sum(1 for i in lps if _ancestor(spans, i, "bnb.solve") in proof_solves)
    m["diving.fallback_s"] = sum(spans[i].duration for i in fallback_solves)

    encodes = by_name.get("encoder.encode", [])
    m["encoder.calls"] = len(encodes)
    m["encoder.encode_s"] = total("encoder.encode")
    m["encoder.edges"] = sum(infos("encoder.encode", "edges"))

    forward_s = total("gcnn.forward")
    m["gcnn.forward_calls"] = len(by_name.get("gcnn.forward", []))
    m["gcnn.forward_s"] = forward_s
    m["gcnn.backward_s"] = total("gcnn.backward")
    m["gcnn.loss_s"] = total("gcnn.loss")
    m["gcnn.epoch_s"] = total("gcnn.train") / epochs
    m["gcnn.edges_per_s"] = share(sum(infos("gcnn.forward", "edges")), forward_s)

    map_s, items = map_seconds(spans)
    stage_s = sum(total(f"pipeline.{stage}") for stage in STAGES if stage != "generate")
    m["pipeline.map_s"] = map_s
    m["pipeline.map_items"] = items
    m["pipeline.serial_s"] = stage_s - map_s
    m["pipeline.write_s"] = total("pipeline.write")

    m["instances.parse_s"] = total("instances.parse")
    m["instances.serialize_s"] = total("instances.serialize")
    m["evaluation.primal_integral_s"] = total("evaluation.primal_integral")
    return m
