"""The claim rule and the bound check of ``tools/pairs.py`` on hand-made runs."""

import argparse
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import pairs  # noqa: E402


PARENT = [1.70, 1.72, 1.71, 1.80, 1.69, 1.75, 1.73, 1.71, 1.74, 1.72]


def test_summary_uses_linear_quartiles():
    s = pairs.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s.q1, s.median, s.q3, s.iqr) == (2.0, 3.0, 4.0, 2.0)


def test_ten_clear_wins_hold():
    child = [p - 0.25 for p in PARENT]
    v = pairs.judge(PARENT, child)
    assert (v.wins, v.losses, v.ties) == (10, 0, 0)
    assert v.gap == pytest.approx(0.25) and v.holds


def test_nine_wins_hold_and_eight_do_not():
    child = [p - 0.25 for p in PARENT]
    child[0] = PARENT[0] + 0.01
    assert pairs.judge(PARENT, child).holds
    child[1] = PARENT[1] + 0.01
    v = pairs.judge(PARENT, child)
    assert v.wins == 8 and not v.holds


def test_ties_count_for_neither_side():
    child = [p - 0.25 for p in PARENT]
    child[0] = PARENT[0]
    v = pairs.judge(PARENT, child)
    assert (v.wins, v.losses, v.ties) == (9, 0, 1) and v.holds
    child[1] = PARENT[1]
    assert not pairs.judge(PARENT, child).holds  # 8 of 10 wins


def test_median_difference_within_the_differences_iqr_does_not_hold():
    diffs = [0.01, 0.4, 0.02, 0.5, 0.03, 0.6, 0.04, 0.7, 0.05, 0.8]
    v = pairs.judge(PARENT, [p - d for p, d in zip(PARENT, diffs)])
    assert v.wins == 10 and v.diff.median < v.diff.iqr and not v.holds


def _old_rule_holds(v):
    """The rule judged on each side's own runs: the median gap beats the parent's IQR."""
    return v.wins >= pairs.WIN_SHARE * (v.wins + v.losses + v.ties) and v.gap > v.parent_iqr


def test_a_steady_gain_under_machine_drift_holds():
    # the machine slows by 5% of a run per pair; the tree is 0.06 s faster in each pair
    parent = [1.0 + 0.05 * i for i in range(10)]
    noise = [0.004, -0.003, 0.002, -0.004, 0.001, 0.003, -0.002, 0.0, -0.001, 0.002]
    child = [p - 0.06 + e for p, e in zip(parent, noise)]
    v = pairs.judge(parent, child)
    assert v.wins == 10 and v.gap < v.parent_iqr and not _old_rule_holds(v)
    assert v.diff.median > v.diff.iqr and v.holds


def test_no_change_holds_under_neither_rule():
    child = [p + (0.01 if i % 2 else -0.01) for i, p in enumerate(PARENT)]
    v = pairs.judge(PARENT, child)
    assert (v.wins, v.losses) == (5, 5)
    assert not v.holds and not _old_rule_holds(v)


def test_a_lower_is_better_claim_holds_when_the_tree_falls():
    parent = [41.4, 41.5, 41.3, 41.6, 41.4, 41.5, 41.4, 41.6, 41.3, 41.5]  # peak_rss_mb
    child = [p - 1.6 for p in parent]
    v = pairs.judge(parent, child, "lower")
    assert v.wins == 10 and v.gap == pytest.approx(1.6) and v.holds
    v = pairs.judge(child, parent, "lower")
    assert v.losses == 10 and v.gap == pytest.approx(-1.6) and not v.holds


def test_a_higher_is_better_claim_holds_when_the_tree_rises():
    parent = [0.50, 0.52, 0.49, 0.51, 0.50, 0.53, 0.50, 0.51, 0.52, 0.50]  # fix_feasible_rate
    child = [p + 0.1 for p in parent]
    v = pairs.judge(parent, child, "higher")
    assert (v.wins, v.losses) == (10, 0) and v.gap == pytest.approx(0.1) and v.holds
    v = pairs.judge(parent, child, "lower")  # the same runs, read as lower is better
    assert (v.wins, v.losses) == (0, 10) and not v.holds
    with pytest.raises(ValueError, match="direction"):
        pairs.judge(parent, child, "sideways")


def test_claim_names_an_end_to_end_metric():
    with pytest.raises(SystemExit):  # a per-layer metric: argparse rejects it before any run
        pairs.main(["--workload", "gcnn-wide", "--seed", "1", "--claim", "simplex.pivots"])


def test_unpaired_runs_rejected():
    with pytest.raises(ValueError, match="unpaired"):
        pairs.judge(PARENT, PARENT[:-1])


def _runs(rss, ok=1.0):
    return [{"pipeline_s": 1.0, "peak_rss_mb": r, "ok_share": ok} for r in rss]


def test_bounds_come_from_the_benchmark_file():
    bounds = pairs.load_bounds()
    assert bounds["peak_rss_mb"] == ("lower", 0.1)
    assert bounds["fix_feasible_rate"][0] == "higher"
    assert "pipeline_s" in bounds


def test_memory_past_its_bound_is_worse():
    parent = _runs([48.0, 48.2, 48.1, 48.3])
    bounds = {"pipeline_s": ("lower", 0.25), "peak_rss_mb": ("lower", 0.1),
              "ok_share": ("higher", 0.05)}
    # medians 48.15 and 53.0: 4.85 MB more, past 10% of 48.15
    assert pairs.worse_metrics(parent, _runs([53.0, 52.9, 53.1, 53.0]), bounds) == ["peak_rss_mb"]
    # 52.9 is within 10%
    assert pairs.worse_metrics(parent, _runs([52.9, 52.8, 52.9, 53.0]), bounds) == []
    # less memory is never worse
    assert pairs.worse_metrics(parent, _runs([30.0, 30.0]), bounds) == []


def test_a_higher_is_better_metric_is_worse_when_it_falls():
    bounds = {"ok_share": ("higher", 0.05)}
    assert pairs.worse_metrics(_runs([1, 1], ok=1.0), _runs([1, 1], ok=0.9), bounds) == ["ok_share"]
    assert pairs.worse_metrics(_runs([1, 1], ok=1.0), _runs([1, 1], ok=0.96), bounds) == []
    with pytest.raises(ValueError, match="direction"):
        pairs.is_worse(1.0, 2.0, "sideways", 0.1)


def _stdout(digest, correct=True):
    """What run.py prints: a provenance line, the digest line, metric rows, the JSON line."""
    return (
        "# gcnn-wide seed=23 trace=0: python 3.11.7, numpy 2.4.6, nproc 2, cpu x\n"
        f"# 12 passes, output sha256 {digest}\n"
        "pipeline_s                                     0.5355 s\n"
        "# full result: .bench_out/results/gcnn-wide-seed23-trace0.json\n"
        '{"correct": %s, "attempted": 12, "failed": 0, '
        '"metrics": {"pipeline_s": {"value": 0.5355, "unit": "s"}}}\n'
        % ("true" if correct else "false")
    )


def test_a_run_gives_its_metrics_and_output_digest():
    metrics, digest = pairs.parse_output(_stdout("3b73981b" + "0" * 56))
    assert metrics == {"pipeline_s": 0.5355} and digest == "3b73981b" + "0" * 56
    with pytest.raises(ValueError, match="failure"):
        pairs.parse_output(_stdout("ab", correct=False))
    with pytest.raises(ValueError, match="digest"):
        pairs.parse_output(_stdout("ab").replace("output sha256", "output"))


def test_differing_outputs_are_reported_by_pair():
    same = [pairs.parse_output(_stdout("aa"))[1]] * 3
    assert pairs.compare_digests(same, same) == "outputs identical on all 3 pairs"
    assert (pairs.compare_digests(same, ["aa", "bb", "cc"])
            == "OUTPUTS DIFFER on pair 2: parent aa tree bb")


def test_stage_times_come_from_the_unbounded_metric_lines():
    out = _stdout("aa").replace(
        "pipeline_s                                     0.5355 s\n",
        "pipeline_s                                     0.5355 s\n"
        "collect_s                                     0.05125 s  (not bounded)\n"
        "train_s                                        0.3301 s  (not bounded)\n"
        "gridsearch_s                                  0.08004 s  (not bounded)\n"
        "evaluate_s                                    0.07373 s  (not bounded)\n"
        "dive_pi_ratio                                0.982143 ratio  (not bounded)\n",
    )
    stages = pairs.parse_stage_times(out)
    assert stages == {"collect_s": 0.05125, "train_s": 0.3301, "gridsearch_s": 0.08004,
                      "evaluate_s": 0.07373}
    assert pairs.parse_output(out)[0] == {"pipeline_s": 0.5355}  # stage times are not judged
    assert pairs.parse_stage_times(_stdout("aa")) == {}
    tree = [dict(stages, train_s=0.25), dict(stages, train_s=0.27)]
    table = pairs.stage_table([stages, stages], tree)
    assert [line.split()[0] for line in table] == list(pairs.STAGES)
    assert table[1] == "train_s            parent 0.3301  tree 0.2600  (-21.2%)"


def test_seed_takes_one_seed_or_a_comma_list():
    assert pairs.parse_seeds("23") == [23]
    assert pairs.parse_seeds("23,5") == [23, 5]
    for bad in ("23,,5", "x", "5,5"):
        with pytest.raises(argparse.ArgumentTypeError):
            pairs.parse_seeds(bad)
