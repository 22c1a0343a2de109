"""Benchmark: regenerate Table IV (learning model strategies)."""

from repro.experiments import table4_learners


def test_table4_learners(benchmark, once):
    rows = once(benchmark, table4_learners.run_experiment)
    print("\n" + table4_learners.render(rows))
    by_name = {row.learner: row for row in rows}
    # Deep models are the strong family (paper: Deep.128 wins at 31%).
    best_deep = max(
        row.speedup_percent for name, row in by_name.items()
        if name.startswith("deep")
    )
    assert best_deep > 20.0
    # The adaptive library trails the deep models (paper: 8% vs 31%).
    assert by_name["adaptive_library"].speedup_percent < best_deep
    # Inference overhead ordering: linear is the cheapest learner.
    assert by_name["linear"].overhead_ms == min(
        row.overhead_ms for row in rows
    )
    # The analytical tree is far cheaper than multi-regression (paper:
    # 0.10 ms against 4.11 ms).
    assert (
        by_name["decision_tree"].overhead_ms
        < by_name["multi_regression"].overhead_ms
    )
