"""The benchmark-regression gate itself: ``benchmarks/compare.py``.

The gate guards CI, so its failure modes need tests of their own — above
all the one it historically lacked: a metric *renamed or dropped* in fresh
output must fail loudly (with a per-metric diff table), not silently fall
out of the gated set.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.compare import EXACT_KEYS, RATIO_KEYS, compare, diff_table, main

BASELINE = {
    "schema": "sailors",
    "distinct_queries": 50,
    "warm_speedup_p50": 14.0,
    "coalesce_collapse": 23.6,
    "warm_p50_ms": 1.9,
    "results_identical": True,
    "server_stats": {"compiles": 61},
    "stages": {"lex": {"hits": 10, "misses": 5}},
}


def _fresh(**overrides) -> dict:
    fresh = json.loads(json.dumps(BASELINE))
    fresh.update(overrides)
    return fresh


def test_identical_payload_passes():
    failures, notes = compare(_fresh(), BASELINE, tolerance=0.4)
    assert failures == []
    assert any("warm_speedup_p50" in note for note in notes)


def test_exact_key_drift_fails():
    failures, _ = compare(_fresh(distinct_queries=49), BASELINE, 0.4)
    assert any("distinct_queries" in f and "expected 50" in f for f in failures)


def test_ratio_below_tolerance_floor_fails_and_above_passes():
    failures, _ = compare(_fresh(warm_speedup_p50=14.0 * 0.59), BASELINE, 0.4)
    assert any("warm_speedup_p50" in f and "floor" in f for f in failures)
    failures, _ = compare(_fresh(warm_speedup_p50=14.0 * 0.61), BASELINE, 0.4)
    assert failures == []


def test_missing_gated_key_fails():
    fresh = _fresh()
    del fresh["coalesce_collapse"]
    failures, _ = compare(fresh, BASELINE, 0.4)
    assert any(
        "coalesce_collapse" in f and "missing" in f for f in failures
    )


def test_renamed_ungated_key_fails_instead_of_silently_passing():
    # The historical hole: ``warm_p50_ms`` is informational (never gated on
    # value), so renaming it used to slip through every check.
    fresh = _fresh()
    fresh["warm_p50"] = fresh.pop("warm_p50_ms")
    failures, _ = compare(fresh, BASELINE, 0.4)
    assert failures == [
        "warm_p50_ms: present in baseline but missing from fresh output "
        "(renamed or dropped metric?)"
    ]


@pytest.mark.parametrize(
    "baseline_numpy, fresh_numpy, mismatch",
    [("2.4.6", None, True), (None, "2.4.6", True), ("2.4.6", "2.1.0", False), (None, None, False)],
)
def test_numpy_on_one_side_only_fails_naming_both_versions(
    baseline_numpy, fresh_numpy, mismatch
):
    baseline = {**BASELINE, "numpy_version": baseline_numpy}
    fresh = _fresh(numpy_version=fresh_numpy, warm_speedup_p50=1.0)
    failures, notes = compare(fresh, baseline, 0.4)
    # The ratio shortfall is reported either way, after the mismatch.
    assert [failure.split(":")[0] for failure in failures] == (
        ["numpy_version"] * mismatch + ["warm_speedup_p50"]
    )
    if mismatch:
        assert failures[0] == (
            f"numpy_version: baseline {baseline_numpy!r}, measured {fresh_numpy!r}; "
            "exactly one side ran with NumPy, so their ratios are not comparable"
        )
    assert any(note.startswith("numpy_version:") for note in notes)


def test_missing_nested_dict_fails():
    fresh = _fresh()
    del fresh["server_stats"]
    failures, _ = compare(fresh, BASELINE, 0.4)
    assert any("server_stats" in f and "missing" in f for f in failures)


def test_stage_counter_drift_fails():
    fresh = _fresh(stages={"lex": {"hits": 9, "misses": 6}})
    failures, _ = compare(fresh, BASELINE, 0.4)
    assert any("stages.lex.hits" in f for f in failures)
    assert any("stages.lex.misses" in f for f in failures)


def test_flag_key_must_stay_truthy():
    failures, _ = compare(_fresh(results_identical=False), BASELINE, 0.4)
    assert any("results_identical" in f for f in failures)


def test_extra_fresh_keys_are_allowed():
    failures, _ = compare(_fresh(new_metric=123), BASELINE, 0.4)
    assert failures == []


def test_every_missing_baseline_key_fails_exactly_once():
    failures, _ = compare({}, BASELINE, 0.4)
    for key in BASELINE:
        if key == "stages":
            matching = [f for f in failures if f.startswith("stages.lex:")]
        else:
            matching = [f for f in failures if f.startswith(f"{key}:")]
        assert len(matching) == 1, (key, failures)


def test_diff_table_marks_missing_keys():
    fresh = _fresh()
    del fresh["warm_p50_ms"]
    rows = diff_table(fresh, BASELINE)
    missing = [row for row in rows if row.lstrip().startswith("!")]
    assert len(missing) == 1 and "warm_p50_ms" in missing[0]
    assert "(missing)" in missing[0]


def test_serve_metrics_are_wired_into_the_gate_tables():
    for key in ("burst_unique_compiles", "burst_unique_fraction"):
        assert key in EXACT_KEYS
    for key in ("warm_speedup_p50", "coalesce_collapse"):
        assert key in RATIO_KEYS


def test_topk_metrics_are_wired_into_the_gate_tables():
    from benchmarks.compare import FLAG_KEYS, INFO_KEYS

    for key in ("topk_vs_full_cold", "topk_vs_full_warm"):
        assert key in RATIO_KEYS
    for key in ("topk_engine", "topk_queries"):
        assert key in EXACT_KEYS
    assert "topk_results_consistent" in FLAG_KEYS
    for key in (
        "topk_cold_ms",
        "topk_warm_ms",
        "topk_full_cold_ms",
        "topk_full_warm_ms",
        "python_version",
        "sqlite_version",
        "numpy_version",
    ):
        assert key in INFO_KEYS


def test_main_exit_codes_and_diff_table_output(tmp_path, capsys):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(BASELINE))

    good = tmp_path / "good.json"
    good.write_text(json.dumps(_fresh()))
    assert main([str(good), "--baseline", str(baseline_path)]) == 0
    assert "within bounds" in capsys.readouterr().out

    renamed = tmp_path / "renamed.json"
    fresh = _fresh()
    fresh["warm_speedup"] = fresh.pop("warm_speedup_p50")
    renamed.write_text(json.dumps(fresh))
    assert main([str(renamed), "--baseline", str(baseline_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "metric diff" in out and "! warm_speedup_p50" in out

    assert main([str(tmp_path / "nope.json"), "--baseline", str(baseline_path)]) == 2


def test_main_gates_the_checked_in_serve_baseline(tmp_path, capsys):
    from pathlib import Path

    baseline = Path("benchmarks/BENCH_serve.json")
    if not baseline.exists():  # pragma: no cover — defensive for odd CWDs
        pytest.skip("run from the repo root")
    copy = tmp_path / "fresh.json"
    copy.write_text(baseline.read_text())
    assert main([str(copy), "--baseline", str(baseline)]) == 0
    assert "warm_speedup_p50" in capsys.readouterr().out
