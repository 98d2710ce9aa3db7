"""The decision rules of ``tools/bench_pairs.py``, loaded by path; no
benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.05, 0.95, 1.0]  # median 1.0


class TestWithinBound:
    @pytest.mark.parametrize(
        "shift, better, expected",
        [
            (0.0, "lower", True),
            (-0.5, "lower", True),  # better by any amount
            (0.25, "lower", True),  # worse by exactly the bound
            (0.26, "lower", False),
            (-0.25, "higher", True),
            (-0.26, "higher", False),
            (0.5, "higher", True),
        ],
    )
    def test_median_against_bound_times_parent_median(self, shift, better, expected):
        change = [v + shift for v in PARENT]
        assert bench_pairs.within_bound(PARENT, change, better, 0.25) is expected

    def test_reads_medians_not_single_runs(self):
        """One run far out on the change's side moves no median."""
        change = list(PARENT)
        change[0] = 100.0
        assert bench_pairs.within_bound(PARENT, change, "lower", 0.1)


class TestClaimRule:
    def test_nine_wins_and_a_gain_beyond_the_iqr(self):
        change = [v - 0.3 for v in PARENT]
        change[0] = 2.0  # one lost pair of ten
        assert bench_pairs.claim_rule(PARENT, change, "lower") == (9, True)

    def test_a_gain_inside_the_iqr_is_not_claimed(self):
        change = [v - 0.01 for v in PARENT]
        assert bench_pairs.claim_rule(PARENT, change, "lower") == (10, False)


_SCALE = importlib.util.spec_from_file_location(
    "scale_table", Path(__file__).resolve().parents[1] / "tools" / "scale_table.py"
)
scale_table = importlib.util.module_from_spec(_SCALE)
_SCALE.loader.exec_module(scale_table)


def test_scale_table_smoke(capsys):
    """A 10-gate table: a header, a rule and one row of three measurements."""
    assert scale_table.main(["10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| gates | compile | compile peak | enumerated delegation |", "|---|---|---|---|"]
    assert len(lines) == 3 and lines[2].startswith("| 10 | ") and lines[2].count(" s |") == 2, lines
