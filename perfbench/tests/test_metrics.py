"""The metric catalogue and BENCHMARK.json agree with the contract."""

import json
from pathlib import Path

import pytest

from pbench.metrics import END_TO_END, NAME, PER_LAYER, REPORTED, UNIT, UNITS, result_line

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed_and_unique():
    names = [name for name, _, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in END_TO_END + PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert better in ("lower", "higher")
    for figures in REPORTED.values():
        assert set(figures) <= set(UNITS)


def test_benchmark_json_lists_the_catalogue():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        PER_LAYER
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(REPORTED)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])


def test_result_line_has_exactly_the_contract_keys():
    values = {name: 1.5 for name, _, _ in END_TO_END}
    line = json.loads(result_line(True, 10, 0, values, traced=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(values)
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}


def test_result_line_refuses_an_unmeasured_metric():
    with pytest.raises(KeyError):
        result_line(True, 1, 0, {"setup_s": 1.0}, traced=False)
