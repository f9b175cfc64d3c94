"""The committed benchmark lines: each root BENCH_*.json is one result line of
``perfbench/run.py`` from a correct run, with every end-to-end metric that
BENCHMARK.json declares.  The test only reads files."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))


def test_bench_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_bench_record_is_one_correct_result_line(path):
    record = json.loads(path.read_text())  # one JSON document, or this raises
    assert isinstance(record, dict)
    assert record["correct"] is True and record["failed"] == 0
    for metric in END_TO_END:
        entry = record["metrics"][metric["name"]]
        value = entry["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value) and value >= 0
        assert entry["unit"] == metric["unit"]
