"""Extraction against the outputs recorded in bench/reference.json.

Every point of the benchmark's sweep grid goes through the benchmark's own
design operation and output check: extracted values within 1e-12
relative, verdicts and typed rejections (type and message) identical.
The toroidal qvco model is checked the same way.  The benchmark modules
are imported as they are, without changes.
"""
import sys
from pathlib import Path

import pytest

from tsvqvco.geometry import TransformerGeometry
from tsvqvco.transformer import build_transformer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def test_every_sweep_grid_point_matches_reference(reference):
    outcomes = {workloads.draw_key(d): workloads.run_design(d, spans.NULL_TRACER)
                for d in workloads.sweep_grid()}
    assert set(outcomes) == set(reference["design_sweep"])
    problems = {key: p for key, got in outcomes.items()
                if (p := checks.check_design(got, reference["design_sweep"][key]))}
    assert problems == {}
    rejected = sum("error" in got for got in outcomes.values())
    assert 0 < rejected < len(outcomes)


def test_qvco_model_matches_reference(reference):
    model = build_transformer(TransformerGeometry.from_json_file(workloads.QVCO_CONFIG))
    for workload in ("qvco_core", "qvco_buffered"):
        assert checks.check_model(workloads.model_record(model),
                                  reference[workload]["model"]) == []
