"""``tools/growth.py``: its slope and the polygons it times."""

from pathlib import Path

import pytest

from conftest import tool
from semitoric import parse_polygon, require_valid


@pytest.fixture(scope="module")
def growth():
    return tool("growth")


def test_slope_reads_the_exponent(growth):
    xs = [256, 1024, 4096]
    assert [growth.loglog_slope(xs, [3 * x**power for x in xs]) for power in (0, 1, 2)] == [0, 1, 2]


def test_inputs_are_valid_polygons_of_their_size(growth, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import shapes
    import workloads

    grown = require_valid(parse_polygon(shapes.to_json(growth.grown(workloads.CORPUS["SQUARE"], 256))))
    digits = require_valid(parse_polygon(shapes.to_json(growth.digits_chopped(10))))
    assert (len(grown.vertices), len(digits.vertices)) == (256, 32)
