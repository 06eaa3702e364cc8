"""Tests for the trajectory table container and its CSV/JSON rendering."""

import json
import math

import pytest

from hahncalc.table import FLAG_OK, FLAG_POLE, TrajectoryTable


def make_table():
    return TrajectoryTable(
        columns={"t": [0.0, 1.0], "closed": [1.0, None]},
        metadata={"command": "demo", "q": 0.5},
        flags=[FLAG_OK, FLAG_POLE],
    )


def test_missing_time_column_rejected():
    table = TrajectoryTable(columns={"closed": [1.0]}, metadata={}, flags=[FLAG_OK])
    with pytest.raises(ValueError):
        table.validate()


def test_ragged_columns_rejected():
    table = TrajectoryTable(
        columns={"t": [0.0, 1.0], "closed": [1.0]},
        metadata={},
        flags=[FLAG_OK, FLAG_OK],
    )
    with pytest.raises(ValueError):
        table.validate()


def test_unknown_flag_rejected():
    table = TrajectoryTable(columns={"t": [0.0]}, metadata={}, flags=["mystery"])
    with pytest.raises(ValueError):
        table.validate()


def test_csv_layout():
    text = make_table().to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "# command=demo"
    assert lines[1] == "# q=0.5"
    assert lines[2] == "t,closed,flag"
    assert lines[3] == "0.0,1.0,ok"
    assert lines[4] == "1.0,,pole"


def test_csv_uses_repr_floats():
    table = TrajectoryTable(
        columns={"t": [0.1], "closed": [1 / 3]},
        metadata={},
        flags=[FLAG_OK],
    )
    body = table.to_csv().strip().splitlines()[-1]
    assert body == f"{0.1!r},{1/3!r},ok"


def test_json_round_trip():
    payload = json.loads(make_table().to_json())
    assert payload["metadata"]["command"] == "demo"
    assert payload["columns"]["t"] == [0.0, 1.0]
    assert payload["columns"]["closed"] == [1.0, None]
    assert payload["flags"] == ["ok", "pole"]


def test_time_must_increase_within_block():
    table = TrajectoryTable(
        columns={"t": [1.0, 0.5]},
        metadata={},
        flags=[FLAG_OK, FLAG_OK],
    )
    with pytest.raises(ValueError):
        table.to_csv()


def reference_json(table):
    """The layout to_json keeps: json.dumps of the payload with indent=2."""
    payload = {"metadata": table.metadata, "columns": table.columns, "flags": table.flags}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize(
    "table",
    [
        TrajectoryTable(columns={"t": [], "closed": []}, metadata={}, flags=[]),
        TrajectoryTable(columns={"t": [0.5]}, metadata={}, flags=[FLAG_OK]),
        make_table(),
        TrajectoryTable(
            columns={"t": [-1.5, 0.0, 2.0], "a": [None, None, 1e-300], "b": [3, True, False]},
            metadata={
                "routes": "closed, series",
                "quoted": 'say "hi"\\',
                "name": "Hahn–Jackson \u00e9\u4e2d",
                "n": 7,
                "flag": True,
                "none": None,
                "tiny": 5e-324,
            },
            flags=[FLAG_OK, FLAG_POLE, FLAG_OK],
        ),
    ],
    ids=["zero-rows", "empty-metadata", "none-cell", "strings-ints-bools"],
)
def test_json_layout_is_json_dumps_indent_2(table):
    assert table.to_json() == reference_json(table)


@pytest.mark.parametrize(
    "table",
    [
        TrajectoryTable(columns={"t": [0.0], "closed": [math.nan]}, flags=[FLAG_OK]),
        TrajectoryTable(columns={"t": [0.0]}, metadata={"tol": math.inf}, flags=[FLAG_OK]),
    ],
    ids=["nan-cell", "inf-metadata"],
)
def test_json_rejects_non_finite_values(table):
    with pytest.raises(ValueError):
        reference_json(table)
    with pytest.raises(ValueError):
        table.to_json()
