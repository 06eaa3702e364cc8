"""The behaviour of the package's parameter and result records.

Pins what callers see of DeformationParams, TruncationPolicy, KinematicState,
IterationReport, DragParams, TrajectoryTable and IdentityResult: construction
by position and keyword with its defaults, the validation messages, repr,
equality and hashing, immutability of the frozen ones, and copies.
"""

import copy
import math
import pickle

import pytest

from hahncalc import (
    DeformationParams,
    DragParams,
    IdentityResult,
    IterationReport,
    KinematicState,
    TrajectoryTable,
    TruncationPolicy,
)

# (positional construction, keyword construction, repr) of one value of each
# frozen record.
FROZEN = [
    (
        lambda: DeformationParams(0.5, 0.1),
        lambda: DeformationParams(w=0.1, q=0.5),
        "DeformationParams(q=0.5, w=0.1, w0=0.2)",
    ),
    (
        lambda: TruncationPolicy(1e-14, 100000),
        lambda: TruncationPolicy(max_terms=100000, tol=1e-14),
        "TruncationPolicy(tol=1e-14, max_terms=100000)",
    ),
    (
        lambda: KinematicState(1.0, 2.0, 3.0),
        lambda: KinematicState(a=3.0, v0=2.0, x0=1.0),
        "KinematicState(x0=1.0, v0=2.0, a=3.0)",
    ),
    (
        lambda: IterationReport(1.5, 34, 0.25),
        lambda: IterationReport(residual=0.25, steps=34, value=1.5),
        "IterationReport(value=1.5, steps=34, residual=0.25)",
    ),
    (
        lambda: DragParams(1.0, 0.5, 9.8, 0.0),
        lambda: DragParams(v0=0.0, g=9.8, k=0.5, m=1.0),
        "DragParams(m=1.0, k=0.5, g=9.8, v0=0.0)",
    ),
    (
        lambda: IdentityResult("leibniz", 1e-13, 1e-10, 12),
        lambda: IdentityResult(cases=12, tolerance=1e-10, max_residual=1e-13, name="leibniz"),
        "IdentityResult(name='leibniz', max_residual=1e-13, tolerance=1e-10, cases=12)",
    ),
]


@pytest.mark.parametrize("positional, keyword, text", FROZEN)
def test_frozen_record_construction_repr_equality_and_hash(positional, keyword, text):
    value = positional()
    assert repr(value) == text
    assert keyword() == value
    assert hash(keyword()) == hash(value)
    assert value != text
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert len({value, keyword()}) == 1


@pytest.mark.parametrize("positional, keyword, text", FROZEN)
def test_frozen_record_fields_cannot_be_assigned(positional, keyword, text):
    value = positional()
    field = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(value, field, 0.0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


def test_records_differ_by_any_field_and_by_type():
    assert DeformationParams(0.5, 0.1) != DeformationParams(0.5, 0.2)
    assert KinematicState(1.0, 2.0, 3.0) != KinematicState(1.0, 2.0, 4.0)
    assert IterationReport(1.0, 2, 0.0) != KinematicState(1.0, 2.0, 0.0)
    assert IterationReport(1.0, 2, 0.0) != (1.0, 2, 0.0)


def test_defaults():
    assert DeformationParams(0.9) == DeformationParams(q=0.9, w=0.0)
    assert DeformationParams(0.9).w0 == 0.0
    assert TruncationPolicy() == TruncationPolicy(tol=1e-14, max_terms=100_000)
    assert TruncationPolicy(1e-10).max_terms == 100_000


def test_derived_fixed_point_is_not_a_parameter():
    assert DeformationParams(0.75, 1.0).w0 == 4.0
    with pytest.raises(TypeError):
        DeformationParams(0.5, 0.1, 0.2)
    with pytest.raises(TypeError):
        DeformationParams(q=0.5, w0=0.2)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DeformationParams(1.0), "q must be finite and strictly inside (0, 1), got 1.0"),
        (lambda: DeformationParams(math.nan), "q must be finite and strictly inside (0, 1), got nan"),
        (lambda: DeformationParams(0.5, -0.1), "w must be finite and nonnegative, got -0.1"),
        (lambda: DeformationParams(0.5, math.inf), "w must be finite and nonnegative, got inf"),
        (
            lambda: DeformationParams(1.0 - 2.0**-53, 1e300),
            "w0 = w/(1-q) must be finite, got w=1e+300, q=0.9999999999999999",
        ),
        (lambda: TruncationPolicy(tol=0.0), "tol must be positive, got 0.0"),
        (lambda: TruncationPolicy(tol=math.nan), "tol must be positive, got nan"),
        (lambda: TruncationPolicy(tol=math.inf), "tol must be finite, got inf"),
        (lambda: TruncationPolicy(max_terms=0), "max_terms must be a positive integer, got 0"),
        (lambda: TruncationPolicy(max_terms=2.5), "max_terms must be a positive integer, got 2.5"),
        (
            lambda: TruncationPolicy(max_terms=1e9),
            "max_terms must be a positive integer, got 1000000000.0",
        ),
        (lambda: KinematicState(math.nan, 0.0, 0.0), "x0 must be finite, got nan"),
        (lambda: KinematicState(0.0, math.inf, 0.0), "v0 must be finite, got inf"),
        (lambda: KinematicState(math.nan, 0.0, -math.inf), "x0 must be finite, got nan"),
        (lambda: KinematicState(0.0, 0.0, -math.inf), "a must be finite, got -inf"),
        (lambda: DragParams(math.inf, 0.5, 9.8, 0.0), "m must be finite, got inf"),
        (lambda: DragParams(1.0, 0.5, math.nan, 0.0), "g must be finite, got nan"),
        (lambda: DragParams(-1.0, 0.5, 9.8, math.nan), "v0 must be finite, got nan"),
        (lambda: DragParams(0.0, 0.5, 9.8, 0.0), "m must be positive, got 0.0"),
        (lambda: DragParams(1.0, -0.5, 9.8, 0.0), "k must be positive, got -0.5"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_identity_result_passed():
    assert IdentityResult("x", 1e-13, 1e-10, 1).passed
    assert not IdentityResult("x", 1e-10, 1e-10, 1).passed
    assert not IdentityResult("x", math.nan, 1e-10, 1).passed


def test_trajectory_table_is_a_mutable_unhashable_record():
    columns = {"t": [0.0, 1.0], "closed": [1.0, None]}
    table = TrajectoryTable(columns, {"q": 0.5}, ["ok", "pole"])
    assert table == TrajectoryTable(columns=columns, metadata={"q": 0.5}, flags=["ok", "pole"])
    assert repr(table) == (
        "TrajectoryTable(columns={'t': [0.0, 1.0], 'closed': [1.0, None]}, "
        "metadata={'q': 0.5}, flags=['ok', 'pole'])"
    )
    assert table.columns is columns
    with pytest.raises(TypeError):
        hash(table)
    table.flags = ["ok", "ok"]
    assert table != TrajectoryTable(columns, {"q": 0.5}, ["ok", "pole"])
    assert pickle.loads(pickle.dumps(table)) == table
    assert copy.deepcopy(table) == table


def test_trajectory_table_defaults_are_fresh():
    first, second = TrajectoryTable({"t": []}), TrajectoryTable({"t": []})
    assert repr(first) == "TrajectoryTable(columns={'t': []}, metadata={}, flags=[])"
    assert first == second
    first.metadata["q"] = 0.5
    first.flags.append("ok")
    assert second.metadata == {} and second.flags == []
