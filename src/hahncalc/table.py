"""Tabular output for trajectory evaluations.

A TrajectoryTable is an ordered set of equal-length columns (the time axis,
one column per solver route, and for parameter sweeps the q and w axes
prepended), a metadata mapping that records every input needed to reproduce
the run, and one status flag per row.  Cells that could not be computed are
held as None and rendered as empty CSV fields / JSON nulls, with the row
flag saying why.

Rendering is deterministic: floats are written with repr (shortest
round-trip form), and column and metadata order is insertion order.  The
JSON text is exactly json.dumps(payload, indent=2) plus a newline.  Both
formats render column by column.  A column whose values repeat (a sweep's
q, w and t axes, a column of zeros) formats each distinct value once and
looks the rest up; a column of mostly distinct values formats every cell,
in JSON through json's C encoder, which json.dumps skips whenever indent is
set.  json is imported on the first JSON rendering, so CSV runs never load
it.
"""

from __future__ import annotations

import math
from typing import Callable

from ._record import Record

__all__ = ["TrajectoryTable", "FLAG_OK", "FLAG_POLE", "FLAG_NONCONVERGENT"]

FLAG_OK = "ok"
FLAG_POLE = "pole"
FLAG_NONCONVERGENT = "nonconvergent"
_KNOWN_FLAGS = (FLAG_OK, FLAG_POLE, FLAG_NONCONVERGENT)


def _cells(values: list, fmt: Callable[[object], str]) -> list[str] | None:
    """[fmt(value) for value in values], each distinct value formatted once.

    Returns None where that saves little: where the values are mostly
    distinct or a quarter of them are zeros, or where they are of more than
    one type besides None, since equal values of two types render
    differently (1 == True == 1.0).  Within one type only the sign of zero
    tells equal values apart (0.0 == -0.0), so each zero of a float column
    is given the text of its sign.  Values must be hashable scalars.
    """
    zeros = values.count(0.0)
    if 4 * zeros > len(values):
        return None
    distinct = set(values)
    if 2 * len(distinct) > len(values):
        return None
    kinds = set(map(type, values))
    kinds.discard(type(None))
    if len(kinds) > 1:
        return None
    text = {value: fmt(value) for value in distinct}
    cells = list(map(text.__getitem__, values))
    if float in kinds and zeros:
        signed = {1.0: fmt(0.0), -1.0: fmt(-0.0)}
        i = -1
        for _ in range(zeros):
            i = values.index(0.0, i + 1)
            cells[i] = signed[math.copysign(1.0, values[i])]
    return cells


def _json_scalar(value: object) -> str:
    """One scalar as json.dumps writes it inside a list; NaN and inf raise ValueError."""
    import json

    return json.dumps(value, allow_nan=False)


def _json_list(values: list, pad: str) -> str:
    """values as json.dumps(..., indent=2) nests them at indent pad.

    Mostly distinct values are encoded with indent=None, which takes json's
    C encoder; its item separator carries the newline and indent of the
    next item.  Items must be scalars.
    """
    import json

    if not values:
        return "[]"
    inner = pad + "  "
    cells = _cells(values, _json_scalar)
    if cells is None:
        items = json.dumps(values, separators=(",\n" + inner, ": "), allow_nan=False)[1:-1]
    else:
        items = (",\n" + inner).join(cells)
    return "[\n" + inner + items + "\n" + pad + "]"


def _format_value(value: object) -> str:
    """Deterministic scalar rendering for CSV cells and metadata values."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class TrajectoryTable(Record):
    """Columns, reproduction metadata, and per-row status flags.

    metadata and flags default to a new empty dict and list.
    """

    __slots__ = ("columns", "metadata", "flags")

    def __init__(
        self,
        columns: dict[str, list[float | None]],
        metadata: dict[str, object] | None = None,
        flags: list[str] | None = None,
    ) -> None:
        self.columns = columns
        self.metadata = {} if metadata is None else metadata
        self.flags = [] if flags is None else flags

    def validate(self) -> None:
        """Check the structural invariants before rendering.

        All columns and the flag list share one length, every flag is a
        known marker, a t column is present, and t increases strictly
        within each (q, w) block (the whole table when there are no q and
        w axis columns).
        """
        if "t" not in self.columns:
            raise ValueError("table must contain a t column")
        lengths = {name: len(col) for name, col in self.columns.items()}
        distinct = set(lengths.values())
        if len(distinct) > 1:
            raise ValueError(f"ragged columns: {lengths!r}")
        n_rows = distinct.pop() if distinct else 0
        if len(self.flags) != n_rows:
            raise ValueError(
                f"{len(self.flags)} flags for {n_rows} rows"
            )
        for flag in self.flags:
            if flag not in _KNOWN_FLAGS:
                raise ValueError(f"unknown flag {flag!r}")
        ts = self.columns["t"]
        if "q" in self.columns and "w" in self.columns:
            blocks = zip(self.columns["q"], self.columns["w"])
        else:
            blocks = ((None, None) for _ in ts)
        previous_key: object = object()
        previous_t = None
        for t, key in zip(ts, blocks):
            if key != previous_key:
                previous_key = key
                previous_t = t
                continue
            if t is None or previous_t is None or t <= previous_t:
                raise ValueError("t must increase strictly within each block")
            previous_t = t

    def to_csv(self) -> str:
        """Render as CSV with a `# key=value` metadata header block."""
        self.validate()
        lines = [f"# {key}={_format_value(value)}" for key, value in self.metadata.items()]
        lines.append(",".join([*self.columns, "flag"]))
        columns = []
        for values in self.columns.values():
            cells = _cells(values, _format_value)
            columns.append(list(map(_format_value, values)) if cells is None else cells)
        lines += map(",".join, zip(*columns, self.flags))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """Render as one JSON object: metadata, columns, flags.

        The text is json.dumps(payload, indent=2, allow_nan=False) and a
        newline, for the payload {"metadata", "columns", "flags"}; a NaN or
        infinite value raises ValueError.
        """
        import json

        self.validate()
        metadata = json.dumps(self.metadata, indent=2, allow_nan=False)
        columns = ",\n".join(
            f"    {json.dumps(name)}: {_json_list(values, '    ')}"
            for name, values in self.columns.items()
        )
        return "".join(
            [
                '{\n  "metadata": ',
                metadata.replace("\n", "\n  "),
                ',\n  "columns": {\n',
                columns,
                '\n  },\n  "flags": ',
                _json_list(self.flags, "  "),
                "\n}\n",
            ]
        )
