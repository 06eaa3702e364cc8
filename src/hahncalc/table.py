"""Tabular output for trajectory evaluations.

A TrajectoryTable is an ordered set of equal-length columns (the time axis,
one column per solver route, and for parameter sweeps the q and w axes
prepended), a metadata mapping that records every input needed to reproduce
the run, and one status flag per row.  Cells that could not be computed are
held as None and rendered as empty CSV fields / JSON nulls, with the row
flag saying why.

Rendering is deterministic: floats are written with repr (shortest
round-trip form), and column and metadata order is insertion order.  The
JSON text is exactly json.dumps(payload, indent=2) plus a newline, but the
columns and flags, nearly all of its bytes, go through json's C encoder,
which json.dumps skips whenever indent is set.  json is imported on the
first JSON rendering, so CSV runs never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TrajectoryTable", "FLAG_OK", "FLAG_POLE", "FLAG_NONCONVERGENT"]

FLAG_OK = "ok"
FLAG_POLE = "pole"
FLAG_NONCONVERGENT = "nonconvergent"
_KNOWN_FLAGS = (FLAG_OK, FLAG_POLE, FLAG_NONCONVERGENT)


def _json_list(values: list, pad: str) -> str:
    """values as json.dumps(..., indent=2) nests them at indent pad.

    Encoding with indent=None takes json's C encoder; the item separator
    carries the newline and indent of the next item.  Items must be scalars.
    """
    import json

    if not values:
        return "[]"
    inner = pad + "  "
    items = json.dumps(values, separators=(",\n" + inner, ": "), allow_nan=False)
    return "[\n" + inner + items[1:-1] + "\n" + pad + "]"


def _format_value(value: object) -> str:
    """Deterministic scalar rendering for CSV cells and metadata values."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class TrajectoryTable:
    """Columns, reproduction metadata, and per-row status flags."""

    columns: dict[str, list[float | None]]
    metadata: dict[str, object] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)

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
        names = list(self.columns)
        lines.append(",".join(names + ["flag"]))
        for i, flag in enumerate(self.flags):
            cells = [_format_value(self.columns[name][i]) for name in names]
            cells.append(flag)
            lines.append(",".join(cells))
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
        return (
            '{\n  "metadata": '
            + metadata.replace("\n", "\n  ")
            + ',\n  "columns": {\n'
            + columns
            + '\n  },\n  "flags": '
            + _json_list(self.flags, "  ")
            + "\n}\n"
        )
