"""JSON text of the command line documents, block by block.

``dumps(doc)`` returns exactly the text of ``json.dumps(doc, indent=2,
sort_keys=True)``, non-finite floats included (``NaN``, ``Infinity``).
The standard library writes indented JSON with its pure-Python encoder,
one generator step per value.  Here a list of plain scalars is one
``join``, and a list of equal-length rows of plain scalars (a matrix, an
edge list) is formatted column by column, or as one block when every cell
is a float, and laid out with one ``join``.  A float is written as
``float.__repr__`` writes it, once per distinct IEEE bit pattern in the
document, and an int as ``int.__repr__`` writes it; keys and strings go
through json's C string encoder.  Anything else, such as a subclass of
float, takes the value-by-value path, which follows
``json.encoder._make_iterencode``.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
# below about this many values (a symmetric matrix at p = 10), formatting
# every value is faster than sorting the bit patterns
_DEDUP_MIN = 100


class FloatTexts:
    """Text of floats as ``float.__repr__`` writes it, computed once per
    distinct IEEE bit pattern (so ``0.0`` and ``-0.0`` stay apart) over
    every call.  ``names`` replaces the reprs ``nan``, ``inf`` and ``-inf``.
    The formatted patterns are kept sorted, so a value that recurs in a
    later call (an entry of R in two edge lists) is formatted once."""

    def __init__(self, names: dict[str, str] | None = None):
        self.names = names or {}
        self.bits = np.empty(0, dtype=np.int64)
        self.texts = np.empty(0, dtype=object)

    def _format(self, values) -> list[str]:
        reprs = list(map(float.__repr__, values))
        return list(map(self.names.get, reprs, reprs)) if self.names else reprs

    def __call__(self, values) -> list[str]:
        """Text of each item of a flat sequence of floats."""
        if len(values) < _DEDUP_MIN:
            return self._format(values)
        bits = np.asarray(values, dtype=np.float64).view(np.int64)
        distinct, where = np.unique(bits, return_inverse=True)
        at = np.minimum(np.searchsorted(self.bits, distinct), len(self.bits) - 1)
        known = self.bits[at] == distinct if len(self.bits) else np.zeros(len(distinct), bool)
        texts = np.empty(len(distinct), dtype=object)
        texts[known] = self.texts[at[known]]
        new = distinct[~known]
        if len(new):
            texts[~known] = self._format(new.view(np.float64).tolist())
            merged = np.concatenate((self.bits, new))
            order = np.argsort(merged, kind="stable")
            self.bits = merged[order]
            self.texts = np.concatenate((self.texts, texts[~known]))[order]
        return texts[where].tolist()


def _scalar(o) -> str | None:
    """JSON text of a scalar, as json writes it; None for anything else."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NON_FINITE.get(text, text)
    return None


def _key(key) -> str:
    text = key if isinstance(key, str) else _scalar(key)
    if text is None:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
        )
    return _encode_str(text)


def _rows_text(columns: list[list[str]], level: int) -> str:
    """Text of a list at ``level`` whose rows hold one cell of each column."""
    width = len(columns)
    outer = "\n" + "  " * (level + 1)
    inner = outer + "  "
    parts = ["," + inner] * (2 * width * len(columns[0]))
    for k, column in enumerate(columns):
        parts[2 * k :: 2 * width] = column
    parts[2 * width - 1 :: 2 * width] = [outer + "]," + outer + "[" + inner] * len(columns[0])
    parts[0] = "[" + outer + "[" + inner + parts[0]
    parts[-1] = outer + "]\n" + "  " * level + "]"
    return "".join(parts)


class _Writer:
    """One document's text; floats share one ``FloatTexts``."""

    def __init__(self):
        self.floats = FloatTexts(_NON_FINITE)

    def scalars(self, values) -> list[str] | None:
        """JSON text of each item of a sequence of plain scalars, else None."""
        kinds = set(map(type, values))
        if kinds == {float}:
            return self.floats(values)
        if kinds == {int}:
            return list(map(int.__repr__, values))
        if kinds <= _SCALAR_TYPES:
            return list(map(_scalar, values))
        return None

    def columns(self, rows) -> list[list[str]] | None:
        """JSON text of every cell of a list of equal-length, nonempty lists
        of plain scalars, column by column; None for any other list."""
        if not set(map(type, rows)) <= {list, tuple}:
            return None
        widths = set(map(len, rows))
        if len(widths) != 1 or 0 in widths:
            return None
        (width,) = widths
        if set(map(type, rows[0])) == {float}:
            flat = list(chain.from_iterable(rows))
            if set(map(type, flat)) == {float}:
                cells = self.floats(flat)
                return [cells[k::width] for k in range(width)]
        columns = [self.scalars(col) for col in zip(*rows)]
        return None if None in columns else columns

    def text(self, o, level: int) -> str:
        """JSON text of ``o``, whose closing bracket is indented by ``level``."""
        text = _scalar(o)
        if text is not None:
            return text
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            columns = self.columns(o)
            if columns is not None:
                return _rows_text(columns, level)
            brackets = "[]"
            items = self.scalars(o) or [self.text(v, level + 1) for v in o]
        elif isinstance(o, dict):
            if not o:
                return "{}"
            brackets = "{}"
            items = [_key(k) + ": " + self.text(v, level + 1) for k, v in sorted(o.items())]
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        inner = "\n" + "  " * (level + 1)
        body = ("," + inner).join(items)
        return f"{brackets[0]}{inner}{body}\n{'  ' * level}{brackets[1]}"


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte."""
    return _Writer().text(doc, 0)
