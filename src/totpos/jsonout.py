"""JSON text of the command line documents, block by block.

``dumps(doc)`` returns exactly the text of ``json.dumps(doc, indent=2,
sort_keys=True, default=plain)``, non-finite floats included (``NaN``,
``Infinity``).  A document may hold, besides plain JSON values, 1-D and
2-D float64 arrays and ``EdgeTable`` values; ``plain`` maps them to the
lists they are written as: an array to ``.tolist()``, an edge table to its
(i, j, weight) triples.  The standard library writes indented JSON with its
pure-Python encoder, one generator step per value.  Here an array is
formatted once on its row-major values and laid out with one ``join``, and
an edge table takes its vertex texts from a table of the ``dim`` vertex
numbers.  A float is written as ``float.__repr__`` writes it, once per
distinct IEEE bit pattern in the document, and an int as ``int.__repr__``
writes it; keys and strings go through json's C string encoder.  Lists,
tuples and dicts take the value-by-value path, which follows
``json.encoder._make_iterencode``.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
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


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Edges of a graph on vertices 0..dim-1 as parallel arrays: integer
    ``rows`` and ``cols`` in range and float64 ``weights``.  Written as the
    list of (rows[k], cols[k], weights[k]) triples."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)


def _is_float_array(o) -> bool:
    return isinstance(o, np.ndarray) and o.dtype == np.float64 and o.ndim in (1, 2)


def plain(o):
    """The plain JSON value ``dumps`` writes for an array or an edge table
    (the ``default`` hook of ``json.dumps``); TypeError for anything else."""
    if _is_float_array(o):
        return o.tolist()
    if isinstance(o, EdgeTable):
        return list(zip(o.rows.tolist(), o.cols.tolist(), o.weights.tolist()))
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


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


def _block(items: list[str], level: int, brackets: str = "[]") -> str:
    """Text of a nonempty list (or, with ``brackets`` "{}", a dict) at
    ``level`` whose items have the texts ``items``."""
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


def _rows_text(cells: list[str], width: int, level: int) -> str:
    """Text of a nonempty list at ``level`` of rows of ``width`` cells, the
    cells given row after row."""
    outer = "\n" + "  " * (level + 1)
    inner = outer + "  "
    parts = ["," + inner] * (2 * len(cells))
    parts[::2] = cells
    parts[2 * width - 1 :: 2 * width] = [outer + "]," + outer + "[" + inner] * (len(cells) // width)
    parts[0] = "[" + outer + "[" + inner + parts[0]
    parts[-1] = outer + "]\n" + "  " * level + "]"
    return "".join(parts)


class _Writer:
    """One document's text; floats share one ``FloatTexts``."""

    def __init__(self):
        self.floats = FloatTexts(_NON_FINITE)

    def array(self, a: np.ndarray, level: int) -> str:
        if a.size == 0:
            return self.text(a.tolist(), level)
        cells = self.floats(a.ravel())
        if a.ndim == 1:
            return _block(cells, level)
        return _rows_text(cells, a.shape[1], level)

    def edge_table(self, t: EdgeTable, level: int) -> str:
        if not len(t):
            return "[]"
        vertices = np.array(list(map(int.__repr__, range(t.dim))), dtype=object)
        cells = [""] * (3 * len(t))
        cells[0::3] = vertices[t.rows].tolist()
        cells[1::3] = vertices[t.cols].tolist()
        cells[2::3] = self.floats(t.weights)
        return _rows_text(cells, 3, level)

    def text(self, o, level: int) -> str:
        """JSON text of ``o``, whose closing bracket is indented by ``level``."""
        text = _scalar(o)
        if text is not None:
            return text
        if _is_float_array(o):
            return self.array(o, level)
        if isinstance(o, EdgeTable):
            return self.edge_table(o, level)
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            return _block([self.text(v, level + 1) for v in o], level)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [_key(k) + ": " + self.text(v, level + 1) for k, v in sorted(o.items())]
            return _block(items, level, "{}")
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, default=plain)``, byte for byte."""
    return _Writer().text(doc, 0)
