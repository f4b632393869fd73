"""JSON text of the command line documents, as a list of chunks.

``dumps(doc)`` returns exactly the text of ``json.dumps(doc, indent=2,
sort_keys=True, default=plain)``, non-finite floats included (``NaN``,
``Infinity``).  A document may hold, besides plain JSON values, 1-D and
2-D float64 arrays and graphs (``graphs.WeightedGraph``, forests
included); ``plain`` maps them to the lists they are written as: an array
to ``.tolist()``, a graph to its (i, j, weight) triples.  The standard
library writes indented JSON with its pure-Python encoder, one generator
step per value.  Here ``chunks(doc)`` builds the text once, as one list of
per-value chunks that a file's ``writelines`` takes as it is and that
``dumps`` joins: a scalar, a key with its ``": "``, a separator or a
bracket is one chunk, and so is an array or a graph (a vector's brackets
apart), formatted once on its row-major values and laid out with one
``join``.  No chunk is copied into its parent's text, so the largest
transient string is the largest array's text, not the document.  A graph
is written from its ``dim``, ``rows``, ``cols`` and ``weights`` arrays,
its vertex texts taken from a table of the ``dim`` vertex numbers.  A
float is written as ``float.__repr__`` writes it, once per distinct IEEE
bit pattern in the document, and an int as ``int.__repr__`` writes it;
keys and strings go through json's C string encoder.  Lists, tuples and
dicts take the value-by-value path, which follows
``json.encoder._make_iterencode``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .graphs import WeightedGraph

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


def _is_float_array(o) -> bool:
    return isinstance(o, np.ndarray) and o.dtype == np.float64 and o.ndim in (1, 2)


def plain(o):
    """The plain JSON value ``dumps`` writes for an array or a graph (the
    ``default`` hook of ``json.dumps``); TypeError for anything else."""
    if _is_float_array(o):
        return o.tolist()
    if isinstance(o, WeightedGraph):
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


def _rows_text(cells: list[str], width: int, level: int) -> str:
    """Text of a nonempty list at ``level`` of rows of ``width`` cells, the
    cells given row after row."""
    outer = "\n" + "  " * (level + 1)
    inner = outer + "  "
    parts = ["," + inner] * (2 * len(cells))
    parts[::2] = cells
    # parts holds the cells now; a caller that kept no reference frees the
    # list here rather than after the join
    del cells
    rows = len(parts) // (2 * width)
    parts[2 * width - 1 :: 2 * width] = [outer + "]," + outer + "[" + inner] * rows
    parts[0] = "[" + outer + "[" + inner + parts[0]
    parts[-1] = outer + "]\n" + "  " * level + "]"
    return "".join(parts)


class _Writer:
    """One document's text as a list of chunks; floats share one
    ``FloatTexts``.  A scalar, a key with its ``": "``, a separator and a
    bracket are each a chunk.  The text of a matrix or a graph is one
    chunk, and so are a vector's items between its brackets; no chunk is
    ever joined into another."""

    def __init__(self):
        self.floats = FloatTexts(_NON_FINITE)
        self.chunks: list[str] = []

    def array(self, a: np.ndarray, level: int) -> None:
        if a.size == 0:
            self.write(a.tolist(), level)
            return
        if a.ndim == 2:
            self.chunks.append(_rows_text(self.floats(a.ravel()), a.shape[1], level))
            return
        inner = "\n" + "  " * (level + 1)
        items = ("," + inner).join(self.floats(a.ravel()))
        self.chunks += ["[" + inner, items, "\n" + "  " * level + "]"]

    def graph(self, g: WeightedGraph, level: int) -> None:
        if not len(g.weights):
            self.chunks.append("[]")
            return
        vertices = np.array(list(map(int.__repr__, range(g.dim))), dtype=object)
        cells = [""] * (3 * len(g.weights))
        cells[0::3] = vertices[g.rows].tolist()
        cells[1::3] = vertices[g.cols].tolist()
        cells[2::3] = self.floats(g.weights)
        self.chunks.append(_rows_text(cells, 3, level))

    def write(self, o, level: int) -> None:
        """Append the chunks of ``o``, whose closing bracket is indented by
        ``level``."""
        text = _scalar(o)
        if text is not None:
            self.chunks.append(text)
        elif _is_float_array(o):
            self.array(o, level)
        elif isinstance(o, WeightedGraph):
            self.graph(o, level)
        elif isinstance(o, (list, tuple, dict)):
            self.container(o, level)
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    def container(self, o, level: int) -> None:
        """A list, a tuple or (keys sorted) a dict, as
        ``json.encoder._make_iterencode`` lays it out."""
        is_dict = isinstance(o, dict)
        if not o:
            self.chunks.append("{}" if is_dict else "[]")
            return
        inner = "\n" + "  " * (level + 1)
        separator = "," + inner
        self.chunks.append(("{" if is_dict else "[") + inner)
        items = sorted(o.items()) if is_dict else enumerate(o)
        for n, (key, value) in enumerate(items):
            if n:
                self.chunks.append(separator)
            if is_dict:
                self.chunks.append(_key(key) + ": ")
            self.write(value, level + 1)
        self.chunks.append("\n" + "  " * level + ("}" if is_dict else "]"))


def chunks(doc) -> list[str]:
    """The text of ``dumps(doc)`` as the list of its chunks, for
    ``writelines``; TypeError, before any text is returned, when ``doc``
    holds a value that cannot be written."""
    writer = _Writer()
    writer.write(doc, 0)
    return writer.chunks


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, default=plain)``, byte for byte."""
    return "".join(chunks(doc))
