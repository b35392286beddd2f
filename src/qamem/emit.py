"""Text output: every float is printed with 17 significant digits, enough
to round-trip a double, in both JSON and CSV.  A :class:`Table` is a list
of JSON objects given as one key order and one tuple of values per object;
the JSON emitter writes the columns of one exact type with one format."""
from __future__ import annotations

import csv
import io
from json.encoder import encode_basestring


def format_float(x: float) -> str:
    return format(x, ".17g")


def _string(obj) -> str:
    """JSON string of ``str(obj)``: quotes, backslashes and control
    characters escaped, as ``json.dumps(..., ensure_ascii=False)`` does."""
    return encode_basestring(str(obj))


#: text of each scalar type, looked up by exact type
_SCALARS = {
    float: format_float,
    int: str,
    str: encode_basestring,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda obj: "null",
}


class Table:
    """A list of JSON objects that share one key order: ``keys`` and one
    tuple of values per object in ``rows``, in key order.

    :func:`emit_json` writes it as it writes the list
    ``[dict(zip(keys, row)) for row in rows]``.  The keys must be distinct
    strings, as dict keys are, and every row should hold one value per key.
    """

    __slots__ = ("keys", "rows")

    def __init__(self, keys, rows):
        keys = tuple(keys)
        if len(set(keys)) != len(keys):
            raise ValueError(f"table keys must be distinct, got {keys!r}")
        self.keys, self.rows = keys, rows


#: the format slot of each exact column type a table writes with one format
_SLOTS = {float: "%.17g", int: "%s", str: "%s"}


def emit_json(obj) -> str:
    """Minimal JSON emitter printing floats with 17 significant digits.

    The text is appended piece by piece to one list, joined once at the
    end.  Scalars of the exact types in ``_SCALARS`` take one table lookup,
    also as the items of a container, which recurse only into containers.
    Dict keys must be ``str``; they and string values are escaped as
    ``json.dumps`` escapes them.
    """
    text = _SCALARS.get(type(obj))
    if text is not None:
        return text(obj)
    parts: list[str] = []
    _emit(obj, "\n", parts)
    return "".join(parts)


def _emit(obj, newline: str, parts: list[str]) -> None:
    """Append the text of ``obj``, of no exact type in ``_SCALARS``, to
    ``parts``; ``newline`` starts a line at the indent of ``obj`` itself."""
    get, append, encode = _SCALARS.get, parts.append, encode_basestring
    if isinstance(obj, dict):
        if not obj:
            append("{}")
            return
        inner = newline + "  "
        lead, sep = "{" + inner, "," + inner
        for key, v in obj.items():
            if (t := get(type(v))) is not None:
                append(f"{lead}{encode(key)}: {t(v)}")
            else:
                append(f"{lead}{encode(key)}: ")
                _emit(v, inner, parts)
            lead = sep
        append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            append("[]")
            return
        inner = newline + "  "
        lead, sep = "[" + inner, "," + inner
        for v in obj:
            if (t := get(type(v))) is not None:
                append(lead + t(v))
            else:
                append(lead)
                _emit(v, inner, parts)
            lead = sep
        append(newline + "]")
    elif isinstance(obj, Table):
        _emit_table(obj, newline, parts)
    # subclasses of the scalar types, such as numpy floats, and other objects
    elif isinstance(obj, float):
        append(format_float(obj))
    elif isinstance(obj, int):
        append(str(obj))
    else:
        append(_string(obj))


def _emit_table(table: Table, newline: str, parts: list[str]) -> None:
    """Append the text of ``table`` to ``parts``.

    When every column holds values of one exact type in ``_SLOTS``, the
    text is one ``%`` format, over the values in row order with strings
    escaped first, of a template that repeats one row's text per row.  Any
    other table is written as the list of dicts it stands for.
    """
    keys, rows = table.keys, table.rows
    width, inner = len(keys), newline + "  "
    values = [None] * (width * len(rows))
    fields = []
    # zip stops at the shortest row, as dict(zip(keys, row)) does
    for j, (key, column) in enumerate(zip(keys, zip(*rows))):
        kind = type(column[0])
        if kind not in _SLOTS or [*map(type, column)].count(kind) != len(column):
            break
        values[j::width] = map(encode_basestring, column) if kind is str else column
        fields.append(inner + "  " + encode_basestring(key).replace("%", "%%") + ": " + _SLOTS[kind])
    if not fields or len(fields) != width:  # no rows or keys, or a column of another type
        _emit([dict(zip(keys, row)) for row in rows], newline, parts)
        return
    row = "{" + ",".join(fields) + inner + "}"
    template = "[" + inner + (row + "," + inner) * (len(rows) - 1) + row + newline + "]"
    parts.append(template % tuple(values))


def csv_text(header, rows) -> str:
    """CSV with a header line; floats get 17 digits, ints and strings pass as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [format_float(v) if isinstance(v, float) else v for v in row] for row in rows
    )
    return buf.getvalue()
