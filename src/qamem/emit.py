"""Text output: every float is printed with 17 significant digits, enough
to round-trip a double, in both JSON and CSV.  A JSON document is a flat
dict of scalars of the exact types in ``_SCALARS`` and of :class:`Table`
lists of objects, given column by column with one exact type per column."""
from __future__ import annotations

import csv
import io
from json.encoder import encode_basestring


def format_float(x: float) -> str:
    return format(x, ".17g")


#: text of each scalar field, looked up by exact type
_SCALARS = {
    float: format_float,
    int: str,
    str: encode_basestring,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda obj: "null",
}

#: the format slot of each exact column type
_SLOTS = {float: "%.17g", int: "%s", str: "%s"}


class Table:
    """A list of JSON objects, object i being ``{key: column[i] for key,
    column in zip(keys, columns)}``: distinct string ``keys`` and one
    sequence of values per key, all of one length, in ``columns``."""

    __slots__ = ("keys", "columns")

    def __init__(self, keys, columns):
        keys, columns = tuple(keys), tuple(columns)
        if len(set(keys)) != len(keys):
            raise ValueError(f"table keys must be distinct, got {keys!r}")
        if len(columns) != len(keys):
            raise ValueError(f"table has {len(keys)} keys but {len(columns)} columns")
        self.keys, self.columns = keys, columns


def emit_json(doc: dict) -> str:
    """The JSON text of ``doc``, a flat dict of ``str`` keys whose values
    are scalars of the exact types in ``_SCALARS`` or tables; any
    other document, value or column raises ``TypeError``.  Keys and strings
    are escaped as ``json.dumps`` escapes them, and the pieces of text are
    joined once."""
    if type(doc) is not dict:
        raise TypeError(f"a JSON document is a dict, not {type(doc).__name__}")
    if not doc:
        return "{}"
    parts, lead = [], "{\n  "
    for key, value in doc.items():
        if (text := _SCALARS.get(type(value))) is not None:
            parts.append(f"{lead}{encode_basestring(key)}: {text(value)}")
        elif type(value) is Table:
            parts.append(f"{lead}{encode_basestring(key)}: ")
            parts.append(_table_text(value))
        else:
            raise TypeError(f"field {key!r} is a {type(value).__name__}, not a scalar or a Table")
        lead = ",\n  "
    parts.append("\n}")
    return "".join(parts)


def _table_text(table: Table) -> str:
    """The text of ``table`` as a field value: one ``%`` format, over the
    values in row order with strings escaped first, of a template that
    repeats one row's text per row; ``[]`` when it has no rows."""
    keys, columns = table.keys, table.columns
    size = len(columns[0]) if columns else 0
    if not size:
        return "[]"
    width, fields = len(keys), []
    values = [None] * (width * size)
    for j, (key, column) in enumerate(zip(keys, columns)):
        if len(column) != size:
            raise ValueError(f"column {key!r} has {len(column)} values, not {size}")
        kind = type(column[0])
        if kind not in _SLOTS or [*map(type, column)].count(kind) != size:
            raise TypeError(f"column {key!r} is not all float, all int or all str")
        values[j::width] = map(encode_basestring, column) if kind is str else column
        fields.append("\n      " + encode_basestring(key).replace("%", "%%") + ": " + _SLOTS[kind])
    row = "{" + ",".join(fields) + "\n    }"
    return ("[\n    " + (row + ",\n    ") * (size - 1) + row + "\n  ]") % tuple(values)


def csv_text(header, rows) -> str:
    """CSV with a header line; floats get 17 digits, ints and strings pass as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [format_float(v) if isinstance(v, float) else v for v in row] for row in rows
    )
    return buf.getvalue()
