"""Text output: every float is printed with 17 significant digits, enough
to round-trip a double, in both JSON and CSV."""
from __future__ import annotations

import csv
import io


def format_float(x: float) -> str:
    return format(x, ".17g")


def _string(obj) -> str:
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


#: text of each scalar type, looked up by exact type
_SCALARS = {
    float: format_float,
    int: str,
    str: _string,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda obj: "null",
}


def emit_json(obj, indent: int = 0) -> str:
    """Minimal JSON emitter printing floats with 17 significant digits.

    Scalars of the exact types in ``_SCALARS`` take one table lookup, also
    as the items of a container, which recurse only into containers.
    """
    get = _SCALARS.get
    text = get(type(obj))
    if text is not None:
        return text(obj)
    pad = "  " * indent
    sep = ",\n" + pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'"{key}": '
            + (t(v) if (t := get(type(v))) is not None else emit_json(v, indent + 1))
            for key, v in obj.items()
        ]
        return "{\n" + pad + "  " + sep.join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [
            t(v) if (t := get(type(v))) is not None else emit_json(v, indent + 1)
            for v in obj
        ]
        return "[\n" + pad + "  " + sep.join(items) + "\n" + pad + "]"
    # subclasses of the scalar types, such as numpy floats, and other objects
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return _string(obj)


def csv_text(header, rows) -> str:
    """CSV with a header line; floats get 17 digits, ints and strings pass as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [format_float(v) if isinstance(v, float) else v for v in row] for row in rows
    )
    return buf.getvalue()
