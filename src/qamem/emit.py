"""Text output: every float is printed with 17 significant digits, enough
to round-trip a double, in both JSON and CSV."""
from __future__ import annotations

import csv
import io


def format_float(x: float) -> str:
    return format(x, ".17g")


def emit_json(obj, indent: int = 0) -> str:
    """Minimal JSON emitter printing floats with 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{key}": {emit_json(value, indent + 1)}'
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + emit_json(value, indent + 1) for value in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def csv_text(header, rows) -> str:
    """CSV with a header line; floats get 17 digits, ints and strings pass as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [format_float(v) if isinstance(v, float) else v for v in row] for row in rows
    )
    return buf.getvalue()
