"""Text output: every float is printed with 17 significant digits, enough
to round-trip a double, in both JSON and CSV."""
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
    # subclasses of the scalar types, such as numpy floats, and other objects
    elif isinstance(obj, float):
        append(format_float(obj))
    elif isinstance(obj, int):
        append(str(obj))
    else:
        append(_string(obj))


def csv_text(header, rows) -> str:
    """CSV with a header line; floats get 17 digits, ints and strings pass as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [format_float(v) if isinstance(v, float) else v for v in row] for row in rows
    )
    return buf.getvalue()
