import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qamem.emit import Table, emit_json


def _string(obj) -> str:
    return json.dumps(str(obj), ensure_ascii=False)


_SCALARS = {
    float: lambda x: format(x, ".17g"),
    int: str,
    str: _string,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda obj: "null",
}


def recursive_emit_json(obj, indent: int = 0) -> str:
    """The emitter as it was before it wrote to one buffer: one string built
    and joined per container.  The oracle for :func:`emit_json`."""
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
            f"{_string(key)}: "
            + (t(v) if (t := get(type(v))) is not None else recursive_emit_json(v, indent + 1))
            for key, v in obj.items()
        ]
        return "{\n" + pad + "  " + sep.join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [
            t(v) if (t := get(type(v))) is not None else recursive_emit_json(v, indent + 1)
            for v in obj
        ]
        return "[\n" + pad + "  " + sep.join(items) + "\n" + pad + "]"
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    return _string(obj)


text = st.text(st.sampled_from('ab01 "\\\né'), max_size=6)
scalars = (
    st.booleans()
    | st.none()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.floats().map(np.float64)
    | text
)
documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(text, children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(doc=documents)
@example(doc={"a": [], "b": {}, "c": (), "d": [{}, [[]], ({"x": ()},)]})
@example(doc=[np.float64(0.1), True, None, 'say "\\"', {'k"\\': 1.5}])
@example(doc=np.float64(1 / 3))
def test_same_text_as_recursive_emitter(doc):
    assert emit_json(doc) == recursive_emit_json(doc)


json_documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(doc=json_documents)
@example(doc={'k"': 1, "s": "a\nb", "\x00\x1f\\": ["\t", "\u2028", "\x7f"]})
def test_output_is_json(doc):
    """Any string key or value, and any finite float, reads back as itself."""
    assert json.loads(emit_json(doc)) == doc


table_keys = st.text(st.sampled_from('ab%s"\\\n\x00\x1fé'), max_size=4)
# one exact type per column takes the one-format path; the rest fall back
columns = st.sampled_from([
    st.floats(),
    st.integers(-(2**70), 2**70),
    text,
    st.booleans(),
    st.none(),
    st.floats().map(np.float64),
    scalars,
])


@st.composite
def tables(draw):
    keys = draw(st.lists(table_keys, unique=True, max_size=4))
    size = draw(st.integers(0, 5))
    values = [draw(st.lists(draw(columns), min_size=size, max_size=size)) for _ in keys]
    return Table(keys, list(zip(*values)) if keys else [()] * size)


def as_dicts(table):
    return [dict(zip(table.keys, row)) for row in table.rows]


@settings(max_examples=400, deadline=None)
@given(table=tables())
@example(table=Table([], []))
@example(table=Table(["p"], [("only",)]))
@example(table=Table(["%", "%s", "%%d"], [(1.5, "%s", 2**70)]))
@example(
    table=Table(
        ['k"\\', "\x00\x1f%", "s"],
        [
            (float("nan"), -(2**64) - 1, 'say "\\"\n'),
            (float("inf"), 2**63, "\t\u2028é"),
            (float("-inf"), 0, "%d%%"),
            (-0.0, -1, ""),
            (5e-324, 7, "x"),
            (2.2250738585072009e-308, 2**64, "y"),
        ],
    )
)
@example(table=Table(["a", "b"], [(True, np.float64(0.1)), (False, None)]))
@example(table=Table(["a"], [(1.0,), (1,)]))
@example(table=Table(["a", "b"], [(1.0, 2.0, 3.0), (4.0, 5.0)]))  # rows as zip reads them
@example(table=Table(["a", "b"], [(1.0, 2.0), (4.0,)]))
@example(table=Table([], [(1.0,), ()]))
def test_table_same_text_as_its_dicts(table):
    """A table is written as the list of dicts it stands for, at the top
    level and nested in a dict and a list."""
    assert emit_json(table) == recursive_emit_json(as_dicts(table))
    doc = {"t": table, "n": [1, table]}
    assert emit_json(doc) == recursive_emit_json({"t": as_dicts(table), "n": [1, as_dicts(table)]})


def test_table_keys_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        Table(["a", "b", "a"], [(1, 2, 3)])
