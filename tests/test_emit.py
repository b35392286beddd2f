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
    and joined per container, for dicts, lists and exact scalars.  The
    oracle for :func:`emit_json`, given each table as its list of dicts."""
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
    if not obj:
        return "[]"
    items = [
        t(v) if (t := get(type(v))) is not None else recursive_emit_json(v, indent + 1)
        for v in obj
    ]
    return "[\n" + pad + "  " + sep.join(items) + "\n" + pad + "]"


def as_dicts(table):
    return [dict(zip(table.keys, row)) for row in zip(*table.columns)]


def plain(doc):
    """``doc`` with each table given as the list of dicts it stands for."""
    return {key: as_dicts(v) if type(v) is Table else v for key, v in doc.items()}


text = st.text(st.sampled_from('ab%s01 "\\\n\x00\x1f\u2028é'), max_size=6)
ints = st.integers(-(2**70), 2**70)


@st.composite
def tables(draw, floats=st.floats(), strings=text):
    """Tables of up to 5 rows whose columns each hold one of float, int and str."""
    keys = draw(st.lists(strings, unique=True, max_size=4))
    size = draw(st.integers(0, 5))
    kinds = st.sampled_from([floats, ints, strings])
    return Table(keys, [draw(st.lists(draw(kinds), min_size=size, max_size=size)) for _ in keys])


def documents(floats=st.floats(), strings=text):
    scalars = st.booleans() | st.none() | ints | floats | strings
    return st.dictionaries(strings, scalars | tables(floats, strings), max_size=5)


# a column of every awkward float, a large int column and a string column
EDGES = Table(
    ['k"\\', "\x00\x1f%", "s"],
    [
        [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.2250738585072009e-308],
        [-(2**64) - 1, 2**63, 0, -1, 2**70, -(2**70)],
        ['say "\\"\n', "\t\u2028é", "%d%%", "", "x", "\x7f"],
    ],
)


@settings(max_examples=400, deadline=None)
@given(doc=documents())
@example(doc={})
@example(doc={"t": EDGES, "u": Table([], []), "v": Table(["a"], [[]])})
@example(
    doc={
        "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "z": -0.0,
        "tiny": 5e-324, "big": 2**70, "-big": -(2**70), "b": True, "f": False,
        "n": None, 'k"\\\n%s': 's"\\\x00\x1f',
    }
)
def test_same_text_as_recursive_emitter(doc):
    """A flat document is written as the oracle writes it, with each table
    as its list of dicts."""
    assert emit_json(doc) == recursive_emit_json(plain(doc))


@settings(max_examples=300, deadline=None)
@given(doc=documents(st.floats(allow_nan=False, allow_infinity=False), st.text()))
@example(doc={'k"': 1, "s": "a\nb", "\x00\x1f\\": "\u2028\x7f"})
@example(doc={"t": Table(["%", "%s"], [["\t", "\u2028"], [-0.0, 5e-324]])})
def test_output_is_json(doc):
    """Any string key or value, and any finite float, reads back as itself."""
    assert json.loads(emit_json(doc)) == plain(doc)


@settings(max_examples=400, deadline=None)
@given(table=tables())
@example(table=Table([], []))
@example(table=Table(["p"], [["only"]]))
@example(table=Table(["%", "%s", "%%d"], [[1.5], ["%s"], [2**70]]))
@example(table=EDGES)
def test_table_same_text_as_its_dicts(table):
    """A table field is written as the list of dicts it stands for, between
    scalar fields."""
    doc = {"a": 1, "t": table, "z": "%s"}
    assert emit_json(doc) == recursive_emit_json(plain(doc))


@pytest.mark.parametrize(
    "doc",
    [
        [1.0],
        {"a": [1.0]},
        {"a": (1.0,)},
        {"a": {"b": 1}},
        {"a": np.float64(0.5)},
        {"a": np.int64(1)},
        {"t": Table(["a"], [[1.0, 1]])},
        {"t": Table(["a"], [[True, False]])},
        {"t": Table(["a"], [[None]])},
        {"t": Table(["a"], [[np.float64(0.5)]])},
        {"t": Table(["a", "b"], [[1.0], [[1.0]]])},
    ],
)
def test_other_fields_and_columns_refused(doc):
    with pytest.raises(TypeError):
        emit_json(doc)


def test_table_keys_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        Table(["a", "b", "a"], [[1], [2], [3]])


@pytest.mark.parametrize(
    "keys, columns, match",
    [(["a", "b"], [[1.0]], "2 keys but 1 columns"), (["a", "b"], [[1.0], [2.0, 3.0]], "2 values, not 1")],
)
def test_table_shape_checked(keys, columns, match):
    with pytest.raises(ValueError, match=match):
        emit_json({"t": Table(keys, columns)})
