import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qamem.emit import emit_json


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
