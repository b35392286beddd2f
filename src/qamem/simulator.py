"""Sparse statevector simulator over a laid-out multi-register qubit system.

A state holds its nonzero amplitudes as two parallel arrays: the
computational basis keys (qubit j at bit position j) and their
``complex128`` amplitudes.  The storage and retrieval circuits of this
package keep at most O(p) nonzero amplitudes, so memory scales with the
number of stored patterns rather than with 2^N.

Key width: keys are ``int64`` on layouts of up to 63 qubits, and an object
array of Python ints on wider layouts, so that no key or mask ever passes
bit 62 of a fixed-width integer.  The array kernels below run unchanged on
both key types:

* permutation gates (``NOT``, ``XOR``, ``TOFFOLI``, ``NXOR``) XOR the target
  bit into the keys whose controls match;
* the diagonal gate ``PHASE0`` multiplies the matching amplitudes;
* mixing gates (``H``, ``CS``, ``ROTY``) emit both target branches of the
  keys whose controls match, merge equal keys with one stable sort, and
  drop amplitudes below :data:`PRUNE_THRESHOLD`.  ``ROTY(0)`` is the
  identity: it stays in its circuit, so gate counts stay honest, and the
  kernel's program leaves it out.

A :class:`Circuit` is a gate table: one row per gate, held as five 1-D
columns, a kind code, the target mask, the control mask, the wanted-control
mask (the controls that must hold 1) and the parameter, the masks of the
layout's key dtype.  The builders in :mod:`qamem.memory` and
:mod:`qamem.retrieval` write whole tables of masks with numpy from a
pattern set's bit matrix, each on the layout it is given, through
:meth:`Circuit.from_masks`; ``inverse()`` reverses the rows and negates the
parameters.  :class:`Gate` is one row as an object and the view
:attr:`Circuit.gates` gives of one; a gate, a circuit built from gates and
a table of masks go through the same row check, :func:`_check_table`,
O(rows) over the masks: one target bit, controls clear of it and inside the
layout, wanted values inside the controls, and the parameter rules below.

The kernel runs a circuit on the ``(key_array, amp_array)`` pair from a
program derived, each time the circuit is applied, from the rows that
act, every row but a ``ROTY(0)`` of either sign of zero: each row's target
and control masks (the columns as Python ints), its one operand, where
each run of rows with one control condition ends, found by comparing
adjacent rows, the segments of permutation rows and the stretches of
quarter turns described below.  A ``PHASE0`` row's operand is its phase
``e^{i theta}``; a mixing row's is the form of its matrix: the two
columns as pairs of Python ``complex`` values and the underflow floor
described below, which the scalar path multiplies by and from which the
array step builds its 2x2 array.  Leaving an
identity row out joins the runs or segments on either side of it, which
gives the same keys in the same order.  :func:`apply` runs a one-gate
circuit and :func:`apply_circuit` a whole one, and only the final arrays
become a :class:`SparseState`.  When a controlled mixing gate meets a state
on which only some keys satisfy its controls, the kernel splits the keys
once, runs that gate and every following gate with the same controls (the
same ``cmask`` and ``cwant``) on the active keys with no control test, and
puts ``idle + active`` back together once at the end of the run.  No gate
targets one of its own controls, so the active keys stay active through the
run, and the idle keys end in front in their old order: the result is the
one gate-by-gate application gives, key order and amplitude bits included.

Outside the runs, a segment of two or more consecutive permutation rows in
which no row has a control that an earlier row of the segment targets
(``cmask[r] & (tmask[s] | ... | tmask[r - 1]) == 0``) runs as one step.
The earlier rows change only their target bits, so every control test of
the segment reads the keys the segment starts on, and the rows' flips XOR
together in any order: ``keys ^= XOR over r of (tmask[r] where (keys &
cmask[r]) == cwant[r])``, a target flipped twice (XOR then NOT on one qubit)
included.  Integer operations alone, with amplitudes and key order left as
they are: the keys are the ones row-by-row flipping gives, bit for bit.  A
segment of k rows on m keys runs so only while k * m is at most
:data:`FUSED_CELLS`, and otherwise row by row, so a large state allocates no
(k, m) temporaries.  The sequential loader's register compute and uncompute
blocks are such segments, and so are the retrieval rounds' dress and undress
blocks when the input sits in a register.

From a run that starts on exactly one active key, the kernel goes on with
Python ``int`` keys and ``complex`` amplitudes, which cost a fraction of the
ten or so numpy calls a row costs on small arrays.  It keeps the idle keys
the run split off as arrays and the tail, the one or two keys the rows act
on, as lists, and it follows the rows past the end of the run for as long as
each row provably leaves the idle keys alone, that is, its control
condition fails on every one of them: ``cwant`` is not in the set of the
idle keys' projections ``key & cmask``, built once per ``cmask`` on first
use.  At each later run's start, the tail keys that fail its condition
join an idle list in order, as the array loop's split puts them before the
active keys, and into every projection set built so far; a permutation row
past a run XORs the tail keys that meet its controls.  The path goes back
to the arrays with one concatenation (idle keys, idle list, tail), which
gives the arrays the array loop holds at that row, key order and dtype
included, before a ``PHASE0`` row, a mixing row on two keys, a row it cannot
prove idle, or, while idle keys exist, an uncontrolled row or the start of a
segment that runs as one XOR step.  The whole memory circuit runs on this
path: its stored branches hold both utility qubits at 0, which rules them
out of every row controlled on a utility qubit, and each block's NXOR wants
its own pattern, which no stored branch holds.  A mixing row on one tail
key leaves its branches in the order ``[low, low | t]``, and three rules
keep the amplitudes the array ones:

* a mixing row multiplies by its matrix entries as Python ``complex`` values
  with a zero imaginary part, the operands the array step hands numpy's
  loop.  Python and numpy then round every part alike unless a product
  underflows to zero, where a fused multiply-add may keep another sign; so a row whose
  amplitude has a nonzero part small enough for that (below
  ``float_info.min`` over the row's smallest nonzero entry) runs as the
  array step on one-element arrays;
* a ``PHASE0`` row goes back to the arrays: a product of two complex
  numbers with nonzero parts rounds differently in Python and in numpy;
* the prune decision is the one ``np.abs(a) >= PRUNE_THRESHOLD`` makes:
  ``abs()`` and ``np.abs`` may differ in the last bit, so a magnitude
  within a relative 1e-9 of the threshold is decided by ``np.abs``.

A quarter turn, ``ROTY(+-pi/2)``, on one tail key is a signed flip.  Its
matrix has the entries +-1 and cos(pi/2) = 6.1e-17 < 2**-53, so on an
amplitude of size at most :data:`_QUARTER_TOP` = ``PRUNE_THRESHOLD *
2**52`` the branch through cos(pi/2) is below ``PRUNE_THRESHOLD / 2`` and
pruned, and the other is ``amp * e`` on the key with its target flipped,
``e`` the +-1 entry of the key's column.  So from a quarter row on one key
the path runs the whole stretch of quarter rows in a row with that row's
control condition, whose size from each of them on the program holds, as
``amp = amp * e; key ^= t`` per row, after one check on entry: the amplitude has no
part below the underflow floor (the same for both signs), and ``abs(amp)``
is at least the top of the prune window and at most ``_QUARTER_TOP``.  That
check decides every row of the stretch as the row-by-row path would: a
product with ``+-1 + 0j`` changes each part of the amplitude in sign alone,
so every part keeps its size and ``abs(amp)`` its value.  The product is
the row path's own complex product, so a zero part takes the sign the row
path gives it.  The stretch's rows lie in the run the path is in, which
shares their condition, or are uncontrolled and met with no idle keys, and
none of them starts a run that could make one.

Marginals, post-selection and grouping read a section's value for all keys
at once from the layout's precomputed offsets.  ``state.amps`` is a
read-only ``{key: amplitude}`` mapping with Python ``int`` keys and
``complex`` values, built on first use; ``SparseState(layout, mapping)``
builds a state from such a mapping, whose keys must be integers in the layout.

Gate set (the kinds the circuits of :mod:`qamem.memory` and
:mod:`qamem.retrieval` are built from); every gate has one target and may
have controls:

* ``NOT``, ``H``, ``XOR`` (controlled NOT), ``TOFFOLI``, ``NXOR``
  (multi-controlled NOT, optionally with per-control polarities);
* ``CS(i)``: controlled real rotation with sin = 1/sqrt(i), i a nonzero
  integer (negative for the inverse);
* ``PHASE0(theta)``: diag(e^{i theta}, 1), phase on the |0> component,
  optionally controlled;
* ``ROTY(angle)``: real rotation [[cos, -sin], [sin, cos]], optionally
  controlled (ROTY(pi/2)|0> = |1>).

``CS``, ``PHASE0`` and ``ROTY`` take a finite real parameter (an integer
for ``CS``); the other kinds take none.  Any gate may carry a polarity, the
value each control must hold.
"""
from __future__ import annotations

import cmath
import math
import numbers
import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType

import numpy as np

PRUNE_THRESHOLD = 1e-12
#: least probability :func:`postselect` projects onto; a smaller one is 0
POSTSELECT_FLOOR = 1e-15
#: magnitudes that abs() puts here are pruned or kept as np.abs decides
_PRUNE_WINDOW = (PRUNE_THRESHOLD * (1 - 1e-9), PRUNE_THRESHOLD * (1 + 1e-9))
#: largest magnitude on which a stretch of quarter turns runs as signed
#: flips: times cos(pi/2) < 2**-53 it stays below PRUNE_THRESHOLD / 2
_QUARTER_TOP = PRUNE_THRESHOLD * 2.0**52

#: widest layout whose keys fit an int64 without touching the sign bit
INT64_KEY_QUBITS = 63
#: a segment of k permutation rows on m keys runs as one step only while
#: k * m is at most this, which bounds its (k, m) temporaries to 512 KiB
FUSED_CELLS = 1 << 16

#: gate kinds in code order; a circuit's ``kind`` column holds the codes
KINDS = ("NOT", "XOR", "TOFFOLI", "NXOR", "PHASE0", "H", "CS", "ROTY")
KIND = {name: code for code, name in enumerate(KINDS)}
# codes up to _NXOR are permutations, codes from _H on mix their target
_NXOR, _PHASE0, _H, _CS, _ROTY = (KIND[k] for k in ("NXOR", "PHASE0", "H", "CS", "ROTY"))
_PARAM_CODES = (_PHASE0, _CS, _ROTY)


class SimulatorError(ValueError):
    """Invalid gate, layout or state."""


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named sections of a qubit register file."""

    sections: tuple[tuple[str, int], ...]
    # derived: name -> (offset, width), the qubit count and the key dtype
    spans: dict = field(init=False, repr=False, compare=False)
    total: int = field(init=False, repr=False, compare=False)
    key_dtype: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [name for name, _ in self.sections]
        if len(set(names)) != len(names):
            raise SimulatorError("duplicate section names")
        if not all(isinstance(w, numbers.Integral) for _, w in self.sections):
            raise SimulatorError("section widths must be integers")
        if any(w < 0 for _, w in self.sections):
            raise SimulatorError("section widths must be >= 0")
        spans, off = {}, 0
        for name, w in self.sections:
            spans[name] = (off, w)
            off += w
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "total", off)
        object.__setattr__(
            self, "key_dtype", np.dtype(np.int64 if off <= INT64_KEY_QUBITS else object)
        )

    def _span(self, name: str) -> tuple[int, int]:
        try:
            return self.spans[name]
        except KeyError:
            raise SimulatorError(f"no section named {name!r}") from None

    def offset(self, name: str) -> int:
        return self._span(name)[0]

    def width(self, name: str) -> int:
        return self._span(name)[1]

    def qubits(self, name: str) -> range:
        off, w = self._span(name)
        return range(off, off + w)

    def masks(self, name: str):
        """The one-bit masks of a section's qubits, in order, as an array of
        the key dtype."""
        return np.left_shift(np.ones(self.width(name), dtype=self.key_dtype), self.qubits(name))


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: the public constructor and validator of a circuit row.

    ``polarity`` gives the value each control must hold, all ones when
    None.  Construction checks the gate's masks with the check a gate table
    goes through (see the module docstring) and keeps the qubits as the
    masks hold them: Python ints, the controls in ascending order, each
    with its polarity as a 0/1 int.  So a gate equals the gate that
    :attr:`Circuit.gates` reads back from its row, and two gates that list
    the same controls in another order are equal.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    param: float | int | None = None
    polarity: tuple[int, ...] | None = None

    def __post_init__(self):
        columns = _gate_columns((self,))
        _check_table(None, *columns)
        target, controls, polarity = _indices(*(m.item() for m in columns[1:4]))
        object.__setattr__(self, "targets", (target,))
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "polarity", polarity)

    @classmethod
    def _checked_row(cls, kind, targets, controls, param, polarity) -> "Gate":
        """The gate of a table row that has passed the row check, built
        without checking it again."""
        gate = object.__new__(cls)
        object.__setattr__(gate, "kind", kind)
        object.__setattr__(gate, "targets", targets)
        object.__setattr__(gate, "controls", controls)
        object.__setattr__(gate, "param", param)
        object.__setattr__(gate, "polarity", polarity)
        return gate

    def inverse(self) -> "Gate":
        if self.param is None:
            return self  # NOT, H, XOR, TOFFOLI and NXOR
        # CS^i, PHASE0 and ROTY invert by negating the parameter
        return Gate(self.kind, self.targets, self.controls, -self.param, self.polarity)

    def dump(self) -> str:
        param = "" if self.param is None else f"({self.param:g})"
        ctrl = ",".join(str(c) for c in self.controls)
        tgt = ",".join(str(t) for t in self.targets)
        return f"{self.kind}{param} {ctrl} -> {tgt}"


def _gate_row(gate: Gate):
    """A gate's fields as one row: (kind code, (target, control, wanted)
    masks as Python ints, parameter, whether a parameter was given).

    This checks what the masks cannot show: the kind name, that the
    indices are distinct non-negative integers, and the shape of targets,
    controls and polarity.  A parameter of the wrong type becomes NaN,
    which :func:`_check_table` refuses.
    """
    code = KIND.get(gate.kind)
    if code is None:
        raise SimulatorError(f"unknown gate kind {gate.kind!r}")
    try:
        qubits = [operator.index(q) for q in (*gate.targets, *gate.controls)]
    except TypeError:
        raise SimulatorError(f"qubit indices must be integers in {gate}") from None
    if any(q < 0 for q in qubits):
        raise SimulatorError(f"negative qubit index in {gate}")
    if len(gate.targets) != 1:
        raise SimulatorError(f"{gate.kind} takes exactly one target")
    polarity = [1] * len(gate.controls)
    if gate.polarity is not None:
        if len(gate.polarity) != len(gate.controls):
            raise SimulatorError("polarity length must match controls")
        polarity = [1 if v else 0 for v in gate.polarity]
    if len(set(qubits)) < len(qubits):
        raise SimulatorError("overlapping target/control indices")
    target, *controls = qubits
    cmask = sum(1 << c for c in controls)
    cwant = sum(v << c for c, v in zip(controls, polarity))
    param = gate.param
    value = math.nan
    if isinstance(param, numbers.Integral if code == _CS else numbers.Real):
        try:
            value = float(param)
        except OverflowError:
            value = math.inf
    return code, (1 << target, cmask, cwant), value, param is not None


def _gate_columns(gates, layout: RegisterLayout | None = None):
    """Table columns (kind, tmask, cmask, cwant, param, given) of gates.
    The masks take the layout's key dtype, or Python ints without a layout
    or when a qubit lies past it, for the range check to name it."""
    rows = [_gate_row(g) for g in gates]
    top = max(((t | c).bit_length() for _, (t, c, _), _, _ in rows), default=0)
    dtype = np.dtype(object) if layout is None or top > layout.total else layout.key_dtype
    return (
        np.array([r[0] for r in rows], dtype=np.int8),
        *(np.array([r[1][i] for r in rows], dtype=dtype) for i in range(3)),
        np.array([r[2] for r in rows], dtype=np.float64),
        np.array([r[3] for r in rows], dtype=bool),
    )


def _indices(tmask: int, cmask: int, cwant: int):
    """The target, the controls (ascending) and their polarity of a row's
    masks."""
    controls, rest = [], cmask
    while rest:
        low = rest & -rest
        controls.append(low.bit_length() - 1)
        rest ^= low
    return tmask.bit_length() - 1, tuple(controls), tuple((cwant >> c) & 1 for c in controls)


def _row_gate(code: int, tmask: int, cmask: int, cwant: int, value: float) -> Gate:
    """The :class:`Gate` view of a checked table row."""
    target, controls, polarity = _indices(tmask, cmask, cwant)
    param = None
    if code in _PARAM_CODES:
        param = int(value) if code == _CS else value
    return Gate._checked_row(KINDS[code], (target,), controls, param, polarity)


def _check_table(total, kind, tmask, cmask, cwant, param, given=None):
    """The one validity check of gate rows, O(rows) over the mask columns.

    Each row's target mask is a single bit and its control mask is clear
    of it; the wanted values lie inside the control mask.  ``given`` marks
    the rows that were given a parameter (default: the non-NaN ones; a
    parameter of the wrong type arrives as NaN): CS, PHASE0 and ROTY have a
    finite real parameter, CS a nonzero integer one, and the other kinds
    have none.  With ``total`` set, every mask lies in qubits 0..total - 1;
    the error names the first row past it by its :class:`Gate` view.
    """
    if (kind.view(np.uint8) >= len(KINDS)).any():
        raise SimulatorError("unknown gate kind code")
    if not ((tmask > 0) & ((tmask & (tmask - 1)) == 0)).all():
        raise SimulatorError("a gate needs exactly one target")
    if ((tmask & cmask) != 0).any():
        raise SimulatorError("overlapping target/control indices")
    if ((cwant & ~cmask) != 0).any():
        raise SimulatorError("wanted control values outside the controls")
    needs = (kind == _PHASE0) | (kind >= _CS)
    cs = kind == _CS
    if given is None:
        given = ~np.isnan(param)
    bad = (needs != given) | (needs & ~np.isfinite(param))
    if cs.any():
        bad |= cs & ((np.abs(param) < 1) | (param != np.trunc(param)))
    if bad.any():
        r = int(bad.argmax())
        if cs[r]:
            raise SimulatorError("CS requires integer parameter i >= 1")
        if needs[r]:
            raise SimulatorError(f"{KINDS[kind[r]]} requires a finite real parameter")
        raise SimulatorError(f"{KINDS[kind[r]]} takes no parameter")
    if total is not None:
        outside = ((tmask | cmask) >> total) != 0
        if outside.any():
            r = int(outside.argmax())
            masks = (int(tmask[r]), int(cmask[r]), int(cwant[r]))
            row = _row_gate(int(kind[r]), *masks, float(param[r]))
            raise SimulatorError(f"gate {row.dump()} out of range for N={total}")


def _mixing_form(code: int, angle: float | None = None):
    """The form of an H or nonzero ROTY(angle) row's matrix that the kernel
    multiplies by: its two columns as pairs of Python complex values, and
    the floor below which a nonzero amplitude part may make a product
    underflow to zero (see the module docstring)."""
    if code == _H:
        s = 1.0 / math.sqrt(2.0)
        columns = ((s, s), (s, -s))  # [[s, s], [s, -s]]
    else:
        c, s = math.cos(angle), math.sin(angle)
        columns = ((c, s), (-s, c))  # [[c, -s], [s, c]]
    smallest = min(abs(m) for column in columns for m in column if m)
    return tuple((complex(m0), complex(m1)) for m0, m1 in columns), sys.float_info.min / smallest


#: the form of every H row, and of the quarter turns ROTY(-pi/2), ROTY(pi/2)
_H_FORM = _mixing_form(_H)
_QUARTER_FORMS = (_mixing_form(_ROTY, -math.pi / 2), _mixing_form(_ROTY, math.pi / 2))


class Circuit:
    """A gate table on a layout: one row per gate, in order.

    Columns, read-only 1-D arrays with one entry per row:

    * ``kind``: ``int8`` code into :data:`KINDS`;
    * ``tmask``: the target mask, one bit;
    * ``cmask``: the control mask, clear of the target;
    * ``cwant``: the wanted control values, the bits of ``cmask`` whose
      control must hold 1;
    * ``param``: ``float64``, NaN for the kinds without a parameter.

    The masks have the layout's key dtype: ``int64`` up to 63 qubits,
    Python ints (an object array) past that.  :meth:`from_masks` takes the
    columns as written and ``Circuit(gates, layout)`` reads them from
    :class:`Gate` objects; both run the one row check, :func:`_check_table`,
    which also checks every mask against the layout.  :attr:`gates` views
    the rows as gates.
    """

    __slots__ = ("layout", "kind", "tmask", "cmask", "cwant", "param", "_gates")

    def __init__(self, gates, layout: RegisterLayout):
        columns = _gate_columns(gates, layout)
        _check_table(layout.total, *columns)
        self._set(layout, *columns[:5])

    @classmethod
    def from_masks(cls, layout: RegisterLayout, kind, tmask, cmask, cwant, param=None) -> "Circuit":
        """A circuit from its columns (see the class docstring); ``param``
        defaults to none.  The rows go through the same check as a
        :class:`Gate`."""
        kind = np.asarray(kind, dtype=np.int8)
        tmask, cmask, cwant = (np.asarray(m, dtype=layout.key_dtype) for m in (tmask, cmask, cwant))
        param = np.full(len(kind), math.nan) if param is None else np.asarray(param, dtype=np.float64)
        _check_table(layout.total, kind, tmask, cmask, cwant, param)
        return cls._make(layout, kind, tmask, cmask, cwant, param)

    @classmethod
    def _make(cls, layout, kind, tmask, cmask, cwant, param) -> "Circuit":
        """A circuit on columns that hold valid rows."""
        circuit = cls.__new__(cls)
        circuit._set(layout, kind, tmask, cmask, cwant, param)
        return circuit

    def _set(self, layout, kind, tmask, cmask, cwant, param) -> None:
        for column in (kind, tmask, cmask, cwant, param):
            column.flags.writeable = False
        self.layout = layout
        self.kind = kind
        self.tmask = tmask
        self.cmask = cmask
        self.cwant = cwant
        self.param = param
        self._gates = None

    def _columns(self):
        return self.kind, self.tmask, self.cmask, self.cwant, self.param

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The rows as :class:`Gate` objects, built on first read."""
        if self._gates is None:
            self._gates = tuple(map(_row_gate, *(column.tolist() for column in self._columns())))
        return self._gates

    def __getitem__(self, rows: slice) -> "Circuit":
        """The circuit of a slice of the rows."""
        if not isinstance(rows, slice):
            raise SimulatorError(f"a circuit takes a slice of its rows, not {type(rows).__name__}")
        return Circuit._make(self.layout, *(column[rows] for column in self._columns()))

    def inverse(self) -> "Circuit":
        """The rows in reverse order with their parameters negated."""
        param = np.where(np.isnan(self.param), self.param, -self.param)
        kind, tmask, cmask, cwant = (column[::-1] for column in self._columns()[:4])
        return Circuit._make(self.layout, kind, tmask, cmask, cwant, param[::-1])

    def __add__(self, other: "Circuit") -> "Circuit":
        return Circuit.join((self, other))

    @staticmethod
    def join(circuits) -> "Circuit":
        """The rows of one or more circuits on one layout, in order, with
        each column built in one concatenation."""
        if not circuits:
            raise SimulatorError("no circuits to join")
        layout = circuits[0].layout
        if any(c.layout != layout for c in circuits):
            raise SimulatorError("cannot concatenate circuits on different layouts")
        columns = zip(*(c._columns() for c in circuits))
        return Circuit._make(layout, *(np.concatenate(column) for column in columns))

    def _program(self):
        """What the kernel reads, derived from the rows other than
        ROTY(0), the identity: per-row lists of the kind code, target mask,
        control mask, wanted control values, operand (the phase of a
        PHASE0, the form of a mixing row's matrix, see
        :func:`_mixing_form`, None for a permutation), run end (the end of
        the run of rows with this row's control condition when the row
        starts one, else 0), the segment of permutation
        rows that the row starts (its end and the segment's target, control
        and wanted masks as key-dtype columns of shape (k, 1), or None; see
        the module docstring) and the stretch size of a quarter turn,
        ROTY(+-pi/2): the number of quarter rows in a row, from this one on,
        that share its control condition, else 0.  Row r of the program is
        the r-th row that acts, not row r of the table."""
        return _compile(self)


def _compile(circuit: Circuit):
    kind, tmask, cmask, cwant, param = circuit._columns()
    # ROTY(0), of either sign of zero, is the identity: the program leaves it
    # out, which joins the runs and segments it stood between
    keep = np.flatnonzero((kind != _ROTY) | (param != 0))
    if len(keep) < len(kind):
        kind, tmask, cmask, cwant, param = (c[keep] for c in (kind, tmask, cmask, cwant, param))
    rows = len(kind)

    # a run starts at a controlled mixing row and ends where the control
    # condition first changes; _run's outer loop visits the rows of a
    # condition up to its first run start.  A quarter turn, ROTY(+-pi/2)
    # (H has no parameter and CS an integral one), lies in a stretch: the
    # quarter rows in a row with its control condition.  closes[0] marks
    # the last row of each condition, closes[1] each row after which no
    # stretch goes on (the next row is no quarter turn or has another
    # condition); a row's condition and stretch end after the first marked
    # row from it on
    mixing = kind >= _H
    starts = mixing & (cmask != 0)
    quarter = mixing & (np.abs(param) == math.pi / 2)
    quarters = np.flatnonzero(quarter).tolist()
    closes = np.empty((1 + bool(quarters), rows), dtype=bool)
    closes[:, -1:] = True
    np.not_equal(cmask[1:], cmask[:-1], out=closes[0, :-1])
    closes[0, :-1] |= cwant[1:] != cwant[:-1]
    if quarters:
        np.logical_not(quarter[1:], out=closes[1, :-1])
        closes[1] |= closes[0]
    after = np.arange(1, rows + 1)
    ends = np.minimum.accumulate(np.where(closes, after, rows)[:, ::-1], axis=1)[:, ::-1]
    run_end = np.where(starts, ends[0], 0)
    visited = np.maximum.accumulate(np.where(starts, ends[0], -1)) < ends[0]
    # a quarter row's stretch as the number of its rows from this one on:
    # small ints, which Python holds once each
    stretch = np.where(quarter, ends[1] + 1 - after, 0).tolist() if quarters else [0] * rows

    # segments of visited permutation rows, each row's controls clear of
    # the targets of the rows before it in the segment, cut from the
    # stretches of two or more such rows in a row (the edges of the padded
    # flags alternate between a stretch's start and its end)
    code, targets, conditions = kind.tolist(), tmask.tolist(), cmask.tolist()
    flips = np.zeros(rows + 2, dtype=bool)
    np.logical_and(visited, kind <= _NXOR, out=flips[1:-1])
    edges = np.flatnonzero(flips[1:] != flips[:-1]).tolist()
    tcolumn, ccolumn, wcolumn = tmask[:, None], cmask[:, None], cwant[:, None]
    segment = [None] * rows
    for begin, stop in zip(edges[::2], edges[1::2]):
        if stop - begin < 2:
            continue
        cuts, flipped = [begin], 0
        for r in range(begin, stop):
            if conditions[r] & flipped:
                cuts.append(r)
                flipped = 0
            flipped |= targets[r]
        cuts.append(stop)
        for first, last in zip(cuts, cuts[1:]):
            if last - first > 1:
                segment[first] = (last, tcolumn[first:last], ccolumn[first:last], wcolumn[first:last])

    # the operands: the phase e^{i theta} of each PHASE0 row; the forms of
    # the CS rows' matrices [[c, s], [-s, c]], built column-wise in one pass
    # over them (numpy's sqrt and division round as math's do); and the
    # forms of the H and ROTY rows (see _mixing_form), one per distinct
    # angle of a ROTY other than a quarter turn
    values = param.tolist()
    operand = [None] * rows
    for r in np.flatnonzero(kind == _PHASE0).tolist():
        operand[r] = cmath.exp(1j * values[r])
    cs = kind == _CS
    if cs.any():
        strength = param[cs]
        i = np.abs(strength)
        size = 1.0 / np.sqrt(i)
        s = np.copysign(size, strength)
        c = np.sqrt((i - 1) / i)
        # the columns (c, -s) and (s, c) as complex values, and the floor
        # over the smallest nonzero entry, min(|s|, c) with a zero c (at
        # i = 1) taken as 1, which is at least |s|
        floor = sys.float_info.min / np.minimum(size, c + (c == 0))
        cc, ss, ns = (x.astype(np.complex128).tolist() for x in (c, s, -s))
        for r, cr, sr, nr, f in zip(np.flatnonzero(cs).tolist(), cc, ss, ns, floor.tolist()):
            operand[r] = ((cr, nr), (sr, cr)), f
    for r in quarters:
        operand[r] = _QUARTER_FORMS[values[r] > 0]
    forms = {}
    for r in np.flatnonzero(mixing ^ cs ^ quarter).tolist():
        if code[r] == _H:
            operand[r] = _H_FORM
            continue
        form = forms.get(values[r])
        if form is None:
            form = forms[values[r]] = _mixing_form(_ROTY, values[r])
        operand[r] = form
    return code, targets, conditions, cwant.tolist(), operand, run_end.tolist(), segment, stretch


class SparseState:
    """Nonzero amplitudes of a state: parallel key and amplitude arrays.

    The arrays are read-only and may be shared between states; every gate
    returns a new state.
    """

    __slots__ = ("layout", "key_array", "amp_array", "_amps")

    def __init__(self, layout: RegisterLayout, amps: Mapping | None = None):
        amps = {} if amps is None else amps
        if not all(isinstance(key, numbers.Integral) for key in amps):
            raise SimulatorError("state keys must be integers")
        if any(key < 0 or key >> layout.total for key in amps):
            raise SimulatorError(f"state keys must lie in 0..2^{layout.total} - 1")
        self._set(
            layout,
            np.array(list(amps.keys()), dtype=layout.key_dtype),
            np.array(list(amps.values()), dtype=np.complex128),
        )

    def _set(self, layout, keys, amplitudes) -> None:
        keys.flags.writeable = False
        amplitudes.flags.writeable = False
        self.layout = layout
        self.key_array = keys
        self.amp_array = amplitudes
        self._amps = None

    @classmethod
    def from_arrays(cls, layout: RegisterLayout, keys, amplitudes) -> "SparseState":
        """State on distinct keys (of ``layout.key_dtype``) and their amplitudes."""
        state = cls.__new__(cls)
        state._set(layout, keys, amplitudes)
        return state

    @property
    def amps(self) -> Mapping:
        if self._amps is None:
            self._amps = MappingProxyType(
                dict(zip(self.key_array.tolist(), self.amp_array.tolist()))
            )
        return self._amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp_array))

    def section_values(self, name: str):
        """Array of one section's value for every key."""
        off, w = self.layout._span(name)
        return (self.key_array >> off) & ((1 << w) - 1)


def _bit_string(text: str) -> list[int]:
    """The 0/1 values of a string of bits, qubit 0 first."""
    if text.strip("01"):
        raise SimulatorError("bits must be 0/1")
    return [int(c) for c in text]


def basis_state(layout: RegisterLayout, bits) -> SparseState:
    """Single-term state on the given bit assignment (sequence or string)."""
    bits = _bit_string(bits) if isinstance(bits, str) else list(bits)
    if len(bits) != layout.total:
        raise SimulatorError(f"expected {layout.total} bits, got {len(bits)}")
    key = 0
    for j, b in enumerate(bits):
        if not isinstance(b, numbers.Integral) or b not in (0, 1):
            raise SimulatorError("bits must be 0/1")
        key |= int(b) << j
    return SparseState(layout, {key: 1.0 + 0.0j})


def _run_starts(ordered):
    """Start of each run of equal values in the sorted array ``ordered``, or
    None when its values are distinct."""
    if len(ordered) > 1:
        new = np.empty(len(ordered), dtype=bool)
        new[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        if np.count_nonzero(new) < len(new):
            return new.nonzero()[0]
    return None


def group_sum(labels, weights):
    """Sort labels and sum weights (along their last axis) over equal labels.

    Returns the distinct labels in ascending order and the summed weights;
    equal labels are summed in their original order.
    """
    order = np.argsort(labels, kind="stable")
    labels, weights = labels[order], weights[..., order]
    starts = _run_starts(labels)
    if starts is not None:
        labels = labels[starts]
        weights = np.add.reduceat(weights, starts, axis=-1)
    return labels, weights


def _mix(keys, amps, t: int, columns):
    """H, CS or a nonzero ROTY with target mask ``t`` on keys whose controls
    all hold, multiplying by its matrix's ``columns`` (see
    :func:`_mixing_form`): both branches of the target, equal keys merged,
    small amplitudes pruned."""
    column = ((keys & t) != 0).view(np.uint8)
    low = keys & ~t
    branches = amps * np.array(columns).T[:, column]
    # both keys of a pair present: their branches land on the same keys,
    # which are summed as group_sum sums them; distinct keys keep their order
    if len(low) > 1:
        order = np.argsort(low, kind="stable")
        ordered = low[order]
        starts = _run_starts(ordered)
        if starts is not None:
            low = ordered[starts]
            branches = np.add.reduceat(branches[:, order], starts, axis=-1)
    keys, amps = np.concatenate((low, low | t)), branches.ravel()
    keep = np.abs(amps) >= PRUNE_THRESHOLD
    if np.count_nonzero(keep) < len(keep):
        keys, amps = keys[keep], amps[keep]
    return keys, amps


def _step(keys, amps, code: int, tmask: int, operand, cmask: int, cwant: int):
    """One row on the arrays, testing the controls ``cmask``/``cwant``: the
    row's own, or 0/0 on keys known to satisfy them.  A mixing row comes
    here only with no controls left to test."""
    if code <= _NXOR:  # a permutation
        flipped = keys ^ tmask
        if cmask:
            flipped = np.where((keys & cmask) == cwant, flipped, keys)
        return flipped, amps
    if code == _PHASE0:
        # controls active and target |0>
        hit = (keys & (cmask | tmask)) == cwant
        return keys, np.where(hit, amps * operand, amps)
    return _mix(keys, amps, tmask, operand[0])


def _scalars(prefix_keys, prefix_amps, key: int, amp: complex, program, i: int):
    """Rows from ``i``, a run start with the one active key ``key``, on
    Python scalars, past the end of the run for as long as each row
    provably leaves the idle keys alone (see the module docstring).  The
    idle keys are ``prefix_keys``, the ones the run split off, and the tail
    keys that a later run's controls fail.  Returns the next row and the key
    and amplitude arrays."""
    code, tmask, cmask, cwant, operand, run_end, segment, stretch = program
    keys, amps = [key], [amp]  # the tail
    idle_keys, idle_amps = [], []  # the idle list
    idle = len(prefix_keys) > 0
    # per control mask, the set of the idle keys' projections on it, taken
    # on first use
    seen = {}
    low_size, high_size = _PRUNE_WINDOW
    j, end = run_end[i], len(code)
    rows = iter(range(i, end))
    for r in rows:
        c = code[r]
        if c == _PHASE0:
            break
        t = tmask[r]
        if r >= j:  # past the run: the row must miss every idle key
            cm, cw = cmask[r], cwant[r]
            if idle:
                if not cm or segment[r] is not None:
                    break  # an uncontrolled row, or a segment for one XOR step
                held = seen.get(cm)
                if held is None:
                    held = seen[cm] = set((prefix_keys & cm).tolist())
                    held.update(k & cm for k in idle_keys)
                if cw in held:
                    break
            if run_end[r]:  # a new run: tail keys that fail its controls go idle
                j = run_end[r]
                tail, keys, amps = zip(keys, amps), [], []
                for k, a in tail:
                    if (k & cm) == cw:
                        keys.append(k)
                        amps.append(a)
                        continue
                    idle = True
                    idle_keys.append(k)
                    idle_amps.append(a)
                    for m, held in seen.items():
                        held.add(k & m)
            elif c <= _NXOR:
                keys = [k ^ t if (k & cm) == cw else k for k in keys]
                continue
        # the row's controls hold on every tail key
        if c <= _NXOR:
            keys = [k ^ t for k in keys]
            continue
        if len(keys) != 1:
            if keys:
                break  # a mixing row on two keys
            continue
        key, amp = keys[0], amps[0]
        columns, floor = operand[r]
        if 0.0 < abs(amp.real) < floor or 0.0 < abs(amp.imag) < floor:
            # a product could underflow to zero: the array step on one key
            mixed = _mix(np.array(keys, dtype=prefix_keys.dtype), np.array(amps), t, columns)
            keys, amps = mixed[0].tolist(), mixed[1].tolist()
            continue
        size = stretch[r]
        if size and high_size <= abs(amp) <= _QUARTER_TOP:
            # the stretch's quarter turns from here as signed flips: the
            # floor test above and this size test hold on each of them (see
            # the module docstring)
            for s in range(r, r + size):
                t = tmask[s]
                columns = operand[s][0]
                amp = amp * (columns[1][0] if key & t else columns[0][1])
                key ^= t
            keys, amps = [key], [amp]
            next(islice(rows, size - 1, size - 1), None)  # on past the stretch
            continue
        m0, m1 = columns[1] if key & t else columns[0]
        a0, a1 = amp * m0, amp * m1
        # _mix keeps np.abs(a) >= PRUNE_THRESHOLD; numpy decides near it
        size0, size1 = abs(a0), abs(a1)
        if low_size < size0 < high_size:
            size0 = np.abs(a0)
        if low_size < size1 < high_size:
            size1 = np.abs(a1)
        low = key & ~t
        keys, amps = [], []
        if size0 >= PRUNE_THRESHOLD:
            keys.append(low)
            amps.append(a0)
        if size1 >= PRUNE_THRESHOLD:
            keys.append(low | t)
            amps.append(a1)
    else:
        r = end
    keys = np.array(idle_keys + keys, dtype=prefix_keys.dtype)
    amps = np.array(idle_amps + amps, dtype=np.complex128)
    if len(prefix_keys):
        keys = np.concatenate((prefix_keys, keys))
        amps = np.concatenate((prefix_amps, amps))
    return r, keys, amps


def _run(keys, amps, program):
    """The gate kernel: a circuit's rows in order on parallel key and
    amplitude arrays, one XOR step per segment of permutation rows, one
    control split per run of rows, and the rows from a run that starts on
    one active key on Python scalars (see the module docstring and
    :meth:`Circuit._program`)."""
    code, tmask, cmask, cwant, operand, run_end, segment, stretch = program
    i, end = 0, len(code)
    while i < end:
        j = run_end[i]
        if not j:
            flips = segment[i]
            if flips is not None and (flips[0] - i) * len(keys) <= FUSED_CELLS:
                i, t, c, w = flips
                keys = keys ^ np.bitwise_xor.reduce(np.where((keys & c) == w, t, 0), axis=0)
                continue
            keys, amps = _step(keys, amps, code[i], tmask[i], operand[i], cmask[i], cwant[i])
            i += 1
            continue
        active = (keys & cmask[i]) == cwant[i]
        count = np.count_nonzero(active)
        split = count < len(active)
        if split or count == 1:
            idle = ~active
            idle_keys, idle_amps = keys[idle], amps[idle]
            keys, amps = keys[active], amps[active]
        if count == 1:
            i, keys, amps = _scalars(idle_keys, idle_amps, keys.item(), amps.item(), program, i)
            continue
        for r in range(i, j):
            keys, amps = _step(keys, amps, code[r], tmask[r], operand[r], 0, 0)
        if split:
            keys = np.concatenate((idle_keys, keys))
            amps = np.concatenate((idle_amps, amps))
        i = j
    return keys, amps


def apply(state: SparseState, gate: Gate) -> SparseState:
    """Apply one gate, returning a new pruned state."""
    circuit = Circuit((gate,), state.layout)
    keys, amps = _run(state.key_array, state.amp_array, circuit._program())
    return SparseState.from_arrays(state.layout, keys, amps)


def apply_circuit(state: SparseState, circuit: Circuit) -> SparseState:
    """Apply every gate of a circuit, returning a new pruned state; the
    circuit checked its qubits against its layout when it was built."""
    if circuit.layout != state.layout:
        raise SimulatorError("circuit layout does not match state layout")
    keys, amps = _run(state.key_array, state.amp_array, circuit._program())
    return SparseState.from_arrays(state.layout, keys, amps)


def section_marginal(state: SparseState, section: str) -> dict[int, float]:
    """Probability of each observed value of a section, sorted by value."""
    values, probs = group_sum(
        state.section_values(section), np.abs(state.amp_array) ** 2
    )
    return dict(zip(values.tolist(), probs.tolist()))


def measure_section(state: SparseState, section: str, rng) -> tuple[int, SparseState]:
    """Sample a measurement of one section; returns (value, collapsed state)."""
    probs = section_marginal(state, section)
    if not probs:
        raise SimulatorError("cannot measure a state with no amplitudes")
    u = rng.random()
    acc = 0.0
    outcome = None
    for v, p in probs.items():
        acc += p
        if u < acc:
            outcome = v
            break
    if outcome is None:  # float round-off at the top of the CDF
        outcome = next(reversed(probs))
    prob, collapsed = postselect(state, section, outcome)
    if collapsed is None:
        raise SimulatorError("measured a zero-probability outcome")
    return outcome, collapsed


def postselect(
    state: SparseState, section: str, value
) -> tuple[float, SparseState | None]:
    """Project a section onto a value, an integer or a string of its bits;
    returns (probability, renormalized state)."""
    width = state.layout.width(section)
    if isinstance(value, str):
        if len(value) != width:
            raise SimulatorError(f"expected {width} bits for {section!r}, got {len(value)}")
        value = sum(b << j for j, b in enumerate(_bit_string(value)))
    elif not isinstance(value, numbers.Integral):
        raise SimulatorError(f"value {value!r} for section {section!r} is not an integer")
    elif not 0 <= value < 1 << width:
        raise SimulatorError(f"value {value} out of range for {width}-qubit section {section!r}")
    hit = state.section_values(section) == value
    amps = state.amp_array[hit]
    prob = float(np.sum(np.abs(amps) ** 2))
    if prob < POSTSELECT_FLOOR:
        return 0.0, None
    scale = 1.0 / math.sqrt(prob)
    return prob, SparseState.from_arrays(state.layout, state.key_array[hit], amps * scale)
