"""Sparse statevector simulator over a laid-out multi-register qubit system.

A state holds its nonzero amplitudes as two parallel arrays: the
computational basis keys (qubit j at bit position j) and their
``complex128`` amplitudes.  The storage and retrieval circuits of this
package keep at most O(p) nonzero amplitudes, so memory scales with the
number of stored patterns rather than with 2^N.

Key width: keys are ``int64`` on layouts of up to 63 qubits, and an object
array of Python ints on wider layouts, so that no key or mask ever passes
bit 62 of a fixed-width integer.  Every kernel below is written once in
whole-array operations and runs unchanged on both key types:

* permutation gates (``NOT``, ``XOR``, ``TOFFOLI``, ``NXOR``) XOR the target
  bit into the keys whose controls match;
* diagonal gates (``PHASE0``, ``FLIP0``) multiply the matching amplitudes;
* mixing gates (``H``, ``CS``, ``ROTY``) emit both target branches of the
  keys whose controls match, merge equal keys with one stable sort, and
  drop amplitudes below :data:`PRUNE_THRESHOLD`.  ``ROTY(0)`` is the
  identity and leaves both arrays as they are; it stays in its circuit, so
  gate counts stay honest.

One kernel runs a sequence of gates on the ``(key_array, amp_array)`` pair;
:func:`apply` hands it one gate and :func:`apply_circuit` a whole circuit,
and only the final arrays become a :class:`SparseState`.  When a controlled
mixing gate meets a state on which only some keys satisfy its controls, the
kernel splits the keys once, runs that gate and every following gate with
the same controls (the same ``cmask`` and ``cwant``) on the active keys with
no control test, and puts ``idle + active`` back together once at the end
of the run.  No gate targets one of its own controls, so the active keys
stay active through the run, and the idle keys end in front in their old
order: the result is the one gate-by-gate application gives, key order and
amplitude bits included.  The memory loaders are such runs: n rotations on
one control qubit that holds on a single key.

Marginals, post-selection and grouping read a section's value for all keys
at once from the layout's precomputed offsets.  ``state.amps`` is a
read-only ``{key: amplitude}`` mapping with Python ``int`` keys and
``complex`` values, built on first use; ``SparseState(layout, mapping)``
builds a state from such a mapping.

Gate set (matching the circuits built in :mod:`qamem.memory` and
:mod:`qamem.retrieval`):

* ``NOT``, ``H``, ``XOR`` (controlled NOT), ``TOFFOLI``, ``NXOR``
  (multi-controlled NOT, optionally with per-control polarities);
* ``CS(i)``: controlled real rotation with sin = 1/sqrt(i);
* ``PHASE0(theta)``: diag(e^{i theta}, 1), phase on the |0> component,
  optionally controlled;
* ``ROTY(angle)``: real rotation [[cos, -sin], [sin, cos]], optionally
  controlled (ROTY(pi/2)|0> = |1>);
* ``FLIP0``: sign flip on the all-zeros subspace of its target qubits
  (amplitude-amplification oracle).
"""
from __future__ import annotations

import cmath
import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

PRUNE_THRESHOLD = 1e-12

#: widest layout whose keys fit an int64 without touching the sign bit
INT64_KEY_QUBITS = 63

_PERMUTATION_KINDS = {"NOT", "XOR", "TOFFOLI", "NXOR"}
_MIXING_KINDS = {"H", "CS", "ROTY"}
_VALID_KINDS = {"NOT", "H", "XOR", "TOFFOLI", "NXOR", "CS", "PHASE0", "ROTY", "FLIP0"}


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


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    param: float | int | None = None
    # per-control required values for NXOR; all-ones when None
    polarity: tuple[int, ...] | None = None
    # derived: bit masks of the targets and the controls, the control values
    # that activate the gate, the highest qubit index, and the read-only 2x2
    # matrix of a mixing gate (H, CS, nonzero ROTY; None for every other gate)
    tmask: int = field(init=False, repr=False, compare=False)
    cmask: int = field(init=False, repr=False, compare=False)
    cwant: int = field(init=False, repr=False, compare=False)
    top: int = field(init=False, repr=False, compare=False)
    matrix: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _VALID_KINDS:
            raise SimulatorError(f"unknown gate kind {self.kind!r}")
        # Python-int masks, also for numpy integer indices, so that no mask
        # wraps past bit 62
        tmask = cmask = cwant = 0
        try:
            for q in self.targets:
                tmask |= 1 << operator.index(q)
            for c in self.controls:
                cmask |= 1 << operator.index(c)
        except ValueError:  # negative shift count
            raise SimulatorError(f"negative qubit index in {self}") from None
        if (tmask | cmask).bit_count() != len(self.targets) + len(self.controls):
            raise SimulatorError(f"overlapping target/control indices in {self}")
        if self.kind == "CS" and not (
            isinstance(self.param, numbers.Integral) and abs(self.param) >= 1
        ):
            raise SimulatorError("CS requires integer parameter i >= 1")
        if self.polarity is not None and len(self.polarity) != len(self.controls):
            raise SimulatorError("polarity length must match controls")
        if self.polarity is None:
            cwant = cmask
        else:
            for c, v in zip(self.controls, self.polarity):
                if v:
                    cwant |= 1 << operator.index(c)
        object.__setattr__(self, "tmask", tmask)
        object.__setattr__(self, "cmask", cmask)
        object.__setattr__(self, "cwant", cwant)
        object.__setattr__(self, "top", (tmask | cmask).bit_length() - 1)
        object.__setattr__(self, "matrix", _mixing_matrix(self))

    def inverse(self) -> "Gate":
        if self.kind not in ("CS", "PHASE0", "ROTY"):
            return self  # NOT, H, XOR, TOFFOLI, NXOR and FLIP0
        # CS^i, PHASE0 and ROTY invert by negating the parameter, and a real
        # rotation by transposing its matrix
        matrix = None if self.matrix is None else self.matrix.T
        return self._variant(
            self.targets, self.controls, -self.param,
            self.tmask, self.cmask, self.cwant, self.top, matrix,
        )

    def shifted(self, offset: int) -> "Gate":
        """The same gate on the qubits ``offset`` places higher."""
        if offset < 0:
            raise SimulatorError(f"negative shift {offset}")
        return self._variant(
            tuple(t + offset for t in self.targets),
            tuple(c + offset for c in self.controls),
            self.param,
            self.tmask << offset,
            self.cmask << offset,
            self.cwant << offset,
            ((self.tmask | self.cmask) << offset).bit_length() - 1,
            self.matrix,
        )

    def _variant(self, targets, controls, param, tmask, cmask, cwant, top, matrix):
        """A gate of this kind and polarity with every other field given,
        made without ``__post_init__``: for the inverse and the shift of a
        validated gate, which keep its checks true."""
        gate = object.__new__(Gate)
        _SET["kind"](gate, self.kind)
        _SET["targets"](gate, targets)
        _SET["controls"](gate, controls)
        _SET["param"](gate, param)
        _SET["polarity"](gate, self.polarity)
        _SET["tmask"](gate, tmask)
        _SET["cmask"](gate, cmask)
        _SET["cwant"](gate, cwant)
        _SET["top"](gate, top)
        _SET["matrix"](gate, matrix)
        return gate

    def dump(self) -> str:
        param = "" if self.param is None else f"({self.param:g})"
        ctrl = ",".join(str(c) for c in self.controls)
        tgt = ",".join(str(t) for t in self.targets)
        return f"{self.kind}{param} {ctrl} -> {tgt}"


#: setters of Gate's slots, which bypass the frozen ``__setattr__``
_SET = {name: getattr(Gate, name).__set__ for name in Gate.__slots__}


def not_gate(target: int) -> Gate:
    return Gate("NOT", (target,))


def h_gate(target: int) -> Gate:
    return Gate("H", (target,))


def xor_gate(control: int, target: int) -> Gate:
    return Gate("XOR", (target,), (control,))


def toffoli_gate(c1: int, c2: int, target: int) -> Gate:
    return Gate("TOFFOLI", (target,), (c1, c2))


def nxor_gate(controls, target: int, polarity=None) -> Gate:
    pol = None if polarity is None else tuple(polarity)
    return Gate("NXOR", (target,), tuple(controls), polarity=pol)


def cs_gate(i: int, control: int, target: int, inverse: bool = False) -> Gate:
    g = Gate("CS", (target,), (control,), param=i)
    return g.inverse() if inverse else g


def phase0_gate(theta: float, target: int, control: int | None = None) -> Gate:
    controls = () if control is None else (control,)
    return Gate("PHASE0", (target,), controls, param=theta)


def roty_gate(angle: float, target: int, control: int | None = None) -> Gate:
    controls = () if control is None else (control,)
    return Gate("ROTY", (target,), controls, param=angle)


def flip0_gate(targets) -> Gate:
    return Gate("FLIP0", tuple(targets))


def gate_matrix(gate: Gate):
    """2x2 matrix of a single-target gate (rows/cols ordered |0>, |1>)."""
    if gate.kind == "H":
        s = 1.0 / math.sqrt(2.0)
        return ((s, s), (s, -s))
    if gate.kind == "CS":
        i = abs(gate.param)
        c = math.sqrt((i - 1) / i)
        s = 1.0 / math.sqrt(i)
        if gate.param < 0:
            s = -s
        return ((c, s), (-s, c))
    if gate.kind == "ROTY":
        c, s = math.cos(gate.param), math.sin(gate.param)
        return ((c, -s), (s, c))
    if gate.kind == "PHASE0":
        return ((cmath.exp(1j * gate.param), 0.0), (0.0, 1.0))
    if gate.kind == "NOT":
        return ((0.0, 1.0), (1.0, 0.0))
    raise SimulatorError(f"{gate.kind} has no single-qubit matrix")


def _mixing_matrix(gate: Gate):
    """:func:`gate_matrix` as a read-only array for H, CS and a nonzero ROTY;
    None for every other gate, ``ROTY(0)`` included."""
    if gate.kind not in _MIXING_KINDS or (gate.kind == "ROTY" and gate.param == 0):
        return None
    matrix = np.array(gate_matrix(gate))
    matrix.flags.writeable = False
    return matrix


@dataclass(frozen=True)
class Circuit:
    gates: tuple[Gate, ...]
    layout: RegisterLayout

    def __post_init__(self):
        n = self.layout.total
        for g in self.gates:
            if g.top >= n:
                raise SimulatorError(f"gate {g.dump()} out of range for N={n}")

    def __len__(self) -> int:
        return len(self.gates)

    def inverse(self) -> "Circuit":
        return Circuit(tuple(g.inverse() for g in reversed(self.gates)), self.layout)

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.layout != self.layout:
            raise SimulatorError("cannot concatenate circuits on different layouts")
        return Circuit(self.gates + other.gates, self.layout)

    def dump(self) -> str:
        return "".join(g.dump() + "\n" for g in self.gates)


class _Amplitudes(Mapping):
    """Read-only ``{key: amplitude}`` view of a state; ``len`` is O(1)."""

    __slots__ = ("_state", "_dict")

    def __init__(self, state: "SparseState"):
        self._state = state
        self._dict = None

    def _items(self) -> dict:
        if self._dict is None:
            s = self._state
            self._dict = dict(zip(s.key_array.tolist(), s.amp_array.tolist()))
        return self._dict

    def __len__(self) -> int:
        return len(self._state.key_array)

    def __getitem__(self, key):
        return self._items()[key]

    def __iter__(self):
        return iter(self._items())

    def __repr__(self) -> str:
        return repr(self._items())


class SparseState:
    """Nonzero amplitudes of a state: parallel key and amplitude arrays.

    The arrays are read-only and may be shared between states; every gate
    returns a new state.
    """

    __slots__ = ("layout", "key_array", "amp_array", "_amps")

    def __init__(self, layout: RegisterLayout, amps: Mapping | None = None):
        amps = {} if amps is None else amps
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
            self._amps = _Amplitudes(self)
        return self._amps

    @property
    def n_qubits(self) -> int:
        return self.layout.total

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp_array))

    def copy(self) -> "SparseState":
        return SparseState.from_arrays(
            self.layout, self.key_array.copy(), self.amp_array.copy()
        )

    def section_value(self, key: int, name: str) -> int:
        off, w = self.layout._span(name)
        return (key >> off) & ((1 << w) - 1)

    def section_values(self, name: str):
        """Array of one section's value for every key."""
        off, w = self.layout._span(name)
        return (self.key_array >> off) & ((1 << w) - 1)


def basis_state(layout: RegisterLayout, bits) -> SparseState:
    """Single-term state on the given bit assignment (sequence or string)."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    bits = list(bits)
    if len(bits) != layout.total:
        raise SimulatorError(f"expected {layout.total} bits, got {len(bits)}")
    key = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise SimulatorError("bits must be 0/1")
        key |= b << j
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


def _mix(keys, amps, gate: Gate):
    """H, CS or a nonzero ROTY on keys whose controls all hold: both branches
    of the target, equal keys merged, small amplitudes pruned."""
    t = gate.tmask
    column = ((keys & t) != 0).view(np.uint8)
    low = keys & ~t
    branches = amps * gate.matrix[:, column]
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


def _step(keys, amps, gate: Gate, cmask: int, cwant: int):
    """One gate on the arrays, testing the controls ``cmask``/``cwant``: the
    gate's own, or 0/0 on keys known to satisfy them.  A mixing gate comes
    here only with no controls left to test."""
    kind = gate.kind
    if kind in _PERMUTATION_KINDS:
        flipped = keys ^ gate.tmask
        if cmask:
            flipped = np.where((keys & cmask) == cwant, flipped, keys)
        return flipped, amps
    if kind == "FLIP0":
        zero = (keys & gate.tmask) == 0
        return keys, np.where(zero, -amps, amps)
    if kind == "PHASE0":
        # controls active and target |0>
        hit = (keys & (cmask | gate.tmask)) == cwant
        phase = cmath.exp(1j * gate.param)
        return keys, np.where(hit, amps * phase, amps)
    if gate.matrix is None:  # ROTY(0)
        return keys, amps
    return _mix(keys, amps, gate)


def _run(keys, amps, gates):
    """The gate kernel: ``gates`` in order on parallel key and amplitude
    arrays, one control split per run of gates (see the module docstring)."""
    i, end = 0, len(gates)
    while i < end:
        gate = gates[i]
        cmask, cwant = gate.cmask, gate.cwant
        if gate.matrix is None or not cmask:
            keys, amps = _step(keys, amps, gate, cmask, cwant)
            i += 1
            continue
        j = i + 1
        while j < end and gates[j].cmask == cmask and gates[j].cwant == cwant:
            j += 1
        active = (keys & cmask) == cwant
        split = np.count_nonzero(active) < len(active)
        if split:
            idle = ~active
            idle_keys, idle_amps = keys[idle], amps[idle]
            keys, amps = keys[active], amps[active]
        for g in gates[i:j]:
            keys, amps = _step(keys, amps, g, 0, 0)
        if split:
            keys = np.concatenate((idle_keys, keys))
            amps = np.concatenate((idle_amps, amps))
        i = j
    return keys, amps


def apply(state: SparseState, gate: Gate) -> SparseState:
    """Apply one gate, returning a new pruned state."""
    n = state.n_qubits
    if gate.top >= n:
        raise SimulatorError(f"gate {gate.dump()} out of range for N={n}")
    keys, amps = _run(state.key_array, state.amp_array, (gate,))
    return SparseState.from_arrays(state.layout, keys, amps)


def apply_circuit(state: SparseState, circuit: Circuit) -> SparseState:
    """Apply every gate of a circuit, returning a new pruned state; the
    circuit checked its gates' range against its layout when it was built."""
    if circuit.layout != state.layout:
        raise SimulatorError("circuit layout does not match state layout")
    keys, amps = _run(state.key_array, state.amp_array, circuit.gates)
    return SparseState.from_arrays(state.layout, keys, amps)


def overlap(a: SparseState, b: SparseState) -> complex:
    """Inner product <a|b>."""
    if a.layout != b.layout:
        raise SimulatorError("layout mismatch in overlap")
    _, ia, ib = np.intersect1d(
        a.key_array, b.key_array, assume_unique=True, return_indices=True
    )
    return complex(np.sum(a.amp_array[ia].conj() * b.amp_array[ib]))


def section_marginal(state: SparseState, section: str) -> dict[int, float]:
    """Probability of each observed value of a section, sorted by value."""
    values, probs = group_sum(
        state.section_values(section), np.abs(state.amp_array) ** 2
    )
    return dict(zip(values.tolist(), probs.tolist()))


def measure_section(state: SparseState, section: str, rng) -> tuple[int, SparseState]:
    """Sample a measurement of one section; returns (value, collapsed state)."""
    probs = section_marginal(state, section)
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
    """Project a section onto a value; returns (probability, renormalized state)."""
    if isinstance(value, str):
        v = 0
        for j, c in enumerate(value):
            v |= int(c) << j
        value = v
    hit = state.section_values(section) == value
    amps = state.amp_array[hit]
    prob = float(np.sum(np.abs(amps) ** 2))
    if prob < 1e-15:
        return 0.0, None
    scale = 1.0 / math.sqrt(prob)
    return prob, SparseState.from_arrays(state.layout, state.key_array[hit], amps * scale)
