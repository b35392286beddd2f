"""Probabilistic retrieval: circuit rounds, post-selection, analytics, bounds,
amplitude amplification and complexity estimates.

One retrieval round entangles the memory register with a single control
qubit so that each stored-pattern branch carries amplitude
cos(pi*d_H/2n) on control |0> and sin(pi*d_H/2n) on control |1>, where
d_H is the (optionally masked) Hamming distance between the input and the
branch's pattern.  Repeating the round over b control qubits and
post-selecting the all-zeros control outcome yields the distribution

    P(p^k) = cos^{2b}(pi*d_k/2n) / Z,   Z = sum_k cos^{2b}(pi*d_k/2n).

The phase kernel exp(i*pi*H/2n) is always realized through the single
qubit phase gate diag(e^{i*pi/2n}, 1) on each memory qubit followed by its
controlled inverse-square, never as a direct matrix exponential, so the
gate counts per round are honest: 6n+2 with an input register, 4n+2 with
the input coded as rotations.

Both retrieval modes draw from the state the b rounds prepare: amplify
mode only raises its recognition probability to the rotation law
sin^2((2j+1)theta) of j Grover iterations, which keep the memory law.
:func:`amplitude_amplify` runs those iterations on the state itself: the
preparation runs once, and each iteration is a reflection about the
prepared state, a few array operations on its amplitudes.  The gate
counts (:func:`amplify_iteration_gates`, :func:`complexity_estimate`)
are those of the algorithm's circuit, which runs the preparation and its
inverse in every iteration, not the work the simulator does.
"""
from __future__ import annotations

import bisect
import itertools
import math
import sys
import weakref
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .patterns import Mask, Pattern, PatternError, PatternSet, patterns_from_keys
from .memory import build_memory_circuit, memory_gate_count
from .simulator import (
    KIND,
    POSTSELECT_FLOOR,
    Circuit,
    RegisterLayout,
    SparseState,
    apply_circuit,
    basis_state,
    group_sum,
    section_marginal,
)


class RetrievalError(ValueError):
    pass


class WeightUnderflowError(RetrievalError):
    """The closed form's weights cos^{2b}(pi*d/2n) underflow: Z is below
    the smallest normal float although a pattern lies at a distance below
    n, so the exact law is not the zeros the floats would give."""


#: most attempts one retrieval may make: each is a draw of about 1 us, so a
#: query that is never recognized ends within about a second
MAX_ATTEMPTS = 10**6


@dataclass(frozen=True)
class RetrievalConfig:
    b: int = 1
    T: int = 1
    mode: str = "repeat_measure"  # or "amplitude_amplify"
    mask: Mask | None = None

    def __post_init__(self):
        if self.b < 1 or self.T < 1:
            raise RetrievalError("b and T must be >= 1")
        _check_exponent(self.b)
        if self.T > MAX_ATTEMPTS:
            raise RetrievalError(f"T must be <= MAX_ATTEMPTS = {MAX_ATTEMPTS}, got {self.T}")
        if self.mode not in ("repeat_measure", "amplitude_amplify"):
            raise RetrievalError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Recognition probability and the law of the post-selected output.

    Output ``support[k]`` has probability ``prob_array[k]``, which is made
    read-only; for the closed form the support is the pattern set itself,
    in stored order.
    """

    p_rec: float
    Z: float
    support: Sequence[Pattern]
    prob_array: np.ndarray

    def __post_init__(self):
        self.prob_array.flags.writeable = False

    @cached_property
    def probs(self) -> Mapping[Pattern, float]:
        """Read-only ``{pattern: probability}`` in support order, built on
        first read."""
        return MappingProxyType(dict(zip(self.support, self.prob_array.tolist())))


@dataclass(frozen=True)
class RetrievalReport:
    recognized: bool
    attempts: int
    output: Pattern | None
    analytic: Distribution

    @property
    def analytic_p_rec(self) -> float:
        return self.analytic.p_rec

    @property
    def analytic_dist(self) -> Mapping[Pattern, float]:
        return self.analytic.probs


def _check_exponent(b: int) -> None:
    """Refuse a b below 0 or one whose exponent 2b is past the float range."""
    if b < 0:
        raise RetrievalError("b must be >= 0")
    if 2 * b > sys.float_info.max:  # exact: int against float
        raise RetrievalError("b too large: the exponent 2b exceeds the float range")


def analytic_distribution(
    pattern_set: PatternSet,
    input_pattern: Pattern,
    b: int,
    mask: Mask | None = None,
) -> Distribution:
    """Closed-form recognition probability and conditional output distribution.

    The (masked) Hamming distances of the input to all p stored patterns
    are one comparison against the set's bit matrix.  Each distance d then
    picks its weight cos^{2b}(pi*d/2n) from a table of the n + 1 possible
    values, with the d = n weight set to exactly 0 when b > 0.  Z sums the
    weights left to right in stored order as Python floats, so every
    number equals that of a per-pattern loop bit for bit.  A Z below the
    smallest normal float with some distance below n is refused with
    :class:`WeightUnderflowError`; a Z of 0 with every distance n is the
    exact law and is returned.
    """
    _check_exponent(b)
    n, p = pattern_set.n, pattern_set.p
    if input_pattern.n != n:
        raise PatternError(f"length mismatch: {input_pattern.n} != {n}")
    x = np.array(input_pattern.bits, dtype=np.uint8)
    bits = pattern_set.bits
    if mask is not None:
        mask.validate(n)
        columns = sorted(mask.known)
        bits, x = bits[:, columns], x[columns]
    distances = np.count_nonzero(bits != x, axis=1)
    # cos(pi/2) is exactly zero, where math.cos gives 6e-17
    table = np.array(
        [
            0.0 if d == n and b > 0 else math.cos(math.pi * d / (2 * n)) ** (2 * b)
            for d in range(n + 1)
        ]
    )
    weights = table[distances]
    Z = sum(weights.tolist())
    if b > 0 and Z < sys.float_info.min and (distances < n).any():
        raise WeightUnderflowError(
            f"b = {b} is too large for the closed form: its weights underflow to "
            f"Z = {Z:g}, although a pattern lies at distance {distances.min()} < n = {n}"
        )
    probs = weights / Z if Z > 0 else np.zeros(p)
    return Distribution(p_rec=Z / p, Z=Z, support=pattern_set, prob_array=probs)


def recognition_lower_bound(p: int, n: int, b: int) -> tuple[float, float]:
    """Lower bound on the recognition probability and its large-n estimate."""
    if p < 1 or n < 2:
        raise RetrievalError("need p >= 1 and n >= 2")
    _check_exponent(b)
    if n > sys.float_info.max / math.pi:
        raise RetrievalError("n too large: pi * n exceeds the float range")
    bound = (p - 1) / p * math.cos(math.pi * (n - 1) / (2 * n)) ** (2 * b)
    estimate = (p - 1) / p * (math.pi / (2 * n)) ** (2 * b)
    return bound, estimate


def retrieval_layout(n: int, b: int, use_input_register: bool = True) -> RegisterLayout:
    input_width = n if use_input_register else 0
    return RegisterLayout(
        (("input", input_width), ("memory", n), ("utility", 2), ("control", b))
    )


def retrieval_round_circuit(
    input_pattern: Pattern,
    layout: RegisterLayout,
    control_index: int,
    mask: Mask | None = None,
) -> Circuit:
    """One retrieval round addressed to one control qubit.

    Gate sequence: Hadamard on the control, dressing of the memory register
    against the input (XOR/NOT pairs when an input register is present,
    direct rotations otherwise), the phase kernel, inverse dressing, and a
    final Hadamard.
    """
    if control_index < 0 or control_index >= layout.width("control"):
        raise RetrievalError(f"control index {control_index} out of range")
    return _rounds(input_pattern, layout, [control_index], mask)


def _rounds(input_pattern: Pattern, layout: RegisterLayout, controls, mask: Mask | None) -> Circuit:
    """The retrieval rounds addressed to the given control indices, in
    order, as one table: the round's columns tiled, then the Hadamards'
    targets and the controlled phases' control written per round."""
    n = layout.width("memory")
    if mask is not None:
        mask.validate(n)
    dtype = layout.key_dtype
    mem = layout.masks("memory")
    theta = math.pi / (2 * n)
    phase = mem if mask is None else mem[sorted(mask.known)]

    if layout.width("input"):
        # XOR input[j] -> mem[j], then NOT mem[j]
        inp = layout.masks("input")
        dress_kind = np.tile([KIND["XOR"], KIND["NOT"]], n)
        dress_target = np.repeat(mem, 2)
        dress_control = np.stack((inp, np.zeros(n, dtype)), axis=1).ravel()
        dress_param = undress_param = np.full(2 * n, math.nan)
    else:
        # dress directly: flip where the input bit is 0, so a memory qubit
        # ends in |1> exactly when it matches the input
        dress_kind = np.full(n, KIND["ROTY"])
        dress_target = mem
        dress_control = np.zeros(n, dtype)
        dress_param = math.pi / 2 * (1 - np.array(input_pattern.bits))
        undress_param = -dress_param[::-1]
    k = len(phase)
    none = np.zeros(1, dtype)
    kind = np.concatenate(
        ([KIND["H"]], dress_kind, np.full(2 * k, KIND["PHASE0"]), dress_kind[::-1], [KIND["H"]])
    )
    tmask = np.concatenate((none, dress_target, phase, phase, dress_target[::-1], none))
    cmask = np.concatenate((none, dress_control, np.zeros(2 * k, dtype), dress_control[::-1], none))
    param = np.concatenate((
        [math.nan], dress_param, np.full(k, theta), np.full(k, -2 * theta), undress_param, [math.nan],
    ))
    rows, b = len(kind), len(controls)
    kind, tmask, cmask, param = (np.tile(column, b) for column in (kind, tmask, cmask, param))
    bits = layout.masks("control")[list(controls)]
    T, C = tmask.reshape(b, rows), cmask.reshape(b, rows)
    T[:, 0] = T[:, -1] = bits
    kernel = 1 + len(dress_kind) + k
    C[:, kernel : kernel + k] = bits[:, None]
    # every control must hold 1, so the wanted mask is the control mask
    return Circuit.from_masks(layout, kind, tmask, cmask, cmask, param)


def preparation_circuit(
    pattern_set: PatternSet,
    input_pattern: Pattern,
    layout: RegisterLayout,
    mask: Mask | None = None,
) -> Circuit:
    """The memory circuit, written on ``layout``'s own memory and utility
    registers, then one retrieval round per control qubit, the rounds
    written as one table."""
    if input_pattern.n != pattern_set.n:
        raise RetrievalError("input length does not match stored patterns")
    memory = build_memory_circuit(pattern_set, layout=layout)
    return memory + _rounds(input_pattern, layout, range(layout.width("control")), mask)


#: most nonzero amplitudes a gate-level retrieval may prepare: each round
#: doubles the keys of the p-key memory state, so b rounds give up to
#: p*2^b; at the limit the key and amplitude arrays take 24 MB
MAX_PREPARED_KEYS = 2**20


def prepare_final_state(
    pattern_set: PatternSet,
    input_pattern: Pattern,
    b: int,
    mask: Mask | None = None,
    use_input_register: bool = True,
) -> SparseState:
    """Memory preparation followed by all b >= 1 retrieval rounds; refused
    before any gate runs when it could hold more than
    :data:`MAX_PREPARED_KEYS` keys."""
    if b < 1:
        raise RetrievalError("b must be >= 1")
    if pattern_set.p > MAX_PREPARED_KEYS >> b:  # p * 2^b > limit, without 2^b
        raise RetrievalError(
            f"b = {b} rounds on {pattern_set.p} patterns prepare a state of up to "
            f"p*2^b keys, above the limit of {MAX_PREPARED_KEYS} keys"
        )
    layout = retrieval_layout(pattern_set.n, b, use_input_register)
    circuit = preparation_circuit(pattern_set, input_pattern, layout, mask)
    bits = [0] * layout.total
    if use_input_register:
        start = layout.offset("input")
        bits[start : start + input_pattern.n] = input_pattern.bits
    return apply_circuit(basis_state(layout, bits), circuit)


def simulate_distribution(
    pattern_set: PatternSet,
    input_pattern: Pattern,
    b: int,
    mask: Mask | None = None,
    use_input_register: bool = True,
) -> Distribution:
    """Exact gate-level counterpart of :func:`analytic_distribution`, read
    from the prepared state by :func:`_postselected`."""
    state = prepare_final_state(pattern_set, input_pattern, b, mask, use_input_register)
    p_rec, values, probs = _postselected(state)
    support = patterns_from_keys(values, pattern_set.n)
    return Distribution(p_rec, pattern_set.p * p_rec, support, probs)


def _postselected(state: SparseState):
    """p_rec of a prepared state's all-zeros control outcome, its memory
    values in ascending order and their probabilities given it (the
    unnormalized sums when p_rec is 0), in one pass."""
    recognized = state.section_values("control") == 0
    weights = np.abs(state.amp_array[recognized]) ** 2
    values, sums = group_sum(state.section_values("memory")[recognized], weights)
    p_rec = float(np.sum(weights))
    if p_rec > 0:
        sums = sums / p_rec
    return p_rec, values, sums


@dataclass(frozen=True)
class SamplingTable:
    """What every retrieval attempt on one prepared state draws from.

    ``p_zero`` is the probability of the all-zeros control outcome, after
    the optimal Grover iterations in amplify mode.
    ``values`` are the memory-register values of the state post-selected on
    that outcome, in ascending order, and ``cdf`` their cumulative
    probabilities, as :func:`_postselected` gives them.
    One table serves every draw of a query; :func:`retrieve` turns a drawn
    value into its :class:`Pattern` once per query (see :class:`_Query`).
    """

    p_zero: float
    values: tuple[int, ...]
    cdf: tuple[float, ...]

    def sample_memory(self, rng) -> int:
        """Memory value of one measurement of the post-selected state."""
        i = bisect.bisect_right(self.cdf, rng.random())
        return self.values[min(i, len(self.values) - 1)]


class _Query:
    """The memo entry of one pattern set: its most recent query and what
    every draw of that query reads.

    ``key`` is (input, b, mask); neither ``T`` nor the mode enters it.
    ``table`` is the repeat-mode table and ``amplified`` the amplify-mode
    one, rotated from it on first use.  ``outputs`` maps each
    memory value drawn so far to its output :class:`Pattern`, built on the
    first draw of that value.  The closed form is held without its support,
    which is the set itself, and the :class:`Distribution` the reports
    share only through a weak reference: a value that referred to the set
    would keep its key in :data:`_LAST_TABLE` alive.
    """

    __slots__ = ("key", "law", "table", "amplified", "outputs", "shared")

    def __init__(self, key, analytic: Distribution, table: SamplingTable):
        self.key = key
        self.law = (analytic.p_rec, analytic.Z, analytic.prob_array)
        self.table = table
        self.amplified = None
        self.outputs = {}
        self.shared = weakref.ref(analytic)


def _prepared(
    pattern_set: PatternSet, input_pattern: Pattern, config: RetrievalConfig
) -> tuple[Distribution, SamplingTable, dict[int, Pattern]]:
    """The closed form, sampling table and output patterns of one query.

    Each live pattern set keeps the :class:`_Query` of its most recent
    (input, b, mask), so Monte-Carlo loops over one query
    prepare the state once, and a repeat call costs a dictionary lookup:
    it reuses the :class:`Distribution` of the query's reports while one
    of them is alive, and the amplified table once amplify mode has read
    it.  The output patterns are filled in by :func:`retrieve`.
    """
    key = (input_pattern, config.b, config.mask)
    query = _LAST_TABLE.get(pattern_set)
    if query is None or query.key != key:
        # a state past MAX_PREPARED_KEYS is refused before the closed form
        # could refuse an underflowed law, which needs a larger b
        table = _sampling_table(prepare_final_state(pattern_set, *key))
        analytic = analytic_distribution(pattern_set, input_pattern, config.b, config.mask)
        query = _Query(key, analytic, table)
        _LAST_TABLE[pattern_set] = query
    else:
        analytic = query.shared()
        if analytic is None:
            p_rec, Z, prob_array = query.law
            analytic = Distribution(p_rec, Z, pattern_set, prob_array)
            query.shared = weakref.ref(analytic)
    table = query.table
    if config.mode == "amplitude_amplify":
        if query.amplified is None:
            query.amplified = _amplified(table, analytic.p_rec)
        table = query.amplified
    return analytic, table, query.outputs


#: pattern set -> :class:`_Query` of its most recent query; entries die
#: with their set
_LAST_TABLE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _sampling_table(state: SparseState) -> SamplingTable:
    """The repeat-mode table of a prepared state."""
    p_rec, values, probs = _postselected(state)
    if p_rec < POSTSELECT_FLOOR:  # as postselect would: never recognized
        return SamplingTable(0.0, (), ())
    return SamplingTable(
        p_rec, tuple(values.tolist()), tuple(itertools.accumulate(probs.tolist()))
    )


def _amplified(table: SamplingTable, p_rec: float) -> SamplingTable:
    """The repeat-mode table after the optimal Grover iterations: they
    rotate p_zero and keep the memory law."""
    iterations = optimal_iterations(p_rec)
    if not table.values:
        raise RetrievalError(
            f"cannot amplify p_rec = {p_rec:.3g}: the recognized branch is "
            f"below the {POSTSELECT_FLOOR:g} post-selection floor"
        )
    theta = math.asin(math.sqrt(min(table.p_zero, 1.0)))
    p_zero = math.sin((2 * iterations + 1) * theta) ** 2
    return SamplingTable(p_zero, table.values, table.cdf)


def retrieve(
    pattern_set: PatternSet,
    input_pattern: Pattern,
    config: RetrievalConfig,
    rng,
) -> RetrievalReport:
    """Run the probabilistic retrieval protocol with threshold T.

    Every attempt re-runs the same deterministic preparation, so the final
    state is prepared once (see :func:`_prepared`) and each attempt draws a
    fresh control measurement from it: one draw per attempt, then one draw
    for the memory register of a recognized attempt.  Both modes prepare
    and memoise the same state, the input in its register;
    ``amplitude_amplify`` mode takes its recognition probability from the
    rotation law instead of running the iterations.
    Every report of one query shares the arrays of its closed form,
    read-only, and the reports alive at once share one
    :class:`Distribution`; each distinct output pattern is built once per
    query, so a repeat call draws in O(1) Python work.
    """
    analytic, table, outputs = _prepared(pattern_set, input_pattern, config)
    for attempt in range(1, config.T + 1):
        if rng.random() < table.p_zero:
            value = table.sample_memory(rng)
            output = outputs.get(value)
            if output is None:
                output = outputs[value] = Pattern.from_key(value, pattern_set.n)
            return RetrievalReport(True, attempt, output, analytic)
    return RetrievalReport(False, config.T, None, analytic)


@dataclass(frozen=True)
class AmplificationRun:
    success_probability: float
    state: SparseState


def optimal_iterations(p_rec: float) -> int:
    """Iteration count bringing the success amplitude closest to a right angle."""
    if p_rec <= 0:
        raise RetrievalError("cannot amplify zero success probability")
    theta = math.asin(math.sqrt(min(p_rec, 1.0)))
    return max(0, math.floor(math.pi / (4 * theta)))


def amplitude_amplify(
    pattern_set: PatternSet,
    input_pattern: Pattern,
    b: int,
    iterations: int,
    mask: Mask | None = None,
) -> AmplificationRun:
    """Grover-style amplification of the all-zeros control subspace.

    Uses the input-as-operator variant; the success probability after j
    iterations is sin^2((2j+1) theta) with sin^2(theta) the single-shot
    recognition probability under ``mask``.

    The preparation A runs once, giving |psi> = A|0...0>.  Since the
    reflection about |0...0> is S0 = I - 2|0...0><0...0|, the iteration
    Q = -A S0 A^-1 S equals -(I - 2|psi><psi|) S, with S the sign flip of
    the all-zeros control subspace; each iteration is therefore
    phi <- 2<psi|S phi> psi - S phi on psi's amplitude array.  The result
    lives on psi's keys (none is pruned) and agrees with the gate-level
    circuit to 1e-12 in every amplitude.
    """
    if iterations < 0:
        raise RetrievalError("iterations must be >= 0")
    psi = prepare_final_state(pattern_set, input_pattern, b, mask, use_input_register=False)
    good = psi.section_values("control") == 0
    amps = psi.amp_array
    for _ in range(iterations):
        flipped = np.where(good, -amps, amps)
        amps = 2 * np.vdot(psi.amp_array, flipped) * psi.amp_array - flipped
    state = SparseState.from_arrays(psi.layout, psi.key_array, amps)
    success = section_marginal(state, "control").get(0, 0.0)
    return AmplificationRun(success_probability=success, state=state)


def round_gate_count(n: int, use_input_register: bool = True) -> int:
    return 6 * n + 2 if use_input_register else 4 * n + 2


def amplify_preparation_gates(p: int, n: int, b: int) -> int:
    """Gates in the preparation that :func:`amplitude_amplify` runs: the
    memory circuit, then b rounds with the input coded as rotations."""
    return memory_gate_count(p, n) + b * round_gate_count(n, use_input_register=False)


def amplify_iteration_gates(p: int, n: int, b: int) -> int:
    """Gates in one Grover iteration of the algorithm's circuit: two
    reflections, each one ``PHASE0(pi)`` row on the first of its qubits
    with the others as controls that must hold 0, plus the preparation and
    its inverse (2*prep + 2).  This counts the circuit, not the simulator's
    work: :func:`amplitude_amplify` runs the iteration as one reflection
    about the prepared state."""
    return 2 * amplify_preparation_gates(p, n, b) + 2


def complexity_estimate(
    p: int, n: int, b: int, T: int, mode: str = "repeat_measure"
) -> int:
    """Gates the algorithm's circuit for a retrieval run has, counted as
    rows of the built gate tables, as :func:`~qamem.memory.memory_gate_count`
    counts its NXOR: T preparations in repeat mode, one and T Grover
    iterations (2*prep + 2 gates each, a reflection being one controlled
    ``PHASE0(pi)`` row) in amplify.  This is the circuit's size, not the
    simulator's work, which prepares each state once."""
    if min(p, n, b) < 1 or T < 0:
        raise RetrievalError("arguments must be positive (T >= 0)")
    if mode == "repeat_measure":
        return T * (memory_gate_count(p, n) + b * round_gate_count(n))
    if mode == "amplitude_amplify":
        return amplify_preparation_gates(p, n, b) + T * amplify_iteration_gates(p, n, b)
    raise RetrievalError(f"unknown mode {mode!r}")
