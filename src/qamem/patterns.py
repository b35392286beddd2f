"""Binary patterns, Hamming geometry, corruption/masking and pattern-file I/O.

A :class:`PatternSet` is a read-only (p, n) ``uint8`` bit matrix, one row
per stored pattern in file order.  Distances to an input are one numpy
pass over it (see :func:`~qamem.retrieval.analytic_distribution`), and
:func:`read_pattern_file` checks and builds it in one pass over the file.
The per-pattern views, a tuple of :class:`Pattern` objects and a tuple of
bit strings, are built from the matrix only when first asked for;
:func:`hamming` and :func:`hamming_masked` are the per-pair test oracles.

Conventions used throughout the package:

* bit 0 is the leftmost character of the text representation and the
  lowest-order qubit in register layouts;
* classical +-1 spins map to bits as ``s = 2*bit - 1``.

:class:`Pattern` applies them in ``as_key``, ``from_key``, ``to_spins``
and ``from_spins``, and :func:`patterns_from_keys` as ``from_key`` does.
Other modules apply them on their own:
:func:`qamem.simulator.basis_state`, :func:`qamem.simulator.postselect`
(given a bit string) and :func:`qamem.retrieval.prepare_final_state` put
bit j on qubit j, the circuit builders of :mod:`qamem.memory` and
:func:`qamem.retrieval.retrieval_round_circuit` write bit column j to
register qubit j, and :func:`qamem.classical.hebb` computes ``2*bit - 1``
on the bit matrix.
"""
from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class PatternError(ValueError):
    """Invalid pattern data."""


class RaggedFileError(PatternError):
    """Pattern file lines have unequal lengths."""


class NonBinaryError(PatternError):
    """Pattern contains characters other than '0'/'1'."""


class DuplicatePatternError(PatternError):
    """Pattern set contains a repeated pattern."""


#: the values a pattern bit may take
_BITS = frozenset((0, 1))


@dataclass(frozen=True)
class Pattern:
    """A fixed-length binary string.

    ``bits`` is a tuple of plain ``int`` 0s and 1s: integral bits of any
    type (``True``, ``np.uint8(1)``) are stored as ``int``, and any other
    bit, such as ``1.0``, is refused.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        try:
            bits = tuple(map(operator.index, self.bits))
        except TypeError:  # a bit that is no integer, such as 1.0
            bits = None
        if bits == ():
            raise PatternError("pattern must have length >= 1")
        if bits is None or not _BITS.issuperset(bits):
            raise NonBinaryError(f"pattern bits must be 0/1, got {self.bits}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _of_bits(cls, bits: tuple[int, ...]) -> "Pattern":
        """A pattern over ``bits``, already a non-empty tuple of int 0/1."""
        self = object.__new__(cls)
        object.__setattr__(self, "bits", bits)
        return self

    @property
    def n(self) -> int:
        return len(self.bits)

    @classmethod
    def from_string(cls, s: str) -> "Pattern":
        if not s or s.strip("01"):
            raise NonBinaryError(f"invalid pattern string {s!r}")
        return cls._of_bits(tuple(map(int, s)))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def as_key(self) -> int:
        """Integer with qubit j stored at bit position j (bit 0 = leftmost)."""
        k = 0
        for j, b in enumerate(self.bits):
            k |= b << j
        return k

    @classmethod
    def from_key(cls, key: int, n: int) -> "Pattern":
        """Inverse of :meth:`as_key` for an n-bit pattern; the key must lie
        in [0, 2^n)."""
        if n < 1:
            return cls(())  # refused: a pattern has length >= 1
        key = operator.index(key)
        if key < 0 or key >> n:
            raise PatternError(f"key {key} out of range for a {n}-bit pattern")
        return cls._of_bits(tuple((key >> j) & 1 for j in range(n)))

    def complement(self) -> "Pattern":
        return Pattern._of_bits(tuple(1 - b for b in self.bits))

    def to_spins(self) -> tuple[int, ...]:
        """Map to +-1 spins via s = 2*bit - 1."""
        return tuple(2 * b - 1 for b in self.bits)

    @classmethod
    def from_spins(cls, spins) -> "Pattern":
        return cls(tuple((int(s) + 1) // 2 for s in spins))


def patterns_from_keys(keys, n: int) -> tuple[Pattern, ...]:
    """The n-bit patterns of an array of keys in [0, 2^n), in order, as
    :meth:`Pattern.from_key` gives them, read in one shift-and-mask pass
    over the keys: as ``int64`` up to n = 62, as Python ints (an object
    array) past it."""
    if n < 1:
        raise PatternError("pattern must have length >= 1")
    keys = np.asarray(keys, dtype=np.int64 if n <= 62 else object)
    if ((keys >> n) != 0).any():
        raise PatternError(f"keys out of range for {n}-bit patterns")
    bits = (keys[:, None] >> np.arange(n)) & 1
    return tuple(map(Pattern._of_bits, map(tuple, bits.tolist())))


class PatternSet:
    """Ordered collection of equal-length, pairwise-distinct patterns.

    ``bits`` is the read-only (p, n) ``uint8`` matrix of the set: row k is
    pattern k, column j its bit j.  Equality and hash are by value, over
    the matrix (so over n, p and the order), and no attribute can be
    assigned.  ``patterns`` and ``strings`` are built from it on first use.
    """

    def __init__(self, patterns):
        patterns = tuple(patterns)
        if len(patterns) < 1:
            raise PatternError("pattern set must contain at least one pattern")
        n = patterns[0].n
        if any(p.n != n for p in patterns):
            raise RaggedFileError("patterns must all have the same length")
        rows = [bytes(p.bits) for p in patterns]
        if len(set(rows)) != len(rows):
            raise DuplicatePatternError("pattern set contains duplicates")
        self._set_bits(np.frombuffer(b"".join(rows), np.uint8).reshape(-1, n))
        self.__dict__["patterns"] = patterns

    @classmethod
    def _from_validated(cls, bits: np.ndarray, strings: tuple[str, ...]):
        """A set over the (p, n) rows ``bits``, already checked distinct."""
        self = cls.__new__(cls)
        self._set_bits(bits)
        self.__dict__["strings"] = strings
        return self

    def _set_bits(self, bits: np.ndarray) -> None:
        bits.flags.writeable = False
        self.__dict__["bits"] = bits
        self.__dict__["_hash"] = hash((bits.shape, bits.tobytes()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: PatternSet is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: PatternSet is immutable")

    @cached_property
    def patterns(self) -> tuple[Pattern, ...]:
        return tuple(Pattern._of_bits(tuple(row)) for row in self.bits.tolist())

    @cached_property
    def strings(self) -> tuple[str, ...]:
        """Text form of each pattern ('0'/'1' characters), in set order."""
        text = (self.bits + ord("0")).tobytes().decode("ascii")
        return tuple(text[i : i + self.n] for i in range(0, len(text), self.n))

    @property
    def n(self) -> int:
        return self.bits.shape[1]

    @property
    def p(self) -> int:
        return self.bits.shape[0]

    def __iter__(self):
        return iter(self.patterns)

    def __getitem__(self, i) -> Pattern:
        return self.patterns[i]

    def __eq__(self, other):
        if other is self:  # the memo lookups of retrieval compare a set with itself
            return True
        if not isinstance(other, PatternSet):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            (self.bits == other.bits).all()
        )

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Mask:
    """Set of known qubit indices for partial inputs."""

    known: frozenset[int]

    def __post_init__(self):
        if not self.known:
            raise PatternError("mask must be non-empty")
        if not all(isinstance(i, numbers.Integral) for i in self.known):
            raise PatternError("mask indices must be integers")
        if any(i < 0 for i in self.known):
            raise PatternError("mask indices must be non-negative")

    def validate(self, n: int) -> None:
        if any(i >= n for i in self.known):
            raise PatternError(f"mask index out of range for n={n}")

    @classmethod
    def of(cls, *indices: int) -> "Mask":
        return cls(frozenset(indices))


def hamming(a: Pattern, b: Pattern) -> int:
    """Number of positions where a and b differ.

    A test oracle: the tests check the one-pass distances over a bit matrix
    against it, one pair at a time.
    """
    if a.n != b.n:
        raise PatternError(f"length mismatch: {a.n} != {b.n}")
    return sum(x != y for x, y in zip(a.bits, b.bits))


def hamming_masked(a: Pattern, b: Pattern, mask: Mask) -> int:
    """Hamming distance counting only the mask's known indices.

    A test oracle, as :func:`hamming` is for masked distances.
    """
    if a.n != b.n:
        raise PatternError(f"length mismatch: {a.n} != {b.n}")
    mask.validate(a.n)
    return sum(a.bits[i] != b.bits[i] for i in mask.known)


def corrupt(p: Pattern, k: int, rng) -> Pattern:
    """Flip exactly k distinct uniformly chosen positions of p."""
    if k < 0 or k > p.n:
        raise PatternError(f"cannot flip {k} of {p.n} bits")
    if k == 0:
        return p
    positions = rng.choice(p.n, size=k, replace=False)
    bits = list(p.bits)
    for i in positions:
        bits[i] ^= 1
    return Pattern(tuple(bits))


def read_pattern_file(path) -> PatternSet:
    """Parse a pattern file: one '0'/'1' line per pattern, newline-terminated.

    Lines end in LF or CRLF; the file is read without newline translation
    and each CRLF taken as LF, so a lone CR stays in its line and is
    refused there as a non-binary character.  A good file is checked in
    one numpy pass over the whole buffer: equal lines of ASCII '0'/'1'
    characters, each ended by a newline, and no line repeated; the bit
    matrix is built from the same buffer.  Only when that fails are the
    lines checked one by one, so an error names the first bad line.
    """
    text = Path(path).read_bytes().decode("utf-8").replace("\r\n", "\n")
    if not text:
        raise PatternError(f"{path}: empty pattern file")
    lines = text.split("\n")
    last = lines.pop()  # what follows the last newline: empty in a good file
    if last:
        if "\r" not in last:
            raise PatternError(f"{path}: missing trailing newline")
        lines.append(last)  # a final line ended by a lone CR
    n = len(lines[0])
    if n and text.isascii() and len(text) == len(lines) * (n + 1):
        grid = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(len(lines), n + 1)
        chars = grid[:, :n]
        if (
            (grid[:, n] == ord("\n")).all()
            and ((chars | 1) == ord("1")).all()  # '0' | 1 == '1' | 1 == '1'
            and len(set(lines)) == len(lines)
        ):
            return PatternSet._from_validated(chars - ord("0"), tuple(lines))
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if not line:
            raise PatternError(f"{path}:{lineno}: blank line")
        if line.strip("01"):
            raise NonBinaryError(f"{path}:{lineno}: non-binary character in {line!r}")
        if len(line) != n:
            raise RaggedFileError(f"{path}:{lineno}: length {len(line)} != {n}")
        if line in seen:
            raise DuplicatePatternError(f"{path}:{lineno}: duplicate pattern {line}")
        seen.add(line)
    raise AssertionError(f"{path}: the line loop accepts a file the buffer check refused")
