"""Binary patterns, Hamming geometry, corruption/masking and pattern-file I/O.

Conventions used throughout the package:

* bit 0 is the leftmost character of the text representation and the
  lowest-order qubit in register layouts;
* classical +-1 spins map to bits as ``s = 2*bit - 1``.

Both conventions live here and nowhere else.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


class PatternError(ValueError):
    """Invalid pattern data."""


class RaggedFileError(PatternError):
    """Pattern file lines have unequal lengths."""


class NonBinaryError(PatternError):
    """Pattern contains characters other than '0'/'1'."""


class DuplicatePatternError(PatternError):
    """Pattern set contains a repeated pattern."""


@dataclass(frozen=True)
class Pattern:
    """A fixed-length binary string."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise PatternError("pattern must have length >= 1")
        if any(b not in (0, 1) for b in self.bits):
            raise NonBinaryError(f"pattern bits must be 0/1, got {self.bits}")

    @property
    def n(self) -> int:
        return len(self.bits)

    @classmethod
    def from_string(cls, s: str) -> "Pattern":
        if not s or s.strip("01"):
            raise NonBinaryError(f"invalid pattern string {s!r}")
        return cls(tuple(map(int, s)))

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
        """Inverse of :meth:`as_key` for an n-bit pattern."""
        return cls(tuple((key >> j) & 1 for j in range(n)))

    def complement(self) -> "Pattern":
        return Pattern(tuple(1 - b for b in self.bits))

    def to_spins(self) -> tuple[int, ...]:
        """Map to +-1 spins via s = 2*bit - 1."""
        return tuple(2 * b - 1 for b in self.bits)

    @classmethod
    def from_spins(cls, spins) -> "Pattern":
        return cls(tuple((int(s) + 1) // 2 for s in spins))


@dataclass(frozen=True)
class PatternSet:
    """Ordered collection of equal-length, pairwise-distinct patterns."""

    patterns: tuple[Pattern, ...]

    def __post_init__(self):
        if len(self.patterns) < 1:
            raise PatternError("pattern set must contain at least one pattern")
        n = self.patterns[0].n
        if any(p.n != n for p in self.patterns):
            raise RaggedFileError("patterns must all have the same length")
        if len(set(self.patterns)) != len(self.patterns):
            raise DuplicatePatternError("pattern set contains duplicates")
        if len(self.patterns) > 2**n:
            raise PatternError("more patterns than basis states")

    @property
    def n(self) -> int:
        return self.patterns[0].n

    @property
    def p(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def __getitem__(self, i) -> Pattern:
        return self.patterns[i]


@dataclass(frozen=True)
class Mask:
    """Set of known qubit indices for partial inputs."""

    known: frozenset[int]

    def __post_init__(self):
        if not self.known:
            raise PatternError("mask must be non-empty")
        if any(i < 0 for i in self.known):
            raise PatternError("mask indices must be non-negative")

    def validate(self, n: int) -> None:
        if any(i >= n for i in self.known):
            raise PatternError(f"mask index out of range for n={n}")

    @classmethod
    def of(cls, *indices: int) -> "Mask":
        return cls(frozenset(indices))


def hamming(a: Pattern, b: Pattern) -> int:
    """Number of positions where a and b differ."""
    if a.n != b.n:
        raise PatternError(f"length mismatch: {a.n} != {b.n}")
    return sum(x != y for x, y in zip(a.bits, b.bits))


def hamming_masked(a: Pattern, b: Pattern, mask: Mask) -> int:
    """Hamming distance counting only the mask's known indices."""
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
    """Parse a pattern file: one '0'/'1' line per pattern, newline-terminated."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise PatternError(f"{path}: missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise PatternError(f"{path}: empty pattern file")
    patterns = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if not line:
            raise PatternError(f"{path}:{lineno}: blank line")
        if line.strip("01"):
            raise NonBinaryError(f"{path}:{lineno}: non-binary character in {line!r}")
        if len(line) != len(lines[0]):
            raise RaggedFileError(
                f"{path}:{lineno}: length {len(line)} != {len(lines[0])}"
            )
        if line in seen:
            raise DuplicatePatternError(f"{path}:{lineno}: duplicate pattern {line}")
        seen.add(line)
        patterns.append(Pattern.from_string(line))
    return PatternSet(tuple(patterns))


def write_pattern_file(pattern_set: PatternSet, path) -> None:
    """Write the canonical text form (round-trips with read_pattern_file)."""
    Path(path).write_text(
        "".join(str(p) + "\n" for p in pattern_set), encoding="utf-8"
    )
