import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qamem.patterns import (
    DuplicatePatternError,
    Mask,
    NonBinaryError,
    Pattern,
    PatternError,
    PatternSet,
    RaggedFileError,
    corrupt,
    hamming,
    hamming_masked,
    patterns_from_keys,
    read_pattern_file,
)


def P(s):
    return Pattern.from_string(s)


class TestPattern:
    def test_roundtrip_string(self):
        assert str(P("0110")) == "0110"

    def test_rejects_empty_and_nonbinary(self):
        with pytest.raises(PatternError):
            Pattern.from_string("")
        with pytest.raises(PatternError, match="pattern must have length >= 1"):
            Pattern(())
        with pytest.raises(NonBinaryError):
            Pattern.from_string("01x")
        with pytest.raises(NonBinaryError):
            Pattern((0, 2))

    def test_non_integral_bits_refused(self):
        """A float bit is refused, even one equal to 0 or 1: it used to
        print as "1.00.0" and fail later in as_key and PatternSet."""
        for bits in ((1.0, 0.0), (0, 1.0), (np.float64(1.0),), ("0", "1"), (0.5,)):
            with pytest.raises(NonBinaryError, match="pattern bits must be 0/1"):
                Pattern(bits)

    def test_integral_bits_stored_as_int(self):
        """True/False and numpy integers are stored as plain ints, so a
        pattern prints, keys and compares as its int twin."""
        for bits in ((True, False, True), (np.uint8(1), np.int64(0), 1)):
            pat = Pattern(bits)
            assert all(type(b) is int for b in pat.bits)
            assert pat == P("101") and hash(pat) == hash(P("101"))
            assert str(pat) == "101" and pat.as_key() == 5
            assert PatternSet((pat, P("011"))).strings == ("101", "011")
        with pytest.raises(NonBinaryError):
            Pattern((True, 2))
        for pat in (P("0110"), Pattern.from_key(np.int64(6), 4), P("1001").complement()):
            assert pat == Pattern((0, 1, 1, 0))
            assert all(type(b) is int for b in pat.bits)

    def test_key_uses_low_bit_for_leftmost_char(self):
        assert P("100").as_key() == 1
        assert P("001").as_key() == 4
        assert P("110").as_key() == 3

    def test_complement(self):
        assert P("0101").complement() == P("1010")

    @pytest.mark.parametrize("key, n", [(-1, 3), (8, 3), (2**62, 62), (-1, 70), (2**70, 70)])
    def test_out_of_range_key_refused(self, key, n):
        """A key outside [0, 2^n) has no n-bit pattern: -1 and 8 are not the
        3-bit patterns 111 and 000."""
        with pytest.raises(PatternError, match="out of range"):
            Pattern.from_key(key, n)
        with pytest.raises(PatternError, match="out of range"):
            patterns_from_keys(np.array([0, key], dtype=object if n > 62 else np.int64), n)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_patterns_from_keys_match_from_key(self, data):
        """One shift-and-mask pass over a key array gives from_key's
        patterns in order, on int64 keys and on object keys, past bit 62."""
        n = data.draw(st.integers(1, 8) | st.integers(60, 70))
        keys = data.draw(st.lists(st.integers(0, 2**n - 1), max_size=12))
        wide = n > 62 or data.draw(st.booleans())
        got = patterns_from_keys(np.array(keys, dtype=object if wide else np.int64), n)
        assert got == tuple(Pattern.from_key(k, n) for k in keys)
        assert all(type(b) is int for pat in got for b in pat.bits)

    def test_spin_mapping_roundtrip(self):
        pat = P("0110")
        assert pat.to_spins() == (-1, 1, 1, -1)
        assert Pattern.from_spins(pat.to_spins()) == pat


class TestPatternSet:
    def test_rejects_duplicates_and_ragged(self):
        with pytest.raises(DuplicatePatternError):
            PatternSet((P("01"), P("01")))
        with pytest.raises(RaggedFileError):
            PatternSet((P("01"), P("011")))

    def test_rejects_more_than_basis(self):
        pats = tuple(P(format(i, "02b")) for i in range(4))
        PatternSet(pats)  # exactly 2^n is fine
        with pytest.raises(PatternError):
            PatternSet(())


class TestHamming:
    def test_examples(self):
        assert hamming(P("0000"), P("0000")) == 0
        assert hamming(P("1010"), P("0101")) == 4
        assert hamming(P("110"), P("100")) == 1

    def test_length_mismatch(self):
        with pytest.raises(PatternError):
            hamming(P("01"), P("011"))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_metric_axioms_exhaustive(self, n):
        pats = [Pattern(bits) for bits in itertools.product((0, 1), repeat=n)]
        for a in pats:
            for b in pats:
                d = hamming(a, b)
                assert d >= 0
                assert (d == 0) == (a == b)
                assert d == hamming(b, a)
                for c in pats:
                    assert hamming(a, c) <= d + hamming(b, c)

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = Pattern(tuple(rng.integers(0, 2, size=5)))
            b = Pattern(tuple(rng.integers(0, 2, size=5)))
            assert hamming(a, b) + hamming(a, b.complement()) == 5


class TestMasked:
    def test_examples(self):
        assert hamming_masked(P("10"), P("11"), Mask.of(0)) == 0
        assert hamming_masked(P("10"), P("11"), Mask.of(0, 1)) == 1
        assert hamming_masked(P("1100"), P("0011"), Mask.of(1, 2)) == 2

    def test_full_mask_equals_hamming(self):
        a, b = P("10110"), P("01101")
        assert hamming_masked(a, b, Mask.of(*range(5))) == hamming(a, b)

    def test_mask_validation(self):
        with pytest.raises(PatternError):
            Mask.of()
        with pytest.raises(PatternError):
            Mask.of(-1)
        with pytest.raises(PatternError):
            Mask.of(5).validate(3)
        for index in (1.5, 2.0, np.float64(1.0), "1"):
            with pytest.raises(PatternError, match="mask indices must be integers"):
                Mask.of(0, index)
        assert Mask.of(np.int64(2)) == Mask.of(2)


class TestCorrupt:
    def test_zero_and_full(self):
        rng = np.random.default_rng(0)
        assert corrupt(P("1010"), 0, rng) == P("1010")
        assert corrupt(P("1111"), 4, rng) == P("0000")

    def test_distance_equals_k(self):
        rng = np.random.default_rng(7)
        pat = P("101010")
        out = corrupt(pat, 2, rng)
        assert hamming(pat, out) == 2

    def test_double_corruption_restores(self):
        class FixedRng:
            def choice(self, n, size, replace):
                return list(range(size))

        pat = P("110011")
        once = corrupt(pat, 3, FixedRng())
        assert corrupt(once, 3, FixedRng()) == pat

    def test_k_out_of_range(self):
        with pytest.raises(PatternError):
            corrupt(P("01"), 3, np.random.default_rng(0))


class TestFileIO:
    def test_parse(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("01\n10\n")
        ps = read_pattern_file(f)
        assert [str(p) for p in ps] == ["01", "10"]

    def test_error_kinds_name_line(self, tmp_path):
        cases = [
            ("01\n01\n", DuplicatePatternError, ":2:"),
            ("01\n011\n", RaggedFileError, ":2:"),
            ("01\n0a\n", NonBinaryError, ":2:"),
            ("01\n\n10\n", PatternError, ":2:"),
        ]
        for text, err, needle in cases:
            f = tmp_path / "bad.txt"
            f.write_text(text)
            with pytest.raises(err) as exc_info:
                read_pattern_file(f)
            assert needle in str(exc_info.value)

    def test_missing_trailing_newline(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("01")
        with pytest.raises(PatternError, match="missing trailing newline"):
            read_pattern_file(f)

    @pytest.mark.parametrize(
        "data, error, message",
        [
            # universal newlines: a CRLF file reads as its LF twin
            (b"01\r\n10\r\n01\r\n", DuplicatePatternError, ":3: duplicate pattern 01"),
            (b"01\r\n011\r\n", RaggedFileError, ":2: length 3 != 2"),
            ("01\n0\u00e9\n".encode(), NonBinaryError, ":2: non-binary character in '0\u00e9'"),
            ("\uff10\uff11\n".encode(), NonBinaryError, ":1: non-binary character in '\uff10\uff11'"),
            (b"01\n011\n", RaggedFileError, ":2: length 3 != 2"),
            # as many characters as three good lines, cut elsewhere
            (b"01\n011\n0\n", RaggedFileError, ":2: length 3 != 2"),
            (b"011\n01\n", RaggedFileError, ":2: length 2 != 3"),
            (b"01\n10\n01\n", DuplicatePatternError, ":3: duplicate pattern 01"),
            (b"0\n1\n1\n0\n", DuplicatePatternError, ":3: duplicate pattern 1"),
        ],
    )
    def test_error_texts(self, tmp_path, data, error, message):
        """A file that fails the whole-buffer check gets the per-line error
        text, naming the first bad line."""
        f = tmp_path / "p.txt"
        f.write_bytes(data)
        with pytest.raises(error) as exc_info:
            read_pattern_file(f)
        assert str(exc_info.value) == f"{f}{message}"

    def test_crlf_file_reads_as_lf(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_bytes(b"011\r\n110\r\n")
        ps = read_pattern_file(f)
        assert ps.strings == ("011", "110") and ps.bits.tolist() == [[0, 1, 1], [1, 1, 0]]
        f.write_bytes(b"011\n110\r\n101\n")  # mixed line ends
        assert read_pattern_file(f).strings == ("011", "110", "101")

    @pytest.mark.parametrize(
        "data, message",
        [
            # a lone CR does not end a line: these read as one pattern each
            # under universal newlines
            (b"01\r10\n", ":1: non-binary character in '01\\r10'"),
            (b"01\r\n10\r\r\n", ":2: non-binary character in '10\\r'"),
            # a lone CR on the last line, ended by it or in its middle
            (b"01\n10\r", ":2: non-binary character in '10\\r'"),
            (b"01\r\n10\r", ":2: non-binary character in '10\\r'"),
            (b"01\n1\r0\n", ":2: non-binary character in '1\\r0'"),
            (b"\r", ":1: non-binary character in '\\r'"),
        ],
    )
    def test_lone_cr_refused(self, tmp_path, data, message):
        f = tmp_path / "p.txt"
        f.write_bytes(data)
        with pytest.raises(NonBinaryError) as exc_info:
            read_pattern_file(f)
        assert str(exc_info.value) == f"{f}{message}"

    @pytest.mark.parametrize("text, message", [("", "empty pattern file$"), ("\n", ":1: blank line$")])
    def test_empty_file(self, tmp_path, text, message):
        f = tmp_path / "p.txt"
        f.write_text(text)
        with pytest.raises(PatternError, match=message):
            read_pattern_file(f)


def first_file_error(lines):
    """(error type, line number) of the first bad line, checked one line at
    a time as the parser has always done; (None, None) for a good file."""
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if not line:
            return PatternError, lineno
        if line.strip("01"):
            return NonBinaryError, lineno
        if len(line) != len(lines[0]):
            return RaggedFileError, lineno
        if line in seen:
            return DuplicatePatternError, lineno
        seen.add(line)
    return None, None


@st.composite
def good_lines(draw, max_n=8, max_p=12):
    n = draw(st.integers(1, max_n))
    keys = draw(
        st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=max_p, unique=True)
    )
    return [str(Pattern.from_key(k, n)) for k in keys]


@st.composite
def faulty_lines(draw):
    """A good file with one planted fault at a drawn line."""
    lines = draw(good_lines())
    fault = draw(st.sampled_from(["blank", "non-binary", "ragged", "duplicate"]))
    k = draw(st.integers(0, len(lines)))
    if fault == "blank":
        lines.insert(k, "")
    elif fault == "duplicate":
        lines.insert(k, lines[draw(st.integers(0, len(lines) - 1))])
    elif fault == "ragged":
        n = len(lines[0])
        size = draw(st.integers(1, n + 2).filter(lambda size: size != n))
        lines.insert(k, draw(st.text("01", min_size=size, max_size=size)))
    else:  # a character replaced, or inserted so that the line is ragged too
        k = min(k, len(lines) - 1)
        j = draw(st.integers(0, len(lines[k]) - 1))
        rest = lines[k][j + draw(st.integers(0, 1)) :]
        lines[k] = lines[k][:j] + draw(st.sampled_from("2a x\t")) + rest
    return lines


class TestBitMatrixSet:
    @settings(max_examples=200, deadline=None)
    @given(lines=faulty_lines())
    def test_planted_fault_reported_at_first_bad_line(self, tmp_path_factory, lines):
        f = tmp_path_factory.mktemp("faulty") / "p.txt"
        f.write_text("".join(line + "\n" for line in lines))
        err, lineno = first_file_error(lines)
        assert err is not None
        with pytest.raises(PatternError) as exc_info:
            read_pattern_file(f)
        assert type(exc_info.value) is err
        assert f"{f}:{lineno}: " in str(exc_info.value)

    @settings(max_examples=100, deadline=None)
    @given(lines=good_lines())
    def test_views_agree(self, tmp_path_factory, lines):
        f = tmp_path_factory.mktemp("good") / "p.txt"
        f.write_text("".join(line + "\n" for line in lines))
        read = read_pattern_file(f)
        built = PatternSet(tuple(P(s) for s in lines))
        for ps in (read, built):
            assert ps.bits.dtype == np.uint8
            assert ps.bits.shape == (len(lines), len(lines[0]))
            assert not ps.bits.flags.writeable
            assert ps.strings == tuple(lines)
            assert ps.patterns == tuple(P(s) for s in lines)
            assert ps.bits.tolist() == [list(pat.bits) for pat in ps.patterns]
            assert (ps.p, ps.n) == ps.bits.shape
        # equal sets compare and hash equal, whichever way they were built
        assert read == built and hash(read) == hash(built)
        assert len({read, built}) == 1
        if len(lines) > 1:
            swapped = PatternSet(tuple(P(s) for s in lines[1:] + lines[:1]))
            assert swapped != read

    def test_value_semantics(self):
        a = PatternSet((P("01"), P("10")))
        assert a == PatternSet((P("01"), P("10")))
        assert a != PatternSet((P("01"),))
        assert a != PatternSet((P("011"), P("100")))
        assert a != PatternSet((P("10"), P("01")))
        assert a != (P("01"), P("10"))
        assert list(a) == [P("01"), P("10")] and a[1] == P("10")
        for name in ("bits", "patterns", "strings", "_hash"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(ValueError):
            a.bits[0, 0] = 1
        b = PatternSet((P("01"), P("10")))
        assert a == b and hash(a) == hash(b)
