"""Every text artifact reader fails only with a ParseError naming path and line."""
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from negmine.candidates import read_candidates_tsv
from negmine.config import parse_config_file
from negmine.evaluation import read_trials_tsv
from negmine.ioutil import ParseError, read_lines
from negmine.kb import load_tsv
from negmine.rankers import read_ranked_tsv
from negmine.samplers import load_antonyms

# Each reader with one line it accepts.
READERS = {
    "load_tsv": (load_tsv, b"IsA\ta cat\tan animal\n"),
    "read_candidates_tsv": (
        read_candidates_tsv,
        b"IsA\ta dog\tan animal\ta cat\tan animal\thead\t1\n",
    ),
    "read_ranked_tsv": (read_ranked_tsv, b"1\tIsA\ta dog\tan animal\t0.5\tgrad\n"),
    "read_trials_tsv": (read_trials_tsv, b"uniform\t1\t0.5\tNA\t0.25\n"),
    "load_antonyms": (load_antonyms, b"hot\tadjective\tcold,cool\n"),
    "parse_config_file": (parse_config_file, b"epochs = 3\n"),
}

# Pieces from which the structured fuzz lines are built: every reader's field
# separators, keywords and numbers, plus bytes that are not UTF-8.
PIECES = [
    b"\t", b"\n", b"\r\n", b"\r", b" ", b"#", b"=", b",", b"0", b"1", b"2", b"-1", b"0.5",
    b"nan", b"inf", b"NA", b"IsA", b"a", b"b c", b"head", b"tail", b"grad", b"theta",
    b"uniform", b"adjective", b"epochs", b"kb", b"\xff", b"\xc3", b"\xe9", b"\xed\xa0\x80",
    b"\x00", b"\xc3\xa9", b"\x0b",
]
FILE_BYTES = st.one_of(
    st.binary(max_size=300),
    st.lists(st.sampled_from(PIECES), max_size=60).map(b"".join),
)


def assert_line_error(exc: ParseError, path, data: bytes) -> None:
    """The message starts with `path:line:` for a line that exists."""
    match = re.match(re.escape(str(path)) + r":(\d+): ", str(exc))
    assert match, str(exc)
    line_no = int(match.group(1))
    assert line_no == exc.line_no
    assert 1 <= line_no <= len(data.decode("utf-8", "replace").splitlines())


@pytest.mark.parametrize("name", sorted(READERS))
class TestEveryReader:
    def test_accepts_its_line(self, tmp_path, name):
        reader, line = READERS[name]
        path = tmp_path / "in.txt"
        path.write_bytes(b"# comment\n\n" + line)
        assert reader(path)

    @pytest.mark.parametrize(
        "before, line_no",
        # 2000 comment lines put the bad byte far past the decoder's first
        # block, whose error names no line.
        [("nothing", 1), ("a good line and a blank", 3), ("2000 comments", 2001)],
    )
    def test_undecodable_byte_names_its_line(self, tmp_path, name, before, line_no):
        reader, line = READERS[name]
        prefix = {
            "nothing": b"",
            "a good line and a blank": line + b"\n",
            "2000 comments": b"#\n" * 2000,
        }[before]
        path = tmp_path / "in.txt"
        path.write_bytes(prefix + b"caf\xe9\tx\n")
        message = rf"in\.txt:{line_no}: byte 0xe9 at column 4 is not UTF-8"
        with pytest.raises(ParseError, match=message):
            reader(path)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=FILE_BYTES)
    def test_arbitrary_bytes_raise_only_parse_errors(self, tmp_path, name, data):
        reader, _ = READERS[name]
        path = tmp_path / "fuzz.txt"
        path.write_bytes(data)
        try:
            reader(path)
        except ParseError as exc:
            assert_line_error(exc, path, data)


class TestReadLines:
    def test_skips_blank_and_comment_lines_and_counts_them(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("# head\n\n  \n  # indented\nx\ty\n", encoding="utf-8")
        assert list(read_lines(path, tuple, 2)) == [(5, ("x", "y"))]

    def test_crlf_lines_read_as_lf(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_bytes(b"x\ty\r\nz\tw\r\n")
        assert [v for _, v in read_lines(path, tuple, 2)] == [("x", "y"), ("z", "w")]

    def test_field_count_and_conversion_errors_carry_line(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("1\t2\n3\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"a\.tsv:2: expected 2 fields, got 1"):
            list(read_lines(path, tuple, 2))
        path.write_text("1\n\nx\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"a\.tsv:3: invalid literal"):
            list(read_lines(path, int))


# A good candidate line, then each way a line can be bad, with the exact
# message the reader reports for it.
GOOD_CANDIDATE = "R\ta b\tc\ta d\tc\thead\t1\n"
BAD_CANDIDATES = {
    "field count": ("R\ta\tc\ta\td\thead\n", "expected 7 fields, got 6"),
    "rank not an integer": ("R\tx\tc\ta d\tc\thead\tone\n", "bad neighbor_rank 'one'"),
    "rank a float": ("R\tx\tc\ta d\tc\thead\t1.0\n", "bad neighbor_rank '1.0'"),
    "rank 0": ("R\tx\tc\ta d\tc\thead\t0\n", "neighbor_rank is 1-based"),
    "unknown slot": ("R\tx\tc\ta d\tc\tmiddle\t1\n", "unknown slot 'middle'"),
    "empty head": ("R\t\tc\ta d\tc\thead\t1\n", "phrase must have at least one token"),
    "blank tail": ("R\tx\t  \ta d\tc\thead\t1\n", "phrase must have at least one token"),
    "empty source": ("R\tx\tc\t\tc\thead\t1\n", "phrase must have at least one token"),
    "repeated triple": (GOOD_CANDIDATE, "duplicate candidate triple 'R' 'a b' 'c'"),
    "case and spacing variant": (
        "R\tA  b\tC\ta e\tc\thead\t2\n",
        "duplicate candidate triple 'R' 'A  b' 'C'",
    ),
}


class TestCandidateReaderFailsClosed:
    """Each bad line fails at its own line with its own message, and the
    first bad line of a file is the one reported."""

    @pytest.mark.parametrize("case", sorted(BAD_CANDIDATES))
    def test_bad_line_named(self, tmp_path, case):
        line, message = BAD_CANDIDATES[case]
        path = tmp_path / "cands.tsv"
        path.write_text("# candidates\n" + GOOD_CANDIDATE + line, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_candidates_tsv(path)
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("case", sorted(BAD_CANDIDATES))
    def test_first_of_two_bad_lines(self, tmp_path, case):
        line, message = BAD_CANDIDATES[case]
        path = tmp_path / "cands.tsv"
        later = "R\tz\tc\ta d\tc\ttail\t-1\n"
        path.write_text(GOOD_CANDIDATE + line + later + "R\tx\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_candidates_tsv(path)
        assert str(info.value) == f"{path}:2: {message}"

    def test_undecodable_byte(self, tmp_path):
        path = tmp_path / "cands.tsv"
        path.write_bytes(GOOD_CANDIDATE.encode() + b"R\tcaf\xe9\tc\ta d\tc\thead\t1\n")
        with pytest.raises(ParseError) as info:
            read_candidates_tsv(path)
        assert str(info.value) == f"{path}:2: byte 0xe9 at column 6 is not UTF-8"

    def test_rank_beyond_int64(self, tmp_path):
        path = tmp_path / "cands.tsv"
        path.write_text("R\tx\tc\ta d\tc\thead\t9223372036854775808\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_candidates_tsv(path)
        assert str(info.value) == f"{path}:1: neighbor_rank 9223372036854775808 out of range"


# A good ranked line, then each way a line can be bad, with the exact message
# the reader reports for it.
GOOD_RANKED = "1\tR\ta b\tc\t0.5\tgrad\n"
BAD_RANKED = {
    "field count": ("2\tR\tx\tc\t0.5\n", "expected 6 fields, got 5"),
    "rank not an integer": (
        "two\tR\tx\tc\t0.5\tgrad\n",
        "invalid literal for int() with base 10: 'two'",
    ),
    "rank 0": ("0\tR\tx\tc\t0.5\tgrad\n", "rank 0 repeated or below 1"),
    "repeated rank": ("1\tR\tx\tc\t0.5\tgrad\n", "rank 1 repeated or below 1"),
    "empty head": ("2\tR\t\tc\t0.5\tgrad\n", "phrase must have at least one token"),
    "key not a number": ("2\tR\tx\tc\thigh\tgrad\n", "could not convert string to float: 'high'"),
    "repeated triple": ("2\tR\ta b\tc\t0.4\tgrad\n", "duplicate triple 'R' 'a b' 'c'"),
    "case and spacing variant": ("2\tR\tA  b\tC\t0.4\tgrad\n", "duplicate triple 'R' 'A  b' 'C'"),
    "unknown method": ("2\tR\tx\tc\t0.5\tmagic\n", "unknown ranking method 'magic'"),
    "nan key": ("2\tR\tx\tc\tnan\tgrad\n", "non-finite ranking key nan at rank 2"),
    "inf key": ("2\tR\tx\tc\tinf\tgrad\n", "non-finite ranking key inf at rank 2"),
    "-inf key": ("2\tR\tx\tc\t-inf\ttheta\n", "non-finite ranking key -inf at rank 2"),
}


class TestRankedReaderFailsClosed:
    """Each bad line fails at its own line with its own message, and the
    first bad line of a file is the one reported."""

    @pytest.mark.parametrize("case", sorted(BAD_RANKED))
    def test_bad_line_named(self, tmp_path, case):
        line, message = BAD_RANKED[case]
        path = tmp_path / "ranked.tsv"
        path.write_text("# ranked\n" + GOOD_RANKED + line, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_ranked_tsv(path)
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("case", sorted(BAD_RANKED))
    def test_first_of_two_bad_lines(self, tmp_path, case):
        line, message = BAD_RANKED[case]
        path = tmp_path / "ranked.tsv"
        later = "3\tR\tz\tc\tnan\tgrad\n"
        path.write_text(GOOD_RANKED + line + later + "R\tx\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_ranked_tsv(path)
        assert str(info.value) == f"{path}:2: {message}"

    def test_undecodable_byte(self, tmp_path):
        path = tmp_path / "ranked.tsv"
        path.write_bytes(GOOD_RANKED.encode() + b"2\tR\tcaf\xe9\tc\t0.5\tgrad\n")
        with pytest.raises(ParseError) as info:
            read_ranked_tsv(path)
        assert str(info.value) == f"{path}:2: byte 0xe9 at column 8 is not UTF-8"

    @pytest.mark.parametrize(
        "ranks, line_no, message",
        [
            ((1, 5, 2), 2, "rank 5 exceeds the row count 3"),
            ((4, 1, 2), 1, "rank 4 exceeds the row count 3"),
            # Of several ranks beyond the count, the highest is reported.
            ((4, 1, 9), 3, "rank 9 exceeds the row count 3"),
        ],
    )
    def test_rank_above_row_count_named_at_its_line(self, tmp_path, ranks, line_no, message):
        path = tmp_path / "ranked.tsv"
        path.write_text(
            "".join(f"{rank}\tR\tx{i}\tc\t0.5\tgrad\n" for i, rank in enumerate(ranks)),
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as info:
            read_ranked_tsv(path)
        assert str(info.value) == f"{path}:{line_no}: {message}"
