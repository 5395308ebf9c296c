"""Property tests of edge-list ingestion, from a string and from a file,
against the reference parser in helpers."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from adjfactor import ParseError, load_edge_list, parse_edge_list  # noqa: E402
from helpers import reference_parse  # noqa: E402

# Text from digits, signs, comment prefixes, extra delimiters, whitespace and
# line breaks (\x85 and \u2028 end lines for str.splitlines; \xa0 is
# whitespace to str.split). Edge-like lines over a few labels make repeated
# pairs, self-loops and out-of-order labels common; free text covers the rest.
LABEL = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["+3", "007", "-0", "+", "--1"]),
    st.text(alphabet="0123456789+-", min_size=1, max_size=3),
)
GAP = st.text(alphabet=" \t,;\xa0", min_size=1, max_size=2)
TAIL = st.text(alphabet="0123456789 ,;", max_size=3)
EDGE_LINE = st.builds(lambda u, gap, v, tail: u + gap + v + tail, LABEL, GAP, LABEL, TAIL)
FREE_LINE = st.text(alphabet="0123456789+-#%,; \t\x0b\x0c\xa0", max_size=8)
BREAK = st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028"])
LINE = st.tuples(st.one_of(EDGE_LINE, EDGE_LINE, FREE_LINE), BREAK)
TEXT = st.lists(LINE, max_size=10).map(lambda lines: "".join(a + b for a, b in lines))

# Text mostly inside the subset that is parsed in bulk: clean lines (edges over
# ASCII digits, zero-padded and up to 18 digits, with space/tab/","/";" gaps and
# extra columns; blank lines; "#"/"%" comments holding non-ASCII text), "\n"
# breaks and a final line that may lack its break. Some of the texts also get
# one line that sends them to the line parser: a label of 19 or 20 digits
# around 2**63, a lone token, separators alone, a "\r\n" break, or a comment
# that another line break (\r, \x0b, \x1c, \x85, \u2028) splits.
PLAIN_LABEL = st.one_of(
    st.integers(0, 6).map(str),
    st.integers(0, 6).map(lambda i: "00" + str(i)),
    st.sampled_from(["9" * 18, "1" + "0" * 17, "0" * 18, "0" * 17 + "7", str(2**63)[:18]]),
)
LONG_LABEL = st.sampled_from(
    [str(2**63 - 1), str(2**63), str(2**63 + 1), "0" * 19 + "5", "9" * 19, "1" + "0" * 19]
)
PLAIN_GAP = st.text(alphabet=" \t,;", min_size=1, max_size=3)
PLAIN_EDGE = st.builds(
    lambda lead, u, gap, v, rest: lead + u + gap + v + "".join(g + t for g, t in rest),
    st.text(alphabet=" \t,;", max_size=2), PLAIN_LABEL, PLAIN_GAP, PLAIN_LABEL,
    st.lists(st.tuples(PLAIN_GAP, st.sampled_from(["", "1462320000", "0"])), max_size=2),
)
COMMENT = st.builds(
    lambda lead, mark, note: lead + mark + note,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from("#%"),
    st.text(alphabet="ab1 2,;#%é—中\xa0", max_size=6),
)
CLEAN_LINE = st.one_of(PLAIN_EDGE, PLAIN_EDGE, PLAIN_EDGE, st.sampled_from(["", " ", "\t"]), COMMENT)
ODD_LINE = st.one_of(
    st.builds(lambda u, gap, v: u + gap + v, st.one_of(LONG_LABEL, PLAIN_LABEL), PLAIN_GAP, LONG_LABEL),
    PLAIN_LABEL,
    st.text(alphabet=" \t,;", min_size=1, max_size=3).filter(lambda line: line.strip(" \t")),
    PLAIN_EDGE.map(lambda line: line + "\r"),
    st.builds(lambda note, brk, tail: note + brk + tail, COMMENT, st.sampled_from("\r\x0b\x1c\x85\u2028"),
              st.one_of(PLAIN_EDGE, st.just(""))),
)
PLAIN_TEXT = st.builds(
    lambda lines, odd, at, final_break: "\n".join(lines[:at] + odd + lines[at:]) + final_break,
    st.lists(CLEAN_LINE, max_size=10),
    st.one_of(st.lists(ODD_LINE, min_size=1, max_size=1), st.just([]), st.just([]), st.just([])),
    st.integers(0, 10),
    st.sampled_from(["\n", ""]),
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def check_against_reference(text, input_path):
    """Both entry points, string and file, give the reference parse or its exact ParseError."""
    input_path.write_bytes(text.encode("utf-8"))
    try:
        expected = reference_parse(text)
    except ParseError as error:
        for parse, source in ((parse_edge_list, text), (load_edge_list, input_path)):
            with pytest.raises(ParseError) as info:
                parse(source)
            assert (info.value.line_number, str(info.value)) == (error.line_number, str(error))
        return
    for graph, report in (parse_edge_list(text), load_edge_list(input_path)):
        assert (report, set(graph.edges())) == expected


@settings(max_examples=300, deadline=None, database=None)
@given(text=TEXT)
def test_ingest_matches_reference_parser(text, input_path):
    check_against_reference(text, input_path)


@settings(max_examples=300, deadline=None, database=None)
@given(text=PLAIN_TEXT)
def test_bulk_subset_ingest_matches_reference_parser(text, input_path):
    check_against_reference(text, input_path)
