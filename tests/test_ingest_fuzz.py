"""Property test of edge-list ingestion against the reference parser in helpers."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from adjfactor import ParseError, parse_edge_list  # noqa: E402
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


@settings(max_examples=300, deadline=None, database=None)
@given(TEXT)
def test_ingest_matches_reference_parser(text):
    try:
        expected = reference_parse(text)
    except ParseError as error:
        with pytest.raises(ParseError) as info:
            parse_edge_list(text)
        assert (info.value.line_number, str(info.value)) == (error.line_number, str(error))
        return
    graph, report = parse_edge_list(text)
    assert (report, set(graph.edges())) == expected
