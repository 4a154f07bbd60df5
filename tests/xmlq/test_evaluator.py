"""Unit tests for XPath evaluation against descriptors.

The matrix of Figure 1 descriptors x Figure 2 queries is the ground truth
the paper's Figure 3 partial order is drawn from.
"""

import pytest

from tests.xmlq.evaluator import ValueNode, evaluate, matches
from tests.xmlq.xmlparse import parse_xml


class TestPaperMatrix:
    """Every (descriptor, query) matching decision implied by Figures 1-3."""

    EXPECTED = {
        # (descriptor index, query index): matches?
        (0, 0): True,  (0, 1): False, (0, 2): True,
        (0, 3): True,  (0, 4): False, (0, 5): True,
        (1, 0): False, (1, 1): True,  (1, 2): True,
        (1, 3): False, (1, 4): True,  (1, 5): True,
        (2, 0): False, (2, 1): False, (2, 2): False,
        (2, 3): False, (2, 4): True,  (2, 5): False,
    }

    def test_matrix(self, paper_descriptors, paper_queries):
        for (d_index, q_index), expected in self.EXPECTED.items():
            descriptor = paper_descriptors[d_index]
            query = paper_queries[q_index]
            assert matches(descriptor, query) == expected, (
                f"d{d_index + 1} vs q{q_index + 1}"
            )


class TestStepSemantics:
    @pytest.fixture
    def d1(self, paper_descriptors):
        return paper_descriptors[0]

    def test_root_name_must_match(self, d1):
        assert not matches(d1, "/paper")

    def test_value_as_trailing_step(self, d1):
        assert matches(d1, "/article/title/TCP")
        assert not matches(d1, "/article/title/UDP")

    def test_value_step_returns_value_node(self, d1):
        result = evaluate("/article/title/TCP", d1)
        assert len(result) == 1
        assert isinstance(result[0], ValueNode)
        assert result[0].value == "TCP"

    def test_element_step_returns_element(self, d1):
        result = evaluate("/article/title", d1)
        assert len(result) == 1
        assert result[0].tag == "title"

    def test_wildcard_matches_any_element(self, d1):
        result = evaluate("/article/*", d1)
        assert {node.tag for node in result} == {
            "author", "title", "conf", "year", "size",
        }

    def test_wildcard_does_not_match_values(self, d1):
        assert not evaluate("/article/title/*", d1)

    def test_descendant_axis(self, d1):
        assert matches(d1, "/article//last")
        assert matches(d1, "/article//last/Smith")
        assert matches(d1, "//Smith")

    def test_descendant_finds_deep_values(self, d1):
        result = evaluate("//Smith", d1)
        assert len(result) == 1
        assert isinstance(result[0], ValueNode)

    def test_no_duplicates_in_node_set(self):
        doc = parse_xml("<a><b><c>x</c></b><b><c>x</c></b></a>")
        assert len(evaluate("/a/b", doc)) == 2
        assert len(evaluate("/a//c", doc)) == 2


class TestPredicates:
    @pytest.fixture
    def d1(self, paper_descriptors):
        return paper_descriptors[0]

    def test_structural(self, d1):
        assert matches(d1, "/article[author]")
        assert not matches(d1, "/article[editor]")

    def test_value_inside_predicate(self, d1):
        assert matches(d1, "/article[author/last/Smith]")
        assert not matches(d1, "/article[author/last/Doe]")

    def test_equality_comparison(self, d1):
        assert matches(d1, "/article[year=1989]")
        assert not matches(d1, "/article[year=1996]")

    @pytest.mark.parametrize(
        "query,expected",
        [
            ("/article[year>1988]", True),
            ("/article[year>1989]", False),
            ("/article[year>=1989]", True),
            ("/article[year<1990]", True),
            ("/article[year<=1988]", False),
            ("/article[year!=1989]", False),
            ("/article[year!=1990]", True),
            ("/article[size<400000]", True),
        ],
    )
    def test_numeric_comparisons(self, d1, query, expected):
        assert matches(d1, query) == expected

    def test_string_comparison_fallback(self, d1):
        assert matches(d1, "/article[title=TCP]")
        assert not matches(d1, "/article[title<TAA]")

    def test_predicate_on_missing_path(self, d1):
        assert not matches(d1, "/article[author/middle]")

    def test_multiple_predicates_conjunctive(self, d1):
        assert matches(d1, "/article[title/TCP][year/1989]")
        assert not matches(d1, "/article[title/TCP][year/1996]")

    def test_comparison_against_element_string_value(self, d1):
        # An element's string value concatenates descendant text.
        assert matches(d1, "/article[author/last=Smith]")


class TestTopLevel:
    def test_relative_path_rejected_at_top_level(self, paper_descriptors):
        from repro.xmlq.xpparser import parse_xpath

        relative = parse_xpath("/a").steps
        from repro.xmlq.astnodes import LocationPath

        with pytest.raises(ValueError):
            evaluate(LocationPath(relative, absolute=False), paper_descriptors[0])

    def test_accepts_preparsed_path(self, paper_descriptors):
        from repro.xmlq.xpparser import parse_xpath

        path = parse_xpath("/article/title/TCP")
        assert evaluate(path, paper_descriptors[0])
