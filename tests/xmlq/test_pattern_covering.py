"""Unit tests for tree patterns and the covering relation (Figure 3)."""

import pytest

from tests.xmlq.pattern import (
    TreePattern,
    covers,
    descriptor_to_pattern,
    pattern_from_xpath,
)


class TestFigure3:
    """The exact partial order the paper draws in Figure 3."""

    def test_hasse_arrows(self, paper_queries):
        q1, q2, q3, q4, q5, q6 = paper_queries
        # Arrows read q_specific -> q_general (q_general covers q_specific).
        assert covers(q3, q1)
        assert covers(q4, q1)
        assert covers(q3, q2)
        assert covers(q5, q2)
        assert covers(q6, q3)

    def test_transitive_covering(self, paper_queries):
        q1, _, _, _, _, q6 = paper_queries
        assert covers(q6, q1)

    def test_non_covering_pairs(self, paper_queries):
        q1, q2, q3, q4, q5, q6 = paper_queries
        assert not covers(q4, q2)
        assert not covers(q5, q1)
        assert not covers(q1, q3)  # more specific never covers more general
        assert not covers(q2, q1)  # different conferences
        assert not covers(q4, q6)
        assert not covers(q6, q4)

    def test_self_covering(self, paper_queries):
        for query in paper_queries:
            assert covers(query, query)

    def test_descriptor_as_specific_side(self, paper_descriptors, paper_queries):
        d1, d2, d3 = paper_descriptors
        q1, q2, q3, q4, q5, q6 = paper_queries
        assert covers(q1, d1) and not covers(q1, d2)
        assert covers(q2, d2) and not covers(q2, d1) and not covers(q2, d3)
        assert covers(q3, d1) and covers(q3, d2) and not covers(q3, d3)
        assert covers(q5, d2) and covers(q5, d3) and not covers(q5, d1)
        assert covers(q6, d1) and covers(q6, d2) and not covers(q6, d3)


class TestWildcardsAndDescendants:
    def test_wildcard_covers_named_element(self):
        assert covers("/article/*", "/article/author")

    def test_named_does_not_cover_wildcard(self):
        assert not covers("/article/author", "/article/*")

    def test_wildcard_must_not_swallow_value_nodes(self, paper_descriptors):
        # /article/title/* requires a child *element* under title, which a
        # text value is not; covering must agree with the evaluator.
        assert not covers("/article/title/*", descriptor_to_pattern(paper_descriptors[0]))

    def test_descendant_covers_child_chain(self):
        assert covers("/article//last", "/article/author/last")
        assert covers("//Smith", "/article/author/last/Smith")

    def test_child_does_not_cover_descendant(self):
        assert not covers("/article/last", "/article//last")

    def test_descendant_depth_flexibility(self):
        assert covers("//x", "/a/b/c/x")
        assert not covers("/a/x", "/a/b/x")


class TestComparisons:
    def test_range_covers_value(self):
        assert covers("/article[year>=1980]", "/article[year/1989]")
        assert not covers("/article[year>=1990]", "/article[year/1989]")

    def test_range_implication(self):
        assert covers("/article[year>1980]", "/article[year>1985]")
        assert covers("/article[year>=1985]", "/article[year>1985]")
        assert covers("/article[year>1984]", "/article[year>=1985]")
        assert not covers("/article[year>1990]", "/article[year>1985]")
        assert not covers("/article[year<1990]", "/article[year>1985]")

    def test_upper_bounds(self):
        assert covers("/article[year<=2000]", "/article[year<2000]")
        assert not covers("/article[year<2000]", "/article[year<=2000]")

    def test_not_equal(self):
        assert covers("/article[year!=1980]", "/article[year/1989]")
        assert not covers("/article[year!=1989]", "/article[year/1989]")
        assert covers("/article[year!=1980]", "/article[year>1985]")

    def test_equality_and_value_step_interchangeable(self):
        assert covers("/article[year=1989]", "/article[year/1989]")
        assert covers("/article[year/1989]", "/article[year=1989]")

    def test_identical_string_comparisons(self):
        assert covers("/article[title=TCP]", "/article[title=TCP]")
        assert not covers("/article[title<TCP]", "/article[title<TCQ]")


class TestPatternStructure:
    def test_descriptor_pattern_marks_values(self, paper_descriptors):
        pattern = descriptor_to_pattern(paper_descriptors[0])
        value_labels = {
            node.label for node in pattern.nodes if node.is_value is True
        }
        assert {"John", "Smith", "TCP", "SIGCOMM", "1989", "315635"} == value_labels

    def test_pattern_size(self):
        pattern = pattern_from_xpath("/article[author[last/Smith]]")
        assert pattern.size() == 4  # article, author, last, Smith

    def test_strict_descendants(self):
        pattern = pattern_from_xpath("/a[b[c]][d]")
        root_children = [edge.child for edge in pattern.children(pattern.root)]
        assert len(root_children) == 1
        assert len(pattern.strict_descendants(root_children[0])) == 3

    def test_relative_path_rejected(self):
        from repro.xmlq.astnodes import LocationPath, LocationStep, Axis

        relative = LocationPath((LocationStep(Axis.CHILD, "a"),), absolute=False)
        with pytest.raises(ValueError):
            pattern_from_xpath(relative)

    def test_repr(self):
        assert "TreePattern" in repr(pattern_from_xpath("/a"))
        assert TreePattern().size() == 0
