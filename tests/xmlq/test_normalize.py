"""Unit tests for query normalization (footnote 1 of the paper)."""

import pytest

from tests.xmlq.evaluator import matches
from repro.xmlq.normalize import normalize_xpath


class TestCanonicalForm:
    def test_path_folds_into_predicates(self):
        assert (
            normalize_xpath("/article/author/last/Smith")
            == "/article[author[last[Smith]]]"
        )

    def test_already_canonical_unchanged(self):
        canonical = "/article[author[last[Smith]]]"
        assert normalize_xpath(canonical) == canonical

    def test_equivalent_spellings_collapse(self):
        spellings = [
            "/article/author[last/Smith]",
            "/article[author/last/Smith]",
            "/article[author[last/Smith]]",
            "/article[author[last[Smith]]]",
            "/article/author/last/Smith",
        ]
        forms = {normalize_xpath(s) for s in spellings}
        assert len(forms) == 1

    def test_predicates_sorted(self):
        a = normalize_xpath("/article[year/1989][title/TCP]")
        b = normalize_xpath("/article[title/TCP][year/1989]")
        assert a == b

    def test_duplicate_predicates_removed(self):
        assert (
            normalize_xpath("/article[title/TCP][title/TCP]")
            == normalize_xpath("/article[title/TCP]")
        )

    def test_equality_comparison_rewritten(self):
        assert normalize_xpath("/article[year=1989]") == normalize_xpath(
            "/article/year/1989"
        )

    def test_non_bare_equality_kept_as_comparison(self):
        normalized = normalize_xpath('/article[title="a b"]')
        assert '"a b"' in normalized or "'a b'" in normalized

    def test_inequality_comparisons_preserved(self):
        normalized = normalize_xpath("/article[year>=1990]")
        assert ">=1990" in normalized

    def test_idempotent(self, paper_queries):
        for query in paper_queries:
            once = normalize_xpath(query)
            assert normalize_xpath(once) == once

    def test_descendant_blocks_folding(self):
        normalized = normalize_xpath("/article//last/Smith")
        assert normalized == "/article//last[Smith]"

    def test_leading_descendant_preserved(self):
        assert normalize_xpath("//last/Smith") == "//last[Smith]"


class TestSemanticsPreserved:
    """Normalization must not change which descriptors match."""

    def test_match_equivalence_on_paper_data(
        self, paper_descriptors, paper_queries
    ):
        for descriptor in paper_descriptors:
            for query in paper_queries:
                assert matches(descriptor, query) == matches(
                    descriptor, normalize_xpath(query)
                )

    @pytest.mark.parametrize(
        "query",
        [
            "/article/title/TCP",
            "/article[year>1988]",
            "/article//last/Smith",
            "/article[author[first/John]]/year/1989",
        ],
    )
    def test_match_equivalence_various(self, paper_descriptors, query):
        for descriptor in paper_descriptors:
            assert matches(descriptor, query) == matches(
                descriptor, normalize_xpath(query)
            )


class TestLiteralAndComparisonEdges:
    def test_quoted_value_with_space_stays_comparison(self):
        normalized = normalize_xpath('/article[title="a b c"]')
        # The value cannot be a bare word; the comparison form survives
        # and round-trips through the parser.
        from repro.xmlq.xpparser import parse_xpath

        assert parse_xpath(normalized) is not None

    def test_comparison_inside_nested_predicate(self):
        a = normalize_xpath("/article[author[name[size>3]]]")
        assert normalize_xpath(a) == a

    def test_mixed_fold_and_comparison(self):
        a = normalize_xpath("/article/author[year>=1990]/last/Smith")
        b = normalize_xpath("/article[author[last[Smith]][year>=1990]]")
        assert a == b

    def test_many_equivalent_deep_spellings(self):
        spellings = [
            "/a/b/c/d/e",
            "/a[b[c[d[e]]]]",
            "/a/b[c/d/e]",
            "/a[b/c[d/e]]",
            "/a/b/c[d[e]]",
        ]
        assert len({normalize_xpath(s) for s in spellings}) == 1

    def test_wildcard_steps_fold(self):
        assert normalize_xpath("/a/*/c") == "/a[*[c]]"
