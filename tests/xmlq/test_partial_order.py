"""Unit tests for the partial-order graph (Figure 3)."""

import pytest

from tests.xmlq.partial_order import PartialOrderGraph


@pytest.fixture
def figure3(paper_queries):
    return PartialOrderGraph(paper_queries)


class TestGraphStructure:
    def test_all_queries_present(self, figure3, paper_queries):
        assert len(figure3) == 6
        for query in paper_queries:
            assert query in figure3

    def test_roots_are_most_general(self, figure3, paper_queries):
        from repro.xmlq.normalize import normalize_xpath

        q4, q5, q6 = paper_queries[3], paper_queries[4], paper_queries[5]
        assert set(figure3.roots()) == {
            normalize_xpath(q4),
            normalize_xpath(q5),
            normalize_xpath(q6),
        }

    def test_leaves_are_most_specific(self, figure3, paper_queries):
        from repro.xmlq.normalize import normalize_xpath

        q1, q2 = paper_queries[0], paper_queries[1]
        assert set(figure3.leaves()) == {
            normalize_xpath(q1),
            normalize_xpath(q2),
        }

    def test_hasse_edge_count_matches_figure(self, figure3):
        # Figure 3 draws: q1->q3, q1->q4, q2->q3, q2->q5, q3->q6.
        assert len(figure3.hasse_edges()) == 5

    def test_hasse_omits_transitive_edge(self, figure3, paper_queries):
        from repro.xmlq.normalize import normalize_xpath

        q1 = normalize_xpath(paper_queries[0])
        q6 = normalize_xpath(paper_queries[5])
        assert (q1, q6) not in figure3.hasse_edges()

    def test_more_general_and_specific(self, figure3, paper_queries):
        from repro.xmlq.normalize import normalize_xpath

        q1, q2, q3 = (normalize_xpath(q) for q in paper_queries[:3])
        q6 = normalize_xpath(paper_queries[5])
        assert q6 in figure3.more_general(q3)
        assert q1 in figure3.more_specific(q3)
        assert q2 in figure3.more_specific(q3)

    def test_duplicate_add_is_stable(self, figure3, paper_queries):
        size_before = len(figure3)
        figure3.add(paper_queries[0])
        assert len(figure3) == size_before

    def test_equivalent_spellings_collapse(self):
        graph = PartialOrderGraph()
        a = graph.add("/article/author/last/Smith")
        b = graph.add("/article[author[last/Smith]]")
        assert a == b
        assert len(graph) == 1


class TestChains:
    def test_chains_to_d1_msd(self, figure3, paper_queries):
        chains = figure3.chains_to(paper_queries[0])
        # q1 is reachable from roots q6 (via q3) and q4.
        assert sorted(len(chain) for chain in chains) == [2, 3]
        for chain in chains:
            assert chain[-1] == figure3.add(paper_queries[0])

    def test_chain_ordering_respects_covering(self, figure3, paper_queries):
        for chain in figure3.chains_to(paper_queries[0]):
            for general, specific in zip(chain, chain[1:]):
                assert figure3.covers_query(general, specific)

    def test_chains_to_unknown_query_raises(self, figure3):
        with pytest.raises(KeyError):
            figure3.chains_to("/article/title/Unknown")

    def test_covers_query_uses_cached_patterns(self, figure3, paper_queries):
        assert figure3.covers_query(paper_queries[5], paper_queries[0])
        assert not figure3.covers_query(paper_queries[0], paper_queries[5])


class TestIteration:
    def test_iteration_and_queries_property(self, figure3):
        assert set(iter(figure3)) == set(figure3.queries)

    def test_empty_graph(self):
        graph = PartialOrderGraph()
        assert len(graph) == 0
        assert graph.roots() == []
        assert graph.hasse_edges() == []
