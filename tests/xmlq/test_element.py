"""Unit tests for the descriptor element tree."""

import pytest

from tests.xmlq.element import Element, element, text_element


class TestConstruction:
    def test_leaf_with_text(self):
        leaf = text_element("title", "TCP")
        assert leaf.tag == "title"
        assert leaf.text == "TCP"
        assert leaf.is_leaf

    def test_internal_node(self):
        author = element("author", text_element("first", "John"))
        assert author.tag == "author"
        assert author.text is None
        assert not author.is_leaf
        assert len(author.children) == 1

    def test_text_coerced_to_string(self):
        leaf = text_element("year", 1989)
        assert leaf.text == "1989"

    def test_empty_tag_rejected(self):
        with pytest.raises(ValueError):
            Element("")

    def test_non_string_tag_rejected(self):
        with pytest.raises(ValueError):
            Element(42)  # type: ignore[arg-type]

    def test_mixed_content_rejected(self):
        with pytest.raises(ValueError):
            Element("a", children=[Element("b")], text="x")

    def test_non_element_child_rejected(self):
        with pytest.raises(TypeError):
            Element("a", children=["not an element"])  # type: ignore[list-item]

    def test_empty_element_allowed(self):
        empty = Element("note")
        assert empty.is_leaf
        assert empty.text is None


class TestNavigation:
    @pytest.fixture
    def article(self):
        return element(
            "article",
            element(
                "author", text_element("first", "John"), text_element("last", "Smith")
            ),
            text_element("title", "TCP"),
            text_element("year", "1989"),
        )

    def test_child(self, article):
        assert article.child("title").text == "TCP"
        assert article.child("nope") is None

    def test_children_named(self, article):
        multi = element("a", text_element("x", "1"), text_element("x", "2"))
        assert [c.text for c in multi.children_named("x")] == ["1", "2"]
        assert article.children_named("missing") == []

    def test_find_nested(self, article):
        assert article.find("author/last").text == "Smith"
        assert article.find("author/middle") is None
        assert article.find("nope/deeper") is None

    def test_findtext(self, article):
        assert article.findtext("author/first") == "John"
        assert article.findtext("author/missing") is None

    def test_iter_preorder(self, article):
        tags = [node.tag for node in article.iter()]
        assert tags == ["article", "author", "first", "last", "title", "year"]

    def test_descendants_excludes_self(self, article):
        tags = [node.tag for node in article.descendants()]
        assert "article" not in tags
        assert len(tags) == article.size() - 1

    def test_size_and_depth(self, article):
        assert article.size() == 6
        assert article.depth() == 3
        assert text_element("x", "v").depth() == 1


class TestValueSemantics:
    def test_equality_by_value(self):
        a = element("p", text_element("q", "v"))
        b = element("p", text_element("q", "v"))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_text(self):
        assert text_element("q", "v") != text_element("q", "w")

    def test_inequality_on_child_order(self):
        a = element("p", Element("x"), Element("y"))
        b = element("p", Element("y"), Element("x"))
        assert a != b

    def test_not_equal_to_other_types(self):
        assert text_element("q", "v") != "q"

    def test_usable_as_dict_key(self):
        mapping = {element("p", text_element("q", "v")): 1}
        assert mapping[element("p", text_element("q", "v"))] == 1
