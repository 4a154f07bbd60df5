"""Unit tests for the miniature XML parser and serializer."""

import pytest

from tests.xmlq.element import element, text_element
from tests.xmlq.xmlparse import XMLParseError, parse_xml, serialize_xml


class TestParsing:
    def test_simple_leaf(self):
        assert parse_xml("<title>TCP</title>") == text_element("title", "TCP")

    def test_nested_structure(self):
        parsed = parse_xml(
            "<article><author><last>Smith</last></author><year>1989</year></article>"
        )
        assert parsed.findtext("author/last") == "Smith"
        assert parsed.findtext("year") == "1989"

    def test_whitespace_between_elements_ignored(self):
        parsed = parse_xml(
            """
            <article>
                <title>TCP</title>
            </article>
            """
        )
        assert parsed == element("article", text_element("title", "TCP"))

    def test_text_is_stripped(self):
        assert parse_xml("<t>  TCP  </t>").text == "TCP"

    def test_self_closing_tag(self):
        parsed = parse_xml("<article><note/></article>")
        assert parsed.child("note").is_leaf

    def test_empty_element_pair(self):
        assert parse_xml("<note></note>").text is None

    def test_entities_decoded(self):
        assert parse_xml("<t>a &amp; b &lt;c&gt;</t>").text == "a & b <c>"

    def test_numeric_character_references(self):
        assert parse_xml("<t>&#65;&#x42;</t>").text == "AB"

    def test_comments_skipped(self):
        parsed = parse_xml("<!-- header --><a><!-- inner --><b>x</b></a>")
        assert parsed.findtext("b") == "x"

    def test_xml_declaration_skipped(self):
        parsed = parse_xml('<?xml version="1.0"?><a><b>x</b></a>')
        assert parsed.findtext("b") == "x"

    def test_doctype_skipped(self):
        parsed = parse_xml("<!DOCTYPE article><article><t>x</t></article>")
        assert parsed.findtext("t") == "x"


class TestParseErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "<a><b>x</a>",          # mismatched closing tag
            "<a>",                  # unterminated
            "<a><b>x</b>",          # missing outer close
            "<a>text<b>x</b></a>",  # mixed content
            "<a b='1'>x</a>",       # attributes unsupported
            "<a>&unknown;</a>",     # unknown entity
            "<a>x</a><b>y</b>",     # two roots
            "",                     # empty document
            "just text",            # no element
            "<!-- unterminated",    # unterminated comment
        ],
    )
    def test_rejected(self, source):
        with pytest.raises(XMLParseError):
            parse_xml(source)

    def test_error_carries_position(self):
        with pytest.raises(XMLParseError) as excinfo:
            parse_xml("<a><b>x</a>")
        assert excinfo.value.position > 0


class TestSerialization:
    def test_roundtrip_compact(self, paper_descriptors):
        for descriptor in paper_descriptors:
            assert parse_xml(serialize_xml(descriptor)) == descriptor

    def test_roundtrip_pretty(self, paper_descriptors):
        for descriptor in paper_descriptors:
            assert parse_xml(serialize_xml(descriptor, indent=2)) == descriptor

    def test_entities_encoded(self):
        tree = text_element("t", "a & b <c>")
        assert parse_xml(serialize_xml(tree)) == tree

    def test_self_closing_for_empty(self):
        from tests.xmlq.element import Element

        assert serialize_xml(Element("note")) == "<note/>"

    def test_pretty_print_indents(self):
        tree = element("a", text_element("b", "x"))
        text = serialize_xml(tree, indent=2)
        assert "  <b>x</b>" in text
