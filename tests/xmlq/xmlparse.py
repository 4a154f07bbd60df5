"""Miniature XML parser and serializer for file descriptors.

Descriptors in the paper are small XML documents (Figure 1).  This module
parses exactly the subset those descriptors need -- nested elements with
text leaves -- without pulling in an external XML dependency.  Supported:

- start/end tags and self-closing tags,
- text content on leaf elements,
- the five predefined entities (``&amp;`` ``&lt;`` ``&gt;`` ``&quot;``
  ``&apos;``) plus numeric character references,
- comments and XML declarations (skipped),
- attributes are parsed and *rejected* with a clear error, since descriptor
  matching semantics in the paper are defined over elements and values only.

Whitespace-only text between elements is treated as formatting and dropped;
text inside a leaf element is preserved verbatim (then stripped, matching
how bibliographic archives like DBLP format values).
"""

from __future__ import annotations

import re

from tests.xmlq.element import Element


class XMLParseError(ValueError):
    """Raised when descriptor text is not well-formed for our subset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_ENTITY_MAP = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_ENTITY_RE = re.compile(r"&(#x?[0-9A-Fa-f]+|[A-Za-z]+);")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")


def _decode_entities(text: str, base_position: int) -> str:
    def replace(match: re.Match[str]) -> str:
        body = match.group(1)
        if body.startswith("#x") or body.startswith("#X"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:], 10))
        if body in _ENTITY_MAP:
            return _ENTITY_MAP[body]
        raise XMLParseError(
            f"unknown entity &{body};", base_position + match.start()
        )

    return _ENTITY_RE.sub(replace, text)


def _encode_entities(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


class _Parser:
    """Single-pass recursive-descent parser over the document string."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.position = 0

    def parse_document(self) -> Element:
        self._skip_misc()
        root = self._parse_element()
        self._skip_misc()
        if self.position != len(self.source):
            raise XMLParseError("trailing content after root element", self.position)
        return root

    def _skip_misc(self) -> None:
        """Skip whitespace, comments, and processing/declaration blocks."""
        while self.position < len(self.source):
            remaining = self.source[self.position :]
            if remaining[0].isspace():
                self.position += 1
            elif remaining.startswith("<!--"):
                end = self.source.find("-->", self.position + 4)
                if end < 0:
                    raise XMLParseError("unterminated comment", self.position)
                self.position = end + 3
            elif remaining.startswith("<?"):
                end = self.source.find("?>", self.position + 2)
                if end < 0:
                    raise XMLParseError("unterminated declaration", self.position)
                self.position = end + 2
            elif remaining.startswith("<!DOCTYPE"):
                end = self.source.find(">", self.position)
                if end < 0:
                    raise XMLParseError("unterminated DOCTYPE", self.position)
                self.position = end + 1
            else:
                return

    def _parse_element(self) -> Element:
        if not self._peek_is("<"):
            raise XMLParseError("expected start tag", self.position)
        self.position += 1
        tag = self._parse_name()
        self._skip_whitespace()
        if not self._peek_is(">") and not self._peek_is("/"):
            raise XMLParseError(
                f"attributes are not supported in descriptors (element <{tag}>)",
                self.position,
            )
        if self._peek_is("/"):
            self.position += 1
            self._expect(">")
            return Element(tag)
        self._expect(">")

        children: list[Element] = []
        text_parts: list[str] = []
        while True:
            if self.position >= len(self.source):
                raise XMLParseError(f"unterminated element <{tag}>", self.position)
            if self.source.startswith("</", self.position):
                self.position += 2
                close_tag = self._parse_name()
                self._skip_whitespace()
                self._expect(">")
                if close_tag != tag:
                    raise XMLParseError(
                        f"mismatched closing tag </{close_tag}> for <{tag}>",
                        self.position,
                    )
                break
            if self.source.startswith("<!--", self.position):
                end = self.source.find("-->", self.position + 4)
                if end < 0:
                    raise XMLParseError("unterminated comment", self.position)
                self.position = end + 3
                continue
            if self._peek_is("<"):
                children.append(self._parse_element())
                continue
            start = self.position
            next_tag = self.source.find("<", self.position)
            if next_tag < 0:
                raise XMLParseError(f"unterminated element <{tag}>", self.position)
            raw = self.source[start:next_tag]
            text_parts.append(_decode_entities(raw, start))
            self.position = next_tag

        text = "".join(text_parts)
        if children:
            if text.strip():
                raise XMLParseError(
                    f"mixed content in <{tag}> is not supported", self.position
                )
            return Element(tag, children=children)
        stripped = text.strip()
        if stripped:
            return Element(tag, text=stripped)
        return Element(tag)

    def _parse_name(self) -> str:
        match = _NAME_RE.match(self.source, self.position)
        if match is None:
            raise XMLParseError("expected a name", self.position)
        self.position = match.end()
        return match.group(0)

    def _skip_whitespace(self) -> None:
        while self.position < len(self.source) and self.source[self.position].isspace():
            self.position += 1

    def _peek_is(self, char: str) -> bool:
        return self.source.startswith(char, self.position)

    def _expect(self, char: str) -> None:
        if not self._peek_is(char):
            raise XMLParseError(f"expected {char!r}", self.position)
        self.position += len(char)


def parse_xml(source: str) -> Element:
    """Parse descriptor text into an :class:`Element` tree.

    Raises :class:`XMLParseError` on malformed input or on XML features
    outside the descriptor subset (attributes, mixed content).
    """
    return _Parser(source).parse_document()


def serialize_xml(root: Element, indent: int = 0) -> str:
    """Serialize an element tree back to descriptor text.

    With ``indent > 0`` the output is pretty-printed with that many spaces
    per nesting level; with ``indent == 0`` the output is compact and
    round-trips exactly through :func:`parse_xml`.
    """
    pieces: list[str] = []
    _serialize_into(root, pieces, indent, 0)
    return "".join(pieces)


def _serialize_into(
    node: Element, pieces: list[str], indent: int, level: int
) -> None:
    pad = " " * (indent * level) if indent else ""
    newline = "\n" if indent else ""
    if node.text is not None:
        pieces.append(
            f"{pad}<{node.tag}>{_encode_entities(node.text)}</{node.tag}>{newline}"
        )
    elif node.is_leaf:
        pieces.append(f"{pad}<{node.tag}/>{newline}")
    else:
        pieces.append(f"{pad}<{node.tag}>{newline}")
        for child in node.children:
            _serialize_into(child, pieces, indent, level + 1)
        pieces.append(f"{pad}</{node.tag}>{newline}")
