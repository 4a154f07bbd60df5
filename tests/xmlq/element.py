"""Element-tree model for semi-structured file descriptors.

The paper (Section III-B) assumes descriptors are semi-structured XML data,
as in publicly-accessible bibliographic databases such as DBLP.  A
descriptor is a small tree of named elements whose leaves carry text values
(see Figure 1 of the paper for examples).

This module provides a deliberately small, dependency-free element tree:
just enough structure for descriptors and for the XPath subset evaluated by
:mod:`tests.xmlq.evaluator`.  Elements are hashable and comparable by value,
which lets higher layers use them as dictionary keys and deduplicate
descriptors.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class Element:
    """A node in a descriptor tree.

    An element has a ``tag`` (its name), optional ``text`` content, and an
    ordered list of child elements.  Mixed content (text and children on the
    same node) is not needed for descriptors and is rejected at construction
    time to keep the matching semantics unambiguous.
    """

    __slots__ = ("tag", "text", "_children", "_hash")

    def __init__(
        self,
        tag: str,
        children: Optional[Iterable["Element"]] = None,
        text: Optional[str] = None,
    ) -> None:
        if not tag or not isinstance(tag, str):
            raise ValueError(f"element tag must be a non-empty string, got {tag!r}")
        child_list = list(children) if children is not None else []
        if text is not None and child_list:
            raise ValueError(
                f"element <{tag}> cannot carry both text and child elements"
            )
        for child in child_list:
            if not isinstance(child, Element):
                raise TypeError(f"child of <{tag}> must be an Element, got {child!r}")
        self.tag = tag
        self.text = text
        self._children = tuple(child_list)
        self._hash: Optional[int] = None

    @property
    def children(self) -> tuple["Element", ...]:
        """The element's direct children, in document order."""
        return self._children

    @property
    def is_leaf(self) -> bool:
        """True when the element has no child elements."""
        return not self._children

    def child(self, tag: str) -> Optional["Element"]:
        """Return the first direct child with the given tag, or ``None``."""
        for candidate in self._children:
            if candidate.tag == tag:
                return candidate
        return None

    def children_named(self, tag: str) -> list["Element"]:
        """Return every direct child with the given tag, in order."""
        return [candidate for candidate in self._children if candidate.tag == tag]

    def find(self, path: str) -> Optional["Element"]:
        """Return the first descendant reached by a ``/``-separated tag path.

        This is a convenience accessor for well-known descriptor layouts,
        e.g. ``descriptor.find("author/last")``.  For general querying use
        :func:`tests.xmlq.evaluator.evaluate`.
        """
        node: Optional[Element] = self
        for part in path.split("/"):
            if node is None:
                return None
            node = node.child(part)
        return node

    def findtext(self, path: str) -> Optional[str]:
        """Return the text of the element at ``path``, or ``None``."""
        node = self.find(path)
        return node.text if node is not None else None

    def iter(self) -> Iterator["Element"]:
        """Iterate over this element and all descendants, pre-order."""
        stack: list[Element] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children))

    def descendants(self) -> Iterator["Element"]:
        """Iterate over all strict descendants, pre-order."""
        iterator = self.iter()
        next(iterator)
        yield from iterator

    def size(self) -> int:
        """Number of elements in the subtree rooted at this element."""
        return sum(1 for _ in self.iter())

    def depth(self) -> int:
        """Height of the subtree (a leaf has depth 1)."""
        if self.is_leaf:
            return 1
        return 1 + max(child.depth() for child in self._children)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.text == other.text
            and self._children == other._children
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.tag, self.text, self._children))
        return self._hash

    def __repr__(self) -> str:
        if self.text is not None:
            return f"Element({self.tag!r}, text={self.text!r})"
        return f"Element({self.tag!r}, {len(self._children)} children)"


def element(tag: str, *children: Element) -> Element:
    """Build an internal element from a tag and child elements."""
    return Element(tag, children=children)


def text_element(tag: str, text: str) -> Element:
    """Build a leaf element carrying a text value."""
    return Element(tag, text=str(text))
