"""Semi-structured descriptors and the XPath query subset.

This package implements the data-description layer of the paper
(Section III-B):

- :mod:`repro.xmlq.element` -- a small XML element-tree model used for file
  *descriptors* (Figure 1 of the paper).
- :mod:`repro.xmlq.xmlparse` -- a miniature XML parser and serializer so
  descriptors can be read from and written to text.
- :mod:`repro.xmlq.lexer`, :mod:`repro.xmlq.xpparser`,
  :mod:`repro.xmlq.astnodes` -- lexer, parser, and AST for the XPath subset
  the paper uses for queries (location steps, predicates, ``*`` and ``//``).
- :mod:`repro.xmlq.evaluator` -- evaluates an XPath expression against a
  descriptor; a descriptor *matches* an expression when evaluation yields a
  non-empty node set.
- :mod:`repro.xmlq.pattern` -- tree-pattern form of queries, used to decide
  the *covering* relation (``q' ⊒ q``) and to build the partial-order graph
  of queries (Figure 3).
- :mod:`repro.xmlq.normalize` -- canonical normal form for equivalent XPath
  expressions (footnote 1 of the paper).
"""

from repro.xmlq.astnodes import Axis, Comparison, LocationPath, LocationStep, Predicate
from repro.xmlq.element import Element, element, text_element
from repro.xmlq.evaluator import evaluate, matches
from repro.xmlq.lexer import Token, TokenType, XPathLexError, tokenize
from repro.xmlq.normalize import clear_normalize_cache, normalize_xpath
from repro.xmlq.partial_order import PartialOrderGraph, QuerySetView
from repro.xmlq.pattern import (
    PatternEdge,
    PatternNode,
    TreePattern,
    clear_pattern_caches,
    covers,
    descriptor_to_pattern,
    pattern_from_xpath,
)
from repro.xmlq.xmlparse import XMLParseError, parse_xml, serialize_xml
from repro.xmlq.xpparser import XPathParseError, parse_xpath

__all__ = [
    "Element",
    "element",
    "text_element",
    "XMLParseError",
    "parse_xml",
    "serialize_xml",
    "Token",
    "TokenType",
    "XPathLexError",
    "tokenize",
    "Axis",
    "Comparison",
    "LocationPath",
    "LocationStep",
    "Predicate",
    "XPathParseError",
    "parse_xpath",
    "evaluate",
    "matches",
    "PatternEdge",
    "PatternNode",
    "TreePattern",
    "clear_pattern_caches",
    "covers",
    "descriptor_to_pattern",
    "pattern_from_xpath",
    "clear_normalize_cache",
    "normalize_xpath",
    "PartialOrderGraph",
    "QuerySetView",
]
