"""The XPath query subset: lexer, parser, AST and normal form.

This package reads the query text of the paper (Section III-B):

- :mod:`repro.xmlq.lexer`, :mod:`repro.xmlq.xpparser`,
  :mod:`repro.xmlq.astnodes` -- lexer, parser, and AST for the XPath subset
  the paper uses for queries (location steps, predicates, ``*`` and ``//``).
- :mod:`repro.xmlq.normalize` -- canonical normal form for equivalent XPath
  expressions (footnote 1 of the paper).

The index layer decides covering on field queries
(:class:`repro.core.query.FieldQuery`).  The paper's own definitions --
descriptors, the evaluator, tree-pattern covering and the partial-order
graph of Figure 3 -- are the test tree's oracle (``tests/xmlq/``).
"""

from repro.xmlq.astnodes import Axis, Comparison, LocationPath, LocationStep, Predicate
from repro.xmlq.lexer import Token, TokenType, XPathLexError, tokenize
from repro.xmlq.normalize import normalize_xpath
from repro.xmlq.xpparser import XPathParseError, parse_xpath

__all__ = [
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
    "normalize_xpath",
]
