"""Interactive search sessions -- Section IV-B.

"The lookup process can be interactive, i.e., the user directs the search
and restricts its query at each step, or automated..."

:class:`InteractiveSession` models the interactive mode: the user starts
from a broad query, inspects the result set a node returned, picks one of
the more specific queries, and descends -- with the ability to back up
and explore a different branch of the partial order.  Every step is a
real message exchange through the index service, so traffic and per-node
load are metered exactly like automated searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.fields import Record, Schema
from repro.core.query import FieldQuery, QueryParseError
from repro.core.service import IndexService
from repro.xmlq.normalize import normalize_xpath


class SessionError(RuntimeError):
    """Raised on invalid navigation (bad choice index, fetch on non-MSD)."""


@dataclass
class SessionStep:
    """One visited level: the query asked and the entries it returned."""

    query: FieldQuery
    entries: list[str] = field(default_factory=list)
    shortcuts: list[str] = field(default_factory=list)

    @property
    def choices(self) -> list[str]:
        """Everything the user can descend into."""
        return self.entries + self.shortcuts


class InteractiveSession:
    """A user-driven walk down the query partial order."""

    def __init__(
        self,
        service: IndexService,
        start: Union[FieldQuery, str],
        user: str = "user:session",
    ) -> None:
        self.service = service
        self.user = user
        if not service.transport.is_registered(user):
            service.transport.register(user, lambda message: None)
        if isinstance(start, str):
            # User-typed text: any equivalent XPath spelling names the query.
            try:
                start = normalize_xpath(start)
            except ValueError as error:
                raise QueryParseError(f"unparseable query text: {error}") from error
            start = FieldQuery.parse(service.schema, start)
        self._stack: list[SessionStep] = []
        self._fetched: Optional[str] = None
        self._descend(start)

    # -- state --------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self.service.schema

    @property
    def current(self) -> SessionStep:
        return self._stack[-1]

    @property
    def depth(self) -> int:
        """How many levels deep the session is (1 = the initial query)."""
        return len(self._stack)

    @property
    def history(self) -> list[FieldQuery]:
        """Queries asked so far, in order."""
        return [step.query for step in self._stack]

    @property
    def at_file_level(self) -> bool:
        """True when the current query is an MSD: the file is one fetch away."""
        return self.current.query.is_msd()

    @property
    def exhausted(self) -> bool:
        """True when the current level offers nothing to descend into."""
        return not self.at_file_level and not self.current.choices

    # -- navigation -----------------------------------------------------------------

    def choices(self) -> list[str]:
        """The result set at the current level (what the user reads)."""
        return self.current.choices

    def refine(self, choice: Union[int, str]) -> "InteractiveSession":
        """Descend into one of the current level's entries.

        ``choice`` is an index into :meth:`choices` or the entry text
        itself.  Returns self for chaining.
        """
        options = self.current.choices
        if isinstance(choice, int):
            if not 0 <= choice < len(options):
                raise SessionError(
                    f"choice {choice} out of range (0..{len(options) - 1})"
                )
            selected = options[choice]
        else:
            if choice not in options:
                raise SessionError(f"not among the current results: {choice!r}")
            selected = choice
        try:
            query = FieldQuery.parse(self.schema, selected)
        except QueryParseError as error:
            raise SessionError(f"unusable entry {selected!r}: {error}") from error
        if not self.current.query.covers(query):
            raise SessionError(
                "refinement must be covered by the current query"
            )
        self._descend(query)
        return self

    def back(self) -> "InteractiveSession":
        """Return to the previous level (the initial level is permanent)."""
        if len(self._stack) <= 1:
            raise SessionError("already at the initial query")
        self._stack.pop()
        return self

    def fetch(self) -> bool:
        """Retrieve the file at an MSD level; returns whether it exists."""
        if not self.at_file_level:
            raise SessionError("only a most-specific query resolves to a file")
        _, found = self.service.fetch_file(self.current.query, self.user)
        self.service.transport.meter.end_query()
        self._fetched = self.current.query.key() if found else None
        return found

    @property
    def fetched_msd(self) -> Optional[str]:
        """Key of the file retrieved by the last successful fetch."""
        return self._fetched

    # -- conveniences -----------------------------------------------------------------

    def refine_towards(self, record: Record) -> "InteractiveSession":
        """Pick the entry matching a known record (scripted interaction)."""
        for index, entry in enumerate(self.current.choices):
            try:
                query = FieldQuery.parse(self.schema, entry)
            except QueryParseError:
                continue
            if query.covers_record(record):
                return self.refine(index)
        raise SessionError(f"no current entry matches {record!r}")

    def _descend(self, query: FieldQuery) -> None:
        if query.is_msd():
            # The MSD level has no further entries; fetch() finishes it.
            self._stack.append(SessionStep(query=query))
            return
        answer = self.service.query(query, self.user)
        self.service.transport.meter.end_query()
        self._stack.append(
            SessionStep(
                query=query, entries=answer.entries, shortcuts=answer.shortcuts
            )
        )
