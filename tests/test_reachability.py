"""The reachability checker alone, on synthetic maps (no entry point runs).

``tests/reachability.py`` is the CI gate; these tests pin what it
reports, and that the real allowlist only uses the closed set of reasons.
"""

import json

from tests.reachability import ALLOWLIST, REASONS, Function, check, defined_functions

DEFINED = {
    "repro.a:run": Function("repro/a.py", 10, 5),
    "repro.a:Thing.fallback": Function("repro/a.py", 20, 4),
    "repro.a:Thing.new_helper": Function("repro/a.py", 30, 3),
    "repro.b:on_error": Function("repro/b.py", 1, 6),
}


def test_clean_map_passes():
    reached = {("repro/a.py", 10), ("repro/a.py", 30)}
    allowed = {
        "repro.a:Thing.fallback": "fallback: pure path",
        "repro.b:on_error": "error-path: disk full",
    }
    assert check(DEFINED, reached, allowed).ok


def test_unlisted_unreached_and_stale_entry_are_both_reported():
    # new_helper is unreached and not listed; run is listed but the map
    # now reaches it.
    reached = {("repro/a.py", 10)}
    allowed = {
        "repro.a:run": "bench-frozen: bench/layers.py times it",
        "repro.a:Thing.fallback": "fallback: pure path",
        "repro.b:on_error": "error-path: disk full",
    }
    report = check(DEFINED, reached, allowed)
    assert report.unlisted == ["repro.a:Thing.new_helper"]
    assert report.stale == ["repro.a:run"]
    assert not report.ok


def test_reached_fallback_or_error_path_is_not_stale():
    # Whether one runs depends on the box's optional packages or on the run.
    reached = {(fn.path, fn.line) for fn in DEFINED.values()}
    allowed = {
        "repro.a:Thing.fallback": "fallback: pure path",
        "repro.b:on_error": "error-path: disk full",
    }
    assert check(DEFINED, reached, allowed).ok


def test_entry_for_a_deleted_function_is_stale():
    allowed = {"repro.a:gone": "error-path: was here"}
    reached = {(fn.path, fn.line) for fn in DEFINED.values()}
    report = check(DEFINED, reached, allowed)
    assert report.missing == ["repro.a:gone"]
    assert not report.ok


def test_reason_outside_the_closed_set_is_reported():
    reached = {("repro/a.py", 10), ("repro/a.py", 30), ("repro/b.py", 1)}
    allowed = {"repro.a:Thing.fallback": "convenience: handy in a REPL"}
    report = check(DEFINED, reached, allowed)
    assert report.bad_reasons == ["repro.a:Thing.fallback"]


def test_definitions_skip_stubs_value_identity_and_nested_functions(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "m.py").write_text(
        "class P:\n"
        "    def stub(self):\n"
        '        """Doc."""\n'
        "        ...\n"
        "    def abstract(self):\n"
        "        raise NotImplementedError\n"
        "    @property\n"
        "    def size(self):\n"
        "        def inner():\n"
        "            return 1\n"
        "        return inner()\n"
        "    @size.setter\n"
        "    def size(self, value):\n"
        "        self.value = value\n"
        "    def __eq__(self, other):\n"
        "        return self.value == other.value\n"
    )
    assert defined_functions(tmp_path) == {
        "repro.m:P.size": Function("repro/m.py", 7, 5),
        "repro.m:P.size@12": Function("repro/m.py", 12, 3),
    }


def test_allowlist_reasons_come_from_the_closed_set():
    allowed = json.loads(ALLOWLIST.read_text())
    assert all(reason.split(":")[0] in REASONS for reason in allowed.values())
    assert all(reason.split(":", 1)[1].strip() for reason in allowed.values())
