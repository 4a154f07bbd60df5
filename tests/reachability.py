"""CI gate: ``src/`` is what the entry points run.

Runs every user-facing entry point in its CI form -- the six smoke
presets, a traced run and a concurrent attacked run, a run of the grid
knobs no preset sets (scheme, id width, deep links), the four routed
substrates, an open-loop run, ``repro.obs summarize``,
``repro.analysis.report``, every example, a 3-node ``repro.loadgen``
ramp and a two-daemon ``repro.node`` pair -- each as a subprocess under
the profile hook in ``tests/reach_hook/sitecustomize.py`` (daemons and
spawned loadgen workers included).  The functions they called are the
*map*; it is compared with the functions ``src/`` defines.

A function no entry point calls must be listed in
``tests/reachability.json`` with a one-line reason whose first word is
one of :data:`REASONS`.  The gate fails on an unreached function that is
not listed, on a listed function that is now reached or no longer exists
(a stale entry), and on a reason outside the closed set.  A ``fallback``
or ``error-path`` entry is never stale: whether it runs depends on the
box (CI does not install ``cryptography``; a workstation may) or on the
run (a loopback request that happens to time out).

Two kinds of ``def`` are not functions here.  Interface stubs (a body of
only a docstring, ``...``, ``pass`` or ``raise NotImplementedError``)
never run by design.  ``__eq__`` and ``__hash__`` declare a value type's
identity -- what its tests and callers compare -- rather than a code path
the entry points may or may not take.

Run from the repository root::

    PYTHONPATH=src python tests/reachability.py [--map-out FILE]
    PYTHONPATH=src python tests/reachability.py --from-map FILE

``--map-out`` saves the map; ``--from-map`` checks a saved one without
running the entry points.
"""

from __future__ import annotations

import argparse
import ast
import asyncio
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = ROOT / "tests" / "reachability.json"
HOOK_DIR = ROOT / "tests" / "reach_hook"

#: The closed set of reasons a function may stay in ``src/`` unreached.
REASONS = {
    # named by bench/spans.py or bench/layers.py, which cannot change
    "bench-frozen",
    # runs only where an optional package is absent
    "fallback",
    # runs only on a failure the entry points do not inject
    "error-path",
    # called by the benchmark's own correctness checks (bench/workloads.py)
    "bench-check",
    # called only by the test and benchmark trees: kept because only what
    # nothing calls is deleted; leaves src/ when its callers move
    "test-api",
}

#: Reasons whose functions may or may not run, depending on the box or the
#: run: reaching one is not a stale entry.
RUN_DEPENDENT = {"fallback", "error-path"}


#: Methods that declare a value type's identity (see the module doc).
VALUE_IDENTITY = {"__eq__", "__hash__"}


@dataclass(frozen=True)
class Function:
    """One ``def`` in ``src/``: where it starts and how long it is."""

    path: str
    line: int
    lines: int


@dataclass
class Report:
    unlisted: list[str]
    stale: list[str]
    missing: list[str]
    bad_reasons: list[str]

    @property
    def ok(self) -> bool:
        return not (self.unlisted or self.stale or self.missing or self.bad_reasons)


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    only = body[0]
    if isinstance(only, ast.Pass):
        return True
    if isinstance(only, ast.Expr) and isinstance(only.value, ast.Constant):
        return only.value.value is Ellipsis
    if isinstance(only, ast.Raise) and only.exc is not None:
        exc = only.exc.func if isinstance(only.exc, ast.Call) else only.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def defined_functions(src: pathlib.Path = SRC) -> dict[str, Function]:
    """Every module-level function and method in ``src/``, by ``module:qualname``.

    Nested functions and lambdas belong to the function around them.  A
    name defined twice in one scope (a property's getter and setter) gets
    ``@line`` appended from its second definition on.
    """
    functions: dict[str, Function] = {}

    def visit(node: ast.AST, path: str, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_stub(child) or child.name in VALUE_IDENTITY:
                    continue
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{module}:{prefix}{child.name}"
                if name in functions:
                    name = f"{name}@{first}"
                functions[name] = Function(path, first, child.end_lineno - first + 1)
            elif isinstance(child, ast.stmt):
                visit(child, path, module, prefix)

    for file in sorted(src.rglob("*.py")):
        relative = file.relative_to(src)
        module = ".".join(relative.with_suffix("").parts).removesuffix(".__init__")
        visit(ast.parse(file.read_text()), relative.as_posix(), module, "")
    return functions


def check(
    defined: dict[str, Function],
    reached: set[tuple[str, int]],
    allowed: dict[str, str],
) -> Report:
    """Compare a map with the allowlist.

    ``reached`` holds ``(path relative to src, first line)`` of every
    called function; ``allowed`` maps a function name to its reason.
    """
    unreached = {
        name for name, fn in defined.items() if (fn.path, fn.line) not in reached
    }
    return Report(
        unlisted=sorted(unreached - allowed.keys()),
        stale=sorted(
            name
            for name, reason in allowed.items()
            if name in defined
            and name not in unreached
            and reason.split(":")[0] not in RUN_DEPENDENT
        ),
        missing=sorted(name for name in allowed if name not in defined),
        bad_reasons=sorted(
            name for name, reason in allowed.items() if reason.split(":")[0] not in REASONS
        ),
    )


# -- the entry points ---------------------------------------------------------

SIM = ["-m", "repro.sim"]


def entry_points(tmp: pathlib.Path) -> list[list[str]]:
    """Each entry point's argv (after ``python``), in its CI form."""
    runs = [
        SIM + ["--preset", "smoke"],
        SIM + ["--preset", "web-scale-smoke"],
        SIM + ["--preset", "churn-smoke"],
        SIM + ["--preset", "churn-smoke", "--scale", "0.3", "--durability", "wal"],
        SIM + ["--preset", "restart-chaos-smoke"],
        SIM + ["--preset", "range-queries-smoke", "--bench-out", str(tmp / "q.json")],
        SIM + ["--preset", "adversarial-smoke", "--bench-out", str(tmp / "s.json")],
        SIM + ["--preset", "smoke", "--scale", "0.5", "--trace-out", str(tmp / "t.jsonl")],
        # The grid knobs no preset sets: index scheme, id width, deep links.
        SIM + [
            "--preset", "smoke", "--scale", "0.3", "--scheme", "flat", "--bits", "32",
            "--shortcut-top-n", "5",
        ],
        ["-m", "repro.obs", "summarize", str(tmp / "t.jsonl")],
        SIM + [
            "--preset", "smoke", "--scale", "0.5", "--concurrency", "8",
            "--latency-model", "uniform:10:100", "--poisoners", "3", "--liars", "2",
            "--verify-signatures", "--trace-out", str(tmp / "adv.jsonl"),
        ],
        ["-m", "repro.obs", "summarize", str(tmp / "adv.jsonl")],
        SIM + [
            "--preset", "concurrent", "--scale", "0.1",
            "--arrival-interval-ms", "5", "--latency-model", "constant:20",
        ],
    ]
    # Traced chaos: failovers, recoveries and accepted poison in the trace.
    for name, cell in (
        ("churn", ["--preset", "churn-smoke", "--scale", "0.3"]),
        ("restart", ["--preset", "restart-chaos-smoke", "--scale", "0.5"]),
        ("poison", ["--preset", "smoke", "--scale", "0.3", "--poisoners", "3",
                    "--liars", "2"]),
    ):
        trace = str(tmp / f"{name}.jsonl")
        runs += [SIM + cell + ["--trace-out", trace], ["-m", "repro.obs", "summarize", trace]]
    for substrate in ("chord", "kademlia", "pastry", "can"):
        runs.append(
            SIM + ["--preset", "churn-smoke", "--scale", "0.3", "--substrate", substrate]
        )
    runs.append(["-m", "repro.analysis.report", "-o", str(tmp / "report.md")])
    examples = ROOT / "examples"
    for script in sorted(examples.glob("*.py")):
        if script.name not in ("real_cluster.py", "durability_smoke.py"):
            runs.append([str(script)])
    runs += [
        [
            str(examples / "real_cluster.py"), "--nodes", "5", "--records", "20",
            "--lookups", "50", "--trace-out", str(tmp / "loopback.jsonl"),
        ],
        [
            str(examples / "real_cluster.py"), "--nodes", "3", "--records", "10",
            "--lookups", "25", "--signed",
        ],
        [
            str(examples / "durability_smoke.py"), "--records", "30",
            "--lookups", "60", "--power-loss",
        ],
        [
            "-m", "repro.loadgen", "--nodes", "3", "--workers", "2",
            "--ramp", "30,60,120", "--stage-seconds", "3", "--base-records", "15",
            "--out", str(tmp / "rpc.json"),
        ],
        [str(pathlib.Path(__file__)), "--node-pair", str(tmp / "pair")],
    ]
    return runs


def _environment(map_dir: pathlib.Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HOOK_DIR), str(SRC)])
    env["REPRO_REACH_DIR"] = str(map_dir)
    return env


def node_pair(tmp: pathlib.Path) -> None:
    """Two durable, identified ``repro.node`` daemons, driven as a user
    would from a second process: publish and look up, restart the second
    from its data and identity directories (it rejoins through its
    recovered peers), look up again, shut both down over the wire."""
    from repro.core.fields import ARTICLE_SCHEMA, Record
    from repro.core.query import FieldQuery
    from repro.rpc.cluster import ClusterClient

    def spawn(name: str, *extra: str) -> tuple[subprocess.Popen, tuple[str, int]]:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.node", "--listen", "127.0.0.1:0",
             "--cache", "multi", "--data-dir", str(tmp / name / "data"),
             "--identity-dir", str(tmp / name / "identity"), *extra],
            stdout=subprocess.PIPE, text=True,
        )
        location = process.stdout.readline().split()[1]
        host, _, port = location.rpartition(":")
        return process, (host, int(port))

    def stop(client: ClusterClient, node: int, process: subprocess.Popen) -> None:
        client.shutdown_daemon(node)
        if process.wait(timeout=30) != 0:
            raise RuntimeError("a repro.node daemon exited non-zero")

    record = Record(
        ARTICLE_SCHEMA,
        {"author": "stoica", "title": "chord", "conf": "sigcomm",
         "year": "2001", "size": "12"},
    )
    query = FieldQuery.msd_of(record).restrict(["author"])
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    processes = []
    try:
        first, address = spawn("a")
        processes.append(first)
        second, _ = spawn("b", "--bootstrap", f"{address[0]}:{address[1]}")
        processes.append(second)
        client = ClusterClient(loop, address, cache="multi")
        client.insert_record(record)
        (node_a,) = [node for node in client.members if client.members[node] == address]
        (node_b,) = set(client.members) - {node_a}
        stop(client, node_b, second)
        second, _ = spawn("b")
        processes.append(second)
        client.refresh_members(address)
        if not client.search(query, record).found:
            raise RuntimeError("the node pair lost its record across a restart")
        stop(client, node_b, second)
        stop(client, node_a, first)
        client.close()
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()


def run_map() -> set[tuple[str, int]]:
    """Run every entry point under the hook; the union of what they called."""
    with tempfile.TemporaryDirectory() as scratch:
        tmp = pathlib.Path(scratch)
        map_dir = tmp / "map"
        map_dir.mkdir()
        env = _environment(map_dir)
        for argv in entry_points(tmp):
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, *argv], env=env, cwd=ROOT,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            label = " ".join(pathlib.Path(a).name if "/" in a else a for a in argv)
            print(f"{time.monotonic() - started:6.1f}s  {label}", flush=True)
            if done.returncode != 0:
                raise SystemExit(f"entry point failed: {label}\n{done.stderr}")
        reached = set()
        for dump in map_dir.glob("*.json"):
            for path, line in json.loads(dump.read_text()):
                relative = pathlib.Path(path).resolve()
                if relative.is_relative_to(SRC):
                    reached.add((relative.relative_to(SRC).as_posix(), line))
        return reached


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--map-out", type=pathlib.Path, help="save the map here")
    parser.add_argument("--from-map", type=pathlib.Path, help="check a saved map")
    parser.add_argument("--node-pair", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.node_pair:
        node_pair(args.node_pair)
        return 0
    if args.from_map:
        reached = {tuple(pair) for pair in json.loads(args.from_map.read_text())}
    else:
        reached = run_map()
    if args.map_out:
        args.map_out.write_text(json.dumps(sorted(reached)) + "\n")
    defined = defined_functions()
    allowed = json.loads(ALLOWLIST.read_text())
    report = check(defined, reached, allowed)
    unreached = [defined[name] for name in allowed if name in defined]
    print(
        f"{len(defined)} functions in src/, {len(defined) - len(unreached)} reached; "
        f"{len(allowed)} listed unreached ({sum(fn.lines for fn in unreached)} lines)"
    )
    for title, names in (
        ("unreached and not listed", report.unlisted),
        ("listed but reached (stale)", report.stale),
        ("listed but not defined (stale)", report.missing),
        ("reason outside " + ", ".join(sorted(REASONS)), report.bad_reasons),
    ):
        for name in names:
            print(f"{title}: {name}", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
