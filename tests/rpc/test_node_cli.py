"""End-to-end test of ``python -m repro.node`` as a real subprocess.

Starts one daemon process on an ephemeral loopback port, talks to it
from this process over the wire (publish a record, resolve it), then
shuts it down over the wire and checks the clean exit.
"""

import asyncio
import os
import subprocess
import sys
import threading

import pytest

from repro.core.fields import ARTICLE_SCHEMA, Record
from repro.core.query import FieldQuery
from repro.rpc.cluster import ClusterClient

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


@pytest.fixture
def loop():
    event_loop = asyncio.new_event_loop()
    thread = threading.Thread(target=event_loop.run_forever, daemon=True)
    thread.start()
    yield event_loop
    event_loop.call_soon_threadsafe(event_loop.stop)
    thread.join(timeout=5)
    event_loop.close()


@pytest.fixture
def daemon_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.node",
            "--listen", "127.0.0.1:0",
            "--substrate", "chord",
            "--scheme", "simple",
            "--cache", "multi",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = process.stdout.readline().strip()
        yield process, ready
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=10)


def parse_ready(line):
    # "READY host:port node=<hex>"
    assert line.startswith("READY "), f"unexpected first line: {line!r}"
    _, location, node_part = line.split(" ")
    host, _, port = location.rpartition(":")
    return (host, int(port)), int(node_part.removeprefix("node="), 16)


def test_daemon_serves_a_lookup_from_another_process(loop, daemon_process):
    process, ready = daemon_process
    address, node_id = parse_ready(ready)

    client = ClusterClient(
        loop, address, substrate="chord", scheme="simple", cache="multi"
    )
    assert set(client.members) == {node_id}
    assert client.ping(node_id)

    record = Record(
        ARTICLE_SCHEMA,
        {
            "author": "stoica",
            "title": "chord",
            "conf": "sigcomm",
            "year": "2001",
            "size": "12",
        },
    )
    client.insert_record(record)
    query = FieldQuery.msd_of(record).restrict(["author"])
    trace = client.search(query, record)
    assert trace.found
    assert trace.result_msd == FieldQuery.msd_of(record).key()

    # Over-the-wire shutdown: the daemon acknowledges, exits 0, and
    # reports the clean SHUTDOWN line on stdout.
    client.shutdown_daemon(node_id)
    client.close()
    assert process.wait(timeout=10) == 0
    remaining = process.stdout.read()
    assert "SHUTDOWN" in remaining


def test_ready_line_reports_the_bound_port(daemon_process):
    _, ready = daemon_process
    (host, port), node_id = parse_ready(ready)
    assert host == "127.0.0.1"
    assert port > 0
    assert node_id > 0


def spawn_identity_daemon(identity_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.node",
            "--listen", "127.0.0.1:0",
            "--identity-dir", str(identity_dir),
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def read_identity_lines(process):
    ready = process.stdout.readline().strip()
    identity = process.stdout.readline().strip()
    assert identity.startswith("IDENTITY pub="), identity
    return ready, identity


def stop(process):
    if process.poll() is None:
        process.terminate()
    process.wait(timeout=10)


def test_identity_dir_pins_node_id_across_restarts(tmp_path):
    """--identity-dir persists the keypair; the pubkey-derived node id
    and the IDENTITY line survive a restart on a new port."""
    identity_dir = tmp_path / "node0"
    first = spawn_identity_daemon(identity_dir)
    try:
        ready_a, identity_a = read_identity_lines(first)
    finally:
        stop(first)
    second = spawn_identity_daemon(identity_dir)
    try:
        ready_b, identity_b = read_identity_lines(second)
    finally:
        stop(second)
    (_, port_a), node_a = parse_ready(ready_a)
    (_, port_b), node_b = parse_ready(ready_b)
    assert node_a == node_b, "identity-derived node id changed"
    assert identity_a == identity_b, "public key changed across restart"
    assert (identity_dir / "identity.key").exists()


def test_require_signed_daemon_serves_a_signing_client(loop, tmp_path):
    from repro.sec import NodeIdentity

    process = spawn_identity_daemon(tmp_path / "signed", "--require-signed")
    try:
        ready, _ = read_identity_lines(process)
        address, node_id = parse_ready(ready)
        client = ClusterClient(
            loop,
            address,
            identity=NodeIdentity("cli-test-client"),
            require_signed=True,
        )
        try:
            assert client.ping(node_id)
        finally:
            client.close()
    finally:
        stop(process)


def test_require_signed_without_identity_dir_is_a_usage_error():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.run(
        [
            sys.executable, "-m", "repro.node",
            "--listen", "127.0.0.1:0",
            "--require-signed",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert process.returncode == 2
    assert "--identity-dir" in process.stderr


@pytest.mark.parametrize(
    "flags", [["--cache", "bogus"], ["--replication", "0"]]
)
def test_unrunnable_overlay_options_are_usage_errors(flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.run(
        [sys.executable, "-m", "repro.node", "--listen", "127.0.0.1:0", *flags],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert process.returncode == 2
    assert "error:" in process.stderr
    assert "Traceback" not in process.stderr
