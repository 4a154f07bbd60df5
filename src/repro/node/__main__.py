"""Command-line node daemon: one substrate node on one socket.

Start a fresh single-node overlay::

    python -m repro.node --listen 127.0.0.1:7000 --substrate chord

Join an existing one from a second terminal::

    python -m repro.node --listen 127.0.0.1:7001 \
        --bootstrap 127.0.0.1:7000 --substrate chord

The daemon prints one ``READY host:port node=<id:x>`` line (flushed, so
wrappers can wait for it), serves until SIGINT/SIGTERM or an
over-the-wire ``shutdown`` control message, then prints ``SHUTDOWN``
and exits 0.  ``--listen`` port 0 asks the OS for an ephemeral port --
the READY line reports the real one.

With ``--data-dir PATH`` the node is durable: state is journaled to a
write-ahead log (``--fsync always|interval[:N]|never`` picks the sync
policy) and a restarted daemon recovers it -- a ``RECOVERY`` line after
READY reports what came back.  A graceful stop flushes the WAL before
the final ``SHUTDOWN`` line; a SIGKILL loses nothing that was
acknowledged (appends are unbuffered), and recovery truncates any tail
a power loss tore::

    python -m repro.node --listen 127.0.0.1:7000 \
        --data-dir /var/lib/repro/node0 --fsync interval:32
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.core.scheme import SCHEMES
from repro.dht import DEFAULT_BITS, SUBSTRATES
from repro.rpc.daemon import NodeDaemon


def parse_host_port(text: str) -> tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)`` with a helpful error."""
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return host, int(port_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.node",
        description="Serve one index node over UDP/TCP.",
    )
    parser.add_argument(
        "--listen", type=parse_host_port, required=True, metavar="HOST:PORT",
        help="address to bind (port 0 = ephemeral; see the READY line)",
    )
    parser.add_argument(
        "--bootstrap", type=parse_host_port, default=None, metavar="HOST:PORT",
        help="join the overlay via this daemon (omit to seed a new one)",
    )
    parser.add_argument(
        "--substrate", choices=SUBSTRATES, default="chord",
        help="DHT substrate (default: chord)",
    )
    parser.add_argument(
        "--scheme", choices=SCHEMES, default="simple",
        help="index scheme (default: simple)",
    )
    parser.add_argument(
        "--cache", default="none",
        help="shortcut cache policy: none, multi, single, or lruN",
    )
    parser.add_argument(
        "--replication", type=int, default=1,
        help="replication factor the overlay runs with (default: 1)",
    )
    parser.add_argument(
        "--bits", type=int, default=DEFAULT_BITS,
        help=f"identifier-space bits (default: {DEFAULT_BITS})",
    )
    parser.add_argument(
        "--node-id", default=None, metavar="HEX",
        help="explicit node id (default: hash of the listen address)",
    )
    parser.add_argument(
        "--data-dir", default=None, metavar="PATH",
        help=(
            "persist node state (a write-ahead log) under PATH and recover "
            "it on restart (default: in-memory only)"
        ),
    )
    parser.add_argument(
        "--fsync", default="interval", metavar="POLICY",
        help=(
            "WAL sync policy: always | interval[:N] | never "
            "(default: interval)"
        ),
    )
    parser.add_argument(
        "--identity-dir", default=None, metavar="PATH",
        help=(
            "persist an ed25519 identity under PATH and sign every "
            "frame; the node id derives from the public key unless "
            "--node-id or a recovered identity overrides it"
        ),
    )
    parser.add_argument(
        "--require-signed", action="store_true",
        help=(
            "reject unsigned requests with a verify_failed error "
            "(needs --identity-dir)"
        ),
    )
    return parser


async def run(args: argparse.Namespace) -> int:
    host, port = args.listen
    daemon = NodeDaemon(
        host,
        port,
        substrate=args.substrate,
        scheme=args.scheme,
        cache=args.cache,
        replication=args.replication,
        bits=args.bits,
        node_id=None if args.node_id is None else int(args.node_id, 16),
        data_dir=args.data_dir,
        fsync=args.fsync,
        identity_dir=args.identity_dir,
        require_signed=args.require_signed,
    )
    bound_host, bound_port = await daemon.start(bootstrap=args.bootstrap)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        # add_signal_handler is unavailable on some platforms (Windows
        # event loops); the over-the-wire shutdown still works there.
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, daemon.stop)
    print(
        f"READY {bound_host}:{bound_port} node={daemon.node_id:x}",
        flush=True,
    )
    if daemon.identity is not None:
        # A separate line AFTER the 3-token READY protocol, like
        # RECOVERY below, so wrappers that split READY keep working.
        print(
            f"IDENTITY pub={daemon.identity.public_key.hex()} "
            f"backend={daemon.identity.backend}",
            flush=True,
        )
    if daemon.recovery is not None:
        # A separate line AFTER the 3-token READY protocol, so wrappers
        # that split READY keep working.
        report = daemon.recovery
        print(
            "RECOVERY "
            f"entries={report.index_entries + report.file_entries} "
            f"cache={report.cache_entries} peers={report.peers} "
            f"wal_records={report.wal_records} "
            f"torn_bytes={report.truncated_bytes} "
            f"replay_ms={report.replay_ms:.2f}",
            flush=True,
        )
    await daemon.serve()
    print("SHUTDOWN", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.require_signed and args.identity_dir is None:
        parser.error("--require-signed needs --identity-dir")
    try:
        return asyncio.run(run(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
