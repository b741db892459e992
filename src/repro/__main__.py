"""Command-line interface: build a compressed view over CSV relations.

Examples
--------
Build a structure and answer access requests::

    python -m repro answer \\
        --view "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)" \\
        --data ./relations --tau 8 --access 1,2 --access 3,4

Sweep the space/delay frontier::

    python -m repro sweep \\
        --view "V^bfb(x, y, z) = R(x, y), R(y, z), R(z, x)" \\
        --data ./relations --taus 2,8,32,128 --access 1,2

Serve a request stream through the engine (one cached build, batched,
deduplicated answers; see :mod:`repro.engine`)::

    python -m repro serve \\
        --view "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)" \\
        --data ./relations --requests ./requests.txt --batch-size 32

Scale the same stream out: ``--shards N`` hash-partitions the database
across N per-shard servers (``--shard-key R:0,T:1`` overrides the key
inferred from the view), and ``--async`` puts the asyncio front end in
front (thread-pool execution, ``--workers``, backpressure via
``--max-pending``)::

    python -m repro serve --async --shards 4 \\
        --view "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)" \\
        --data ./relations --requests ./requests.txt

Streaming cursors: ``--limit K`` serves each request top-k through the
cursor API (only ~K tuples are enumerated, however large the answer),
``--page-size P`` drains requests in resume-token pages of P tuples, and
``--resume V1,V2,...`` re-enters a prior enumeration strictly after that
tuple — all three compose and work over every back end (plain, sharded,
async)::

    python -m repro serve --limit 10 --page-size 5 \\
        --view "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)" \\
        --data ./relations --requests ./requests.txt

The requests file holds one access tuple per line (comma-separated bound
values; blank lines and ``#`` comments are skipped). Instead of a fixed
``--tau``, the engine can pick it: ``--space-budget CELLS`` minimizes
delay within the budget (Proposition 11), ``--delay-budget TAU`` minimizes
space under the delay bound (Proposition 12).

Persistence: ``--snapshot-dir DIR`` makes every built structure durable
(a restarted server warms from the directory instead of rebuilding;
stale data is refused by fingerprint)::

    python -m repro serve --snapshot-dir ./snapshots \\
        --view "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)" \\
        --data ./relations --requests ./requests.txt

Standalone snapshots use the ``snapshot`` subcommand: ``save`` builds a
structure and writes one file, ``load`` decodes it (verifying it against
the data directory) and answers requests, ``inspect`` prints the header
and the bytes each section of the payload takes (a v3 blob holds its
tree and dictionary once, under ``columns.*``)::

    python -m repro snapshot save --view "..." --data ./relations \\
        --tau 8 --out view.snap
    python -m repro snapshot load --file view.snap --data ./relations \\
        --access 1,2
    python -m repro snapshot inspect --file view.snap

Replicas: ``serve --async --replicas N`` puts N read replicas —
hydrated purely from shipped snapshots, never building — behind the
async front end, which rotates batches across them round-robin::

    python -m repro serve --async --replicas 2 --snapshot-dir ./snapshots \\
        --view "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)" \\
        --data ./relations --requests ./requests.txt

Serving under updates: the ``update`` subcommand routes base-relation
inserts/deletes to any natural-join view through the durable delta log
in ``--snapshot-dir`` (the first one versions the view), and the next
``serve --snapshot-dir`` run warm-starts the view from that log instead
of rebuilding (see ``docs/DYNAMIC_SERVING.md``)::

    python -m repro update apply --snapshot-dir ./snapshots \\
        --view "Delta^bff(x, y, z) = R(x, y), S(y, z), T(z, x)" \\
        --data ./relations --relation R --insert 7,9 --delete 1,2
    python -m repro serve --snapshot-dir ./snapshots \\
        --view "Delta^bff(x, y, z) = R(x, y), S(y, z), T(z, x)" \\
        --data ./relations --requests ./requests.txt

Observability: ``serve --telemetry-dir DIR`` records counters, delay-gap
histograms and traced spans, persisting them as versioned JSONL that
merges across restarts. τ is chosen once, at registration (``--tau``,
``--space-budget`` or ``--delay-budget``); the delay-gap histograms show
what it delivers. The ``metrics`` subcommand replays what any number of
past sessions recorded (see ``docs/OPERATIONS.md``)::

    python -m repro serve --telemetry-dir ./telemetry \\
        --view "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)" \\
        --data ./relations --requests ./requests.txt
    python -m repro metrics show --telemetry-dir ./telemetry
    python -m repro metrics export --telemetry-dir ./telemetry --out m.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from contextlib import contextmanager
from typing import Dict, List, Tuple

from pathlib import Path

from repro import (
    AccessRequest,
    AsyncViewServer,
    CompressedRepresentation,
    ReplicaServer,
    ShardedViewServer,
    ViewServer,
    infer_shard_key,
    parse_view,
)
from repro.engine.server import register_everywhere
from repro.engine.telemetry import Telemetry, TelemetryStore
from repro.core.snapshot import (
    database_fingerprint,
    inspect_snapshot_file,
    load_snapshot,
    save_snapshot,
)
from repro.exceptions import ReproError
from repro.io import load_database
from repro.measure.tradeoff import format_table, sweep_tau, tradeoff_rows


def _parse_access(text: str) -> Tuple:
    parts = [piece.strip() for piece in text.split(",") if piece.strip()]
    values: List = []
    for piece in parts:
        try:
            values.append(int(piece))
        except ValueError:
            values.append(piece)
    return tuple(values)


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--view", required=True, help="adorned view, e.g. 'V^bf(x,y) = R(x,y)'"
    )
    parser.add_argument(
        "--data", required=True, help="directory of <relation>.csv files"
    )


def _inputs(args):
    """What :func:`_common`'s flags name: the parsed view, the loaded data."""
    return parse_view(args.view), load_database(args.data)


def _answer_flags(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`_print_answers` reads."""
    parser.add_argument(
        "--access", action="append", help="comma-separated bound values"
    )
    parser.add_argument("--limit", type=int, default=20)


def _build_answer(args) -> int:
    view, db = _inputs(args)
    structure = CompressedRepresentation(view, db, tau=args.tau)
    stats = structure.stats
    print(
        f"built: tau={stats.tau} alpha={stats.alpha:.2f} "
        f"tree={stats.tree_nodes} dict={stats.dictionary_entries} "
        f"({stats.build_seconds * 1000:.1f} ms)"
    )
    _print_answers(structure, args)
    return 0


def _print_answers(structure, args) -> None:
    """Answer every ``--access`` from ``structure``, ``--limit`` rows shown."""
    for access_text in args.access or []:
        access = _parse_access(access_text)
        rows = structure.answer(access)
        print(f"answer{access}: {len(rows)} tuples")
        for row in rows[: args.limit]:
            print(f"  {row}")
        if len(rows) > args.limit:
            print(f"  ... {len(rows) - args.limit} more")


def _run_sweep(args) -> int:
    view, db = _inputs(args)
    taus = [float(t) for t in args.taus.split(",")]
    accesses = [_parse_access(a) for a in args.access or []]
    if not accesses:
        print("sweep needs at least one --access", file=sys.stderr)
        return 2
    points = sweep_tau(view, db, taus=taus, accesses=accesses)
    print(
        format_table(
            tradeoff_rows(points),
            headers=("tau", "cells", "max gap", "mean gap", "outputs"),
            title="space/delay frontier:",
        )
    )
    return 0


def _load_requests(path: str) -> List[Tuple]:
    accesses: List[Tuple] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        accesses.append(_parse_access(line))
    return accesses


def _parse_shard_key(text: str) -> Dict[str, int]:
    """``"R:0,T:1"`` → ``{"R": 0, "T": 1}``."""
    key: Dict[str, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        relation, _, column = piece.partition(":")
        relation = relation.strip()
        if not relation or not column.strip().isdigit():
            raise ReproError(
                f"bad shard key entry {piece!r} (expected RELATION:COLUMN)"
            )
        if relation in key:
            raise ReproError(
                f"shard key names relation {relation!r} twice "
                f"(columns {key[relation]} and {column.strip()})"
            )
        key[relation] = int(column.strip())
    if not key:
        raise ReproError(f"shard key {text!r} names no relations")
    return key


def _backend(cls, db, args, telemetry, *shard_args):
    """One back end of class ``cls``, wired from the ``serve`` flags."""
    return cls(
        db,
        *shard_args,
        max_entries=args.cache_entries,
        max_cells=args.cache_cells,
        snapshot_dir=args.snapshot_dir,
        telemetry=telemetry,
    )


@contextmanager
def _async_front(backend, args, replicas):
    """The asyncio front end over ``backend``, closed on the way out."""
    server = AsyncViewServer(
        backend,
        max_workers=args.workers,
        max_pending=args.max_pending,
        replicas=replicas,
    )
    try:
        yield server
    finally:
        server.close()


def _serve(args) -> int:
    view, db = _inputs(args)
    accesses = _load_requests(args.requests)
    if not accesses:
        print(f"{args.requests}: no access requests", file=sys.stderr)
        return 2
    if args.shards < 1:
        raise ReproError(f"--shards must be >= 1, got {args.shards}")
    if args.shard_key is not None and args.shards <= 1:
        raise ReproError("--shard-key is meaningless without --shards N > 1")
    if not args.use_async and (
        args.workers is not None or args.max_pending is not None
    ):
        raise ReproError("--workers/--max-pending are async knobs; add --async")
    # None meant "not given" to the check above; the defaults, once.
    args.workers = 4 if args.workers is None else args.workers
    args.max_pending = 32 if args.max_pending is None else args.max_pending
    cursor_mode = (
        args.limit is not None
        or args.page_size is not None
        or args.resume is not None
    )
    if args.limit is not None and args.limit < 0:
        raise ReproError(f"--limit must be >= 0, got {args.limit}")
    if args.page_size is not None and args.page_size < 1:
        raise ReproError(f"--page-size must be >= 1, got {args.page_size}")
    if args.replicas < 0:
        raise ReproError(f"--replicas must be >= 0, got {args.replicas}")
    if args.replicas:
        if not args.use_async:
            raise ReproError(
                "--replicas are balanced by the async front end; add --async"
            )
        if args.shards > 1:
            raise ReproError(
                "--replicas balance a plain backend; a sharded backend "
                "already fans out per shard (drop --shards or --replicas)"
            )
        if args.snapshot_dir is None:
            raise ReproError(
                "--replicas hydrate from shipped snapshots; give "
                "--snapshot-dir so the primary has somewhere to ship them"
            )
    telemetry = None
    if args.telemetry_dir is not None:
        telemetry = Telemetry(Path(args.telemetry_dir))
    cls, shard_args = ViewServer, ()
    if args.shards > 1:
        shard_key = (
            _parse_shard_key(args.shard_key)
            if args.shard_key is not None
            else infer_shard_key(view)
        )
        cls, shard_args = ShardedViewServer, (args.shards, shard_key)
    backend = _backend(cls, db, args, telemetry, *shard_args)
    name = _register(backend, view, args)
    registration = backend.registration(name)
    # Budget-driven tau is resolved per shard; shard 0's is representative.
    scope = ", shard 0" if args.shards > 1 and registration.budget else ""
    print(
        f"registered {name!r}: tau={registration.tau:.3f} "
        f"({registration.policy}{scope})"
    )
    if args.shards > 1:
        mode, position = backend.route(name)
        detail = f" on bound position {position}" if mode == "routed" else ""
        print(
            f"sharding: {args.shards} shards over "
            f"{sorted(backend.shard_key)} ({mode}{detail})"
        )
    if args.shards <= 1 and name in backend.dynamic_views():
        print(
            f"versions: serving delta version {backend.delta_version(name)} "
            f"from the delta log in {args.snapshot_dir}"
        )
    replicas: List[ViewServer] = []
    try:
        if args.replicas:
            replicas = _hydrate_replicas(backend, name, view, db, args, telemetry)
        if cursor_mode:
            return _serve_cursors(backend, name, accesses, args, replicas)
        if args.use_async:
            with _async_front(backend, args, replicas) as server:
                report = asyncio.run(
                    server.serve_stream(
                        name, accesses, batch_size=args.batch_size
                    )
                )
            _print_stream_report(report)
            print(
                f"async: queue max {report.queue_seconds_max * 1000:.1f} ms "
                f"(mean {report.queue_seconds_mean * 1000:.1f} ms), "
                f"service mean {report.service_seconds_mean * 1000:.1f} ms, "
                f"{args.workers} workers, {args.max_pending} max in flight"
            )
        else:
            report = backend.serve_stream(
                name, accesses, batch_size=args.batch_size
            )
            _print_stream_report(report)
        if args.snapshot_dir is not None:
            print(
                f"snapshots: {report.cache.disk_hits} warm loads, "
                f"{report.cache.disk_writes} writes in {args.snapshot_dir}"
            )
    finally:
        for replica in replicas:
            replica.close()
        backend.close()
        if telemetry is not None:
            telemetry.close()  # final durable flush (the CLI owns the sink)
    return 0


def _register(server, view, args) -> str:
    """Register ``view`` on ``server`` with the command line's τ knobs."""
    return server.register(
        view,
        tau=args.tau,
        space_budget=args.space_budget,
        delay_budget=args.delay_budget,
    )


def _hydrate_replicas(
    backend, name: str, view, db, args, telemetry=None
) -> List[ViewServer]:
    """Ship the primary's snapshots and stand up N hydrated read replicas.

    The primary builds the registered view once and demotes it to the
    snapshot directory; every replica then registers the view with the
    primary's knobs over the same data (identical snapshot label) and
    hydrates purely from disk — zero builder invocations, by
    :class:`~repro.engine.replica.ReplicaServer` contract.
    """
    backend.representation(name)
    shipped = backend.cache.demote_all()
    replicas = [
        _backend(ReplicaServer, db, args, telemetry)
        for _ in range(args.replicas)
    ]
    try:
        register_everywhere(
            name, replicas, lambda replica: _register(replica, view, args)
        )
        for replica in replicas:
            replica.hydrate()
    except ReproError:
        for replica in replicas:
            replica.close()
        raise
    print(
        f"replicas: {len(replicas)} hydrated from snapshots in "
        f"{args.snapshot_dir} ({shipped} freshly shipped)"
    )
    return replicas


def _serve_cursors(
    backend, name: str, accesses: List[Tuple], args, replicas=()
) -> int:
    """Cursor-plane serving: per-request limits, pages and resume tokens.

    Each access in the requests file becomes one cursor (or a chain of
    resume-token pages with ``--page-size``); ``--limit`` caps the
    tuples delivered per request, and ``--resume`` starts every request
    strictly after the given tuple. Works identically over the plain,
    sharded and async back ends.
    """
    token = _parse_access(args.resume) if args.resume is not None else None
    if args.use_async:
        with _async_front(backend, args, replicas) as server:
            return asyncio.run(
                _stream_cursors_async(server, name, accesses, args, token)
            )
    total = pages = 0
    for access in accesses:
        delivered, used, last, exhausted = _drain_paged(
            backend, name, access, args, token
        )
        total += delivered
        pages += used
        _print_cursor_line(access, delivered, used, last, exhausted)
    print(
        f"cursor mode: {len(accesses)} requests, "
        f"{total} tuples in {pages} page(s)"
    )
    return 0


def _drain_paged(backend, name: str, access: Tuple, args, token):
    """Serve one access through (possibly paged) cursors; returns totals."""
    remaining = args.limit
    pages = delivered = 0
    exhausted = False
    while True:
        if args.page_size is None:
            page_limit = remaining
        elif remaining is None:
            page_limit = args.page_size
        else:
            page_limit = min(args.page_size, remaining)
        request = AccessRequest(
            view=name, access=access, limit=page_limit, start_after=token
        )
        with backend.open(request) as cursor:
            rows = cursor.fetchall()
            token = cursor.resume_token()
            exhausted = cursor.exhausted
        pages += 1
        delivered += len(rows)
        if remaining is not None:
            remaining -= len(rows)
            if remaining <= 0:
                break
        if exhausted or not rows or args.page_size is None:
            break
    return delivered, pages, token, exhausted


async def _stream_cursors_async(server, name, accesses, args, token) -> int:
    """Drain every request through the async cursor face, in chunks."""
    chunk_size = (
        args.page_size if args.page_size is not None else args.batch_size
    )
    total = chunks = 0
    for access in accesses:
        request = AccessRequest(
            view=name, access=access, limit=args.limit, start_after=token
        )
        delivered = 0
        last = token
        async for page in server.stream(request, chunk_size=chunk_size):
            delivered += len(page)
            chunks += 1
            last = page[-1]
        _print_cursor_line(access, delivered, None, last, None)
        total += delivered
    print(
        f"cursor mode (async): {len(accesses)} requests, "
        f"{total} tuples in {chunks} chunk(s)"
    )
    return 0


def _print_cursor_line(access, delivered, pages, token, exhausted) -> None:
    token_text = ",".join(str(v) for v in token) if token else "-"
    detail = f" in {pages} page(s)" if pages is not None else ""
    if exhausted is None:
        state = f", last {token_text}"
    elif exhausted:
        state = ", exhausted"
    else:
        state = f", resume {token_text}"
    print(f"cursor{access}: {delivered} tuples{detail}{state}")


def _print_stream_report(report) -> None:
    print(
        f"served {report.requests} requests in {report.batches} batches: "
        f"{report.unique_requests} traversals ({report.shared_requests} "
        f"shared), {report.outputs} tuples"
    )
    print(
        f"cache: {report.cache.hits} hits / {report.cache.misses} misses, "
        f"{report.builds} builds, {report.cache.evictions} evictions"
    )
    print(
        f"delays: max step gap {report.max_step_gap}; "
        f"{report.wall_seconds * 1000:.1f} ms total "
        f"({report.requests_per_second:.0f} req/s)"
    )


def _update_apply(args) -> int:
    """One delta through the durable log: register warm, apply, exit.

    The server registers against the same snapshot directory the
    serving process uses, so registration warm-loads the view's dynamic
    snapshot and replays its log when it has one; the applied delta is
    appended to that log (the first one versions the view), and the
    next ``serve --snapshot-dir`` run replays it too.
    """
    view, db = _inputs(args)
    inserts = [_parse_access(text) for text in args.insert or []]
    deletes = [_parse_access(text) for text in args.delete or []]
    if not inserts and not deletes:
        raise ReproError("nothing to apply: give --insert and/or --delete")
    server = ViewServer(db, snapshot_dir=args.snapshot_dir)
    try:
        name = server.register(view, tau=args.tau)
        before = server.delta_version(name)
        applied = server.apply_deltas(
            args.relation, inserts=inserts, deletes=deletes
        )
        for view_name in sorted(applied):
            print(
                f"applied {applied[view_name]} row(s) to {view_name!r}: "
                f"delta version {before} -> "
                f"{server.delta_version(view_name)}"
            )
    finally:
        server.close()
    return 0


def _snapshot_save(args) -> int:
    view, db = _inputs(args)
    structure = CompressedRepresentation(view, db, tau=args.tau)
    written = save_snapshot(
        args.out, structure, fingerprint=database_fingerprint(db)
    )
    stats = structure.stats
    print(
        f"saved {args.out}: {written} bytes "
        f"(tau={stats.tau}, tree={stats.tree_nodes}, "
        f"dict={stats.dictionary_entries}, "
        f"built in {stats.build_seconds * 1000:.1f} ms)"
    )
    return 0


def _snapshot_load(args) -> int:
    fingerprint = None
    if args.data is not None:
        fingerprint = database_fingerprint(load_database(args.data))
    structure = load_snapshot(args.file, expected_fingerprint=fingerprint)
    checked = "fingerprint verified" if fingerprint else "fingerprint unchecked"
    print(f"loaded {args.file}: {type(structure).__name__} ({checked})")
    _print_answers(structure, args)
    return 0


def _snapshot_inspect(args) -> int:
    info = inspect_snapshot_file(args.file)
    print(f"{args.file}:")
    print(f"  format version: {info['version']}")
    print(f"  kind:           {info['kind']}")
    print(f"  fingerprint:    {info['fingerprint']}")
    print(
        f"  payload:        {info['payload_present']}/{info['payload_bytes']} "
        f"bytes ({'complete' if info['complete'] else 'TRUNCATED'})"
    )
    print(f"  file size:      {info['file_bytes']} bytes")
    for section, size in info["sections"]:
        print(f"  section {section}: {size} bytes")
    return 0


def _metric_name(entry: Dict) -> str:
    """``name{k=v,...}`` — the display form of one labeled metric."""
    labels = entry.get("labels") or {}
    if not labels:
        return entry["name"]
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{entry['name']}{{{inner}}}"


def _merged_telemetry(args):
    directory = Path(args.telemetry_dir)
    if not directory.is_dir():
        raise ReproError(f"{directory}: no telemetry directory")
    return TelemetryStore.merged_registry(directory)


def _metrics_show(args) -> int:
    """Replay every persisted session's metrics and events, merged."""
    registry, events = _merged_telemetry(args)
    snapshot = registry.snapshot()
    kinds = ("counters", "gauges", "histograms")
    print(f"telemetry from {args.telemetry_dir}:")
    for kind in kinds:
        if snapshot[kind]:
            print(f"{kind}:")
        for entry in sorted(
            snapshot[kind], key=lambda e: (e["name"], repr(e["labels"]))
        ):
            if kind != "histograms":
                print(f"  {_metric_name(entry)} = {entry['value']}")
                continue
            histogram = registry.histogram(
                entry["name"], buckets=entry["buckets"], **entry["labels"]
            )
            print(
                f"  {_metric_name(entry)}: count={entry['count']} "
                f"sum={entry['sum']:g} p50={histogram.percentile(0.5):g} "
                f"p95={histogram.percentile(0.95):g}"
            )
    shown = events[-args.events :] if args.events else []
    if shown:
        print(f"events (last {len(shown)} of {len(events)}):")
        for record in shown:
            payload = dict(record["event"])
            op = payload.pop("op", "?")
            detail = " ".join(f"{k}={v}" for k, v in sorted(payload.items()))
            print(f"  [{record['session']}#{record['seq']}] {op}: {detail}")
    if not any(snapshot[kind] for kind in kinds):
        print("  (no metrics recorded)")
    return 0


def _metrics_export(args) -> int:
    """Write the merged snapshot (and events) as one JSON document."""
    registry, events = _merged_telemetry(args)
    document = {
        "schema": 1,
        "source": str(args.telemetry_dir),
        "metrics": registry.snapshot(),
        "events": [record["event"] for record in events],
    }
    text = json.dumps(document, indent=2, sort_keys=True, default=str)
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="compressed representations of conjunctive query results",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    answer = commands.add_parser("answer", help="build and answer requests")
    _common(answer)
    answer.add_argument("--tau", type=float, default=8.0)
    _answer_flags(answer)
    answer.set_defaults(handler=_build_answer, path="answer")

    sweep = commands.add_parser("sweep", help="sweep the tau frontier")
    _common(sweep)
    sweep.add_argument("--taus", default="2,8,32,128")
    sweep.add_argument(
        "--access", action="append", help="comma-separated bound values"
    )
    sweep.set_defaults(handler=_run_sweep, path="sweep")

    serve = commands.add_parser(
        "serve", help="serve a request stream through the engine cache"
    )
    _common(serve)
    serve.add_argument(
        "--requests",
        required=True,
        help="file with one comma-separated access tuple per line",
    )
    knobs = serve.add_mutually_exclusive_group()
    knobs.add_argument(
        "--tau", type=float, default=None, help="fixed delay knob"
    )
    knobs.add_argument(
        "--space-budget",
        type=float,
        default=None,
        help="pick tau minimizing delay within this many cells",
    )
    knobs.add_argument(
        "--delay-budget",
        type=float,
        default=None,
        help="pick tau minimizing space under this delay bound",
    )
    serve.add_argument("--batch-size", type=int, default=32)
    serve.add_argument(
        "--limit",
        type=int,
        default=None,
        help="cursor mode: cap each request at N tuples (top-k serving)",
    )
    serve.add_argument(
        "--page-size",
        type=int,
        default=None,
        help="cursor mode: drain each request in resume-token pages of "
        "this size",
    )
    serve.add_argument(
        "--resume",
        default=None,
        help="cursor mode: comma-separated resume token; every request "
        "starts strictly after this tuple",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=8, help="LRU entry bound"
    )
    serve.add_argument(
        "--cache-cells",
        type=int,
        default=None,
        help="LRU cell budget (per shard when sharded)",
    )
    serve.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="serve through the asyncio front end (thread-pool execution)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="hash-partition the database across N per-shard servers",
    )
    serve.add_argument(
        "--shard-key",
        default=None,
        help="RELATION:COLUMN[,RELATION:COLUMN...]; inferred from the view "
        "when omitted",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="stand up N read replicas hydrated from shipped snapshots, "
        "served round-robin (needs --async and --snapshot-dir; plain "
        "backend only)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="async thread-pool width (default 4; needs --async)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="async backpressure: max batches in flight "
        "(default 32; needs --async)",
    )
    serve.add_argument(
        "--snapshot-dir",
        default=None,
        help="persist built structures here and warm-start from them "
        "on restart (per-shard subdirectories when sharded)",
    )
    serve.add_argument(
        "--telemetry-dir",
        default=None,
        help="record counters/histograms/spans and persist them here as "
        "restart-mergeable JSONL (replay with 'metrics show')",
    )
    serve.set_defaults(handler=_serve, path="serve")

    update = commands.add_parser(
        "update",
        help="apply base-relation deltas to a natural-join view",
    )
    update_commands = update.add_subparsers(
        dest="update_command", required=True
    )

    update_apply = update_commands.add_parser(
        "apply",
        help="route inserts/deletes through the view's durable delta log",
    )
    _common(update_apply)
    update_apply.add_argument(
        "--snapshot-dir",
        required=True,
        help="the snapshot/delta-log directory the serving process "
        "uses ('serve --snapshot-dir')",
    )
    update_apply.add_argument(
        "--tau",
        type=float,
        default=None,
        help="registration tau; must match what 'serve' used "
        "(default: the engine's default, same as serve's)",
    )
    update_apply.add_argument(
        "--relation", required=True, help="base relation the delta targets"
    )
    update_apply.add_argument(
        "--insert",
        action="append",
        help="comma-separated row to insert (repeatable)",
    )
    update_apply.add_argument(
        "--delete",
        action="append",
        help="comma-separated row to delete (repeatable)",
    )
    update_apply.set_defaults(handler=_update_apply, path="update")

    snapshot = commands.add_parser(
        "snapshot", help="save, load or inspect representation snapshots"
    )
    snapshot_commands = snapshot.add_subparsers(
        dest="snapshot_command", required=True
    )

    snap_save = snapshot_commands.add_parser(
        "save", help="build a structure and write it as one snapshot file"
    )
    _common(snap_save)
    snap_save.add_argument("--tau", type=float, default=8.0)
    snap_save.add_argument(
        "--out", required=True, help="snapshot file to write"
    )
    snap_save.set_defaults(handler=_snapshot_save, path="snapshot save")

    snap_load = snapshot_commands.add_parser(
        "load", help="decode a snapshot and answer access requests"
    )
    snap_load.add_argument(
        "--file", required=True, help="snapshot file to load"
    )
    snap_load.add_argument(
        "--data",
        help="directory of <relation>.csv files; when given, the "
        "snapshot must fingerprint-match it",
    )
    _answer_flags(snap_load)
    snap_load.set_defaults(handler=_snapshot_load, path="snapshot load")

    snap_inspect = snapshot_commands.add_parser(
        "inspect", help="print a snapshot's header and its payload's sections"
    )
    snap_inspect.add_argument(
        "--file", required=True, help="snapshot file to inspect"
    )
    snap_inspect.set_defaults(handler=_snapshot_inspect, path="snapshot inspect")

    metrics = commands.add_parser(
        "metrics",
        help="replay or export telemetry persisted by 'serve "
        "--telemetry-dir'",
    )
    metrics_commands = metrics.add_subparsers(
        dest="metrics_command", required=True
    )

    metrics_show = metrics_commands.add_parser(
        "show", help="print merged counters, histograms and recent events"
    )
    metrics_show.add_argument(
        "--telemetry-dir", required=True, help="telemetry JSONL directory"
    )
    metrics_show.add_argument(
        "--events",
        type=int,
        default=10,
        help="how many trailing events to print (0 disables)",
    )
    metrics_show.set_defaults(handler=_metrics_show, path="metrics show")

    metrics_export = metrics_commands.add_parser(
        "export", help="write the merged snapshot as one JSON document"
    )
    metrics_export.add_argument(
        "--telemetry-dir", required=True, help="telemetry JSONL directory"
    )
    metrics_export.add_argument(
        "--out", default=None, help="output file (default: stdout)"
    )
    metrics_export.set_defaults(
        handler=_metrics_export, path="metrics export"
    )

    args = parser.parse_args(argv)
    # Every subcommand reports a library or I/O error the same way: one
    # ``<subcommand path>: <error>`` line on stderr, exit code 2.
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        print(f"{args.path}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
