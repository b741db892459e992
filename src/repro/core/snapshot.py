"""The versioned snapshot codec: durable, portable representations.

The paper's structures are expensive to build (``Õ(Π|R_F|^{u_F})``
preprocessing) and cheap to serve from — exactly the asymmetry a durable
format should exploit. This module encodes the three long-lived
representation classes (:class:`~repro.core.structure.CompressedRepresentation`,
:class:`~repro.core.decomposed.DecomposedRepresentation`,
:class:`~repro.core.dynamic.DynamicRepresentation`) to a stable,
version-stamped binary format and decodes them in any process — the
foundation of the engine's warm-start cache tier and of the
process-parallel build path (workers build + encode, the parent decodes).

Format
------
A snapshot is a fixed header followed by a pickled *plain-data* state::

    magic(4) | version(u16) | kind len(u16) | kind (utf-8)
    | fingerprint len(u16) | fingerprint (utf-8)
    | payload crc32(u32) | payload length(u64) | payload

Every field the decoder trusts is validated before unpickling: magic and
version mismatches, truncated blobs, and CRC failures all raise the typed
:class:`~repro.exceptions.SnapshotError` — a snapshot file can never
surface a raw ``UnpicklingError``. The header carries the *source
database fingerprint* (a SHA-256 over relation names, arities and rows),
so a loader can refuse snapshots built from different data without
decoding the payload.

The payload is a pickle of plain containers only (dicts, lists, tuples,
numbers, strings, bytes): the representation classes expose explicit
``snapshot_state()`` / ``from_snapshot_state()`` methods instead of
pickling their object graphs, which carry tries, caches and (in the
engine layer) locks that must not cross the boundary.

What a compressed state holds (codec v4): one ``"source"`` section —
the normalized view's state and the database's, pickled together as one
nested byte string (:func:`source_section`) — ``τ`` / ``α`` / cover
weights, the build stats and **one** structure section, ``"columns"`` —
``(T, D)`` as the compiled columns the kernel walks
(:mod:`repro.core.layout`), stored once:

* the tree as packed arrays, each ``(typecode, item size, bytes)`` in
  the narrowest signed fixed-width typecode that holds its values —
  child ids, the flat ``low`` / ``high`` endpoints, the β points of the
  split nodes behind a one-byte-per-node leaf mask — plus the per-node
  cost as ``array('d')`` and the pre-resolved boxes as the tuples they
  are;
* the dictionary as the sorted access list, one offsets array, one
  node-id array and one ``bytes`` of bits — the resident flat form as
  it is;
* the byte order the arrays were written in.

The source is what a warm load compares: a resident
:class:`~repro.core.context.ViewContext` memoises its own source bytes
(every structure encoded over it stores them), and a blob whose source
is those very bytes adopts the context without unpickling a row. Other
bytes are decoded and compared state by state, so equal states still
adopt. v3 stored the same two states as plain ``"view"`` / ``"db"``
sections (:func:`source_states` reads either). No node records and no
``(node, access, bit)`` triples: those were the v1 / v2 form of the
same facts (v2 stored them *beside* a 64-bit layout). Decoding
validates every shape the kernel relies on — byte lengths against item
sizes, child and node ids against the node count, offsets, the leaf
mask, typecodes, byte order — and raises
:class:`~repro.exceptions.SnapshotError` naming the section; the lists
then go to the layout as they are. v1, v2 and v3 blobs still load, into
the same one-form instance; only v4 is written. ``decomposed`` states
embed one compressed state per bag, ``dynamic`` states one for the
inner structure — whose source holds None for the database when it is
the dynamic state's own database, stored once.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import re
import struct
import zlib
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import SnapshotError
from repro.query.adorned import AdornedView
from repro.query.atoms import Atom, Constant, Variable
from repro.query.conjunctive import ConjunctiveQuery

SNAPSHOT_MAGIC = b"RPRS"
#: The one version written. v4 stores ``(T, D)`` once, as packed compiled
#: columns, and a compressed state's view and database as one pickled
#: ``"source"`` section (module docstring). Still read: v3 — the same
#: columns beside plain ``"view"`` / ``"db"`` sections — v1 — node
#: records and triples, the columns compiled from them on load — and v2
#: — the same two object sections beside a 64-bit ``"layout"`` (and, in
#: blobs of one age, an ``"atoms"`` section, ignored). A reader older
#: than a blob refuses it by version — a typed error, which the disk tier
#: treats as a miss.
SNAPSHOT_VERSION = 4
SUPPORTED_VERSIONS = (1, 2, 3, 4)

_HEADER_PREFIX = struct.Struct(">4sH")
_U16 = struct.Struct(">H")
_TRAILER = struct.Struct(">IQ")

#: What unpickling a malformed-but-CRC-valid payload can actually raise.
#: Deliberately NOT a bare ``Exception``: a ``MemoryError`` during a large
#: decode (or a ``KeyboardInterrupt``-adjacent failure) is not a corrupt
#: snapshot and must propagate as itself, not masquerade as one.
_DECODE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
    ValueError,  # includes UnicodeDecodeError
    struct.error,
)


# ----------------------------------------------------------------------
# view and database state (shared by every representation kind)
# ----------------------------------------------------------------------
def _term_state(term) -> Tuple[str, object]:
    if isinstance(term, Variable):
        return ("v", term.name)
    if isinstance(term, Constant):
        return ("c", term.value)
    raise SnapshotError(f"cannot encode query term {term!r}")


def _term_from_state(state) -> Union[Variable, Constant]:
    tag, payload = state
    if tag == "v":
        return Variable(payload)
    if tag == "c":
        return Constant(payload)
    raise SnapshotError(f"unknown term tag {tag!r}")


def view_state(view: AdornedView) -> Dict:
    """Plain-data state of an adorned view (names, pattern, atom terms)."""
    return {
        "name": view.name,
        "pattern": view.pattern,
        "head": [v.name for v in view.head],
        "atoms": [
            (atom.relation, [_term_state(t) for t in atom.terms])
            for atom in view.atoms
        ],
    }


def view_from_state(state: Dict) -> AdornedView:
    try:
        head = tuple(Variable(name) for name in state["head"])
        atoms = [
            Atom(relation, tuple(_term_from_state(t) for t in terms))
            for relation, terms in state["atoms"]
        ]
        query = ConjunctiveQuery(state["name"], head, atoms)
        return AdornedView(query, state["pattern"])
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(f"malformed view state: {error}") from error


def database_state(db: Database) -> List[Tuple[str, int, List[Tuple]]]:
    """Plain-data state of a database: ``(name, arity, rows)`` triples.

    Rows are ordered by their ``repr`` so the state — and anything hashed
    over it — is deterministic even for relations whose values are not
    mutually comparable: each relation's memoised canonical order
    (:meth:`~repro.database.relation.Relation.canonical`), copied into a
    fresh list so no caller can edit the memo.
    """
    return [
        (relation.name, relation.arity, list(relation.canonical()[0]))
        for relation in sorted(db, key=lambda r: r.name)
    ]


def database_from_state(state) -> Database:
    try:
        return Database(
            Relation(name, arity, (tuple(row) for row in rows))
            for name, arity, rows in state
        )
    except (TypeError, ValueError) as error:
        raise SnapshotError(f"malformed database state: {error}") from error


def source_section(states: Tuple[Dict, Optional[List]]) -> bytes:
    """A v4 compressed state's ``"source"``: ``(view, database)`` states
    pickled as one, the database state None where an enclosing state's
    database stands in."""
    return _dumps(states)


def source_states(state: Dict) -> Tuple[Dict, Optional[List]]:
    """``(view state, database state)`` of a compressed state, any version."""
    if "source" not in state:  # v1 – v3: two plain sections
        return state["view"], state["db"]
    return _loads(state["source"], "source section")


def _relation_bytes(db: Database) -> Iterator[Tuple[str, bytes]]:
    """``(name, hashed byte stream)`` per relation, in name order: its
    name and arity, then its rows' ``repr`` in the order
    :func:`database_state` stores them, memoised on the relation."""
    for relation in sorted(db, key=lambda r: r.name):
        header = f"{relation.name}\x00{relation.arity}\x00".encode("utf-8")
        yield relation.name, header + relation.canonical()[1]


def database_fingerprint(db: Database) -> str:
    """SHA-256 over relation names, arities and rows (restart-stable).

    ``repr`` of the standard value types (ints, floats, strings, tuples)
    is stable across processes — unlike ``hash``, which is salted — so
    equal databases fingerprint identically on every machine.
    """
    digest = hashlib.sha256()
    for _, stream in _relation_bytes(db):
        digest.update(stream)
        digest.update(b"\x01")
    return digest.hexdigest()


def relation_fingerprints(db: Database) -> Dict[str, str]:
    """Per-relation SHA-256 fingerprints, keyed by relation name.

    The same restart-stable hashing as :func:`database_fingerprint`, but
    resolved one relation at a time. This is the unit the dynamic
    warm-start path compares at: after churn, a restarted server can
    refuse exactly the structures whose *referenced* relations changed
    and still warm-load every view whose inputs are untouched, instead
    of refusing the whole database on one differing fingerprint.
    """
    return {
        name: hashlib.sha256(stream).hexdigest()
        for name, stream in _relation_bytes(db)
    }


# ----------------------------------------------------------------------
# the codec
# ----------------------------------------------------------------------
def _registry() -> Dict[str, type]:
    # Imported lazily: the representation modules import this module's
    # view/database helpers inside their own snapshot methods.
    from repro.core.decomposed import DecomposedRepresentation
    from repro.core.dynamic import DynamicRepresentation
    from repro.core.structure import CompressedRepresentation

    return {
        "compressed": CompressedRepresentation,
        "decomposed": DecomposedRepresentation,
        "dynamic": DynamicRepresentation,
    }


def snapshot_kind(representation) -> str:
    """The format kind string of one representation instance."""
    for kind, cls in _registry().items():
        if type(representation) is cls:
            return kind
    raise SnapshotError(
        f"cannot snapshot objects of type {type(representation).__name__}"
    )


def _own_fingerprint(representation) -> str:
    db = getattr(representation, "db", None)
    if db is None:
        db = representation.base_database()
    return database_fingerprint(db)


def _loads(data, what: str):
    """Unpickle ``data``; anything malformed is a typed refusal."""
    try:
        return pickle.loads(data)
    except _DECODE_ERRORS as error:
        raise SnapshotError(f"corrupted {what}: {error}") from error


def _dumps(state) -> bytes:
    """Pickle a plain-data state with the pickler's memo switched off.

    A state is a tree of plain containers: nothing in it is shared on
    purpose and nothing is cyclic, so the memo buys one opcode per tuple
    and bytes that depend on which equal values happen to be one object.
    Without it a state's bytes are a function of its values.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(state)
    return buffer.getvalue()


def encode_snapshot(
    representation, fingerprint: Optional[str] = None
) -> bytes:
    """Encode a representation to the versioned binary snapshot format.

    ``fingerprint`` identifies the *source* database the caller built
    from (the engine passes its serving database's fingerprint, which may
    precede normalization or sharding); it defaults to the fingerprint of
    the representation's own database.
    """
    kind = snapshot_kind(representation)
    if fingerprint is None:
        fingerprint = _own_fingerprint(representation)
    payload = _dumps(representation.snapshot_state())
    kind_bytes = kind.encode("utf-8")
    fingerprint_bytes = fingerprint.encode("utf-8")
    return b"".join(
        (
            _HEADER_PREFIX.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION),
            _U16.pack(len(kind_bytes)),
            kind_bytes,
            _U16.pack(len(fingerprint_bytes)),
            fingerprint_bytes,
            _TRAILER.pack(zlib.crc32(payload), len(payload)),
            payload,
        )
    )


def _parse_header(blob: bytes) -> Tuple[int, str, str, int, int, int]:
    """(version, kind, fingerprint, crc, payload length, payload offset)."""

    def take(structure: struct.Struct, offset: int):
        end = offset + structure.size
        if end > len(blob):
            raise SnapshotError(
                f"truncated snapshot: header needs {end} bytes, "
                f"got {len(blob)}"
            )
        return structure.unpack_from(blob, offset), end

    (magic, version), offset = take(_HEADER_PREFIX, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(
            f"not a repro snapshot (bad magic {magic!r})"
        )
    if version not in SUPPORTED_VERSIONS:
        raise SnapshotError(
            f"snapshot format version {version} is not supported "
            f"(this library reads versions "
            f"{', '.join(str(v) for v in SUPPORTED_VERSIONS)})"
        )

    def take_string(offset: int) -> Tuple[str, int]:
        (length,), offset = take(_U16, offset)
        end = offset + length
        if end > len(blob):
            raise SnapshotError(
                f"truncated snapshot: header needs {end} bytes, "
                f"got {len(blob)}"
            )
        try:
            return blob[offset:end].decode("utf-8"), end
        except UnicodeDecodeError as error:
            raise SnapshotError(
                f"corrupted snapshot header: {error}"
            ) from error

    kind, offset = take_string(offset)
    fingerprint, offset = take_string(offset)
    (crc, length), offset = take(_TRAILER, offset)
    return version, kind, fingerprint, crc, length, offset


def payload_sections(blob: bytes) -> List[Tuple[str, int]]:
    """``(section, pickled bytes)`` of a blob's payload, in stored order.

    Each top-level key of the state, with the sections that hold
    structure opened (``columns.tree``, ``structure.source``,
    ``structure.columns.dictionary``): where a blob's bytes go — v4's
    one ``source`` or v3's ``view`` and ``db`` — and whether ``(T, D)``
    is in it once (v3, v4: ``columns.*``) or twice (v2: ``tree`` and
    ``dictionary`` beside ``layout.*``). Each section is pickled alone,
    the way :func:`encode_snapshot` pickles the whole.
    """
    *_, crc, length, offset = _parse_header(blob)
    payload = memoryview(blob)[offset:]
    if len(payload) != length or zlib.crc32(payload) != crc:
        raise SnapshotError("truncated or corrupted snapshot payload")

    def sections(state: Dict, prefix: str) -> Iterator[Tuple[str, int]]:
        for key, value in state.items():
            if key in ("columns", "layout", "structure") and isinstance(
                value, dict
            ):
                yield from sections(value, f"{prefix}{key}.")
            else:
                yield f"{prefix}{key}", len(_dumps(value))

    try:
        return list(sections(pickle.loads(payload), ""))
    except _DECODE_ERRORS as error:
        raise SnapshotError(f"corrupted snapshot payload: {error}") from error


def inspect_snapshot(blob: bytes) -> Dict:
    """Header metadata of a snapshot blob, without unpickling the payload."""
    version, kind, fingerprint, crc, length, offset = _parse_header(blob)
    return {
        "version": version,
        "kind": kind,
        "fingerprint": fingerprint,
        "payload_bytes": length,
        "payload_present": len(blob) - offset,
        "complete": len(blob) - offset == length,
    }


def decode_snapshot(
    blob: bytes, expected_fingerprint: Optional[str] = None, context=None
):
    """Decode a snapshot blob back into a live representation.

    Raises :class:`~repro.exceptions.SnapshotError` for any malformed,
    truncated, corrupted, version-mismatched or wrong-database blob.

    ``context`` is a resident :class:`~repro.core.context.ViewContext`
    the restored compressed representation should share instead of
    rebuilding its own (the engine's warm loads pass the registration's).
    Every header check runs first, unchanged; the context is then
    adopted only if the payload's own view and database equal the
    context's, else this raises ``SnapshotError`` too. The blob is the
    same self-contained blob either way.
    """
    _version, kind, fingerprint, crc, length, offset = _parse_header(blob)
    registry = _registry()
    if kind not in registry:
        raise SnapshotError(f"unknown snapshot kind {kind!r}")
    if context is not None and kind != "compressed":
        raise SnapshotError(f"a {kind} snapshot cannot adopt a view context")
    if (
        expected_fingerprint is not None
        and fingerprint != expected_fingerprint
    ):
        raise SnapshotError(
            "snapshot was built from a different database "
            f"(fingerprint {fingerprint[:12]}…, "
            f"expected {expected_fingerprint[:12]}…)"
        )
    payload = memoryview(blob)[offset:]  # no copy of the payload
    if len(payload) != length:
        raise SnapshotError(
            f"truncated snapshot: payload has {len(payload)} bytes, "
            f"header declares {length}"
        )
    if zlib.crc32(payload) != crc:
        raise SnapshotError("corrupted snapshot: payload CRC mismatch")
    state = _loads(payload, "snapshot payload")
    restore = registry[kind].from_snapshot_state
    return restore(state) if context is None else restore(state, context)


# ----------------------------------------------------------------------
# files and directories
# ----------------------------------------------------------------------
@lru_cache(maxsize=4096)
def label_path(directory: Path, label: str, suffix: str) -> Path:
    """The file one label maps to: readable slug + hash of the full label.

    Restart-stable (no salted ``hash``), so a rebooted server resolves
    the same labels to the same files. Memoised (a pure function of its
    arguments; the regex and the SHA-256 are most of a store lookup's or
    a delta-log append's path work), bounded so that a server churning
    through labels cannot grow it without limit.
    """
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", label)[:64].strip("._") or "snap"
    digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]
    return Path(directory) / f"{slug}-{digest}{suffix}"


def atomic_write(path: Path, data: bytes) -> None:
    """Write a whole file via a same-directory rename: all or nothing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_bytes(data)
    scratch.replace(path)


def read_jsonl(path: Path) -> Tuple[List[Tuple[int, Any]], Optional[int], bool]:
    """Parse an append-only JSONL file, telling a torn tail from damage.

    Returns ``(records, tail, torn)``: the ``(line number, value)`` of
    every non-blank line; ``tail``, the byte offset where an
    *unterminated* final line starts (``None`` when the file ends on a
    line boundary); and ``torn``, whether that final line failed to
    parse — an append cut short by a kill, which a reader drops and the
    file's owner truncates back to ``tail``. A *terminated* line that
    fails to parse is damage, not a torn append: it raises
    ``ValueError`` whose first argument is the line number.
    """
    data = Path(path).read_bytes()
    *lines, last = data.split(b"\n")
    records: List[Tuple[int, Any]] = []
    for number, line in enumerate(lines + [last], start=1):
        if not line.strip():
            continue
        try:
            records.append((number, json.loads(line)))
        except ValueError as error:
            if number <= len(lines):
                raise ValueError(number, str(error)) from error
            return records, len(data) - len(last), True
    return records, (len(data) - len(last) if last else None), False


def save_snapshot(
    path: Union[str, Path],
    representation,
    fingerprint: Optional[str] = None,
) -> int:
    """Encode to a file (atomically, via a same-directory rename).

    Returns the number of bytes written.
    """
    blob = encode_snapshot(representation, fingerprint=fingerprint)
    atomic_write(Path(path), blob)
    return len(blob)


def load_snapshot(
    path: Union[str, Path],
    expected_fingerprint: Optional[str] = None,
    context=None,
):
    """Decode a snapshot file; missing files raise :class:`SnapshotError`."""
    return decode_snapshot(_read_blob(path), expected_fingerprint, context)


def _read_blob(path: Union[str, Path]) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from error


def inspect_snapshot_file(path: Union[str, Path]) -> Dict:
    blob = _read_blob(path)
    info = inspect_snapshot(blob)
    info["file_bytes"] = len(blob)
    try:
        info["sections"] = payload_sections(blob)
    except SnapshotError:  # a damaged payload still has a header to show
        info["sections"] = []
    return info


class SnapshotStore:
    """A directory of snapshots keyed by human-meaningful labels.

    The engine's disk tier: labels are arbitrary strings (the engine uses
    ``view|tau|policy`` compositions), mapped to stable filenames as a
    readable slug plus a hash of the full label — restart-stable, so a
    rebooted server resolves the same labels to the same files.

    The store carries the serving database's fingerprint: every save
    stamps it into the header and every load verifies it, so a snapshot
    directory pointed at different data refuses to warm-start from it.
    """

    SUFFIX = ".snap"

    def __init__(
        self,
        directory: Union[str, Path],
        fingerprint: Optional[str] = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fingerprint = fingerprint

    def path_for(self, label: str) -> Path:
        return label_path(self.directory, label, self.SUFFIX)

    def __contains__(self, label: str) -> bool:
        return self.path_for(label).exists()

    def save(self, label: str, representation) -> bool:
        """Write one snapshot; False (not an exception) on failure.

        The disk tier is an optimization: a full disk, a read-only
        directory, or a structure whose values happen not to pickle must
        degrade the engine to memory-only behavior, not fail the build
        that just succeeded.
        """
        try:
            save_snapshot(
                self.path_for(label),
                representation,
                fingerprint=self.fingerprint,
            )
            return True
        except (OSError, pickle.PicklingError, TypeError, AttributeError):
            return False

    def load(self, label: str, context=None):
        """The decoded representation, or None when no snapshot exists.

        Corrupted, truncated, version-mismatched or wrong-database files
        raise :class:`SnapshotError` — callers decide whether that is a
        cache miss (the engine) or a hard error (the CLI). ``context``
        is :func:`decode_snapshot`'s.
        """
        path = self.path_for(label)
        if not path.exists():
            return None
        return load_snapshot(path, self.fingerprint, context)

    def labels_on_disk(self) -> List[Path]:
        """The snapshot files currently present (sorted for determinism)."""
        return sorted(self.directory.glob(f"*{self.SUFFIX}"))

    def remove(self, label: str) -> bool:
        path = self.path_for(label)
        try:
            path.unlink()
            return True
        except OSError:
            return False
