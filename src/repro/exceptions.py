"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class. The subclasses distinguish the
three layers where things can go wrong: the data model (schemas, arities),
the query model (parsing, adornments), and the compressed-structure layer
(parameters outside their valid range).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation was used with an inconsistent arity or malformed tuples."""


class QueryError(ReproError):
    """A conjunctive query or adorned view is malformed.

    Raised by the parser, by adornment validation (pattern length must match
    the head arity), and by operations that require a natural join query
    (e.g. building the Theorem 1 structure before rewriting constants away).
    """


class DecompositionError(ReproError):
    """A tree decomposition violates one of its defining properties."""


class ParameterError(ReproError):
    """A tuning parameter (tau, cover weights, delay assignment) is invalid."""


class OptimizationError(ReproError):
    """An LP used for cover/parameter search is infeasible or failed."""


class TelemetryError(ReproError):
    """A persisted telemetry record cannot be used.

    Raised by :mod:`repro.engine.telemetry` for malformed JSONL lines,
    schema/version mismatches, and histogram merges whose bucket
    boundaries disagree. Loading never surfaces raw ``json`` errors —
    every failure mode maps here, stamped with the offending file and
    line number.
    """


class SnapshotError(ReproError):
    """A serialized representation snapshot cannot be used.

    Raised by :mod:`repro.core.snapshot` for malformed, truncated or
    corrupted snapshot blobs, for version/format mismatches, and for
    snapshots whose source database fingerprint differs from the database
    they are being loaded against. Decoding never surfaces raw unpickling
    errors — every failure mode maps here.
    """
