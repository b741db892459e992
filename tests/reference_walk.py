"""Algorithm 2 as the paper writes it — the executable spec of enumeration.

``src/`` has one enumerator for the static structures: the columnar
kernel (:mod:`repro.core.kernel`). This module is what that kernel is
held to. It is the recursive, line-by-line transcription of the paper's
walks (Deep & Koutris, Theorem 1 / Algorithm 2; Proposition 4 for the
materialised bags), moved here unchanged from ``core/structure.py`` and
``core/constant_delay.py`` when the kernel became the only route:

* dictionary says ⊥ (light pair): evaluate the sub-instance directly, one
  worst-case-optimal join per box of the interval's decomposition;
* dictionary says 0: the sub-instance is empty, skip;
* dictionary says 1: recurse left, emit the split valuation β if it joins,
  recurse right.

The ``spec_*`` functions are plain functions over a built structure's
public fields — ``tree``, ``dictionary``, ``ctx`` — reading boxes in the
object form of ``tests/reference_build.py`` (the build's spec) and
joining on that module's tries (built test-side from the rows), and
take their inputs already normalised, exactly like their kernel twin
(``kernel_runs(layout, access, start, counter)`` ↔
``spec_enumerate(rep, access, counter)`` /
``spec_enumerate_from(rep, access, start, counter)``): a checked access
tuple, a ceiled index-space seek point. With a
:class:`~repro.joins.generic_join.JoinCounter` they count the logical
steps the delay guarantees are stated in: +1 per dictionary probe,
+``len(atoms)`` per β check, and the generic join's own per-candidate
steps — the numbers the kernel must reproduce stamp for stamp.

:func:`reference_walk` is the only "kernel off" there is: a test fixture
that serves the static structures' entry points from the spec for one
``with`` block. ``tests/test_columnar_kernel.py`` runs every entry point
once plain and once under it and compares rows, order and step gaps;
``tests/oracle.py`` (independent hash joins) is the third leg.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator, Optional, Tuple
from unittest import mock

from reference_build import (
    FInterval,
    free_ranges_of_box,
    spec_beta_matches,
    spec_boxes,
    spec_subtries,
    spec_value_domains,
)
from reference_index import generic_join
from repro.core import constant_delay
from repro.core.decomposed import DecomposedRepresentation
from repro.core.structure import CompressedRepresentation
from repro.joins.generic_join import JoinCounter


# ----------------------------------------------------------------------
# Theorem 1: the delay-balanced tree walk
# ----------------------------------------------------------------------
def _join_box(rep, access, subtries, box, counter) -> Iterator[Tuple]:
    """One worst-case-optimal join restricted to one f-box."""
    if box.is_empty():
        return
    ctx = rep.ctx
    atoms = [
        (node, binding.free_vars)
        for binding, node in zip(ctx.atoms, subtries)
    ]
    yield from generic_join(
        atoms,
        ctx.free_order,
        ranges=free_ranges_of_box(ctx, box),
        domains=spec_value_domains(ctx),
        counter=counter,
    )


def spec_enumerate(
    rep, access: Tuple, counter: Optional[JoinCounter] = None
) -> Iterator[Tuple]:
    """``Q^η[v_b]`` in lexicographic order — Algorithm 2 from the root."""
    if rep.tree.root is None:
        return
    subtries = spec_subtries(rep.ctx, access)
    if any(node is None for node in subtries):
        return  # some relation has no tuple matching the bound values
    yield from _eval(rep, rep.tree.root, access, subtries, counter)


def _eval(rep, node, access, subtries, counter) -> Iterator[Tuple]:
    if counter is not None:
        counter.steps += 1  # dictionary probe
    bit = rep.dictionary.get(node.id, access)
    if bit == 0:
        return
    if bit == 1 and not node.is_leaf:
        if node.left is not None:
            yield from _eval(rep, node.left, access, subtries, counter)
        beta_values = rep.ctx.space.values(node.beta)
        if counter is not None:
            counter.steps += len(rep.ctx.atoms)
        if spec_beta_matches(rep.ctx, access, beta_values):
            yield beta_values
        if node.right is not None:
            yield from _eval(rep, node.right, access, subtries, counter)
        return
    # ⊥ — a light pair: evaluate the sub-instance directly (≤ τ_ℓ work).
    for box in spec_boxes(node.interval, rep.ctx.space):
        yield from _join_box(rep, access, subtries, box, counter)


def spec_enumerate_from(
    rep,
    access: Tuple,
    start: Tuple[int, ...],
    counter: Optional[JoinCounter] = None,
) -> Iterator[Tuple]:
    """Answers at index points ``>= start``; the seek costs one delay unit.

    Subtrees entirely below the start point are skipped via their
    intervals, and the first partially overlapping node is evaluated on
    the clipped interval.
    """
    if rep.tree.root is None:
        return
    subtries = spec_subtries(rep.ctx, access)
    if any(node is None for node in subtries):
        return
    yield from _eval_from(rep, rep.tree.root, access, subtries, start, counter)


def _eval_from(rep, node, access, subtries, start, counter) -> Iterator[Tuple]:
    if node.interval.high < start:
        return  # the whole subtree precedes the start point
    if node.interval.low >= start:
        yield from _eval(rep, node, access, subtries, counter)
        return
    if counter is not None:
        counter.steps += 1
    bit = rep.dictionary.get(node.id, access)
    if bit == 0:
        return
    if bit == 1 and not node.is_leaf:
        if node.left is not None:
            yield from _eval_from(
                rep, node.left, access, subtries, start, counter
            )
        if node.beta >= start:
            beta_values = rep.ctx.space.values(node.beta)
            if counter is not None:
                counter.steps += len(rep.ctx.atoms)
            if spec_beta_matches(rep.ctx, access, beta_values):
                yield beta_values
        if node.right is not None:
            yield from _eval_from(
                rep, node.right, access, subtries, start, counter
            )
        return
    # ⊥: evaluate the clipped interval directly.
    clipped = FInterval(max(node.interval.low, start), node.interval.high)
    for box in clipped.box_decomposition(rep.ctx.space):
        yield from _join_box(rep, access, subtries, box, counter)


# ----------------------------------------------------------------------
# Proposition 4: the per-bag generator nest over materialised bags
# ----------------------------------------------------------------------
def spec_nested_rows(
    bag_specs, assignment, free_order, counter: Optional[JoinCounter] = None
) -> Iterator[Tuple]:
    """Pre-order nested lookups, one generator frame per bag.

    Same signature as its kernel twin
    (:func:`repro.core.kernel.nested_product_rows`): ``bag_specs`` is the
    pre-order list of ``(bound_vars, free_vars, index)`` triples,
    ``assignment`` holds the bound valuation and is extended in place.
    One step per bag index lookup, one per bag row taken.
    """

    def recurse(position: int) -> Iterator[Tuple]:
        if position == len(bag_specs):
            yield tuple(assignment[v] for v in free_order)
            return
        bound_vars, free_vars, index = bag_specs[position]
        key = tuple(assignment[v] for v in bound_vars)
        if counter is not None:
            counter.steps += 1
        for values in index.get(key, ()):
            if counter is not None:
                counter.steps += 1
            for var, value in zip(free_vars, values):
                assignment[var] = value
            yield from recurse(position + 1)

    yield from recurse(0)


# ----------------------------------------------------------------------
# the fixture
# ----------------------------------------------------------------------
# The entry points' own preamble (arity check, seek-point ceiling) is not
# part of the walk: the patched run source below keeps it and hands the
# normalised inputs to the spec where the real one hands them to the
# kernel. The spec's rows arrive as one run, the whole stream.
def _layout_runs(self, layout, access, start_values, counter=None):
    access = self._check_access(access)
    if start_values is None:
        yield spec_enumerate(self, access, counter)
        return
    if self.tree.root is None:
        return
    start = self.ctx.space.ceil_point(start_values)
    if start is None:
        return  # start lies beyond the top of the tuple space
    yield spec_enumerate_from(self, access, start, counter)


@contextmanager
def reference_walk():
    """Serve the static structures from the spec for one ``with`` block.

    Patches ``CompressedRepresentation._layout_runs``, the run source behind
    its ``enumerate`` / ``enumerate_from`` / ``enumerate_after`` (and
    with them every bag of a ``DecomposedRepresentation``, the clean
    side of a dynamic view and every batch's per-request walk)
    and the flattened bag product ``ConnexConstantDelayStructure``
    calls; ``kernel_ready`` reads ``False`` on the patched classes
    meanwhile, so anything that reads the attribute is told the truth.
    Not thread-safe and not re-entrant — a test fixture, nothing more.
    """
    patched = (
        (CompressedRepresentation, "_layout_runs", _layout_runs),
        (CompressedRepresentation, "kernel_ready", False),
        (DecomposedRepresentation, "kernel_ready", False),
        (constant_delay, "nested_product_rows", spec_nested_rows),
    )
    with ExitStack() as stack:
        for owner, name, replacement in patched:
            stack.enter_context(mock.patch.object(owner, name, replacement))
        yield
