"""Bulk enumeration kernel over compiled columnar layouts.

Algorithm 2 as the paper writes it is a set of recursive generators: one
Python frame per tree node, one per join level, one dict probe per
``(node, access)`` and one β decode per heavy node per visit. That
transcription is the executable spec, ``tests/reference_walk.py``; this
module is what serves. It walks the
:class:`~repro.core.layout.CompiledLayout` instead — iteratively
(explicit stack, no recursion), probing the dictionary with a bisect into
a per-access sorted run, intersecting atom runs with galloping binary
searches, and decoding β codes and final-coordinate runs in bulk. The
atom runs are the context's (:class:`~repro.core.layout.JoinColumns`):
one set per ``(view, database)``, shared by every ``τ`` — and by the
one-leaf layout a dirty dynamic version is read through. Algorithm 4's
interval scans join on them through the same light-node evaluation
(:func:`join_rows`); a build joins on them in array steps instead
(:func:`repro.core.dictionary.array_join`).

Every walk mirrors its spec twin *event for event*: the visit order,
skip conditions, clipping rules and emission points are line-by-line
transcriptions of ``spec_enumerate`` / ``spec_enumerate_from``, so the
produced streams are bit-identical (``tests/test_columnar_kernel.py``
holds the two together).

Measured enumerations (a :class:`~repro.joins.generic_join.JoinCounter`
attached) ride the same walks and count the same logical steps the
reference adds: +1 per dictionary probe, +``len(atoms)`` per β check, +1
per candidate of the smallest in-range participating run at every join
level, +1 per domain value on an unconstrained coordinate. A light node's
rows are buffered before they are yielded, so each row carries a *step
stamp* — the node's step count at the moment the reference would have
yielded it — and the counter is advanced to the stamp as the row is
delivered (:func:`_stamped`): a consumer reading the counter between
pulls sees exactly the reference's gap sequence, early stops included.

Algorithm 2's order is monotone and its tree is deep (the thresholds
τ_ℓ fall below 1 a dozen levels down), so most light boxes are
``(x, y, [z₁..z₂])`` and most β points repeat the unit prefix the
previous box resolved. Every walk therefore carries a *prefix finger*
(:func:`_finger`): per coordinate, the index it was last fixed to, the
per-atom slices below it (or "absent in some atom") and the decoded row
prefix. Boxes and β points are compared against it by value and
re-descend only from the first coordinate that differs — one descent
per distinct prefix per walk, not one per box. The finger is per-walk
state (a local of the walk's frame), never the layout's, which stays
immutable and shareable between threads. The spec spends exactly one
step on a unit coordinate present in every participating atom and ends
the box at an absent one, so the steps of a prefix read off the finger
are added arithmetically (:func:`_light_rows`).

:func:`nested_product_rows` is the same idea for the materialized
constant-delay structures: the recursive per-bag generator nest of
Proposition 4 flattened into one loop with bulk emission at the deepest
bag.

Rows leave the walk in *runs*: a light node's rows as the one list
:func:`_light_rows` builds (measured: its :func:`_stamped` generator), a
β row as a one-row tuple. :func:`kernel_runs` is that stream of runs;
:func:`flatten` turns it into rows with ``chain.from_iterable``, one C
step per row instead of a ``yield from`` frame per wrapper. The walk's
visit order, probes and stamps do not depend on how its runs are read,
so a measured walk stays identical event for event, and a run stream's
wrappers (the representations' checks, a resume's dropped token row)
act once per run, not once per row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterable, Iterator, List, Tuple

from repro.core.intervals import box_decomposition

# Explicit-stack entry kinds. FULL subtrees (seek point entirely below the
# interval) degrade VISIT_FROM entries to VISIT, exactly like the spec's
# seeking walk falling through to its plain one.
_VISIT = 0
_BETA = 1
_VISIT_FROM = 2
_BETA_FROM = 3


# ----------------------------------------------------------------------
# columnar worst-case-optimal join over one box
# ----------------------------------------------------------------------
def _intersect_runs(layout, runs) -> List[int]:
    """Sorted intersection of clipped candidate runs (ascending indexes)."""
    atoms = layout.join_atoms
    if len(runs) == 1:
        index, level, lo, hi = runs[0]
        return atoms[index].vals[level][lo:hi]
    if len(runs) == 2:
        # The overwhelmingly common shape: gallop the smaller run
        # through the larger without the generic sort/zip scaffolding.
        first, second = runs
        if first[3] - first[2] > second[3] - second[2]:
            first, second = second, first
        smallest = atoms[first[0]].vals[first[1]]
        other = atoms[second[0]].vals[second[1]]
        other_lo, other_hi = second[2], second[3]
        result: List[int] = []
        for position in range(first[2], first[3]):
            candidate = smallest[position]
            found = bisect_left(other, candidate, other_lo, other_hi)
            if found < other_hi and other[found] == candidate:
                result.append(candidate)
        return result
    runs = sorted(runs, key=lambda run: run[3] - run[2])
    index, level, lo, hi = runs[0]
    smallest = atoms[index].vals[level]
    others = [
        (atoms[other].vals[other_level], other_lo, other_hi)
        for other, other_level, other_lo, other_hi in runs[1:]
    ]
    result = []
    for position in range(lo, hi):
        candidate = smallest[position]
        for run, run_lo, run_hi in others:
            found = bisect_left(run, candidate, run_lo, run_hi)
            if found >= run_hi or run[found] != candidate:
                break
        else:
            result.append(candidate)
    return result


def _join_coord(
    layout, states, coordinate, box, prefix, out, stamps, base
) -> int:
    """Append the box-restricted join rows for one coordinate onward.

    ``states`` holds per-atom ``(lo, hi)`` run slices aligned with
    ``layout.join_atoms`` and ``prefix`` the decoded row so far (a
    tuple); the precomputed participation schedule says which atoms
    constrain this coordinate (and at which level) — the same
    participation rule as the reference generic join, with sorted-run
    intersections in place of per-candidate hash probes, and the final
    coordinate emitted as one bulk-decoded run. ``coordinate`` is below
    ``layout.width``: the box's leading unit coordinates never get here
    (:func:`_light_rows` resolves them through the finger).

    Returns the logical steps the reference join spends on this subtree:
    one per candidate of the smallest in-range participating run (first
    minimum in atom order, the reference's tie-break), or one per domain
    value on an unconstrained coordinate. When ``stamps`` is a list, each
    row appended to ``out`` also gets its step stamp: ``base`` plus the
    steps counted up to and including the row's own last candidate.
    """
    low_index, high_index = box[coordinate]
    participants = layout.participants[coordinate]
    values = layout.domain_values[coordinate]
    last = coordinate == layout.width - 1
    if not participants:
        # No atom constrains this coordinate: the reference join falls
        # back to the (full) active domain sliced to the box range.
        if last:
            out += [
                prefix + (values[index],)
                for index in range(low_index, high_index + 1)
            ]
            steps = high_index - low_index + 1
            if stamps is not None:
                stamps.extend(range(base + 1, base + steps + 1))
            return steps
        steps = 0
        for index in range(low_index, high_index + 1):
            steps += 1
            steps += _join_coord(
                layout, states, coordinate + 1, box,
                prefix + (values[index],), out, stamps, base + steps,
            )
        return steps
    atoms = layout.join_atoms
    # A unit range is one probe per atom; the full domain clips nothing.
    unit = low_index == high_index
    full = low_index == 0 and high_index == len(values) - 1
    runs = []
    small_length = None
    for index, level in participants:
        clip_lo, clip_hi = states[index]
        run = atoms[index].vals[level]
        if unit:
            clip_lo = bisect_left(run, low_index, clip_lo, clip_hi)
            if clip_lo >= clip_hi or run[clip_lo] != low_index:
                return 0
            clip_hi = clip_lo + 1
        elif not full:
            clip_lo = bisect_left(run, low_index, clip_lo, clip_hi)
            clip_hi = bisect_right(run, high_index, clip_lo, clip_hi)
        if clip_lo >= clip_hi:
            return 0
        runs.append((index, level, clip_lo, clip_hi))
        if small_length is None or clip_hi - clip_lo < small_length:
            # Strictly smaller only: the first minimum, as the reference.
            small_length = clip_hi - clip_lo
            small_run, small_lo, small_hi = run, clip_lo, clip_hi
            small_index = index
    if last:
        # Every clipped run of a unit range is that one index.
        candidates = [low_index] if unit else _intersect_runs(layout, runs)
        if candidates:
            out += [prefix + (values[index],) for index in candidates]
            if stamps is not None:
                # A match's stamp is its 1-based position in the run the
                # reference iterates — the smallest one.
                first = base + 1 - small_lo
                stamps += [
                    bisect_left(small_run, index, small_lo, small_hi) + first
                    for index in candidates
                ]
        return small_length
    deeper = 0
    for small_position in range(small_lo, small_hi):
        candidate = small_run[small_position]
        next_states = list(states)
        for index, level, clip_lo, clip_hi in runs:
            atom = atoms[index]
            position = small_position
            if index != small_index:
                run = atom.vals[level]
                position = bisect_left(run, candidate, clip_lo, clip_hi)
                if position >= clip_hi or run[position] != candidate:
                    break
            if level + 1 < atom.width:
                next_states[index] = (
                    atom.kid_lo[level][position],
                    atom.kid_hi[level][position],
                )
            # An exhausted atom never participates downstream, so its
            # stale slice is simply never read again.
        else:
            spent = small_position - small_lo + 1 + deeper
            deeper += _join_coord(
                layout, next_states, coordinate + 1, box,
                prefix + (values[candidate],), out, stamps, base + spent,
            )
    return small_length + deeper


def _stamped(counter, out, stamps, total) -> Iterator[Tuple]:
    """Yield buffered rows, advancing ``counter`` to each row's stamp.

    Increments (not assignments): a counter shared with interleaved
    enumerations — the decomposed bag nest — keeps their steps. The
    trailing ``total - last stamp`` steps land only when the consumer
    pulls past the last row, exactly when the reference would spend them.
    """
    done = 0
    for row, stamp in zip(out, stamps):
        counter.steps += stamp - done
        done = stamp
        yield row
    counter.steps += total - done


# A finger level nothing has been fixed to yet (or not since a shallower
# level moved): it matches no index, so the first reader descends.
_UNSET = (-1, None, None)


def _finger(layout, states):
    """A walk's fresh prefix finger over its root ``states``.

    O(width) per-walk state: level ``d + 1`` is the triple ``(index,
    states, row)`` — the index coordinate ``d`` was last fixed to, the
    per-atom slices under that prefix (None: the prefix is absent in some
    participating atom) and its decoded values. Only proper prefixes are
    kept (the last coordinate is never fixed here: nothing sits below it
    to share). A level is trusted only by a reader that matched every
    shallower index on its way down, and a re-descent unsets the level
    after its own, so comparing indexes by value is all a reader has to
    do; the list is one longer than its deepest level so that the
    deepest can unset "the next one" without a bounds check.
    """
    finger = [_UNSET] * (layout.width + 1)
    finger[0] = (-1, states, ())
    return finger


def _fix(layout, states, coordinate, index):
    """``states`` with ``coordinate`` fixed to ``index``, or None.

    One bisect and an equality test per participating atom, which is all
    a unit coordinate needs; None when some atom lacks the index.
    """
    atoms = layout.join_atoms
    below = states
    for atom_index, level in layout.participants[coordinate]:
        lo, hi = states[atom_index]
        atom = atoms[atom_index]
        run = atom.vals[level]
        position = bisect_left(run, index, lo, hi)
        if position >= hi or run[position] != index:
            return None
        if level + 1 < atom.width:
            if below is states:
                below = list(states)
            below[atom_index] = (
                atom.kid_lo[level][position],
                atom.kid_hi[level][position],
            )
    return below


def _descend(layout, finger, depth, index):
    """Point finger level ``depth + 1`` at ``index``; returns the level."""
    _, states, row = finger[depth]
    finger[depth + 2] = _UNSET  # it described the prefix being left
    finger[depth + 1] = level = (
        index,
        _fix(layout, states, depth, index),
        row + (layout.domain_values[depth][index],),
    )
    return level


def _light_rows(layout, finger, boxes, counter):
    """The rows of a light node's boxes, stamped when ``counter`` is set.

    A box's leading unit coordinates are read off the walk's finger,
    re-descending only from the first one that differs; the reference
    join spends one step on each that is present in every participating
    atom and ends the box at the first that is not, so their steps are
    counted without being walked. :func:`_join_coord` takes over at the
    first coordinate with a range — at the last one whatever its range,
    so that rows are always emitted in bulk. Measured rows come back as a
    :func:`_stamped` generator; with no row to stamp, the steps are
    counted on the spot and the list comes back empty.
    """
    last = layout.width - 1
    out: List[Tuple] = []
    stamps = None if counter is None else []
    steps = 0
    for box in boxes:
        level = finger[0]
        depth = 0
        for low, high in box:
            if low != high or depth == last:
                steps += depth + _join_coord(
                    layout, level[1], depth, box, level[2],
                    out, stamps, steps + depth,
                )
                break
            level = finger[depth + 1]
            if level[0] != low:
                level = _descend(layout, finger, depth, low)
            if level[1] is None:
                steps += depth  # absent: the steps spent so far
                break
            depth += 1
        else:  # no free coordinate at all: the box is the empty row
            out.append(())
            if stamps is not None:
                stamps.append(steps)
    if stamps is not None and out:
        return _stamped(counter, out, stamps, steps)
    if counter is not None:
        counter.steps += steps  # no row to stamp: the steps land now
    return out


def _point_joins(layout, finger, point) -> bool:
    """A β check: the all-unit box ``point``.

    Its prefix is read off the finger like any box's; the last
    coordinate is only probed — no row to build, nothing below to keep.
    """
    level = finger[0]
    last = layout.width - 1
    for depth in range(last):
        index = point[depth]
        level = finger[depth + 1]
        if level[0] != index:
            level = _descend(layout, finger, depth, index)
        if level[1] is None:
            return False
    return _fix(layout, level[1], last, point[last]) is not None


# ----------------------------------------------------------------------
# the tree walk (enumerate / enumerate_from)
# ----------------------------------------------------------------------
def _walk(layout, access, start, counter) -> Iterator[Iterable[Tuple]]:
    tree = layout.tree
    root = tree.root
    if root < 0:
        return
    states = layout.root_states(access)
    if states is None:
        return
    ids, bits = layout.dictionary.nodes, layout.dictionary.bits
    lo, hi = layout.dictionary.index.get(access, (0, 0))  # the access's slice
    left_col = tree.left
    right_col = tree.right
    low_col = tree.low
    high_col = tree.high
    beta_col = tree.beta
    beta_values = tree.beta_values
    boxes_col = tree.boxes
    beta_steps = len(layout.atoms)  # one membership probe per atom
    finger = _finger(layout, states)
    stack = [(_VISIT if start is None else _VISIT_FROM, root)]
    while stack:
        kind, node_id = stack.pop()
        if kind == _VISIT_FROM:
            if high_col[node_id] < start:
                continue
            if low_col[node_id] >= start:
                kind = _VISIT  # whole subtree past the seek: full walk
            else:
                if counter is not None:
                    counter.steps += 1  # dictionary probe
                position = bisect_left(ids, node_id, lo, hi)
                bit = (
                    bits[position]
                    if position < hi and ids[position] == node_id
                    else None
                )
                if bit == 0:
                    continue
                if bit == 1 and beta_col[node_id] is not None:
                    right = right_col[node_id]
                    if right >= 0:
                        stack.append((_VISIT_FROM, right))
                    stack.append((_BETA_FROM, node_id))
                    left = left_col[node_id]
                    if left >= 0:
                        stack.append((_VISIT_FROM, left))
                    continue
                # ⊥: the interval clipped at the seek point, decomposed.
                boxes = box_decomposition(
                    max(low_col[node_id], start),
                    high_col[node_id],
                    layout.space.top(),
                )
                rows = _light_rows(layout, finger, boxes, counter)
                if rows:  # an empty list is no run
                    yield rows
                continue
        if kind == _VISIT:
            if counter is not None:
                counter.steps += 1  # dictionary probe
            position = bisect_left(ids, node_id, lo, hi)
            bit = (
                bits[position]
                if position < hi and ids[position] == node_id
                else None
            )
            if bit == 0:
                continue
            if bit == 1 and beta_col[node_id] is not None:
                right = right_col[node_id]
                if right >= 0:
                    stack.append((_VISIT, right))
                stack.append((_BETA, node_id))
                left = left_col[node_id]
                if left >= 0:
                    stack.append((_VISIT, left))
                continue
            rows = _light_rows(layout, finger, boxes_col[node_id], counter)
            if rows:
                yield rows
            continue
        point = beta_col[node_id]
        if kind == _BETA_FROM and point < start:
            continue
        if counter is not None:
            counter.steps += beta_steps
        if _point_joins(layout, finger, point):
            yield (beta_values[node_id],)


def join_rows(columns, access: Tuple, boxes, counter=None):
    """The join of ``columns`` under ``access``, box after box.

    The light-node evaluation over any boxes, rows decoded by
    ``columns.domain_values``: what ``enumerate_interval`` reads with. A
    list, or with a ``counter`` and some row the same rows stamped as a
    generator; empty when some atom lacks the bound values.
    """
    states = columns.root_states(access)
    if states is None:
        return []
    return _light_rows(columns, _finger(columns, states), boxes, counter)


class Rows(chain):
    """A stream of runs read as rows, at C level (``chain.from_iterable``).

    A bare ``chain`` has no ``close()``; this one closes the generator of
    runs it reads, so closing a cursor still closes its walk.
    """

    __slots__ = ("runs",)

    def close(self) -> None:
        """Close the generator of runs (and through it, the walk)."""
        self.runs.close()


_rows_of = Rows.from_iterable  # bound once: a stream is made per request


def flatten(runs: Iterator[Iterable[Tuple]]) -> Iterator[Tuple]:
    """The rows of ``runs``, a generator of row runs."""
    rows = _rows_of(runs)
    rows.runs = runs
    return rows


#: The walk's runs, ``kernel_runs(layout, access, start, counter)``:
#: ``spec_enumerate``'s rows (``start`` None) or, from the index-space
#: seek point ``start``, ``spec_enumerate_from``'s.
kernel_runs = _walk


def kernel_enumerate(layout, access: Tuple, counter=None) -> Iterator[Tuple]:
    """The kernel twin of the spec's ``spec_enumerate``."""
    return flatten(_walk(layout, access, None, counter))


# ----------------------------------------------------------------------
# flattened nested-bag product (constant-delay structures)
# ----------------------------------------------------------------------
def _counted(rows, counter) -> Iterator[Tuple]:
    """``rows``, one step per row as it is taken."""
    for row in rows:
        counter.steps += 1
        yield row


def nested_product_rows(
    bag_specs, assignment, free_order, counter=None
) -> Iterator[Tuple]:
    """Iterative twin of the spec's ``spec_nested_rows`` (Proposition 4).

    ``bag_specs`` is a pre-order list of ``(bound_vars, free_vars, index)``
    triples over materialized bags; ``assignment`` holds the bound
    valuation and is extended in place. Emission order matches the
    recursive reference exactly (bag index lists are pre-sorted); the
    deepest bag is emitted as one bulk run per parent valuation. With a
    ``counter`` the walk counts what the reference counts: one step per
    bag index lookup and one per bag row taken.
    """
    count = len(bag_specs)
    if count == 0:
        yield tuple(assignment[v] for v in free_order)
        return

    def rows_at(position):
        bound_vars, _free_vars, index = bag_specs[position]
        rows = index.get(tuple(assignment[v] for v in bound_vars), ())
        if counter is None:
            return rows
        counter.steps += 1
        return _counted(rows, counter)

    last = count - 1
    if count == 1:
        free_vars = bag_specs[0][1]
        for values in rows_at(0):
            for var, value in zip(free_vars, values):
                assignment[var] = value
            yield tuple(assignment[v] for v in free_order)
        return
    iterators: List = [None] * count
    iterators[0] = iter(rows_at(0))
    position = 0
    while position >= 0:
        values = next(iterators[position], None)
        if values is None:
            position -= 1
            continue
        free_vars = bag_specs[position][1]
        for var, value in zip(free_vars, values):
            assignment[var] = value
        if position + 1 == last:
            last_free = bag_specs[last][1]
            for last_values in rows_at(last):
                for var, value in zip(last_free, last_values):
                    assignment[var] = value
                yield tuple(assignment[v] for v in free_order)
        else:
            position += 1
            iterators[position] = iter(rows_at(position))
