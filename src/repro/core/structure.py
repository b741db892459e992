"""The Theorem 1 compressed representation.

:class:`CompressedRepresentation` is the library's central class. Given a
full adorned view, a database and a threshold ``τ``, it builds the pair
``(T, D)`` — delay-balanced tree plus heavy-pair dictionary — of
Section 4.3, and answers access requests with Algorithm 2:

* dictionary says ⊥ (light pair): evaluate the sub-instance directly, one
  worst-case-optimal join per box of the interval's decomposition — time
  ``O(T(v_b, I)) ≤ O(τ_ℓ)`` by Proposition 6;
* dictionary says 0: the sub-instance is empty, skip;
* dictionary says 1: recurse left, emit the split valuation β if it joins
  (O(1) membership probes), recurse right.

The traversal yields results in lexicographic order of the free variables
with delay ``Õ(τ)`` (Proposition 9) and answer time
``Õ(|q(D)| + τ·|q(D)|^{1/α})`` (Proposition 10).

Every entry point runs that traversal through the columnar kernel
(:mod:`repro.core.kernel`) over the layout the build writes — the one
form of ``(T, D)`` an instance keeps and a snapshot stores, and never
edited: a cut or a refined Theorem 2 bag is another instance with
another layout. :attr:`CompressedRepresentation.dictionary` is the
layout's :class:`~repro.core.layout.DictColumns`, and
:attr:`~CompressedRepresentation.tree` an object view materialised from
the tree columns when someone asks. The
recursive, line-by-line transcription of Algorithm 2 is the executable
spec in ``tests/reference_walk.py``: the kernel is tested against it row
for row and step for step, and nothing here routes to it.
"""

from __future__ import annotations

import math
import time
from copy import copy
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.core import layout as layout_mod
from repro.core.balanced_tree import (
    DelayBalancedTree,
    build_tree_columns,
    level_threshold,
)
from repro.core.context import ViewContext
from repro.core.kernel import flatten, join_rows
from repro.core.cost import CostModel
from repro.core.dictionary import array_join, bound_candidates, build_dictionary
from repro.core.layout import DictColumns
from repro.core.representation import Representation
from repro.database.catalog import Database
from repro.exceptions import ParameterError, SnapshotError
from repro.hypergraph.covers import slack
from repro.hypergraph.hypergraph import Hypergraph
from repro.joins.generic_join import JoinCounter
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView
from repro.query.rewriting import natural_form


@dataclass(frozen=True)
class BuildStats:
    """Construction-time facts about one compressed representation."""

    tau: float
    alpha: float
    weights: Mapping[int, float]
    tree_nodes: int
    tree_depth: int
    dictionary_entries: int
    output_tuples: int
    build_seconds: float


class CompressedRepresentation(Representation):
    """Space/delay-tunable compressed representation of a full adorned view.

    Parameters
    ----------
    view:
        A *full* adorned view. Views with constants or repeated variables
        are normalized automatically (Example 3).
    db:
        The input database.
    tau:
        The delay knob τ > 0. Larger τ means less space and more delay:
        space scales as ``Π|R_F|^{u_F} / τ^α`` beyond the input.
    weights:
        Optional fractional edge cover of all variables, keyed by atom
        index. Defaults to a minimum cover with maximum slack on the free
        variables (the best Theorem 1 point for the given ρ*).
    alpha:
        Optional slack override; defaults to the slack of ``weights`` on
        the free variables.
    context:
        Optional :class:`~repro.core.context.ViewContext` already built
        over exactly this natural ``(view, db)``: the per-view half of
        the structure (domains, the atoms' index, default cover), shared by
        reference instead of rebuilt. The engine passes its
        registration's; ``None`` builds a private one.
    """

    #: ``enumerate_from`` seeks to a start point in one delay unit.
    supports_resume = True

    #: Every enumeration rides the columnar kernel.
    kernel_ready = True

    def __init__(
        self,
        view: AdornedView,
        db: Database,
        tau: float,
        weights: Optional[Mapping[int, float]] = None,
        alpha: Optional[float] = None,
        context: Optional[ViewContext] = None,
    ):
        started = time.perf_counter()
        if tau <= 0:
            raise ParameterError(f"tau must be positive, got {tau}")
        self.original_view = view
        self.view, self.db = natural_form(view, db)
        self._bind(tau, weights, alpha, context)
        tree, depth = build_tree_columns(self.cost_model, self.tau, self.alpha)
        candidates = bound_candidates(self.ctx)
        output = array_join(self.ctx.columns(), candidates)
        thresholds = [
            level_threshold(self.tau, self.alpha, level) for level in range(depth + 1)
        ]
        dictionary = build_dictionary(
            self.cost_model, tree, thresholds, candidates, output
        )
        self._compile(tree, depth, dictionary, len(output.owner), started)

    # ------------------------------------------------------------------
    # columnar kernel layout
    # ------------------------------------------------------------------
    def _compile(self, tree, depth, dictionary, output_count, started) -> None:
        """Take a built ``(T, D)``: record its stats, keep its columns.

        ``tree`` and ``dictionary`` are the columns
        (:class:`~repro.core.layout.TreeColumns`, of ``depth`` levels
        below the root, and :class:`~repro.core.layout.DictColumns`), as
        the build writes them; from here the instance holds the compiled
        layout and nothing else.
        """
        self.stats = BuildStats(
            tau=self.tau,
            alpha=self.alpha,
            weights=dict(self.weights),
            tree_nodes=len(tree.left),
            tree_depth=depth,
            dictionary_entries=len(dictionary),
            output_tuples=output_count,
            build_seconds=time.perf_counter() - started,
        )
        started = time.perf_counter()
        self._tree = None
        self._layout = layout_mod.compile_layout(self.ctx, tree, dictionary)
        self.layout_compile_seconds = time.perf_counter() - started

    @property
    def tree(self) -> DelayBalancedTree:
        """The delay-balanced tree as node objects: a view of the columns.

        Materialised on first touch and kept; nothing that serves,
        accounts or stores reads it.
        """
        if self._tree is None:
            self._tree = DelayBalancedTree.from_columns(
                self._layout.tree, self.tau, self.alpha
            )
        return self._tree

    @property
    def dictionary(self) -> DictColumns:
        """The heavy dictionary: the layout's columns, read-only."""
        return self._layout.dictionary

    def compile_layout(self) -> "layout_mod.CompiledLayout":
        """The compiled layout the kernel walks (the build compiled it)."""
        return self._layout

    def with_bits(self, bits: bytes) -> "CompressedRepresentation":
        """This structure with ``bits`` as its dictionary's stored bits.

        Algorithm 4's refined bag: everything else — tree columns, the
        dictionary's ``index`` and ``nodes``, context, stats — is shared,
        as a cut shares. The copy holds no entry costs, so it is not
        :attr:`cuttable`.
        """
        refined, layout = copy(self), copy(self._layout)
        built = layout.dictionary
        layout.dictionary = DictColumns(built.index, built.nodes, bits)
        refined._layout = layout
        return refined

    def cut(self, tau: float) -> "CompressedRepresentation":
        """The structure at any ``tau ≥ self.tau``, cut from this one.

        Same context and cover; the columns equal a direct build's at
        ``tau``, bit for bit, from one linear pass over these
        (:func:`~repro.core.layout.cut_layout`): ``τ`` only decides where
        a node stops and which pairs are heavy. ``build_seconds`` is the
        cut's own time. Only a freshly built (or cut) structure keeps the
        per-entry costs the pass filters on; anything decoded, upgraded
        or refined raises :class:`~repro.exceptions.ParameterError`,
        and so does a ``tau`` below this one's.
        """
        started = time.perf_counter()
        layout = self._layout
        if layout.dictionary.costs is None:
            raise ParameterError("decoded or refined: no entry costs to cut")
        if not tau >= self.tau:
            raise ParameterError(f"a cut only raises tau: {tau!r} < {self.tau!r}")
        cut = copy(self)  # view, database, context and cost model shared
        cut.tau, cut.weights = float(tau), dict(self.weights)
        levels = range(self.stats.tree_depth + 1)
        thresholds = [level_threshold(cut.tau, self.alpha, ell) for ell in levels]
        cut._layout, depth = layout_mod.cut_layout(
            layout, thresholds, self.ctx.columns()
        )
        cut._tree, cut.layout_compile_seconds = None, 0.0
        cut.stats = replace(
            self.stats,
            tau=cut.tau,
            tree_nodes=len(cut._layout.tree.left),
            tree_depth=depth,
            dictionary_entries=len(cut._layout.dictionary),
            build_seconds=time.perf_counter() - started,
        )
        return cut

    @property
    def cuttable(self) -> bool:
        """Whether :meth:`cut` can raise this structure's τ (it holds the
        per-entry costs only a fresh build or a cut keeps)."""
        return self._layout.dictionary.costs is not None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _bind(self, tau, weights, alpha, context) -> None:
        """Attach context, cover knobs and cost model (no structure build).

        Everything here is derived deterministically from ``(view, db)``
        plus the explicit parameters; both the building constructor and
        the snapshot restore path run it, so a restored instance carries
        a live context and cost model without re-running the expensive
        tree/dictionary construction. The τ-independent part is the
        :class:`~repro.core.context.ViewContext`: ``context`` is adopted
        by reference, or, when ``None``, built here.
        """
        if context is None:
            context = ViewContext(self.view, self.db)
        elif context.view is not self.view or context.db is not self.db:
            raise ParameterError("context built over another (view, database)")
        self.ctx = context
        self.hypergraph: Hypergraph = context.hypergraph
        free = self.ctx.free_order
        if weights is None:
            weights, cover_alpha = context.default_cover()
            if alpha is None:
                alpha = cover_alpha
        else:
            weights = dict(weights)
            self._validate_cover(weights)
            if alpha is None:
                alpha = slack(self.hypergraph, weights, free)
        if not math.isinf(alpha) and alpha < 1.0 - 1e-9:
            raise ParameterError(f"slack alpha must be >= 1, got {alpha}")
        alpha = max(alpha, 1.0) if not math.isinf(alpha) else alpha
        self.tau = float(tau)
        self.alpha = float(alpha)
        self.weights = {label: float(w) for label, w in weights.items()}
        self.cost_model = CostModel(self.ctx, self.weights, self.alpha)

    def _validate_cover(self, weights: Mapping[int, float]) -> None:
        for var in self.ctx.bound_order + self.ctx.free_order:
            coverage = sum(
                weights.get(label, 0.0)
                for label in self.hypergraph.edges_containing(var)
            )
            if coverage < 1.0 - 1e-6:
                raise ParameterError(
                    f"weights do not cover variable {var!r} "
                    f"(coverage {coverage:.3f} < 1)"
                )

    # ------------------------------------------------------------------
    # explicit state (the snapshot boundary)
    # ------------------------------------------------------------------
    def snapshot_state(self, enclosing_db: Optional[Database] = None) -> Dict:
        """Plain-data state sufficient to restore this instance exactly.

        The state records the *normalized* view and database (what the
        structure was actually built over) as one ``"source"`` section —
        the context's own bytes (:meth:`ViewContext.source`) — plus the
        expensive build artifact — ``(T, D)`` — once, as its compiled
        columns. The atoms' index, domains and the cost model are
        deterministic functions of ``(view, db)`` and are rebuilt on
        restore — or adopted from a resident context over an equal
        ``(view, db)`` — rather than stored.

        ``enclosing_db`` is for a state embedded in another that already
        stores a database (a dynamic representation's): when it is this
        structure's very database, the source's database state is None
        and the restorer hands the enclosing one back by reference.
        """
        from repro.core.snapshot import source_section, view_state

        return {
            "source": (
                source_section((view_state(self.view), None))
                if self.db is enclosing_db
                else self.ctx.source()
            ),
            "tau": self.tau,
            "alpha": self.alpha,
            "weights": sorted(self.weights.items()),
            "stats": {
                **asdict(self.stats),
                "weights": sorted(self.stats.weights.items()),
            },
            "columns": self._layout.to_state(),
        }

    @classmethod
    def from_snapshot_state(
        cls,
        state: Dict,
        context: Optional[ViewContext] = None,
        enclosing_db: Optional[Database] = None,
    ) -> "CompressedRepresentation":
        """Restore an instance from :meth:`snapshot_state` output.

        Enumeration behavior (answers, order, delay steps) is identical
        to the original: the columns are restored bit for bit — handed
        to the layout as the lists they decode to, no tree or dictionary
        object made on the way — and the rebuilt context is a pure
        function of the stored view and database. A codec v1 / v2 state
        (node records, triples, a 64-bit layout) restores into the same
        one-form instance. ``enclosing_db`` is :meth:`snapshot_state`'s.

        With a resident ``context`` nothing is rebuilt: the instance
        adopts it — but only after the state's own view and database
        compare *equal* to the context's (an exact comparison, not a
        hash); anything else raises
        :class:`~repro.exceptions.SnapshotError`. A v4 source whose bytes
        are the context's own is that proof, and is never unpickled;
        other bytes (another pickler's, v3's two sections) are decoded
        and their states compared.
        """
        from repro.core import snapshot as snap

        try:
            if context is None:
                view, db = snap.source_states(state)
                view = snap.view_from_state(view)
                db = enclosing_db if db is None else snap.database_from_state(db)
                if db is None:
                    raise SnapshotError("state points at an enclosing state's database")
            elif (
                state.get("source") == context.source()
                or snap.source_states(state) == context.states()
            ):
                view, db = context.view, context.db
            else:
                raise SnapshotError(
                    "snapshot was built over another view or database "
                    f"than the resident context of {context.view.name!r}"
                )
            self = object.__new__(cls)
            self.original_view = view
            self.view, self.db = view, db
            self._bind(
                state["tau"], dict(state["weights"]), state["alpha"], context
            )
            stats = dict(state["stats"])
            stats["weights"] = dict(stats["weights"])
            self.stats = BuildStats(**stats)
            started = time.perf_counter()
            self._tree = None
            columns = state.get("columns")
            if columns is None:  # codec v1 / v2: records, triples, a layout
                columns = layout_mod.upgrade_legacy_state(
                    state, self.cost_model.tops
                )
            self._layout = layout_mod.CompiledLayout.from_state(
                columns, self.ctx.columns()
            )
            self.layout_compile_seconds = time.perf_counter() - started
            return self
        except SnapshotError:
            raise
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as error:
            raise SnapshotError(
                f"malformed compressed-representation state: {error}"
            ) from error

    # ------------------------------------------------------------------
    # Algorithm 2: query answering
    # ------------------------------------------------------------------
    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Answer the access request ``Q^η[v_b]`` in lexicographic order.

        Yields value tuples over the free variables (head order). The
        optional counter accumulates logical steps for delay measurement.
        """
        return flatten(self._layout_runs(self._layout, access, None, counter))

    def enumerate_from(
        self,
        access: Sequence,
        start_values: Sequence,
        counter: Optional[JoinCounter] = None,
    ) -> Iterator[Tuple]:
        """Enumerate answers with free tuple lexicographically >= start.

        The seek costs one delay unit: subtrees entirely below the start
        point are skipped via their intervals, and the first partially
        overlapping node is evaluated on the clipped interval. This is the
        primitive behind the projection support suggested in Section 3.2
        (force projected variables last, then jump between distinct
        prefixes).

        ``start_values`` is a full free-variable value tuple; values need
        not be in the active domains (the ceiling inside the domains is
        used).
        """
        return flatten(self._runs(access, start_values, counter))

    def _runs(self, access, start_values, counter):
        return self._layout_runs(self._layout, access, start_values, counter)

    def enumerate_interval(
        self,
        access: Sequence,
        interval,
        counter: Optional[JoinCounter] = None,
    ) -> Iterator[Tuple]:
        """Evaluate the access request restricted to one f-interval.

        Bypasses the dictionary (pure worst-case-optimal evaluation over the
        interval's box decomposition): ``Q[v_b] ⋉ I(w)``, the join the
        Theorem 2 refinement (Algorithm 4) runs over a node's boxes.
        """
        yield from join_rows(
            self.ctx.columns(),
            self._check_access(access),
            self.cost_model.boxes(interval),
            counter,
        )

    # ------------------------------------------------------------------
    # convenience API
    # ------------------------------------------------------------------
    def count(self, access: Sequence) -> int:
        total = 0
        for _ in self.enumerate(access):
            total += 1
        return total

    def space_report(self) -> SpaceReport:
        """Cell counts: the ``S`` of Theorem 1, split into components."""
        return SpaceReport(
            base_tuples=self.db.total_tuples(),
            index_cells=self.ctx.index_cells(),
            tree_nodes=len(self._layout.tree.left),
            dictionary_entries=len(self._layout.dictionary),
        )

    @property
    def free_variables(self):
        return self.ctx.free_order

    @property
    def bound_variables(self):
        return self.ctx.bound_order
