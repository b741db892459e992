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
(:mod:`repro.core.kernel`) over the layout compiled at build time. The
recursive, line-by-line transcription of Algorithm 2 is the executable
spec in ``tests/reference_walk.py``: the kernel is tested against it row
for row and step for step, and nothing here routes to it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core import layout as layout_mod
from repro.core.balanced_tree import (
    DelayBalancedTree,
    build_delay_balanced_tree,
)
from repro.core.context import ViewContext
from repro.core.kernel import kernel_enumerate, kernel_enumerate_from
from repro.core.cost import CostModel
from repro.core.dictionary import HeavyDictionary, build_dictionary
from repro.core.representation import Representation
from repro.database.catalog import Database
from repro.exceptions import ParameterError, SnapshotError
from repro.hypergraph.covers import slack
from repro.hypergraph.hypergraph import Hypergraph
from repro.joins.generic_join import JoinCounter, generic_join
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
        the structure (tries, domains, default cover), shared by
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
        self.tree: DelayBalancedTree = build_delay_balanced_tree(
            self.cost_model, self.tau, self.alpha
        )
        outputs, output_count = self._materialize_outputs()
        self.dictionary: HeavyDictionary = build_dictionary(
            self.cost_model, self.tree, outputs
        )
        self.stats = BuildStats(
            tau=self.tau,
            alpha=self.alpha,
            weights=dict(self.weights),
            tree_nodes=len(self.tree.nodes),
            tree_depth=self.tree.depth(),
            dictionary_entries=len(self.dictionary),
            output_tuples=output_count,
            build_seconds=time.perf_counter() - started,
        )
        self.compile_layout()

    # ------------------------------------------------------------------
    # columnar kernel layout
    # ------------------------------------------------------------------
    def compile_layout(self) -> "layout_mod.CompiledLayout":
        """Compile (or recompile) the columnar layout for this structure.

        Called at build time and after any in-place dictionary edit (the
        Algorithm 4 refinement does this); ``layout_compile_seconds``
        records the cost for the telemetry histogram.
        """
        started = time.perf_counter()
        self._layout = layout_mod.compile_layout(
            self.ctx, self.tree, self.dictionary, self.cost_model
        )
        self.layout_compile_seconds = time.perf_counter() - started
        return self._layout

    def _fresh_layout(self) -> "layout_mod.CompiledLayout":
        """The compiled layout — the one check every enumeration passes.

        A layout whose ``dict_version`` lags the dictionary was compiled
        before an in-place edit and would answer from the old bits: it is
        refused, never served another way. :meth:`compile_layout` re-arms.
        """
        layout = self._layout
        if layout.dict_version != self.dictionary.version:
            raise ParameterError(
                f"stale layout for view {self.view.name!r}: compiled at "
                f"dictionary version {layout.dict_version}, the dictionary "
                f"is at {self.dictionary.version} — call compile_layout() "
                "after editing the dictionary in place"
            )
        return layout

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _bind(self, tau, weights, alpha, context) -> None:
        """Attach context, cover knobs and cost model (no structure build).

        Everything here is derived deterministically from ``(view, db)``
        plus the explicit parameters; both the building constructor and
        the snapshot restore path run it, so a restored instance carries
        live tries and a live cost model without re-running the expensive
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

    def _materialize_outputs(self) -> Tuple[Dict[Tuple, List[Tuple[int, ...]]], int]:
        """Full query output grouped by bound valuation (preprocessing only).

        Free tuples are stored as index tuples, sorted (the join emits them
        in lexicographic order), enabling O(log) emptiness probes during
        dictionary construction.
        """
        ctx = self.ctx
        order = ctx.bound_order + ctx.free_order
        atoms = [
            (binding.trie.root, binding.bound_vars + binding.free_vars)
            for binding in ctx.atoms
        ]
        domains = dict(ctx.free_value_domains)
        for var, domain in ctx.bound_domains.items():
            domains[var] = domain.values
        n_bound = len(ctx.bound_order)
        outputs: Dict[Tuple, List[Tuple[int, ...]]] = {}
        count = 0
        for row in generic_join(atoms, order, domains=domains):
            access, free_values = row[:n_bound], row[n_bound:]
            index_tuple = ctx.space.indexes(free_values)
            assert index_tuple is not None
            outputs.setdefault(access, []).append(index_tuple)
            count += 1
        return outputs, count

    # ------------------------------------------------------------------
    # explicit state (the snapshot boundary)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict:
        """Plain-data state sufficient to restore this instance exactly.

        The state records the *normalized* view and database (what the
        structure was actually built over) plus the expensive build
        artifacts — tree and dictionary — as explicit records. Tries,
        domains and the cost model are deterministic functions of
        ``(view, db)`` and are rebuilt on restore — or adopted from a
        resident context over an equal ``(view, db)`` — rather than
        stored.
        """
        from repro.core.snapshot import database_state, view_state

        stats = self.stats
        return {
            "view": view_state(self.view),
            "db": database_state(self.db),
            "tau": self.tau,
            "alpha": self.alpha,
            "weights": sorted(self.weights.items()),
            "tree": self.tree.to_state(),
            "dictionary": self.dictionary.to_state(),
            "stats": {
                "tau": stats.tau,
                "alpha": stats.alpha,
                "weights": sorted(dict(stats.weights).items()),
                "tree_nodes": stats.tree_nodes,
                "tree_depth": stats.tree_depth,
                "dictionary_entries": stats.dictionary_entries,
                "output_tuples": stats.output_tuples,
                "build_seconds": stats.build_seconds,
            },
            "layout": self._fresh_layout().to_state(),
        }

    @classmethod
    def from_snapshot_state(
        cls, state: Dict, context: Optional[ViewContext] = None
    ) -> "CompressedRepresentation":
        """Restore an instance from :meth:`snapshot_state` output.

        Enumeration behavior (answers, order, delay steps) is identical
        to the original: the tree and dictionary are restored bit for bit
        and the rebuilt context is a pure function of the stored view and
        database.

        With a resident ``context`` nothing is rebuilt: the instance
        adopts it — but only after the state's own view and database
        compare *equal* to the context's (an exact comparison, not a
        hash); anything else raises
        :class:`~repro.exceptions.SnapshotError`.
        """
        from repro.core.snapshot import database_from_state, view_from_state

        try:
            if context is None:
                view = view_from_state(state["view"])
                db = database_from_state(state["db"])
            elif (state["view"], state["db"]) == context.states():
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
            self.tree = DelayBalancedTree.from_state(state["tree"])
            self.dictionary = HeavyDictionary.from_state(state["dictionary"])
            stats = dict(state["stats"])
            stats["weights"] = dict(stats["weights"])
            self.stats = BuildStats(**stats)
            layout_state = state.get("layout")
            if layout_state is not None:
                # Codec v2: the structure's own compiled arrays ship with
                # the snapshot; the join columns are the context's.
                started = time.perf_counter()
                self._layout = layout_mod.CompiledLayout.from_state(
                    layout_state, self.ctx.columns(), self.dictionary.version
                )
                self.layout_compile_seconds = time.perf_counter() - started
            else:
                # Codec v1 blobs predate layouts: recompile on load.
                self.compile_layout()
            return self
        except SnapshotError:
            raise
        except (KeyError, TypeError, ValueError) as error:
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
        access = self._check_access(access)
        if self.tree.root is None:
            return
        yield from kernel_enumerate(self._fresh_layout(), access, counter)

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
        access = self._check_access(access)
        if self.tree.root is None:
            return
        start = self.ctx.space.ceil_point(start_values)
        if start is None:
            return  # start lies beyond the top of the tuple space
        yield from kernel_enumerate_from(
            self._fresh_layout(), access, start, counter
        )

    def enumerate_interval(
        self,
        access: Sequence,
        interval,
        counter: Optional[JoinCounter] = None,
    ) -> Iterator[Tuple]:
        """Evaluate the access request restricted to one f-interval.

        Bypasses the dictionary (pure worst-case-optimal evaluation over the
        interval's box decomposition); used by the Theorem 2 semijoin
        refinement (Algorithm 4) to stream ``Q[v_b] ⋉ I(w)``.
        """
        ctx = self.ctx
        subtries = ctx.subtries(tuple(access))
        if any(node is None for node in subtries):
            return
        atoms = [
            (node, binding.free_vars)
            for binding, node in zip(ctx.atoms, subtries)
        ]
        for box in self.cost_model.boxes(interval):
            yield from generic_join(
                atoms,
                ctx.free_order,
                ranges=ctx.free_ranges_of_box(box),
                domains=ctx.free_value_domains,
                counter=counter,
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
            tree_nodes=len(self.tree.nodes),
            dictionary_entries=len(self.dictionary),
        )

    @property
    def free_variables(self):
        return self.ctx.free_order

    @property
    def bound_variables(self):
        return self.ctx.bound_order
