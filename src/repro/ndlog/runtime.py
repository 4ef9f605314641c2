"""Distributed NDlog runtime (the reproduction's RapidNet).

Executes a parsed :class:`~repro.ndlog.ast.Program` on every node of a
:class:`~repro.net.network.Network`, transporting cross-node derivations as
simulator messages.  Semantics follow P2/RapidNet:

* **materialized relations** are keyed tables; inserting a row whose key
  exists *replaces* the old row and re-derives dependents (this
  update-in-place is what makes BAD GADGET oscillate observably);
* **event relations** (e.g. ``msg``) trigger rules but are never stored;
* rules are evaluated **delta-driven** by code compiled once per program
  text (:mod:`repro.ndlog.compiler`): each (rule, trigger position) is one
  generated function that binds the arriving tuple's columns to locals,
  joins the remaining atoms against local tables in a join order fixed at
  compile time — a primary-key lookup or an index bucket wherever the
  join binds key columns — and runs assignments/conditions as soon as
  their inputs are bound.  A node's own derivations queue FIFO;
* **aggregate rules** (``a_pref<S>``) maintain a best-row-per-group table,
  using the algebra-generated ``f_better`` comparator and keeping the
  current winner on ties (BGP's route-selection stickiness);
* **remote heads** (location ≠ local node) become messages.  Rows of the
  :class:`TransportPolicy`'s message relation go through each node's
  :class:`~repro.net.ribout.RibOut` — the native GPV engine's wire, shared
  with it: RIB-out dedup per (neighbor, coalescing slot), suppression of
  φ (withdraw) advertisements toward neighbors that never received the
  route, and under periodic batching (the paper's "batch and propagate
  routes every second") an out-buffer flushed on each node's MRAI tick.
  Any other remote head is sent as is.

A program error — a body that never becomes ready, an unknown operator or
aggregate, an undefined function — raises :class:`NDlogRuntimeError` when
the runtime is constructed, not when a delta first reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterator, Sequence

from ..algebra.base import PHI, rank_routes
from ..net.ribout import RibOut
from ..net.simulator import Simulator
from ..net.sizes import update_size
from .ast import Program
from .compiler import NDlogRuntimeError, Plan, Step, compile_program
from .functions import FunctionRegistry

Row = tuple

#: Wire size of a remote tuple that carries no path column.
DEFAULT_SIZE_BYTES = 64


@dataclass
class TransportPolicy:
    """How derived remote tuples become wire messages.

    ``dest_pos`` / ``sig_pos`` / ``path_pos`` identify the destination,
    signature and path columns of ``msg_relation`` (GPV: positions 2/3/4).
    ``rank_pos`` names the rank column of top-k programs: coalescing, the
    RIB-out and φ-suppression then operate per (destination, rank) slot,
    so a rank-1 advertisement never clobbers the pending rank-0 one.
    ``batch_interval`` enables periodic propagation: outgoing messages are
    buffered and flushed on the interval grid, coalescing to the latest
    advertisement per (neighbor, destination[, rank]).
    """

    msg_relation: str = "msg"
    dest_pos: int | None = None
    sig_pos: int | None = None
    path_pos: int | None = None
    rank_pos: int | None = None
    batch_interval: float | None = None

    def size_of(self, row: Row) -> int:
        if self.path_pos is not None:
            path = row[self.path_pos]
            if isinstance(path, tuple):
                return update_size(len(path))
        return DEFAULT_SIZE_BYTES


def _columns(cols: tuple[int, ...]) -> Callable[[Row], tuple]:
    if len(cols) == 1:
        col = cols[0]
        return lambda row: (row[col],)
    return itemgetter(*cols)


class Table:
    """A keyed, materialized relation at one node.

    ``indexes`` are column sets, each a subset of ``keys``; ``idx[i]`` maps
    the values of the i-th set to the rows holding them, keyed like the
    table.  A replace keeps the row's key, hence its bucket and its place
    in it, so every bucket lists its rows in table order.
    """

    def __init__(self, relation: str, keys: tuple[int, ...],
                 indexes: Sequence[tuple[int, ...]] = ()):
        self.relation = relation
        self.keys = keys
        self.key_of = _columns(keys)
        self._rows: dict[tuple, Row] = {}
        self._index_of = [_columns(cols) for cols in indexes]
        self.idx: list[dict[tuple, dict[tuple, Row]]] = [{} for _ in indexes]

    def upsert(self, row: Row) -> tuple[bool, Row | None]:
        """Insert/replace; returns (changed, replaced_row)."""
        key = self.key_of(row)
        old = self._rows.get(key)
        if old == row:
            return False, None
        self._rows[key] = row
        for index_of, buckets in zip(self._index_of, self.idx):
            buckets.setdefault(index_of(row), {})[key] = row
        return True, old

    def delete(self, row: Row) -> bool:
        """Silently remove a row (by key); True when something was removed."""
        key = self.key_of(row)
        old = self._rows.pop(key, None)
        if old is None:
            return False
        for index_of, buckets in zip(self._index_of, self.idx):
            values = index_of(old)
            del buckets[values][key]
            if not buckets[values]:
                del buckets[values]
        return True

    def rows(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)


class _NodeState:
    """Tables (in the plan's slot order) plus the wire of one node."""

    def __init__(self, plan: Plan, ribout: RibOut):
        self.tables = [Table(relation, keys, indexes)
                       for relation, keys, indexes in plan.tables]
        #: The node's wire for message-relation rows.
        self.ribout = ribout
        #: Raw advertisements as received, pre-evaluation — kept so a label
        #: change can re-derive combined routes (the native engine's adj_in).
        self.adj_raw: dict[tuple, Row] = {}


class NDlogRuntime:
    """One program running on every node of a network."""

    def __init__(self, program: Program, simulator: Simulator,
                 functions: FunctionRegistry,
                 transport: TransportPolicy | None = None):
        program.validate()
        self.program = program
        self.plan = compile_program(program)
        self.sim = simulator
        self.network = simulator.network
        self.functions = functions
        self.transport = transport or TransportPolicy()
        kernels = self.plan.bind(functions)
        #: ``f_better`` as the three-way comparator ``rank_routes`` takes.
        self._compare = (_three_way(functions.get("f_better"))
                         if "f_better" in self.plan.functions else None)
        #: The steps a delta of each relation runs, in program order.
        self._steps = {relation: [self._step(step, kernels)
                                  for step in steps]
                       for relation, steps in self.plan.steps.items()}
        self._states = {
            node: _NodeState(self.plan, RibOut(
                node, simulator, self.transport.batch_interval,
                self.transport.sig_pos, self._send_msg))
            for node in self.network.nodes()}
        #: Called as ``observer(node, relation, row)`` after every *changed*
        #: materialized upsert (route logging, extraction, instrumentation).
        self.observers: list = []
        for node in self.network.nodes():
            self.sim.attach(node, self._make_handler(node))

    def _step(self, step: Step, kernels: tuple) -> Callable:
        """The callable ``(node, tables, row) -> [(relation, row, target)]``."""
        kernel = kernels[step.kernel]
        if step.kind == "rule":
            return kernel
        method = self._select if step.kind == "select" else self._rank
        return partial(method, kernel, step, self.plan.slot[step.head])

    # -- setup ----------------------------------------------------------------

    def install_fact(self, node: str, relation: str, row: Row) -> None:
        """Silently preload a table row (static configuration, e.g. labels)."""
        table = self._table(node, relation)
        table.upsert(self._checked(relation, row))

    def inject(self, node: str, relation: str, row: Row,
               at: float = 0.0) -> None:
        """Schedule a tuple insertion that triggers rule evaluation."""
        row = self._checked(relation, row)
        self.sim.at(at, lambda: self._process_delta(node, relation, row))

    def apply_delta(self, node: str, relation: str, row: Row) -> None:
        """Insert a tuple *now* and cascade its consequences immediately.

        This is the entry point for external topology events (session
        failures, label perturbations): the caller mutates tables through
        ordinary deltas so the change propagates via the normal rule and
        transport machinery.
        """
        self._process_delta(node, relation, self._checked(relation, row))

    def table_rows(self, node: str, relation: str) -> list[Row]:
        """Snapshot of a node's table (for tests and extraction)."""
        return list(self._table(node, relation).rows())

    def delete_facts(self, node: str, relation: str, predicate) -> list[Row]:
        """Silently remove matching rows (no rule evaluation is triggered).

        Used for facts that simply cease to exist — e.g. ``label`` rows of
        a failed BGP session, which must vanish *before* any delta runs so
        no rule derives a message across the dead link.
        """
        table = self._table(node, relation)
        removed = [row for row in table.rows() if predicate(row)]
        for row in removed:
            table.delete(row)
        return removed

    def drop_neighbor_state(self, node: str, neighbor: str) -> None:
        """Forget per-neighbor transport state after a session failure."""
        state = self._states[node]
        state.ribout.forget(neighbor)
        for key in [k for k in state.adj_raw if k[0] == neighbor]:
            del state.adj_raw[key]

    def raw_advertisements(self, node: str, src: str) -> list[Row]:
        """The latest raw message rows received from ``src`` (pre-⊕)."""
        state = self._states[node]
        return [row for (sender, _key), row in sorted(
            state.adj_raw.items(), key=lambda item: repr(item[0]))
            if sender == src]

    # -- message handling -------------------------------------------------------

    def _make_handler(self, node: str):
        def handler(src: str, payload: Any) -> None:
            relation, row = payload
            if not self.network.has_link(node, src):
                return  # session failed while the tuple was in flight
            if relation == self.transport.msg_relation:
                self._states[node].adj_raw[
                    (src, self._coalesce_key(src, row))] = row
            self._process_delta(node, relation, row)
        return handler

    # -- core delta processing ------------------------------------------------------

    def _process_delta(self, node: str, relation: str, row: Row) -> None:
        """Apply one tuple arrival and cascade all local consequences."""
        tables = self._states[node].tables
        slots = self.plan.slot
        worklist: list[tuple[str, Row]] = [(relation, row)]
        for rel, tup in worklist:  # FIFO: derivations append behind
            slot = slots.get(rel)
            if slot is not None:
                changed, _old = tables[slot].upsert(tup)
                if not changed:
                    continue
                if rel in self.plan.best:
                    self.sim.stats.record_route_change(self.sim.now, node)
                for observer in self.observers:
                    observer(node, rel, tup)
            for step in self._steps.get(rel, ()):
                for head_rel, head_row, target in step(node, tables, tup):
                    if target == node:
                        worklist.append((head_rel, head_row))
                    else:
                        self._emit(node, target, head_rel, head_row)

    def _cascade(self, node: str, tables: list, relation: str,
                 row: Row) -> list[tuple[str, Row, str]]:
        """Run the steps of an aggregate head's delta directly, so the
        caller only routes the produced tuples."""
        out: list[tuple[str, Row, str]] = []
        for step in self._steps.get(relation, ()):
            out.extend(step(node, tables, row))
        return out

    # -- aggregates ---------------------------------------------------------------

    def _select(self, kernel, step: Step, slot: int, node: str, tables: list,
                row: Row) -> list[tuple[str, Row, str]]:
        """Install the best row of the delta's group, if it changed.

        The head's arguments before the aggregate are the group keys (GPV:
        ``localOpt(@U, D, a_pref<S>, P)`` groups by ``(U, D)``); trailing
        arguments ride along with the winning row.  The kernel keeps the
        current row unless it is strictly beaten or gone (BGP stickiness),
        so equal-cost re-advertisements do not cause phantom route changes.
        """
        candidate = kernel(node, tables, row)
        if candidate is None:
            return []
        changed, _old = tables[slot].upsert(candidate)
        if not changed:
            return []
        self.sim.stats.record_route_change(self.sim.now, node)
        for observer in self.observers:
            observer(node, step.head, candidate)
        return self._cascade(node, tables, step.head, candidate)

    def _rank(self, kernel, step: Step, slot: int, node: str, tables: list,
              row: Row) -> list[tuple[str, Row, str]]:
        """Recompute the affected groups' k-best rank slots.

        The head's written arguments before the aggregate are the group
        keys (GPV multipath: ``advBest(@U,N,D,a_topK<SExp>,P)`` groups by
        ``(U, N, D)``); stored head rows carry the **rank appended as a
        trailing column** (part of the declared key).  Unlike ``a_pref``,
        the body may join several materialized atoms, so the delta only
        *localizes* the recomputation: the kernel re-joins the full body
        seeded with whatever group variables the delta binds, and every
        group in the result is diffed slot-by-slot against the head table.
        Slots beyond the surviving candidates are φ-filled — the per-rank
        withdraw downstream rules and the transport's φ-suppression expect.
        """
        groups = kernel(node, tables, row)
        table = tables[slot]
        out: list[tuple[str, Row, str]] = []
        for key, candidates in groups.items():
            ranked = rank_routes(self._compare, candidates, tie_key=_tie_key)
            filler = tuple((key[step.loc],) for _ in range(step.trailing))
            for rank in range(step.k):
                sig, trailing = (ranked[rank] if rank < len(ranked)
                                 else (PHI, filler))
                head_row = (*key, sig, *trailing, rank)
                changed, _old = table.upsert(head_row)
                if not changed:
                    continue
                for observer in self.observers:
                    observer(node, step.head, head_row)
                out.extend(self._cascade(node, tables, step.head, head_row))
        return out

    # -- transport -----------------------------------------------------------------

    def _emit(self, node: str, target: str, relation: str, row: Row) -> None:
        """Ship a derived tuple to a neighbor, honoring the transport policy."""
        if not self.network.has_link(node, target):
            raise NDlogRuntimeError(
                f"{node} derived {relation} @ non-neighbor {target}")
        if relation != self.transport.msg_relation:
            self.sim.send(node, target, (relation, row), DEFAULT_SIZE_BYTES)
            return
        self._states[node].ribout.offer(
            target, self._coalesce_key(target, row), row)

    def _send_msg(self, node: str, target: str, _slot: Hashable,
                  row: Row) -> None:
        policy = self.transport
        self.sim.send(node, target, (policy.msg_relation, row),
                      policy.size_of(row))

    def _coalesce_key(self, target: str, row: Row) -> Hashable:
        if self.transport.dest_pos is not None:
            key: Hashable = row[self.transport.dest_pos]
            if self.transport.rank_pos is not None:
                key = (key, row[self.transport.rank_pos])
            return key
        return row

    # -- helpers ---------------------------------------------------------------------

    def _table(self, node: str, relation: str) -> Table:
        slot = self.plan.slot.get(relation)
        if slot is None:
            raise NDlogRuntimeError(
                f"{relation} is not a materialized relation")
        return self._states[node].tables[slot]

    def _checked(self, relation: str, row: Row) -> Row:
        row = tuple(row)
        arity = self.plan.arity.get(relation, len(row))
        if len(row) != arity:
            raise NDlogRuntimeError(
                f"{relation}: arity mismatch {len(row)} vs {arity}")
        return row


def _three_way(better: Callable[[Any, Any], bool]) -> Callable[[Any, Any], int]:
    """The strict-preference predicate ``better`` as a three-way comparator."""
    def compare(s1, s2) -> int:
        if better(s1, s2):
            return -1
        return 1 if better(s2, s1) else 0
    return compare


def _tie_key(trailing: tuple) -> tuple:
    """The ranked aggregate's tie key: the native engine's (len(path), path)
    rule generalized to the aggregate's trailing columns (one path column in
    GPV), so ranked slots, the native RIB and the session snapshots cannot
    drift apart (:func:`~repro.algebra.base.rank_routes`)."""
    return tuple((len(value), value) if isinstance(value, tuple)
                 else (-1, value) for value in trailing)
