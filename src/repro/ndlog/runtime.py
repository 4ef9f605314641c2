"""Distributed NDlog runtime (the reproduction's RapidNet).

Executes a parsed :class:`~repro.ndlog.ast.Program` on every node of a
:class:`~repro.net.network.Network`, transporting cross-node derivations as
simulator messages.  Semantics follow P2/RapidNet:

* **materialized relations** are keyed tables; inserting a row whose key
  exists *replaces* the old row and re-derives dependents (this
  update-in-place is what makes BAD GADGET oscillate observably);
* **event relations** (e.g. ``msg``) trigger rules but are never stored;
* rules are evaluated **delta-driven**: an arriving tuple is unified with
  each body occurrence of its relation, remaining atoms are joined against
  local tables, assignments/conditions run as they become ready;
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator

from ..algebra.base import PHI, rank_routes
from ..net.ribout import RibOut
from ..net.simulator import Simulator
from ..net.sizes import update_size
from .ast import (
    Aggregate,
    Assignment,
    Atom,
    Condition,
    Const,
    Expr,
    FuncCall,
    Program,
    Rule,
    Var,
)
from .functions import FunctionRegistry

Row = tuple

#: Wire size of a remote tuple that carries no path column.
DEFAULT_SIZE_BYTES = 64


class NDlogRuntimeError(RuntimeError):
    """Raised on semantic errors during evaluation."""


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


class Table:
    """A keyed, materialized relation at one node."""

    def __init__(self, relation: str, keys: tuple[int, ...]):
        self.relation = relation
        self.keys = keys
        self._rows: dict[tuple, Row] = {}

    def key_of(self, row: Row) -> tuple:
        return tuple(row[i] for i in self.keys)

    def upsert(self, row: Row) -> tuple[bool, Row | None]:
        """Insert/replace; returns (changed, replaced_row)."""
        key = self.key_of(row)
        old = self._rows.get(key)
        if old == row:
            return False, None
        self._rows[key] = row
        return True, old

    def delete(self, row: Row) -> bool:
        """Silently remove a row (by key); True when something was removed."""
        return self._rows.pop(self.key_of(row), None) is not None

    def rows(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)


class _NodeState:
    """Tables plus aggregate bookkeeping for one node."""

    def __init__(self, program: Program, ribout: RibOut):
        self.tables: dict[str, Table] = {
            decl.relation: Table(decl.relation, decl.keys)
            for decl in program.materialized.values()
        }
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
        self.sim = simulator
        self.network = simulator.network
        self.functions = functions
        self.transport = transport or TransportPolicy()
        self._states = {
            node: _NodeState(program, RibOut(
                node, simulator, self.transport.batch_interval,
                self.transport.sig_pos, self._send_msg))
            for node in self.network.nodes()}
        #: Relations whose change counts as a route change (best-row
        #: aggregate heads; ranked top-k tables shuffle without the best
        #: route moving, so they do not count).
        self._best_relations = {rule.head.relation for rule in program.rules
                                if rule.is_aggregate
                                and rule.ranked_k() is None}
        #: Called as ``observer(node, relation, row)`` after every *changed*
        #: materialized upsert (route logging, extraction, instrumentation).
        self.observers: list = []
        for node in self.network.nodes():
            self.sim.attach(node, self._make_handler(node))

    # -- setup ----------------------------------------------------------------

    def install_fact(self, node: str, relation: str, row: Row) -> None:
        """Silently preload a table row (static configuration, e.g. labels)."""
        table = self._table(node, relation)
        table.upsert(tuple(row))

    def inject(self, node: str, relation: str, row: Row,
               at: float = 0.0) -> None:
        """Schedule a tuple insertion that triggers rule evaluation."""
        self.sim.at(at, lambda: self._process_delta(node, relation, tuple(row)))

    def apply_delta(self, node: str, relation: str, row: Row) -> None:
        """Insert a tuple *now* and cascade its consequences immediately.

        This is the entry point for external topology events (session
        failures, label perturbations): the caller mutates tables through
        ordinary deltas so the change propagates via the normal rule and
        transport machinery.
        """
        self._process_delta(node, relation, tuple(row))

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
        worklist: list[tuple[str, Row]] = [(relation, row)]
        state = self._states[node]
        while worklist:
            rel, tup = worklist.pop(0)
            if self.program.is_materialized(rel):
                changed, _old = state.tables[rel].upsert(tup)
                if not changed:
                    continue
                if rel in self._best_relations:
                    self.sim.stats.record_route_change(self.sim.now, node)
                for observer in self.observers:
                    observer(node, rel, tup)
            for rule, position in self.program.rules_triggered_by(rel):
                produced = self._dispatch_rule(node, rule, position, tup)
                for head_rel, head_row, target in produced:
                    if target == node:
                        worklist.append((head_rel, head_row))
                    else:
                        self._emit(node, target, head_rel, head_row)

    def _dispatch_rule(self, node: str, rule: Rule, position: int,
                       row: Row) -> list[tuple[str, Row, str]]:
        """Route one delta into the evaluation strategy the rule needs."""
        if rule.is_aggregate:
            k = rule.ranked_k()
            if k is not None:
                return self._maintain_topk(node, rule, position, row, k)
            return self._maintain_aggregate(node, rule, row)
        return self._fire_rule(node, rule, position, row)

    # -- rule evaluation ------------------------------------------------------------

    def _fire_rule(self, node: str, rule: Rule, delta_pos: int,
                   delta_row: Row) -> list[tuple[str, Row, str]]:
        delta_atom = rule.body[delta_pos]
        assert isinstance(delta_atom, Atom)
        seed = self._unify(delta_atom, delta_row, {})
        if seed is None:
            return []
        remaining = [el for i, el in enumerate(rule.body) if i != delta_pos]
        out: list[tuple[str, Row, str]] = []
        for bindings in self._join(node, remaining, seed):
            head_row = tuple(self._eval(arg, bindings) for arg in rule.head.args)
            target = head_row[rule.head.loc_index]
            out.append((rule.head.relation, head_row, target))
        return out

    def _join(self, node: str, elements: list, bindings: dict
              ) -> Iterator[dict]:
        """Evaluate remaining body elements, deferring not-yet-ready ones."""
        if not elements:
            yield bindings
            return
        # Pick the first ready element (atoms are always ready).
        for index, element in enumerate(elements):
            if isinstance(element, Atom):
                rest = elements[:index] + elements[index + 1:]
                table = self._states[node].tables.get(element.relation)
                if table is None:
                    raise NDlogRuntimeError(
                        f"{element.relation} is not materialized; event atoms "
                        "can only be the rule trigger")
                for row in list(table.rows()):
                    unified = self._unify(element, row, bindings)
                    if unified is not None:
                        yield from self._join(node, rest, unified)
                return
            if isinstance(element, Assignment):
                if self._ready(element.expr, bindings):
                    value = self._eval(element.expr, bindings)
                    existing = bindings.get(element.var.name, _UNSET)
                    if existing is not _UNSET and existing != value:
                        return
                    rest = elements[:index] + elements[index + 1:]
                    yield from self._join(
                        node, rest, {**bindings, element.var.name: value})
                    return
                continue  # defer until more atoms bind its inputs
            if isinstance(element, Condition):
                if (self._ready(element.lhs, bindings)
                        and self._ready(element.rhs, bindings)):
                    if self._check(element, bindings):
                        rest = elements[:index] + elements[index + 1:]
                        yield from self._join(node, rest, bindings)
                    return
                continue
        raise NDlogRuntimeError(
            f"body elements never became ready: {[str(e) for e in elements]}")

    def _unify(self, atom: Atom, row: Row, bindings: dict) -> dict | None:
        if len(row) != atom.arity:
            raise NDlogRuntimeError(
                f"{atom.relation}: arity mismatch {len(row)} vs {atom.arity}")
        new = dict(bindings)
        for arg, value in zip(atom.args, row):
            if isinstance(arg, Var):
                bound = new.get(arg.name, _UNSET)
                if bound is _UNSET:
                    new[arg.name] = value
                elif bound != value:
                    return None
            elif isinstance(arg, Const):
                if arg.value != value:
                    return None
            else:
                raise NDlogRuntimeError(
                    f"unsupported body-atom argument {arg}")
        return new

    def _ready(self, expr: Expr, bindings: dict) -> bool:
        if isinstance(expr, Var):
            return expr.name in bindings
        if isinstance(expr, FuncCall):
            return all(self._ready(a, bindings) for a in expr.args)
        return True

    def _eval(self, expr, bindings: dict):
        if isinstance(expr, Var):
            try:
                return bindings[expr.name]
            except KeyError:
                raise NDlogRuntimeError(f"unbound variable {expr.name}") from None
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, FuncCall):
            args = [self._eval(a, bindings) for a in expr.args]
            return self.functions.call(expr.name, *args)
        raise NDlogRuntimeError(f"cannot evaluate {expr!r}")

    def _check(self, condition: Condition, bindings: dict) -> bool:
        lhs = self._eval(condition.lhs, bindings)
        rhs = self._eval(condition.rhs, bindings)
        op = condition.op
        if op == "==":
            return lhs == rhs
        if op == "!=":
            return lhs != rhs
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
        raise NDlogRuntimeError(f"unknown operator {op}")

    # -- aggregates ---------------------------------------------------------------

    def _maintain_aggregate(self, node: str, rule: Rule,
                            delta_row: Row) -> list[tuple[str, Row, str]]:
        """Recompute the best row of the group the delta belongs to.

        The head's non-aggregate arguments *before* the aggregate position
        are the group keys (GPV: ``localOpt(@U, D, a_pref<S>, P)`` groups by
        ``(U, D)``); trailing arguments ride along with the winning row.
        Ties keep the currently selected row (BGP stickiness) so equal-cost
        re-advertisements do not cause phantom route changes.
        """
        body_atom = rule.body_atoms()[0]
        agg_index = rule.head.aggregate_index()
        assert agg_index is not None
        aggregate = rule.head.args[agg_index]
        assert isinstance(aggregate, Aggregate)

        bindings = self._unify(body_atom, delta_row, {})
        if bindings is None:
            return []
        group_exprs = [arg for i, arg in enumerate(rule.head.args)
                       if i < agg_index]
        group_key = tuple(self._eval(arg, bindings) for arg in group_exprs)

        # Scan the group's candidate rows.
        table = self._states[node].tables[body_atom.relation]
        best_bindings: dict | None = None
        for row in table.rows():
            row_bindings = self._unify(body_atom, row, {})
            if row_bindings is None:
                continue
            key = tuple(self._eval(arg, row_bindings) for arg in group_exprs)
            if key != group_key:
                continue
            if best_bindings is None or self._agg_better(
                    aggregate, row_bindings, best_bindings):
                best_bindings = row_bindings
        if best_bindings is None:
            return []

        head_table = self._states[node].tables.get(rule.head.relation)
        if head_table is None:
            raise NDlogRuntimeError(
                f"aggregate head {rule.head.relation} must be materialized")

        # Stickiness: keep the current winner unless strictly beaten.
        current = head_table._rows.get(group_key)
        candidate_row = self._head_row_from(rule, best_bindings, agg_index,
                                            aggregate)
        if current is not None and current != candidate_row:
            current_sig = current[agg_index]
            candidate_sig = candidate_row[agg_index]
            if (not self._compare(aggregate.func, candidate_sig, current_sig)
                    and self._current_still_valid(node, rule, current,
                                                  agg_index, aggregate)):
                return []
        changed, _old = head_table.upsert(candidate_row)
        if not changed:
            return []
        self.sim.stats.record_route_change(self.sim.now, node)
        for observer in self.observers:
            observer(node, rule.head.relation, candidate_row)
        out: list[tuple[str, Row, str]] = []
        # Cascade: the head delta feeds dependent rules directly here so the
        # caller only routes the produced tuples.
        for dependent, position in self.program.rules_triggered_by(
                rule.head.relation):
            out.extend(self._dispatch_rule(node, dependent, position,
                                           candidate_row))
        return out

    # -- ranked (top-k) aggregates --------------------------------------------------

    def _maintain_topk(self, node: str, rule: Rule, delta_pos: int,
                       delta_row: Row, k: int) -> list[tuple[str, Row, str]]:
        """Recompute the affected groups' k-best rank slots.

        The head's written arguments before the aggregate are the group
        keys (GPV multipath: ``advBest(@U,N,D,a_topK<SExp>,P)`` groups by
        ``(U, N, D)``); stored head rows carry the **rank appended as a
        trailing column** (part of the declared key).  Unlike ``a_pref``,
        the body may join several materialized atoms, so the delta only
        *localizes* the recomputation: the full body is re-joined seeded
        with whatever group variables the delta binds, and every group in
        the result is diffed slot-by-slot against the head table.  Slots
        beyond the surviving candidates are φ-filled — the per-rank
        withdraw downstream rules and the transport's φ-suppression expect.
        """
        delta_atom = rule.body[delta_pos]
        assert isinstance(delta_atom, Atom)
        delta_bindings = self._unify(delta_atom, delta_row, {})
        if delta_bindings is None:
            return []
        agg_index = rule.head.aggregate_index()
        assert agg_index is not None
        aggregate = rule.head.args[agg_index]
        assert isinstance(aggregate, Aggregate)
        group_exprs = list(rule.head.args[:agg_index])
        trailing_exprs = list(rule.head.args[agg_index + 1:])
        seed = {expr.name: delta_bindings[expr.name]
                for expr in group_exprs
                if isinstance(expr, Var) and expr.name in delta_bindings}

        groups: dict[tuple, list[tuple]] = {}
        for bindings in self._join(node, list(rule.body), dict(seed)):
            key = tuple(self._eval(arg, bindings) for arg in group_exprs)
            sig = self._eval(aggregate.var, bindings)
            trailing = tuple(self._eval(arg, bindings)
                             for arg in trailing_exprs)
            groups.setdefault(key, []).append((sig, trailing))

        head_table = self._states[node].tables.get(rule.head.relation)
        if head_table is None:
            raise NDlogRuntimeError(
                f"ranked aggregate head {rule.head.relation} must be "
                "materialized")
        out: list[tuple[str, Row, str]] = []
        for key, candidates in groups.items():
            ranked = self._rank_candidates(candidates)
            filler = tuple((key[rule.head.loc_index],)
                           for _ in trailing_exprs)
            for rank in range(k):
                sig, trailing = (ranked[rank] if rank < len(ranked)
                                 else (PHI, filler))
                row = (*key, sig, *trailing, rank)
                changed, _old = head_table.upsert(row)
                if not changed:
                    continue
                for observer in self.observers:
                    observer(node, rule.head.relation, row)
                for dependent, position in self.program.rules_triggered_by(
                        rule.head.relation):
                    out.extend(self._dispatch_rule(node, dependent, position,
                                                   row))
        return out

    def _rank_candidates(self, candidates: list[tuple]) -> list[tuple]:
        """Non-φ candidates best-first in the shared k-best order.

        Delegates to :func:`~repro.algebra.base.rank_routes` with the
        algebra-generated ``f_better`` comparator so the ranked aggregate,
        the native engine's RIB and the session snapshots cannot drift
        apart; the tie key generalizes the native (len(path), path) rule
        to the aggregate's trailing columns (one path column in GPV)."""
        def better(s1, s2) -> bool:
            return bool(self.functions.call("f_better", s1, s2))

        def tie_key(trailing: tuple) -> tuple:
            return tuple((len(value), value) if isinstance(value, tuple)
                         else (-1, value) for value in trailing)

        return rank_routes(better, candidates, tie_key=tie_key)

    def _head_row_from(self, rule: Rule, bindings: dict, agg_index: int,
                       aggregate: Aggregate) -> Row:
        values = []
        for i, arg in enumerate(rule.head.args):
            if i == agg_index:
                values.append(self._eval(aggregate.var, bindings))
            else:
                values.append(self._eval(arg, bindings))
        return tuple(values)

    def _agg_better(self, aggregate: Aggregate, challenger: dict,
                    incumbent: dict) -> bool:
        sig_new = self._eval(aggregate.var, challenger)
        sig_old = self._eval(aggregate.var, incumbent)
        return self._compare(aggregate.func, sig_new, sig_old)

    def _compare(self, func: str, v1, v2) -> bool:
        """Does ``v1`` beat ``v2`` under the aggregate ``func``?

        ``a_pref`` delegates to the algebra-generated ``f_better``
        comparator (paper Sec. V-A); ``a_min`` / ``a_max`` are numeric
        built-ins; any other name resolves to a registered
        ``<name>_better`` function.
        """
        if func == "a_pref":
            return bool(self.functions.call("f_better", v1, v2))
        if func == "a_min":
            return v1 < v2
        if func == "a_max":
            return v1 > v2
        comparator = f"{func}_better"
        if self.functions.has(comparator):
            return bool(self.functions.call(comparator, v1, v2))
        raise NDlogRuntimeError(f"unknown aggregate {func!r}")

    def _current_still_valid(self, node: str, rule: Rule, current: Row,
                             agg_index: int, aggregate: Aggregate) -> bool:
        """Is the currently selected row still present among candidates?"""
        body_atom = rule.body_atoms()[0]
        table = self._states[node].tables[body_atom.relation]
        group_exprs = [arg for i, arg in enumerate(rule.head.args)
                       if i < agg_index]
        for row in table.rows():
            row_bindings = self._unify(body_atom, row, {})
            if row_bindings is None:
                continue
            if self._head_row_from(rule, row_bindings, agg_index,
                                   aggregate) == current:
                return True
        return False

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
        try:
            return self._states[node].tables[relation]
        except KeyError:
            raise NDlogRuntimeError(
                f"{relation} is not a materialized relation") from None


_UNSET = object()
