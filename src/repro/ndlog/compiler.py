"""The NDlog rule compiler: every rule becomes generated Python code, once.

:func:`compile_program` turns a parsed :class:`~repro.ndlog.ast.Program`
into a :class:`Plan` — once per program text and process — holding the
node tables with their indexes, the steps a delta of each relation
triggers, and the source of one generated function per (rule, trigger
position).  :meth:`Plan.bind` executes that source against one function
registry, so functions are bound per runtime while the plan is shared.

The generated code evaluates a rule the way the runtime's semantics fix
it:

* variables live in locals ("slots"), not in binding dicts;
* the join order is fixed at compile time: after the trigger atom, the
  first remaining body element that is ready runs next — an atom is
  always ready, an assignment or condition once its inputs are bound — so
  an assignment or condition whose inputs a later atom binds is deferred
  past that atom;
* an atom whose key columns are all bound is one primary-key lookup; one
  with other key columns bound scans a bucket of a hash index on them;
  any other atom scans its table.  An index only ever covers key columns,
  so a replace never moves a row between buckets and a bucket lists its
  rows in table order.  Remaining bound columns, constants and repeated
  variables are equality filters;
* an assignment to an already-bound variable is an equality filter;
* constants and functions are bound by reference, never spliced into the
  source.

The trigger positions are :meth:`~repro.ndlog.ast.Program.rules_triggered_by`:
a rule with an event atom is triggered by that atom only.

A program error that evaluation would otherwise meet only when some delta
reached it — a body that never becomes ready, an unknown comparison
operator, a join over an unmaterialized relation, an unbound head
variable, an undefined function or aggregate — raises
:class:`NDlogRuntimeError` when the plan is compiled or bound, i.e. when
the runtime is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .ast import (
    Assignment,
    Atom,
    Condition,
    Const,
    FuncCall,
    Program,
    Rule,
    Var,
    _expr_vars,
)
from .functions import FunctionRegistry

_OPERATORS = ("==", "!=", "<", "<=", ">", ">=")


class NDlogRuntimeError(RuntimeError):
    """Raised on semantic errors in a program or during its evaluation."""


@dataclass(frozen=True)
class Step:
    """What one delta of a relation runs: generated kernel ``kernel``.

    ``kind`` is ``"rule"`` (the kernel returns the derived
    ``(relation, row, target)`` triples), ``"select"`` (an ``a_pref``-style
    aggregate: the kernel returns the group's new head row or None) or
    ``"rank"`` (an ``a_topK`` aggregate: the kernel returns the candidates
    of every group it touched; ``k`` rank slots, location column ``loc``
    of the group key, ``trailing`` columns after the ranked one).
    """

    kind: str
    kernel: int
    head: str
    k: int = 0
    loc: int = 0
    trailing: int = 0


@dataclass
class Plan:
    """A compiled program, shared by every runtime that runs its text."""

    #: ``(relation, keys, index column sets)`` per materialized relation;
    #: a relation's position is its table's slot in a node's table list.
    tables: list[tuple[str, tuple[int, ...], list[tuple[int, ...]]]]
    slot: dict[str, int]
    arity: dict[str, int]
    #: Heads of best-row aggregates: a change there is a route change.
    best: frozenset
    steps: dict[str, list[Step]]
    #: Registry names the kernels call, in binding order.
    functions: list[str]
    #: Comparator names that stand for a user aggregate (``<agg>_better``).
    comparators: dict[str, str]
    literals: list
    source: str
    factory: Callable = field(repr=False)

    def bind(self, functions: FunctionRegistry) -> tuple:
        """The kernels, calling ``functions``; undefined names raise."""
        bound = []
        for name in self.functions:
            if not functions.has(name):
                if name in self.comparators:
                    raise NDlogRuntimeError(
                        f"unknown aggregate {self.comparators[name]!r}")
                raise NDlogRuntimeError(f"undefined NDlog function {name!r}")
            bound.append(functions.get(name))
        return self.factory(bound, self.literals)


_PLANS: dict[str, Plan] = {}


def compile_program(program: Program) -> Plan:
    """The plan of ``program``, compiled on first use of its text."""
    text = str(program)
    plan = _PLANS.get(text)
    if plan is None:
        plan = _PLANS[text] = _Compiler(program).plan()
    return plan


def _tuple(items: list[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


class _Kernel:
    """Source lines of one generated function, with its table prefetches."""

    def __init__(self, name: str):
        self.name = name
        self.prefetch: dict[str, str] = {}
        self.body: list[str] = []
        self.depth = 1
        self.count = 0

    def fresh(self, prefix: str = "v") -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def line(self, text: str) -> None:
        self.body.append("    " * self.depth + text)

    def block(self, header: str) -> None:
        self.line(header)
        self.depth += 1

    def fetch(self, local: str, expr: str) -> str:
        self.prefetch.setdefault(local, expr)
        return local

    def source(self) -> list[str]:
        head = [f"def {self.name}(node, T, row):"]
        return head + [f"    {local} = {expr}"
                       for local, expr in self.prefetch.items()] + self.body


class _Compiler:
    def __init__(self, program: Program):
        self.program = program
        self.slot = {rel: i for i, rel in enumerate(program.materialized)}
        self.indexes: dict[str, list[tuple[int, ...]]] = {
            rel: [] for rel in program.materialized}
        self.functions: dict[str, str] = {}
        self.comparators: dict[str, str] = {}
        self.literals: list[Any] = []
        self.kernels: list[_Kernel] = []

    # -- the plan ---------------------------------------------------------

    def plan(self) -> Plan:
        program = self.program
        arity = self._arity()
        steps = {relation: [self._step(rule, position) for rule, position
                            in program.rules_triggered_by(relation)]
                 for relation in arity}
        best = {rule.head.relation for rule in program.rules
                if rule.is_aggregate and rule.ranked_k() is None}
        lines = ["def _bind(F, K):", "    EMPTY = {}"]
        lines += [f"    {local} = F[{i}]"
                  for i, local in enumerate(self.functions.values())]
        lines += [f"    K{i} = K[{i}]" for i in range(len(self.literals))]
        for kernel in self.kernels:
            lines += ["    " + text for text in kernel.source()]
        lines.append(
            f"    return {_tuple([kernel.name for kernel in self.kernels])}")
        source = "\n".join(lines) + "\n"
        namespace: dict[str, Any] = {}
        exec(compile(source, f"<ndlog {program.name}>", "exec"), namespace)
        return Plan(
            tables=[(rel, decl.keys, self.indexes[rel])
                    for rel, decl in program.materialized.items()],
            slot=self.slot, arity=arity, best=frozenset(best), steps=steps,
            functions=list(self.functions), comparators=self.comparators,
            literals=self.literals, source=source,
            factory=namespace["_bind"])

    def _arity(self) -> dict[str, int]:
        arity: dict[str, int] = {}
        for rule in self.program.rules:
            stored = len(rule.head.args) + (rule.ranked_k() is not None)
            for relation, width in [(rule.head.relation, stored)] + [
                    (atom.relation, atom.arity) for atom in rule.body_atoms()]:
                if arity.setdefault(relation, width) != width:
                    raise NDlogRuntimeError(
                        f"{relation}: arity mismatch {width} vs "
                        f"{arity[relation]}")
        return arity

    def _step(self, rule: Rule, position: int) -> Step:
        kernel = _Kernel(f"k{len(self.kernels)}")
        index = len(self.kernels)
        self.kernels.append(kernel)
        head = rule.head
        if not rule.is_aggregate:
            self._rule_kernel(kernel, rule, position)
            return Step("rule", index, head.relation)
        if head.relation not in self.slot:
            raise NDlogRuntimeError(
                f"aggregate head {head.relation} must be materialized")
        k = rule.ranked_k()
        if k is None:
            self._select_kernel(kernel, rule, position)
            return Step("select", index, head.relation)
        self._rank_kernel(kernel, rule, position)
        agg_index = head.aggregate_index()
        return Step("rank", index, head.relation, k=k, loc=head.loc_index,
                    trailing=len(head.args) - agg_index - 1)

    # -- kernels ----------------------------------------------------------

    def _rule_kernel(self, kernel: _Kernel, rule: Rule, position: int):
        kernel.line("out = []")
        slots = self._emit_trigger(kernel, rule.body[position], "row")
        rest = [el for i, el in enumerate(rule.body) if i != position]
        slots = self._emit_body(kernel, rest, slots)
        head = rule.head
        row = [self._expr(arg, slots) for arg in head.args]
        location = head.location
        target = (slots[location.name] if isinstance(location, Var)
                  else f"h[{head.loc_index}]")
        kernel.line(f"h = {_tuple(row)}")
        kernel.line(f"out.append(({self._literal(head.relation)}, h, "
                    f"{target}))")
        kernel.depth = 1
        kernel.line("return out")

    def _select_kernel(self, kernel: _Kernel, rule: Rule, position: int):
        """Best row of the delta's group, or None when the head keeps its
        row: the group's first strictly best candidate wins, and the current
        head row stays unless it is strictly beaten or no longer derivable
        (BGP stickiness)."""
        head = rule.head
        agg_index = head.aggregate_index()
        aggregate = head.args[agg_index]
        atom = rule.body[position]
        if len(rule.body) != 1:
            raise NDlogRuntimeError(
                f"rule {rule.name}: a {aggregate.func} body is one atom")
        if self.program.materialized[head.relation].keys != tuple(
                range(agg_index)):
            raise NDlogRuntimeError(
                f"aggregate head {head.relation} must be keyed by its "
                "group columns")
        better = self._better(aggregate.func)
        group = list(head.args[:agg_index])
        slots = self._emit_trigger(kernel, atom, "row")
        key = kernel.fresh("g")
        kernel.line(f"{key} = {_tuple([self._expr(a, slots) for a in group])}")
        seed = {arg.name: slots[arg.name] for arg in group
                if isinstance(arg, Var)}
        base = kernel.depth
        kernel.line("best = None")
        row, found = self._emit_group_scan(kernel, atom, group, seed, key)
        kernel.block(f"if best is None or "
                     f"{better(self._expr(aggregate.var, found), 'bs')}:")
        kernel.line(f"best = {row}")
        kernel.line(f"bs = {self._expr(aggregate.var, found)}")
        kernel.depth = base
        kernel.block("if best is not None:")
        decided = kernel.depth
        chosen = self._emit_bindings(kernel, atom, {}, "best", check=False)
        kernel.line("cand = " + self._head_row(head, agg_index, chosen))
        current = kernel.fetch(f"rows{self.slot[head.relation]}",
                               f"T[{self.slot[head.relation]}]._rows")
        kernel.line(f"cur = {current}.get({key})")
        kernel.block(
            f"if cur is not None and cur != cand and not "
            f"{better(f'cand[{agg_index}]', f'cur[{agg_index}]')}:")
        _row, found = self._emit_group_scan(kernel, atom, group, seed, key)
        kernel.block(f"if {self._head_row(head, agg_index, found)} == cur:")
        kernel.line("return None")
        kernel.depth = decided
        kernel.line("return cand")
        kernel.depth = 1
        kernel.line("return None")

    def _rank_kernel(self, kernel: _Kernel, rule: Rule, position: int):
        """Candidates ``(sig, trailing)`` per group the delta touches: the
        whole body re-joined, seeded with the group variables the delta
        binds."""
        head = rule.head
        agg_index = head.aggregate_index()
        aggregate = head.args[agg_index]
        self._fn("f_rankKey")  # bound here, called by the runtime's sort
        group = head.args[:agg_index]
        kernel.line("groups = {}")
        bound = self._emit_trigger(kernel, rule.body[position], "row")
        seed = {arg.name: bound[arg.name] for arg in group
                if isinstance(arg, Var) and arg.name in bound}
        slots = self._emit_body(kernel, list(rule.body), seed)
        key = _tuple([self._expr(arg, slots) for arg in group])
        trailing = [self._expr(arg, slots) for arg in head.args[agg_index + 1:]]
        kernel.line(f"groups.setdefault({key}, []).append(("
                    f"{self._expr(aggregate.var, slots)}, "
                    f"{_tuple(trailing)}))")
        kernel.depth = 1
        kernel.line("return groups")

    def _head_row(self, head: Atom, agg_index: int, slots: dict) -> str:
        return _tuple([self._expr(head.args[agg_index].var if i == agg_index
                                  else arg, slots)
                       for i, arg in enumerate(head.args)])

    def _emit_group_scan(self, kernel: _Kernel, atom: Atom, group: list,
                         seed: dict, key: str) -> tuple[str, dict]:
        """Open a scan over the rows of group ``key``; plain group variables
        are bound up front, any other group expression is compared."""
        row, slots = self._emit_scan(kernel, atom, seed)
        if any(not isinstance(arg, Var) for arg in group):
            computed = _tuple([self._expr(arg, slots) for arg in group])
            kernel.block(f"if not ({computed} != {key}):")
        return row, slots

    # -- body elements ----------------------------------------------------

    def _emit_body(self, kernel: _Kernel, elements: list,
                   slots: dict) -> dict:
        """Emit ``elements`` in join order: the first one that can run."""
        pending = list(elements)
        while pending:
            for i, element in enumerate(pending):
                if self._can_run(element, slots):
                    break
            else:
                raise NDlogRuntimeError(
                    "body elements never became ready: "
                    f"{[str(e) for e in pending]}")
            element = pending.pop(i)
            if isinstance(element, Atom):
                _row, slots = self._emit_scan(kernel, element, slots)
            elif isinstance(element, Assignment):
                value = self._expr(element.expr, slots)
                name = element.var.name
                if name in slots:
                    kernel.block(f"if not ({slots[name]} != {value}):")
                else:
                    slots = {**slots, name: kernel.fresh()}
                    kernel.line(f"{slots[name]} = {value}")
            else:
                kernel.block(f"if {self._expr(element.lhs, slots)} "
                             f"{element.op} {self._expr(element.rhs, slots)}:")
        return slots

    def _can_run(self, element, slots: dict) -> bool:
        if isinstance(element, Atom):
            return True
        if isinstance(element, Assignment):
            exprs = [element.expr]
        elif isinstance(element, Condition):
            if element.op not in _OPERATORS:
                raise NDlogRuntimeError(f"unknown operator {element.op}")
            exprs = [element.lhs, element.rhs]
        else:
            raise NDlogRuntimeError(f"unsupported body element {element}")
        return all(var.name in slots
                   for expr in exprs for var in _expr_vars(expr))

    def _emit_trigger(self, kernel: _Kernel, atom: Atom, row: str) -> dict:
        """Bind the trigger atom's variables from ``row``."""
        for arg in atom.args:
            if not isinstance(arg, (Var, Const)):
                raise NDlogRuntimeError(
                    f"unsupported body-atom argument {arg}")
        names = [arg.name for arg in atom.args if isinstance(arg, Var)]
        if len(names) == atom.arity and len(set(names)) == len(names):
            slots = {name: kernel.fresh() for name in names}
            kernel.line(f"{', '.join(slots.values())}, = {row}")
            return slots
        for col, arg in enumerate(atom.args):
            if isinstance(arg, Const):
                kernel.block(f"if not ({self._literal(arg.value)} != "
                             f"{row}[{col}]):")
        return self._emit_bindings(kernel, atom, {}, row)

    def _emit_scan(self, kernel: _Kernel, atom: Atom,
                   slots: dict) -> tuple[str, dict]:
        """Open the lookup or loop over ``atom``'s matching rows."""
        relation = atom.relation
        if relation not in self.slot:
            raise NDlogRuntimeError(
                f"{relation} is not materialized; event atoms can only be "
                "the rule trigger")
        slot = self.slot[relation]
        keys = self.program.materialized[relation].keys
        bound: dict[int, str] = {}
        for col, arg in enumerate(atom.args):
            if isinstance(arg, Const):
                bound[col] = self._literal(arg.value)
            elif isinstance(arg, Var):
                if arg.name in slots:
                    bound[col] = slots[arg.name]
            else:
                raise NDlogRuntimeError(
                    f"unsupported body-atom argument {arg}")
        row = kernel.fresh("r")
        probe = [col for col in sorted(bound) if col in keys]
        if len(probe) == len(keys):
            rows = kernel.fetch(f"rows{slot}", f"T[{slot}]._rows")
            kernel.line(f"{row} = {rows}.get("
                        f"{_tuple([bound[col] for col in keys])})")
            kernel.block(f"if {row} is not None:")
        elif probe and probe != [atom.loc_index]:
            columns = tuple(probe)
            if columns not in self.indexes[relation]:
                self.indexes[relation].append(columns)
            which = self.indexes[relation].index(columns)
            index = kernel.fetch(f"ix{slot}_{which}", f"T[{slot}].idx[{which}]")
            kernel.block(f"for {row} in {index}.get("
                         f"{_tuple([bound[col] for col in probe])}, "
                         "EMPTY).values():")
        else:
            probe = []
            rows = kernel.fetch(f"rows{slot}", f"T[{slot}]._rows")
            kernel.block(f"for {row} in {rows}.values():")
        for col in sorted(bound):
            if col not in probe:
                kernel.block(f"if not ({bound[col]} != {row}[{col}]):")
        return row, self._emit_bindings(kernel, atom, slots, row)

    def _emit_bindings(self, kernel: _Kernel, atom: Atom, slots: dict,
                       row: str, check: bool = True) -> dict:
        """Bind the variables ``atom`` mentions that ``slots`` does not; a
        variable repeated within the atom is compared (when ``check``)."""
        out = dict(slots)
        for col, arg in enumerate(atom.args):
            if not isinstance(arg, Var) or arg.name in slots:
                continue
            if arg.name in out:
                if check:
                    kernel.block(f"if not ({out[arg.name]} != {row}[{col}]):")
            else:
                out[arg.name] = kernel.fresh()
                kernel.line(f"{out[arg.name]} = {row}[{col}]")
        return out

    # -- expressions ------------------------------------------------------

    def _expr(self, expr, slots: dict) -> str:
        if isinstance(expr, Var):
            if expr.name not in slots:
                raise NDlogRuntimeError(f"unbound variable {expr.name}")
            return slots[expr.name]
        if isinstance(expr, Const):
            return self._literal(expr.value)
        if isinstance(expr, FuncCall):
            args = ", ".join(self._expr(arg, slots) for arg in expr.args)
            return f"{self._fn(expr.name)}({args})"
        raise NDlogRuntimeError(f"cannot evaluate {expr}")

    def _better(self, func: str) -> Callable[[str, str], str]:
        """Source of "does the first value beat the second" for aggregate
        ``func``: ``a_pref`` is the algebra-generated ``f_better``,
        ``a_min``/``a_max`` are numeric, any other name is a registered
        ``<func>_better``."""
        if func in ("a_min", "a_max"):
            op = "<" if func == "a_min" else ">"
            return lambda a, b: f"{a} {op} {b}"
        name = "f_better" if func == "a_pref" else f"{func}_better"
        if func != "a_pref":
            self.comparators[name] = func
        fn = self._fn(name)
        return lambda a, b: f"{fn}({a}, {b})"

    def _fn(self, name: str) -> str:
        return self.functions.setdefault(name, f"F{len(self.functions)}")

    def _literal(self, value) -> str:
        self.literals.append(value)
        return f"K{len(self.literals) - 1}"
