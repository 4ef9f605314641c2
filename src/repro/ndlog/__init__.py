"""Network Datalog: language, runtime, and algebra→NDlog code generation.

* :mod:`repro.ndlog.ast` / :mod:`repro.ndlog.parser` — the NDlog language
  fragment FSR generates (location specifiers, keyed ``materialize``
  declarations, ``a_pref`` aggregates);
* :mod:`repro.ndlog.compiler` — each (rule, trigger) compiled once per
  program text into generated Python (slots, a fixed join order, keyed
  lookups and per-table indexes);
* :mod:`repro.ndlog.runtime` — delta-driven distributed evaluation of the
  compiled rules over the simulator (the RapidNet stand-in);
* :mod:`repro.ndlog.programs` — the GPV mechanism text (paper Sec. V-A);
* :mod:`repro.ndlog.codegen` — the four-step algebra→NDlog translation
  (paper Sec. V-B) and one-call deployments.
"""

from .ast import (
    Aggregate,
    Assignment,
    Atom,
    Condition,
    Const,
    FuncCall,
    Materialize,
    Program,
    Rule,
    Var,
)
from .codegen import (
    deploy_gpv,
    deploy_spp,
    generated_source,
    label_facts,
    make_functions,
    network_from_spp,
    origination_facts,
)
from .functions import FunctionRegistry
from .parser import NDlogSyntaxError, parse_program
from .programs import GPV, GPV_PAPER
from .runtime import NDlogRuntime, NDlogRuntimeError, Table, TransportPolicy

__all__ = [
    "Aggregate",
    "Assignment",
    "Atom",
    "Condition",
    "Const",
    "FuncCall",
    "FunctionRegistry",
    "GPV",
    "GPV_PAPER",
    "Materialize",
    "NDlogRuntime",
    "NDlogRuntimeError",
    "NDlogSyntaxError",
    "Program",
    "Rule",
    "Table",
    "TransportPolicy",
    "Var",
    "deploy_gpv",
    "deploy_spp",
    "generated_source",
    "label_facts",
    "make_functions",
    "network_from_spp",
    "origination_facts",
    "parse_program",
]
