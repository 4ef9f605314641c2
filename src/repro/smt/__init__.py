"""SMT substrate: the FSR substitute for the Yices solver.

FSR's safety analysis only needs integer difference logic (every generated
constraint is ``x < y``, ``x <= y``, ``x = y`` or a positivity bound).  This
package provides a sound and complete decision procedure for that fragment
with models, minimal unsat cores, core enumeration, and Yices-syntax I/O.

Public API:

* :class:`IntVar`, :class:`Atom`, :class:`ConstraintSystem` — the constraint
  language (``Atom.lt/le/eq/ge_const`` constructors).
* :class:`DifferenceSolver`, :func:`solve`, :class:`Result`,
  :class:`Verdict` — the solver (the analyzer's tier 2).
* :func:`to_yices`, :func:`parse_yices` — the paper's concrete syntax.
"""

from .solver import (
    DifferenceSolver,
    Result,
    Verdict,
    solve,
)
from .terms import ZERO, Atom, ConstraintSystem, IntVar, Relation
from .yices_syntax import YicesParseError, parse_yices, to_yices

__all__ = [
    "Atom",
    "ConstraintSystem",
    "DifferenceSolver",
    "IntVar",
    "Relation",
    "Result",
    "Verdict",
    "YicesParseError",
    "ZERO",
    "parse_yices",
    "solve",
    "to_yices",
]
