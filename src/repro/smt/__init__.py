"""SMT substrate: the FSR substitute for the Yices solver.

FSR's safety analysis only needs integer difference logic (every generated
constraint is ``x < y``, ``x <= y``, ``x = y`` or a positivity bound).  This
package provides a sound and complete decision procedure for that fragment
with models, minimal unsat cores, core enumeration, and Yices-syntax output.

Public API:

* :class:`IntVar`, :class:`Atom`, :class:`ConstraintSystem` — the constraint
  language (``Atom.lt/le/eq`` constructors; positivity is the solver's).
* :class:`DifferenceSolver`, :func:`solve`, :class:`Result`,
  :class:`Verdict` — the solver (the analyzer's tier 2).
* :func:`to_yices` — prints a system in the paper's concrete syntax.
"""

from .solver import (
    DifferenceSolver,
    Result,
    Verdict,
    solve,
)
from .terms import Atom, ConstraintSystem, IntVar, Relation
from .yices_syntax import to_yices

__all__ = [
    "Atom",
    "ConstraintSystem",
    "DifferenceSolver",
    "IntVar",
    "Relation",
    "Result",
    "Verdict",
    "solve",
    "to_yices",
]
