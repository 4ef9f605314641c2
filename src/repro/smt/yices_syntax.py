"""Yices 1.x surface syntax for FSR constraint systems.

The paper presents its encodings as Yices listings (Sec. IV-C)::

    (define-type Sig (subtype (n::nat) (> n 0)))
    (define C::Sig) (define P::Sig) (define R::Sig)
    ;; preference relations
    (assert (< C R)) (assert (< C P)) (assert (= R P))

Since we substitute our own solver for Yices, :func:`to_yices` prints a
:class:`~repro.smt.terms.ConstraintSystem` in the exact style of the paper's
listings (``bench_analysis_case_studies.py`` prints one per case study).
Each relation's value is its Yices operator.
"""

from __future__ import annotations

from .terms import ConstraintSystem

_HEADER = "(define-type Sig (subtype (n::nat) (> n 0)))"


def to_yices(system: ConstraintSystem, comments: bool = True) -> str:
    """Render ``system`` as a Yices 1.x script.

    Atom ``origin`` strings are grouped into ``;;`` comment banners when
    ``comments`` is True, mirroring the paper's "preference relations" /
    "strict monotonicity" section headers.
    """
    lines: list[str] = [_HEADER]
    for var in system.variables():
        lines.append(f"(define {var.name}::Sig)")
    last_banner: str | None = None
    for atom in system:
        if comments:
            banner = atom.origin.split(":", 1)[0] if atom.origin else ""
            if banner and banner != last_banner:
                lines.append(f";; {banner}")
                last_banner = banner
        lines.append(f"(assert ({atom.rel.value} {atom.lhs.name} "
                     f"{atom.rhs.name}))")
    lines.append("(check)")
    return "\n".join(lines)

