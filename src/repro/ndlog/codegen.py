"""Algebra → NDlog code generation (paper Sec. V-B).

Implements the four-step translation:

* **Steps 1-3** — generate the policy functions of Table II from the input
  algebra: ``f_pref`` / ``f_better`` (⪯), ``f_concatSig`` (⊕P),
  ``f_import`` (⊕I), ``f_export`` (⊕E), plus the executable foldings
  ``f_combine`` and ``f_exportSig`` used by the deployed GPV program —
  the native engine's own folds
  (:func:`~repro.algebra.extended.path_vector_folds`);
* **Step 4** — generate per-node configuration facts from the topology:
  a ``label`` tuple for every directed link and a ``sig`` tuple for every
  one-hop path to a destination (the origination set).

:func:`deploy_gpv` assembles the whole pipeline: parse the GPV program,
register the generated functions, install the facts, and return a ready
:class:`~repro.ndlog.runtime.NDlogRuntime`.  :func:`generated_source`
renders the functions as pseudo-code in the paper's ``#def_func`` style for
inspection and documentation.
"""

from __future__ import annotations

from typing import Iterable

from ..algebra.base import PHI, Pref, RoutingAlgebra, origin_or_phi
from ..algebra.extended import path_vector_folds, split_operators
from ..algebra.spp import SPPAlgebra, SPPInstance
from ..net.network import Network
from ..net.simulator import Simulator
from .functions import FunctionRegistry
from .parser import parse_program
from .programs import GPV, gpv_topk
from .runtime import NDlogRuntime, TransportPolicy


def make_functions(algebra: RoutingAlgebra) -> FunctionRegistry:
    """Steps 1-3: build the registry of algebra-derived functions."""
    registry = FunctionRegistry()

    def f_pref(s1, s2) -> bool:
        """⪯: is s1 weakly preferred to s2?"""
        return algebra.preference(s1, s2) in (Pref.BETTER, Pref.EQUAL)

    def f_better(s1, s2) -> bool:
        """≺: is s1 strictly preferred to s2 (comparator behind a_pref)?"""
        return algebra.better(s1, s2)

    f_import, f_concat_sig, f_export = split_operators(algebra)
    f_combine, f_export_sig = path_vector_folds(algebra)
    registry.register("f_pref", f_pref)
    registry.register("f_better", f_better)
    registry.register("f_concatSig", f_concat_sig)
    registry.register("f_import", f_import)
    registry.register("f_export", f_export)
    registry.register("f_combine", f_combine)
    registry.register("f_exportSig", f_export_sig)
    return registry


def label_facts(network: Network) -> Iterable[tuple[str, tuple]]:
    """Step 4a: one ``label(@u, v, L)`` fact per directed link."""
    for link in network.links():
        for u, v in ((link.a, link.b), (link.b, link.a)):
            label = link.labels.get((u, v))
            if label is not None:
                yield u, (u, v, label)


def origination_facts(network: Network, algebra: RoutingAlgebra,
                      destinations: Iterable[str]
                      ) -> Iterable[tuple[str, tuple]]:
    """Step 4b: a ``sig`` fact per one-hop path to each destination.

    The fact is ``sig(@u, u, d, s0, (u, d))`` — the neighbor column set to
    the node itself marks a locally originated route.
    """
    for dest in destinations:
        for neighbor in network.neighbors(dest):
            label = network.label(neighbor, dest)
            if label is None:
                continue
            sig = origin_or_phi(algebra, label)
            if sig is PHI:
                continue
            yield neighbor, (neighbor, neighbor, dest, sig,
                             (neighbor, dest))


def deploy_gpv(network: Network, algebra: RoutingAlgebra,
               destinations: Iterable[str], *,
               seed: int = 0,
               batch_interval: float | None = None,
               simulator: Simulator | None = None,
               top_k: int = 1) -> NDlogRuntime:
    """Assemble a runnable GPV deployment (Fig. 1's left-hand path).

    Returns an :class:`NDlogRuntime` with origination facts injected at
    t=0; call ``runtime.sim.run()`` to execute.  Pass ``simulator`` to run
    on an externally owned event loop — e.g. one with a pre-scheduled
    failure/perturbation timeline shared with another backend — instead of
    a fresh internal one (``seed`` is ignored in that case: the external
    simulator already carries its own RNG).

    ``top_k > 1`` deploys the multipath variant
    (:func:`~repro.ndlog.programs.gpv_topk`): ``sig`` and the wire format
    gain a trailing rank column, originations occupy rank 0, and the send
    side advertises the k-best exportable set per neighbor through the
    ranked ``a_topK`` aggregate.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    if top_k == 1:
        program = parse_program(GPV, name="gpv")
        transport = TransportPolicy(msg_relation="msg", dest_pos=2,
                                    sig_pos=3, path_pos=4,
                                    batch_interval=batch_interval)
    else:
        program = parse_program(gpv_topk(top_k), name=f"gpv-top{top_k}")
        transport = TransportPolicy(msg_relation="msg", dest_pos=2,
                                    sig_pos=3, path_pos=4, rank_pos=5,
                                    batch_interval=batch_interval)
    if simulator is None:
        simulator = Simulator(network, seed=seed)
    elif simulator.network is not network:
        raise ValueError("the supplied simulator runs a different network")
    runtime = NDlogRuntime(program, simulator, make_functions(algebra),
                           transport)
    for node, row in label_facts(network):
        runtime.install_fact(node, "label", row)
    for node, row in origination_facts(network, algebra, destinations):
        if top_k > 1:
            row = row + (0,)  # originations are their own rank-0 slot
        runtime.inject(node, "sig", row, at=0.0)
    return runtime


def network_from_spp(instance: SPPInstance, **link_kwargs) -> Network:
    """Build the physical network of an SPP instance.

    Directed labels are the SPP algebra's per-link constants
    ``('l', u, v)``; link parameters default to the paper's 100 Mbps /
    10 ms.
    """
    network = Network(name=instance.name)
    for edge in sorted(instance.edges, key=sorted):
        u, v = sorted(edge)
        network.add_link(u, v, label_ab=("l", u, v), label_ba=("l", v, u),
                         **link_kwargs)
    return network


def deploy_spp(instance: SPPInstance, *, seed: int = 0,
               batch_interval: float | None = None,
               **link_kwargs) -> NDlogRuntime:
    """Deploy GPV for an SPP instance (gadget experiments, Sec. VI-C)."""
    network = network_from_spp(instance, **link_kwargs)
    algebra = SPPAlgebra(instance)
    return deploy_gpv(network, algebra, [instance.destination], seed=seed,
                      batch_interval=batch_interval)


def generated_source(algebra: RoutingAlgebra) -> str:
    """Render the generated functions in the paper's ``#def_func`` style.

    Only finite algebras can be rendered entry-by-entry; closed-form
    algebras are rendered as their Python expression.
    """
    lines: list[str] = [f"// functions generated from algebra {algebra.name}"]
    if not algebra.is_finite:
        lines.append("#def_func f_concatSig(L,S) { return L + S }")
        lines.append("#def_func f_pref(S1,S2) { return S1 <= S2 }")
        lines.append("#def_func f_import(L,S) { return true }")
        lines.append("#def_func f_export(L,S) { return true }")
        return "\n".join(lines)

    import_allows, concat, export_allows = split_operators(algebra)
    lines.append("#def_func f_concatSig(L,S) {")
    for label in algebra.labels():
        for sig in algebra.signatures() or []:
            result = concat(label, sig)
            if result is not PHI:
                lines.append(f"  if (L=={label!r}) && (S=={sig!r}) "
                             f"return {result!r}")
    lines.append("  return phi }")

    lines.append("#def_func f_pref(S1,S2) {")
    for statement in algebra.preference_statements():
        lines.append(f"  // {statement}")
    lines.append("  ... }")

    for allows, name in ((import_allows, "f_import"),
                         (export_allows, "f_export")):
        lines.append(f"#def_func {name}(L,S) {{")
        for label in algebra.labels():
            for sig in algebra.signatures() or []:
                if not allows(label, sig):
                    lines.append(
                        f"  if (L=={label!r} && S=={sig!r}) return false")
        lines.append("  return true }")
    return "\n".join(lines)
