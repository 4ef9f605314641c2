"""Vectorized batch execution backend: thousands of scenarios per call.

The scalar engines (GPV, NDlog) simulate every advertisement of every
scenario through a discrete-event loop — faithful, and the differential
ground truth, but the campaign hot path.  This backend exploits the
theorem the whole toolkit is built on: for a **strictly monotonic**
algebra the protocol's converged best-route table *is* the unique
Bellman-Ford fixpoint of the final topology (paper Thm. 4.1 plus
uniqueness of the stable state), independent of message timing, event
interleaving, or advertisement batching.  So instead of simulating, it:

1. **tabulates the algebra ordinally** — the reachable signature closure
   (origin signatures extended by every observed label, ``nodes − 1``
   transfers deep: :func:`_closure_depth`) is rank-sorted
   into integer ids where *smaller id == more preferred*, with φ as the
   largest absorbing *routable* id and a distinct **hole** sentinel
   (``hole_id == phi_id + 1``) for extensions whose true value lies past
   the closure depth horizon; ⊕ becomes one ``int32`` lookup table
   ``trans[label, sig] -> sig``.  Strict monotonicity is
   *verified* for every tabulated entry — in-table extensions must carry
   a strictly larger id, hole extensions are preference-checked against
   their source — and any violation marks the algebra unsupported;
2. **folds each scenario's event mask into what it compiles** — failed
   links drop out of the edge list, perturbed links take their final
   label, forged originations become extra seeds; history-independence
   of the unique stable state makes the final topology sufficient, and
   the scenario itself is never written to (:func:`_fold_events`), so
   the oracle's chunk pass and the scalar primary share one
   materialization;
3. **relaxes all scenarios at once** in struct-of-arrays form: one flat
   ``int32`` state vector over every (scenario, destination, node)
   triple of a same-kernel group, one flat directed-edge list, and one
   synchronous Jacobi iteration over the whole edge list until fixpoint
   (:func:`_relax_jacobi`) — one fair activation schedule of the
   protocol the safety theorem proves convergent, so it reaches the
   scalar engines' unique stable state whether or not the algebra is
   isotone.  When a transient reads a hole entry, a hazard kernel's tie
   check fires, or the iteration fails to settle, the group **declines
   at run time** (:class:`BatchDeclined`).

This is not a scalar-lifecycle backend — no ``prepare``, no simulator,
no session per scenario.  Its contract is ``supports → prepare_batch →
run``: :meth:`BatchBackend.supports` is **admission**, the one pass that
scans, keys, looks the kernel up and compiles, and it returns what it
computed (the scenario's :class:`_Problem`) or ``None``;
:meth:`VectorizedBatchSession.run` only groups those problems by kernel,
relaxes and renders.  Every verdict is one increment of
``repro_batch_admission_total{family,outcome,reason}`` over a fixed
vocabulary: ``admitted`` (``none``), ``refused`` (reasons at
:meth:`BatchBackend.supports`) and — on top, for admitted members of a
group that bails at run time — ``declined`` (:class:`BatchDeclined`).
Either way the scenario stays on the scalar engines, which — generated
from the same algebra — are the only equivalence oracle.  Anything that
is not a typed refusal or decline is a bug and propagates.

The kernel lookup runs once per scanned scenario, in this order: a
process-wide cache under kernel keys (:func:`kernel_key_of`, the one
place a key is rendered; the closure depth is part of it, so
every tier hands a scenario a kernel at least as deep as its topology
needs), an optional **persistent kernel
store** (:mod:`repro.exec.kernel_store`, attached by
:func:`configure_kernel_store`) shared by pool workers and repeat
campaigns, then tabulation.

numpy is optional: without it the backend simply supports nothing, so
campaigns degrade to the scalar engines instead of failing to import.
"""

from __future__ import annotations

import gc
import pickle
import time
from typing import TYPE_CHECKING, Hashable, Iterable

try:  # gated: the toolkit must import (and run scalar) without numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less boxes
    _np = None

from ..algebra.base import PHI, RoutingAlgebra, origin_or_phi, rank_sort
from ..algebra.extended import ExtendedAlgebra, split_operators
from ..algebra.hlp import HLPCostAlgebra
from ..algebra.spp import SPPAlgebra
from ..net.simulator import StopReason
from ..obs import metrics as _obs_metrics
from ..sqlite_cache import open_store
from .base import ExecutionOutcome
from .kernel_store import KernelStore

if TYPE_CHECKING:
    from ..campaigns.scenarios import Scenario

#: Structural limits of the kernel: the ordinal table must stay small
#: enough that tabulation is cheaper than the simulations it replaces.
MAX_NODES = 64
MAX_SIGNATURES = 4096

#: :func:`kernel_key_of` (algebra, vocabulary, closure depth) -> kernel,
#: or the reason (a ``str``) the vocabulary was refused.
_KERNEL_CACHE: dict[tuple, "_Kernel | str"] = {}
_KERNEL_CACHE_MAX = 256

#: Round budget multiplier for the Jacobi iteration.
_JACOBI_ROUND_SLACK = 4

#: Kernel amortization counters: registry series
#: ``repro_batch_kernel_events_total{event}`` — process-cache and store
#: hits/misses, closures actually tabulated, groups that declined at run
#: time — plus the tabulation wall-clock total;
#: :func:`kernel_cache_stats` is a view over them.
_KERNEL_EVENTS = {
    name: _obs_metrics.counter("repro_batch_kernel_events_total",
                               event=name)
    for name in ("cache_hits", "cache_misses", "store_hits",
                 "store_misses", "tabulations", "runtime_declines")
}
_TABULATION_SECONDS = _obs_metrics.counter(
    "repro_batch_tabulation_seconds_total")


def _count_admission(scenario: "Scenario", outcome: str,
                     reason: str = "none") -> None:
    """One verdict on one scenario: ``admitted`` / ``refused`` at
    admission, ``declined`` at run time (vocabulary: module docstring)."""
    _obs_metrics.counter(
        "repro_batch_admission_total", outcome=outcome, reason=reason,
        family=getattr(scenario.spec, "family", "unknown")).inc()


#: Per-phase telemetry (snapshot via :func:`batch_phase_stats`): wall
#: time of admission's topology scan + problem compilation (``scan``)
#: and kernel lookup, any tier (``tabulate``), of the relaxation proper
#: and of outcome rendering; Σ state-vector length over all groups.
_PHASE_SECONDS = {
    phase: _obs_metrics.counter("repro_batch_phase_seconds_total",
                                phase=phase)
    for phase in ("scan", "tabulate", "relax", "render")
}
_PHASE_EVENTS = {
    name: _obs_metrics.counter("repro_batch_relax_events_total",
                               event=name)
    for name in ("state_cells",)
}

#: fixpoints per round count; one counter per observed round count,
#: so handles are re-acquired in :func:`_note_rounds` and the reset drops
#: the dynamically-created series.
_ROUNDS_FAMILY = "repro_batch_relax_rounds_total"


def batch_phase_stats() -> dict:
    """Snapshot of per-phase timing/occupancy counters (a registry view)."""
    rounds = {
        int(dict(labels)["rounds"]): int(metric.value)
        for labels, metric in
        _obs_metrics.get_registry().family(_ROUNDS_FAMILY).items()
    }
    out = {f"{phase}_s": handle.value
           for phase, handle in _PHASE_SECONDS.items()}
    out["rounds"] = rounds
    out.update((name, int(handle.value))
               for name, handle in _PHASE_EVENTS.items())
    return out


def reset_batch_phase_stats() -> None:
    for handle in _PHASE_SECONDS.values():
        handle.reset()
    for handle in _PHASE_EVENTS.values():
        handle.reset()
    _obs_metrics.get_registry().reset(_ROUNDS_FAMILY, drop=True)


def _note_rounds(rounds: int) -> None:
    _obs_metrics.counter(_ROUNDS_FAMILY, rounds=rounds).inc()

#: The attached store: what :func:`configure_kernel_store` last opened.
_STORE: KernelStore | None = None


class BatchDeclined(RuntimeError):
    """An admitted kernel group must fall back to scalar at run time.

    Raised by the Jacobi iteration, which is sound exactly while every
    transient stays inside the tabulated closure: a beyond-horizon hole
    read (``horizon``), no settling within the round budget
    (``round-budget``) or a competing tie on a hazard kernel
    (``hazard-tie``) aborts the batch answer rather than risk a wrong
    one — the message is that reason.  Never an execution error:
    ``run()`` yields ``None`` for the group's members and the oracle
    keeps their scalar results without a ``batch`` cross-check.
    """


def kernel_cache_stats() -> dict:
    """Snapshot of kernel amortization counters (a registry view)."""
    out = {name: int(handle.value)
           for name, handle in _KERNEL_EVENTS.items()}
    out["tabulation_s"] = _TABULATION_SECONDS.value
    # benchmarks/e2e/ledger.py still indexes the retired per-instance
    # memo tier: 0 until a ``benchmark`` PR drops ``kernel_memo_hits``.
    out["memo_hits"] = 0
    return out


def reset_kernel_cache_stats() -> None:
    for handle in _KERNEL_EVENTS.values():
        handle.reset()
    _TABULATION_SECONDS.reset()


def numpy_available() -> bool:
    """Whether the vectorized backend can run at all in this process."""
    return _np is not None


def _transfer_of(algebra: RoutingAlgebra):
    """``(key, sig) -> sig``: one directed link traversal, exactly as the
    scalar engines do it, with the operators bound once per tabulation.

    For :class:`ExtendedAlgebra` the key is the directed
    ``(export label, import label)`` pair — the sender filters with ⊕E
    over *its* side's label and the receiver filters (⊕I) and extends
    (⊕P) over the reverse direction's label, mirroring the GPV/NDlog
    send/receive split.  Plain algebras have a single combined ⊕ and the
    key is the receiver-side label alone.
    """
    import_allows, concat, export_allows = split_operators(algebra)
    if not isinstance(algebra, ExtendedAlgebra):
        def transfer(label, sig):
            return PHI if sig is PHI else concat(label, sig)
        return transfer

    def transfer(key, sig):
        out_label, in_label = key
        if sig is PHI or not export_allows(out_label, sig) \
                or not import_allows(in_label, sig):
            return PHI
        return concat(in_label, sig)
    return transfer


def _closure_depth(scenario: "Scenario") -> int:
    """How many transfers deep the scenario's kernel is tabulated.

    Every stable-state value and every simple-path value on an n-node
    topology uses at most ``n − 1`` transfers, so the depth-``n − 1``
    closure holds all of them; a Jacobi transient past it reads a hole
    and its group declines (``horizon``).  A pure function of the
    scenario, and part of its :func:`kernel_key_of`.
    """
    return max(scenario.network.node_count() - 1, 1)


class _Kernel:
    """One algebra tabulated over one transfer vocabulary, as integer ranks.

    ``sigs[i]`` is the representative signature of ordinal id ``i`` (rank
    order, ties broken by ``repr`` so ids are deterministic); ``phi_id ==
    len(sigs)`` is φ and ``hole_id == phi_id + 1`` the beyond-horizon
    sentinel.  ``trans[key_id, sig_id]`` is the id of the signature after
    one directed link traversal (genuine filters map to ``phi_id``,
    depth-truncated extensions to ``hole_id``), and ``origin_id[label]``
    the id of the one-hop origination signature over an import label.
    Strict monotonicity makes every in-table ``trans`` entry strictly
    larger than its source id — the property both the fixpoint argument
    and the next-hop reconstruction lean on.

    ``pref_class[i]`` is the *preference class* of id ``i``: adjacent
    rank-sorted signatures that compare EQUAL share a class, φ is the
    strictly-worst real class, and the hole sentinel sits above even
    that (so it can never win a min).

    ``tie_class`` is ``None`` when the tables respect ties
    (:func:`_tie_hazard`); otherwise the kernel is a *hazard* kernel and
    ``tie_class`` is the bisimulation refinement of ``pref_class`` under
    ``trans``, with which its Jacobi rounds verify that no preference tie
    between behaviorally distinct signatures ever competes for one node —
    the condition under which the batch answer could diverge from the
    scalar engines' arrival-order tie-break.  ``depth`` is the closure
    horizon the tables were tabulated to.  A kernel is never changed
    after it is built: every cache tier holds a plain value.
    """

    __slots__ = ("sigs", "phi_id", "hole_id", "key_id", "trans",
                 "origin_id", "pref_class", "hole_count", "tie_class",
                 "depth")

    def __init__(self, sigs: list, key_id: dict, trans, origin_id: dict,
                 pref_class, hole_count: int, *, depth: int,
                 tie_class=None):
        self.sigs = sigs
        self.phi_id = len(sigs)
        self.hole_id = len(sigs) + 1
        self.key_id = key_id
        self.trans = trans
        self.origin_id = origin_id
        self.pref_class = pref_class
        self.hole_count = hole_count
        self.tie_class = tie_class
        self.depth = depth


def _pref_classes(sigs: list, ranks: dict):
    """id -> preference class over ``sigs`` (rank-sorted, rank keys in
    ``ranks``) + φ + hole (ascending = worse)."""
    classes = _np.empty(len(sigs) + 2, dtype=_np.int32)
    cls = 0
    previous = None
    for i, sig in enumerate(sigs):
        rank = ranks[sig]
        if i and previous < rank:
            cls += 1
        classes[i] = cls
        previous = rank
    classes[len(sigs)] = cls + 1      # φ: strictly worse than every route
    classes[len(sigs) + 1] = cls + 2  # hole: worse still, never compared
    return classes


def _tie_classes(trans, pref_class):
    """Bisimulation refinement of ``pref_class`` under ``trans``.

    Two ids share a tie class iff they compare preference-EQUAL *and*
    every one-key extension lands them in preference-equal (recursively:
    tie-equal) ids — i.e. the coarsest refinement of the preference
    partition that ``trans`` cannot distinguish.  A preference tie
    between distinct tie classes is exactly the situation where the
    scalar engines' arrival-order tie-break could pick a signature whose
    *future* extensions differ from the batch fixpoint's pick; a hazard
    kernel's Jacobi rounds check for it at run time.  φ and the hole keep
    their own classes throughout.  Ids are deterministic (first-seen
    order over the rank-sorted ids).
    """
    cls = pref_class.astype(_np.int64)
    distinct = int(_np.unique(cls).size)
    n_keys = trans.shape[0]
    while True:
        behavior = _np.empty((cls.size, n_keys + 1), dtype=_np.int64)
        behavior[:, 0] = cls
        behavior[:, 1:] = cls[trans].T
        _, refined = _np.unique(behavior, axis=0, return_inverse=True)
        refined_distinct = int(refined.max()) + 1
        if refined_distinct == distinct:
            return cls.astype(_np.int32)
        cls = refined.astype(_np.int64)
        distinct = refined_distinct


def _tie_hazard(trans, pref_class, phi_id: int):
    """The kernel's ``tie_class``, or ``None`` when its tables respect ties.

    A row *respects ties* when, within each input preference class, its
    outputs are preference-EQUAL and holes don't mix with non-holes.
    Strict monotonicity + tie-respect make the stable state unique up to
    preference-equality, and then :func:`_tie_classes` is the preference
    partition itself, so the Jacobi iteration needs no tie check —
    provided no transient reads a hole, enforced at run time.  Hop-count
    and shortest-path tables respect ties, and so do the non-isotone
    lexical products (``gr-a-hopcount``, ``widest-shortest``).

    A strictly monotonic kernel that does *not* respect ties (deployed
    filter-mode secure wrappers land here: the deployment bit gives two
    importer columns whose outputs diverge within one preference class)
    gets its ``tie_class``.  The Jacobi iteration is still a fair
    activation schedule of the protocol; divergence from the scalar
    engines requires a preference tie between behaviorally distinct
    signatures to actually compete at some node, which its rounds detect
    via ``tie_class`` and decline on.  This admission is guarded
    empirically (the tie check + the campaign differential), not by a
    static proof.
    """
    in_cls = pref_class[:phi_id]
    # One segmented min/max per row: the hole sentinel has its own
    # preference class, so "segment collapses to one class" rejects
    # multi-class outputs and hole/non-hole mixes at once while accepting
    # pure all-hole segments.
    seg_starts = _np.concatenate(
        ([0], _np.flatnonzero(_np.diff(in_cls)) + 1))
    out_cls = pref_class[trans[:, :phi_id]]
    lo = _np.minimum.reduceat(out_cls, seg_starts, axis=1)
    hi = _np.maximum.reduceat(out_cls, seg_starts, axis=1)
    if bool((lo == hi).all()):
        return None
    return _tie_classes(trans, pref_class)


class _Unbatchable(Exception):
    """Internal: admission refuses the scenario; the message is the reason."""


def _close_signatures(algebra: RoutingAlgebra, transfer, ordered_keys: list,
                      ranks: dict, frontier: list, depth_budget: int,
                      ext: dict) -> None:
    """BFS the reachable signature closure up to ``depth_budget`` hops.

    ``transfer`` is the algebra's :func:`_transfer_of`.  ``ranks`` maps
    each closure member to its rank key — computed once, as it joins —
    and is the closure itself; it and ``frontier`` are mutated in place
    (``frontier`` is consumed), and every computed ``(key, sig) ->
    extended`` transfer is memoized in ``ext`` — the table fill reuses
    them, halving the algebra calls.  Each non-φ extension is
    strictness-verified on the spot by comparing rank keys; a violation
    (or a closure past the size budget) raises :class:`_Unbatchable`.
    """
    rank_key = algebra.rank_key
    depth = 0
    while frontier:
        depth += 1
        if depth > depth_budget:
            break  # deeper values are holes: tabulated past the horizon
        fresh = []
        for sig in frontier:
            rank = ranks[sig]
            for key in ordered_keys:
                extended = transfer(key, sig)
                ext[(key, sig)] = extended
                if extended is PHI:
                    continue
                extended_rank = ranks.get(extended)
                joins = extended_rank is None
                if joins:
                    extended_rank = rank_key(extended)
                if not rank < extended_rank:
                    raise _Unbatchable("not-strictly-monotonic")
                if joins:
                    ranks[extended] = extended_rank
                    fresh.append(extended)
                    if len(ranks) > MAX_SIGNATURES:
                        raise _Unbatchable("closure-budget")
        frontier = fresh


def _finish_kernel(algebra: RoutingAlgebra, transfer, ordered_keys: list,
                   origin: dict, ranks: dict, ext: dict,
                   depth: int) -> _Kernel:
    """Rank-sort a closure (its members' rank keys in ``ranks``) and
    fill the tables."""
    sigs = rank_sort(sorted(ranks, key=repr), ranks.__getitem__)
    sig_id = {sig: i for i, sig in enumerate(sigs)}
    phi_id = len(sigs)
    hole_id = phi_id + 1
    key_id = {key: i for i, key in enumerate(ordered_keys)}
    # trans columns: real ids, then φ (absorbing), then hole (absorbing).
    trans = _np.full((max(len(ordered_keys), 1), hole_id + 1), phi_id,
                     dtype=_np.int32)
    trans[:, hole_id] = hole_id
    hole_count = 0
    _missing = object()
    ext_get = ext.get
    id_get = sig_id.get
    for key, ki in key_id.items():
        for sig, si in sig_id.items():
            extended = ext_get((key, sig), _missing)
            if extended is _missing:
                # Frontier-at-horizon signatures never extended in the
                # BFS; compute (and strictness-check) here.
                extended = transfer(key, sig)
                if extended is not PHI:
                    extended_rank = ranks.get(extended)
                    if extended_rank is None:  # beyond the horizon
                        extended_rank = algebra.rank_key(extended)
                    if not ranks[sig] < extended_rank:
                        raise _Unbatchable("not-strictly-monotonic")
            if extended is PHI:
                continue
            ti = id_get(extended)
            if ti is None:
                # Beyond the depth horizon: an explicit hole (strictness
                # was verified when the extension was computed).
                trans[ki, si] = hole_id
                hole_count += 1
                continue
            if ti <= si:  # a rank tie would break the id ordering
                raise _Unbatchable("rank-tie")
            trans[ki, si] = ti
    pref_class = _pref_classes(sigs, ranks)
    origin_id = {
        label: (phi_id if sig is PHI else sig_id[sig])
        for label, sig in origin.items()
    }
    return _Kernel(sigs, key_id, trans, origin_id, pref_class, hole_count,
                   tie_class=_tie_hazard(trans, pref_class, phi_id),
                   depth=depth)


def _build_kernel(algebra: RoutingAlgebra, keys: Iterable[Hashable],
                  origin_labels: Iterable[Hashable], depth: int) -> _Kernel:
    """Tabulate ``algebra`` over a transfer vocabulary, or refuse it.

    :class:`_Unbatchable` means: the reachable closure outgrows the
    size budget, some extension is not *strictly* worse than its source
    (without strict monotonicity the fixpoint need not equal the
    protocol's outcome, or even be unique), or the algebra defines no ⊕
    over an observed label (``KeyError`` / ``NotImplementedError``, as
    in :func:`~repro.algebra.base.origin_or_phi`).  Any other exception
    is a bug and surfaces.

    The closure is *depth*-truncated, not required to be closed:
    additive metrics (shortest-path, hop counts) have infinite signature
    spaces, but every stable-state and simple-path value on an n-node
    topology uses at most n − 1 transfers and so lies within the
    depth-(n − 1) closure the scenario's :func:`_closure_depth` asks for.
    Extensions past the horizon are tabulated as the explicit **hole**
    sentinel (strictness still preference-verified), so the relaxation
    can reason about them instead of conflating them with φ: a Jacobi
    transient that reads one declines its group rather than guess.
    """
    transfer = _transfer_of(algebra)
    ordered_keys = sorted(set(keys), key=repr)
    origin = {label: origin_or_phi(algebra, label)
              for label in sorted(set(origin_labels), key=repr)}
    ext: dict = {}
    try:
        ranks = {sig: algebra.rank_key(sig) for sig in origin.values()
                 if sig is not PHI}
        _close_signatures(algebra, transfer, ordered_keys, ranks,
                          list(ranks), depth, ext)
        return _finish_kernel(algebra, transfer, ordered_keys, origin, ranks,
                              ext, depth)
    except (KeyError, NotImplementedError) as undefined:
        raise _Unbatchable("unlabelled-link") from undefined


def configure_kernel_store(path: str | None) -> None:
    """Attach (or, with ``None``, detach) the persistent kernel store for
    this process.  Idempotent per ``(path, pid)`` and fork-safe
    (:func:`~repro.sqlite_cache.open_store`); a path that cannot be
    opened raises ``sqlite3.Error`` and leaves no store attached.
    """
    global _STORE
    _STORE = None  # nothing, if the path cannot be opened
    _STORE = open_store(KernelStore, path)


def _encode_kernel(kernel: "_Kernel | str") -> bytes | None:
    """Kernel -> store payload (a refusal is NULL: no reason stored)."""
    if isinstance(kernel, str):
        return None
    ordered_keys = sorted(kernel.key_id, key=kernel.key_id.get)
    return pickle.dumps({
        "sigs": kernel.sigs,
        "keys": ordered_keys,
        "origin_id": kernel.origin_id,
        "trans": kernel.trans.tobytes(),
        "shape": kernel.trans.shape,
        "pref_class": kernel.pref_class.tobytes(),
        "hole_count": kernel.hole_count,
        "tie_class": (None if kernel.tie_class is None
                      else kernel.tie_class.tobytes()),
        "depth": kernel.depth,
    }, protocol=pickle.HIGHEST_PROTOCOL)


def _decode_kernel(payload: bytes | None) -> "_Kernel | str":
    """Store payload -> kernel; reads only the keys it needs, so a row
    with keys a former layout wrote (``mode``, ``hazard``) decodes too."""
    if payload is None:
        return "stored-negative"
    body = pickle.loads(payload)
    trans = _np.frombuffer(body["trans"], dtype=_np.int32) \
        .reshape(body["shape"]).copy()
    pref_class = _np.frombuffer(body["pref_class"], dtype=_np.int32).copy()
    key_id = {key: i for i, key in enumerate(body["keys"])}
    raw_tie = body["tie_class"]
    tie_class = (None if raw_tie is None
                 else _np.frombuffer(raw_tie, dtype=_np.int32).copy())
    return _Kernel(body["sigs"], key_id, trans, body["origin_id"],
                   pref_class, body["hole_count"], tie_class=tie_class,
                   depth=body["depth"])


def kernel_key_of(scenario: "Scenario", scan: tuple | None = None) -> tuple:
    """The canonical kernel key of a scenario's batch execution.

    ``(canonical algebra key, transfer keys, origin labels, closure
    depth)`` — the one rendering under which every cache tier files the
    scenario's kernel: one algebra over one vocabulary and one node count
    shares it across scenarios, seeds, chunks and (through the kernel
    store) processes.  The algebra key is name-faithful, so a kernel,
    whose ``sigs`` are the algebra's own signatures, is never handed to a
    renamed copy.  The depth (:func:`_closure_depth`) makes every tier
    hand the scenario a kernel tabulated for exactly its topology.
    Scenarios sharing the key share one tabulation *and* one relaxation
    call.  ``scan`` is the scenario's :func:`_scan_topology`, if at hand.
    """
    from ..campaigns.canonical import canonical_key

    keys, origin_labels, _edges = scan or _scan_topology(scenario)
    return (repr(canonical_key(scenario.algebra)),
            tuple(sorted(repr(k) for k in keys)),
            tuple(sorted(repr(l) for l in origin_labels)),
            _closure_depth(scenario))


def _kernel_for(scenario: "Scenario", scan: tuple) -> _Kernel:
    """The scenario's kernel — process cache, kernel store, tabulation:
    the whole lookup, run once per scanned scenario by admission.  A
    refused vocabulary raises :class:`_Unbatchable` (the cache keeps the
    reason; a negative store row reads ``stored-negative``)."""
    keys, origin_labels, _edges = scan
    key = kernel_key_of(scenario, scan)
    depth = key[3]
    kernel = _KERNEL_CACHE.get(key)
    if kernel is not None:
        _KERNEL_EVENTS["cache_hits"].inc()
    else:
        _KERNEL_EVENTS["cache_misses"].inc()
        if len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
            _KERNEL_CACHE.clear()
        store = _STORE
        if store is not None:
            found = False
            with store.best_effort():  # unreadable store: a counted miss
                found, payload = store.get(repr(key))
            if found:
                try:
                    kernel = _decode_kernel(payload)
                    _KERNEL_EVENTS["store_hits"].inc()
                except (pickle.UnpicklingError, KeyError, ValueError,
                        EOFError):  # stale/corrupt row: rebuild, replace
                    pass
            if kernel is None:
                _KERNEL_EVENTS["store_misses"].inc()
        if kernel is None:
            started = time.perf_counter()
            try:
                kernel = _build_kernel(scenario.algebra, keys,
                                       origin_labels, depth)
            except _Unbatchable as refusal:
                kernel = str(refusal)
            _KERNEL_EVENTS["tabulations"].inc()
            _TABULATION_SECONDS.inc(time.perf_counter() - started)
            if store is not None:
                with store.best_effort():
                    store.put(repr(key), _encode_kernel(kernel), replace=found)
        _KERNEL_CACHE[key] = kernel
    if isinstance(kernel, str):
        raise _Unbatchable(kernel)
    return kernel


def clear_kernel_cache() -> None:
    """Drop tabulated kernels (benches isolating tabulation cost)."""
    _KERNEL_CACHE.clear()


def _scan_topology(scenario: "Scenario") -> tuple[set, set, list]:
    """One pass over the starting topology: the transfer vocabulary the
    run can ever observe — every directed link traversal, plus the labels
    perturbation events may swap in (perturbations relabel both
    directions identically) — and the directed ``(u, v, key)`` edge list
    the relaxation compiles.

    A traversal ``u → v`` has the sender export over ``label(u, v)`` and
    the receiver import over ``label(v, u)``: its key is that
    ``(export, import)`` pair for an :class:`ExtendedAlgebra` and the
    import label alone otherwise.
    """
    paired = isinstance(scenario.algebra, ExtendedAlgebra)
    keys: set = set()
    origin_labels: set = set()
    edges: list = []
    add_key = keys.add
    add_origin = origin_labels.add
    add_edge = edges.append
    for link in scenario.network.links():
        a, b = link.a, link.b
        get_label = link.labels.get
        ab = get_label((a, b))
        ba = get_label((b, a))
        key = (ab, ba) if paired else ba
        add_key(key)
        add_origin(ba)
        add_edge((a, b, key))
        key = (ba, ab) if paired else ab
        add_key(key)
        add_origin(ab)
        add_edge((b, a, key))
    for event in getattr(scenario, "events", ()):
        if event.kind == "perturb" and event.label is not None:
            keys.add((event.label, event.label) if paired else event.label)
            origin_labels.add(event.label)
        elif event.kind == "hijack" and event.label is not None:
            # Forged origination: the attacker's pseudo-label enters the
            # origin vocabulary (its forged signature seeds the closure)
            # but adds no transfer key — the hijacked route propagates
            # over the ordinary link vocabulary.
            origin_labels.add(event.label)
    return keys, origin_labels, edges


_FAILED = object()


def _fold_events(scenario: "Scenario", edges: list) -> tuple[list, list]:
    """Fold the scenario's event schedule into its compiled form.

    Returns the final topology's ``(u, v, key)`` edge list — failed
    links dropped, perturbed links under their final-label key — and the
    active forged originations as ``(attacker, dest, label)``.  The
    scenario is only read: the same object goes on to a scalar session.

    The unique stable state is history-independent, so *when* an event
    fires is irrelevant — only whether it fires within the run budget
    and, per link, the order: nothing happens to a failed link.
    """
    until = getattr(scenario.spec, "until", None)
    paired = isinstance(scenario.algebra, ExtendedAlgebra)
    final: dict = {}  # directed (u, v) -> _FAILED | the perturbed label
    hijacks = []
    for event in sorted(scenario.events, key=lambda e: e.time):
        if until is not None and event.time > until:
            continue
        if event.kind == "hijack":
            if event.label is not None:
                hijacks.append((event.a, event.b, event.label))
        elif event.kind in ("fail", "perturb") \
                and final.get((event.a, event.b)) is not _FAILED:
            final[event.a, event.b] = final[event.b, event.a] = \
                _FAILED if event.kind == "fail" else event.label
    if not final:
        return edges, hijacks
    folded = []
    for u, v, key in edges:
        if (u, v) in final:
            label = final[u, v]
            if label is _FAILED:
                continue
            key = (label, label) if paired else label
        folded.append((u, v, key))
    return folded, hijacks


class _Problem:
    """One scenario compiled to integer arrays (all destinations)."""

    __slots__ = ("scenario", "kernel", "nodes", "node_index", "dests",
                 "edge_src", "edge_dst", "edge_lab", "state", "origins",
                 "parents")

    def __init__(self, scenario: "Scenario", kernel: _Kernel, edges: list,
                 hijacks: list):
        self.scenario = scenario
        self.kernel = kernel
        self.nodes = sorted(scenario.network.nodes())
        self.node_index = {node: i for i, node in enumerate(self.nodes)}
        self.dests = list(scenario.destinations)
        # ``edges`` is the final topology's (u, v, key) list from
        # _fold_events: v learns from u; the key already encodes u's
        # export over L(u, v) and v's import over L(v, u) — the engines'
        # send/receive convention.
        node_index = self.node_index
        key_id = kernel.key_id
        self.edge_src = _np.asarray(
            [node_index[u] for u, _v, _k in edges], dtype=_np.int64)
        self.edge_dst = _np.asarray(
            [node_index[v] for _u, v, _k in edges], dtype=_np.int64)
        self.edge_lab = _np.asarray(
            [key_id[k] for _u, _v, k in edges], dtype=_np.int64)
        #: dest -> [(node index, ordinal id)] injected by origination,
        #: φ dropped: a neighbor originates over the import label of its
        #: edge out of the destination; a forged origination is an extra
        #: seed at the attacker — no link behind it, competing with
        #: anything the attacker learns legitimately, exactly the scalar
        #: engines' inject_route.
        paired = isinstance(scenario.algebra, ExtendedAlgebra)
        origins: dict = {dest: [] for dest in self.dests}
        seeds = [(u, v, key[1] if paired else key)
                 for u, v, key in edges if u in origins]
        seeds += [(target, attacker, label)
                  for attacker, target, label in hijacks if target in origins]
        origin_id = kernel.origin_id
        for dest, node, label in seeds:
            if origin_id[label] != kernel.phi_id:
                origins[dest].append((node_index[node], origin_id[label]))
        self.origins = origins
        #: Filled by the relaxation: (dest, node) -> ordinal id, plus the
        #: per-(dest, node) witness parent index (see _scatter_state).
        self.state = None
        self.parents = None

    # -- outcome rendering ------------------------------------------------------

    def outcome(self) -> ExecutionOutcome:
        routes: dict = {}
        kernel = self.kernel
        phi = kernel.phi_id
        ksigs = kernel.sigs
        nodes = self.nodes
        n = len(nodes)
        for di, dest in enumerate(self.dests):
            row = self.state[di]
            ids = row.tolist()
            parent = self.parents[di].tolist()
            dest_idx = self.node_index[dest]
            # Origination overlay: it wins over any witness neighbor
            # when it explains the node's id (parent = destination).
            for node_idx, oid in self.origins[dest]:
                if ids[node_idx] == oid:
                    parent[node_idx] = dest_idx
            # One ascending-rank pass builds every path tuple: a witness
            # next hop's id is strictly smaller than its downstream
            # node's (strict monotonicity), so each node's parent path is
            # complete before the node itself is visited.
            paths: list = [None] * n
            paths[dest_idx] = (dest,)
            for sid, i in sorted(zip(ids, range(n))):
                if i == dest_idx:
                    continue
                node = nodes[i]
                if sid == phi:
                    routes[(node, dest)] = None
                    continue
                pi = parent[i]
                base = paths[pi] if pi >= 0 else None
                if base is None:
                    # Unreachable with a verified kernel.
                    raise RuntimeError(
                        f"no witness next hop for {node}->{dest} at rank "
                        f"{sid}")
                paths[i] = path = (node,) + base
                routes[(node, dest)] = (ksigs[sid], path)
        return ExecutionOutcome(
            backend=BatchBackend.name,
            converged=True,
            stop_reason=StopReason.QUIESCENT,
            routes=routes,
        )


class VectorizedBatchSession:
    """All admitted scenarios of one batch relaxed simultaneously.

    Built by ``BatchBackend.prepare_batch`` over what ``supports``
    returned; :meth:`run` returns one outcome per problem,
    index-aligned.  Admission compiled everything scenario-specific and
    only *read* the scenario, so the caller can hand the same object to
    a scalar session afterwards.  Problems may mix algebras/families:
    each kernel's group is one flat struct-of-arrays relaxation, in
    whatever order they arrive.
    """

    def __init__(self, problems: Iterable["_Problem"]):
        self.problems = list(problems)

    def run(self) -> "list[ExecutionOutcome | None]":
        """Relax every problem; ``outcomes[i]`` belongs to ``problems[i]``.

        A kernel group that declines at run time (:class:`BatchDeclined`)
        yields ``None`` for its members, so one hazard-tied scenario
        cannot take the rest of the chunk off the fast path.  Any other
        exception propagates: it is a bug, not a decline.
        """
        groups: dict[int, list[_Problem]] = {}
        for problem in self.problems:
            groups.setdefault(id(problem.kernel), []).append(problem)
        declined: set[int] = set()
        # The run allocates bursts of short-lived tuples (route paths,
        # per-cell witnesses); the cyclic GC passes that churn triggers
        # cost ~25% of the wall time and collect nothing (no reference
        # cycles are created), so collection pauses for the duration.
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            tick = time.perf_counter()
            for gid, group in groups.items():
                try:
                    _relax_group(group)
                except BatchDeclined as decline:
                    _KERNEL_EVENTS["runtime_declines"].inc()
                    for problem in group:
                        _count_admission(problem.scenario, "declined",
                                         str(decline))
                    declined.add(gid)
            tock = time.perf_counter()
            _PHASE_SECONDS["relax"].inc(tock - tick)
            outcomes = [
                None if id(problem.kernel) in declined else problem.outcome()
                for problem in self.problems]
            _PHASE_SECONDS["render"].inc(time.perf_counter() - tock)
            return outcomes
        finally:
            if paused:
                gc.enable()


def _assemble_group(group: list["_Problem"]):
    """Stack one kernel's scenarios into flat struct-of-arrays form.

    Returns ``(seeds, src, dst, lab, blocks)`` where the arrays span
    every (scenario, destination, node) cell of the group and ``blocks``
    records each destination copy's flat offset for the scatter-back.
    """
    kernel = group[0].kernel
    phi = kernel.phi_id
    src_parts, dst_parts, lab_parts = [], [], []
    orig_pos, orig_val = [], []
    blocks = []  # (problem, dest index, flat offset)
    offset = 0
    for problem in group:
        width = len(problem.nodes)
        for di, dest in enumerate(problem.dests):
            blocks.append((problem, di, offset))
            dest_idx = problem.node_index[dest]
            # The destination neither originates from others nor transits
            # its own routes: drop every edge touching it in this copy.
            keep = (problem.edge_src != dest_idx) \
                & (problem.edge_dst != dest_idx)
            src_parts.append(problem.edge_src[keep] + offset)
            dst_parts.append(problem.edge_dst[keep] + offset)
            lab_parts.append(problem.edge_lab[keep])
            for node_idx, oid in problem.origins[dest]:
                orig_pos.append(offset + node_idx)
                orig_val.append(oid)
            offset += width
    seeds = _np.full(offset, phi, dtype=_np.int32)
    if orig_pos:
        _np.minimum.at(seeds, _np.asarray(orig_pos, dtype=_np.int64),
                       _np.asarray(orig_val, dtype=_np.int32))
    if src_parts:
        src = _np.concatenate(src_parts)
        dst = _np.concatenate(dst_parts)
        lab = _np.concatenate(lab_parts)
    else:
        src = dst = lab = _np.empty(0, dtype=_np.int64)
    return seeds, src, dst, lab, blocks


def _scatter_state(blocks: list, state, src, dst, lab, kernel) -> None:
    """Scatter the flat fixpoint back per problem, with witness parents.

    The witness test — which neighbor's current route explains each
    node's id — runs once, vectorized over the *whole group's* edge
    arrays (they already exclude destination-touching edges per copy),
    instead of once per (problem, destination) in the rendering loop.
    ``parents[di][i]`` is the local index of node ``i``'s next hop, or
    ``-1`` (no witness: φ nodes, and origination-explained nodes the
    rendering pass overlays).  Tie-break: smallest ``(id, src index)``;
    global src order within one copy equals local (hence name) order, so
    it matches the old per-edge scan exactly.
    """
    ncells = state.size
    top = _np.iinfo(_np.int64).max
    best = _np.full(ncells, top, dtype=_np.int64)
    if src.size:
        witness = _np.flatnonzero(
            (state[dst] != kernel.phi_id)
            & (kernel.trans[lab, state[src]] == state[dst]))
        if witness.size:
            wsrc = src[witness]
            _np.minimum.at(best, dst[witness],
                           state[wsrc].astype(_np.int64) * ncells + wsrc)
    parent = _np.where(best == top, _np.int64(-1), best % ncells)
    for problem, di, off in blocks:
        width = len(problem.nodes)
        if problem.state is None:
            problem.state = _np.empty((len(problem.dests), width),
                                      dtype=_np.int32)
            problem.parents = _np.empty((len(problem.dests), width),
                                        dtype=_np.int64)
        problem.state[di] = state[off:off + width]
        block = parent[off:off + width]
        problem.parents[di] = _np.where(block < 0, block, block - off)


def _relax_jacobi(kernel: "_Kernel", seeds, src, dst, lab):
    """Synchronous Jacobi iteration over the whole edge list.

    Every node simultaneously re-selects the best of its neighbors'
    *current* routes each round, recomputed from the seeds.  A transient
    that reads a hole entry has no answer in the tables and raises
    :class:`BatchDeclined` (``horizon``).

    Hazard kernels (``tie_class`` set) additionally verify, every round
    including the settling one, that no preference tie between
    behaviorally distinct signatures competes at any node — the only
    situation where the batch fixpoint could diverge from the scalar
    engines' arrival-order tie-break.  Ambiguity raises :class:`BatchDeclined`
    (conservative: transient ties decline too; never a wrong answer).
    """
    trans = kernel.trans
    hole = kernel.hole_id
    tie = kernel.tie_class
    pc = kernel.pref_class
    state = seeds
    for round_ in range(
            _JACOBI_ROUND_SLACK * (kernel.phi_id + 2) + MAX_NODES):
        vals = trans[lab, state[src]]
        if bool((vals == hole).any()):
            raise BatchDeclined("horizon")
        fresh = seeds.copy()
        _np.minimum.at(fresh, dst, vals)
        if tie is not None:
            # A losing offer preference-tied with the winner but in a
            # different tie class means the scalar engines could have
            # kept the other route — the batch answer is not unique up
            # to preference-equality and must not be trusted.
            fresh_d = fresh[dst]
            ambiguous = (pc[vals] == pc[fresh_d]) \
                & (tie[vals] != tie[fresh_d])
            seed_amb = (pc[seeds] == pc[fresh]) & (tie[seeds] != tie[fresh])
            if bool(ambiguous.any()) or bool(seed_amb.any()):
                raise BatchDeclined("hazard-tie")
        if _np.array_equal(fresh, state):
            _note_rounds(round_ + 1)
            return fresh
        state = fresh
    raise BatchDeclined("round-budget")


def _relax_group(group: list["_Problem"]) -> None:
    """Relax one kernel's scenarios over flat struct-of-arrays state:
    assemble, one whole-edge-list Jacobi iteration of the fused group
    (:func:`_relax_jacobi`), scatter.  A decline (:class:`BatchDeclined`)
    propagates to :meth:`VectorizedBatchSession.run`.
    """
    kernel = group[0].kernel
    seeds, src, dst, lab, blocks = _assemble_group(group)
    _PHASE_EVENTS["state_cells"].inc(int(seeds.size))
    state = _relax_jacobi(kernel, seeds, src, dst, lab)
    _scatter_state(blocks, state, src, dst, lab, kernel)


def _admit(scenario: "Scenario") -> "_Problem":
    """Admission proper: the compiled problem, or :class:`_Unbatchable`."""
    if _np is None:
        raise _Unbatchable("no-numpy")
    if getattr(scenario, "top_k", 1) != 1:
        raise _Unbatchable("multipath")
    if getattr(scenario, "analysis_subject", "missing") is None:
        raise _Unbatchable("post-run-extraction")
    if isinstance(scenario.algebra, (SPPAlgebra, HLPCostAlgebra)):
        raise _Unbatchable("path-valued-algebra")
    if scenario.network.node_count() > MAX_NODES:
        raise _Unbatchable("node-budget")
    tick = time.perf_counter()
    scan = _scan_topology(scenario)
    tock = time.perf_counter()
    _PHASE_SECONDS["scan"].inc(tock - tick)
    if None in scan[1]:  # a link the algebra has no label for
        raise _Unbatchable("unlabelled-link")
    kernel = _kernel_for(scenario, scan)
    tick = time.perf_counter()
    _PHASE_SECONDS["tabulate"].inc(tick - tock)  # admitted lookups only
    problem = _Problem(scenario, kernel, *_fold_events(scenario, scan[2]))
    _PHASE_SECONDS["scan"].inc(time.perf_counter() - tick)
    return problem


class BatchBackend:
    """The vectorized fixpoint backend (``batch``): ``supports`` →
    ``prepare_batch`` → ``run``; there is no scalar ``prepare``."""

    name = "batch"

    def supports(self, scenario: "Scenario") -> "_Problem | None":
        """Admit the scenario: its compiled problem (truthy), or ``None``.

        Admitted = the fixpoint shortcut provably equals the engines.
        Refusals, each counted under its reason: numpy missing
        (``no-numpy``); k-best selection (``multipath``); an analysis
        subject only a scalar primary's route log can produce — the kernel
        has no advertisement stream (``post-run-extraction``); a
        path-valued algebra — SPP gadgets, the HLP domain-path cost
        (``path-valued-algebra``); too many nodes (``node-budget``); a
        label the algebra is undefined on (``unlabelled-link``); a
        signature closure over the scenario's transfer vocabulary that
        outgrows its budget (``closure-budget``) or is not **verified
        strictly monotonic** — plain Gao-Rexford draws ties
        (``not-strictly-monotonic``, ``rank-tie``); a negative kernel-store
        row, which says no more (``stored-negative``).

        An admitted kernel may still decline at run time
        (:class:`BatchDeclined`).  An exception that is not a typed
        refusal propagates — the oracle makes it that spec's ``ERROR``.
        """
        try:
            problem = _admit(scenario)
        except _Unbatchable as refusal:
            _count_admission(scenario, "refused", str(refusal))
            return None
        _count_admission(scenario, "admitted")
        return problem

    def prepare_batch(self, problems: Iterable["_Problem"]
                      ) -> VectorizedBatchSession:
        """A session over the problems :meth:`supports` returned."""
        return VectorizedBatchSession(problems)
