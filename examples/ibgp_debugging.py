#!/usr/bin/env python3
"""Operator workflow: pinpoint an iBGP configuration error (paper Sec. VI-B).

A network operator suspects their route-reflection configuration can
oscillate.  FSR's workflow, reproduced end to end on a Rocketfuel-like
topology (scaled down for a quick run; pass --paper-scale for the full
87-router / 53-reflector configuration):

1. build the router graph, session hierarchy and hot-potato policy;
2. run the implementation (the ``BACKEND`` session), logging received
   routes;
3. extract the concrete SPP instance from the run;
4. solve — unsat, with a minimal core that names exactly the routers
   whose IGP costs form a preference cycle;
5. fix those routers' preferences and re-verify — sat, and the rerun
   converges with a fraction of the traffic.

Run:  python examples/ibgp_debugging.py [--paper-scale]
"""

import sys

from repro.analysis import SafetyAnalyzer
from repro.campaigns.scenarios import Scenario
from repro.exec import get_backend
from repro.experiments import extract_spp
from repro.topology import (
    EXT_DEST,
    IGPCostAlgebra,
    make_ibgp_config,
    rocketfuel_like,
)

#: The execution backend that runs each configuration (``gpv`` or ``ndlog``).
BACKEND = "gpv"


def run_and_analyze(config, label: str):
    print(f"\n--- {label} ---")
    scenario = Scenario(spec=None, network=config.session_net,
                        algebra=IGPCostAlgebra(config),
                        destinations=[EXT_DEST], analysis_subject=None)
    session = get_backend(BACKEND).prepare(scenario, seed=1)
    session.sim.stats.route_log = []  # keep the RIB-in log extraction reads
    outcome = session.run(until=2.0, max_events=2_000_000)
    stats = session.sim.stats
    print(f"execution: {outcome.stop_reason}; {stats.messages_sent} "
          f"messages, {stats.bytes_sent_total / 1e6:.3f} MB")

    spp = extract_spp(
        session, EXT_DEST,
        rank_key=lambda node, sig, path: (config.cost(node, sig[1]),
                                          len(path), path))
    report = SafetyAnalyzer().analyze(spp)
    print(f"extracted SPP: {len(spp.all_paths())} permitted paths")
    print(f"verdict: {'sat (provably safe)' if report.safe else 'unsat'}")
    if not report.safe:
        print(f"minimal unsat core ({len(report.core)} constraints):")
        for source in report.core:
            print(f"  {source.origin}: {source}")
        routers = sorted({
            source.origin.split("[", 1)[1].rstrip("]")
            for source in report.core if "[" in (source.origin or "")})
        print(f"=> suspect routers: {routers}")
        return routers
    return []


def main() -> None:
    paper_scale = "--paper-scale" in sys.argv
    if paper_scale:
        router_net = rocketfuel_like(seed=0)  # 87 routers, 322 links
        kwargs = {}
    else:
        router_net = rocketfuel_like(30, 60, seed=11)
        kwargs = {"levels": 3, "reflector_count": 12, "egress_count": 4}
    print(f"router topology: {router_net}")

    broken = make_ibgp_config(router_net, seed=11, embed_gadget=True,
                              **kwargs)
    print(f"session hierarchy: {broken.session_net.link_count()} sessions, "
          f"{len(broken.reflectors)} reflectors, "
          f"egresses {broken.egresses}")
    print(f"(fault injected at {broken.gadget_members} — the operator "
          "does not know this)")

    suspects = run_and_analyze(broken, "current configuration")
    actual = set(broken.gadget_members)
    print(f"\ninjected gadget members: {sorted(actual)}")
    print(f"core pinned the fault: {set(suspects) <= actual and bool(suspects)}")

    fixed = make_ibgp_config(router_net, seed=11, embed_gadget=False,
                             **kwargs)
    run_and_analyze(fixed, "after fixing the suspect routers")


if __name__ == "__main__":
    main()
