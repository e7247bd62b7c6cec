"""Quickstart: solve static k-selection with the paper's two protocols.

This example shows the minimal use of the library's declarative front door:

1. describe the run as a :class:`repro.Scenario` — one flat spec string
   naming the protocol, the network size and the seed (no knowledge of k is
   given to the protocol itself — that is the point of the paper's title);
2. execute it with :class:`repro.Session` (``Session(store_dir=...)`` would
   additionally persist the replications and serve them on re-run);
3. read the makespan and compare it with what the paper's analysis predicts.

Run with::

    python examples/quickstart.py [k]
"""

from __future__ import annotations

import sys

from repro import Scenario, Session, paper_analysis


def main() -> int:
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    seed = 2011
    session = Session()

    print(f"Static k-selection on a single-hop radio network, k = {k} contenders")
    print("(channel without collision detection; batched arrivals; no knowledge of k)")
    print()

    # --- One-fail Adaptive (Algorithm 1) ------------------------------------
    scenario = Scenario.parse(f"one-fail-adaptive k={k} seed={seed}")
    result = session.run(scenario).results[0]
    delta = scenario.build_protocol().delta  # 2.72, the paper's choice
    bound = paper_analysis.ofa_makespan_bound(k, delta=delta)
    print("One-fail Adaptive")
    print(f"  scenario          : {scenario}")
    print(f"  makespan          : {result.makespan} slots")
    print(f"  steps per node    : {result.steps_per_node:.2f}")
    print(f"  Theorem 1 bound   : 2(delta+1)k + O(log^2 k) ~= {bound:.0f} slots (w.h.p.)")
    print(f"  analysis constant : {paper_analysis.ofa_leading_constant(delta):.2f} steps/node")
    print()

    # --- Exp Back-on/Back-off (Algorithm 2) ---------------------------------
    scenario = Scenario.parse(f"exp-backon-backoff k={k} seed={seed}")
    result = session.run(scenario).results[0]
    delta = scenario.build_protocol().delta  # 0.366, the paper's choice
    bound = paper_analysis.ebb_makespan_bound(k, delta=delta)
    print("Exp Back-on/Back-off")
    print(f"  scenario          : {scenario}")
    print(f"  makespan          : {result.makespan} slots")
    print(f"  steps per node    : {result.steps_per_node:.2f}")
    print(f"  Theorem 2 bound   : 4(1 + 1/delta)k = {bound:.0f} slots (w.h.p.)")
    print(f"  analysis constant : {paper_analysis.ebb_leading_constant(delta):.2f} steps/node")
    print()

    print(
        "For reference, no protocol in which all stations use the same probability\n"
        f"per slot can beat {paper_analysis.fair_protocol_optimal_ratio():.3f} steps/node "
        "(Section 5 of the paper)."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
