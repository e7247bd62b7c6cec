"""Slot-by-slot inspection of One-fail Adaptive on a tiny network.

The narrative of Section 3 is easiest to follow on a concrete execution: this
example runs Algorithm 1 with k = 8 stations on the exact node-level engine
(``engine="slot"``), records a full execution trace, and prints

* the per-slot outcomes (silence / success / collision),
* the slot in which each station delivered its message, and
* the evolution of the density estimator κ̃ and of the received counter σ as
  seen by one surviving station.

It also shows the value that collision detection would add, by running the
binary-splitting tree baseline on the same instance size with a
collision-detection channel.

Run with::

    python examples/inspect_protocol_trace.py [k]
"""

from __future__ import annotations

import sys

from repro import ChannelModel, ExecutionTrace, FeedbackModel, OneFailAdaptive, simulate
from repro.protocols.splitting import BinarySplitting


def trace_one_fail_adaptive(k: int) -> None:
    trace = ExecutionTrace()
    result = simulate(OneFailAdaptive(), k, seed=7, engine="slot", trace=trace)

    print(f"One-fail Adaptive, k = {k}: solved in {result.makespan} slots")
    print()
    print(trace.format(limit=40))
    print()
    print("Trace summary:", trace.summary())
    print()
    print("Delivery slot of each station:")
    deliveries = {
        record.delivered_node: record.slot
        for record in trace
        if record.delivered_node is not None
    }
    for station, slot in sorted(deliveries.items()):
        print(f"  station {station}: delivered at slot {slot}")
    print()

    # Replay the estimator evolution as one station would compute it.
    protocol = OneFailAdaptive()
    protocol.reset()
    print("Density estimator as seen by a station that never delivers:")
    print("  slot  rule  p(transmit)  kappa~   sigma")
    from repro.channel.model import Observation  # local import to keep the header light

    for record in trace.records[:20]:
        rule = "BT" if OneFailAdaptive.is_bt_step(record.slot) else "AT"
        probability = protocol.transmission_probability(record.slot)
        print(
            f"  {record.slot:>4}  {rule}   {probability:>10.3f}  "
            f"{protocol.density_estimate:>6.2f}  {protocol.messages_received:>5}"
        )
        protocol.notify(
            Observation(
                slot=record.slot,
                transmitted=False,
                received=record.outcome.value == "success",
                delivered=False,
            )
        )


def trace_binary_splitting(k: int) -> None:
    channel = ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION)
    result = simulate(BinarySplitting(), k, seed=7, channel=channel)
    print(
        f"Binary splitting with collision detection, k = {k}: solved in "
        f"{result.makespan} slots ({result.makespan / k:.2f} steps/node)"
    )


def main() -> int:
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    trace_one_fail_adaptive(k)
    print()
    trace_binary_splitting(k)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
