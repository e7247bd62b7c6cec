"""Execution traces of channel simulations.

Traces serve two purposes in this repository:

* **debugging and testing** — the engine conformance tests check every
  engine's per-slot active counts, and several unit tests assert properties
  of the trace (e.g. that exactly k slots are successes);
* **inspection** — the examples print small traces so a reader can follow
  what a protocol does slot by slot, mirroring the narrative descriptions in
  Sections 3 and 4 of the paper.

Recording a full trace of a multi-million-slot run would dwarf the cost of the
simulation itself, so tracing is opt-in: engines only populate a trace when the
caller passes one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.model import SlotOutcome

__all__ = ["SlotRecord", "ExecutionTrace"]


@dataclass(frozen=True)
class SlotRecord:
    """What happened in one slot of one run.

    Attributes
    ----------
    slot:
        Global slot index (0-based).
    transmitters:
        Number of stations that transmitted in the slot.
    outcome:
        The resulting :class:`SlotOutcome`.
    active_before:
        Number of active stations at the beginning of the slot.
    delivered_node:
        Index, in creation order, of the delivering station for successful
        slots of the slot engine, the one engine that runs stations;
        ``None`` otherwise.
    """

    slot: int
    transmitters: int
    outcome: SlotOutcome
    active_before: int
    delivered_node: int | None = None


@dataclass
class ExecutionTrace:
    """Ordered collection of :class:`SlotRecord` with convenience accessors."""

    records: list[SlotRecord] = field(default_factory=list)
    max_records: int | None = None

    def append(self, record: SlotRecord) -> None:
        """Append a record, silently dropping it once ``max_records`` is reached."""
        if self.max_records is not None and len(self.records) >= self.max_records:
            return
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> SlotRecord:
        return self.records[index]

    # ------------------------------------------------------------ aggregates
    def count(self, outcome: SlotOutcome) -> int:
        """Number of recorded slots with the given outcome."""
        return sum(1 for record in self.records if record.outcome is outcome)

    @property
    def successes(self) -> int:
        return self.count(SlotOutcome.SUCCESS)

    @property
    def collisions(self) -> int:
        return self.count(SlotOutcome.COLLISION)

    @property
    def silences(self) -> int:
        return self.count(SlotOutcome.SILENCE)

    def success_slots(self) -> list[int]:
        """Slot indices of all recorded successful transmissions."""
        return [record.slot for record in self.records if record.outcome is SlotOutcome.SUCCESS]

    def utilisation(self) -> float:
        """Fraction of recorded slots that delivered a message."""
        if not self.records:
            return 0.0
        return self.successes / len(self.records)

    def summary(self) -> dict[str, object]:
        """Return aggregate counts as a JSON-friendly dictionary."""
        return {
            "slots": len(self.records),
            "successes": self.successes,
            "collisions": self.collisions,
            "silences": self.silences,
            "utilisation": self.utilisation(),
        }

    def format(self, limit: int = 50) -> str:
        """Render the first ``limit`` records as an aligned text block."""
        lines = ["slot  active  transmitters  outcome"]
        for record in self.records[:limit]:
            lines.append(
                f"{record.slot:>4}  {record.active_before:>6}  "
                f"{record.transmitters:>12}  {record.outcome.value}"
            )
        if len(self.records) > limit:
            lines.append(f"... ({len(self.records) - limit} more slots)")
        return "\n".join(lines)
