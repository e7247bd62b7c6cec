"""Common result type returned by every simulation engine."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated run of static (or dynamic) k-selection.

    Attributes
    ----------
    solved:
        Whether all ``k`` messages were delivered before the slot cap.
    makespan:
        Number of slots until the last delivery, inclusive (the paper's
        "number of steps"); ``None`` for unsolved runs.
    k:
        Number of messages injected.
    slots_simulated:
        Slots actually processed by the engine.  For solved runs every engine
        stops at the slot of the final delivery, so this equals ``makespan``;
        for unsolved runs it is the slot cap that was hit.
    successes, collisions, silences:
        Slot-outcome counts over the simulated slots.
    protocol:
        Name of the protocol that produced the run.
    engine:
        Name of the engine that produced the run.
    seed:
        Root seed of the run.
    metadata:
        Engine- or experiment-specific extras (kept JSON-friendly).
    """

    solved: bool
    makespan: int | None
    k: int
    slots_simulated: int
    successes: int
    collisions: int
    silences: int
    protocol: str
    engine: str
    seed: int
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.solved:
            if self.makespan is None:
                raise ValueError("solved runs must report a makespan")
            if self.makespan < self.k:
                raise ValueError(
                    f"makespan {self.makespan} is smaller than k={self.k}: "
                    "at most one message can be delivered per slot"
                )
            if self.successes != self.k:
                raise ValueError(
                    f"solved runs must have exactly k successes, got {self.successes} != {self.k}"
                )
        elif self.makespan is not None:
            raise ValueError("unsolved runs must not report a makespan")

    @property
    def steps_per_node(self) -> float:
        """The steps/k ratio reported in Table 1 of the paper."""
        if not self.solved or self.makespan is None:
            raise ValueError("steps_per_node is only defined for solved runs")
        return self.makespan / self.k

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation used by the CSV/JSON exporters."""
        return {
            "solved": self.solved,
            "makespan": self.makespan,
            "k": self.k,
            "slots_simulated": self.slots_simulated,
            "successes": self.successes,
            "collisions": self.collisions,
            "silences": self.silences,
            "protocol": self.protocol,
            "engine": self.engine,
            "seed": self.seed,
            **{f"meta_{key}": value for key, value in self.metadata.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "SimulationResult":
        """Rebuild a result from its :meth:`to_dict` form (JSONL result stores).

        Metadata values that were tuples before serialisation come back as
        lists — JSON has no tuple — which every consumer in this repository
        accepts interchangeably.
        """
        metadata = {
            key[len("meta_"):]: value for key, value in data.items() if key.startswith("meta_")
        }
        return cls(
            solved=bool(data["solved"]),
            makespan=data["makespan"] if data["makespan"] is None else int(data["makespan"]),  # type: ignore[arg-type]
            k=int(data["k"]),  # type: ignore[call-overload]
            slots_simulated=int(data["slots_simulated"]),  # type: ignore[call-overload]
            successes=int(data["successes"]),  # type: ignore[call-overload]
            collisions=int(data["collisions"]),  # type: ignore[call-overload]
            silences=int(data["silences"]),  # type: ignore[call-overload]
            protocol=str(data["protocol"]),
            engine=str(data["engine"]),
            seed=int(data["seed"]),  # type: ignore[call-overload]
            metadata=metadata,
        )
