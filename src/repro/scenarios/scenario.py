"""The declarative :class:`Scenario`: one serializable description per run cell.

The paper's evaluation — and every workload this repository serves — is a grid
of *cells*: (protocol, network size, arrival process, channel, engine,
replications, seeds).  A :class:`Scenario` captures one cell as a frozen,
hashable value object built from flat spec strings, so that

* every run is describable as a single string, dict, JSON or TOML document
  (``parse``/``format``/``to_dict``/``from_file`` round-trip exactly);
* equal scenarios hash equally (:meth:`Scenario.content_hash`), which is what
  lets :class:`~repro.scenarios.session.Session` cache, resume and deduplicate
  work across processes and process restarts; and
* the serial, parallel and batch execution paths are selected *from the
  scenario*, not by the caller picking an entry point.

The compact string form puts the protocol spec first and everything else as
``key=value`` tokens::

    one-fail-adaptive(delta=2.72) k=1000 reps=10 seed=7 arrivals=poisson(rate=0.1)

Identity and hashing
--------------------
:meth:`content_hash` covers every field *except* ``replications``: the
replication seeds are a prefix-stable stream (replication ``i`` gets the same
seed no matter how many replications the scenario asks for), so raising the
replication count extends a cell rather than renaming it.  Every
replication draws its own stream from its own seed, so a result
store reuses the first ``R`` outcomes when asked for ``R' > R`` and
simulates only the ``R' − R`` missing ones, and every served result set is
bit-identical to a fresh run of the same scenario.  Stored runs are reused
only under the (seed, engine, stream version) that produced them, so a
change to an engine's stream re-simulates a cell once instead of mixing
streams.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.channel.arrivals import ArrivalProcess
from repro.channel.model import ChannelModel
from repro.engine.dispatch import available_engines, pick_engine_name
from repro.protocols.base import Protocol
from repro.scenarios.spec import (
    SpecError,
    build_arrivals,
    build_channel,
    build_protocol,
    canonical_spec,
    parse_value,
    split_top_level,
)
from repro.util.rng import derive_seeds
from repro.util.validation import DEFAULT_MAX_SLOTS_FACTOR, check_max_slots

__all__ = ["Scenario"]

#: Compact-string keys, in canonical output order.  ``reps`` is accepted as a
#: shorthand for ``replications`` on input.
_STRING_KEYS = (
    "k",
    "reps",
    "seed",
    "arrivals",
    "channel",
    "engine",
    "max_slots_factor",
)
_KEY_ALIASES = {"reps": "replications", "replications": "replications"}


@dataclass(frozen=True)
class Scenario:
    """One fully-described simulation cell (see module docstring).

    Attributes
    ----------
    protocol:
        Protocol spec string, e.g. ``"log-fails-adaptive(xi_t=0.1)"``.
        Protocols requiring knowledge of the network derive it from ``k``
        at build time (:func:`repro.scenarios.spec.build_protocol`).
    k:
        Number of messages (network size).
    arrivals:
        Arrival spec string; ``"batch"`` is the paper's static k-selection.
    channel:
        Channel spec string; ``"default"`` is the paper's no-CD channel.
    engine:
        Engine selector (one of :func:`repro.engine.dispatch.available_engines`).
    replications:
        Number of independently seeded runs of the cell.
    seed:
        Non-negative root seed; the per-replication seeds derive from it
        (:meth:`seeds`).
    max_slots_factor:
        Per-run safety cap, expressed as a multiple of ``k``.
    """

    protocol: str
    k: int
    arrivals: str = "batch"
    channel: str = "default"
    engine: str = "auto"
    replications: int = 1
    seed: int = 0
    max_slots_factor: int = DEFAULT_MAX_SLOTS_FACTOR

    def __post_init__(self) -> None:
        # Checked here, not by the engines mid-job: a float from a spec
        # string or a JSON document is a bad scenario (HTTP 400).
        for name in ("k", "replications", "seed", "max_slots_factor"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.replications < 1:
            raise ValueError(f"replications must be positive, got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_slots_factor < 2:
            raise ValueError(f"max_slots_factor must be at least 2, got {self.max_slots_factor}")
        check_max_slots(self.max_slots())
        if self.engine not in available_engines():
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {available_engines()}"
            )
        # Decided now, so an unknown name, a bad parameter or an engine the
        # rule refuses fails at construction, not mid-job.
        self.engine_name

    # ------------------------------------------------------------ components
    @functools.cached_property
    def engine_name(self) -> str:
        """The engine that runs this cell: the answer of
        :func:`~repro.engine.dispatch.pick_engine_name` for its components.

        Decided once, when the scenario is built; not a field, so it enters
        neither :meth:`to_dict` nor :meth:`identity`.
        """
        return pick_engine_name(
            build_protocol(self.protocol, self.k),
            engine=self.engine,
            channel=build_channel(self.channel),
            arrivals=build_arrivals(self.arrivals, self.k),
        )

    def build_protocol(self) -> Protocol:
        """Instantiate the scenario's protocol for its network size."""
        return build_protocol(self.protocol, self.k)

    def build_arrivals(self) -> ArrivalProcess | None:
        """Instantiate the arrival process (``None`` for static batch arrivals)."""
        return build_arrivals(self.arrivals, self.k)

    def build_channel(self) -> ChannelModel | None:
        """Instantiate the channel (``None`` for the paper's default channel)."""
        channel = build_channel(self.channel)
        return None if channel == ChannelModel() else channel

    def max_slots(self) -> int:
        """The per-run slot cap: ``max_slots_factor * k``."""
        return self.max_slots_factor * self.k

    def seeds(self) -> list[int]:
        """Per-replication seeds (prefix-stable in the replication count)."""
        return derive_seeds(self.seed, self.replications)

    def replace(self, **changes: object) -> "Scenario":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    # -------------------------------------------------------------- identity
    def identity(self) -> dict[str, object]:
        """The content-hashed identity: every field except ``replications``.

        Component specs are canonicalised (parameters sorted, no whitespace)
        so cosmetic spelling differences do not split the cache.
        """
        return {
            "protocol": canonical_spec(self.protocol),
            "k": self.k,
            "arrivals": canonical_spec(self.arrivals),
            "channel": canonical_spec(self.channel),
            "engine": self.engine,
            "seed": self.seed,
            # The one seed derivation left; kept so that no digest moves.
            "seed_policy": "derive",
            "max_slots_factor": self.max_slots_factor,
        }

    def content_hash(self) -> str:
        """Stable 16-hex-digit digest of :meth:`identity` (store key).

        Computed once per instance: a scenario is frozen, and every store
        probe and append asks for its digest.
        """
        return self._content_hash

    @functools.cached_property
    def _content_hash(self) -> str:
        canonical = json.dumps(self.identity(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> dict[str, object]:
        """Plain-dict form; inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Scenario":
        """Build from a dict (e.g. a parsed JSON/TOML document).

        ``reps`` is accepted as an alias for ``replications``; unknown keys
        are rejected so typos fail loudly instead of silently running the
        default.  ``seed_policy: "derive"``, which every stored or journaled
        scenario dict written before the field went carries, is dropped;
        any other ``seed_policy`` raises ``ValueError``.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        kwargs: dict[str, object] = {}
        for key, value in data.items():
            if key == "seed_policy":
                if value != "derive":
                    raise ValueError(
                        f"seed_policy {value!r} is no longer supported: replication "
                        "seeds always derive from the root seed"
                    )
                continue
            resolved = _KEY_ALIASES.get(key, key)
            if resolved not in known:
                raise ValueError(f"unknown scenario field {key!r}; known: {sorted(known)}")
            if resolved in kwargs:
                raise ValueError(f"duplicate scenario field {key!r}")
            kwargs[resolved] = value
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"scenario JSON must be an object, got {type(data).__name__}")
        return cls.from_dict(data)

    def to_toml(self) -> str:
        """Render as a flat TOML document (readable back by :meth:`from_file`)."""
        lines = []
        for key, value in self.to_dict().items():
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, (int, float)):
                rendered = repr(value)
            else:
                rendered = json.dumps(str(value))
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str) -> "Scenario":
        try:
            import tomllib
        except ModuleNotFoundError:  # stdlib tomllib is 3.11+; 3.10 uses tomli
            import tomli as tomllib  # type: ignore[no-redef]

        return cls.from_dict(tomllib.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        """Load a scenario from a ``.toml`` or ``.json`` file."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() == ".toml":
            return cls.from_toml(text)
        if path.suffix.lower() == ".json":
            return cls.from_json(text)
        raise ValueError(f"unsupported scenario file type {path.suffix!r} (use .toml or .json)")

    # -------------------------------------------------------- compact string
    @classmethod
    def parse(cls, text: str) -> "Scenario":
        """Parse the compact string form (see module docstring)."""
        tokens = split_top_level(text)
        if not tokens:
            raise SpecError("empty scenario string")
        first = tokens[0]
        if "=" in first.split("(", 1)[0]:
            raise SpecError(
                f"scenario string must start with a protocol spec, got {first!r}"
            )
        data: dict[str, object] = {"protocol": first}
        for token in tokens[1:]:
            if "=" not in token.split("(", 1)[0]:
                raise SpecError(f"expected key=value token in scenario string, got {token!r}")
            key, raw_value = token.split("=", 1)
            if key in ("arrivals", "channel", "engine"):
                value: object = raw_value
            else:
                value = parse_value(raw_value)
            if key not in _STRING_KEYS and _KEY_ALIASES.get(key) is None:
                raise SpecError(
                    f"unknown scenario key {key!r}; known: {sorted(set(_STRING_KEYS))}"
                )
            data[key] = value
        if "k" not in data:
            raise SpecError(f"scenario string {text!r} must set k=<network size>")
        return cls.from_dict(data)

    def format(self) -> str:
        """Compact string form; omits fields left at their defaults."""
        # The declared defaults, not a Scenario of them: that need not be
        # valid (a protocol that needs collision detection refuses the
        # default channel).
        defaults = {field.name: field.default for field in dataclasses.fields(self)}
        parts = [canonical_spec(self.protocol), f"k={self.k}"]
        if self.replications != defaults["replications"]:
            parts.append(f"reps={self.replications}")
        if self.seed != defaults["seed"]:
            parts.append(f"seed={self.seed}")
        if self.arrivals != defaults["arrivals"]:
            parts.append(f"arrivals={canonical_spec(self.arrivals)}")
        if self.channel != defaults["channel"]:
            parts.append(f"channel={canonical_spec(self.channel)}")
        if self.engine != defaults["engine"]:
            parts.append(f"engine={self.engine}")
        if self.max_slots_factor != defaults["max_slots_factor"]:
            parts.append(f"max_slots_factor={self.max_slots_factor}")
        return " ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.format()
