"""Spec strings and the component tables they name.

Protocols, arrival processes and channels are named with short strings, and
this module is the only place that turns such a name into a component: the
closed tables :data:`PROTOCOLS`, :data:`ARRIVALS` and :data:`CHANNELS` list
every one the paper's model needs, and :func:`build_protocol`,
:func:`build_arrivals` and :func:`build_channel` build one from its spec.  A
*spec string* extends a name with constructor parameters, so that one flat
string describes a fully parameterised component::

    one-fail-adaptive                      -> ("one-fail-adaptive", {})
    log-fails-adaptive(xi_t=0.1)           -> ("log-fails-adaptive", {"xi_t": 0.1})
    bursty(bursts=4, gap=100)              -> ("bursty", {"bursts": 4, "gap": 100})

Values are parsed as Python scalars: integers, floats, the booleans
``true``/``false`` and strings (bare, or quoted when they contain one of the
delimiter characters).  :func:`format_spec` is the exact inverse of
:func:`parse_spec` and emits a *canonical* form — parameters sorted by name,
no spaces — which is what scenario content-hashing relies on.

A component outside the tables is passed as an instance instead:
:func:`~repro.engine.dispatch.simulate` takes any
:class:`~repro.protocols.base.Protocol` and
:class:`~repro.channel.arrivals.ArrivalProcess`.
"""

from __future__ import annotations

import re
from typing import TypeVar

from repro.channel.arrivals import ArrivalProcess, BatchArrival, BurstyArrival, PoissonArrival
from repro.channel.model import ChannelModel, FeedbackModel
from repro.core.exp_backon_backoff import ExpBackonBackoff
from repro.core.one_fail_adaptive import OneFailAdaptive
from repro.protocols.aloha import SlottedAloha
from repro.protocols.backoff import (
    ExponentialBackoff,
    LogBackoff,
    LogLogIteratedBackoff,
    PolynomialBackoff,
)
from repro.protocols.base import Protocol
from repro.protocols.log_fails_adaptive import LogFailsAdaptive
from repro.protocols.splitting import BinarySplitting

__all__ = [
    "SpecError",
    "parse_spec",
    "format_spec",
    "split_top_level",
    "PROTOCOLS",
    "ARRIVALS",
    "CHANNELS",
    "build_protocol",
    "build_arrivals",
    "build_channel",
]

#: Component names: lower-case words joined by hyphens/underscores/dots.
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9._-]*$")
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
#: Characters that force a string value to be quoted on output.
_NEEDS_QUOTE = re.compile(r"[\s,()=\"']")


class SpecError(ValueError):
    """Raised when a spec string cannot be parsed."""


def parse_spec(text: str) -> tuple[str, dict[str, object]]:
    """Parse ``"name"`` or ``"name(key=value, ...)"`` into name and parameters."""
    text = text.strip()
    if not text:
        raise SpecError("empty spec string")
    if "(" not in text:
        name, arg_text = text, None
    else:
        if not text.endswith(")"):
            raise SpecError(f"unbalanced parentheses in spec {text!r}")
        name, arg_text = text[:-1].split("(", 1)
        name = name.strip()
    if not _NAME_RE.match(name):
        raise SpecError(f"invalid spec name {name!r} in {text!r}")
    params: dict[str, object] = {}
    if arg_text is None or not arg_text.strip():
        return name, params
    for item in _split_args(arg_text, text):
        if "=" not in item:
            raise SpecError(f"expected key=value in spec {text!r}, got {item!r}")
        key, raw_value = item.split("=", 1)
        key = key.strip()
        if not _KEY_RE.match(key):
            raise SpecError(f"invalid parameter name {key!r} in spec {text!r}")
        if key in params:
            raise SpecError(f"duplicate parameter {key!r} in spec {text!r}")
        params[key] = parse_value(raw_value.strip())
    return name, params


def _split_args(arg_text: str, context: str) -> list[str]:
    """Split the inside of ``name(...)`` on commas outside quoted values."""
    items: list[str] = []
    current: list[str] = []
    quote: str | None = None
    for char in arg_text:
        if quote is not None:
            current.append(char)
            if char == quote:
                quote = None
            continue
        if char in "\"'":
            quote = char
            current.append(char)
            continue
        if char == ",":
            items.append("".join(current).strip())
            current = []
            continue
        current.append(char)
    if quote is not None:
        raise SpecError(f"unterminated quote in spec {context!r}")
    items.append("".join(current).strip())
    if any(not piece for piece in items):
        raise SpecError(f"empty parameter in spec {context!r}")
    return items


def parse_value(raw: str) -> object:
    """Parse one scalar parameter value (int, float, bool or string)."""
    if len(raw) >= 2 and raw[0] in "\"'" and raw[-1] == raw[0]:
        return raw[1:-1]
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def format_value(value: object) -> str:
    """Format one scalar parameter value; inverse of :func:`parse_value`."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    if not text or _NEEDS_QUOTE.search(text) or text.lower() in ("true", "false"):
        if '"' in text and "'" in text:
            raise SpecError(f"string value {text!r} mixes both quote characters")
        quote = "'" if '"' in text else '"'
        return quote + text + quote
    return text


def format_spec(name: str, params: dict[str, object] | None = None) -> str:
    """Render ``(name, params)`` as a canonical spec string.

    Parameter-free specs render as the bare name; parameters are sorted by
    name so two equal ``(name, params)`` pairs always render identically
    (scenario hashing depends on this).
    """
    if not _NAME_RE.match(name):
        raise SpecError(f"invalid spec name {name!r}")
    if not params:
        return name
    body = ",".join(f"{key}={format_value(params[key])}" for key in sorted(params))
    return f"{name}({body})"


def canonical_spec(text: str) -> str:
    """Round-trip a spec string through parse/format to its canonical form."""
    return format_spec(*parse_spec(text))


def split_top_level(text: str) -> list[str]:
    """Split a scenario string into whitespace-separated top-level tokens.

    Whitespace *inside* parentheses does not split, so
    ``"ofa k=10 arrivals=bursty(bursts=2, gap=9)"`` yields three tokens.
    """
    tokens: list[str] = []
    depth = 0
    current: list[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise SpecError(f"unbalanced parentheses in {text!r}")
        if char.isspace() and depth == 0:
            if current:
                tokens.append("".join(current))
                current = []
            continue
        current.append(char)
    if depth != 0:
        raise SpecError(f"unbalanced parentheses in {text!r}")
    if current:
        tokens.append("".join(current))
    return tokens


# --------------------------------------------------------------------------
# Component tables
# --------------------------------------------------------------------------

#: Every protocol, by its ``name``: the paper's two, the two it compares
#: against, the rest of the monotone back-off family, slotted ALOHA and the
#: collision-detection splitting baseline.
PROTOCOLS: dict[str, type[Protocol]] = {
    cls.name: cls
    for cls in (
        OneFailAdaptive,
        ExpBackonBackoff,
        LogFailsAdaptive,
        LogLogIteratedBackoff,
        ExponentialBackoff,
        PolynomialBackoff,
        LogBackoff,
        SlottedAloha,
        BinarySplitting,
    )
}

#: Every arrival process: ``batch`` is the paper's static k-selection.
ARRIVALS: dict[str, type[ArrivalProcess]] = {
    "batch": BatchArrival,
    "poisson": PoissonArrival,
    "bursty": BurstyArrival,
}

#: Every channel: ``default`` (alias ``no-cd``) is the paper's, ``cd`` grants
#: every station ternary collision-detection feedback.
CHANNELS: dict[str, ChannelModel] = {
    "default": ChannelModel(),
    "no-cd": ChannelModel(),
    "cd": ChannelModel(feedback=FeedbackModel.COLLISION_DETECTION),
}


_T = TypeVar("_T")


def _lookup(table: dict[str, _T], kind: str, name: str) -> _T:
    try:
        return table[name]
    except KeyError:
        raise KeyError(f"unknown {kind} {name!r}; known: {', '.join(sorted(table))}") from None


def build_protocol(spec: str, k: int) -> Protocol:
    """Instantiate a protocol from a parameterised spec string.

    ``spec`` is a :data:`PROTOCOLS` name with optional constructor
    parameters, e.g. ``"one-fail-adaptive"`` or
    ``"log-fails-adaptive(xi_t=0.1)"``.  ``k`` is the network size the
    protocol will face; it is forwarded to the class's
    :meth:`~repro.protocols.base.Protocol.from_spec` hook so that protocols
    *requiring* knowledge of the contention (Log-fails Adaptive's
    ``ε ≤ 1/(k+1)``, slotted ALOHA's ``k``) can derive their required
    parameters, while the paper's own oblivious protocols ignore it.
    """
    name, params = parse_spec(spec)
    cls = _lookup(PROTOCOLS, "protocol", name)
    try:
        return cls.from_spec(k, **params)
    except TypeError as error:
        raise ValueError(f"cannot build protocol from spec {spec!r}: {error}") from error


def build_arrivals(spec: str, k: int) -> ArrivalProcess | None:
    """Build the arrival process described by a spec string, for ``k`` messages.

    ``"batch"`` — the paper's static k-selection — returns ``None``, the
    static default of :func:`repro.engine.dispatch.simulate` (so the cheap
    fair and window reductions stay eligible); every other spec returns a
    process injecting exactly ``k`` messages, e.g. ``"poisson(rate=0.2)"`` or
    ``"bursty(bursts=4,gap=100)"``.
    """
    name, params = parse_spec(spec)
    cls = _lookup(ARRIVALS, "arrival process", name)
    try:
        process = cls.from_spec(k, **params)
    except TypeError as error:
        raise ValueError(f"cannot build arrival process from spec {spec!r}: {error}") from error
    if isinstance(process, BatchArrival):
        return None
    if process.total_messages != k:
        raise ValueError(
            f"arrival spec {spec!r} injects {process.total_messages} messages, "
            f"which disagrees with k={k}"
        )
    return process


def build_channel(spec: str) -> ChannelModel:
    """Build the :data:`CHANNELS` entry a spec string names; it takes no parameters."""
    name, params = parse_spec(spec)
    channel = _lookup(CHANNELS, "channel", name)
    if params:
        raise ValueError(f"unknown channel parameters {sorted(params)} in spec {spec!r}")
    return channel
