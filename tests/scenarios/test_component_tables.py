"""The closed component tables of ``repro.scenarios.spec``.

``PROTOCOLS``, ``ARRIVALS`` and ``CHANNELS`` are the only way a spec string
names a component.  Every protocol entry is keyed by its own ``name``,
declares a kind the engine rule reads, and builds from its bare name; every
arrival and channel entry builds too; and every concrete protocol and arrival
class the package ships is in its table, so a new class without an entry
fails here.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro.core
import repro.protocols
from repro.channel import arrivals as arrivals_module
from repro.channel.arrivals import ArrivalProcess
from repro.channel.model import ChannelModel
from repro.protocols.base import Protocol
from repro.scenarios.spec import (
    ARRIVALS,
    CHANNELS,
    PROTOCOLS,
    build_arrivals,
    build_channel,
    build_protocol,
)

PROBE_K = 8


def _concrete_subclasses(base: type, modules: list) -> set[type]:
    return {
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, base) and not inspect.isabstract(cls)
    }


def _package_modules(*packages) -> list:
    return [
        importlib.import_module(info.name)
        for package in packages
        for info in pkgutil.iter_modules(package.__path__, prefix=package.__name__ + ".")
    ]


class TestProtocols:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_entry_is_named_by_its_key_and_builds(self, name):
        cls = PROTOCOLS[name]
        assert cls.name == name
        assert cls.protocol_kind in ("fair", "windowed", "generic")
        assert isinstance(build_protocol(name, PROBE_K), cls)

    def test_every_shipped_protocol_is_in_the_table(self):
        shipped = _concrete_subclasses(
            Protocol, _package_modules(repro.core, repro.protocols)
        )
        assert shipped == set(PROTOCOLS.values())


class TestArrivals:
    @pytest.mark.parametrize("name", sorted(ARRIVALS))
    def test_entry_builds_from_its_spec(self, name):
        # Poisson needs its rate; batch builds to None, the static default.
        spec = "poisson(rate=0.5)" if name == "poisson" else name
        process = build_arrivals(spec, PROBE_K)
        if name == "batch":
            assert process is None
        else:
            assert type(process) is ARRIVALS[name]
            assert process.total_messages == PROBE_K

    def test_every_shipped_arrival_process_is_in_the_table(self):
        shipped = _concrete_subclasses(ArrivalProcess, [arrivals_module])
        assert shipped == set(ARRIVALS.values())


class TestChannels:
    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_entry_builds_from_its_name(self, name):
        channel = build_channel(name)
        assert isinstance(channel, ChannelModel)
        assert channel == CHANNELS[name]
