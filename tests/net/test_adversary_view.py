"""The adversary's view of the wire: metadata only, one size for every message.

Sealing computes no cipher bytes (:mod:`repro.net.crypto`), so the
attacker model rests on what these tests lock: an adversary decides from
an :class:`Observation` alone, every protocol message has one wire size,
and the message objects a receiver shares with their sender are frozen.
"""

import ast
import dataclasses
from pathlib import Path

import repro
from repro import messages
from repro.attacks.delay import AttackMode, CalibrationDelayAttacker
from repro.attacks.dos import TaBlackholeAttack
from repro.core.cluster import ClusterConfig, TA_NAME, TriadCluster
from repro.net.adversary import NetworkAdversary, Observation, RuleBasedAdversary
from repro.net.channel import Network
from repro.net.delays import ConstantDelay
from repro.net.transport import SecureEndpoint
from repro.sim import Simulator, units
from tests.net.conftest import recording

SOURCE = Path(repro.__file__).parent


def _interfere_overrides() -> set[str]:
    """``module:Class`` of every class in ``src/repro`` that defines interfere."""
    found = set()
    for path in SOURCE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "interfere"
                for item in node.body
            ):
                found.add(f"{path.relative_to(SOURCE).with_suffix('').as_posix()}:{node.name}")
    return found


def _message_types() -> list[type]:
    return sorted(messages._Message.__subclasses__(), key=lambda cls: cls.__name__)


def test_observation_holds_metadata_only():
    assert {field.name for field in dataclasses.fields(Observation)} == {
        "time_ns",
        "source_host",
        "destination_host",
        "size_bytes",
        "datagram_id",
    }


def test_every_interfere_override_is_handed_an_observation(monkeypatch):
    overrides = {
        NetworkAdversary: "net/adversary:NetworkAdversary",
        RuleBasedAdversary: "net/adversary:RuleBasedAdversary",
        TaBlackholeAttack: "attacks/dos:TaBlackholeAttack",
        CalibrationDelayAttacker: "attacks/delay:CalibrationDelayAttacker",
    }
    assert _interfere_overrides() == set(overrides.values())

    seen: dict[type, set[type]] = {cls: set() for cls in overrides}
    for cls in overrides:
        original = cls.__dict__["interfere"]

        def spy(self, observation, cls=cls, original=original):
            seen[cls].add(type(observation))
            return original(self, observation)

        monkeypatch.setattr(cls, "interfere", spy)

    sim = Simulator(seed=3)
    cluster = TriadCluster(sim, ClusterConfig(node_count=2))
    rules = RuleBasedAdversary(sim)
    rules.delay_flow("node-2", "node-1", units.MILLISECOND)
    for adversary in [
        NetworkAdversary(sim),
        rules,
        CalibrationDelayAttacker(sim, "node-1", TA_NAME, AttackMode.F_MINUS),
        # Blackholes only after the run ends, so every datagram reaches it.
        TaBlackholeAttack(sim, TA_NAME, start_ns=units.HOUR),
    ]:
        cluster.network.add_adversary(adversary)
    sim.run(until=3 * units.SECOND)
    assert seen == {cls: {Observation} for cls in overrides}


def test_protocol_messages_are_156_bytes_on_the_wire_at_extreme_values():
    sim = Simulator(seed=1)
    network = Network(sim, default_delay=ConstantDelay(units.MICROSECOND))
    alice = SecureEndpoint(sim, network, "alice")
    bob = SecureEndpoint(sim, network, "bob")
    alice.register_peer(bob)
    bob.register_peer(alice)
    wire = []
    network.send = recording(network.send, wire)
    sent = []
    received = []
    bob.consumer = lambda sender, message: received.append(message)
    for message_type in _message_types():
        for value in (0, -(2**63), 2**63 - 1, 2**64 - 1):
            fields = dataclasses.fields(message_type)
            sent.append(message_type(**{field.name: value for field in fields}))
            alice.send("bob", sent[-1])
    sim.run()
    assert [datagram.size_bytes for datagram in wire] == [156] * len(sent)
    assert received == sent


def test_protocol_messages_are_frozen_dataclasses():
    """A receiver gets the sender's object, not a copy: it must be immutable."""
    assert [cls.__name__ for cls in _message_types()] == [
        "PeerTimeRequest",
        "PeerTimeResponse",
        "TimeRequest",
        "TimeResponse",
    ]
    for cls in _message_types():
        assert dataclasses.is_dataclass(cls)
        assert cls.__dataclass_params__.frozen, cls.__name__
