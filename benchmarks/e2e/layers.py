"""Message kind -> protocol layer, for attributing traffic layer by layer.

Every message a detection run sends is charged to exactly one layer:

* ``app`` — the application-side candidate streams (``simulation.replay``);
* ``core`` — the paper's detector cores (``detect.base``);
* ``transport`` — stack layer 1, acks and stream control
  (``detect.stack.transport``);
* ``membership`` — stack layer 2, liveness, elections and the join
  handshake (``detect.stack.membership`` and ``detect.stack.gossip``).

The table spells the kinds out as strings, so a kind renamed or added
in ``src/`` is not silently absorbed: :func:`traffic_by_layer` raises
:class:`UnknownKindError` for any kind it has no row for, and the run
that saw it fails instead of reporting its bytes under "other".
"""

from __future__ import annotations

LAYERS = ("app", "core", "transport", "membership")

KIND_LAYER = {
    # simulation/replay.py
    "candidate": "app",
    "end_of_trace": "app",
    # detect/base.py
    "token": "core",
    "poll": "core",
    "poll_response": "core",
    "halt": "core",
    # detect/stack/transport.py
    "cand_ack": "transport",
    "token_ack": "transport",
    "halt_ack": "transport",
    "feed_join": "transport",
    # detect/stack/membership.py
    "heartbeat": "membership",
    "elect": "membership",
    "elect_ok": "membership",
    "regen_request": "membership",
    # detect/stack/gossip.py
    "ping": "membership",
    "ping_ack": "membership",
    "ping_req": "membership",
    "join": "membership",
    "join_ack": "membership",
    "state_sync": "membership",
}


class UnknownKindError(RuntimeError):
    """A run sent a message kind that :data:`KIND_LAYER` does not map."""


def traffic_by_layer(board) -> dict[str, tuple[int, int]]:
    """``{layer: (messages, bits)}`` sent in one run's metrics board."""
    totals = {layer: [0, 0] for layer in LAYERS}
    for actor in board.actors().values():
        for kind, count in actor.sent_by_kind.items():
            layer = KIND_LAYER.get(kind)
            if layer is None:
                raise UnknownKindError(
                    f"actor {actor.name!r} sent message kind {kind!r}, which "
                    f"benchmarks/e2e/layers.py maps to no layer; add it to "
                    f"KIND_LAYER"
                )
            totals[layer][0] += count
            totals[layer][1] += actor.sent_bits_by_kind.get(kind, 0)
    return {layer: (msgs, bits) for layer, (msgs, bits) in totals.items()}
