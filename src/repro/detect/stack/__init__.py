"""The layered monitor protocol stack.

The hardened detectors are built from three layers (see ``DESIGN.md``
§4 and ``docs/algorithms.md``):

* :mod:`~repro.detect.stack.transport` — layer 1: sequenced app
  streams, hop-acked token frames, tagged exactly-once requests,
  reliable halt, one RTT-adaptive retry policy;
* :mod:`~repro.detect.stack.membership` — layer 2: failure detection
  and epoch-numbered takeover elections, an opt-in middleware over the
  transport.  Two interchangeable membership protocols: all-to-all
  heartbeats (default) and SWIM-style gossip
  (:mod:`~repro.detect.stack.gossip`), selected via
  ``FailureDetectorConfig(membership=...)``;
* :mod:`~repro.detect.stack.compose` — the :func:`harden` factory
  composing a *detection core* (the near-verbatim paper pseudocode in
  ``repro.detect.token_vc`` etc.) with both layers via a small
  per-algorithm glue class.

Detection cores import **only this module** — never
``repro.simulation.faults`` or the layer internals directly (enforced
by ``tools/check_layering.py`` in CI).
"""

from repro.detect.stack.compose import (
    StackedMonitor,
    StackGlue,
    harden,
    hardened_variant,
    register_glue,
)
from repro.detect.stack.gossip import (
    GOSSIP_KINDS,
    JOIN_ACK_KIND,
    JOIN_KIND,
    JOIN_KINDS,
    PING_ACK_KIND,
    PING_KIND,
    PING_REQ_KIND,
    STATE_SYNC_KIND,
    GossipUpdate,
    Join,
    JoinWelcome,
    StateSync,
    SwimState,
)
from repro.detect.stack.join import StandbyMonitor, spawn_joiners
from repro.detect.stack.membership import (
    ELECT_KIND,
    ELECT_OK_KIND,
    HEARTBEAT_KIND,
    REGEN_KIND,
    FailureDetectorConfig,
    FailureDetectorMixin,
)
from repro.detect.stack.transport import (
    CAND_ACK_KIND,
    FEED_JOIN_KIND,
    HALT_ACK_KIND,
    TOKEN_ACK_KIND,
    AdaptiveRetryPolicy,
    FeedJoin,
    AdaptiveSchedule,
    CandidateInbox,
    ReliableEndpoint,
    ReliableFeeder,
    ReliableInjector,
    Sequenced,
    Tagged,
    TokenFrame,
    TokenInjector,
    token_ack_bits,
)

__all__ = [
    # compose
    "StackedMonitor",
    "StackGlue",
    "harden",
    "hardened_variant",
    "register_glue",
    # gossip
    "GOSSIP_KINDS",
    "JOIN_KINDS",
    "PING_KIND",
    "PING_ACK_KIND",
    "PING_REQ_KIND",
    "JOIN_KIND",
    "JOIN_ACK_KIND",
    "STATE_SYNC_KIND",
    "GossipUpdate",
    "Join",
    "JoinWelcome",
    "StateSync",
    "SwimState",
    # join
    "StandbyMonitor",
    "spawn_joiners",
    # membership
    "HEARTBEAT_KIND",
    "ELECT_KIND",
    "ELECT_OK_KIND",
    "REGEN_KIND",
    "FailureDetectorConfig",
    "FailureDetectorMixin",
    # transport
    "CAND_ACK_KIND",
    "TOKEN_ACK_KIND",
    "HALT_ACK_KIND",
    "FEED_JOIN_KIND",
    "FeedJoin",
    "Sequenced",
    "TokenFrame",
    "Tagged",
    "AdaptiveRetryPolicy",
    "AdaptiveSchedule",
    "CandidateInbox",
    "ReliableFeeder",
    "ReliableInjector",
    "ReliableEndpoint",
    "TokenInjector",
    "token_ack_bits",
]
