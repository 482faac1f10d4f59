"""Unit tests for the failure-detection layer's value types.

The end-to-end takeover behaviour (elections, regeneration, exactness
under partitions) is covered by ``tests/integration/test_fault_tolerance``;
this module pins down the config validation, payload accounting and the
frame-selection rule the election relies on.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import WORD_BITS
from repro.detect.stack import FailureDetectorConfig, TokenFrame
from repro.detect.stack.membership import (
    ELECT_BITS,
    HEARTBEAT_BITS,
    ElectOk,
    Heartbeat,
    RegenRequest,
    best_frames,
)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = FailureDetectorConfig()
        assert cfg.heartbeat_interval < cfg.suspicion_after < cfg.grace

    @pytest.mark.parametrize("kwargs", [
        {"heartbeat_interval": 0.0},
        {"heartbeat_interval": -1.0},
        {"suspicion_after": 1.0},  # < heartbeat_interval default of 4
        {"grace": 0.0},
        {"election_window": 0.0},
        {"max_idle_rounds": 0},
        {"heartbeat_interval": float("nan")},
        {"heartbeat_interval": float("inf"), "suspicion_after": float("inf")},
        {"suspicion_after": float("nan")},
        {"suspicion_after": float("inf")},
        {"grace": float("nan")},
        {"grace": float("inf")},
        {"election_window": float("nan")},
        {"gossip_interval": float("nan")},
        {"gossip_interval": float("inf")},
        {"gossip_timeout": float("nan")},
        {"gossip_timeout": float("inf")},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            FailureDetectorConfig(**kwargs)


class TestPayloadAccounting:
    def test_heartbeat_bits_cover_slot_epoch_holding(self):
        assert HEARTBEAT_BITS == 2 * WORD_BITS + 1
        assert ELECT_BITS == 2 * WORD_BITS

    def test_elect_ok_counts_frames(self):
        empty = ElectOk(epoch=1, slot=0, frames=())
        assert empty.size_bits() == 2 * WORD_BITS
        frame = TokenFrame(hop=3, body=None, gid=0, epoch=1)
        one = ElectOk(epoch=1, slot=0, frames=(frame,))
        # An empty-bodied frame costs its (hop, gid, epoch) header.
        assert one.size_bits() == 2 * WORD_BITS + 3 * WORD_BITS

    def test_elect_ok_counts_token_body(self):
        class Body:
            def size_bits(self):
                return 17

        frame = TokenFrame(hop=1, body=Body(), gid=0, epoch=1)
        ok = ElectOk(epoch=1, slot=0, frames=(frame,))
        assert ok.size_bits() == 2 * WORD_BITS + 3 * WORD_BITS + 17

    def test_regen_request_counts_red_slots(self):
        frame = TokenFrame(hop=1, body=None, gid=0, epoch=2)
        req = RegenRequest(epoch=2, frames=(frame,), red_slots=(0, 2))
        assert req.size_bits() == WORD_BITS * 3 + 3 * WORD_BITS


class TestBestFrames:
    def test_keeps_greatest_epoch_hop_per_gid(self):
        frames = [
            TokenFrame(hop=5, body="a", gid=0, epoch=1),
            TokenFrame(hop=2, body="b", gid=0, epoch=2),  # higher epoch wins
            TokenFrame(hop=9, body="c", gid=1, epoch=1),
            TokenFrame(hop=7, body="d", gid=1, epoch=1),  # lower hop loses
        ]
        best = best_frames(frames)
        assert [(f.gid, f.epoch, f.hop) for f in best] == [
            (0, 2, 2), (1, 1, 9),
        ]
        assert best[0].body == "b"
        assert best[1].body == "c"

    def test_empty_input(self):
        assert best_frames([]) == ()

    def test_result_sorted_by_gid(self):
        frames = [
            TokenFrame(hop=1, body=None, gid=2, epoch=1),
            TokenFrame(hop=1, body=None, gid=0, epoch=1),
        ]
        assert [f.gid for f in best_frames(frames)] == [0, 2]


class TestHeartbeat:
    def test_holding_defaults_false(self):
        beat = Heartbeat(slot=1, epoch=3)
        assert not beat.holding
        assert Heartbeat(slot=1, epoch=3, holding=True).holding
