"""Tests for the BGP-style churn generator behind ``ChurnSchedule`` and
FIB consistency under churn."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.control import ChurnSchedule, TimedUpdate
from repro.errors import ConfigurationError
from repro.net import IPv4Address
from repro.routing import BinaryTrie, Route, generate_rib


@pytest.fixture
def table():
    return generate_rib(num_entries=300, num_ports=4, seed=1)


def _churn(table, count, **kwargs):
    """``count`` back-to-back updates against ``table``'s prefixes."""
    installed = [prefix for prefix, _ in table.routes()]
    return ChurnSchedule.bursts(installed, burst_updates=count,
                                interval_sec=1.0, bursts=1, **kwargs)


def _apply(table, schedule):
    """Apply a schedule's updates to ``table``; returns operation counts."""
    stats = {"announced": 0, "reannounced": 0, "withdrawn": 0}
    for update in schedule:
        if update.is_withdrawal:
            table.remove_route(update.prefix)
            stats["withdrawn"] += 1
            continue
        stats["reannounced" if table.has_route(update.prefix)
              else "announced"] += 1
        table.add_route(update.prefix, Route(
            port=update.port,
            next_hop=IPv4Address((10 << 24) | (update.port << 8) | 1)))
    return stats


class TestChurnGenerator:
    def test_update_mix(self, table):
        updates = list(_churn(table, 500, withdraw_fraction=0.3,
                              reannounce_fraction=0.4, seed=2))
        withdrawals = sum(1 for u in updates if u.is_withdrawal)
        assert 100 < withdrawals < 200  # ~30 %

    def test_apply_keeps_table_consistent(self, table):
        size_before = len(table)
        # remove_route raises on a miss, so every withdrawal named an
        # installed prefix.
        stats = _apply(table, _churn(table, 400, seed=3))
        assert sum(stats.values()) == 400
        assert len(table) == (size_before + stats["announced"]
                              - stats["withdrawn"])

    def test_withdrawn_prefixes_stop_matching_exactly(self, table):
        schedule = _churn(table, 50, withdraw_fraction=1.0,
                          reannounce_fraction=0.0, seed=4)
        removed = [u.prefix for u in schedule]
        for prefix in removed:
            table.remove_route(prefix)
        for prefix in removed:
            assert not table.has_route(prefix)

    def test_deterministic(self, table):
        a = [u.prefix for u in _churn(table, 50, seed=5)]
        b = [u.prefix for u in _churn(
            generate_rib(num_entries=300, num_ports=4, seed=1), 50, seed=5)]
        assert a == b

    def test_bad_fractions(self, table):
        with pytest.raises(ConfigurationError):
            _churn(table, 1, withdraw_fraction=0.8, reannounce_fraction=0.5)
        with pytest.raises(ConfigurationError):
            _churn(table, 1, withdraw_fraction=-0.1)

    def test_update_dataclass(self, table):
        prefix = next(iter(dict(table.routes())))
        assert TimedUpdate(time=0.0, prefix=prefix, port=None).is_withdrawal
        assert not TimedUpdate(time=0.0, prefix=prefix, port=1).is_withdrawal


class TestChurnedFibAgreesWithOracle:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=99))
    def test_dir24_8_matches_trie_after_churn(self, seed):
        """Property: after an arbitrary churn episode, the DIR-24-8 FIB
        agrees with a trie replaying the same final route set."""
        table = generate_rib(num_entries=60, num_ports=3, seed=seed)
        _apply(table, _churn(table, 120, seed=seed + 1))
        oracle = BinaryTrie()
        for prefix, route in table.routes():
            oracle.insert(prefix, route)
        rng = random.Random(seed + 2)
        for _ in range(200):
            probe = rng.getrandbits(32)
            assert table.lookup(probe) == oracle.lookup(probe), hex(probe)
