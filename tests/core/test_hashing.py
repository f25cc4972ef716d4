"""Hash family: determinism, uniformity, round independence."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConfigurationError, HashFamily


class TestDeterminism:
    def test_same_seed_same_offsets(self):
        a, b = HashFamily(seed=3), HashFamily(seed=3)
        for r in range(4):
            assert a.offset("/home/u1", r) == b.offset("/home/u1", r)

    def test_different_seeds_differ(self):
        a, b = HashFamily(seed=1), HashFamily(seed=2)
        diffs = sum(a.offset(f"n{i}") != b.offset(f"n{i}") for i in range(20))
        assert diffs >= 19

    def test_rounds_are_independent(self):
        fam = HashFamily(seed=0)
        offs = [fam.offset("same-name", r) for r in range(10)]
        assert len(set(offs)) == 10

    def test_offset_in_unit_interval(self):
        fam = HashFamily()
        for i in range(200):
            x = fam.offset(f"name-{i}")
            assert 0.0 <= x < 1.0

    def test_round_outside_budget_rejected(self):
        fam = HashFamily(max_probes=4)
        with pytest.raises(ConfigurationError):
            fam.offset("x", 4)

    def test_equality_and_hash(self):
        assert HashFamily(seed=1) == HashFamily(seed=1)
        assert HashFamily(seed=1) != HashFamily(seed=2)
        assert hash(HashFamily(seed=1)) == hash(HashFamily(seed=1))


class TestUniformity:
    def test_offsets_roughly_uniform(self):
        fam = HashFamily(seed=7)
        xs = fam.offsets([f"/fs/{i}" for i in range(4000)])
        hist, _ = np.histogram(xs, bins=10, range=(0, 1))
        # 400 expected per bin; 4-sigma band ≈ ±80
        assert hist.min() > 300 and hist.max() < 500

    def test_uniform_server_choice_balanced(self):
        fam = HashFamily(seed=7)
        counts = np.zeros(5, dtype=int)
        for i in range(5000):
            counts[fam.uniform_server_choice(f"item{i}", 5)] += 1
        assert counts.min() > 800 and counts.max() < 1200

    def test_uniform_server_choice_range(self):
        fam = HashFamily()
        for i in range(100):
            assert 0 <= fam.uniform_server_choice(f"x{i}", 3) < 3

    def test_uniform_choice_bad_n(self):
        with pytest.raises(ConfigurationError):
            HashFamily().uniform_server_choice("x", 0)


class TestBatchAPIs:
    def test_offsets_matches_scalar(self):
        fam = HashFamily(seed=5)
        names = [f"a{i}" for i in range(10)]
        batch = fam.offsets(names, round_=2)
        for name, x in zip(names, batch):
            assert x == fam.offset(name, 2)

    @given(
        names=st.lists(st.text(max_size=40), max_size=30),
        seed=st.integers(min_value=0, max_value=2**32),
        round_=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_offsets_bit_identical_to_reference(self, names, seed, round_):
        fam = HashFamily(seed=seed)
        salt = seed.to_bytes(8, "little") + round_.to_bytes(4, "little")
        want = [
            int.from_bytes(
                hashlib.blake2b(n.encode("utf-8"), digest_size=8, salt=salt).digest(),
                "little",
            )
            / float(2**64)
            for n in names
        ]
        got = fam.batch_offsets(names, round_)
        assert got.dtype == np.float64 and got.shape == (len(names),)
        assert got.tolist() == want
        assert got.tolist() == [fam.offset(n, round_) for n in names]

    def test_offset_matrix_shape_and_content(self):
        fam = HashFamily(seed=5)
        names = ["p", "q", "r"]
        m = fam.offset_matrix(names, rounds=4)
        assert m.shape == (3, 4)
        assert m[1, 3] == fam.offset("q", 3)

    def test_offset_matrix_budget_enforced(self):
        fam = HashFamily(max_probes=2)
        with pytest.raises(ConfigurationError):
            fam.offset_matrix(["x"], rounds=3)

    def test_probe_sequence_lazy_prefix(self):
        fam = HashFamily(seed=1)
        seq = list(fam.probe_sequence("name"))
        assert len(seq) == fam.max_probes
        assert seq[0] == fam.offset("name", 0)

    def test_bad_max_probes(self):
        with pytest.raises(ConfigurationError):
            HashFamily(max_probes=0)
