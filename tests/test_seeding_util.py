import os

import numpy as np
import pytest

from dcsam.seeding import derive_seed, episode_seed, rng_for, tag
from dcsam.util import atomic_write_bytes, atomic_write_text


def test_derive_seed_deterministic():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert derive_seed(42, 1) != derive_seed(43, 1)
    assert 0 <= derive_seed(0) < 2 ** 64


def test_tag_values_are_stable():
    known = ("support", "query", "encoder", "params", "train",
             "eval", "tube", "sampler", "oracle", "gradcheck")
    values = [tag(name) for name in known]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
    with pytest.raises(KeyError):
        tag("nonsense")


def test_rng_streams_are_independent():
    a = rng_for(5, tag("support"), 0).random(4)
    b = rng_for(5, tag("support"), 0).random(4)
    c = rng_for(5, tag("query"), 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_unaffected_by_other_draws():
    # counter-based streams cannot leak state into one another
    probe = rng_for(5, tag("eval"), 3).random(8)
    _ = rng_for(5, tag("train")).random(1000)
    again = rng_for(5, tag("eval"), 3).random(8)
    assert np.array_equal(probe, again)


def test_episode_seed_distinct_per_class_and_index():
    seeds = {episode_seed(0, c, i) for c in range(4) for i in range(4)}
    assert len(seeds) == 16


def test_atomic_write_text(tmp_path):
    target = tmp_path / "deep" / "file.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    assert list(tmp_path.rglob("*.tmp")) == []


def test_atomic_write_failure_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_bytes(target, b"new")
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
