import numpy as np

from mpirecon.rng import SeededGenerator


def test_same_seed_same_stream():
    a = SeededGenerator(42).normal_pairs(3)
    b = SeededGenerator(42).normal_pairs(3)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = SeededGenerator(1).normal_pairs(1)
    b = SeededGenerator(2).normal_pairs(1)
    assert np.all(a != b)


def test_scalar_and_batch_paths_agree():
    # one pair at a time continues the stream exactly as one batch draw
    gen = SeededGenerator(9)
    p1 = gen.normal_pairs(1)
    p2 = gen.normal_pairs(1)
    batch = SeededGenerator(9).normal_pairs(2)
    np.testing.assert_array_equal(np.vstack((p1, p2)), batch)


def test_normal_moments():
    n = 1_000_000
    draws = SeededGenerator(123).normal_pairs(n // 2).ravel()
    assert abs(draws.mean()) < 4.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 0.01


def test_uniforms_in_unit_interval():
    u = SeededGenerator(5).uniforms(10000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.02
