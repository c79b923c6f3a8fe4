import copy
import math
import pickle

import numpy as np
import pytest

from mondrianforest import RngStream


def test_same_seed_same_draws():
    a = RngStream(123)
    b = RngStream(123)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]


def test_child_streams_are_pure():
    # deriving child m must not depend on what else was derived or drawn
    a = RngStream(9)
    a.uniform()
    a.child(0).uniform()
    fresh = RngStream(9).child(3)
    used = a.child(3)
    assert [used.uniform() for _ in range(10)] == [fresh.uniform() for _ in range(10)]


def test_children_differ_from_parent_and_each_other():
    root = RngStream(5)
    seqs = [tuple(RngStream(5, (i,)).uniform() for _ in range(8)) for i in range(4)]
    assert len(set(seqs)) == 4
    assert tuple(root.uniform() for _ in range(8)) not in seqs


def test_counter_tracks_scalar_draws():
    s = RngStream(1)
    s.uniform()
    s.exponential(2.0)
    s.categorical([1.0, 3.0])
    assert s.counter == 3


def test_exponential_inverse_cdf_matches_uniform_stream():
    # one uniform consumed, value is -log1p(-u) / rate
    u = RngStream(77).uniform()
    e = RngStream(77).exponential(3.0)
    assert e == -math.log1p(-u) / 3.0


def test_exponential_zero_rate_is_inf():
    s = RngStream(2)
    assert s.exponential(0.0) == math.inf
    assert s.counter == 0


def test_exponential_negative_rate_rejected():
    with pytest.raises(ValueError):
        RngStream(2).exponential(-1.0)


def test_exponential_moments():
    s = RngStream(42)
    draws = np.array([s.exponential(2.0) for _ in range(20000)])
    assert np.all(draws > 0)
    assert abs(draws.mean() - 0.5) < 4 * draws.std(ddof=1) / math.sqrt(draws.size)


def test_categorical_frequencies():
    s = RngStream(11)
    draws = np.array([s.categorical([1.0, 3.0]) for _ in range(20000)])
    freq = draws.mean()
    assert abs(freq - 0.75) < 4 * math.sqrt(0.75 * 0.25 / draws.size)


def test_categorical_never_picks_zero_weight():
    s = RngStream(13)
    draws = {s.categorical([0.0, 1.0, 0.0]) for _ in range(200)}
    assert draws == {1}


def test_categorical_rejects_bad_weights():
    with pytest.raises(ValueError):
        RngStream(1).categorical([0.0, 0.0])
    with pytest.raises(ValueError):
        RngStream(1).categorical([-1.0, 2.0])


@pytest.mark.parametrize("weight, outcome", [
    (1.0, 0), (0.0, "at least one weight must be positive"), (-1.0, "weights must be nonnegative"),
    (math.nan, 0), (math.inf, 0), (2.5, 0),
])
def test_one_weight_categorical_matches_the_general_loop(weight, outcome):
    # a trailing zero weight sends the same draw through the many-weight loop; both give
    # the same index or message, and a draw spends exactly one uniform (an error, none)
    results = []
    for weights in ([weight], [weight, 0.0]):
        s = RngStream(7)
        try:
            got = s.categorical(weights)
        except ValueError as exc:
            got = str(exc)
        results.append((got, s.counter, s.uniform()))
    spent = 1 if outcome == 0 else 0
    assert results[0] == results[1] == (outcome, spent, reference(7, (), 2)[spent])


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)


# -- block-served scalar draws equal scalar Philox draws ---------------------


def reference(seed, path, n):
    """The first ``n`` doubles of a fresh Philox Generator for ``(seed, *path)``."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *path))))
    return gen.random(n).tolist()


@pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
def test_uniform_draws_equal_reference_philox_draws(n):
    s = RngStream(21, (4, 7))
    assert [s.uniform() for _ in range(n)] == reference(21, (4, 7), n)
    assert s.counter == n


@pytest.mark.parametrize("before, bulk, after", [
    (0, 5, 3), (1, 10, 300), (255, 1, 2), (256, 3, 1), (257, 600, 257), (300, 0, 10),
])
def test_bulk_draws_between_scalar_draws_continue_the_sequence(before, bulk, after):
    s = RngStream(8, (2,))
    drawn = [s.uniform() for _ in range(before)]
    drawn += s.generator.random(bulk).tolist()
    drawn += [s.uniform() for _ in range(after)]
    assert drawn == reference(8, (2,), before + bulk + after)
    assert s.counter == before + after


def test_repeated_generator_reads_consume_nothing():
    s = RngStream(8, (2,))
    s.uniform()
    s.generator
    s.generator
    assert [s.uniform() for _ in range(3)] == reference(8, (2,), 4)[1:]


def test_counter_counts_draws_handed_out_not_read_ahead():
    s = RngStream(3)
    for _ in range(10):
        s.uniform()
    s.exponential(1.0)
    s.categorical([1.0, 2.0, 3.0])
    assert s.counter == 12
    s.generator.random(100)
    assert s.counter == 12


def test_exponential_zero_rate_consumes_nothing_mid_block():
    s = RngStream(2)
    s.uniform()
    assert s.exponential(0.0) == math.inf
    assert s.counter == 1
    assert s.uniform() == reference(2, (), 2)[1]


@pytest.mark.parametrize("dup", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_mid_block_stream_copies_continue_identically(dup):
    s = RngStream(17, (1, 1))
    for _ in range(100):
        s.uniform()
    twin = dup(s)
    assert twin.counter == s.counter == 100
    assert [twin.uniform() for _ in range(400)] == [s.uniform() for _ in range(400)]
    assert twin.generator.random(5).tolist() == s.generator.random(5).tolist()
