import copy
import math
import pickle

import numpy as np
import pytest

from mondrianforest import BoxRegion, RngStream, fit_forest


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


@pytest.mark.parametrize("seed, path, message", [
    (2.5, (), "seed must be an int >= 0, got 2.5"),
    (True, (), "seed must be an int >= 0, got True"),
    (np.float64(3.0), (), "seed must be an int >= 0, got np.float64(3.0)"),
    (-1, (), "seed must be >= 0, got -1"),
    (7, (1.7,), "path entry must be an int >= 0, got 1.7"),
    (7, (0, False), "path entry must be an int >= 0, got False"),
    (7, (-1,), "path entry must be >= 0, got -1"),
    (7, (np.int64(-2),), "path entry must be >= 0, got np.int64(-2)"),
], ids=["seed-float", "seed-bool", "seed-numpy-float", "seed-negative", "path-float",
        "path-bool", "path-negative", "path-numpy-negative"])
def test_a_seed_or_path_entry_that_is_not_an_int_is_refused_not_truncated(seed, path, message):
    # int() would turn 2.5 into 2 and True into 1, silently drawing another stream
    with pytest.raises(ValueError) as exc:
        RngStream(seed, path)
    assert str(exc.value) == message


def test_child_refuses_an_index_that_is_not_an_int():
    with pytest.raises(ValueError, match="path entry must be an int >= 0, got 1.7"):
        RngStream(7).child(1.7)


def test_numpy_integer_seed_and_path_draw_as_python_ints():
    s = RngStream(np.uint64(21), (np.int64(4), np.int32(7)))
    assert (s.seed, s.path) == (21, (4, 7))
    assert all(type(v) is int for v in (s.seed, *s.path))
    assert [s.uniform() for _ in range(3)] == reference(21, (4, 7), 3)
    assert s.child(np.int16(1)).path == (4, 7, 1)


def test_fit_forest_refuses_a_float_master_seed():
    X = np.array([[0.25], [0.75]])
    with pytest.raises(ValueError, match="seed must be an int >= 0, got 2.5"):
        fit_forest(BoxRegion.unit(1), 1, 1.0, 2, X, np.array([0.0, 1.0]), master_seed=2.5)


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
