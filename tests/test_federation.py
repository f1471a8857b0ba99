import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbilevel.federation import (CONTIGUOUS, FISM, IRIG, SHUFFLED, CostModel,
                                   partition_data, round_time, uniform_costs)
from fedbilevel.rng import make_rng


class TestPartitionData:
    def test_contiguous_sizes(self):
        part = partition_data(10, 4, CONTIGUOUS)
        assert tuple(map(len, part)) == (3, 3, 2, 2)
        assert part[0] == (0, 1, 2)

    def test_single_client(self):
        part = partition_data(8, 1, CONTIGUOUS)
        assert part == (tuple(range(8)),)

    def test_paper_scale_split(self):
        part = partition_data(11000, 8, CONTIGUOUS)
        assert tuple(map(len, part)) == (1375,) * 8

    def test_rejects_bad_client_counts(self):
        with pytest.raises(ValueError):
            partition_data(4, 0, CONTIGUOUS)
        with pytest.raises(ValueError):
            partition_data(4, 5, CONTIGUOUS)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            partition_data(4, 2, "round-robin")

    def test_shuffle_deterministic(self):
        a = partition_data(20, 3, SHUFFLED, seed=7)
        b = partition_data(20, 3, SHUFFLED, seed=7)
        c = partition_data(20, 3, SHUFFLED, seed=8)
        assert a == b
        assert a != c

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), strategy=st.sampled_from([CONTIGUOUS, SHUFFLED]),
           seed=st.integers())
    def test_is_set_partition(self, data, strategy, seed):
        m = data.draw(st.integers(1, 300), label="m")
        n_clients = data.draw(st.integers(1, m), label="n_clients")
        part = partition_data(m, n_clients, strategy, seed=seed)
        flat = list(chain(*part))
        assert sorted(flat) == list(range(m))
        sizes = [len(group) for group in part]
        assert len(sizes) == n_clients
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] - sizes[-1] <= 1
        assert partition_data(m, n_clients, strategy, seed=seed) == part
        assert all(type(i) is int for i in flat)
        # IRIG steps through chain(*clients): the order must not depend on S
        assert flat == list(chain(*partition_data(m, 1, strategy, seed=seed)))


class TestCostModel:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel((np.array([1.0, -1.0]),), np.array([0.0]))
        with pytest.raises(ValueError):
            CostModel((np.array([1.0]),), np.array([-0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_update_cost(self, bad):
        with pytest.raises(ValueError, match=f"per-update costs must be finite .* got {bad}"):
            CostModel((np.ones(2), np.array([1.0, bad])), np.zeros(2))

    @pytest.mark.parametrize("comm", [[math.nan, 2.0], [2.0, math.nan], [1.0, math.inf]])
    def test_rejects_non_finite_link_cost(self, comm):
        # A NaN link cost made round_time's max depend on its position.
        with pytest.raises(ValueError, match="communication costs must be finite"):
            CostModel((np.ones(1), np.ones(1)), comm)

    def test_sizes_are_array_lengths(self):
        costs = uniform_costs((3, 1, 2), per_update=0.5, comm=2.0)
        assert costs.sizes == (3, 1, 2)
        assert all(np.array_equal(c, [0.5] * n) for c, n in zip(costs.per_update, (3, 1, 2)))
        assert np.array_equal(costs.comm, [2.0, 2.0, 2.0])


class TestSimulateRoundTime:
    def test_uniform_balanced(self):
        costs = uniform_costs(tuple(map(len, partition_data(8, 4, CONTIGUOUS))))
        assert round_time(costs, FISM) == 2.0
        assert round_time(costs, IRIG) == 8.0

    def test_single_client_degeneracy(self):
        costs = uniform_costs(tuple(map(len, partition_data(8, 1, CONTIGUOUS))))
        assert round_time(costs, FISM) == round_time(costs, IRIG) == 8.0

    def test_comm_term_additive(self):
        costs = uniform_costs(tuple(map(len, partition_data(8, 4, CONTIGUOUS))), comm=3.0)
        assert round_time(costs, FISM) == 5.0

    def test_missing_entry(self):
        # a client without a link cost, and a link cost without a client
        with pytest.raises(ValueError):
            CostModel((np.ones(2), np.ones(2)), np.zeros(1))
        with pytest.raises(ValueError):
            CostModel((np.ones(2),), np.zeros(2))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            round_time(uniform_costs((2, 2)), "sgd")

    def test_left_to_right_summation(self):
        # 0.1 + 0.1 + ... (ten terms, left to right) = 0.9999999999999999;
        # pairwise or compensated summation would give 1.0
        costs = uniform_costs((10,), per_update=0.1)
        assert round_time(costs, IRIG) == 0.9999999999999999
        assert round_time(costs, FISM) == 0.9999999999999999

    def test_client_sums_added_left_to_right(self):
        # (0.1 + 0.2) + 0.3 = 0.6000000000000001; builtin sum gives 0.6 from
        # Python 3.12 on
        costs = CostModel((np.array([0.1]), np.array([0.2]), np.array([0.3])), np.zeros(3))
        assert round_time(costs, IRIG) == 0.6000000000000001

    def test_federated_bounded_by_sequential(self):
        # with slower sequential per-update costs t >= s, the federated round
        # never exceeds the sequential round plus the worst link
        rng = make_rng(31)
        for _ in range(50):
            m = int(rng.integers(2, 40))
            n_clients = int(rng.integers(1, m + 1))
            part = partition_data(m, n_clients, CONTIGUOUS)
            s = []
            t = []
            for size in map(len, part):
                s.append([])
                t.append([])
                for _ in range(size):
                    base = float(rng.uniform(0.1, 2.0))
                    s[-1].append(base)
                    t[-1].append(base + float(rng.uniform(0.0, 1.0)))
            eps = [float(rng.uniform(0.0, 2.0)) for _ in range(n_clients)]
            fism_time = round_time(CostModel(tuple(s), eps), FISM)
            irig_time = round_time(CostModel(tuple(t), [0.0] * n_clients), IRIG)
            assert fism_time <= irig_time + max(eps) + 1e-12

    def test_uniform_speedup_ratio(self):
        # equal costs, zero comm, balanced: T_fism = ceil(m / S) / m * T_irig
        for m, n_clients in [(500, 1), (500, 2), (500, 4), (500, 8), (10, 3)]:
            costs = uniform_costs(tuple(map(len, partition_data(m, n_clients, CONTIGUOUS))))
            fism_time = round_time(costs, FISM)
            irig_time = round_time(costs, IRIG)
            assert fism_time == pytest.approx(-(-m // n_clients) / m * irig_time)
