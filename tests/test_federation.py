import numpy as np
import pytest

from fedbilevel.federation import (CONTIGUOUS, FISM, IRIG, SHUFFLED, CostModel,
                                   partition_data, round_time, uniform_costs)
from fedbilevel.rng import make_rng


class TestPartitionData:
    def test_contiguous_sizes(self):
        part = partition_data(10, 4, CONTIGUOUS)
        assert part.sizes == (3, 3, 2, 2)
        assert part.assignments[0] == (0, 1, 2)

    def test_single_client(self):
        part = partition_data(8, 1, CONTIGUOUS)
        assert part.assignments == (tuple(range(8)),)

    def test_paper_scale_split(self):
        part = partition_data(11000, 8, CONTIGUOUS)
        assert part.sizes == (1375,) * 8

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

    def test_is_set_partition(self):
        rng = make_rng(23)
        for _ in range(20):
            m = int(rng.integers(1, 200))
            n_clients = int(rng.integers(1, m + 1))
            strategy = CONTIGUOUS if rng.random() < 0.5 else SHUFFLED
            part = partition_data(m, n_clients, strategy, seed=int(rng.integers(1000)))
            flat = [g for group in part.assignments for g in group]
            assert sorted(flat) == list(range(m))
            assert max(part.sizes) - min(part.sizes) <= 1


class TestCostModel:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel((np.array([1.0, -1.0]),), np.array([0.0]))
        with pytest.raises(ValueError):
            CostModel((np.array([1.0]),), np.array([-0.5]))

    def test_sizes_are_array_lengths(self):
        costs = uniform_costs((3, 1, 2), per_update=0.5, comm=2.0)
        assert costs.sizes == (3, 1, 2)
        assert all(np.array_equal(c, [0.5] * n) for c, n in zip(costs.per_update, (3, 1, 2)))
        assert np.array_equal(costs.comm, [2.0, 2.0, 2.0])


class TestSimulateRoundTime:
    def test_uniform_balanced(self):
        costs = uniform_costs(partition_data(8, 4, CONTIGUOUS).sizes)
        assert round_time(costs, FISM) == 2.0
        assert round_time(costs, IRIG) == 8.0

    def test_single_client_degeneracy(self):
        costs = uniform_costs(partition_data(8, 1, CONTIGUOUS).sizes)
        assert round_time(costs, FISM) == round_time(costs, IRIG) == 8.0

    def test_comm_term_additive(self):
        costs = uniform_costs(partition_data(8, 4, CONTIGUOUS).sizes, comm=3.0)
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
            for size in part.sizes:
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
            costs = uniform_costs(partition_data(m, n_clients, CONTIGUOUS).sizes)
            fism_time = round_time(costs, FISM)
            irig_time = round_time(costs, IRIG)
            assert fism_time == pytest.approx(-(-m // n_clients) / m * irig_time)
