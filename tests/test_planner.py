"""Planner: inverse solutions, trade-off grid, and cost optimization."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from episcope import planner
from episcope.planner import (
    TRADEOFF_CSV_HEADER,
    CostModel,
    min_cost_design,
    min_episodes_for_ci,
    min_episodes_for_variance,
    tradeoff_csv,
    tradeoff_table,
)
from episcope.variance import (
    STD_BOUND_SLACK,
    AccuracyPrior,
    EvalDesign,
    estimator_variance,
    per_episode_variance,
)


def reference_min_episodes(prior, kq, target):
    """Independent scalar solver: ceil of v1/target, then -1 and +1 steps to the exact count."""
    v1 = per_episode_variance(prior, kq)
    if v1 <= 0.0:
        return 1
    ratio = v1 / target
    if not ratio < 2**53:
        raise ValueError(
            f"target_var={target:g} needs about {ratio:.3g} episodes at "
            f"Kq={kq}, beyond the 2**53 an episode count may reach"
        )
    episodes = max(1, math.ceil(ratio))
    while episodes > 1 and v1 / (episodes - 1) <= target:
        episodes -= 1
    while v1 / episodes > target:
        episodes += 1
    return episodes


def brute_force_min_episodes(prior, kq, target, kp_max=100_000):
    """Independent oracle: scan Kp upward until the variance target is met."""
    for kp in range(1, kp_max + 1):
        if estimator_variance(prior, EvalDesign(kp, kq)) <= target:
            return kp
    raise AssertionError("target unreachable within scan bound")


class TestMinEpisodes:
    def test_wide_query_design_near_published_episode_count(self):
        """Target 7e-6 at Kq=2975 needs 116 episodes with the rounded inputs."""
        prior = AccuracyPrior(0.93, 0.028)
        assert min_episodes_for_variance(prior, 2975, 7e-6) == 116

    def test_single_trial_meets_quarter_variance(self):
        assert min_episodes_for_variance(AccuracyPrior(0.5, 0.0), 1, 0.25) == 1

    def test_inverts_forward_formula(self):
        prior = AccuracyPrior(0.87, 0.05)
        target = estimator_variance(prior, EvalDesign(600, 75))
        assert min_episodes_for_variance(prior, 75, target) == 600

    def test_matches_brute_force_on_fixed_cases(self):
        cases = [
            (AccuracyPrior(0.93, 0.028), 2975, 7e-6),
            (AccuracyPrior(0.93, 0.028), 2975, 6.6e-6),
            (AccuracyPrior(0.87, 0.05), 75, 6.6245e-6),
            (AccuracyPrior(0.6, 0.01), 10, 1e-4),
            (AccuracyPrior(0.5, 0.0), 3, 0.011),
        ]
        for prior, kq, target in cases:
            assert min_episodes_for_variance(prior, kq, target) == brute_force_min_episodes(
                prior, kq, target
            )

    @pytest.mark.parametrize("target", [1e-27, 1e-30, 1e-310])
    def test_unreachable_target_raises(self, target):
        """A count past 2**53 raises at once instead of stepping through equal floats."""
        with pytest.raises(ValueError, match=r"target_var=.*2\*\*53"):
            min_episodes_for_variance(AccuracyPrior(0.87, 0.05), 75, target)

    def test_target_just_under_limit_returns(self):
        """About 4e15 episodes, below 2**53: still the exact smallest count."""
        prior = AccuracyPrior(0.87, 0.05)
        target = 1e-18
        kp = min_episodes_for_variance(prior, 75, target)
        v1 = estimator_variance(prior, EvalDesign(1, 75))
        assert v1 / kp <= target < v1 / (kp - 1)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="target_var"):
            min_episodes_for_variance(AccuracyPrior(0.9, 0.01), 10, 0.0)
        with pytest.raises(ValueError, match="target_var"):
            min_episodes_for_variance(AccuracyPrior(0.9, 0.01), 10, -1e-6)


class TestMinEpisodesForCi:
    def test_halfwidth_inversion_near_published_choice(self):
        """A 0.51-point target at Kq=2975 solves to 119 episodes."""
        assert min_episodes_for_ci(AccuracyPrior(0.93, 0.028), 2975, 0.0051) == 119

    def test_zero_spread_perfect_estimation(self):
        assert min_episodes_for_ci(AccuracyPrior(0.7, 0.0), 10**6, 0.01) == 1

    def test_baseline_design_halfwidth(self):
        """(0.87, 0.05, Kq=75) at a 0.504-point width: ceil lands on 602."""
        got = min_episodes_for_ci(AccuracyPrior(0.87, 0.05), 75, 0.00504)
        assert got == 602
        assert got == brute_force_min_episodes(
            AccuracyPrior(0.87, 0.05), 75, (0.00504 / 1.96) ** 2
        )

    def test_equivalent_to_variance_form(self):
        prior = AccuracyPrior(0.93, 0.028)
        hw = 0.005
        assert min_episodes_for_ci(prior, 500, hw) == min_episodes_for_variance(
            prior, 500, (hw / 1.96) ** 2
        )

    def test_rejects_out_of_range_halfwidth(self):
        for hw in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError, match="target_halfwidth"):
                min_episodes_for_ci(AccuracyPrior(0.9, 0.01), 10, hw)


class TestRoundTripProperty:
    @given(
        st.floats(0.05, 0.95),
        st.floats(0.0, 0.9),
        st.integers(1, 3_000),
        st.integers(1, 5_000),
    )
    @settings(max_examples=200)
    def test_inverse_recovers_forward_episode_count(self, mean, frac, kp, kq):
        prior = AccuracyPrior(mean, frac * math.sqrt(mean * (1 - mean)))
        target = estimator_variance(prior, EvalDesign(kp, kq))
        assert min_episodes_for_variance(prior, kq, target) == kp

    @given(st.floats(0.05, 0.95), st.integers(1, 500), st.integers(1, 500))
    @settings(max_examples=100)
    def test_monotone_in_target_and_queries(self, mean, kq, kp_probe):
        prior = AccuracyPrior(mean, 0.3 * math.sqrt(mean * (1 - mean)))
        target = estimator_variance(prior, EvalDesign(kp_probe, kq))
        kp_low = min_episodes_for_variance(prior, kq, target)
        assert min_episodes_for_variance(prior, kq, target * 2) <= kp_low
        assert min_episodes_for_variance(prior, kq + 50, target) <= kp_low


class TestMatchesReferenceSolver:
    @staticmethod
    def outcome(solve, prior, kq, target):
        try:
            return solve(prior, kq, target)
        except ValueError as exc:
            return str(exc)

    @given(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        st.integers(1, 10**7),
        st.one_of(
            st.integers(1, 10**6),
            st.integers(2**53 - 10**6, 2**53 + 10**6),
            st.integers(2**52, 2**53 + 2**40),
        ),
        st.floats(0.5, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, mean, std_fraction, kq, kp, scale):
        """Same count or same error, at forward-formula targets, v1 = 0 and counts near 2**53.

        Targets below the smallest normal float raise instead; there the
        reference's -1/+1 steps may not end in reasonable time.
        """
        prior = AccuracyPrior(mean, std_fraction * math.sqrt(mean * (1.0 - mean)))
        v1 = per_episode_variance(prior, kq)
        for target in (v1 / kp if v1 > 0.0 else 1e-3, scale * v1 / kp if v1 > 0.0 else scale):
            if target == 0.0:  # v1 / kp underflowed
                continue
            got = self.outcome(min_episodes_for_variance, prior, kq, target)
            if "smallest normal float" in str(got):
                assert target < sys.float_info.min
            else:
                assert got == self.outcome(reference_min_episodes, prior, kq, target)

    def test_subnormal_target_raises_at_once(self):
        """At v1 = 1e-310 the -1/+1 steps from ceil(v1 / target) would be ~1e11 steps."""
        with pytest.raises(ValueError, match="target_var=.* smallest normal float"):
            min_episodes_for_variance(AccuracyPrior(1e-310, 0.0), 1, 1e-310 / 2**40)
        # v1 = 0 meets any target with one episode, subnormal or not.
        assert min_episodes_for_variance(AccuracyPrior(0.0, 0.0), 1, 1e-322) == 1


class TestTradeoffTable:
    def test_reference_configs_are_comparable(self):
        """Both benchmark designs sit in the same variance band."""
        prior_old = AccuracyPrior(0.87, 0.05)
        prior_new = AccuracyPrior(0.93, 0.028)
        v_old = tradeoff_table(prior_old, [600], [75])[0].report.exact_var
        v_new = tradeoff_table(prior_new, [120], [2975])[0].report.exact_var
        assert v_old == pytest.approx(6.62e-6, abs=5e-9)
        assert v_new == pytest.approx(6.71e-6, abs=5e-9)
        assert abs(v_old - v_new) / v_old < 0.02

    def test_degenerate_single_cell(self):
        cell = tradeoff_table(AccuracyPrior(0.0, 0.0), [1], [1])[0]
        assert cell.report.exact_var == 0.0

    def test_grid_matches_pointwise_recomputation(self):
        prior = AccuracyPrior(0.8, 0.03)
        cells = tradeoff_table(prior, [10, 20], [5, 50])
        assert [(c.episodes, c.queries_per_episode) for c in cells] == [
            (10, 5),
            (10, 50),
            (20, 5),
            (20, 50),
        ]
        for cell in cells:
            design = EvalDesign(cell.episodes, cell.queries_per_episode)
            assert cell.report.exact_var == estimator_variance(prior, design)

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            tradeoff_table(AccuracyPrior(0.8, 0.03), [], [5])
        with pytest.raises(ValueError, match="non-empty"):
            tradeoff_table(AccuracyPrior(0.8, 0.03), [5], [])

    def test_csv_shape(self):
        cells = tradeoff_table(AccuracyPrior(0.8, 0.03), [10], [5, 50])
        text = tradeoff_csv(cells)
        lines = text.strip().split("\n")
        assert lines[0] == TRADEOFF_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("10,5,")


class TestMinCostDesign:
    def test_free_queries_maximize_queries(self):
        """With cost only on episodes, extra queries are free precision."""
        prior = AccuracyPrior(0.93, 0.028)
        cost = CostModel(cost_per_episode=5.59, cost_per_query=0.0)
        result = min_cost_design(prior, cost, 7e-6, kq_max=2975)
        assert result.queries_per_episode == 2975
        assert result.episodes == min_episodes_for_variance(prior, 2975, 7e-6) == 116
        assert result.total_cost == pytest.approx(116 * 5.59)

    def test_episode_heavy_cost_matches_published_plan(self):
        """Specialization at 5.59h/episode and near-free queries: ~648h."""
        prior = AccuracyPrior(0.93, 0.028)
        cost = CostModel(cost_per_episode=5.59, cost_per_query=1e-9)
        result = min_cost_design(prior, cost, 7e-6, kq_max=2975)
        assert result.episodes == 116
        assert result.total_cost == pytest.approx(648.44, abs=0.5)

    def test_query_only_cost_drives_small_total_queries(self):
        """With free episodes, the scan settles near Kp*Kq >= a(1-a)/target."""
        prior = AccuracyPrior(0.5, 0.0)
        cost = CostModel(cost_per_episode=0.0, cost_per_query=1.0)
        target = 1e-3
        result = min_cost_design(prior, cost, target, kq_max=50)
        floor = prior.mean * (1 - prior.mean) / target  # = 250 queries
        total_queries = result.episodes * result.queries_per_episode
        assert total_queries >= floor
        assert result.total_cost <= floor + 50  # no worse than one spare episode

    def test_exhaustive_scan_agreement_small_grid(self):
        """Global optimality against a brute-force scan of the whole grid."""
        prior = AccuracyPrior(0.8, 0.05)
        cost = CostModel(cost_per_episode=3.0, cost_per_query=0.01)
        target = 5e-4
        kq_max = 40
        result = min_cost_design(prior, cost, target, kq_max)

        best = None
        for kq in range(1, kq_max + 1):
            kp = brute_force_min_episodes(prior, kq, target)
            key = (cost.total(kp, kq), kp, -kq)
            best = key if best is None or key < best else best
        assert result.total_cost == pytest.approx(best[0])
        assert (result.episodes, result.queries_per_episode) == (best[1], -best[2])

    def test_result_meets_constraint_and_no_cheaper_neighbor(self):
        prior = AccuracyPrior(0.9, 0.02)
        cost = CostModel(cost_per_episode=2.0, cost_per_query=0.05)
        target = 2e-5
        result = min_cost_design(prior, cost, target, kq_max=200)
        design = EvalDesign(result.episodes, result.queries_per_episode)
        assert estimator_variance(prior, design) <= target
        assert result.predicted_var == estimator_variance(prior, design)

        for dkp, dkq in ((-1, 0), (0, -1), (-1, -1)):
            kp = result.episodes + dkp
            kq = result.queries_per_episode + dkq
            if kp < 1 or kq < 1:
                continue
            if estimator_variance(prior, EvalDesign(kp, kq)) <= target:
                assert cost.total(kp, kq) >= result.total_cost

    def test_cost_model_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            CostModel(-1.0, 0.5)
        with pytest.raises(ValueError, match="non-zero"):
            CostModel(0.0, 0.0)


def scalar_min_cost_design(prior, cost, target, kq_max):
    """Reference: one reference solve per Kq, best key (cost, Kp, -Kq)."""
    best = None
    for kq in range(1, kq_max + 1):
        kp = reference_min_episodes(prior, kq, target)
        key = (cost.total(kp, kq), kp, -kq)
        if best is None or key < best:
            best = key
    return best[1], -best[2], best[0]


class TestMinCostDesignExact:
    @given(
        st.floats(0.0, 1.0),
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        st.sampled_from([0.0, 1e-9, 0.37, 1.0, 5.59, 100.0]),
        st.sampled_from([0.0, 1e-9, 0.01, 1.0, 3.0]),
        st.floats(1e-9, 1e-1),
        st.integers(1, 5_000),
        st.integers(1, 700),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_scan(self, mean, std_fraction, ce, cq, target, kq_max, chunk):
        """Bit-identical to the per-Kq scan, across chunk boundaries and cost ties."""
        if ce == 0.0 and cq == 0.0:
            cq = 1.0
        prior = AccuracyPrior(mean, std_fraction * math.sqrt(mean * (1.0 - mean)))
        cost = CostModel(ce, cq)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planner, "_KQ_CHUNK", chunk)
            result = min_cost_design(prior, cost, target, kq_max)
        got = (result.episodes, result.queries_per_episode, result.total_cost)
        assert got == scalar_min_cost_design(prior, cost, target, kq_max)

    def test_unreachable_target_raises_like_scalar_solver(self):
        prior = AccuracyPrior(0.87, 0.05)
        with pytest.raises(ValueError, match=r"target_var=1e-30 .* Kq=1,"):
            min_cost_design(prior, CostModel(1.0, 1.0), 1e-30, 100)


class TestCheapestRow:
    """The chunk pick equals the first row of a 3-key lexsort (total, Kp, -Kq)."""

    @pytest.mark.parametrize(
        "rates", [(1.0, 0.0), (0.0, 1.0), (100.0, 1.0)], ids=["queries_free", "episodes_free", "bench"]
    )
    @pytest.mark.parametrize("start", [1, 40, 8193])
    def test_matches_lexsort_on_solved_chunks(self, rates, start):
        prior = AccuracyPrior(0.87, 0.05)
        cost = CostModel(*rates)
        kq = np.arange(start, start + planner._KQ_CHUNK, dtype=np.float64)
        ties = 0
        for target in (1e-2, 1e-4, 6.62e-6):
            kp = planner._min_episodes(prior, kq, target)
            total = cost.total(kp, kq)
            ties += np.count_nonzero(total == total.min()) > 1
            assert planner._cheapest_row(total, kp) == np.lexsort((-kq, kp, total))[0]
        if rates[1] == 0.0:  # the total is Kp times a rate, which Kp repeats
            assert ties == 3

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), min_size=1, max_size=40))
    def test_matches_lexsort_on_forced_ties(self, rows):
        total, kp = (np.array(column, dtype=np.float64) for column in zip(*rows))
        kq = np.arange(1.0, len(rows) + 1.0)
        assert planner._cheapest_row(total, kp) == np.lexsort((-kq, kp, total))[0]


class TestTailCostFloor:
    @given(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
        st.one_of(st.none(), st.integers(1023, 1074)),
        st.sampled_from([0.0, 1e-9, 0.37, 1.0, 5.59, 100.0, 1e3, 1e4, 1e5, 1e6]),
        st.sampled_from([0.0, 1e-9, 0.01, 1.0, 3.0]),
        st.one_of(
            st.floats(-30.0, -0.5).map(lambda e: 10.0**e),
            st.sampled_from([1e-300, 1e-310, 1e-320]),
            st.tuples(st.integers(1, 30_000), st.integers(1, 10**9)),
        ),
        st.integers(1, 25_000),
        st.one_of(st.integers(0, 3), st.integers(0, 3_000)),
    )
    @settings(max_examples=400, deadline=None)
    def test_never_above_least_computed_cost(
        self, mean, std_fraction, slack, subnormal, ce, cq, target, kq_low, width
    ):
        """The floor of [kq_low, kq_high] is at most every computed ``cost.total`` there.

        Brute force over the range with the solver itself. sigma^2 runs from 0
        through a(1-a) to 0.99 * STD_BOUND_SLACK past it, or is the subnormal
        2**-k; rates may be zero. Where the solver raises on the range, the
        floor must be -inf, so that the scan never skips the range.
        """
        if ce == 0.0 and cq == 0.0:
            cq = 1.0
        bound = mean * (1.0 - mean)
        if subnormal is None:
            std = math.sqrt(std_fraction**2 * bound + slack * STD_BOUND_SLACK)
        else:
            std = 2.0 ** (-subnormal / 2)
        prior = AccuracyPrior(mean, std)
        cost = CostModel(ce, cq)
        if isinstance(target, tuple):
            kq_probe, kp_probe = target
            target = per_episode_variance(prior, kq_probe) / kp_probe
            if target == 0.0:
                target = 1e-3
        kq_high = kq_low + width
        floor = planner._tail_cost_floor(prior, cost, target, kq_low, kq_high)
        kq = np.arange(kq_low, kq_high + 1, dtype=np.float64)
        try:
            kp = planner._min_episodes(prior, kq, target)
        except ValueError:
            assert floor == -math.inf
            return
        assert floor <= cost.total(kp, kq).min()


def unpruned_min_cost_design(prior, cost, target, kq_max):
    """Reference: the chunked scan over every Kq up to kq_max, with no early stop.

    Returns the best key (cost, Kp, -Kq), or the solver's error message.
    """
    best = None
    try:
        for start in range(1, kq_max + 1, planner._KQ_CHUNK):
            kq = np.arange(start, min(start + planner._KQ_CHUNK, kq_max + 1), dtype=np.float64)
            kp = planner._min_episodes(prior, kq, target)
            total = cost.total(kp, kq)
            i = np.lexsort((-kq, kp, total))[0]
            key = (float(total[i]), int(kp[i]), -int(kq[i]))
            if best is None or key < best:
                best = key
    except ValueError as exc:
        return str(exc)
    return best


def pruned_outcome(prior, cost, target, kq_max):
    try:
        result = min_cost_design(prior, cost, target, kq_max)
    except ValueError as exc:
        return str(exc)
    return (result.total_cost, result.episodes, -result.queries_per_episode)


# The benchmark's planning inputs; the optimum is Kp = 631 at Kq = 66.
BENCH_PRIOR = AccuracyPrior(0.87, 0.05)
BENCH_COST = CostModel(cost_per_episode=100.0, cost_per_query=1.0)
BENCH_TARGET = 6.62e-6


class TestMinCostDesignEarlyStop:
    @staticmethod
    def solve_counting(prior, cost, target, kq_max):
        """The design found, and the length of each Kq chunk solved on the way."""
        solved = []
        solve = planner._min_episodes

        def spy(prior, kq, target):
            solved.append(len(kq))
            return solve(prior, kq, target)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planner, "_min_episodes", spy)
            result = min_cost_design(prior, cost, target, kq_max)
        return (result.episodes, result.queries_per_episode), solved

    def test_wide_range_solves_one_chunk(self):
        """Kq_c = 66.5, and the tail floor from Kq = 181 on passes the design near it,
        so the first chunk ends at 180 and no Kq past it can beat Kq = 66: 180 Kq
        values are solved at either kq_max, against 2975 and 8192 when the first
        chunk held 8192.
        """
        for kq_max in (2975, 1_000_000):
            got = self.solve_counting(BENCH_PRIOR, BENCH_COST, BENCH_TARGET, kq_max)
            assert got == ((631, 66), [180])

    @given(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
        st.sampled_from([0.0, 1e-9, 0.37, 1.0, 5.59, 100.0, 1e3, 1e4, 1e5, 1e6]),
        st.sampled_from([0.0, 1e-9, 0.01, 1.0, 3.0]),
        st.one_of(
            st.floats(-30.0, -0.5).map(lambda e: 10.0**e),
            st.sampled_from([1e-310, 1e-320]),
            st.tuples(st.integers(1, 10**6), st.integers(1, 10**5)),
        ),
        st.integers(1, 200_000),
        st.one_of(st.integers(1, 700), st.just(1 << 13)),
    )
    # Under a subnormal target the first chunk must keep its full length: Kq = 2
    # needs 2**53 episodes, and a one-value chunk would raise the subnormal error first.
    @example(5e-324, 0.0, 0.5, 0.0, 1.0, 1e-310, 2, 1 << 13)
    @settings(max_examples=300, deadline=None)
    def test_equals_unpruned_scan(self, mean, std_fraction, slack, ce, cq, target, kq_max, chunk):
        """Same design or same error as the full scan, including sigma^2 at and just past a(1-a).

        ``slack`` moves sigma^2 up to 0.99 * STD_BOUND_SLACK past
        std_fraction^2 * a(1-a), where v1 can rise with Kq. A (Kq, Kp) pair
        stands for the forward-formula target v1(Kq) / Kp, which puts
        v1 / target on whole numbers, where the episode-count bound is
        tightest. Cost ratios c_e / c_q reach 1e6 at c_q = 1, so that optima
        fall past the first chunk. Chunks are kept to at least kq_max / 256
        values so that the reference stays quick.
        """
        if ce == 0.0 and cq == 0.0:
            cq = 1.0
        bound = mean * (1.0 - mean)
        prior = AccuracyPrior(mean, math.sqrt(std_fraction**2 * bound + slack * STD_BOUND_SLACK))
        cost = CostModel(ce, cq)
        if isinstance(target, tuple):
            kq_probe, kp_probe = target
            target = per_episode_variance(prior, kq_probe) / kp_probe
            if target == 0.0:
                target = 1e-3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planner, "_KQ_CHUNK", max(chunk, kq_max // 256))
            expected = unpruned_min_cost_design(prior, cost, target, kq_max)
            assert pruned_outcome(prior, cost, target, kq_max) == expected

    def test_far_tail_past_2_53_episodes_is_scanned(self):
        """v1 = (1 - 1/Kq) sigma^2 rises with Kq (a = 0), and only Kq >= ~50000 needs
        2**53 episodes. The bound after the first chunk passes Kq = 1's cost, so
        only the error check keeps the scan going to the Kq that raises.
        """
        prior = AccuracyPrior(0.0, 1e-6)
        target = prior.variance * (1.0 - 1.0 / 50_000) / 2**53
        cost = CostModel(1.0, 1.0)
        near = min_cost_design(prior, cost, target, planner._KQ_CHUNK)
        assert (near.episodes, near.queries_per_episode) == (1, 1)
        message = unpruned_min_cost_design(prior, cost, target, 100_000)
        assert "2**53" in message
        assert int(message.split("Kq=")[1].split(",")[0]) > planner._KQ_CHUNK
        with pytest.raises(ValueError) as exc:
            min_cost_design(prior, cost, target, 100_000)
        assert str(exc.value) == message

    def test_far_tail_below_smallest_normal_target_is_scanned(self, monkeypatch):
        """sigma^2 is the smallest subnormal: v1 is 0 at Kq = 1 and 2 and positive
        from Kq = 3, so with two Kq per chunk only the second chunk raises.
        """
        monkeypatch.setattr(planner, "_KQ_CHUNK", 2)
        prior = AccuracyPrior(0.0, 2.0**-537)
        cost = CostModel(1.0, 1.0)
        near = min_cost_design(prior, cost, 1e-320, 2)
        assert (near.episodes, near.queries_per_episode) == (1, 1)
        message = unpruned_min_cost_design(prior, cost, 1e-320, 10)
        assert "smallest normal float" in message
        with pytest.raises(ValueError) as exc:
            min_cost_design(prior, cost, 1e-320, 10)
        assert str(exc.value) == message
