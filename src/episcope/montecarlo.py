"""Beta-Binomial simulator for the accuracy estimator.

Checks the closed-form variance model empirically: per-episode accuracies
follow a Beta distribution moment-matched to the prior (the model itself is
distribution-free over [0,1], so any family with the right two moments works,
and Beta fits in closed form), each episode is evaluated with Kq Bernoulli
queries, and the spread of the resulting mean accuracy across many
replications is compared against the formula.

Under that model one episode's correct count is exactly BetaBinomial(Kq,
alpha, beta), or Binomial(Kq, mean) for a zero-variance prior, and a
replication's total is a sum of Kp iid such counts. One ratio recurrence
gives both count pmfs (``_count_pmf``). ``simulate`` needs only that total.
It draws it as a few group totals of g episodes each, inverting
one uniform per group through the exact CDF of the g-fold convolution power
of the count pmf, all from one Philox stream keyed by the master seed (the
layout is in ``simulate``'s docstring). Results are bit-identical for a given
master seed. The block size that bounds the draw's memory is not part of the
stream, but the group constant ``_GROUP_COUNTS`` is: changing it changes the
output for every Kq < 2**14 and needs a new stream version. At Kq >= 2**14
each group is one episode, inverted through the count CDF itself.

The inversion is the guide-table (indexed) search of Chen & Asau (1974) and
Devroye (1986, sec. III.2.4). For a table of n entries and m the power of two
>= n - 1, ``_guide`` stores, for each j = 0..m, how many entries are <= j/m.
A uniform u falls in bucket j = floor(u*m), exactly so since m is a power of
two. When the bucket's bounds, entries j and j+1 of the guide, differ by at
most one, a single comparison with the table picks the index; the rare
uniforms in wider buckets fall back to the binary search. The index is the
one ``np.searchsorted(table, u, side="right")`` returns, for every u, so the
lookup is not part of the stream either.

``decompose_variance`` and ``episode_counts`` need the true accuracies, so
they keep the two-stage draw in ``_draw_episodes``: a_p ~ Beta, then counts ~
Binomial(Kq, a_p). Each reads one Philox stream keyed by its seed;
``decompose_variance`` makes one ``_draw_episodes`` call per replication, in
replication order, on that stream. ``sweep`` keys sweep point i with child
seed i of its master seed (``seeds.substream_seeds``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeds import check_seed, philox_generator, substream_seeds
from .variance import AccuracyPrior, EvalDesign, _check_positive_int, estimator_variance

# Margin keeping the Beta fit away from the two-point boundary distribution.
_INTERIOR_SLACK = 1e-12

# Uniforms ``simulate`` draws per block (at least one replication's worth).
# It bounds memory only: the stream does not depend on it. ``_invert`` holds
# about 40 bytes of temporaries per uniform, under 1 MB per block.
_BLOCK_DRAWS = 1 << 14

# Counts per pmf evaluation in ``_count_pmf``; bounds memory only.
_CDF_CHUNK = 1 << 16

# Stream constant: ``simulate`` groups g = min(Kp, max(1, _GROUP_COUNTS // Kq))
# episodes per uniform, so each group table has at most _GROUP_COUNTS + 1
# entries. Changing it changes the stream.
_GROUP_COUNTS = 1 << 14


def fit_beta(prior: AccuracyPrior) -> tuple[float, float] | None:
    """Moment-matched Beta(alpha, beta) for the prior's mean and variance.

    Returns None when the prior's variance is 0 in float (std 0, or std below
    ~1.5e-162, whose square underflows): its law is the point mass at the
    mean. Otherwise, with nu = mean*(1-mean)/var - 1, alpha = mean*nu and beta
    = (1-mean)*nu reproduce both moments exactly. Raises ``ValueError`` when
    no interior Beta has these moments, or when a subnormal variance makes
    alpha or beta overflow.
    """
    mean, var = prior.mean, prior.variance
    if var == 0.0:
        return None
    if not 0.0 < mean < 1.0:
        raise ValueError(f"Beta fit needs 0 < mean < 1, got {mean}")
    bound = mean * (1.0 - mean)
    if var >= bound - _INTERIOR_SLACK:
        raise ValueError(
            f"prior variance {var:.6g} is at or beyond the two-point boundary "
            f"{bound:.6g}; no interior Beta distribution has these moments"
        )
    nu = bound / var - 1.0
    if not math.isfinite(nu):
        raise ValueError(
            f"prior std {prior.std:.6g} is too small for a Beta fit (alpha and beta "
            "overflow); use std 0, the point mass at the mean"
        )
    return mean * nu, (1.0 - mean) * nu


@dataclass(frozen=True)
class SimConfig:
    """One simulation: prior, design, replication count and master seed."""

    prior: AccuracyPrior
    design: EvalDesign
    replications: int
    master_seed: int

    def __post_init__(self) -> None:
        _check_positive_int(self.replications, "replications")
        if self.replications < 2:
            raise ValueError("replications must be >= 2 (sample variance needs two points)")
        check_seed(self.master_seed, "master_seed")
        fit_beta(self.prior)  # raises unless the prior is a point mass or has a Beta fit


@dataclass(frozen=True)
class SimReport:
    """Empirical vs. theoretical moments of the mean-accuracy estimator."""

    empirical_mean: float
    empirical_var: float
    empirical_var_se: float
    theoretical_mean: float
    theoretical_var: float
    rel_var_error: float
    var_z: float
    replications: int


@dataclass(frozen=True)
class VarianceDecomposition:
    """Measured vs. expected pieces of the total-variance split.

    ``between`` is the variance of the true per-episode accuracies across all
    draws; ``within`` is the mean squared deviation of the query-estimated
    accuracy from the episode's true accuracy, expected a*(1-a)-adjusted and
    divided by Kq.
    """

    between_measured: float
    between_expected: float
    within_measured: float
    within_expected: float
    replications: int


def _draw_episodes(
    rng: np.random.Generator,
    alpha_beta: tuple[float, float] | None,
    mean: float,
    kp: int,
    kq: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One simulated evaluation: Kp true accuracies and their correct counts.

    a_p ~ Beta(alpha, beta), or the point mass at ``mean`` when ``alpha_beta``
    is None; counts[p] ~ Binomial(Kq, a_p). The point mass passes the scalar
    mean with ``size=kp``: binomial's scalar-p path is faster and draws the
    same stream as a constant array.
    """
    if alpha_beta is None:
        a_p, p = np.full(kp, mean), mean
    else:
        a_p = p = rng.beta(alpha_beta[0], alpha_beta[1], size=kp)
    return a_p, rng.binomial(kq, p, size=kp)


def _count_pmf(prior: AccuracyPrior, kq: int) -> np.ndarray:
    """Pmf of one episode's correct count over 0..Kq.

    The count is BetaBinomial(Kq, alpha, beta) under the Beta fit, or
    Binomial(Kq, p), p the mean, for the point mass, where ``fit_beta``
    returns None. Both follow one ratio recurrence (cf. Loader 2000):
    pmf[k+1] / pmf[k] = (Kq-k)/(k+1) * s_k, with s_k = (k+alpha)/(Kq-k-1+beta)
    under the Beta fit and p/(1-p) for the point mass. The log ratios are
    summed outward from the entry at round(p*Kq); the maximum is subtracted
    and the exponentials are normalised. No terms cancel, so the table stays
    accurate however small the std. Every fit has alpha, beta > 1e-12 and
    alpha/beta = mean/(1-mean), so a Beta ratio is far from under- or
    overflow and takes one log; the point mass adds log p - log1p(-p),
    finite even for a subnormal p. p = 0 or 1 gives a one-hot table. The
    ratios are evaluated ``_CDF_CHUNK`` counts at a time and summed in
    place, so beyond the table only chunk-sized temporaries are held.
    """
    alpha_beta = fit_beta(prior)
    p = prior.mean
    anchor = round(p * kq)
    pmf = np.zeros(kq + 1)
    if alpha_beta is None:
        if p in (0.0, 1.0):
            pmf[anchor] = 1.0
            return pmf
        log_odds = math.log(p) - math.log1p(-p)
    else:
        a, b = alpha_beta

    def log_ratio(k: np.ndarray) -> np.ndarray:
        """log pmf[k+1] - log pmf[k]."""
        choose = (kq - k) / (k + 1.0)
        if alpha_beta is None:
            return np.log(choose) + log_odds
        return np.log(choose * ((k + a) / (kq - 1 - k + b)))

    # Entry k < anchor holds -log_ratio(k) and entry k + 1 > anchor holds
    # log_ratio(k), so running sums away from the anchor give log pmf[k] -
    # log pmf[anchor].
    for lo, hi, sign, shift in ((0, anchor, -1.0, 0), (anchor, kq, 1.0, 1)):
        for start in range(lo, hi, _CDF_CHUNK):
            stop = min(start + _CDF_CHUNK, hi)
            pmf[start + shift:stop + shift] = sign * log_ratio(np.arange(start, stop))
    for side in (pmf[anchor:], pmf[anchor::-1]):
        np.cumsum(side, out=side)
    pmf -= pmf.max()
    np.exp(pmf, out=pmf)
    pmf /= pmf.sum()
    return pmf


def _cdf_of(pmf: np.ndarray) -> np.ndarray:
    """Normalised running sum of ``pmf``, computed in place.

    Dividing by the total keeps it non-decreasing and ends it at exactly 1.0
    even when the pmf's rounding makes the raw sum overshoot 1 early.
    """
    cdf = np.cumsum(pmf, out=pmf)
    cdf /= cdf[-1]
    return cdf


def _int_power(z: np.ndarray, k: int) -> np.ndarray:
    """``z**k`` for a complex array and an integer k >= 1, by repeated squaring.

    Right-to-left binary exponentiation (Knuth, TAOCP vol. 2, sec. 4.6.3):
    about log2(k) squarings, and one multiply into the result per set bit of
    k, each over the whole array. numpy's own complex ``**`` multiplies like
    this only while k < 100 and computes exp(k*log z) from k = 100 on, which
    is ~15x slower on a spectrum of a few thousand entries. ``z`` is not
    modified.
    """
    result = None
    while True:
        if k & 1:
            result = z if result is None else result * z
        k >>= 1
        if not k:
            return result
        z = z * z


def _power_cdfs(pmf: np.ndarray, powers: tuple[int, ...]) -> list[np.ndarray]:
    """CDFs of the k-fold convolution powers of ``pmf``, one per k in ``powers``.

    The k-fold power is the law of a sum of k iid counts, over 0..k*(len-1).
    One real FFT of length n >= m = max(k)*(len-1) + 1 holds every power
    without wrap-around. n is m rounded up to its top four bits, c * 2**s with
    8 <= c <= 16 (n = m below 16), so n < 1.125*m and the transform is mostly
    radix 2. Each table is ``irfft(F**k)`` cut to k*(len-1) + 1 entries, with
    round-off negatives clipped to 0 before the running sum. F**k comes from
    repeated squaring (``_int_power``). Table round-off is not part of the
    stream, which fixes the uniforms and the exact CDFs they invert through; a
    draw can move only for a uniform within round-off (~1e-14) of a table
    entry.
    """
    kq = len(pmf) - 1
    m = max(powers) * kq + 1
    shift = max(0, m.bit_length() - 4)
    n = -(-m >> shift) << shift
    spectrum = np.fft.rfft(pmf, n)
    tables = []
    for k in powers:
        power = np.fft.irfft(_int_power(spectrum, k), n)[:k * kq + 1]
        tables.append(_cdf_of(np.maximum(power, 0.0, out=power)))
    return tables


def _moments(a_tilde: np.ndarray) -> tuple[float, float, float]:
    """Sample mean, sample variance (divisor n-1) and the variance's SE.

    The SE is sqrt((m4 - (n-3)/(n-1) * s^4) / n), with m4 the sample fourth
    central moment and s^2 the sample variance. It is never negative, since
    m4 >= m2^2, and it is 0 when every replication reads the same.
    """
    n = len(a_tilde)
    mean = float(np.mean(a_tilde))
    var = float(np.var(a_tilde, ddof=1))
    dev2 = np.square(a_tilde - mean)
    m4 = float(np.mean(dev2 * dev2))
    return mean, var, math.sqrt(max(0.0, m4 - (n - 3) / (n - 1) * var * var) / n)


def _guide(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a non-decreasing CDF that ends at exactly 1.0, for ``_invert``.

    With m the power of two >= len(cdf) - 1, entry j is #{i : cdf[i] <= j/m}
    for j = 0..m. cdf[i] <= j/m exactly when ceil(cdf[i]*m) <= j, as cdf[i]*m
    is exact for a power of two m, so entry j is one more than the last i with
    ceil(cdf[i]*m) <= j: the running maximum of i + 1 placed at bucket
    ceil(cdf[i]*m). The ceilings are taken ``_CDF_CHUNK`` entries at a time and
    the maximum runs in place, so beyond the guide itself (int32 below 2**31
    entries) the build needs only chunk-sized temporaries.
    """
    n = len(cdf)
    m = 1 << (n - 2).bit_length()
    guide = np.zeros(m + 1, dtype=np.int32 if n < 2**31 else np.int64)
    for start in range(0, n, _CDF_CHUNK):
        stop = min(start + _CDF_CHUNK, n)
        buckets = np.ceil(cdf[start:stop] * m).astype(np.intp)
        # The last i of each run of equal buckets carries the largest i + 1.
        last = np.append(buckets[1:] != buckets[:-1], True)
        guide[buckets[last]] = np.flatnonzero(last) + (start + 1)
    return np.maximum.accumulate(guide, out=guide)


def _invert(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for uniforms 0 <= u < 1, exactly.

    u lies in bucket j = floor(u*m) of ``_guide(cdf)``, u*m being exact, so
    the entries before guide[j] are <= j/m <= u and those from guide[j+1] on
    are > (j+1)/m > u. When guide[j+1] - guide[j] <= 1, only entry guide[j] is
    left to compare, and it exists because cdf[-1] is 1.0 > u. The few
    uniforms in wider buckets fall back to the binary search.
    """
    m = len(guide) - 1
    j = (u * m).astype(np.intp)
    lo = guide[j]
    index = lo + (cdf[lo] <= u)
    wide = guide[1:][j] - lo > 1
    if wide.any():
        index[wide] = np.searchsorted(cdf, u[wide], side="right")
    return index


def _draw_totals(config: SimConfig) -> np.ndarray:
    """Each replication's correct total over all Kp*Kq queries (see ``simulate``)."""
    kp, kq = config.design.episodes, config.design.queries_per_episode
    reps = config.replications
    group = min(kp, max(1, _GROUP_COUNTS // kq))
    q, r = divmod(kp, group)
    pmf = _count_pmf(config.prior, kq)
    tables = [_cdf_of(pmf)] if group == 1 else _power_cdfs(pmf, (group, r) if r else (group,))
    guides = [_guide(table) for table in tables]
    draws = q + (r > 0)
    rng = philox_generator(config.master_seed)
    block = max(1, _BLOCK_DRAWS // draws)
    totals = np.empty(reps, dtype=np.int64)
    for start in range(0, reps, block):
        m = min(block, reps - start)
        u = rng.random(m * draws).reshape(m, draws)
        block_totals = _invert(tables[0], guides[0], u[:, :q]).sum(axis=1)
        if r:
            block_totals += _invert(tables[1], guides[1], u[:, q])
        totals[start:start + m] = block_totals
    return totals


def simulate(config: SimConfig) -> SimReport:
    """Run the full simulation and compare moments against the closed form.

    Each replication's correct total is the sum of Kp episode counts, each
    BetaBinomial(Kq, alpha, beta), or Binomial(Kq, mean) for a zero-variance
    prior. It is drawn as q = Kp // g group totals of g episodes plus, when r =
    Kp % g > 0, one group total of r episodes, g = min(Kp, max(1,
    _GROUP_COUNTS // Kq)); each group total inverts one uniform through the
    exact CDF of the g-fold (or r-fold) convolution power of the count pmf.
    The uniforms come from one Philox stream keyed by the master seed,
    replication i taking uniforms i*D .. (i+1)*D-1 with D = q + (r > 0), the
    r-episode group last. They are drawn in blocks of whole replications, and
    the block size is not part of the stream; ``_GROUP_COUNTS`` is. At Kq >=
    _GROUP_COUNTS, g = 1 and each episode inverts its own uniform through
    the count CDF. Inverting u through a CDF means the count of its entries
    <= u, ``np.searchsorted(cdf, u, side="right")``; ``_invert`` finds it
    through a guide table in about one comparison instead of a binary search,
    with the same result for every u, so the lookup is not part of the stream.

    Reported variance uses divisor replications-1; ``empirical_var_se`` is
    its standard error from the sample fourth central moment, and ``var_z``
    is (empirical - theoretical) / SE, 0 when both variances are equal and
    +-inf when they differ at zero SE.
    """
    design = config.design
    totals = _draw_totals(config)
    a_tilde = totals / (design.episodes * design.queries_per_episode)
    empirical_mean, empirical_var, var_se = _moments(a_tilde)
    theoretical_var = estimator_variance(config.prior, design)
    if theoretical_var > 0.0:
        rel_var_error = abs(empirical_var / theoretical_var - 1.0)
    else:
        rel_var_error = 0.0 if empirical_var == 0.0 else float("inf")
    gap = empirical_var - theoretical_var
    if var_se > 0.0:
        var_z = gap / var_se
    else:
        var_z = 0.0 if gap == 0.0 else math.copysign(math.inf, gap)
    return SimReport(
        empirical_mean=empirical_mean,
        empirical_var=empirical_var,
        empirical_var_se=var_se,
        theoretical_mean=config.prior.mean,
        theoretical_var=theoretical_var,
        rel_var_error=rel_var_error,
        var_z=var_z,
        replications=config.replications,
    )


def sweep(
    prior: AccuracyPrior,
    kq_values: list[int],
    kp: int,
    replications: int,
    master_seed: int,
) -> list[SimReport]:
    """One simulation per Kq value, each on its own derived master seed."""
    if not kq_values:
        raise ValueError("kq_values must be non-empty")
    check_seed(master_seed, "master_seed")
    reports = []
    for kq, seed in zip(kq_values, substream_seeds(master_seed, len(kq_values)).tolist()):
        config = SimConfig(
            prior=prior,
            design=EvalDesign(episodes=kp, queries_per_episode=kq),
            replications=replications,
            master_seed=seed,
        )
        reports.append(simulate(config))
    return reports


def decompose_variance(config: SimConfig) -> VarianceDecomposition:
    """Instrument the two variance sources separately.

    Pools the true accuracy draws and the squared estimation errors across
    all replications and episodes. Every replication draws from one Philox
    stream keyed by the master seed: Kp Beta draws, then Kp binomial draws,
    replication after replication.
    """
    prior, kp, kq = config.prior, config.design.episodes, config.design.queries_per_episode
    alpha_beta = fit_beta(prior)
    rng = philox_generator(config.master_seed)
    # Accumulate deviations from the known prior mean: numerically stable and
    # exactly zero for the point-mass case.
    sum_dev = np.empty(config.replications)
    sum_dev2 = np.empty(config.replications)
    sum_sq_err = np.empty(config.replications)
    for r in range(config.replications):
        a_p, counts = _draw_episodes(rng, alpha_beta, prior.mean, kp, kq)
        err = counts / kq - a_p
        dev = a_p - prior.mean
        sum_dev[r] = dev.sum()
        sum_dev2[r] = (dev * dev).sum()
        sum_sq_err[r] = (err * err).sum()

    n_draws = config.replications * kp
    total_dev = float(np.sum(sum_dev))
    between = (float(np.sum(sum_dev2)) - total_dev * total_dev / n_draws) / (n_draws - 1)
    within = float(np.sum(sum_sq_err)) / n_draws
    a = prior.mean
    return VarianceDecomposition(
        between_measured=between,
        between_expected=prior.variance,
        within_measured=within,
        within_expected=(a * (1.0 - a) - prior.variance) / kq,
        replications=config.replications,
    )


def episode_counts(prior: AccuracyPrior, design: EvalDesign, seed: int) -> np.ndarray:
    """Per-episode correct-answer counts from one simulated evaluation.

    Useful for feeding downstream aggregation the same way a real run would:
    episode p contributes (counts[p], Kq).
    """
    check_seed(seed, "seed")
    _, counts = _draw_episodes(
        philox_generator(seed), fit_beta(prior), prior.mean,
        design.episodes, design.queries_per_episode,
    )
    return counts
