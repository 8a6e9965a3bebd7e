"""Validation arsenal: an exact finite oracle plus statistical cross-checks.

Two independent routes to the stationary law of the cell-occupancy model
anchor everything else. The oracle route solves the global balance equations
of the truncated occupancy chain as a sparse linear system; the closed-form
route normalizes the energy-weighted product weights directly. They must
agree to near machine precision, and empirical laws from the simulator and
the perfect sampler are then measured against the oracle in total variation.

The statistical layer holds the generic tests: the Poisson transport identity
for sanity of the base sampler, a stationarity functional whose mean vanishes
under the target law, lifetime distribution checks, chi-square goodness of
fit with tail pooling, and spatial summaries (block-average variance, the
K function) used as ergodicity diagnostics rather than proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Configuration, SimulationConfigError, SpaceSpec, distances_to
from .models import CellOccupancyRate, RateModel
from .noise import poisson_configuration, replicate_seed

MAX_ORACLE_STATES = 1_000_000


class OracleSolveError(RuntimeError):
    """The stationary linear solve failed or produced an invalid law."""


# ---------------------------------------------------------------------------
# distribution tables
# ---------------------------------------------------------------------------

@dataclass
class DistributionTable:
    """Probability table over discrete states (ints or occupancy tuples).

    residual and defect are populated by the producers that have them: the
    oracle solve reports its global balance residual, both oracle routes
    report a truncation defect.
    """

    probs: dict
    residual: float | None = None
    defect: float | None = None

    def states(self):
        return sorted(self.probs)

    def total(self) -> float:
        return float(sum(self.probs.values()))

    def to_csv(self, path) -> None:
        lines = ["state,probability\n"]
        for s in self.states():
            key = ";".join(map(str, s)) if isinstance(s, tuple) else str(s)
            lines.append(f"{key},{self.probs[s]!r}\n")
        with open(path, "w") as fh:
            fh.write("".join(lines))


def tv_distance(p, q) -> float:
    """Total variation distance; states missing from one table count as 0."""
    dp = p.probs if isinstance(p, DistributionTable) else dict(p)
    dq = q.probs if isinstance(q, DistributionTable) else dict(q)
    keys = set(dp) | set(dq)
    return 0.5 * sum(abs(dp.get(k, 0.0) - dq.get(k, 0.0)) for k in keys)


def empirical_count_table(samples, model: CellOccupancyRate | None = None,
                          space: SpaceSpec | None = None) -> DistributionTable:
    """Histogram of total counts, or of occupancy vectors when a cell model
    and space are supplied."""
    if not samples:
        raise SimulationConfigError("empirical_count_table needs at least one sample")
    counts: dict = {}
    for cfg in samples:
        if model is None:
            key = len(cfg)
        else:
            key = tuple(int(v) for v in model.occupancy(space, cfg))
        counts[key] = counts.get(key, 0) + 1
    n = len(samples)
    return DistributionTable({k: v / n for k, v in counts.items()})


# ---------------------------------------------------------------------------
# finite-state oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleModel:
    """Truncated occupancy chain: cells with birth mass, quadratic energy.

    The chain's state is the occupancy vector k bounded by caps; a birth into
    cell i occurs at rate base_rate * exp(-(theta k)_i) * masses[i] and each
    resident dies at death_rate. theta follows the same convention as the
    continuous cell model, so `from_model` discretizes it exactly.
    """

    masses: np.ndarray
    caps: tuple
    theta: np.ndarray
    base_rate: float = 1.0
    death_rate: float = 1.0

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        n = len(self.masses)
        if self.theta.shape != (n, n):
            raise SimulationConfigError("theta must be square over the cells")
        if not np.allclose(self.theta, self.theta.T):
            raise SimulationConfigError("theta must be symmetric")
        if np.any(self.masses < 0) or self.base_rate < 0 or self.death_rate <= 0:
            raise SimulationConfigError("oracle rates must be nonnegative, death positive")
        self.caps = tuple(int(c) for c in self.caps)
        if len(self.caps) != n or any(c < 0 for c in self.caps):
            raise SimulationConfigError("caps must list a nonnegative bound per cell")

    @classmethod
    def from_model(cls, model: CellOccupancyRate, space: SpaceSpec, caps):
        return cls(masses=model.cell_masses(space), caps=tuple(caps),
                   theta=model.theta, base_rate=model.base_rate,
                   death_rate=model.death.rate)

    @property
    def n_states(self) -> int:
        return int(np.prod([c + 1 for c in self.caps]))

    def birth_rate(self, cell: int, k) -> float:
        """Rate density at the cell (multiply by the cell mass for the CTMC rate)."""
        return float(self.base_rate * math.exp(-float(self.theta[cell] @ np.asarray(k))))

    def energy(self, k) -> float:
        k = np.asarray(k, dtype=float)
        return float(0.5 * (k @ self.theta @ k - np.diag(self.theta) @ k))


def check_state_budget(caps, extension: int = 0) -> None:
    """Raise SimulationConfigError when the box 0 <= k <= caps + extension
    holds more than MAX_ORACLE_STATES occupancy vectors. Every enumeration
    checks its box here first; the oracle command checks the largest box it
    enumerates, gibbs_table's extended one, before it writes anything."""
    n_states = math.prod(c + extension + 1 for c in caps)
    if n_states > MAX_ORACLE_STATES:
        raise SimulationConfigError(
            f"oracle state space too large: {n_states} states, more than {MAX_ORACLE_STATES}")


def _occupancy_grid(caps) -> np.ndarray:
    """Every occupancy vector 0 <= k <= caps as one float row, in the C order
    of np.ndindex (the last cell varies fastest). The array is C-contiguous:
    the matrix products that read it give other bits on a transposed view."""
    check_state_budget(caps)
    dims = tuple(c + 1 for c in caps)
    return np.ascontiguousarray(
        np.indices(dims, dtype=float).reshape(len(dims), math.prod(dims)).T)


def _state_keys(karr: np.ndarray) -> list:
    """The rows of an occupancy grid as tuples of ints, the table keys."""
    return list(map(tuple, karr.astype(int).tolist()))


def spsolve(a, b, **kwargs):
    """scipy.sparse.linalg.spsolve, imported on the first oracle solve."""
    from scipy.sparse.linalg import spsolve
    return spsolve(a, b, **kwargs)


def oracle_stationary(oracle: OracleModel) -> DistributionTable:
    """Stationary law of the truncated chain by direct sparse linear solve.

    pi Q = 0 fixes pi up to a factor, so the solve pins pi(0) = 1, drops the
    balance equation of the empty state and factors the reduced generator:
    Q^T[1:, 1:] x = -Q^T[1:, 0]. The law is (1, x), clamped at 0 and
    normalized. The reduced matrix is nonsingular: every state reaches the
    empty state through deaths (death_rate > 0), so the generator killed at
    state 0 is a nonsingular M-matrix, and pi(0) > 0. It is as sparse as Q,
    so its LU factors stay sparse.

    The solve never references the energy, so it is an independent check of
    the closed-form table. The reported residual is the sup norm of pi Q
    under the solved law; the defect is the birth flow suppressed at capped
    states divided by the death rate, an estimate of the expected occupancy
    lost to truncation.
    """
    from scipy import sparse

    caps = oracle.caps
    karr = _occupancy_grid(caps)
    n_states = len(karr)
    kint = karr.astype(int)

    # vectorized over states: rate density per (state, cell)
    dens = oracle.base_rate * np.exp(-(karr @ oracle.theta.T))
    src, dst, rate = [], [], []  # the transitions src -> dst of Q
    for i, cap in enumerate(caps):
        stride = math.prod(c + 1 for c in caps[i + 1:])  # coordinate i in C order
        born = np.flatnonzero(kint[:, i] < cap)
        died = np.flatnonzero(kint[:, i] > 0)
        src += [born, died]
        dst += [born + stride, died - stride]
        rate += [dens[born, i] * oracle.masses[i], kint[died, i] * oracle.death_rate]
    src, dst, rate = (np.concatenate(v) for v in (src, dst, rate))
    outflow = np.bincount(src, weights=rate, minlength=n_states)
    every = np.arange(n_states)
    qt = sparse.csc_matrix((np.concatenate((rate, -outflow)),
                            (np.concatenate((dst, every)), np.concatenate((src, every)))),
                           shape=(n_states, n_states))

    a = qt[1:, 1:]
    b = -qt[1:, 0].toarray().ravel()
    try:
        x = spsolve(a, b, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise OracleSolveError(f"stationary solve failed: {exc}") from exc
    pi = np.concatenate(([1.0], x))
    total = pi.sum()
    slack = np.max(np.abs(a @ x - b), initial=0.0)
    scale = np.max(np.abs(b), initial=0.0)
    if (not np.all(np.isfinite(pi)) or not slack <= 1e-6 * scale
            or np.min(pi) < -1e-9 * total):
        raise OracleSolveError(
            f"stationary solve ill-conditioned: min {np.min(pi) / total:.3e}, "
            f"residual {slack:.3e} against right-hand side {scale:.3e}")
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    residual = float(np.max(np.abs(qt @ pi)))

    blocked = 0.0
    for i, cap in enumerate(caps):
        at_cap = kint[:, i] == cap
        blocked += float(np.sum(pi[at_cap] * dens[at_cap, i] * oracle.masses[i]))
    defect = blocked / oracle.death_rate

    return DistributionTable(dict(zip(_state_keys(karr), pi.tolist())),
                             residual=residual, defect=defect)


def gibbs_table(oracle: OracleModel, extension: int = 4) -> DistributionTable:
    """Closed-form stationary law: energy-weighted product-Poisson weights.

    The weight of occupancy k is exp(-H(k)) prod_i c_i^{k_i}/k_i! with
    c_i = base_rate * masses[i] / death_rate, normalized over the capped box.
    The defect is the relative mass the normalizer gains when every cap is
    raised by `extension` (an upper-box proxy for the neglected tail). The
    raised box counts against MAX_ORACLE_STATES too.
    """
    from scipy.special import gammaln, logsumexp

    check_state_budget(oracle.caps, extension)

    def log_weights(karr):
        with np.errstate(divide="ignore", invalid="ignore"):
            logc = np.log(oracle.base_rate * oracle.masses / oracle.death_rate)
            h = 0.5 * (np.einsum("si,ij,sj->s", karr, oracle.theta, karr)
                       - karr @ np.diag(oracle.theta))
            logw = -h - gammaln(karr + 1).sum(axis=1)
            mass_term = np.where(karr > 0, karr * logc, 0.0).sum(axis=1)
        logw = logw + mass_term
        logw[np.any((karr > 0) & (oracle.masses * oracle.base_rate == 0), axis=1)] = -np.inf
        return logw

    karr = _occupancy_grid(oracle.caps)
    logw = log_weights(karr)
    lz = logsumexp(logw)
    lz_ext = logsumexp(log_weights(_occupancy_grid(tuple(c + extension for c in oracle.caps))))
    probs = np.exp(logw - lz)
    return DistributionTable(dict(zip(_state_keys(karr), probs.tolist())),
                             defect=float(1.0 - math.exp(lz - lz_ext)))


def discrete_generator_residual(oracle: OracleModel, table: DistributionTable,
                                g=None) -> float:
    """Exact stationarity functional on the finite chain: sum over states of
    pi(k) * (A F)(k) for F(k) = exp(-sum g_i k_i), using the truncated
    generator. Zero to solver precision when the table is stationary."""
    n_cells = len(oracle.caps)
    if g is None:
        g = np.linspace(0.3, 0.9, n_cells)
    g = np.asarray(g, dtype=float)

    total = 0.0
    for state, p in table.probs.items():
        k = np.asarray(state, dtype=float)
        f0 = math.exp(-float(g @ k))
        af = 0.0
        for i in range(n_cells):
            if state[i] < oracle.caps[i]:
                rate = oracle.birth_rate(i, k) * oracle.masses[i]
                af += rate * (f0 * math.exp(-g[i]) - f0)
            if state[i] > 0:
                af += state[i] * oracle.death_rate * (f0 * math.exp(g[i]) - f0)
        total += p * af
    return abs(total)


# ---------------------------------------------------------------------------
# chi-square machinery
# ---------------------------------------------------------------------------

@dataclass
class Chi2Result:
    statistic: float
    pvalue: float
    dof: int
    bins: int


def _pool_bins(observed, expected, min_expected):
    """Merge adjacent bins until every expected count reaches the floor."""
    obs_pooled, exp_pooled = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= min_expected:
            obs_pooled.append(o_acc)
            exp_pooled.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0 or o_acc > 0:
        if exp_pooled:
            obs_pooled[-1] += o_acc
            exp_pooled[-1] += e_acc
        else:
            obs_pooled.append(o_acc)
            exp_pooled.append(e_acc)
    return np.array(obs_pooled), np.array(exp_pooled)


def chi_square_gof(samples, probs, min_expected: float = 5.0) -> Chi2Result:
    """Goodness of fit of integer samples against a fully specified pmf.

    probs maps value to probability; any unlisted residual mass becomes a
    trailing bin. Bins are pooled so each expected count is at least
    min_expected before the statistic is formed.
    """
    from scipy import stats

    samples = np.asarray(list(samples))
    n = len(samples)
    if n == 0:
        raise SimulationConfigError("chi_square_gof needs samples")
    dp = probs.probs if isinstance(probs, DistributionTable) else dict(probs)
    keys = sorted(dp)
    expected = np.array([dp[k] * n for k in keys], dtype=float)
    observed = np.array([np.sum(samples == k) for k in keys], dtype=float)
    residual_mass = max(0.0, 1.0 - sum(dp.values()))
    other = n - observed.sum()
    if residual_mass > 0 or other > 0:
        expected = np.append(expected, residual_mass * n)
        observed = np.append(observed, other)
    obs, exp = _pool_bins(observed, expected, min_expected)
    if len(obs) < 2:
        raise SimulationConfigError("chi_square_gof: fewer than 2 bins after pooling")
    exp = exp * (obs.sum() / exp.sum())
    statistic, pvalue = stats.chisquare(obs, exp)
    return Chi2Result(float(statistic), float(pvalue), dof=len(obs) - 1, bins=len(obs))


def two_sample_count_test(a, b, min_expected: float = 5.0) -> Chi2Result:
    """Chi-square homogeneity test of two integer samples, with adjacent
    categories pooled until each combined column is comfortably filled."""
    from scipy import stats

    a = np.asarray(list(a)); b = np.asarray(list(b))
    values = np.arange(min(a.min(), b.min()), max(a.max(), b.max()) + 1)
    ca = np.array([np.sum(a == v) for v in values], dtype=float)
    cb = np.array([np.sum(b == v) for v in values], dtype=float)
    pooled_a, pooled_b = [], []
    acc_a = acc_b = 0.0
    for x, y in zip(ca, cb):
        acc_a += x; acc_b += y
        if acc_a + acc_b >= 2 * min_expected:
            pooled_a.append(acc_a); pooled_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a + acc_b > 0 and pooled_a:
        pooled_a[-1] += acc_a; pooled_b[-1] += acc_b
    table = np.array([pooled_a, pooled_b])
    if table.shape[1] < 2:
        raise SimulationConfigError("two_sample_count_test: not enough support")
    statistic, pvalue, dof, _ = stats.chi2_contingency(table)
    return Chi2Result(float(statistic), float(pvalue), dof=int(dof), bins=table.shape[1])


# ---------------------------------------------------------------------------
# stationarity functional and transport identity
# ---------------------------------------------------------------------------

def default_bump(space: SpaceSpec):
    """Smooth periodic bump used as the default test function: product of
    raised cosines, peak 0.75 at the origin."""
    lengths = space.lengths_array()

    def g(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = 0.75 * np.prod(0.5 * (1 + np.cos(2 * np.pi * pts / lengths)), axis=1)
        return vals if np.asarray(points).ndim > 1 else float(vals[0])

    return g


@dataclass
class StationarityResidual:
    estimate: float
    stderr: float
    z: float
    replicates: int


def stationarity_residual(model: RateModel, space: SpaceSpec, samples,
                          g=None, resolution: int | None = None) -> StationarityResidual:
    """Monte Carlo mean of the generator applied to F(eta) = exp(-sum g(x)).

    For samples drawn from the stationary law the mean is zero; the z column
    reports |mean| in standard-error units. The birth integral uses midpoint
    quadrature on the space grid.
    """
    if g is None:
        g = default_bump(space)
    grid = space.grid(resolution)
    res = resolution if resolution is not None else space.quadrature_resolution
    w = space.cell_volume(res) * space.intensity
    g_grid = np.asarray(g(grid), dtype=float)
    emg = np.exp(-g_grid) - 1.0

    vals = np.empty(len(samples))
    for j, eta in enumerate(samples):
        pts = eta.points_array()
        if len(pts):
            g_pts = np.asarray(g(pts), dtype=float)
            f_eta = math.exp(-float(g_pts.sum()))
            death_term = float(np.sum(np.expm1(g_pts))) * model.death.rate
        else:
            f_eta = 1.0
            death_term = 0.0
        rates = np.array([model.birth_rate(space, x, eta) for x in grid])
        birth_term = float(np.sum(emg * rates) * w)
        vals[j] = f_eta * (birth_term + death_term)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    z = 0.0 if (est == 0.0 and se == 0.0) else (abs(est) / se if se > 0 else math.inf)
    return StationarityResidual(est, se, z, len(vals))


@dataclass
class MeckeResult:
    selector: str
    lhs: float
    rhs: float
    stderr: float
    z: float
    replicates: int


MECKE_SELECTORS = ("box_mass", "box_vacancy")


def mecke_test(space: SpaceSpec, intensity: float, h_selector: str,
               replicates: int, seed: int) -> MeckeResult:
    """Poisson transport identity on Monte Carlo draws.

    box_mass uses h(zeta, x) = 1{x in B}; box_vacancy uses
    h(zeta, x) = 1{zeta(B) = 0} 1{x in B}, with B the lower-left half box.
    Both sides are estimated on the same draws, and the standard error is
    that of the paired per-replicate difference.
    """
    if h_selector not in MECKE_SELECTORS:
        raise SimulationConfigError(f"unknown mecke selector {h_selector!r}")
    half = space.lengths_array() / 2.0
    beta_box = float(intensity * np.prod(half))
    lhs = np.empty(replicates)
    rhs = np.empty(replicates)
    for i in range(replicates):
        xi = poisson_configuration(space, intensity, replicate_seed(seed, i))
        pts = xi.points_array()
        in_box = int(np.sum(np.all(pts < half, axis=1))) if len(pts) else 0
        if h_selector == "box_mass":
            lhs[i] = in_box
            rhs[i] = beta_box
        else:
            lhs[i] = 1.0 if in_box == 1 else 0.0
            rhs[i] = beta_box if in_box == 0 else 0.0
    diff = lhs - rhs
    se = float(np.std(diff, ddof=1) / math.sqrt(replicates)) if replicates > 1 else 0.0
    mean_diff = float(np.mean(diff))
    z = 0.0 if (mean_diff == 0.0 and se == 0.0) else (abs(mean_diff) / se if se > 0 else math.inf)
    return MeckeResult(h_selector, float(np.mean(lhs)), float(np.mean(rhs)),
                       se, z, replicates)


# ---------------------------------------------------------------------------
# lifetimes
# ---------------------------------------------------------------------------

@dataclass
class KSResult:
    n: int
    statistic: float
    pvalue: float
    status: str  # "ok" | "inconclusive"


def observed_lifetimes(trajectories, margin_factor: float = 20.0) -> np.ndarray:
    """Completed lifetimes of points born early enough that censoring by the
    horizon is numerically impossible (margin_factor mean lifetimes)."""
    if not isinstance(trajectories, (list, tuple)):
        trajectories = [trajectories]
    out = []
    for traj in trajectories:
        margin = margin_factor / traj.death_rate
        cutoff = traj.end_time - margin
        births = {pid: traj.initial.entry(pid).birth_time for pid in traj.initial.ids()}
        deaths = {}
        for ev in traj.events:
            if ev.kind == "birth":
                births[ev.point_id] = ev.time
            else:
                deaths[ev.point_id] = ev.time
        for pid, t0 in births.items():
            if t0 <= cutoff and pid in deaths:
                out.append(deaths[pid] - t0)
    return np.asarray(out)


def lifetime_ks_test(trajectories_or_lifetimes, rate: float | None = None,
                     min_deaths: int = 100) -> KSResult:
    """Kolmogorov-Smirnov test of completed lifetimes against the exponential
    law implied by the death model. Inconclusive below min_deaths samples."""
    from scipy import stats

    if isinstance(trajectories_or_lifetimes, np.ndarray):
        lifetimes = trajectories_or_lifetimes
        if rate is None:
            raise SimulationConfigError("rate is required with raw lifetimes")
    else:
        trajs = trajectories_or_lifetimes
        if not isinstance(trajs, (list, tuple)):
            trajs = [trajs]
        lifetimes = observed_lifetimes(trajs)
        if rate is None:
            rate = trajs[0].death_rate
    if len(lifetimes) < min_deaths:
        return KSResult(len(lifetimes), math.nan, math.nan, "inconclusive")
    statistic, pvalue = stats.kstest(lifetimes, "expon", args=(0.0, 1.0 / rate))
    return KSResult(len(lifetimes), float(statistic), float(pvalue), "ok")


# ---------------------------------------------------------------------------
# spatial diagnostics
# ---------------------------------------------------------------------------

def block_average_diagnostic(samples, space: SpaceSpec, block_counts) -> list:
    """Variance of per-block intensity across an m^d grid of blocks, averaged
    over samples, for each m. Spatially homogeneous samples show the variance
    falling like the inverse block volume."""
    if not space.periodic:
        raise SimulationConfigError("block averages need a periodic window")
    if not isinstance(samples, (list, tuple)):
        samples = [samples]
    lengths = space.lengths_array()
    rows = []
    for m in block_counts:
        m = int(m)
        if m < 1:
            raise SimulationConfigError("block counts must be positive")
        block_vol = space.volume / m ** space.dimension
        variances = []
        for cfg in samples:
            counts = np.zeros((m,) * space.dimension)
            pts = cfg.points_array()
            if len(pts):
                idx = np.minimum((pts / (lengths / m)).astype(int), m - 1)
                np.add.at(counts, tuple(idx.T), 1)
            variances.append(float(np.var(counts / block_vol)))
        rows.append((m, float(np.mean(variances))))
    return rows


@dataclass
class RipleyResult:
    radii: np.ndarray
    k_hat: np.ndarray | None
    samples_used: int
    status: str  # "ok" | "undefined"


def ripley_k(samples, space: SpaceSpec, radii) -> RipleyResult:
    """Average pair-count summary K(r) on the torus (no edge correction).

    Each sample with at least two points contributes
    V * #{ordered pairs within r} / (n (n-1)); samples with fewer points are
    excluded, and the result is undefined if none qualify.
    """
    if not space.periodic:
        raise SimulationConfigError("the K function is computed on a periodic window")
    if not isinstance(samples, (list, tuple)):
        samples = [samples]
    radii = np.asarray(radii, dtype=float)
    acc = np.zeros(len(radii))
    used = 0
    for cfg in samples:
        pts = cfg.points_array()
        n = len(pts)
        if n < 2:
            continue
        dists = []
        for i in range(n):
            d = distances_to(space, pts[i], pts)
            d[i] = math.inf
            dists.append(d)
        dists = np.concatenate(dists)
        acc += np.array([np.sum(dists <= r) for r in radii]) * space.volume / (n * (n - 1))
        used += 1
    if used == 0:
        return RipleyResult(radii, None, 0, "undefined")
    return RipleyResult(radii, acc / used, used, "ok")
