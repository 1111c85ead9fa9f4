"""Closed-form exact and asymptotic outage probabilities, hypoexponential
densities, diversity-order estimation, and delay-limited throughput.

The interference sums entering the outage expressions are hypoexponential
(sums of independent exponentials). Their density is evaluated through a
numerically stable divided-difference scheme that remains exact when rates
coincide, and the closed forms integrate against them via the Laplace
transform, which is a plain product over rates and therefore never divides
by rate differences. For well-separated rates this product agrees with the
textbook partial-fraction expansion to machine precision.

:func:`closed_outage` and :func:`asymptotic_outage` evaluate one signal
under one SIC mode; the mode is an argument, not part of the config. They
check the signal and the mode and then call the evaluator that
:data:`EVALUATORS` names for the method and the signal's kind, on plain
floats. A sweep, which has checked both already, calls the evaluator
directly with derived constants built over its whole SNR grid: the same
code then runs on arrays, each entry bit for bit the float result at its
point. On a grid, the first entry outside [0, 1] by more than the clamp
gate raises the ``NumericError`` that its point raises alone.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .model import (
    DerivedConstants,
    Grid,
    PairRoles,
    SystemConfig,
    build_derived_constants,
    check_sic_mode,
    db_to_linear,
    exact_exp,
    signal_roles,
)

# Probabilities may stray this far outside [0, 1] from floating-point dust;
# anything worse signals a formula bug and raises instead of clamping.
CLAMP_GATE = 1e-12

# Node spread (in exponent units) at or below which the three-stage density
# uses the series expansion around the node mean instead of the recursion on
# the extreme nodes.
_SERIES_SPREAD = 1.0
# Terms kept of that series. Scaled to the spread, each deviation is at most
# 2/3, so term m is below C(m+2, 2) (2/3)^m / (m+2)!: under 1e-22 from m = 20
# on, against a sum of at least exp(-1)/2.
_SERIES_TERMS = 21
_MAX_STAGES = 3


class HypoexpSpec:
    """One or more sums of 1-3 independent exponential stages, all with the same number of stages.

    ``HypoexpSpec(rates)`` is one sum; ``HypoexpSpec(*rate_sets)`` stacks
    several for one density call, sum ``i`` in row ``i`` of each table: its
    rates in ascending order, their ``math.prod`` and ``math.fsum`` mean,
    and its series coefficients.

    For three rates, ``series`` holds the coefficients ``h_m / (m+2)!`` of
    the divided difference of exp around the node mean, where ``h_m`` is the
    complete homogeneous symmetric polynomial of the rate deviations from
    their mean, scaled by the rate spread. They depend on the rates only, so
    they are computed once here, from the rates in the order given, and not
    per density evaluation. A series shorter than ``_SERIES_TERMS``
    (coincident rates) is padded with zero high-order coefficients, which
    leave Horner's sum unchanged. Only the three-stage density reads them;
    with fewer rates ``series`` is all zero.
    """

    def __init__(self, *rate_sets: Sequence[float]):
        stages = {len(rates) for rates in rate_sets}
        if len(stages) != 1:
            raise ConfigError("a hypoexponential spec needs at least one rate set, all with the same number of rates")
        (self.stages,) = stages
        if not 1 <= self.stages <= _MAX_STAGES:
            raise ConfigError(f"hypoexponential spec needs 1 to {_MAX_STAGES} rates")
        if not all(r > 0.0 and math.isfinite(r) for rates in rate_sets for r in rates):
            raise ConfigError("hypoexponential rates must be positive and finite")
        ordered = [sorted(rates) for rates in rate_sets]
        self.rates = np.array(ordered)
        self.prod = np.array([math.prod(rates) for rates in ordered])
        self.mean = np.array([math.fsum(rates) / self.stages for rates in ordered])
        self.series = np.zeros((len(rate_sets), _SERIES_TERMS))
        if self.stages == 3:
            for row, rates in zip(self.series, rate_sets):
                coefficients = _series_coefficients(rates)
                row[: len(coefficients)] = coefficients


def _series_coefficients(rates: Sequence[float]) -> tuple[float, ...]:
    n = len(rates)
    spread = max(rates) - min(rates)
    if spread == 0.0:
        # every deviation is zero, so only the constant term survives
        return (1.0 / math.factorial(n - 1),)
    mean = math.fsum(rates) / n
    # elementary symmetric polynomials of the scaled deviations (e1 = 0 up to rounding)
    e = [1.0]
    for d in ((r - mean) / spread for r in rates):
        e = [e[0]] + [e[j] + d * e[j - 1] for j in range(1, len(e))] + [d * e[-1]]
    # h_m = sum_j (-1)^(j+1) e_j h_(m-j)
    signed = [e[j] if j % 2 else -e[j] for j in range(n + 1)]
    h = [1.0]
    for m in range(1, _SERIES_TERMS):
        h.append(math.fsum(signed[j] * h[m - j] for j in range(1, min(m, n) + 1)))
    return tuple(hm / math.factorial(m + n - 1) for m, hm in enumerate(h))


def _divided_difference_exp2(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Divided difference of exp over nodes ``hi >= lo``, exact when they meet."""
    gap = hi - lo
    ratio = np.divide(-np.expm1(-gap), gap, out=np.ones_like(gap), where=gap > 0.0)
    return np.exp(hi) * ratio


def hypoexp_pdf(spec: HypoexpSpec, z: float | np.ndarray, owner: np.ndarray | None = None) -> float | np.ndarray:
    """Density at ``z >= 0`` of a sum of independent exponentials in ``spec``.

    ``z`` is a float or an array; a float gives a float. Valid for any rate
    multiset: coincident rates reproduce the Erlang density, a single rate the
    plain exponential. The density is ``prod(rates) z^(n-1)`` times the
    divided difference of exp over the nodes ``-rate * z``, evaluated in a
    form that stays exact when nodes cluster.

    ``owner[i]`` names the sum of ``spec`` whose density row ``i`` of ``z``
    takes, its parameters broadcast over the row; without ``owner`` every
    value is the first sum's. Each value equals that sum's own density at
    that point, bit for bit.
    """
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(zv < 0.0):
        raise ConfigError("hypoexponential density is supported on z >= 0")
    member = 0 if owner is None else np.asarray(owner).reshape((-1,) + (1,) * (zv.ndim - 1))
    n = spec.stages
    rates = [spec.rates[member, k] for k in range(n)]
    if n == 1:
        value = rates[0] * np.exp(-rates[0] * zv)
    else:
        nodes = [-r * zv for r in rates]  # descending, since z >= 0
        if n == 2:
            dd = _divided_difference_exp2(nodes[0], nodes[1])
        else:
            dd = np.empty_like(zv)
            spread = nodes[0] - nodes[2]
            near = spread <= _SERIES_SPREAD
            if near.any():
                # series in the scaled deviations, around the node mean
                near_member = np.broadcast_to(member, zv.shape)[near]
                z_near = zv[near]
                t = (spec.rates[near_member, 0] - spec.rates[near_member, 2]) * z_near
                total = spec.series[near_member, -1]
                for column in range(_SERIES_TERMS - 2, -1, -1):
                    total = total * t + spec.series[near_member, column]
                dd[near] = np.exp(-spec.mean[near_member] * z_near) * total
            far = ~near
            if far.any():
                # spread-out nodes: recurse on the extremes, whose gap is too
                # large for catastrophic cancellation
                x0, x1, x2 = (x[far] for x in nodes)
                dd[far] = (_divided_difference_exp2(x0, x1) - _divided_difference_exp2(x1, x2)) / spread[far]
        value = np.maximum(spec.prod[member] * zv ** (n - 1) * dd, 0.0)
    return float(value[0]) if np.ndim(z) == 0 else value


def interference_laplace(rates: Sequence[Grid], s: Grid) -> Grid:
    """Laplace transform at ``s >= 0`` of the sum of exponentials with ``rates``.

    Empty rate set means the sum is identically zero (transform 1). This is
    the degenerate-safe equivalent of the partial-fraction bracket appearing
    in the closed forms.
    """
    value = 1.0
    for r in rates:
        value *= r / (r + s)
    return value


def _finish_probability(raw: Grid) -> Grid:
    """``raw`` clamped into [0, 1], entry by entry for a grid.

    A value that is not finite or that strays further than ``CLAMP_GATE``
    raises ``NumericError``. On a grid the first such entry raises what it
    raises alone.
    """
    if isinstance(raw, np.ndarray):
        bad = np.flatnonzero(~((raw >= -CLAMP_GATE) & (raw <= 1.0 + CLAMP_GATE)))  # NaN fails too
        if bad.size:
            _finish_probability(raw[bad[0]].item())  # raises
        # clamped as min(max(raw, 0.0), 1.0) clamps a float
        raw = np.where(0.0 > raw, 0.0, raw)
        return np.where(1.0 < raw, 1.0, raw)
    if not math.isfinite(raw):
        raise NumericError(f"outage evaluation produced a non-finite value: {raw!r}")
    if raw < -CLAMP_GATE or raw > 1.0 + CLAMP_GATE:
        raise NumericError(f"outage evaluation left [0, 1] by more than the clamp gate: {raw!r}")
    return min(max(raw, 0.0), 1.0)


def _ratio_or_one(num: Grid, den: Grid) -> Grid:
    """``num / den``, and 1 where ``den`` is 0, entry by entry for a grid."""
    if isinstance(den, np.ndarray):
        return np.divide(num, den, out=np.ones_like(den), where=den != 0.0)
    return num / den if den != 0.0 else 1.0


def _relay_stage_survival(config: SystemConfig, roles: PairRoles, dc: DerivedConstants) -> Grid:
    """Probability the relay decodes the stronger uplink signal."""
    om_l = config.omega[roles.l - 1]
    return exact_exp(-dc.beta_l / om_l) * interference_laplace(dc.lam, dc.beta_l / om_l)


def _near_user_survival(config: SystemConfig, roles: PairRoles, dc: DerivedConstants, mode: str) -> Grid:
    """Probability the near receiver decodes the far signal and then its own."""
    om_k = config.omega[roles.k - 1]
    theta = dc.theta_l
    tau = dc.tau_l
    base = exact_exp(-theta / om_k)
    if mode == "pSIC":
        return base
    scaled = tau * dc.rho * config.omega_i
    # exponent written without the cancelling large terms: theta >= tau keeps
    # it <= 0. Where tau is 0 the ratio is taken as 1, so the exponent is 0,
    # ``scaled`` is 0 and the result is ``base`` exactly.
    extra = -(_ratio_or_one(theta, tau) - 1.0) / (dc.rho * config.omega_i)
    return base * (1.0 - scaled / (om_k + scaled) * exact_exp(extra))


def _closed_xl(config: SystemConfig, roles: PairRoles, dc: DerivedConstants, mode: str) -> Grid:
    """Exact outage probability of the stronger signal of the transmitting pair.

    Success requires the relay to decode it on the uplink and the near
    receiver of the opposite pair to first strip the far signal and then
    decode this one. Returns exactly 1 when either downlink power split is
    infeasible for its target rate.
    """
    if not (dc.feasible_l and dc.feasible_t):
        return 1.0
    raw = 1.0 - _relay_stage_survival(config, roles, dc) * _near_user_survival(config, roles, dc, mode)
    return _finish_probability(raw)


def _residual_relay_factor(config: SystemConfig, dc: DerivedConstants, mode: str) -> Grid:
    """The relay's residual-interference factor in the weaker signal's decode; 1 under pSIC."""
    return 1.0 + dc.rho * dc.beta_t * dc.varphi_t * config.omega_i if mode == "ipSIC" else 1.0


def _relay_pair_survival(config: SystemConfig, roles: PairRoles, dc: DerivedConstants, mode: str) -> Grid:
    """Probability the relay decodes both uplink signals of the pair."""
    om_l, om_t = config.omega[roles.l - 1], config.omega[roles.t - 1]
    s = dc.beta_l / om_l + dc.beta_t * dc.varphi_t
    prefactor = exact_exp(-dc.beta_l / om_l - dc.beta_t * dc.varphi_t) / (
        dc.varphi_t * om_t * _residual_relay_factor(config, dc, mode)
    )
    return prefactor * interference_laplace(dc.lam_p, s)


def _closed_xt(config: SystemConfig, roles: PairRoles, dc: DerivedConstants, mode: str) -> Grid:
    """Exact outage probability of the weaker signal of the transmitting pair.

    Success requires the relay to decode both uplink signals (the weaker one
    after cancellation) and both opposite-pair receivers to decode the
    relayed weak signal. Returns exactly 1 when its power split is infeasible.
    """
    if not dc.feasible_t:
        return 1.0
    om_k, om_r = config.omega[roles.k - 1], config.omega[roles.r - 1]
    survival = (
        _relay_pair_survival(config, roles, dc, mode)
        * exact_exp(-dc.xi_t / om_k)
        * exact_exp(-dc.xi_t / om_r)
    )
    return _finish_probability(1.0 - survival)


def _asymptotic_xl(config: SystemConfig, roles: PairRoles, dc: DerivedConstants, mode: str) -> Grid:
    """High-SNR outage of the stronger signal (its error floor).

    The survival factors that persist at high SNR are invariant in the
    transmit SNR once thresholds scale with it, and the first-order expansion
    of the residual-interference stage collapses exactly to
    ``om_k / (om_k + rho * tau * omega_i)`` under ipSIC and to 1 under pSIC
    (the would-be correction terms cancel), so the finite-SNR evaluation
    already equals the floor.
    """
    if not (dc.feasible_l and dc.feasible_t):
        return 1.0
    om_l, om_k = config.omega[roles.l - 1], config.omega[roles.k - 1]
    bracket = interference_laplace(dc.lam, dc.beta_l / om_l)
    residual_stage = om_k / (om_k + dc.tau_l * dc.rho * config.omega_i) if mode == "ipSIC" else 1.0
    raw = 1.0 - bracket * residual_stage
    return _finish_probability(raw)


def _asymptotic_xt(config: SystemConfig, roles: PairRoles, dc: DerivedConstants, mode: str) -> Grid:
    """High-SNR outage of the weaker signal (its error floor).

    As with the stronger signal, the evaluated expression carries no residual
    SNR dependence.
    """
    if not dc.feasible_t:
        return 1.0
    om_l, om_t = config.omega[roles.l - 1], config.omega[roles.t - 1]
    s = dc.beta_l / om_l + dc.beta_t * dc.varphi_t
    bracket = interference_laplace(dc.lam_p, s) / (dc.varphi_t * om_t * _residual_relay_factor(config, dc, mode))
    return _finish_probability(1.0 - bracket)


# (method, signal kind) -> evaluator(config, roles, dc, mode); kind "l" is the
# pair's stronger-decoded signal, "t" its weaker one (``model.SIGNAL_ROLES``).
# The outage is at the SNR ``dc.rho``: a float, or an array over a grid, each
# entry bit for bit the value of its point alone; an infeasible split gives
# the float 1.0 at every SNR.
EVALUATORS = {
    ("closed", "l"): _closed_xl,
    ("closed", "t"): _closed_xt,
    ("asymptotic", "l"): _asymptotic_xl,
    ("asymptotic", "t"): _asymptotic_xt,
}


def _evaluate(method: str, config: SystemConfig, signal: str, mode: str) -> float:
    roles, kind = signal_roles(signal)
    check_sic_mode(mode)
    return EVALUATORS[method, kind](config, roles, build_derived_constants(config, roles), mode)


def closed_outage(config: SystemConfig, signal: str, mode: str) -> float:
    """Exact outage probability of ``signal`` (``"x1"``..``"x4"``) under SIC ``mode``.

    Unknown signals and modes raise ``ConfigError``.
    """
    return _evaluate("closed", config, signal, mode)


def asymptotic_outage(config: SystemConfig, signal: str, mode: str) -> float:
    """High-SNR outage (error floor) of ``signal`` under SIC ``mode``; arguments as :func:`closed_outage`."""
    return _evaluate("asymptotic", config, signal, mode)


def diversity_order_estimate(
    outage_fn: Callable[[float], float], rho_lo_db: float, rho_hi_db: float
) -> float:
    """High-SNR log-log slope of an outage curve.

    ``outage_fn`` maps a transmit SNR in dB to an outage probability. Both
    probe points must sit in the high-SNR regime (>= 40 dB); a zero
    probability at either point leaves the slope undefined.
    """
    if not rho_hi_db > rho_lo_db >= 40.0:
        raise ConfigError("diversity estimation requires rho_hi_db > rho_lo_db >= 40 dB")
    p_lo = outage_fn(rho_lo_db)
    p_hi = outage_fn(rho_hi_db)
    if p_lo <= 0.0 or p_hi <= 0.0:
        raise NumericError("diversity order undefined: outage probability is zero at a probe point")
    return -(math.log(p_hi) - math.log(p_lo)) / (
        math.log(db_to_linear(rho_hi_db)) - math.log(db_to_linear(rho_lo_db))
    )


def throughput_delay_limited(config: SystemConfig, outage: Sequence[float]) -> float:
    """Fixed-rate throughput in BPCU given the four per-signal outage probabilities.

    No pre-log factor is applied for the two-slot exchange; the target rates
    are taken as-is.
    """
    if len(outage) != 4:
        raise ConfigError("throughput needs exactly four outage probabilities")
    if not all(0.0 <= p <= 1.0 for p in outage):
        raise ConfigError("outage probabilities must lie in [0, 1]")
    return math.fsum((1.0 - p) * r for p, r in zip(outage, config.rates))
