"""Independent numerical-quadrature evaluation of the outage integrals.

Arbiter between the closed forms and the underlying probability integrals:
the survival stages that the closed forms express through Laplace-transform
products are recomputed here by adaptive Gauss-Kronrod quadrature of the
integral representations, sharing only the hypoexponential density (which
is unit-tested against analytic cases on its own). Semi-infinite domains are
mapped to (0, 1] via ``z = scale * (1 - u) / u``.

Each panel is integrated by the 15-point Kronrod rule and its embedded
7-point Gauss rule (QUADPACK's ``qk15``, Piessens et al., 1983). The panel's
error estimate is ``|K15 - G7|``, floored at ``50 eps`` times the K15
integral of ``|f|`` so that round-off cannot keep a converged panel open.
The pass runs level by level: every panel still open at one bisection depth
is evaluated, on its 15 nodes, in a single vectorised integrand call. A panel
is accepted once its error estimate is at most its share of the tolerance,
``tol * (b - a)`` in ``u``, but never before depth 2, so a coarse panel whose
two rules agree by chance cannot end the refinement early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import CLAMP_GATE, HypoexpSpec, hypoexp_pdf
from .errors import ConfigError, OracleError
from .model import PairRoles, SystemConfig, build_derived_constants

_INITIAL_PANELS = 8
# Depth before which no panel is accepted. With acceptance from depth 1, the
# density of rates (2e5, 500, 5) was accepted with a true error of 6.3e-8.
_MIN_DEPTH = 2
_MAX_DEPTH = 60

# QUADPACK qk15 on [-1, 1]: the non-negative Kronrod abscissae in descending
# order, their Kronrod weights, and the Gauss weights of the abscissae
# 0.949..., 0.741..., 0.405... and 0.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# The full rule in ascending order; the G7 nodes are the odd-indexed ones.
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_KRONROD_WEIGHTS = np.array(_WGK + _WGK[-2::-1])
_GAUSS_WEIGHTS = np.array(_WG + _WG[-2::-1])
_ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature tolerances and the subdivision budget.

    ``max_subdivisions`` caps the number of panels evaluated per integral,
    the initial ones included; each panel costs 15 integrand evaluations.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 200_000

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ConfigError("quadrature tolerances must be positive")
        if self.max_subdivisions < _INITIAL_PANELS:
            raise ConfigError("subdivision budget too small")


def integrate_semi_infinite(
    fn: Callable[[np.ndarray], np.ndarray],
    lower: float = 0.0,
    scale: float = 1.0,
    spec: QuadSpec = QuadSpec(),
    name: str = "semi-infinite",
) -> float:
    """Integrate ``fn`` over [lower, infinity) for exponentially decaying integrands.

    ``fn`` maps an array of abscissae to an array of integrand values.
    ``scale`` should match the integrand's decay length so the transformed
    mass sits mid-interval; the rule never evaluates the endpoint u = 0
    (z = infinity). ``name`` identifies the integral in the error raised when
    it does not converge within ``spec.max_subdivisions`` panels or
    ``_MAX_DEPTH`` bisections.
    """
    if scale <= 0.0 or not math.isfinite(scale):
        raise ConfigError("integration scale must be positive and finite")

    def gauss_kronrod(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # K15 estimate and error estimate of every panel [a, b], in one call of fn
        half = 0.5 * (b - a)
        u = ((0.5 * (a + b))[:, None] + half[:, None] * _NODES).ravel()
        f = (fn(lower + scale * (1.0 - u) / u) * scale / (u * u)).reshape(a.size, _NODES.size)
        kronrod = half * (f @ _KRONROD_WEIGHTS)
        gauss = half * (f[:, 1::2] @ _GAUSS_WEIGHTS)
        floor = _ROUNDOFF_FLOOR * half * (np.abs(f) @ _KRONROD_WEIGHTS)
        return kronrod, np.maximum(np.abs(kronrod - gauss), floor)

    def unconverged(reason: str, a: float, b: float) -> OracleError:
        z_lo = lower + scale * (1.0 - b) / b
        z_hi = lower + scale * (1.0 - a) / a if a > 0.0 else math.inf
        return OracleError(
            f"quadrature of the {name} integral {reason} "
            f"(lower={lower:.6g}, scale={scale:.6g}, worst open panel z in [{z_lo:.6g}, {z_hi:.6g}])"
        )

    # Initial uniform panelling: it seeds the adaptive pass and gives the
    # coarse estimate that anchors the relative tolerance.
    edges = np.linspace(0.0, 1.0, _INITIAL_PANELS + 1)
    a, b = edges[:-1], edges[1:]
    estimate, err = gauss_kronrod(a, b)
    tol = max(spec.abs_tol, spec.rel_tol * abs(math.fsum(estimate)))
    spent = a.size
    accepted = []
    depth = 0
    while True:
        done = (err <= tol * (b - a)) & (depth >= _MIN_DEPTH)
        accepted.append(estimate[done])
        open_ = ~done
        if not open_.any():
            return math.fsum(np.concatenate(accepted))
        worst = int(np.argmax(np.where(open_, err, -np.inf)))
        if depth == _MAX_DEPTH:
            raise unconverged(
                f"exceeded the maximum bisection depth {_MAX_DEPTH} without converging", a[worst], b[worst]
            )
        spent += 2 * int(np.count_nonzero(open_))
        if spent > spec.max_subdivisions:
            raise unconverged(
                f"did not converge within the subdivision budget of {spec.max_subdivisions} panels",
                a[worst], b[worst],
            )
        a, b = a[open_], b[open_]
        m = 0.5 * (a + b)
        a, b = np.concatenate((a, m)), np.concatenate((m, b))
        estimate, err = gauss_kronrod(a, b)
        depth += 1


def _decay_scale(rates: tuple[float, ...], s: float) -> float:
    # harmonic blend of the sum's mean and the weight's decay length
    mean = math.fsum(1.0 / r for r in rates) if rates else 0.0
    if mean == 0.0:
        return 1.0 / s if s > 0.0 else 1.0
    inv = 1.0 / mean + s
    return 1.0 / inv


def quad_outage_xl(config: SystemConfig, roles: PairRoles, spec: QuadSpec = QuadSpec()) -> float:
    """Outage of the stronger signal via quadrature of its two survival integrals.

    The relay stage integrates the hypoexponential interference density
    against the conditional decode probability; the near-user stage
    integrates the joint tail over the decode threshold. Degenerate and
    reduced interference-term sets are handled natively by the density.
    """
    dc = build_derived_constants(config, roles)
    if not (dc.feasible_l and dc.feasible_t):
        return 1.0
    g_l = dc.gamma_th[roles.l - 1]
    g_t = dc.gamma_th[roles.t - 1]
    if g_l == 0.0 and g_t == 0.0:
        return 0.0
    om_l, om_k = config.omega[roles.l - 1], config.omega[roles.k - 1]

    pdf_spec = HypoexpSpec(dc.lam)
    s = dc.beta_l / om_l

    def relay_integrand(z: np.ndarray) -> np.ndarray:
        return hypoexp_pdf(pdf_spec, z) * np.exp(-(z + 1.0) * s)

    relay = integrate_semi_infinite(relay_integrand, 0.0, _decay_scale(dc.lam, s), spec, "relay")

    tau = dc.tau_l
    theta = dc.theta_l
    if config.epsilon == 0.0 or tau == 0.0:

        def user_integrand(y: np.ndarray) -> np.ndarray:
            return np.exp(-y / om_k) / om_k

    else:
        residual_scale = tau * config.rho * config.omega_i

        def user_integrand(y: np.ndarray) -> np.ndarray:
            survive_residual = 1.0 - np.exp(-(y - tau) / residual_scale)
            return survive_residual * np.exp(-y / om_k) / om_k

    user = integrate_semi_infinite(user_integrand, theta, om_k, spec, "near user")
    return _finish(1.0 - relay * user)


def quad_outage_xt(config: SystemConfig, roles: PairRoles, spec: QuadSpec = QuadSpec()) -> float:
    """Outage of the weaker signal via quadrature of the relay-pair integral.

    The two-term cross-interference density is integrated against the joint
    relay decode probability; the two user-side stages are plain exponential
    tails and are evaluated exactly.
    """
    dc = build_derived_constants(config, roles)
    if not dc.feasible_t:
        return 1.0
    g_l = dc.gamma_th[roles.l - 1]
    g_t = dc.gamma_th[roles.t - 1]
    if g_l == 0.0 and g_t == 0.0:
        return 0.0
    om_l, om_t = config.omega[roles.l - 1], config.omega[roles.t - 1]
    om_k, om_r = config.omega[roles.k - 1], config.omega[roles.r - 1]

    s = dc.beta_l / om_l + dc.beta_t * dc.varphi_t
    prefactor = math.exp(-dc.beta_l / om_l - dc.beta_t * dc.varphi_t) / (
        dc.varphi_t * om_t * (1.0 + config.epsilon * config.rho * dc.beta_t * dc.varphi_t * config.omega_i)
    )
    if dc.lam_p:
        pdf_spec = HypoexpSpec(dc.lam_p)

        def pair_integrand(z: np.ndarray) -> np.ndarray:
            return hypoexp_pdf(pdf_spec, z) * np.exp(-s * z)

        integral = integrate_semi_infinite(pair_integrand, 0.0, _decay_scale(dc.lam_p, s), spec, "relay pair")
    else:
        # no cross-pair leakage: the interference sum is identically zero
        integral = 1.0
    relay_pair = prefactor * integral
    users = math.exp(-dc.xi_t / om_k) * math.exp(-dc.xi_t / om_r)
    return _finish(1.0 - relay_pair * users)


def _finish(raw: float) -> float:
    if not math.isfinite(raw):
        raise OracleError(f"quadrature produced a non-finite outage value: {raw!r}")
    if raw < -CLAMP_GATE or raw > 1.0 + CLAMP_GATE:
        raise OracleError(f"quadrature outage left [0, 1] by more than the clamp gate: {raw!r}")
    return min(max(raw, 0.0), 1.0)
