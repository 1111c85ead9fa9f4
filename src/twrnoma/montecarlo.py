"""Seeded Monte Carlo estimation of outage probabilities and ergodic rates.

Estimates are built from the raw decoding events, never from the derived
formulas, so they validate the analysis module independently. Each trial
realizes the two transmission slots as independent fading blocks: the relay
decode events are evaluated on the multiple-access (uplink) block, the user
decode events on the broadcast (downlink) block.

One engine, :func:`mc_outage`, serves every requested (signal, SIC mode) of
an operating point from one draw. Each chunk draws ten rows of unit
exponentials (``model.UNIT_ROWS``) in two halves of five. Under ipSIC the
uplink reads rows 0-4 (g1..g4, then the residual gain) and the downlink rows
5-9; pSIC draws no residual, so its slots read rows 0-3 and 4-7. A row scaled
by a variance equals an exponential draw with that variance bit for bit, so
every mode and role group sees exactly the draws it would have made alone.
Trials are partitioned into fixed-size chunks on disjoint substreams with
integer event counts merged at the end, so a given seed yields identical
results for any worker count.

Every decode event is decided by :class:`~twrnoma.sinr.EventDecisions`
from rho-free linear forms of the unit rows, outside a guard band around
each event's boundary; draws inside the band are decided again by the SINR
path, so the counts are the SINR path's by construction (see
:mod:`twrnoma.sinr`).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import (
    DOWNLINK,
    SIGNAL_ROLES,
    UNIT_ROWS,
    UPLINK,
    PairRoles,
    RandomStream,
    SystemConfig,
    sinr_threshold,
    slot_sample,
    unit_rows,
)
from .sinr import EventDecisions, Group, relay_sinrs, user_sinrs

CHUNK_SIZE = 1 << 17
DEFAULT_TRIALS = 10**6  # reference iteration count for the numerical presets
_MIN_TRIALS = 1000
# Draws per evaluation block: a block's float64 temporaries (32 KiB each) stay
# in cache and are reused by the allocator instead of being mapped afresh.
_BLOCK = 1 << 12
_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; valid near 0 and 1."""
    if trials <= 0:
        return (0.0, 1.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    # the interval must contain the point estimate despite rounding at 0 and 1
    low = min(max(0.0, center - margin), p_hat)
    high = max(min(1.0, center + margin), p_hat)
    return (low, high)


@dataclass(frozen=True)
class OutageEstimate:
    """A simulated outage probability with its 95% confidence interval."""

    p_hat: float
    trials: int
    ci_low: float
    ci_high: float
    seed: int
    signal: str
    mode: str
    roles: PairRoles


@dataclass(frozen=True)
class ErgodicRateEstimate:
    """Mean end-to-end achievable rates (BPCU) for the pair's two signals."""

    rates: dict[str, float]
    trials: int
    seed: int


def _chunks(trials: int) -> list[tuple[int, int]]:
    """(substream index, size) of every chunk of a run of ``trials`` draws."""
    if trials < _MIN_TRIALS:
        raise ConfigError(f"at least {_MIN_TRIALS} trials are required, got {trials}")
    bounds = []
    index = 0
    done = 0
    while done < trials:
        size = min(CHUNK_SIZE, trials - done)
        bounds.append((index, size))
        done += size
        index += 1
    return bounds


def _groups(config: SystemConfig, signals: tuple[str, ...]) -> list[Group]:
    """(roles, x_l threshold, x_t threshold) of each role group the signals belong to."""
    for signal in signals:
        if signal not in SIGNAL_ROLES:
            raise ConfigError(f"unknown signal {signal!r}; expected one of {tuple(SIGNAL_ROLES)}")
    groups = dict.fromkeys(SIGNAL_ROLES[signal][0] for signal in signals)
    rates = config.rates
    return [(roles, sinr_threshold(rates[roles.l - 1]), sinr_threshold(rates[roles.t - 1])) for roles in groups]


def mc_outage(
    config: SystemConfig,
    signals: tuple[str, ...],
    sic_modes: tuple[str, ...],
    trials: int = DEFAULT_TRIALS,
    seed: int = 1,
    workers: int = 1,
) -> dict[tuple[str, str], OutageEstimate]:
    """Simulated outage keyed by (signal, SIC mode), every entry from one draw per chunk.

    ``config.sic_mode`` is not read: ``sic_modes`` selects the modes. Each
    worker owns a buffer of six rows. A chunk draws its uplink half of the
    unit rows into buffer rows 0-4 and decides the relay events, then draws
    the downlink half into rows 0-3 and 5, keeping row 4, and decides the
    user events. Both run on blocks of ``_BLOCK`` draws, so every mode and
    role group reads the same draws and the working set stays small. Chunks
    are dealt to the workers in turn; counts are integers, so the result
    does not depend on how many workers there are.
    """
    bounds = _chunks(trials)
    for mode in sic_modes:
        if mode not in ("ipSIC", "pSIC"):
            raise ConfigError(f"sic mode must be 'ipSIC' or 'pSIC', got {mode!r}")
    decisions = EventDecisions(config, _groups(config, signals), sic_modes)
    keys = list(dict.fromkeys((signal, mode) for signal in signals for mode in sic_modes))
    root = RandomStream(seed)

    def failures(share: list[tuple[int, int]]) -> dict[tuple[str, str], int]:
        buffer = np.empty((UNIT_ROWS // 2 + 1, max(size for _, size in share)))
        fails = dict.fromkeys(keys, 0)
        for index, size in share:
            stream = root.substream(index)
            blocks = [slice(start, start + _BLOCK) for start in range(0, size, _BLOCK)]
            uplink = unit_rows(stream, size, list(buffer[:5]))
            relay = [decisions.relay([row[b] for row in uplink]) for b in blocks]
            # keep row 4 only: pSIC's downlink starts there, on ipSIC's uplink residual
            rows = [None] * 4 + uplink[4:] + unit_rows(stream, size, [*buffer[:4], buffer[5]])
            for b, up in zip(blocks, relay):
                down = decisions.user([row if row is None else row[b] for row in rows])
                for key in keys:
                    ok = up[key] & down[key]
                    fails[key] += ok.size - int(np.count_nonzero(ok))
        return fails

    workers = max(1, min(workers, len(bounds)))
    shares = [bounds[w::workers] for w in range(workers)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(failures, shares))
    else:
        counts = [failures(shares[0])]
    estimates = {}
    for signal in signals:
        for mode in sic_modes:
            n = sum(c[(signal, mode)] for c in counts)
            lo, hi = wilson_interval(n, trials)
            estimates[(signal, mode)] = OutageEstimate(
                n / trials, trials, lo, hi, seed, signal, mode, SIGNAL_ROLES[signal][0]
            )
    return estimates


def mc_ergodic_rates(
    config: SystemConfig, roles: PairRoles, trials: int = DEFAULT_TRIALS, seed: int = 1
) -> ErgodicRateEstimate:
    """Mean end-to-end achievable rates of the pair's signals.

    Each signal's rate per draw is 0.5 * log2(1 + min of its two decode
    stages), the relay stage on the multiple-access block and its destination
    stage on the broadcast block; the half accounts for the two-slot
    exchange. The relay-side interference makes these rates saturate at high
    SNR, which is the ceiling the delay-limited throughput runs into.
    """
    mode = config.sic_mode
    root = RandomStream(seed)
    sum_l = []
    sum_t = []
    for index, size in _chunks(trials):
        stream = root.substream(index)
        rows = unit_rows(stream, size) + unit_rows(stream, size)
        chain_l = np.empty(size)
        chain_t = np.empty(size)
        # stages run on _BLOCK-draw blocks so their temporaries are not mapped afresh per chunk
        for start in range(0, size, _BLOCK):
            b = slice(start, start + _BLOCK)
            block = [row[b] for row in rows]
            strong, weak = relay_sinrs(config, roles, slot_sample(config, block, mode, UPLINK), (mode,))
            _, own, far = user_sinrs(config, roles, slot_sample(config, block, mode, DOWNLINK), mode)
            np.minimum(strong, own, out=chain_l[b])
            np.minimum(weak[mode], far, out=chain_t[b])
        sum_l.append(float(np.log2(1.0 + chain_l).sum()))
        sum_t.append(float(np.log2(1.0 + chain_t).sum()))
    rates = {
        f"x{roles.l}": 0.5 * math.fsum(sum_l) / trials,
        f"x{roles.t}": 0.5 * math.fsum(sum_t) / trials,
    }
    return ErgodicRateEstimate(rates, trials, seed)
