"""Seeded Monte Carlo estimation of outage probabilities and ergodic rates.

Estimates are built from the raw decoding events, never from the derived
formulas, so they validate the analysis module independently. Each trial
realizes the two transmission slots as independent fading blocks: the relay
decode events are evaluated on the multiple-access (uplink) block, the user
decode events on the broadcast (downlink) block.

Both estimators read one draw loop, :func:`_draws`, which states the row
layout. One engine, :func:`mc_outage`, serves every requested (signal, SIC
mode) of an operating point from it. A row scaled by a variance equals an
exponential draw with that variance bit for bit, so every mode and role
group sees exactly the draws it would have made alone. Trials are
partitioned into fixed-size chunks, each on its own generator
(:func:`~twrnoma.model.chunk_generator`), with integer event counts merged
at the end, so a given seed yields identical results for any worker count.

Every decode event comes from :func:`~twrnoma.sinr.event_table`. The
outage engine decides them by :class:`~twrnoma.sinr.EventDecisions`, from
rho-free linear forms of the unit rows, outside a guard band around each
event's boundary; draws inside the band are decided again by the table's
SINR evaluation, so the counts are that evaluation's by construction (see
:mod:`twrnoma.sinr`). The ergodic rates read the same evaluation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    DOWNLINK,
    UNIT_ROWS,
    UPLINK,
    PairRoles,
    SystemConfig,
    check_integer,
    check_seed,
    check_sic_mode,
    chunk_generator,
    signal_roles,
    unit_rows,
)
from .sinr import EventDecisions, event_sinr, event_table

CHUNK_SIZE = 1 << 17
_MIN_TRIALS = 1000
# Draws per evaluation block. Each per-block numpy call has a fixed cost, so
# larger blocks make fewer calls; a block's float64 temporaries (128 KiB each)
# are still small next to an L2 cache of a few MiB, and the allocator reuses
# them instead of mapping them afresh.
_BLOCK = 1 << 14
_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion; valid near 0 and 1."""
    z = _WILSON_Z
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
    ci_low: float
    ci_high: float


def check_trials(trials: int) -> None:
    """A ``ConfigError`` for a trial count that is not an integer or is below the minimum an estimate needs."""
    check_integer(trials, "trials")
    if trials < _MIN_TRIALS:
        raise ConfigError(f"at least {_MIN_TRIALS} trials are required, got {trials}")


def _chunks(trials: int) -> list[tuple[int, int]]:
    """(chunk index, size) of every chunk of a run of ``trials`` draws."""
    check_trials(trials)
    return [(index, min(CHUNK_SIZE, trials - start)) for index, start in enumerate(range(0, trials, CHUNK_SIZE))]


def _draws(seed: int, share: list[tuple[int, int]]):
    """(slot, chunk size, [(draw slice, rows by row number) per ``_BLOCK`` block]) per half of each chunk in ``share``.

    A chunk draws ten rows of unit exponentials (``model.UNIT_ROWS``) in two
    halves of five into a buffer of six rows. ipSIC reads its uplink from rows
    0-4 (g1..g4, then the residual gain) and its downlink from rows 5-9; pSIC,
    which draws no residual, reads rows 0-3 and 4-7. The uplink half goes into
    buffer rows 0-4; the downlink half into rows 0-3 and 5, keeping row 4 for
    pSIC, and is yielded as rows 5-9 with rows 0-3 ``None``. A caller finishes
    a chunk's uplink blocks before it asks for the downlink ones.
    """
    buffer = np.empty((UNIT_ROWS // 2 + 1, max(size for _, size in share)))
    for index, size in share:
        rng = chunk_generator(seed, index)
        blocks = [slice(start, start + _BLOCK) for start in range(0, size, _BLOCK)]
        rows = unit_rows(rng, size, list(buffer[:5]))
        yield UPLINK, size, [(b, [row[b] for row in rows]) for b in blocks]
        rows = [None] * 4 + rows[4:] + unit_rows(rng, size, [*buffer[:4], buffer[5]])
        yield DOWNLINK, size, [(b, [row if row is None else row[b] for row in rows]) for b in blocks]


def mc_outage(
    config: SystemConfig,
    signals: tuple[str, ...],
    sic_modes: tuple[str, ...],
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> dict[tuple[str, str], OutageEstimate]:
    """Simulated outage keyed by (signal, SIC mode), every entry from one draw per chunk.

    Relay events are decided on each chunk's uplink blocks and user events on
    its downlink blocks (:func:`_draws`). Chunks are dealt to the ``workers``
    (at least one) in turn, each with its own buffer; counts are integers, so
    the result does not depend on how many workers there are.
    """
    if not signals or not sic_modes:
        raise ConfigError("signals and sic_modes must be non-empty")
    if workers < 1:
        raise ConfigError(f"at least 1 worker is required, got {workers}")
    bounds = _chunks(trials)
    check_seed(seed)
    for mode in sic_modes:
        check_sic_mode(mode)
    for signal in signals:
        signal_roles(signal)
    keys = list(dict.fromkeys((signal, mode) for signal in signals for mode in sic_modes))
    decisions = EventDecisions(config, keys)

    def failures(share: list[tuple[int, int]]) -> dict[tuple[str, str], int]:
        fails = dict.fromkeys(keys, 0)
        for slot, _, blocks in _draws(seed, share):
            if slot == UPLINK:
                relay = [decisions.decide(UPLINK, rows) for _, rows in blocks]
                continue
            for (_, rows), up in zip(blocks, relay):
                down = decisions.decide(DOWNLINK, rows)
                for key in keys:
                    ok = up[key] & down[key]
                    fails[key] += ok.size - int(np.count_nonzero(ok))
        return fails

    workers = min(workers, len(bounds))
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
            estimates[(signal, mode)] = OutageEstimate(n / trials, lo, hi)
    return estimates


def mc_ergodic_rates(
    config: SystemConfig, roles: PairRoles, mode: str, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED
) -> dict[str, float]:
    """Mean end-to-end achievable rates (BPCU) of the pair's signals under SIC ``mode``, keyed by signal.

    Each signal's rate per draw is 0.5 * log2(1 + min of its two decode
    stages), the relay stage on the multiple-access block and its destination
    stage on the broadcast block; the half accounts for the two-slot
    exchange. The relay-side interference makes these rates saturate at high
    SNR, which is the ceiling the delay-limited throughput runs into.
    """
    check_sic_mode(mode)
    check_seed(seed)
    table = event_table(config)
    signals = (f"x{roles.l}", f"x{roles.t}")
    # each slot's last event decodes the signal itself: its relay and destination stages
    stages = [{event.slot: event for event in table[(signal, mode)]} for signal in signals]
    sums = [[], []]
    for slot, size, blocks in _draws(seed, _chunks(trials)):
        if slot == UPLINK:
            chains = np.full((2, size), np.inf)
        for b, rows in blocks:
            for stage, chain in zip(stages, chains):
                np.minimum(chain[b], event_sinr(stage[slot], config.rho, rows), out=chain[b])
        if slot == DOWNLINK:
            for total, chain in zip(sums, chains):
                total.append(float(np.log2(1.0 + chain).sum()))
    return {signal: 0.5 * math.fsum(total) / trials for signal, total in zip(signals, sums)}
