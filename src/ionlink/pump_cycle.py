"""Stochastic and exact treatment of the repeated-excitation pump cycle.

The cycle starts with the ion parked in one stretched D3/2 sublevel.  A
fixed-polarization drive promotes it to the unique P1/2 sublevel allowed by
the selection rule (treated as instantaneous and saturating, the worst-case
continuous-drive limit).  The P1/2 state then decays: into the ground
manifold (emitting the photon we care about, tagged good or bad by which
P1/2 sublevel emitted it), or back into the shelf, where the drive either
recycles it or leaves it in a sublevel it cannot address (dark).

Three routes give this chain's branch probabilities as a :class:`ChainOutcome`:

* :func:`solve_exact` computes absorption probabilities of the underlying
  absorbing Markov chain by a 2x2 linear solve, exact in integers and
  rounded once per probability.  It serves ``ionlink chain exact``.
* :func:`simulate` runs Monte Carlo trajectories.  The uniform deviate
  consumed by trajectory ``i`` at cycle ``k`` is element ``i`` of the
  counter-based Philox stream keyed by ``(seed, k)``, so results are
  bit-identical for a given ``(seed, config, n_trials, max_cycles)``
  whatever the number of workers.  It serves ``ionlink chain mc``.
* :func:`geometric_branch_probabilities` is the closed-form geometric series
  for a sigma-minus drive from D3/2 m=+3/2.  No command uses it; the library
  and demos 01 and 03 do.

The Monte Carlo path is the package's one numpy user, and the package does
not require numpy: without it, :func:`simulate` raises Python's own
``ModuleNotFoundError`` once its arguments pass their checks.  Its kernel
walks fixed-size chunks of trajectories, so its memory does not grow with
``n_trials``.  Each walking thread holds one Philox generator.  Before each
cycle of a chunk it sets that generator's counter to the chunk's first
element of the ``(seed, k)`` stream (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), draws up to the chunk's last
surviving trajectory and walks only the survivors, kept as ``int32``
offsets within the chunk.  Chunks are split between at most ``workers``
threads, the calling one included, and the counts add up as Python
integers; every thread started is joined before :func:`simulate` returns.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from itertools import accumulate

from .atomic import (
    BranchingModel,
    Level,
    Polarization,
    ZeemanState,
    allowed_decays,
    default_barium_model,
    drive_target,
)
from .errors import DomainError, NumericError, Record, whole

__all__ = ["PumpCycleConfig", "ChainOutcome", "geometric_branch_probabilities", "solve_exact",
           "simulate"]

_GOOD, _BAD, _DARK = -1, -2, -3


class PumpCycleConfig(Record):
    """Initial shelf sublevel, drive polarization and model of the chain.

    An omitted ``initial`` is the stretched D3/2 sublevel the drive
    addresses: m = -3/2 under sigma+, and +3/2 otherwise.
    """

    initial: ZeemanState = None
    drive: Polarization = Polarization.SIGMA_MINUS
    model: BranchingModel = None  # omitted: a fresh default_barium_model()

    def __post_init__(self) -> None:
        if self.model is None:
            object.__setattr__(self, "model", default_barium_model())
        if self.initial is None:
            mj = -1.5 if self.drive is Polarization.SIGMA_PLUS else +1.5
            object.__setattr__(self, "initial", ZeemanState(Level.D32, mj))
        if self.initial.level is not Level.D32:
            raise DomainError(f"initial state must lie in the D3/2 shelf, got {self.initial}")


class ChainOutcome(Record):
    """Branch probabilities, with per-outcome standard errors when sampled."""

    p_good: float
    p_bad: float
    p_dark: float
    se_good: float | None = None
    se_bad: float | None = None
    se_dark: float | None = None
    n_trials: int | None = None
    seed: int | None = None

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


class _CompiledChain:
    """Decay tables of the two-or-fewer transient P1/2 states, ready to walk."""

    def __init__(self, config: PumpCycleConfig):
        self.start = drive_target(config.initial, config.drive)
        p_states = [ZeemanState(Level.P12, +0.5), ZeemanState(Level.P12, -0.5)]
        self.p_index = {state: i for i, state in enumerate(p_states)}
        self.probs: list[list[float]] = []
        self.cum: list[list[float]] = []
        self.dest: list[list[int]] = []
        for state in p_states:
            probs, dests = [], []
            for lower, _pol, prob in allowed_decays(state, config.model):
                probs.append(prob)
                if lower.level is Level.S12:
                    dests.append(_GOOD if state == self.start else _BAD)
                else:
                    target = drive_target(lower, config.drive)
                    dests.append(_DARK if target is None else self.p_index[target])
            self.probs.append(probs)
            self.cum.append(list(accumulate(probs)))  # summed in order, as np.cumsum does
            self.dest.append(dests)


def _absorbing_system(chain: _CompiledChain) -> tuple[list[list[float]], list[list[float]]]:
    """``I - Q`` and ``R`` of the chain over the P1/2 states; R's columns are good, bad, dark."""
    n = len(chain.p_index)
    q = [[0.0] * n for _ in range(n)]
    r = [[0.0] * 3 for _ in range(n)]
    for i in range(n):
        for prob, dest in zip(chain.probs[i], chain.dest[i]):
            if dest >= 0:
                q[i][dest] += prob
            else:
                r[i][-dest - 1] += prob
    return [[float(i == j) - q[i][j] for j in range(n)] for i in range(n)], r


def _solve_2x2(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    """X with ``a X = b`` for a 2x2 ``a``, each entry the exact solution correctly rounded.

    Every float is a dyadic rational, so one power-of-two scale makes all the
    entries integers.  Cramer's rule is then exact, and each entry of X is one
    int true division, which Python rounds correctly.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in (*a, *b)]
    scale = max(d for row in ratios for _, d in row)
    (a00, a01), (a10, a11), b0, b1 = ([n * (scale // d) for n, d in row] for row in ratios)
    det = a00 * a11 - a01 * a10
    if det == 0:
        raise NumericError("absorbing-chain solve failed: Singular matrix")
    try:
        return [[(a11 * y0 - a01 * y1) / det for y0, y1 in zip(b0, b1)],
                [(a00 * y1 - a10 * y0) / det for y0, y1 in zip(b0, b1)]]
    except OverflowError:  # an entry past the float range, far from any probability
        raise NumericError("absorbing-chain solve failed: the chain is too nearly closed "
                           "to solve") from None


def solve_exact(config: PumpCycleConfig) -> ChainOutcome:
    """Absorption probabilities of the pump-cycle chain, by linear solve.

    Within floating point, ``p_good`` equals the geometric-series closed
    form br_493 / (1 - a^2 br_650) with ``a`` the amplitude of the decay
    back to the initialized sublevel.  Under the default drive and initial
    sublevel that is the ``p_good`` of :func:`geometric_branch_probabilities`,
    whose ``p_bad`` undercounts this one's.  Each probability is the exact
    solution of the chain's linear system, as built in floats, correctly
    rounded (see :func:`_solve_2x2`).

    Raises
    ------
    NumericError
        If the chain is singular (a closed loop with no way out), or so
        nearly closed that the probabilities do not sum to 1 within 1e-9.
    """
    chain = _CompiledChain(config)
    if chain.start is None:
        return ChainOutcome(0.0, 0.0, 1.0)
    p_good, p_bad, p_dark = _solve_2x2(*_absorbing_system(chain))[chain.p_index[chain.start]]
    total = p_good + p_bad + p_dark
    if not abs(total - 1.0) <= 1e-9:
        raise NumericError(
            f"absorbing-chain solve failed: the branch probabilities sum to {total!r}, not 1 "
            "(the chain is too nearly closed to solve)"
        )
    return ChainOutcome(p_good, p_bad, p_dark)


def geometric_branch_probabilities(model: BranchingModel) -> ChainOutcome:
    """Closed-form geometric series for the branches of a sigma-minus drive from D3/2 +3/2.

        p_good = br_493 / (1 - reinit^2 br_650)
        p_bad  = br_493 br_650 crossover^2 / (1 - bad_loop^2 br_650)

    over the model's amplitudes reinit (P1/2 +1/2 -> D3/2 +3/2, back to the
    start), crossover (P1/2 +1/2 -> D3/2 +1/2, whose re-excitation feeds the
    wrong upper sublevel) and bad_loop (P1/2 -1/2 -> D3/2 +1/2, the wrong
    branch's own loop).  The default amplitudes (squares 1/2, 1/3, 1/6) give
    p_good = 0.8442 and p_bad = 0.0687, below the 0.0794 that
    :func:`solve_exact` gives for the same walk; the commonly quoted 0.103 is
    the probability of ever reaching the wrong upper sublevel rather than of
    emitting from it.  The closed form is kept as stated.

    Rounding and the model's 1e-12 normalization tolerance can carry the sums
    a hair past 1 (reinit 1 gives br_493 / (1 - br_650), which may round to
    1 + 2e-16), so p_good is capped at 1 and p_bad at 1 - p_good: all three
    lie in [0, 1].  A series that does not converge is a DomainError.
    """
    p_plus, p_minus = ZeemanState(Level.P12, +0.5), ZeemanState(Level.P12, -0.5)
    reinit = model.amplitude(p_plus, ZeemanState(Level.D32, +1.5))
    crossover = model.amplitude(p_plus, ZeemanState(Level.D32, +0.5))
    bad_loop = model.amplitude(p_minus, ZeemanState(Level.D32, +0.5))
    den_good = 1.0 - reinit**2 * model.br_650
    den_bad = 1.0 - bad_loop**2 * model.br_650
    if den_good <= 0.0 or den_bad <= 0.0:
        raise DomainError("geometric series does not converge: denominator <= 0")
    p_good = min(model.br_493 / den_good, 1.0)
    p_bad = min(model.br_493 * model.br_650 * crossover**2 / den_bad, 1.0 - p_good)
    return ChainOutcome(p_good, p_bad, 1.0 - p_good - p_bad)


_CHUNK = 1 << 15
"""Trajectories walked together by one thread; bounds the kernel's memory.

Sized by measurement on a 2-vCPU VM with this kernel (the 18 commands of
perfbench's ``mc-scaling`` workload: the median over 5 passes of the
largest cold-process peak RSS, and the median of 7 in-process timings of
its 9 ``simulate`` jobs at ``--threads`` 1 / 2, the sizes interleaved):

=============  ========  ===================
chunk          peak RSS  time, threads 1 / 2
=============  ========  ===================
2^14           35.76 MB  0.544 / 0.483 s
2^15 (this)    36.16 MB  0.524 / 0.330 s
2^16           37.17 MB  0.506 / 0.329 s
=============  ========  ===================

A chunk's draw is 8 bytes per trajectory.  Halving 2^16 saves 1.0 MB of
peak RSS; halving again saves 0.4 MB but costs 46% at two threads, since
the work per (chunk, cycle) that holds the GIL makes the threads
serialize.  The kernel before this one (a new generator per (chunk,
cycle), ``int64`` offsets, 2^16 chunks) peaked at 38.52 MB in the same
passes.
"""


def _seek(bitgen: np.random.Philox, seed: int, cycle: int, lo: int) -> None:
    """Position ``bitgen`` at output ``lo`` of the ``(seed, cycle)`` Philox stream.

    One counter step yields four 64-bit outputs, and the counter steps before
    each block: set the counter to ``lo // 4`` with the buffer empty, then
    discard the ``lo % 4`` outputs before ``lo``.
    """
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": (lo // 4, 0, 0, 0), "key": (seed, cycle)},
                    "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    if lo % 4:
        bitgen.random_raw(lo % 4)


class _Walker:
    """Walks trajectory chunks of one ``(chain, seed)``; safe to share across threads.

    A trajectory's state is the index of its P1/2 sublevel while it survives,
    or ``_GOOD``/``_BAD``/``_DARK`` once absorbed.
    """

    def __init__(self, chain: _CompiledChain, n_trials: int, seed: int, max_cycles: int):
        self.seed = seed
        self.n_trials = n_trials
        self.max_cycles = max_cycles
        self.start = chain.p_index[chain.start]
        import numpy as np

        # A deviate's rank among the inner decay edges of all P1/2 states
        # fixes its channel in each state: the state's edges at or below the
        # deviate are those at or below the largest union edge it reaches.
        # Each state's closing edge (its total, 1 up to rounding) is left out:
        # a deviate past the inner edges takes the last channel.  Plain
        # Python, since np.unique would load numpy.ma.
        self.edges = sorted({edge for cum in chain.cum for edge in cum[:-1]})
        floors = [-math.inf, *self.edges]
        self.table = np.array([dests[bisect_right(cum, floor, 0, len(cum) - 1)]
                               for cum, dests in zip(chain.cum, chain.dest) for floor in floors],
                              dtype=np.int8)
        # The deviate is u = m * 2**-53 with m = bits >> 11, as Generator.random
        # returns it.  edge * 2**53 is exact, so u >= edge exactly when
        # m >= ceil(edge * 2**53), that is when bits >= ceil(edge * 2**53) << 11.
        # An edge of 1.0 or more (ceiling 2**53, which would overflow uint64 once
        # shifted) is reached by no deviate and is left out.  The thresholds are
        # uint64 scalars, so no comparison promotes to float.
        self.thresholds = [np.uint64(math.ceil(edge * 2**53) << 11)
                           for edge in self.edges if edge < 1.0]

    def _decay(self, state: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """One decay decision per surviving trajectory from its state and raw deviate."""
        import numpy as np

        # int8 suffices: two P1/2 states with at most five decays each
        row = state * np.int8(len(self.edges) + 1)
        for threshold in self.thresholds:
            row += bits >= threshold
        return self.table[row]

    def _chunk(self, bitgen: np.random.Philox, lo: int, hi: int) -> tuple[int, int]:
        """Good and bad counts of trajectories ``lo .. hi-1``, drawn from ``bitgen``.

        Each cycle draws the stream up to the chunk's last survivor and
        decays only the survivors, whose offsets in the chunk ``pos`` holds.
        """
        import numpy as np

        good = bad = 0
        state = np.full(hi - lo, self.start, dtype=np.int8)
        pos = None  # every trajectory of the chunk, before the first decay
        for cycle in range(self.max_cycles):
            if not state.size:
                break
            _seek(bitgen, self.seed, cycle, lo)
            if pos is None:
                bits = bitgen.random_raw(hi - lo)
            else:  # the draw is freed once the survivors' bits are gathered
                bits = bitgen.random_raw(int(pos[-1]) + 1)[pos]
            state = self._decay(state, bits)
            del bits
            good += int(np.count_nonzero(state == _GOOD))
            bad += int(np.count_nonzero(state == _BAD))
            alive = np.flatnonzero(state >= 0)
            pos = alive.astype(np.int32) if pos is None else pos[alive]
            state = state[alive]
            del alive
        return good, bad  # survivors at the cutoff are dark

    def walk(self, starts: range) -> tuple[int, int]:
        """Good and bad counts over the chunks beginning at ``starts``.

        One generator serves the whole walk, repositioned before each draw.
        """
        import numpy as np

        bitgen = np.random.Philox(key=0)
        good = bad = 0
        for lo in starts:
            g, b = self._chunk(bitgen, lo, min(lo + _CHUNK, self.n_trials))
            good, bad = good + g, bad + b
        return good, bad


def _walk_in_threads(walker: _Walker, groups: list[range]) -> tuple[int, int]:
    """Good and bad counts summed over ``walker.walk(group)`` for each group.

    The calling thread walks group 0 and one started thread each other group;
    all are joined, and an exception in any is raised again here.  Plain
    ``threading``, loaded by numpy already: ``concurrent.futures`` would
    import ``logging`` too.
    """
    import threading

    results: list = [None] * len(groups)

    def work(i: int) -> None:
        try:
            results[i] = walker.walk(groups[i])
        except BaseException as exc:  # raised again once every thread is joined
            results[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, len(groups))]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return sum(good for good, _ in results), sum(bad for _, bad in results)


def simulate(config: PumpCycleConfig, n_trials: int, seed: int, workers: int = 1,
             max_cycles: int = 1000) -> ChainOutcome:
    """Monte Carlo estimate of the branch probabilities.

    Parameters
    ----------
    n_trials : int
        Number of independent trajectories, below 2**63.
    seed : int
        64-bit unsigned stream key.  Identical (seed, config, n_trials,
        max_cycles) give bit-identical results for any ``workers`` value.
    workers : int
        Threads walking trajectory chunks, capped at the number of chunks
        and at ``os.cpu_count()``.  Purely a throughput knob; the counts
        reduce by plain summation.
    max_cycles : int
        Cycles walked per trajectory, at least 1; one still walking after them is dark.
    """
    whole("max_cycles", max_cycles, 1)
    whole("n_trials", n_trials, 1, 2**63 - 1)
    whole("seed", seed, 0, 2**64 - 1)
    whole("workers", workers, 1)
    import numpy  # noqa: F401  (without numpy, the one place simulate fails)

    chain = _CompiledChain(config)
    good = bad = 0
    if chain.start is not None:
        walker = _Walker(chain, n_trials, seed, max_cycles)
        starts = range(0, n_trials, _CHUNK)
        n_threads = min(workers, len(starts), os.cpu_count() or 1)
        good, bad = _walk_in_threads(walker, [starts[i::n_threads] for i in range(n_threads)])
    # shelved in an undriven sublevel or cut off at max_cycles: dark.  Rounding
    # the count and n_trials to floats first keeps numpy's int64 quotient bit
    # for bit; past 2**53 a Python int / int quotient can differ.
    p = [float(count) / float(n_trials) for count in (good, bad, n_trials - good - bad)]
    se = [math.sqrt(x * (1.0 - x) / n_trials) for x in p]
    return ChainOutcome(*p, *se, n_trials=n_trials, seed=seed)
