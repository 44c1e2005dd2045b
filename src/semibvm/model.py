"""Partial linear regression model: data generation and scores.

The observation model is a triplet (U, V, Y) with

    Y = theta * U + eta(V) + e,        e ~ N(0, 1) independent of (U, V),

where theta is the scalar parameter of interest and eta is an unknown
regression function on [0, 1].  The covariate pair is fixed to the family

    V ~ Uniform[0, 1],   U = a * cos(2 pi V) + sigma_w * Z,   Z ~ N(0, 1),

standardised so that E[U] = 0 and E[U^2] = 1.  Under this family the
conditional mean m(v) = E[U | V = v] = a cos(2 pi v) is known in closed
form, which makes every efficiency quantity analytic: the efficient score
is e * (U - m(V)) and the efficient information is sigma_w^2.

A simulated dataset is a function of its 64-bit seed alone: it is drawn
from exactly the state np.random.default_rng(seed) starts in (n uniforms
v, then n normals z, then n noises e).  Those PCG64 states are computed
for a batch of seeds at once, numpy's SeedSequence hash vectorised over
the seeds (:func:`_pcg64_states`), and one generator is re-stated per
dataset instead of three seeding objects being built for each.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  numpy 2 imports it on first access; load it with the module

__all__ = [
    "CovariateLaw",
    "NuisanceFunction",
    "ModelPoint",
    "Dataset",
    "NumericsError",
    "make_covariate_law",
    "sample_dataset",
    "sample_datasets",
    "efficient_score",
    "empirical_information",
    "uniform_grid",
    "interpolation_index",
    "interpolate",
    "interpolation_weights",
]


class NumericsError(RuntimeError):
    """A computed quantity (a simulated field, a posterior precision) is
    not finite, or not positive definite where it must be."""


class StackNumericsError(NumericsError):
    """A NumericsError raised for one row of a stack; `index` is its
    position in the stack."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


def _check_integer(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """operator.index(value) if it lies in [least, most], both ends
    inclusive and None an open end (`most` is given with `least`); else
    ValueError naming `name`, also for a non-integer such as 2.0.  The
    package's one rule for a count, size or seed."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if most is not None and not least <= value <= most:
        raise ValueError(f"{name} must lie in [{least}, {most}], got {value}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _check_real(name: str, value, *, gt=None, ge=None, lt=None, le=None) -> float:
    """float(value) if it is finite and within the bounds given, gt/ge a
    lower end exclusive/inclusive and lt/le an upper one (at most one of
    each); else ValueError naming `name`: `theta0 must be finite, got
    nan`, `rho must be > 0, got 0.0` or `level must lie in (0, 1), got
    1.0`.  The package's one rule for a real number; a variance whose
    flat limit is inf is posterior._prior_precision's."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")
    value = float(value)
    if (
        (gt is not None and not value > gt)
        or (ge is not None and not value >= ge)
        or (lt is not None and not value < lt)
        or (le is not None and not value <= le)
    ):
        # each end given as (interval end, comparison)
        low = high = None
        if gt is not None or ge is not None:
            low = (f"({gt}", f"> {gt}") if gt is not None else (f"[{ge}", f">= {ge}")
        if lt is not None or le is not None:
            high = (f"{lt})", f"< {lt}") if lt is not None else (f"{le}]", f"<= {le}")
        wording = f"lie in {low[0]}, {high[0]}" if low and high else f"be {(low or high)[1]}"
        raise ValueError(f"{name} must {wording}, got {value}")
    return value


def uniform_grid(grid_size: int) -> np.ndarray:
    """Uniform grid j/(m-1), j = 0..m-1, on [0, 1]."""
    return np.linspace(0.0, 1.0, _check_integer("grid_size", grid_size, 2))


def interpolation_index(v, grid_size: int):
    """(idx, t), each of v's shape: the cell of the uniform grid j/(m-1)
    holding each point v in [0, 1], idx = min(floor(v (m-1)), m-2) in
    closed form (v = 1 falls in the last cell), and its offset
    t = v (m-1) - idx in [0, 1]."""
    grid_size = _check_integer("grid_size", grid_size, 2)
    v = np.asarray(v, dtype=float)
    if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):
        raise ValueError("interpolation points must lie in [0, 1]")
    x = v * (grid_size - 1)
    idx = np.minimum(x.astype(np.intp), grid_size - 2)
    return idx, x - idx


def interpolate(values: np.ndarray, v):
    """Linear interpolation at the points v of grid values along the last
    axis of `values`: shape values.shape[:-1] + v.shape."""
    idx, t = interpolation_index(v, values.shape[-1])
    return (1.0 - t) * values[..., idx] + t * values[..., idx + 1]


def interpolation_weights(v: np.ndarray, grid_size: int) -> np.ndarray:
    """(n, grid_size) matrix W, at most two nonzeros a row, with W @ values
    the :func:`interpolate` of the grid values at the n points v."""
    return interpolate(np.eye(_check_integer("grid_size", grid_size, 2)), np.atleast_1d(v)).T


@dataclass(frozen=True)
class CovariateLaw:
    """Joint law of (U, V) with known conditional mean m(v) = a cos(2 pi v).

    sigma_w, the residual sd of U given V, is the law's one free number:
    the amplitude a = sqrt(2 (1 - sigma_w^2)) follows from the
    standardisation a^2/2 + sigma_w^2 = 1, so E[U^2] = 1.
    """

    sigma_w: float

    def __post_init__(self) -> None:
        # above 1 no amplitude gives E[U^2] = 1; at 0 the information vanishes
        sd = _check_real("sigma_w", self.sigma_w, gt=0, le=1)
        info = self.efficient_info  # below sd of about 2^-512, 1/info overflows
        if not (info > 0.0 and 1.0 / info < math.inf):
            raise ValueError(f"sigma_w must have a finite 1/sigma_w^2, got {sd}")

    @property
    def cond_mean_amplitude(self) -> float:
        """a = sqrt(2 (1 - sigma_w^2))."""
        return math.sqrt(2.0 * (1.0 - self.sigma_w**2))

    def cond_mean(self, v: np.ndarray | float) -> np.ndarray | float:
        """m(v) = E[U | V = v]."""
        return self.cond_mean_amplitude * np.cos(2.0 * np.pi * np.asarray(v))

    @property
    def efficient_info(self) -> float:
        """E[(U - m(V))^2] = sigma_w^2."""
        return self.sigma_w**2

    @property
    def fourth_moment_u(self) -> float:
        """E[U^4], analytic: (3/8) a^4 + 3 a^2 sigma_w^2 + 3 sigma_w^4."""
        a2 = self.cond_mean_amplitude**2
        s2 = self.sigma_w**2
        return 0.375 * a2 * a2 + 3.0 * a2 * s2 + 3.0 * s2 * s2


def make_covariate_law(sigma_w: float) -> CovariateLaw:
    """Build the standardised covariate law from the residual scale.

    sigma_w = 1 gives U independent of V (amplitude 0); values outside
    (0, 1] are rejected because either the efficient information would
    vanish or no standardising amplitude exists.
    """
    return CovariateLaw(sigma_w=sigma_w)


@dataclass(frozen=True, eq=False)
class NuisanceFunction:
    """Regression function on [0, 1]: grid values with linear interpolation."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("values must be a 1-d array of length >= 2")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, f, grid_size: int) -> "NuisanceFunction":
        grid = uniform_grid(grid_size)
        return cls(np.asarray([f(t) for t in grid], dtype=float))

    @property
    def grid(self) -> np.ndarray:
        return uniform_grid(self.values.size)

    def __call__(self, v):
        return interpolate(self.values, v)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True, eq=False)
class ModelPoint:
    """A model point (theta, eta).  Noise standard deviation is fixed at 1."""

    theta: float
    eta: NuisanceFunction

    def __post_init__(self) -> None:
        _check_real("theta", self.theta)


def _store_finite(obj, names: Sequence[str]) -> None:
    """Store each named field of a frozen dataclass as a float array;
    ValueError names the first with a non-finite entry."""
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} entries must be finite")
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed triplets (u, v, y) as arrays of one shape (..., n): one
    dataset of size n, or a (rows, n) stack of them, one per row.  A
    simulated one keeps its provenance, the drawn noise e and covariate
    residual w = u - m(v), both or neither, of that same shape.  ds[key]
    indexes every array alike: ds[row] is one dataset of a stack and
    ds[None] is a stack of one."""

    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    e: np.ndarray | None = field(default=None)
    w: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if (self.e is None) != (self.w is None):
            raise ValueError("e and w must be given together")
        _store_finite(self, self._fields())
        if not (self.u.shape == self.v.shape == self.y.shape) or self.u.ndim < 1:
            raise ValueError("u, v, y must be arrays of one shape (..., n)")
        if self.e is not None and not (self.e.shape == self.w.shape == self.u.shape):
            raise ValueError("e and w must match the shape of u, v, y")
        if self.v.size and (self.v.min() < 0.0 or self.v.max() > 1.0):
            raise ValueError("v entries must lie in [0, 1]")

    def _fields(self) -> tuple[str, ...]:
        return ("u", "v", "y") + (() if self.e is None else ("e", "w"))

    @property
    def n(self) -> int:
        return self.u.shape[-1]

    def __getitem__(self, key) -> "Dataset":
        return Dataset(**{name: getattr(self, name)[key] for name in self._fields()})


# Working-set budget of one stage's stack, in doubles: _stack_rows(d),
# the one stack rule, gives a stack of rows of d doubles as many rows as
# fit it, at least one.  The stages, with their rows on the default
# config (m = 50 grid nodes, r = 50): a data chunk of experiments._batches,
# d = 2 max(n, m), takes 163, 40 and 10 replications at n = 50, 200, 800
# (the 300 default coverage cells run in 14 chunks); a sub-stack of
# posterior.theta_posteriors, d = (r+2)^2, 6 systems; a domination chunk
# of asymptotics.estimate_un_per_zeta, d = 2n.  The O(n) stages
# (generator, u and y, the bincounts) thus pay their per-call overhead
# once per chunk, not once per 4-5 replications as when one divisor,
# n + (m+2)^2, sized every stage.
#
# Why these divisors: the allocator.  A chunk's (rows, n) samples and
# its (rows, m) statistics (diag, off, W'u, W'y and their bincounts) stay
# at half the budget, 64 KiB, and a sub-stack's (rows, m, m) and (rows,
# r+2, r+2) arrays at most at the budget, so all stay under glibc's
# 128 KiB mmap threshold and freed memory is reused.  Above it every
# stack is handed fresh pages, returned to the kernel on free and
# faulted in again.  Per cold `coverage --replications 100` launch on a
# 2-vCPU VM (getrusage around cli.main, 6 launches each): one divisor
# took 158-161 minor faults and 37.7-37.8 MiB peak RSS, these two take
# 592-594 faults and 38.1-38.2 MiB, 0-4 ms system time either way.  Of
# the added faults about 300 are heap trims (with MALLOC_TRIM_THRESHOLD_
# raised: 194 and 301), since freeing several 64 KiB arrays at once
# leaves more than 128 KiB free at the top of the heap.  A data divisor
# of n, with arrays right at 128 KiB, faulted about 2390 times per
# launch.  A budget of 2^15 under the single divisor took 3762-3808
# faults and was no faster end to end than 2^14, and one batch per n
# raised the peak RSS of a coverage run by 8 MiB.  A change of the
# budget or a divisor should measure page faults as well as wall time.
_BATCH_BUDGET = 2**14


def _stack_rows(doubles_per_row: int) -> int:
    """As many rows of `doubles_per_row` doubles as fit the budget, at least one."""
    return max(1, _BATCH_BUDGET // doubles_per_row)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# seeding step, for _pcg64_states.  The hash constants do not depend on
# the data: the entropy hash takes INIT_A * MULT_A^j mod 2^32, j = 0..16
# (four pool words, then three per source word of the pool mix), and
# generate_state takes INIT_B * MULT_B^j, j = 0..8 (eight output words).
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT16 = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^j mod 2^32 for j = 0..count, a (count + 1, 1) uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(words: np.ndarray, consts: np.ndarray, first: int, count: int) -> np.ndarray:
    """SeedSequence's hashmix as `count` rows: row j xors the words with
    consts[first + j], multiplies by consts[first + j + 1], then takes
    x ^ (x >> 16).  The words are (count, seeds) or one (seeds,) row
    hashed `count` ways; every operand is uint32 and products wrap."""
    x = (words ^ consts[first : first + count]) * consts[first + 1 : first + count + 1]
    x ^= x >> _SHIFT16
    return x


def _pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that np.random.default_rng(seed) starts in,
    for each seed in [0, 2^64).

    numpy seeds PCG64 through SeedSequence(seed): the seed's 32-bit words,
    low first, are hashed into a pool of four words (a seed below 2^32
    has one word, and hashing the absent second word as 0 gives the same
    pool), every pool word is mixed into every other, and eight hashed
    pool words make PCG64's 128-bit initial state and stream.  The hash
    runs for all seeds at once: a source word's three pool updates read
    the same source, so each source is one (3, seeds) array operation.
    PCG64's two seeding steps, state = (inc + initstate) mult + inc with
    inc = 2 initseq + 1 mod 2^128, run per seed in Python ints.
    """
    seeds = [_check_integer("seed", seed, 0, _MASK64) for seed in seeds]
    # word splits and joins by little-endian views, as numpy's own
    # generate_state does: every ufunc loop a new dtype needs touches
    # about 68 KiB of numpy's code, counted in the peak RSS
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[:2] = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T  # low word first
    pool = _hashmix(pool, _HASH_A, 0, 4)
    for src, first in zip(range(4), range(4, 16, 3)):
        dst = [i for i in range(4) if i != src]
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], _HASH_A, first, 3) * _MIX_R
        mixed ^= mixed >> _SHIFT16
        pool[dst] = mixed
    words = _hashmix(np.concatenate([pool, pool]), _HASH_B, 0, 8)
    states = []  # each seed's uint64 words: initstate high, low, initseq high, low
    for s_hi, s_lo, q_hi, q_lo in np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist():
        inc = ((q_hi << 65) | (q_lo << 1) | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _draws(
    law: CovariateLaw,
    rng: np.random.Generator,
    n: int,
    rows: int,
    states: Sequence[tuple[int, int]] | None = None,
):
    """(u, v, w, e), each of shape (rows, n), drawn by rng in the seed
    contract's order: per row n uniforms v, then n normals z, then n
    noises e.  Each row continues rng's stream where the row before left
    it or, given the PCG64 `states` of :func:`_pcg64_states`, starts rng
    at states[row], the state default_rng of that row's seed starts in.
    w = sigma_w z and u = m(v) + w are formed once for the whole stack."""
    v, w, e = (np.empty((rows, n)) for _ in range(3))
    bit_generator = rng.bit_generator
    for row in range(rows):
        if states is not None:
            state, inc = states[row]
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        rng.random(out=v[row])  # uniform(0, 1) bit for bit: 0 + 1 x = x
        rng.standard_normal(out=w[row])  # z, scaled to w below
        rng.standard_normal(out=e[row])
    w *= law.sigma_w
    return law.cond_mean(v) + w, v, w, e


def _sample_rows(
    law: CovariateLaw, truth: ModelPoint, n: int, states: Sequence[tuple[int, int]]
) -> Dataset:
    """One dataset of n triplets per PCG64 state of :func:`_pcg64_states`,
    as the rows of a (len(states), n) stack: :func:`_draws` re-states one
    generator per row, and y = theta u + eta(v) + e is formed once.  A y
    that overflows (a huge theta or eta) is StackNumericsError naming its
    row, found by the Dataset's own finiteness check: no extra pass."""
    n = _check_integer("n", n, 0)
    rng = np.random.default_rng(0)  # re-stated before its first draw
    u, v, w, e = _draws(law, rng, n, len(states), states)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        y = truth.theta * u + truth.eta(v) + e
    try:
        return Dataset(u=u, v=v, y=y, e=e, w=w)
    except ValueError as exc:  # the draws are finite, so only y can fail
        finite = np.isfinite(y).all(axis=-1)
        if finite.all():
            raise
        raise StackNumericsError(int(np.argmin(finite)), "simulated y is not finite") from exc


def sample_datasets(
    law: CovariateLaw, truth: ModelPoint, n: int, seeds: Sequence[int]
) -> Dataset:
    """Simulate one dataset of n i.i.d. triplets per seed in [0, 2^64),
    as the rows of a (len(seeds), n) stack.

    Row i is fully determined by seeds[i], whatever the other seeds are:
    it is drawn from exactly the state default_rng(seeds[i]) starts in,
    computed for all seeds at once (:func:`_pcg64_states`), and y = theta
    u + eta(v) + e is formed once for the whole stack.  The drawn e and w
    are kept for score-based diagnostics: u - m(v) loses w's digits to
    m(v) as sigma_w shrinks.  StackNumericsError names the row of a y
    that overflows.
    """
    return _sample_rows(law, truth, n, _pcg64_states(seeds))


def sample_dataset(
    law: CovariateLaw, truth: ModelPoint, n: int, seed: int
) -> Dataset:
    """Simulate n i.i.d. triplets from the model at `truth`: row 0 of
    :func:`sample_datasets` for the one seed.  NumericsError, naming n
    and the seed, if y overflows."""
    try:
        return sample_datasets(law, truth, n, [seed])[0]
    except StackNumericsError as exc:
        raise NumericsError(f"dataset n={n} seed={seed}: {exc}") from exc


def efficient_score(x, law: CovariateLaw, truth: ModelPoint):
    """(y - theta0 u - eta0(v)) * (u - m(v)) for x = (u, v, y)."""
    u, v, y = (np.asarray(c, dtype=float) for c in x)
    resid = y - truth.theta * u - truth.eta(v)
    return resid * (u - law.cond_mean(v))


def empirical_information(ds: Dataset, law: CovariateLaw) -> float:
    """Sample analogue (1/n) sum w_i^2, w = u - m(v).

    Reads the drawn w where the dataset carries it: u - m(v) cancels w's
    digits away as sigma_w shrinks."""
    _check_integer("n", ds.n, 1)
    w = ds.u - law.cond_mean(ds.v) if ds.w is None else ds.w
    return float(np.mean(w**2))
