"""Monte Carlo engine for controlled wealth paths and perturbation tests.

The steps are cut into segments at each switch of the scenario timeline
and of the strategy.  In a jump-free run, a segment [lo, hi) with a
constant strategy is exact in one step from the Brownian path W (per
path and asset, in units of one step's standard deviation):

    x_hi = x_lo + (hi - lo) drift_dt + sqrt(dt) vol . (W_hi - W_lo).

Adjacent such segments with equal coefficients are one step, so an
unperturbed splice gives the bits of the unspliced run.  Segments with a
state-dependent strategy, runs with jumps and runs that keep their paths
step once per step with increments W_{s+1} - W_s.  Compound Poisson
counts are inverted from one uniform per step and type, sizes from the
size law's CDF; discrete Levy atoms get independent Poisson counts.

Random numbers follow RNG layout 3 (``RNG_LAYOUT``).  W is a Brownian
bridge over a fixed split tree of the steps (Glasserman, Monte Carlo
Methods in Financial Engineering, 2004, section 3.1): W at one node
costs O(log N) normals, a full fill N normals per path and asset.
Paths are grouped into blocks of ``_BLOCK`` = 1024 stream indices; each
(seed, block, tree level) keys one Philox stream drawn node-major, so a
window at t0 reads a short prefix of each level.  Jump-count and
first-event jump-size uniforms have one stream per (seed, block, tag),
drawn path-major; later events of one (path, step, type) have their own
stream.  Antithetic pairs share stream index path // 2.  A path's
numbers depend only on the seed and its index and all per-path
arithmetic is elementwise in a fixed order, so results are bit-identical
across reruns, chunkings and path counts, and depend on the values of
scenarios and strategies, not on object identity.

The perturbation reports realize the local-variation definitions of
worst-case scenario and equilibrium: constant splices on [t0, t0 + h)
with common random numbers, reported as difference quotients with error
bars.  One driver serves both: the base run and every splice of every
window strategy w with every scenario candidate u, at every h snapped to
whole steps, are ``simulate_paths`` calls on one shared ``ShockCache``.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import struct
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidBounds, NonBankruptcyViolated
from .model import (
    CompoundPoissonJumps,
    Criterion,
    DiscreteLevyJumps,
    JumpSpec,
    Scenario,
    UncertaintySet,
    WealthDynamics,
    nonbankruptcy_violations,
)
from .closed_form import ClosedFormSolution
from .worst_case import corner_scenarios, sobol_scenarios

_log = logging.getLogger(__name__)

RNG_LAYOUT = 3
_BLOCK = 1024  # stream indices per Philox stream; part of the RNG layout
_TAG_NORMALS = 1
_TAG_COUNTS = 2
_TAG_SIZES = 3
_TAG_FIRST_SIZES = 4
_SE_FLOOR = float(np.finfo(float).tiny)
_MAGIC = b"RMVP"


def _stream(seed: int, stream_index: int, tag: int, step: int = 0, sub: int = 0) -> np.random.Generator:
    key = np.array([seed, stream_index], dtype=np.uint64)
    counter = np.array([0, step, sub, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _poisson_counts(u: np.ndarray, lam: float) -> np.ndarray:
    """Invert the Poisson CDF at the given uniforms (exact, monotone in u)."""
    counts = np.zeros(u.shape, dtype=np.int64)
    if lam <= 0.0:
        return counts
    pmf = math.exp(-lam)
    cdf = np.full(u.shape, pmf)
    active = u > cdf
    k = 0
    pk = pmf
    while active.any():
        k += 1
        pk *= lam / k
        cdf += pk
        counts[active] = k
        active = u > cdf
        if k > 10_000:  # lam dt is tiny here; this is unreachable in practice
            raise InvalidBounds("Poisson inversion failed to converge")
    return counts


# ---------------------------------------------------------------------------
# configuration, batches, estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Path count, step size and the 64-bit seed every run must pin."""

    n_paths: int
    dt: float
    seed: int
    antithetic: bool = False
    keep_paths: bool = False
    chunk_paths: int = 65536

    def __post_init__(self) -> None:
        if self.n_paths < 2:
            raise InvalidBounds("need at least two paths")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InvalidBounds("dt must be positive and finite")
        if self.chunk_paths < 1:
            raise InvalidBounds("chunk_paths must be at least 1")
        if self.seed < 0 or self.seed >= 2**64:
            raise InvalidBounds("seed must fit in 64 bits")
        if self.antithetic and self.n_paths % 2:
            raise InvalidBounds("antithetic runs need an even path count")

    def steps_for(self, span: float) -> tuple[int, float]:
        """Number of steps and the effective dt: the requested dt is rounded
        down so the horizon is an integer number of steps."""
        n = max(1, math.ceil(span / self.dt - 1e-9))
        return n, span / n


@dataclass(frozen=True)
class PathBatch:
    """Simulated terminal states (and optionally full paths) plus provenance."""

    terminal: np.ndarray
    t0: float
    horizon: float
    dt: float
    n_steps: int
    seed: int
    kind: str
    x0: float
    paths: np.ndarray | None = None
    rng_layout: int = RNG_LAYOUT

    @property
    def n_paths(self) -> int:
        return self.terminal.size

    def spill(self, path) -> None:
        """Write the binary columnar dump (needs keep_paths=True).

        Layout: magic ``RMVP``, one version byte, n_paths and n_steps as
        little-endian uint64, then float64 node columns (n_steps + 1
        columns of n_paths values each, little-endian).
        """
        if self.paths is None:
            raise InvalidBounds("path spill needs a batch simulated with keep_paths=True")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sBQQ", _MAGIC, 1, self.n_paths, self.n_steps))
            fh.write(np.ascontiguousarray(self.paths.T, dtype="<f8").tobytes())

    @staticmethod
    def load(path) -> tuple[int, int, np.ndarray]:
        """Read a spill file back; returns (n_paths, n_steps, path matrix)."""
        with open(path, "rb") as fh:
            magic, version, n_paths, n_steps = struct.unpack("<4sBQQ", fh.read(21))
            if magic != _MAGIC or version != 1:
                raise InvalidBounds("not a version-1 path dump")
            data = np.frombuffer(fh.read(), dtype="<f8")
        if data.size != n_paths * (n_steps + 1):
            raise InvalidBounds("path dump payload has the wrong size")
        return int(n_paths), int(n_steps), data.reshape(n_steps + 1, n_paths).T.copy()


@dataclass(frozen=True)
class JEstimate:
    """Sample estimate of the mean-variance functional J = E - lam Var.

    The standard error combines the errors of the mean and of the
    variance through the delta method (influence function of J).
    """

    j_hat: float
    mean_hat: float
    var_hat: float
    standard_error_j: float
    n_paths: int
    standard_error_mean: float

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _influence(x: np.ndarray, lam: float) -> tuple[float, float, np.ndarray]:
    """Sample mean, unbiased sample variance and the influence function of
    J = mean - lam var at the sample x."""
    m, v = float(np.mean(x)), float(np.var(x, ddof=1))
    c = x - m
    return m, v, c - lam * (c * c - v)


class _PairedBase:
    """J estimate and influence function of a base run, computed once and
    paired against any number of CRN runs."""

    def __init__(self, batch: PathBatch, criterion: Criterion):
        x = batch.terminal
        n = x.size
        self.lam = criterion.risk_aversion_at(criterion.x0)
        m, v, self.psi = _influence(x, self.lam)
        se = float(np.std(self.psi, ddof=1) / math.sqrt(n))
        se_mean = float(np.std(x, ddof=1) / math.sqrt(n))
        self.est = JEstimate(
            j_hat=m - self.lam * v,
            mean_hat=m,
            var_hat=v,
            standard_error_j=max(se, _SE_FLOOR),
            n_paths=n,
            standard_error_mean=max(se_mean, _SE_FLOOR),
        )

    def difference(self, terminal: np.ndarray) -> tuple[float, float]:
        """J(base) - J(run) with the standard error of the paired difference."""
        m, v, psi = _influence(terminal, self.lam)
        psi = self.psi - psi
        se = float(np.std(psi, ddof=1) / math.sqrt(terminal.size))
        return self.est.j_hat - (m - self.lam * v), max(se, _SE_FLOOR)


def estimate_J(batch: PathBatch, criterion: Criterion) -> JEstimate:
    """Sample mean minus lam(x0) times the unbiased sample variance."""
    return _PairedBase(batch, criterion).est


def paired_difference(a: PathBatch, b: PathBatch, criterion: Criterion) -> tuple[float, float]:
    """J(a) - J(b) with the standard error of the paired (CRN) difference."""
    return _PairedBase(a, criterion).difference(b.terminal)


# ---------------------------------------------------------------------------
# strategies and scenario timelines
# ---------------------------------------------------------------------------


def _in_window(t, switch: float):
    """Whether time t (a float or an array of step starts) lies in a
    splice window that ends at ``switch``."""
    return t < switch - 1e-12


@dataclass(frozen=True)
class ConstantStrategy:
    vec: np.ndarray

    def __post_init__(self):
        v = np.array(self.vec, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    def values(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.vec


@dataclass(frozen=True)
class SolutionStrategy:
    """Wraps a closed-form solution's strategy for the simulator: the
    constant vector ``alpha_coef``, or per path for wealth-scaled ones."""

    sol: ClosedFormSolution

    def values(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.sol.kind == "wealth_scaled":
            return self.sol.alpha_hat(t, x)
        return self.sol.alpha_coef


@dataclass(frozen=True)
class SplicedStrategy:
    """Constant vector w on [t0, switch), the base strategy afterwards."""

    window_vec: np.ndarray
    switch: float
    base: ConstantStrategy | SolutionStrategy

    def __post_init__(self):
        v = np.array(self.window_vec, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "window_vec", v)

    def values(self, t: float, x: np.ndarray) -> np.ndarray:
        if _in_window(t, self.switch):
            return self.window_vec
        return self.base.values(t, x)


@dataclass(frozen=True)
class SplicedScenario:
    """Scenario u on [t0, switch), the base scenario afterwards."""

    window: Scenario
    switch: float
    base: Scenario

    def at(self, t: float) -> Scenario:
        if _in_window(t, self.switch):
            return self.window
        return self.base


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class _Segment:
    """Per-scenario precomputation shared by all steps of one segment."""

    def __init__(self, scenario: Scenario, dt: float):
        self.scenario = scenario
        self.chol_dt = scenario.chol() * math.sqrt(dt)  # volatility loadings of one step
        self.drift = np.asarray(scenario.drift, dtype=float)
        self.cov = np.asarray(scenario.cov, dtype=float)
        self.dt = dt
        jump = scenario.jump
        if isinstance(jump, CompoundPoissonJumps):
            self.jump_kind = "cp"
            self.loadings = np.asarray(jump.loadings, dtype=float)
            self.lam_dt = np.asarray(jump.intensity, dtype=float) * dt
            self.size_laws = jump.size_laws
            self.n_streams = jump.n_types
        elif isinstance(jump, DiscreteLevyJumps):
            self.jump_kind = "ld"
            self.atom_vecs = np.asarray(jump.atoms, dtype=float)
            self.lam_dt = np.asarray(jump.weights, dtype=float) * dt
            self.n_streams = jump.weights.size
        else:
            self.jump_kind = "none"
            self.n_streams = 0


class ShockCache:
    """Shocks drawn once and reused across CRN runs, keyed by chunk start:
    per chunk the W nodes by step index, each (assets, paths), and for
    jump runs the count uniforms (steps, streams, paths) and, when a
    segment has compound Poisson jumps, the first-event size uniforms of
    the same shape.  A jump-free run with constant segments adds only W
    at its cut points and their bridge ancestors; a run that steps adds
    every node.  All runs sharing a cache must share the seed, step
    count, asset count, jump-stream count, jump kind and antithetic flag.
    """

    def __init__(self) -> None:
        self.store: dict[int, tuple[dict[int, np.ndarray], np.ndarray | None, np.ndarray | None]] = {}


class _Bridge:
    """The split tree of W_0 = 0, ..., W_n, as arrays over nodes.

    Level 0 holds node n, W_n = sqrt(n) Z.  Each later level splits every
    interval [a, b] of the level above with b - a >= 2, left to right, at
    m = a + the largest power of two below b - a, and

        W_m = sqrt((m - a) (b - m) / (b - a)) Z + (b - m) / (b - a) W_a
              + (m - a) / (b - a) W_b,

    summed in that order.  Windows of 2^j steps from the start are reached
    through the first node of each level, and the tree of 2n steps holds
    the tree of n node for node, so halving dt keeps the Brownian path.
    Per node: its level, its index within the level, the interval ends
    (a, b) and the weights of W_a, W_b and Z.
    """

    def __init__(self, n: int):
        self.level = np.full(n + 1, -1)
        self.index = np.zeros(n + 1, dtype=np.int64)
        self.ends = np.zeros((n + 1, 2), dtype=np.int64)
        self.weights = np.zeros((n + 1, 3))
        self.level[n], self.weights[n, 2] = 0, math.sqrt(n)
        intervals, depth = [(0, n)], 1
        while intervals:
            split = [(a, b) for a, b in intervals if b - a >= 2]
            intervals = []
            for j, (a, b) in enumerate(split):
                m = a + (1 << ((b - a - 1).bit_length() - 1))
                self.level[m], self.index[m], self.ends[m] = depth, j, (a, b)
                self.weights[m] = ((b - m) / (b - a), (m - a) / (b - a),
                                   math.sqrt((m - a) * (b - m) / (b - a)))
                intervals += [(a, m), (m, b)]
            depth += 1

    def closure(self, want, have) -> np.ndarray:
        """The nodes in ``want`` and their bridge ancestors not in ``have``."""
        todo, out = [int(m) for m in want], set()
        while todo:
            m = todo.pop()
            if m not in have and m not in out:
                out.add(m)
                todo += self.ends[m].tolist()
        return np.array(sorted(out), dtype=np.int64)


_bridge = functools.lru_cache(maxsize=16)(_Bridge)


class _Shocks:
    """The shocks of one run, chunk by chunk.  Antithetic pairs share
    stream index path // 2; odd paths negate their normals, and with them
    their whole Brownian path."""

    def __init__(self, seed: int, n_steps: int, n_assets: int, n_streams: int, n_paths: int,
                 antithetic: bool, cache: ShockCache | None, sizes: bool = True):
        self.seed = seed
        self.n_steps = n_steps
        self.n_assets = n_assets
        self.n_streams = n_streams
        self.sizes = sizes and n_streams > 0  # whether first-event size uniforms are drawn
        self.end = (n_paths + 1) // 2 if antithetic else n_paths  # the run's stream indices
        self.antithetic = antithetic
        self.cache = cache
        self.bridge = _bridge(n_steps)
        # (block, tag, level) -> (generator, values drawn so far), kept for
        # the blocks a later chunk of the run reads again
        self.drawn: dict[tuple[int, int, int], tuple[np.random.Generator, np.ndarray]] = {}

    def chunk(self, start: int, size: int):
        """The chunk's node table (holding W_0 = 0 when new), its count
        uniforms and its first-event size uniforms (None when not drawn)."""
        if self.cache is not None and start in self.cache.store:
            return self.cache.store[start]

        def uniforms(tag):
            return (self._columns(functools.partial(self._uniforms, tag), start, size)
                    .reshape(self.n_steps, -1, size))

        out = ({0: np.zeros((self.n_assets, size))},
               uniforms(_TAG_COUNTS) if self.n_streams else None,
               uniforms(_TAG_FIRST_SIZES) if self.sizes else None)
        if self.cache is not None:
            self.cache.store[start] = out
        return out

    def fill(self, w: dict[int, np.ndarray], start: int, size: int, want) -> None:
        """Add W at the nodes in ``want``, and at their ancestors, to the
        chunk's node table ``w``, level by level."""
        tree = self.bridge
        todo = tree.closure(want, w)
        levels = tree.level[todo]
        tmp = np.empty((self.n_assets, size))
        for level in sorted(set(levels.tolist())):
            nodes = todo[levels == level]
            idx = tree.index[nodes]
            count = int(idx[-1]) + 1
            z = self._columns(functools.partial(self._normals, level, count), start, size)
            if len(idx) < count:
                z = z[idx]
            if self.antithetic:
                z[:, :, (start + np.arange(size)) % 2 == 1] *= -1.0
            z *= tree.weights[nodes, 2][:, None, None]
            for m, node in zip(nodes.tolist(), z):  # sd Z + wl W_a + wr W_b
                (a, b), (wl, wr, _) = tree.ends[m].tolist(), tree.weights[m].tolist()
                node += np.multiply(w[a], wl, out=tmp)
                node += np.multiply(w[b], wr, out=tmp)
                w[m] = node

    def _columns(self, read, start: int, size: int) -> np.ndarray:
        """``read(lo, hi)`` returns stream indices lo..hi-1 on its last axis;
        this returns one column per path of the chunk."""
        if not self.antithetic:
            return read(start, start + size)
        streams = np.arange(start, start + size) // 2
        return read(int(streams[0]), int(streams[-1]) + 1)[..., streams - streams[0]]

    def _normals(self, level: int, count: int, lo: int, hi: int) -> np.ndarray:
        """The first ``count`` nodes of one level at stream indices lo..hi-1,
        (count, assets, indices), drawn node-major: (node, asset, row)."""
        out = np.empty((count, self.n_assets, hi - lo))
        for block, a, b in _blocks(lo, hi):
            z = self._draws(block, _TAG_NORMALS, level, count, hi,
                            lambda gen, n: gen.standard_normal((n, self.n_assets, _BLOCK)))
            out[:, :, a - lo:b - lo] = z[:count, :, a - block * _BLOCK:b - block * _BLOCK]
        return out

    def _uniforms(self, tag: int, lo: int, hi: int) -> np.ndarray:
        """One jump tag's uniforms at stream indices lo..hi-1, (steps *
        streams, indices), drawn path-major: (row, step, stream)."""
        width = self.n_steps * self.n_streams
        out = np.empty((width, hi - lo))
        for block, a, b in _blocks(lo, hi):
            first = block * _BLOCK
            z = self._draws(block, tag, 0, b - first, hi, lambda gen, n: gen.random((n, width)))
            out[:, a - lo:b - lo] = z[a - first:b - first].T
        return out

    def _draws(self, block: int, tag: int, level: int, count: int, hi: int, draw) -> np.ndarray:
        """At least the first ``count`` draws of the (seed, block, tag,
        level) stream.  A block whose indices in the run reach past ``hi``
        keeps its generator and draws for the next chunk, so in-order chunks
        draw every value once; any other read draws the block's prefix
        again."""
        gen, z = self.drawn.pop((block, tag, level), (None, None))
        if gen is None:
            gen = _stream(self.seed, block, tag, step=level)
            z = draw(gen, count)
        elif len(z) < count:
            z = np.concatenate([z, draw(gen, count - len(z))])
        if hi < min((block + 1) * _BLOCK, self.end):
            self.drawn[(block, tag, level)] = (gen, z)
        return z

    def extra_uniforms(self, path: int, step: int, type_index: int, count: int) -> np.ndarray:
        """Size uniforms of the second and later jump events of one
        (path, step, type), from a stream keyed by exactly that."""
        stream = path // 2 if self.antithetic else path
        return _stream(self.seed, stream, _TAG_SIZES, step=step, sub=type_index).random(count)


def _blocks(lo: int, hi: int):
    """(block, first, end) of each block's share of stream indices lo..hi-1."""
    for block in range(lo // _BLOCK, (hi - 1) // _BLOCK + 1):
        yield block, max(lo, block * _BLOCK), min(hi, (block + 1) * _BLOCK)


def simulate_paths(
    dynamics: WealthDynamics,
    strategy,
    scenario: Scenario | SplicedScenario,
    cfg: SimConfig,
    t0: float,
    horizon: float,
    x0: float,
    shock_cache: ShockCache | None = None,
) -> PathBatch:
    """Paths of the controlled state under (strategy, scenario).

    ``scenario`` is a bare Scenario or a ``SplicedScenario``; each segment
    between switches has one scenario and one strategy regime.
    ``strategy.values(t, x)`` returns alpha as (n,) when it is constant up
    to its next switch, so it is asked once per segment and chunk, or as
    (paths, n) when it depends on the state, so it is asked every step.
    Under terminal-wealth jump dynamics, admissible constant strategies
    must keep every per-type exposure in [0, 1]; a path whose wealth
    still hits zero aborts the run.
    """
    n_steps, dt = cfg.steps_for(horizon - t0)
    t_nodes = t0 + dt * np.arange(n_steps)

    cuts = {0, n_steps}
    for part in (scenario, strategy):
        if isinstance(part, (SplicedScenario, SplicedStrategy)):
            cuts.add(int(np.count_nonzero(_in_window(t_nodes, part.switch))))  # steps before it
    cuts = sorted(cuts)
    segments: list[tuple[_Segment, int, int]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        scen = scenario.at(t_nodes[lo]) if isinstance(scenario, SplicedScenario) else scenario
        segments.append((_Segment(scen, dt), lo, hi))

    n_assets = segments[0][0].drift.size
    n_streams = max(seg.n_streams for seg, _, _ in segments)
    log_state = dynamics.state_is_log
    guard_wealth = n_streams > 0 and not log_state
    check_exposure = dynamics.kind == "terminal_wealth"
    exact = n_streams == 0 and not cfg.keep_paths

    chunk = _effective_chunk(cfg.chunk_paths, n_steps, max(n_assets, n_streams))
    terminal = np.empty(cfg.n_paths)
    paths = np.empty((cfg.n_paths, n_steps + 1)) if cfg.keep_paths else None

    shocks = _Shocks(cfg.seed, n_steps, n_assets, n_streams, cfg.n_paths, cfg.antithetic,
                     shock_cache, sizes=any(seg.jump_kind == "cp" for seg, _, _ in segments))

    for start in range(0, cfg.n_paths, chunk):
        size = min(chunk, cfg.n_paths - start)
        w, u, v = shocks.chunk(start, size)
        shocks.fill(w, start, size, cuts if exact else ())
        x = np.full(size, float(x0))
        if cfg.keep_paths:
            paths[start:start + size, 0] = x
        group = None  # (coef, lo, hi): constant segments not yet applied
        for seg, lo, hi in segments:
            x_lo = x if group is None else _advance(x, *group, w)
            coef = _Coefficients(seg, strategy.values(t_nodes[lo], x_lo), log_state)
            if check_exposure and not coef.per_path:
                _require_admissible(coef.alpha, seg)
            if exact and not coef.per_path:
                if group is not None and coef.same_step(group[0]):
                    group = (group[0], group[1], hi)
                else:
                    x, group = x_lo, (coef, lo, hi)
                continue
            x, group = x_lo, None
            shocks.fill(w, start, size, range(lo, hi + 1))
            counts = None
            if seg.n_streams:
                counts = np.empty((hi - lo, seg.n_streams, size), dtype=np.int64)
                for l in range(seg.n_streams):
                    counts[:, l] = _poisson_counts(u[lo:hi, l], float(seg.lam_dt[l]))
            for s in range(lo, hi):
                if s > lo and coef.per_path:
                    coef = _Coefficients(seg, strategy.values(t_nodes[s], x), log_state)
                x = _advance(x, coef, s, s + 1, w)
                if counts is not None:
                    first_u = None if v is None else v[s]
                    x = x + coef.jump_increment(_StepJumps(counts[s - lo], first_u, shocks, start, s))
                if guard_wealth and np.any(x <= 0.0):
                    bad = int(np.argmax(x <= 0.0)) + start
                    raise NonBankruptcyViolated(
                        f"wealth hit zero on path {bad} at t = {t_nodes[s] + dt:.6g} under jump dynamics"
                    )
                if cfg.keep_paths:
                    paths[start:start + size, s + 1] = x
        if group is not None:
            x = _advance(x, *group, w)
        terminal[start:start + size] = x

    return PathBatch(
        terminal=terminal, t0=t0, horizon=horizon, dt=dt, n_steps=n_steps,
        seed=cfg.seed, kind=dynamics.kind, x0=float(x0), paths=paths,
    )


def _advance(x: np.ndarray, coef: _Coefficients, lo: int, hi: int,
             w: dict[int, np.ndarray]) -> np.ndarray:
    """The diffusion update over steps [lo, hi) under one set of
    coefficients: one Euler step when hi = lo + 1."""
    dx = _dot(coef.vol, w[hi] - w[lo] if lo else w[hi])  # W_0 = 0
    dx += (hi - lo) * coef.drift_dt
    dx += x
    return dx


def _require_admissible(alpha: np.ndarray, seg: _Segment) -> None:
    if seg.jump_kind == "cp":
        bad = nonbankruptcy_violations(alpha, seg.scenario.jump)
        if bad:
            raise NonBankruptcyViolated(
                f"strategy exposure alpha.J outside [0, 1] for jump types {bad}; "
                "refusing to simulate jump dynamics"
            )


def _effective_chunk(requested: int, n_steps: int, width: int) -> int:
    budget = 12_000_000  # floats per per-chunk shock table (~96 MB)
    cap = max(512, budget // max(1, n_steps * max(1, width)))
    return min(requested, cap)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[i] * b[i] over the first axis, where each term is a scalar
    or a per-path vector, summed in index order with elementwise
    operations only.  Unlike BLAS, whose kernels round differently with
    the number of rows, this gives every path the same bits whatever the
    chunk size."""
    out = a[0] * b[0]
    for i in range(1, len(a)):
        out = out + a[i] * b[i]
    return out


def _mix(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per-path ``m.T @ a`` for per-path vectors a of shape (n, paths), in
    the order of ``_dot``; returns (m.shape[1], paths)."""
    return _dot(m[:, :, None], a[:, None, :])


def _lin(m: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``m.T @ alpha`` for a constant alpha (n,), or per path in the order
    of ``_mix`` for alpha (n, paths)."""
    return m.T @ alpha if alpha.ndim == 1 else _mix(m, alpha)


class _Coefficients:
    """Step coefficients of one segment under one strategy value: alpha
    (n,) for a strategy constant over the segment, or (paths, n) per path.
    Holds the drift times dt, the volatility loadings, and the jump
    exposures alpha.J per type (compound Poisson) or the per-atom state
    moves (discrete Levy, added uncompensated: the compensated-small-jump
    drift adds back exactly what the compensator subtracts)."""

    def __init__(self, seg: _Segment, alpha: np.ndarray, log_state: bool):
        alpha = np.asarray(alpha, dtype=float)
        self.seg, self.log_state = seg, log_state
        self.per_path = alpha.ndim == 2
        if self.per_path:
            alpha = alpha.T  # (assets, paths)
            drift = _dot(alpha, seg.drift)
            if log_state:
                drift = drift - 0.5 * _dot(_mix(seg.cov, alpha), alpha)
        else:
            drift = float(alpha @ seg.drift)
            if log_state:
                drift -= 0.5 * float(alpha @ seg.cov @ alpha)
        self.alpha = alpha
        self.drift_dt = drift * seg.dt
        self.vol = _lin(seg.chol_dt, alpha)
        if seg.jump_kind == "cp":
            self.expos = _lin(seg.loadings, alpha)
        elif seg.jump_kind == "ld":
            moves = _lin(seg.atom_vecs.T, alpha)
            self.zeta = np.log1p(moves) if log_state else moves

    def same_step(self, other: _Coefficients) -> bool:
        """Whether two constant coefficient sets move the diffusion alike."""
        return self.drift_dt == other.drift_dt and np.array_equal(self.vol, other.vol)

    def jump_increment(self, jumps: _StepJumps) -> np.ndarray:
        if self.seg.jump_kind == "ld":
            return _dot(jumps.counts, self.zeta)
        return _cp_jump_increment(self.seg, self.expos, jumps, self.log_state)


@dataclass(frozen=True)
class _StepJumps:
    """One step's jump counts and first-event size uniforms (types, paths;
    None without compound Poisson jumps), with what it takes to key the
    extra-event streams."""

    counts: np.ndarray
    first_u: np.ndarray | None
    shocks: _Shocks
    chunk_start: int
    step: int


def _cp_jump_increment(seg: _Segment, expos: np.ndarray, jumps: _StepJumps,
                       log_state: bool) -> np.ndarray:
    """Compound-Poisson increment of one step.  ``expos`` holds the
    exposures alpha.J per type: (types,) for a constant strategy or
    (types, paths) per path."""
    inc = np.zeros(jumps.counts.shape[1])
    for l in range(seg.n_streams):
        counts = jumps.counts[l]
        rows = np.flatnonzero(counts)
        if rows.size == 0:
            continue
        law = seg.size_laws[l]
        owners = [rows]
        sizes = [law.quantile(jumps.first_u[l, rows])]
        for row in rows[counts[rows] > 1]:  # rare: several events in one step
            u = jumps.shocks.extra_uniforms(jumps.chunk_start + int(row), jumps.step, l,
                                            int(counts[row]) - 1)
            owners.append(np.full(u.size, row))
            sizes.append(law.quantile(u))
        owners = np.concatenate(owners)
        moves = np.broadcast_to(expos[l], inc.shape)[owners] * np.concatenate(sizes)
        if log_state:
            bad = moves <= -1.0
            if np.any(bad):
                path = jumps.chunk_start + int(owners[np.argmax(bad)])
                raise NonBankruptcyViolated(f"log-state jump 1 + alpha.J y <= 0 on path {path}")
            moves = np.log1p(moves)
        np.add.at(inc, owners, moves)
    return inc


def simulate_solution(sol: ClosedFormSolution, cfg: SimConfig,
                      scenario=None, shock_cache: ShockCache | None = None) -> PathBatch:
    """Simulate the solution's own strategy, by default under its worst case."""
    dynamics = WealthDynamics.for_criterion(sol.criterion)
    strategy = SolutionStrategy(sol)
    timeline = scenario if scenario is not None else sol.worst_case.scenario
    _require_simulable(sol)
    return simulate_paths(dynamics, strategy, timeline, cfg,
                          sol.criterion.t0, sol.criterion.horizon, sol.criterion.x0,
                          shock_cache=shock_cache)


def _require_simulable(sol: ClosedFormSolution) -> None:
    if sol.nonbankruptcy is not None and not sol.nonbankruptcy.ok:
        raise NonBankruptcyViolated(
            "solution is flagged inadmissible for jump dynamics "
            f"(types {sol.nonbankruptcy.violating_types})"
        )


# ---------------------------------------------------------------------------
# perturbation tests (local constant variations with CRN)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationRow:
    h: float
    index: int
    quotient: float
    se: float
    violated: bool
    detail: str


@dataclass(frozen=True)
class PerturbationReport:
    """Difference quotients of local splices, with CRN error bars.

    ``kind`` is "worst_case" (scenario varied: quotients must not exceed
    +3 se/h) or "equilibrium" (strategy varied against the inner worst
    splice: quotients must not fall below -3 se/h).
    """

    kind: str
    rows: tuple[PerturbationRow, ...]
    j_base: float
    se_base: float
    h_list: tuple[float, ...]

    @property
    def violations(self) -> tuple[PerturbationRow, ...]:
        return tuple(r for r in self.rows if r.violated)

    @property
    def ok(self) -> bool:
        return not self.violations

    def per_h_extreme(self) -> dict[float, float]:
        """min quotient per h for equilibrium, max per h for worst-case."""
        out: dict[float, float] = {}
        for h in self.h_list:
            qs = [r.quotient for r in self.rows if r.h == h]
            if qs:
                out[h] = min(qs) if self.kind == "equilibrium" else max(qs)
        return out

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "j_base": self.j_base,
            "se_base": self.se_base,
            "h_list": list(self.h_list),
            "rows": [dataclasses.asdict(r) for r in self.rows],
            "per_h_extreme": {str(h): v for h, v in self.per_h_extreme().items()},
            "ok": self.ok,
        }


def scenario_candidates(uset: UncertaintySet, count: int,
                        theta_hat: Scenario,
                        fixed_jump: JumpSpec | None = None) -> list[Scenario]:
    """Deterministic u-candidates: the worst case itself, then box
    corners, then a low-discrepancy interior fill, deduplicated."""
    def key(s: Scenario):
        return (tuple(np.round(s.drift, 12)), tuple(np.round(s.cov.ravel(), 12)))

    out: list[Scenario] = [theta_hat]
    seen = {key(theta_hat)}

    def take(pool: list[Scenario]) -> None:
        for s in pool:
            if len(out) >= count:
                break
            k = key(s)
            if k not in seen:
                seen.add(k)
                out.append(s)

    take(corner_scenarios(uset, fixed_jump=fixed_jump))
    if len(out) < count:  # decided after deduplication: theta_hat may be a corner
        take(sobol_scenarios(uset, 2 * count, fixed_jump=fixed_jump))
    return out


def strategy_candidates(alpha_hat: np.ndarray, count: int, seed: int) -> list[np.ndarray]:
    """The strategy itself plus uniform draws from a ball around it, of
    radius |alpha_hat| (1 when alpha_hat is zero)."""
    rng = np.random.default_rng([int(seed), 0x77])
    out = [np.array(alpha_hat, dtype=float)]
    n = out[0].size
    radius = float(np.linalg.norm(out[0])) or 1.0
    while len(out) < count:
        direction = rng.standard_normal(n)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            continue
        r = radius * rng.random() ** (1.0 / n)
        out.append(out[0] + direction / norm * r)
    return out


def _perturb(kind: str, sol: ClosedFormSolution, uset: UncertaintySet,
             h_list: Sequence[float], u_samples: int, cfg: SimConfig,
             base_strat, ws: Sequence[np.ndarray | None]) -> PerturbationReport:
    """The splice ladder of both reports.  The base run and every splice
    are ``simulate_paths`` calls on one shared shock cache.  At every h,
    snapped to whole steps, each window strategy in ``ws`` (None keeps the
    base strategy) runs against each u candidate.  The worst-case report
    writes one row per u; the equilibrium report one row per w, at its
    worst u: the inner inf over u of J(run) is the max of J(base) -
    J(run), and the first u among ties is kept."""
    tic = time.perf_counter()
    criterion = sol.criterion
    if not h_list or not all(0.0 < float(h) <= criterion.span for h in h_list):
        raise InvalidBounds(f"window lengths must be a non-empty list in (0, {criterion.span:g}], "
                            f"got {list(h_list)}")
    _, dt = cfg.steps_for(criterion.span)
    hs = tuple(max(1, round(float(h) / dt)) * dt for h in h_list)  # whole steps
    theta_hat = sol.worst_case.scenario
    fixed_jump = theta_hat.jump if uset.jump_bounds is None else None
    us = scenario_candidates(uset, u_samples, theta_hat, fixed_jump=fixed_jump)
    run = functools.partial(simulate_paths, WealthDynamics.for_criterion(criterion), cfg=cfg,
                            t0=criterion.t0, horizon=criterion.horizon, x0=criterion.x0,
                            shock_cache=ShockCache())
    paired = _PairedBase(run(base_strat, theta_hat), criterion)

    def row(h: float, index: int, diff_se: tuple[float, float], detail: str) -> PerturbationRow:
        diff, se = diff_se
        quotient, bound = diff / h, 3.0 * se / h
        violated = quotient > bound if kind == "worst_case" else quotient < -bound
        return PerturbationRow(h=h, index=index, quotient=quotient, se=se,
                               violated=bool(violated), detail=detail)

    rows: list[PerturbationRow] = []
    for h in hs:
        switch = criterion.t0 + h
        for iw, w in enumerate(ws):
            strategy = base_strat if w is None else SplicedStrategy(w, switch, base_strat)
            diffs = [paired.difference(run(strategy, SplicedScenario(u, switch, theta_hat)).terminal)
                     for u in us]
            if kind == "worst_case":
                rows += [row(h, iu, diffs[iu], f"u[{iu}]") for iu in range(len(us))]
            else:
                iu = max(range(len(us)), key=lambda i: diffs[i][0])
                rows.append(row(h, iw, diffs[iu], f"w[{iw}] u*[{iu}]"))
    _log.debug("%s report: %d splices in %.3f s", kind, len(hs) * len(ws) * len(us),
               time.perf_counter() - tic)
    base = paired.est
    return PerturbationReport(kind=kind, rows=tuple(rows), j_base=base.j_hat,
                              se_base=base.standard_error_j, h_list=hs)


def perturb_worst_case(
    sol: ClosedFormSolution,
    uset: UncertaintySet,
    h_list: Sequence[float],
    u_samples: int,
    cfg: SimConfig,
) -> PerturbationReport:
    """Local scenario variations: quotient (J(a, th) - J(a, th_{h,u})) / h.

    A true worst case keeps every quotient below +3 se/h (se from the
    CRN-paired difference).
    """
    _require_simulable(sol)
    return _perturb("worst_case", sol, uset, h_list, u_samples, cfg,
                    SolutionStrategy(sol), [None])


def perturb_equilibrium(
    sol: ClosedFormSolution,
    uset: UncertaintySet,
    h_list: Sequence[float],
    w_samples: int,
    u_samples: int,
    cfg: SimConfig,
    base_strategy: np.ndarray | None = None,
) -> PerturbationReport:
    """Local strategy variations against their own worst window splice.

    For each window length h and each constant strategy w near alpha_hat,
    the window scenario is driven to its sampled worst u; the quotient

        (J(base, th) - min_u J(w on window, u on window)) / h

    must not fall below -3 se/h at an equilibrium.  Passing a
    ``base_strategy`` (e.g. a deliberately scaled alpha_hat) probes the
    test's power: a non-equilibrium base produces violations.

    For the solved cases the worst-case scenario does not depend on the
    strategy, so the same theta_hat drives the post-window segment of
    every candidate.  Candidates are drawn around alpha_hat(t0, x0);
    under terminal-wealth jump dynamics, inadmissible candidates (per-
    type exposure outside [0, 1]) are dropped since their paths are not
    simulable.
    """
    criterion = sol.criterion
    jump = sol.worst_case.scenario.jump
    alpha_ref = np.atleast_1d(sol.alpha_hat(criterion.t0, criterion.x0))
    ws = strategy_candidates(alpha_ref, w_samples, cfg.seed)
    if isinstance(jump, CompoundPoissonJumps) and criterion.kind == "terminal_wealth":
        # only admissible window strategies are simulable under jump dynamics
        ws = [w for w in ws if not nonbankruptcy_violations(w, jump)]
    base_strat = SolutionStrategy(sol) if base_strategy is None else ConstantStrategy(base_strategy)
    return _perturb("equilibrium", sol, uset, h_list, u_samples, cfg, base_strat, ws)
