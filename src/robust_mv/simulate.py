"""Monte Carlo engine for controlled wealth paths and perturbation tests.

The steps are cut into segments at each switch of the scenario timeline
and of the strategy.  In a jump-free run, a segment [lo, hi) with a
constant strategy is exact in one step from the Brownian path W (per
path and asset, in units of one step's standard deviation):

    x_hi = x_lo + (hi - lo) drift_dt + sqrt(dt) vol . (W_hi - W_lo).

Adjacent such segments with equal coefficients are one step, so an
unperturbed splice gives the bits of the unspliced run.  Segments with a
state-dependent strategy, runs with jumps and runs that keep their paths
step once per step with increments W_{s+1} - W_s.

Jumps are event driven (Glasserman, Monte Carlo Methods in Financial
Engineering, 2004, section 3.5).  Each path and jump stream (a compound
Poisson type or a discrete Levy atom) holds a unit-rate Poisson process
in cumulative-intensity time, with arrivals E_k = a sum of k Exp(1), and
each arrival carries one uniform for its size (inverted by the size
law's CDF).  Step s takes the arrivals with Lambda_s < E_k <=
Lambda_{s+1}, where Lambda is the run's running sum of intensity times
dt, and adds them at its end: per-step counts are Poisson(intensity dt)
and independent across steps.  A splice whose window intensity is
higher holds every event of the base run's window, and more.

Random numbers follow RNG layout 4 (``RNG_LAYOUT``).  W is a Brownian
bridge over a fixed split tree of the steps (ibid., section 3.1): W at
one node costs O(log N) normals, a full fill N normals per path and
asset.  Paths are grouped into blocks of ``_BLOCK`` = 1024 stream
indices; each (seed, block, tree level) keys one Philox stream drawn
node-major, so a window at t0 reads a short prefix of each level.  Jump
arrivals come in rounds of ``_ROUND`` per path and stream; each (seed,
block, round) keys one Philox stream drawn path-major, and a run draws
rounds until every path's last arrival lies past Lambda at the horizon.
Antithetic pairs share stream index path // 2.  A path's numbers depend
only on the seed and its index and all per-path arithmetic is
elementwise in a fixed order, so results are bit-identical across
reruns, chunkings and path counts, and depend on the values of
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
    Criterion,
    JumpSpec,
    Scenario,
    UncertaintySet,
    WealthDynamics,
    jump_streams,
)
from .closed_form import ClosedFormSolution
from .worst_case import corner_scenarios, sobol_scenarios

_log = logging.getLogger(__name__)

RNG_LAYOUT = 4
_BLOCK = 1024  # stream indices per Philox stream; part of the RNG layout
_ROUND = 4  # jump arrivals per path and stream in one round; part of the RNG layout
_CHUNK_FLOATS = 12_000_000  # floats a chunk holds in W nodes and jump arrivals (~96 MB)
_TAG_NORMALS = 1
_TAG_ARRIVALS = 2
_SE_FLOOR = float(np.finfo(float).tiny)
_MAGIC = b"RMVP"


def _stream(seed: int, stream_index: int, tag: int, step: int = 0) -> np.random.Generator:
    key = np.array([seed, stream_index], dtype=np.uint64)
    counter = np.array([0, step, 0, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


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
    """Simulated terminal states (and optionally full paths) plus provenance:
    ``jump_events`` counts the jump events the run applied."""

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
    jump_events: int = 0

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
            header = fh.read(21)
            if len(header) != 21 or header[:5] != _MAGIC + b"\x01":
                raise InvalidBounds("not a version-1 path dump")
            n_paths, n_steps = struct.unpack("<QQ", header[5:])
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
    """Per-scenario precomputation shared by all steps of one segment, with
    the jumps as Poisson streams (`jump_streams`): loadings (n, streams),
    intensity times dt, and a size law per stream or None for unit size."""

    def __init__(self, scenario: Scenario, dt: float):
        self.jump = scenario.jump
        self.chol_dt = scenario.chol() * math.sqrt(dt)  # volatility loadings of one step
        self.drift, self.cov, self.dt = scenario.drift, scenario.cov, dt
        self.loadings, intensity, self.size_laws = jump_streams(scenario.jump, scenario.n)
        self.lam_dt = intensity * dt
        self.n_streams = intensity.size
        self.unit = np.array([law is None for law in self.size_laws], dtype=bool)


class ShockCache:
    """Shocks drawn once and reused across CRN runs, keyed by chunk start:
    per chunk the W nodes by step index, each (assets, paths), and for
    jump runs the chunk's arrival table (``_Arrivals``).  A jump-free run
    with constant segments adds only W at its cut points and their bridge
    ancestors; a run that steps adds every node; a run whose intensities
    reach further in cumulative-intensity time adds rounds of arrivals.
    The arrival table does not depend on the scenario, so one cache serves
    every splice.  The first run fixes the paths per chunk (``chunk``), and
    every later run cuts its paths the same way, whatever its intensities
    or ``chunk_paths``.  All runs sharing a cache must share the seed, step
    count, asset count, jump-stream count and antithetic flag.
    """

    def __init__(self) -> None:
        self.store: dict[int, tuple[dict[int, np.ndarray], _Arrivals | None]] = {}
        self.chunk: int | None = None


class _Arrivals:
    """One chunk's jump arrivals, each (streams, arrivals, paths): the
    cumulative unit-rate arrival times and the size uniform of each
    arrival, grown ``_ROUND`` arrivals per path and stream at a time."""

    def __init__(self, n_streams: int, size: int):
        self.times = np.empty((n_streams, 0, size))
        self.uniforms = np.empty((n_streams, 0, size))


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
    their whole Brownian path, and share their jump arrivals."""

    def __init__(self, seed: int, n_steps: int, n_assets: int, n_streams: int, n_paths: int,
                 antithetic: bool, cache: ShockCache | None):
        self.seed = seed
        self.n_assets = n_assets
        self.n_streams = n_streams
        self.end = (n_paths + 1) // 2 if antithetic else n_paths  # the run's stream indices
        self.antithetic = antithetic
        self.cache = cache
        self.bridge = _bridge(n_steps)
        # (block, tag, level or round) -> (generator, values drawn so far),
        # kept for the blocks a later chunk of the run reads again
        self.drawn: dict[tuple[int, int, int], tuple[np.random.Generator, np.ndarray]] = {}

    def chunk(self, start: int, size: int):
        """The chunk's node table (holding W_0 = 0 when new) and its arrival
        table (None in a jump-free run)."""
        if self.cache is not None and start in self.cache.store:
            return self.cache.store[start]
        out = ({0: np.zeros((self.n_assets, size))},
               _Arrivals(self.n_streams, size) if self.n_streams else None)
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

    def cover(self, arrivals: _Arrivals, start: int, size: int, reach: np.ndarray) -> None:
        """Add rounds to the chunk's arrival table until every path's last
        arrival of stream l lies beyond ``reach[l]``.  Inter-arrival times
        are -log(1 - u), summed in arrival order."""
        times, uniforms = [arrivals.times], [arrivals.uniforms]
        done = arrivals.times.shape[1] // _ROUND
        last = arrivals.times[:, -1] if done else None
        while last is None or np.any(last <= reach[:, None]):
            u = self._columns(functools.partial(self._arrival_uniforms, done + len(times) - 1),
                              start, size).reshape(self.n_streams, 2, _ROUND, size)
            gaps = -np.log1p(-u[:, 0])
            if last is not None:
                gaps[:, 0] += last
            times.append(np.cumsum(gaps, axis=1))
            uniforms.append(u[:, 1])
            last = times[-1][:, -1]
        if len(times) > 1:
            arrivals.times = np.concatenate(times, axis=1)
            arrivals.uniforms = np.concatenate(uniforms, axis=1)

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

    def _arrival_uniforms(self, round_: int, lo: int, hi: int) -> np.ndarray:
        """One round's arrival uniforms at stream indices lo..hi-1, (streams
        * 2 * _ROUND, indices), drawn path-major: per row and stream the
        round's inter-arrival uniforms, then its size uniforms."""
        width = 2 * _ROUND * self.n_streams
        out = np.empty((width, hi - lo))
        for block, a, b in _blocks(lo, hi):
            first = block * _BLOCK
            z = self._draws(block, _TAG_ARRIVALS, round_, b - first, hi,
                            lambda gen, n: gen.random((n, width)))
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


class _Events:
    """A chunk's jump events in one run, in step order: step s holds
    events ``bounds[s]:bounds[s + 1]``, ordered by stream, arrival and
    path.  Per event its path row, its stream and its size under the law
    of the segment that holds it (1 for a stream of unit size, which
    leaves its size uniform unread)."""

    def __init__(self, arrivals: _Arrivals, clock: np.ndarray, segments):
        steps, streams, rows, uniforms = [], [], [], []
        for l in range(clock.shape[1]):
            k, row = np.nonzero(arrivals.times[l] <= clock[-1, l])
            steps.append(np.searchsorted(clock[1:, l], arrivals.times[l, k, row]))
            streams.append(np.full(row.size, l))
            rows.append(row)
            uniforms.append(arrivals.uniforms[l, k, row])
        steps = np.concatenate(steps)
        order = np.argsort(steps, kind="stable")
        self.rows = np.concatenate(rows)[order]
        self.streams = np.concatenate(streams)[order]
        self.bounds = np.searchsorted(steps[order], np.arange(clock.shape[0])).tolist()
        uniforms = np.concatenate(uniforms)[order]
        self.sizes = np.ones(uniforms.size)
        for seg, lo, hi in segments:
            part = slice(self.bounds[lo], self.bounds[hi])
            for l, law in enumerate(seg.size_laws):
                if law is not None:
                    mine = self.streams[part] == l
                    self.sizes[part][mine] = law.quantile(uniforms[part][mine])


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
    still hits zero, checked after every step, aborts the run.
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

    clock = _clock(segments, n_steps, n_streams)
    # per path, a chunk holds W at every step and two floats per jump arrival
    chunk = _effective_chunk(cfg.chunk_paths, n_steps * n_assets,
                             2 * (float(clock[-1].sum()) + _ROUND * n_streams))
    if shock_cache is not None:
        chunk = shock_cache.chunk = shock_cache.chunk or chunk
    terminal = np.empty(cfg.n_paths)
    paths = np.empty((cfg.n_paths, n_steps + 1)) if cfg.keep_paths else None
    jump_events = 0

    shocks = _Shocks(cfg.seed, n_steps, n_assets, n_streams, cfg.n_paths, cfg.antithetic,
                     shock_cache)

    for start in range(0, cfg.n_paths, chunk):
        size = min(chunk, cfg.n_paths - start)
        w, arrivals = shocks.chunk(start, size)
        shocks.fill(w, start, size, cuts if exact else ())
        events = None
        if n_streams:
            shocks.cover(arrivals, start, size, clock[-1])
            events = _Events(arrivals, clock, segments)
            jump_events += len(events.rows)
        x = np.full(size, float(x0))
        if cfg.keep_paths:
            paths[start:start + size, 0] = x
        group = None  # (coef, lo, hi): constant segments not yet applied
        for seg, lo, hi in segments:
            x_lo = x if group is None else _advance(x, *group, w)
            coef = _Coefficients(seg, strategy.values(t_nodes[lo], x_lo), log_state, start)
            if check_exposure and not coef.per_path and seg.jump is not None:
                bad = seg.jump.exposure_violations(coef.alpha)
                if bad:
                    raise NonBankruptcyViolated(
                        f"strategy exposure alpha.J outside [0, 1] for jump types {bad}; "
                        "refusing to simulate jump dynamics")
            if exact and not coef.per_path:
                if group is not None and coef.same_step(group[0]):
                    group = (group[0], group[1], hi)
                else:
                    x, group = x_lo, (coef, lo, hi)
                continue
            x, group = x_lo, None
            shocks.fill(w, start, size, range(lo, hi + 1))
            for s in range(lo, hi):
                if s > lo and coef.per_path:
                    coef = _Coefficients(seg, strategy.values(t_nodes[s], x), log_state, start)
                x = _advance(x, coef, s, s + 1, w)
                if events is not None and events.bounds[s] < events.bounds[s + 1]:
                    coef.add_jumps(x, events, s, start)
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
        seed=cfg.seed, kind=dynamics.kind, x0=float(x0), paths=paths, jump_events=jump_events,
    )


def _clock(segments, n_steps: int, n_streams: int) -> np.ndarray:
    """The run's cumulative intensity Lambda per jump stream at each step
    boundary, (steps + 1, streams): Lambda_0 = 0 and Lambda_{s+1} =
    Lambda_s + intensity dt of the segment holding step s (0 for a stream
    the segment does not have)."""
    clock = np.zeros((n_steps + 1, n_streams))
    for seg, lo, hi in segments:
        clock[lo + 1:hi + 1, :seg.n_streams] = seg.lam_dt
    return np.cumsum(clock, axis=0)


def _advance(x: np.ndarray, coef: _Coefficients, lo: int, hi: int,
             w: dict[int, np.ndarray]) -> np.ndarray:
    """The diffusion update over steps [lo, hi) under one set of
    coefficients: one Euler step when hi = lo + 1."""
    dx = _dot(coef.vol, w[hi] - w[lo] if lo else w[hi])  # W_0 = 0
    dx += (hi - lo) * coef.drift_dt
    dx += x
    return dx


def _effective_chunk(requested: int, w_floats: int, arrival_floats: float) -> int:
    """Paths per chunk: at most ``requested`` and within ``_CHUNK_FLOATS``.
    W alone never cuts a chunk below 512 paths, so a long run stays
    vectorized; a run with more arrivals than that allows per path gets
    down to one path per chunk."""
    cap = max(512, int(_CHUNK_FLOATS // max(1.0, w_floats + arrival_floats)))
    return min(requested, cap, max(1, int(_CHUNK_FLOATS // max(1.0, arrival_floats))))


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
    Holds the drift times dt, the volatility loadings, and the exposures
    alpha.loadings per jump stream; an event moves the state by its
    stream's exposure times its size.  The atom table is finite, so no
    atom is compensated: the moves are added to the raw drift as they
    are.  ``start`` is the chunk's first path, which an error names."""

    def __init__(self, seg: _Segment, alpha: np.ndarray, log_state: bool, start: int):
        alpha = np.asarray(alpha, dtype=float)
        self.log_state = log_state
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
        self.expos = _lin(seg.loadings, alpha)
        # under the log state a unit-size move alpha.v <= -1 has no log(1 +
        # alpha.v): refused before the segment steps, per path naming the first
        if log_state:
            bad = self.expos[seg.unit] <= -1.0
            if bad.any():
                where = "" if bad.ndim == 1 else f" on path {start + int(np.argmax(bad.any(axis=0)))}"
                raise NonBankruptcyViolated(f"log-state jump 1 + alpha.v <= 0{where}")

    def same_step(self, other: _Coefficients) -> bool:
        """Whether two constant coefficient sets move the diffusion alike."""
        return self.drift_dt == other.drift_dt and np.array_equal(self.vol, other.vol)

    def add_jumps(self, x: np.ndarray, events: _Events, s: int, start: int) -> None:
        """Add the jump events of step s to the chunk's states x in place,
        one at a time in event order.  Under the log state a move
        alpha.J y <= -1 is refused at its event (unit-size moves were
        refused before any step)."""
        part = slice(events.bounds[s], events.bounds[s + 1])
        rows, streams = events.rows[part], events.streams[part]
        expos = self.expos[streams, rows] if self.per_path else self.expos[streams]
        moves = expos * events.sizes[part]
        if self.log_state:
            bad = moves <= -1.0
            if np.any(bad):
                path = start + int(rows[np.argmax(bad)])
                raise NonBankruptcyViolated(f"log-state jump 1 + alpha.J y <= 0 on path {path}")
            moves = np.log1p(moves)
        np.add.at(x, rows, moves)


def simulate_solution(sol: ClosedFormSolution, cfg: SimConfig,
                      shock_cache: ShockCache | None = None) -> PathBatch:
    """Simulate the solution's own strategy under its worst case."""
    crit = sol.criterion
    return simulate_paths(WealthDynamics.for_criterion(crit), SolutionStrategy(sol),
                          sol.worst_case.scenario, cfg, crit.t0, crit.horizon, crit.x0,
                          shock_cache=shock_cache)


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
    corners, then a low-discrepancy interior fill, deduplicated on drift,
    covariance and atom table (so corners that differ in their jump law
    alone are kept)."""
    def key(s: Scenario):
        a = s.arrays
        return tuple(tuple(np.round(x, 12).ravel()) for x in (a.drift, a.cov, a.atom_vec, a.atom_weight))

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
    if jump is not None and criterion.kind == "terminal_wealth":
        # only admissible window strategies are simulable under jump dynamics
        ws = [w for w in ws if not jump.exposure_violations(w)]
    base_strat = SolutionStrategy(sol) if base_strategy is None else ConstantStrategy(base_strategy)
    return _perturb("equilibrium", sol, uset, h_list, u_samples, cfg, base_strat, ws)
