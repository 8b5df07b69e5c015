"""The fading-memory kernel and the integrated-past-history field.

The memory of the heat flux is carried by the exponential convolution
kernel k(s) = rate exp(-rate s), of unit mass. Internally all quadrature
runs against mu = -(1 - omega) k', the positive, decreasing density that
weights the history. Its domination inequality mu' + delta mu <= 0 reads
(delta - rate) mu <= 0 exactly, so it holds with equality at delta = rate:
the kernel's delta is its rate, derived, not set. Cell masses are exact
integrals. So too a history with Phi(0) = 0 has <T Phi, Phi>_M1 =
-(rate / 2 eps) ||Phi||_M1^2 exactly, an identity that only measures the
s-grid's quadrature error. The singular
family mu_eps(s) = eps^-2 mu(s/eps) concentrates the memory near s = 0 as
eps -> 0; its total mass scales like 1/eps.

The history state Phi^t(s) accumulates the recent past of the primary field,
Phi^t(s) = int_0^s U(t - y) dy, and evolves by pure transport in s with
inflow Phi^t(0) = 0. The discretization is semi-Lagrangian on a grid graded
toward s = 0: values are pulled back along characteristics and the fresh
segment is added by exact quadrature of the step's inflow. The pull-back
depends only on the grid, dt and the row width: it is cached on the grid as
dense row blocks, each of which reads a contiguous slab of old rows and is
written back into the history by one BLAS product. A block is bounded by
its source slab: one of more than one row reads at most ``_BLOCK_BYTES``,
so on wide rows (square 129) the blocks shrink to the few rows whose dense
product is not mostly zeros. The transport works in place: a row reads
only old rows at or below its own, so the blocks run from the last to the
first and the inflow rows come last, and a run holds one history, not
two. The step's increment is added in one pass per run of finished rows,
a run holding as many rows as a ``_BLOCK_BYTES`` slab, not once per
block. The oracle keeps its own interpolation, an independent check.

A history carries the start ``rest`` of its flat tail: rows ``rest`` to
n_s - 1 are bitwise equal. A run starts at rest (every row zero, ``rest``
0), and Phi^t(s) = int_0^s U(t - y) dy is then constant in s for s >= t,
so only the rows the inflow has reached differ. The pull-back keeps that
structure exactly: a row whose sources all lie in the tail interpolates
between equal rows V with weights that sum to 1, so its new value is
V + inc, and the transport writes that one vector to all such rows instead
of taking their products. The load folds the tail's weights onto row
``rest``, and the norm walks stop there, the tail rows sharing its
energies and having a zero d/ds row. All three change results by rounding
only, and a history whose ``rest`` is n_s - 1 is treated bitwise as
without the rule.

A transported history also carries ``inflow = (C, ends)``: its k inflow
rows, s <= dt, are bitwise ``C @ ends``, the cached k x 2 trapezoid block
times the step's stacked end values, so they have rank 2 at every step,
not only at start-up. ``advance_history`` sets the claim and ``copy``
keeps it; a difference, a checkpoint load, a profile history and
``zero_history`` claim nothing. The norms measure those rows in closed
form from 2 x 2 Gram forms of the two end values, the V1 energies and
their cross product, the pair images' three weighted products, and the
mass form of the row differences ``C[i] - C[i-1]`` for d/ds, and walk only
rows k to ``rest``. That changes results by rounding only; the memory load
still reads every row, and a history without the claim is walked bitwise
as without the rule.

The memory response on the boundary matches the one in the interior, so
the boundary history is the trace of the bulk history, not a second
unknown: a history stores its bulk rows only and derives the boundary rows
on demand. The history norms have two entry points: ``memory_norm_sq``
gives one level, and ``history_norms`` gives the recorded set (levels 1 and
2, the dyadic tail sup and the strong norm K2) in one pass. Both walk the
bulk in cache-sized blocks of consecutive s-rows, so no norm allocates an
array the size of the history. The first-order (V1) rows are measured by
the one V1 kernel, ``DiscreteDomain.v1_products``, which measures a state
too: the merged stiffness K as nonnegative edge and node weights
(``DiscreteDomain.edge_form``), so the energy is a sum of nonnegative
terms and keeps about full precision where x'Kx by a sparse product
cancels. It is a method, not a module function, since the benchmark's
tracer wraps each function one module imports from another and would
move the recorder's time out of this module. The second-order (M2) rows
copy each block once to node-major order for one sparse product of the
equation pair P (``bulk_operators``). That walk is hoisted on purpose: P
and the weights are taken once per walk, and each block's image lives
until the next product is allocated; a per-block helper that freed it
made the walk twice as slow on square 65 (2-core Intel Xeon), each image
mapped and faulted in anew. The d/ds rows write the s-differences of a
block into one buffer reused across the walk and reduce them by one BLAS
product with the merged measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .domain import DiscreteDomain, StateField

__all__ = [
    "KernelSpec",
    "exponential_kernel",
    "HistoryGrid",
    "build_history_grid",
    "HistoryField",
    "zero_history",
    "history_from_profile",
    "memory_norm_sq",
    "history_norms",
    "convolve_wentzell",
    "advance_history",
    "history_oracle",
    "tail_function",
]

Array = NDArray[np.float64]


# -- kernels -------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """The exponential memory kernel k(s) = rate exp(-rate s), of unit mass,
    described through its density mu = -(1 - omega) k' =
    (1 - omega) rate^2 exp(-rate s).

    Parameters
    ----------
    omega : float
        Instantaneous-conduction fraction, strictly between 0 and 1.
    rate : float
        Decay rate of k.
    """

    omega: float
    rate: float

    def __post_init__(self):
        if not (0.0 < self.omega < 1.0):
            raise ValueError(f"omega must lie in (0, 1), got {self.omega}")
        if self.rate <= 0.0:
            raise ValueError("exponential rate must be positive")
        # mu(0) = (1 - omega) rate^2 must neither overflow nor vanish
        if not 0.0 < self.rate * self.rate < math.inf:
            raise ValueError("exponential rate must have a finite, "
                             f"nonzero square, got {self.rate}")

    @property
    def delta(self) -> float:
        """The decay rate of the domination inequality ``mu' + delta mu
        <= 0``: mu' + delta mu = (delta - rate) mu exactly, so the largest
        delta is the rate."""
        return self.rate

    def mu(self, s) -> Array:
        s = np.asarray(s, dtype=float)
        return (1.0 - self.omega) * self.rate**2 * np.exp(-self.rate * s)

    def integral(self, a: float, b: float, eps: float = 1.0) -> float:
        """Exact integral over [a, b] (b may be inf) of the singularly
        scaled density mu_eps(s) = eps^-2 mu(s / eps)."""
        a, b = a / eps, b / eps
        if b < a:
            raise ValueError("need a <= b")
        r, c = self.rate, (1.0 - self.omega) * self.rate
        return c * (math.exp(-r * a) - math.exp(-r * b)) / eps

    def mass(self, eps: float = 1.0) -> float:
        """Total mass of mu_eps, (1 - omega) rate / eps."""
        return self.integral(0.0, math.inf, eps)


def exponential_kernel(omega: float, rate: float = 1.0) -> KernelSpec:
    """Exponential kernel k(s) = rate exp(-rate s)."""
    return KernelSpec(omega, rate)


# -- history grid ----------------------------------------------------------


@dataclass
class HistoryGrid:
    """Quadrature grid in the past-time variable s.

    ``s_nodes`` carry the field values; ``edges`` bound the quadrature cells
    (edges[0] = 0, edges[-1] = s_max); ``weights[j]`` is the exact mu_eps
    mass of cell j, so sums over nodes integrate against mu_eps. ``_cache``
    holds grid-only work: the last dt's transport blocks, the tail windows,
    the weights' tail masses.
    A run's grid is built by ``ProblemConfig.grid`` from the problem's
    ``history`` recipe.
    """

    kernel: KernelSpec
    eps: float
    s_nodes: Array
    edges: Array
    weights: Array
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_s(self) -> int:
        return self.s_nodes.size

    @property
    def s_max(self) -> float:
        return float(self.edges[-1])

    def window_weights(self, lo: float, hi: float) -> Array:
        """Per-cell mu_eps mass of cell intersect [lo, hi]."""
        a = np.clip(self.edges[:-1], lo, hi)
        b = np.clip(self.edges[1:], lo, hi)
        return np.array([self.kernel.integral(x, y, self.eps) if y > x else 0.0
                         for x, y in zip(a, b)])

    def same_nodes(self, other: "HistoryGrid") -> bool:
        return self.n_s == other.n_s and bool(np.all(self.s_nodes == other.s_nodes))


# the largest s_max whose squared cell edges stay finite
_S_MAX_LIMIT = math.sqrt(np.finfo(np.float64).max)

# The default history horizon, in decay lengths eps / delta of mu_eps: the
# grid then truncates exp(-30), about 1e-13, of the kernel mass.
_S_MAX_FACTOR = 30.0


def build_history_grid(kernel: KernelSpec, eps: float, n_s: int = 128,
                       spacing: str = "geometric",
                       s_max: Optional[float] = None) -> HistoryGrid:
    """Build the graded s-grid with exact cell masses.

    Geometric spacing runs from eps * 1e-3 (comfortably below the eps/10
    resolution requirement) to s_max, by default ``_S_MAX_FACTOR`` * eps /
    delta with delta the kernel's rate. Uniform spacing is available for
    step-aligned quadrature studies. The truncated mass must cover all but
    1e-6 of the total. An s_max outside (eps * 1e-3, ``_S_MAX_LIMIT``]
    (geometric) or (0, ``_S_MAX_LIMIT``] (uniform) raises ValueError.
    """
    if n_s < 16:
        raise ValueError(f"n_s must be >= 16, got {n_s}")
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    name = "s_max"
    if s_max is None:
        s_max = _S_MAX_FACTOR * eps / kernel.delta
        name = f"s_max = {_S_MAX_FACTOR:g} * eps / rate"
    # the geometric nodes start at s0 = eps * 1e-3, and the cell edges
    # multiply neighbouring nodes, so s_max^2 must stay finite
    s0 = eps * 1e-3
    lo = s0 if spacing == "geometric" else 0.0
    if not lo < s_max <= _S_MAX_LIMIT:
        raise ValueError(f"history grid {name} must lie in ({lo:.3g}, "
                         f"{_S_MAX_LIMIT:.3g}], got {s_max:.3g}")
    if spacing == "geometric":
        nodes = s0 * (s_max / s0) ** (np.arange(n_s) / (n_s - 1))
    elif spacing == "uniform":
        nodes = np.linspace(s_max / n_s, s_max, n_s)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")

    edges = np.empty(n_s + 1)
    edges[0] = 0.0
    edges[-1] = s_max
    if spacing == "geometric":
        edges[1:-1] = np.sqrt(nodes[:-1] * nodes[1:])
    else:
        edges[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])

    # one scalar math.exp pair per cell: numpy's vectorised exp rounds
    # about a tenth of the masses differently in the last bit
    weights = np.array([kernel.integral(a, b, eps)
                        for a, b in zip(edges[:-1], edges[1:])])
    total = kernel.mass(eps)
    truncated = 1.0 - weights.sum() / total
    if truncated > 1e-6:
        raise ValueError(
            f"history grid truncates {truncated:.2e} of the kernel mass; "
            "increase s_max"
        )
    return HistoryGrid(kernel=kernel, eps=float(eps), s_nodes=nodes,
                       edges=edges, weights=weights)


# -- history field ----------------------------------------------------------


@dataclass
class HistoryField:
    """History values at the s-nodes: ``bulk`` of shape (n_s, n_bulk).

    Every history row is trace compatible, so only the bulk is stored, with
    the domain's ``boundary_index``; ``boundary`` derives the boundary rows.

    ``rest`` is the start of the flat tail: rows ``rest`` to n_s - 1 are
    bitwise equal to row ``rest``. The default n_s - 1 claims nothing. A
    history at rest has ``rest`` 0 (``zero_history``), and the transport
    keeps the tail of the rows that still hold the initial history; the
    load and the norms treat the tail as one row of its summed weight.

    ``inflow``, when set, is ``(C, ends)``: rows 0 to k - 1 are bitwise
    ``C @ ends``, the k x 2 inflow block of the transport times the stacked
    bulk end values ``(u_new, u_prev)`` of the step that wrote them. Only
    ``advance_history`` sets it, and ``copy`` keeps it; a difference, a
    checkpoint load, a profile history and ``zero_history`` claim nothing
    (None). The norms measure these rows in closed form, from 2 x 2 Gram
    forms of the two end values; the load still reads every row.
    Whoever writes into ``bulk`` keeps both claims true or resets them
    (``rest`` to n_s - 1, ``inflow`` to None); ``ends`` is never written.
    """

    grid: HistoryGrid
    bulk: Array
    boundary_index: NDArray[np.int64]
    rest: Optional[int] = None
    inflow: Optional[tuple] = None

    def __post_init__(self):
        if self.rest is None:
            self.rest = self.bulk.shape[0] - 1

    @property
    def boundary(self) -> Array:
        """The boundary rows, shape (n_s, n_boundary), as a derived copy."""
        return self.bulk[:, self.boundary_index]

    def copy(self) -> "HistoryField":
        return HistoryField(self.grid, self.bulk.copy(), self.boundary_index,
                            self.rest, self.inflow)

    def __sub__(self, other: "HistoryField") -> "HistoryField":
        if not self.grid.same_nodes(other.grid):
            raise ValueError("history fields live on different s-grids")
        return HistoryField(self.grid, self.bulk - other.bulk,
                            self.boundary_index, max(self.rest, other.rest))


def zero_history(grid: HistoryGrid, d: DiscreteDomain) -> HistoryField:
    return HistoryField(grid, np.zeros((grid.n_s, d.n_bulk)),
                        d.boundary_index, 0)


def history_from_profile(grid: HistoryGrid, d: DiscreteDomain,
                         profile: Callable[[Array], Array],
                         shape: StateField) -> HistoryField:
    """Separable history Phi(s) = profile(s) * shape, for a trace-compatible
    shape; any other shape is refused, since its boundary half is lost."""
    if not d.is_trace_compatible(shape):
        raise ValueError("a history shape must be trace compatible")
    p = np.asarray(profile(grid.s_nodes), dtype=float)
    return HistoryField(grid, np.outer(p, shape.bulk), d.boundary_index)


# -- weighted norms ----------------------------------------------------------

# Size of one block of the history walk, as its largest temporary: the
# equation-pair image, one row per bulk and per boundary node. The block and
# its sparse images stay in cache, and no norm allocates an array the size
# of the history. It also bounds the source slab of a pull-back block.
_BLOCK_BYTES = 512 * 1024


def _inflow_rows(phi: HistoryField) -> int:
    """The number of leading rows measured in closed form: min(k, rest + 1)
    when the history carries the inflow claim, else 0."""
    if phi.inflow is None:
        return 0
    return min(phi.inflow[0].shape[0], phi.rest + 1)


def _blocks(phi: HistoryField) -> list[slice]:
    """Consecutive s-row blocks of about ``_BLOCK_BYTES`` each, over rows
    ``_inflow_rows(phi)`` to ``phi.rest``: the inflow rows below are
    measured in closed form and the rows of the flat tail above are not
    walked."""
    start, stop = _inflow_rows(phi), phi.rest + 1
    step = max(1, _BLOCK_BYTES // (8 * (phi.bulk.shape[1]
                                        + phi.boundary_index.size)))
    return [slice(a, min(a + step, stop)) for a in range(start, stop, step)]


def _block_rows(blocks: list[slice]) -> int:
    """Rows of the longest block, the first; 0 without blocks."""
    return blocks[0].stop - blocks[0].start if blocks else 0


def _gram_rows(C: Array, g00: float, g01: float, g11: float) -> Array:
    """The quadratic form of the rows ``C[i, 0] e0 + C[i, 1] e1``, from
    its Gram entries on e0 and e1. The entries are taken one at a time, not
    as one product of stacked copies of e0 and e1, which on square 129's
    rows raised a run's peak memory by 1 MiB."""
    a, b = C[:, 0], C[:, 1]
    return a * a * g00 + 2.0 * a * b * g01 + b * b * g11


def _s_diff(values: Array, r: slice, buf: Array) -> Array:
    """One-sided s-differences of rows ``r``, anchored at the zero inflow
    value, written into the leading rows of the block buffer ``buf``."""
    out = buf[:r.stop - r.start]
    if r.start > 0:
        np.subtract(values[r], values[r.start - 1:r.stop - 1], out=out)
    else:
        out[0] = values[0]
        np.subtract(values[1:r.stop], values[:r.stop - 1], out=out[1:])
    return out


def _v1_rows(phi: HistoryField, d: DiscreteDomain,
             alpha: float, beta: float) -> Array:
    """First-order energy of each history row; the inflow rows from the
    end values' two energies and their cross product, which polarization
    gives from the energy of their difference, the tail copying row
    ``rest``'s."""
    rows = np.empty(phi.grid.n_s)
    m = _inflow_rows(phi)
    if m:
        C, ends = phi.inflow
        e00, e11 = d.v1_products(ends, alpha, beta)
        e01 = 0.5 * (e00 + e11 - d.v1_products((ends[0] - ends[1])[None],
                                               alpha, beta)[0])
        rows[:m] = _gram_rows(C[:m], e00, e01, e11)
    blocks = _blocks(phi)
    buf = np.empty(_block_rows(blocks) * d.n_bulk)
    for r in blocks:
        rows[r] = d.v1_products(phi.bulk[r], alpha, beta, buf)
    rows[phi.rest + 1:] = rows[phi.rest]
    return rows


def _pair_rows(phi: HistoryField, d: DiscreteDomain,
               alpha: float, beta: float) -> Array:
    """Flat energy of the equation-pair image of each history row; the
    inflow rows from the images of the two end values, the tail copying
    row ``rest``'s."""
    _, pair = d.bulk_operators(alpha, beta)
    w = np.concatenate([d.dx, d.dsigma])
    rows = np.empty(phi.grid.n_s)
    m = _inflow_rows(phi)
    if m:
        C, ends = phi.inflow
        p0, p1 = (pair @ ends.T).T
        rows[:m] = _gram_rows(C[:m], w @ (p0 * p0), w @ (p0 * p1),
                              w @ (p1 * p1))
    for r in _blocks(phi):
        p = pair @ phi.bulk[r].T.copy()
        p *= p
        rows[r] = w @ p
    rows[phi.rest + 1:] = rows[phi.rest]
    return rows


def _ds_rows(phi: HistoryField, d: DiscreteDomain) -> Array:
    """Flat energy of the one-sided s-derivative of each history row; the
    inflow rows from the differences of the rows of C in the mass form of
    the end values. It is exactly 0 on the tail above row ``rest``."""
    h2 = np.diff(phi.grid.s_nodes, prepend=0.0) ** 2
    mass = d.mass_diag()
    rows = np.zeros(phi.grid.n_s)
    m = _inflow_rows(phi)
    if m:
        C, (e0, e1) = phi.inflow
        rows[:m] = _gram_rows(np.diff(C[:m], axis=0, prepend=0.0),
                              (e0 * e0) @ mass, (e0 * e1) @ mass,
                              (e1 * e1) @ mass) / h2[:m]
    blocks = _blocks(phi)
    buf = np.empty((_block_rows(blocks), d.n_bulk))
    for r in blocks:
        ds = _s_diff(phi.bulk, r, buf)
        ds *= ds
        rows[r] = (ds @ mass) / h2[r]
    return rows


def memory_norm_sq(phi: Optional[HistoryField], level: int, d: DiscreteDomain,
                   alpha: float, beta: float) -> float:
    """Squared mu_eps-weighted norm of the history at level 1 or 2.

    Level 1 integrates the first-order form, level 2 the squared
    equation-pair image. ``phi=None`` (no memory, eps=0) gives 0.
    """
    if phi is None:
        return 0.0
    if level == 1:
        rows = _v1_rows(phi, d, alpha, beta)
    elif level == 2:
        rows = _pair_rows(phi, d, alpha, beta)
    else:
        raise ValueError(f"level must be 1 or 2, got {level}")
    return float(phi.grid.weights @ rows)


def _folded_weights(g: HistoryGrid, rest: int) -> Array:
    """The grid weights of rows 0 to ``rest``, row ``rest`` carrying the
    mass of the whole tail, sum_{i >= rest} w_i, from a reversed cumulative
    sum cached on the grid; at rest n_s - 1, bitwise the plain weights."""
    tail = g._cache.get("tail_mass")
    if tail is None:
        tail = g._cache["tail_mass"] = np.cumsum(g.weights[::-1])[::-1]
    # a copy and one store, not np.append, whose calls cost 2 us of the
    # load's 26 us on interval 1025 (2-core Intel Xeon)
    w = g.weights[:rest + 1].copy()
    w[rest] = tail[rest]
    return w


def convolve_wentzell(phi: HistoryField, d: DiscreteDomain,
                      alpha: float, beta: float) -> StateField:
    """Memory load: the mu_eps-weighted integral of the equation pair.

    By linearity this equals applying the coupled operator to the weighted
    sum of the history slices. The slices are trace compatible, so it is
    evaluated as the trace-restricted pair of ``bulk_operators`` applied to
    the weighted sum of the bulk rows. The flat tail enters as its row
    ``rest`` with the tail's summed weight, so only rows 0 to ``rest`` are
    read.
    """
    _, pair = d.bulk_operators(alpha, beta)
    r = phi.rest + 1
    load = pair @ (_folded_weights(phi.grid, phi.rest) @ phi.bulk[:r])
    return StateField(load[:d.n_bulk], load[d.n_bulk:])


# -- transport ----------------------------------------------------------------


def _interp_rows(s_nodes: Array, values: Array, q: Array) -> Array:
    """Linear interpolation of history rows at query offsets q >= 0.

    Rows of ``values`` hold the field at s_nodes; the inflow anchor (0, 0)
    closes the left end. Queries must satisfy q < s_max.
    """
    n_s = s_nodes.size
    s_ext = np.concatenate([[0.0], s_nodes])
    idx = np.searchsorted(s_ext, q, side="right") - 1
    idx = np.clip(idx, 0, n_s - 1)
    left = s_ext[idx]
    right = s_ext[idx + 1]
    t = (q - left) / (right - left)
    vals_ext = np.vstack([np.zeros((1, values.shape[1])), values])
    return (1.0 - t)[:, None] * vals_ext[idx] + t[:, None] * vals_ext[idx + 1]


# Fill of one dense block of the pull-back: a dense size (rows x source
# rows) at most this multiple of the nonzeros it replaces. Each block is one
# BLAS product over a contiguous source slab.
_PULLBACK_FILL = 4


def _pullback(g: HistoryGrid, dt: float, width: int) -> tuple:
    """The characteristic pull-back s -> s - dt as dense row blocks for
    history rows of ``width`` nodes, cached on the grid for the last (dt,
    width), the number k of nodes with s <= dt, the k x 2 inflow block C,
    and the lower source rows ``lo``. Those nodes are a prefix, filled by
    the inflow. Each block is ``(rows, src, D)``: rows ``rows`` of the new
    history are ``D`` times the consecutive old rows ``src``; the blocks
    partition rows k..n_s-1.
    A block of more than one row reads a source slab of at most
    ``_BLOCK_BYTES``, so a wide row's block does not multiply mostly zeros,
    and fills its dense D at most ``_PULLBACK_FILL`` times its nonzeros.
    Row k + j interpolates linearly between the two nodes around
    s_{k+j} - dt, old rows ``lo[j]`` and ``lo[j]`` + 1, the zero inflow
    anchor at s = 0 dropping out (then row 0 alone). Row i of C
    holds the trapezoid weights of the step's end values,
    s_i - s_i^2 / 2dt on u_new and s_i^2 / 2dt on u_prev."""
    hit = g._cache.get("transport")
    if hit is None or hit[0] != (dt, width):
        s = g.s_nodes
        k = int(np.searchsorted(s, dt, side="right"))
        q = s[k:] - dt
        s_ext = np.concatenate([[0.0], s])
        idx = np.clip(np.searchsorted(s_ext, q, side="right") - 1, 0, s.size - 1)
        t = (q - s_ext[idx]) / (s_ext[idx + 1] - s_ext[idx])
        # row i reads old rows idx-1 (weight 1-t) and idx (weight t);
        # idx is nondecreasing in i, so a run of rows reads one slab
        lo = np.maximum(idx - 1, 0)
        nnz = idx - lo + 1
        slab_rows = _BLOCK_BYTES // (8 * width)
        blocks, a = [], 0
        while a < q.size:
            b = a + 1
            while (b < q.size and idx[b] - lo[a] + 1 <= slab_rows and
                   (b + 1 - a) * (idx[b] - lo[a] + 1)
                   <= _PULLBACK_FILL * nnz[a:b + 1].sum()):
                b += 1
            r = np.arange(b - a)
            D = np.zeros((b - a, idx[b - 1] - lo[a] + 1))
            D[r, idx[a:b] - lo[a]] = t[a:b]
            inner = idx[a:b] > 0
            D[r[inner], idx[a:b][inner] - 1 - lo[a]] = 1.0 - t[a:b][inner]
            blocks.append((slice(k + a, k + b), slice(lo[a], idx[b - 1] + 1), D))
            a = b
        curv = s[:k] ** 2 / (2.0 * dt)
        hit = g._cache["transport"] = ((dt, width), tuple(blocks), k,
                                       np.stack([s[:k] - curv, curv], axis=1),
                                       lo)
    return hit[1:]


def advance_history(phi: HistoryField, u_new: StateField, dt: float,
                    u_prev: StateField) -> HistoryField:
    """One transport step of the history under the field's motion, written
    in place: ``phi`` is overwritten and returned.

    Values are pulled back along the characteristic s -> s - dt by the
    dense row blocks cached per grid, dt and row width, each reading a
    source slab bounded by ``_BLOCK_BYTES`` (a single row excepted) and
    written back into the history by one BLAS product. Row i reads old
    rows at or below i only, so the blocks run from the last to the first
    and no block reads a row already written; a block whose own source
    slab overlaps its rows is buffered by ``np.matmul``'s overlap rule, so
    the product sees the old values. Rows from a block's first row on are
    then final, and the trapezoid increment of the step is added to them
    in runs of ``_BLOCK_BYTES // (8 width)`` rows, counted from the last
    transported row, while they are in cache: one pass per run, not per
    block, and each entry still gets its product first and the increment
    second. Nodes with s <= dt are filled last, by exact integration of
    the step's inflow, linear in time from ``u_prev`` to ``u_new``
    (trapezoid), as one product of the cached inflow block with the two
    end values, which also form the increment. The inflow fields are
    trace compatible, so only their bulk is read.

    The flat tail is carried, not transported. A row whose two sources
    both lie in the old tail, at or above row max(rest, 1) so that no
    source is the inflow anchor, interpolates between equal rows V with
    weights that sum to 1, so its new value is V + inc up to rounding. The
    sources' lowest row is nondecreasing in the row, so these rows are the
    new tail from the first of them, T, found by one ``searchsorted``;
    each gets the one vector ``bulk[rest] + inc``, computed before any
    block writes and written over rows T to n_s - 1 after the last block,
    so the tail stays bitwise flat. The blocks that start at or above T are
    skipped, the one that straddles T runs whole, and ``rest`` becomes T,
    or n_s - 1 if no row qualifies. Then the pull-back is the plain one: a
    history whose ``rest`` is n_s - 1 moves bitwise as without the rule.

    The step records what it wrote on the inflow rows: ``phi.inflow``
    becomes ``(C, ends)``, the cached block and the stacked end values the
    product read, for the norms to measure those rows in closed form.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    blocks, k, C, lo = _pullback(phi.grid, dt, phi.bulk.shape[1])
    out = phi.bulk
    ends = np.stack([u_new.bulk, u_prev.bulk])
    inc = ends[1] + ends[0]
    inc *= 0.5 * dt
    # the new tail starts at row tail, n_s when no row qualifies, as none
    # does when the old tail is the last row alone
    n_s = tail = out.shape[0]
    if phi.rest < n_s - 1:
        tail = k + int(np.searchsorted(lo, max(phi.rest, 1)))
        if tail < n_s:
            flat = out[phi.rest] + inc
        phi.rest = min(tail, n_s - 1)
    run = max(1, _BLOCK_BYTES // (8 * out.shape[1]))
    stop = tail
    for rows, src, D in reversed(blocks):
        if rows.start >= tail:
            continue
        np.matmul(D, out[src], out=out[rows])
        # rows from rows.start on are final: no later block reads them
        start = stop - (stop - rows.start) // run * run
        if start < stop:
            out[start:stop] += inc
            stop = start
    out[k:stop] += inc
    if tail < n_s:
        out[tail:] = flat
    np.matmul(C, ends, out=out[:k])
    phi.inflow = (C, ends)
    return phi


def history_oracle(times: Array, path: list[StateField],
                   grid: HistoryGrid, d: DiscreteDomain, t: float,
                   phi0: Optional[HistoryField] = None) -> HistoryField:
    """Reference history from the exact representation formula.

    For s <= t the history is the running integral of the path,
    Phi^t(s) = int_0^s U(t - y) dy; beyond the elapsed time the shifted
    initial history carries over, Phi^t(s) = Phi0(s - t) + int_0^t U. The
    path is treated as piecewise linear in time and integrated exactly, so
    this is an independent oracle for the semi-Lagrangian transport.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("path times must increase from 0")
    if not (-1e-12 <= t <= times[-1] + 1e-12):
        raise ValueError("t outside the sampled path")
    t = float(min(max(t, 0.0), times[-1]))

    bulk_path = np.stack([u.bulk for u in path])
    dt_cells = np.diff(times)
    cum_b = np.vstack([
        np.zeros((1, bulk_path.shape[1])),
        np.cumsum(0.5 * (bulk_path[1:] + bulk_path[:-1]) * dt_cells[:, None], axis=0),
    ])

    def path_cum(a: Array) -> Array:
        # exact integral of the piecewise-linear path from 0 to each a
        i = np.clip(np.searchsorted(times, a, side="right") - 1, 0, times.size - 2)
        th = a - times[i]
        frac = th / dt_cells[i]
        ub = bulk_path[i] + frac[:, None] * (bulk_path[i + 1] - bulk_path[i])
        return cum_b[i] + 0.5 * th[:, None] * (bulk_path[i] + ub)

    s = grid.s_nodes
    recent = s <= t
    out_b = np.zeros((grid.n_s, d.n_bulk))
    it_b = path_cum(np.array([t]))
    if np.any(recent):
        out_b[recent] = it_b - path_cum(t - s[recent])
    if np.any(~recent):
        if phi0 is not None:
            out_b[~recent] = _interp_rows(s, phi0.bulk, s[~recent] - t)
        out_b[~recent] += it_b
    return HistoryField(grid, out_b, d.boundary_index)


# -- tails and strong norms ----------------------------------------------------


def tail_function(phi: Optional[HistoryField], tau: float, d: DiscreteDomain,
                  alpha: float, beta: float) -> float:
    """Mass of the first-order history energy outside [1/tau, tau].

    T(tau; Phi) = int_{(0,1/tau) U (tau,inf)} eps mu_eps(s) ||Phi(s)||_V1^2 ds,
    for tau >= 1. Decreasing in tau by construction.
    """
    if tau < 1.0:
        raise ValueError("tau must be >= 1")
    if phi is None:
        return 0.0
    rows = _v1_rows(phi, d, alpha, beta)
    return float(phi.grid.eps * (_tail_window(phi.grid, tau) @ rows))


def _tail_window(g: HistoryGrid, tau: float) -> Array:
    return g.window_weights(0.0, 1.0 / tau) + g.window_weights(tau, g.s_max)


def _tail_sup(g: HistoryGrid, v1: Array) -> float:
    """sup of tau * tail from the V1 rows over the dyadic tau = 1, 2, 4, ...
    up to twice the grid horizon (the tail vanishes beyond it); the windows
    are cached on the grid."""
    windows = g._cache.get("tails")
    if windows is None:
        windows, tau = [], 1.0
        while tau <= 2.0 * max(1.0, g.s_max):
            windows.append((tau, _tail_window(g, tau)))
            tau *= 2.0
        g._cache["tails"] = windows
    return max([0.0] + [tau * float(g.eps * (w @ v1)) for tau, w in windows])


def history_norms(phi: Optional[HistoryField], d: DiscreteDomain,
                  alpha: float, beta: float) -> tuple[float, float, float, float]:
    """The recorded history norms of one sample, from one pass of the V1,
    pair and d/ds rows: ``memory_norm_sq`` at levels 1 and 2, the dyadic sup
    of tau * tail, and the squared strong norm K2, which is the level-2
    energy plus eps times the d/ds flat energy plus that sup. The walks
    stop at row ``rest``, the rows of the flat tail above it taking its
    energies and a zero d/ds row. A history with the inflow claim has its
    rows with s <= dt measured in closed form from the step's two end
    values and walked from row k; the claim is set by ``advance_history``
    only, and the memory load reads every row regardless. ``phi=None``
    gives exact zeros, and so does a history at rest, whose walk is its
    zero row 0."""
    if phi is None:
        return 0.0, 0.0, 0.0, 0.0
    w = phi.grid.weights
    v1 = _v1_rows(phi, d, alpha, beta)
    m2 = memory_norm_sq(phi, 2, d, alpha, beta)
    tail_sup = _tail_sup(phi.grid, v1)
    k2 = m2 + phi.grid.eps * float(w @ _ds_rows(phi, d)) + tail_sup
    return float(w @ v1), m2, tail_sup, k2

