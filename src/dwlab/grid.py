"""Dyadic grids on [0,1)^n with piecewise-constant fields and exact integrals.

A grid fixes an ambient dimension ``n``, a finest level ``L`` and a positive
cell density ``mu``; every field is constant on the ``2**(n*L)`` finest cells,
so every integral below is a finite sum and carries no quadrature error.  The
"all cubes" quantifier of the weight-class definitions is approximated by the
dyadic cubes of a handful of translated grids, enumerated so that the family
for ``shifts = K`` is a prefix of the family for ``K + 1``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Cube",
    "CubeTree",
    "BoxBatch",
    "Grid",
    "MOMENTS",
    "WeightField",
    "FieldFormatError",
    "CellValueError",
    "root_cube",
    "write_weight_field",
    "read_weight_field",
]


@dataclass(frozen=True, order=True)
class Cube:
    """Dyadic cube 2**-level * ([0,1)^n + coords)."""

    level: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"negative level {self.level}")
        if any(c < 0 or c >= 2**self.level for c in self.coords):
            raise ValueError(f"coords {self.coords} out of range at level {self.level}")

    @property
    def n(self):
        return len(self.coords)

    def children(self):
        base = tuple(2 * c for c in self.coords)
        return [
            Cube(self.level + 1, tuple(b + d for b, d in zip(base, offs)))
            for offs in itertools.product((0, 1), repeat=self.n)
        ]

    def cell_slices(self, finest_level):
        if self.level > finest_level:
            raise ValueError(f"cube level {self.level} exceeds finest level {finest_level}")
        span = 2 ** (finest_level - self.level)
        return tuple(slice(c * span, (c + 1) * span) for c in self.coords)

    def descriptor(self):
        return f"level={self.level} coords={','.join(map(str, self.coords))}"


def root_cube(n):
    return Cube(0, (0,) * n)


@functools.cache
def _level_starts(n, L):
    """First index of each level of the dyadic cubes down to level ``L``, and
    the end: one read-only array per (n, L) for ``Grid`` and ``CubeTree``."""
    starts = np.array([(2 ** (n * k) - 1) // (2**n - 1) for k in range(L + 2)])
    starts.setflags(write=False)
    return starts


class CubeTree:
    """Every dyadic cube of [0,1)^n down to level ``L`` as one index range.

    Level k holds its ``2**(n*k)`` cubes after the coarser levels, in Morton
    order: the children of a cube are ``2**n`` consecutive indices in
    ``Cube.children()`` order, so the parent of local index i is ``i >> n``
    and the box of a cube is one index range per level.  Bit ``b * n + n - 1
    - d`` of a local index is bit ``b`` of coordinate ``d``.  Its arrays are
    read-only; every flat stack of dyadic cubes has one row per index.
    """

    def __init__(self, n, L):
        self.n, self.L = n, L
        self.offsets = _level_starts(n, L)
        self.size = int(self.offsets[-1])
        self.level = np.repeat(np.arange(L + 1), np.diff(self.offsets))
        self.level.setflags(write=False)

    def span(self, k):
        return np.arange(self.offsets[k], self.offsets[k + 1])

    def index(self, cube):
        if cube.n != self.n or cube.level > self.L:
            raise ValueError(f"cube {cube.descriptor()} is not in the tree of n={self.n}, L={self.L}")
        local = 0
        for b in range(cube.level - 1, -1, -1):
            for c in cube.coords:
                local = local << 1 | c >> b & 1
        return int(self.offsets[cube.level]) + local

    def _deinterleave(self, local, bits):
        """The coords, one entry per axis, of local Morton index ``local`` (an
        int or an array) from its lowest ``bits`` bits per axis."""
        coords = [local & 0 for _ in range(self.n)]
        for b in range(bits):
            for d in range(self.n):
                coords[d] |= (local >> (b * self.n + self.n - 1 - d) & 1) << b
        return coords

    def coords(self, idx):
        """The level of each cube of ``idx`` and its coords, one entry per
        axis, from the bits of its Morton index."""
        k = self.level[idx]
        return k, self._deinterleave(idx - self.offsets[k], int(np.max(k, initial=0)))

    def cube(self, idx):
        k = int(self.level[idx])
        return Cube(k, tuple(self._deinterleave(int(idx) - int(self.offsets[k]), k)))

    def descriptors(self, idx):
        """``cube(i).descriptor()`` for each cube ``i`` of ``idx``, from one
        de-interleaving of the whole array."""
        k, coords = self.coords(np.asarray(idx, dtype=np.int64))
        rows = zip(k.tolist(), *(c.tolist() for c in coords))
        return [Cube(level, tuple(c)).descriptor() for level, *c in rows]

    def c_order(self, idx):
        """Sort key of the cubes of ``idx`` by level, then by C order of their
        coords."""
        k, coords = self.coords(idx)
        flat = 0
        for c in coords:
            flat = (flat << k) | c
        return self.offsets[k] + flat

    def ancestor(self, idx, m):
        """The level-``m`` cube above each cube of ``idx``."""
        k = self.level[idx]
        return self.offsets[m] + ((idx - self.offsets[k]) >> (self.n * (k - m)))

    def children(self, idx):
        k = self.level[idx]
        first = self.offsets[k + 1] + ((idx - self.offsets[k]) << self.n)
        return (first[:, None] + np.arange(2**self.n)).reshape(-1)

    def box(self, idx):
        """The cubes of the box of cube ``idx``, level by level."""
        k = int(self.level[idx])
        first = int(idx - self.offsets[k])
        return np.concatenate([
            self.offsets[m] + (first << (self.n * (m - k))) + np.arange(2 ** (self.n * (m - k)))
            for m in range(k, self.L + 1)
        ])

    def preorder(self, idx):
        """Sort key of the depth-first preorder of a box: every cube before
        its children, and children in ``Cube.children()`` order."""
        k = self.level[idx]
        return ((idx - self.offsets[k]) << (self.n * (self.L - k))) * (self.L + 1) + k


def _morton(cells, n):
    """A view of a C-order ``(2**k,) * n + tail`` array with its leading axes
    split into bits, ordered so that its C order is the Morton order of the
    level-k cubes: ``(2,) * (n * k) + tail``.  At n = 1 that order is C
    order, and the array itself is returned."""
    if n == 1:
        return cells
    k = cells.shape[0].bit_length() - 1
    bits = cells.reshape((2,) * (n * k) + cells.shape[n:])
    lead = [d * k + j for j in range(k) for d in range(n)]
    return bits.transpose(lead + list(range(n * k, bits.ndim)))


def _sibling_sums(child, n, out=None):
    """Sum each run of ``2**n`` sibling rows of a tree-order stack into one row.

    A run of scalars (a tail of one element) below the root is added as numpy
    adds a C-order 2 x ... x 2 block of them: each pair of last-axis siblings,
    then the pair sums in turn.  A flat reduce adds them in another order from
    n = 2 on, so the stacks of mu, of log det W and of the Carleson masses
    would lose their bits; every other tail reduces flat with the same bits."""
    x = child.reshape((-1, 2**n) + child.shape[1:])
    if child.size > len(child) or len(x) == 1:
        return np.add.reduce(x, axis=1, out=out)
    pairs = x[:, 0::2] + x[:, 1::2]
    if out is None:
        out = np.empty_like(pairs[:, 0])
    np.copyto(out, pairs[:, 0])
    for i in range(1, pairs.shape[1]):
        out += pairs[:, i]
    return out


# Floats a batch may hold at once (boxes x the floats its reader holds per
# box, by default its band cells), unless one row of boxes alone needs more.
# At 3 * 2**15 the full class scan of log-gaussian fields at n=2 L=5 and n=1
# L=9 holds less at once than under a fixed 128 boxes per batch (traced), and
# its largest gather is no larger; scans that read fewer channels get more boxes.
_BATCH_FLOATS = 3 * 2**15

# Every box endpoint lies on the lattice of step 1/(9 * 2**(L+2)): shifts are
# ninths, levels run to L+1 for the doubled cubes, and 2Q moves each side by
# half the box side.  A finest cell is _CELL_UNITS lattice steps wide.
_CELL_UNITS = 36


class BoxBatch:
    """The boxes of one (shift, level) family in ``rows = (first, stop)`` along
    the first axis and every row along the others, flattened in C order."""

    def __init__(self, family, rows):
        self.family, self.rows = family, rows
        self.shift, self.level = family.shift, family.level
        self._len = (rows[1] - rows[0]) * family.row_boxes

    def __len__(self):
        return self._len

    def descriptor(self, i):
        """The label of box ``i`` in C order."""
        first, stop = self.rows
        at = np.unravel_index(i, (stop - first,) + self.family.counts[1:])
        pos = ",".join(str(int(p)) for p in (first + at[0], *at[1:]))
        return f"shift={self.shift} level={self.level} pos={pos}"


class _Family:
    """The boxes of one translated grid at one level inside [0,1)^n, and the
    cell bands under them and their doubles 2Q, by arithmetic.  Along an axis
    box p is [o + p h, o + (p + 1) h) lattice steps; 2Q moves each side out by
    h / 2, clipped to [0, units].  An interval [lo, hi) has a band of
    ``ceil(hi / w) - lo // w`` cells (w = _CELL_UNITS) holding its exact
    overlaps in steps.  A batch's bands are as wide as its widest, m, which
    sets einsum's summation order, and start at cell ``min(lo // w, side - m)``.
    So along an axis a batch's boxes fall into at most four affine pieces: a
    first 2Q clipped at 0; the boxes between, whole-cell translates of each
    other, in one run up to level L (h = s w) or in two runs of every other
    box at level L + 1 (h = w / 2); and a last box clipped at the far side or
    read from side - m.  Each piece reads one strided view and one band row.
    An axis's pieces depend only on its level and offset, so ``axes``, the
    grid's memo of them, is shared by the families of every shift."""

    def __init__(self, shift, level, offsets, h, counts, units, axes):
        self.shift, self.level, self.counts = shift, level, counts
        self._offsets, self._h, self._units, self._axes = offsets, h, units, axes
        # Each axis's count, band width and pieces, of Q and of 2Q; the cells
        # in the band of a box and of its double, for the batch budget; and
        # the boxes in one row along the first axis.
        self._plans = {d: [self._axis(a, 0, c, d) for a, c in enumerate(counts)] for d in (False, True)}
        self.band_cells = {d: math.prod(m for _, m, _ in plan) for d, plan in self._plans.items()}
        self.row_boxes = math.prod(counts[1:])

    def _axis(self, axis, first, stop, doubled):
        """The count, band width m and pieces ``(rows, boxes, start, step,
        band)`` of boxes ``first .. stop - 1`` along ``axis``: the i-th of the
        ``boxes`` boxes of ``rows`` (a slice of these boxes) reads m cells from
        ``start + i * step`` on, weighted by the read-only band row."""
        o, h, units, w = self._offsets[axis], self._h, self._units, _CELL_UNITS
        key = (self.level, o, first, stop, doubled)
        if key in self._axes:
            return self._axes[key]
        half = h // 2 if doubled else 0
        period, pieces = 1 if h >= w else 2, []
        # The widest band: of the first and last box, which may be clipped,
        # and of the boxes between, by where their lo end falls in a cell.
        ends = [(max(o + p * h - half, 0), min(o + (p + 1) * h + half, units)) for p in (first, stop - 1)]
        between = [(o + p * h - half) % w for p in range(first + 1, stop - 1)[:period]]
        m = max(-(-hi // w) - lo // w for lo, hi in ends + [(r, r + h + 2 * half) for r in between])

        def piece(p, until, every):
            lo, hi = max(o + p * h - half, 0), min(o + (p + 1) * h + half, units)
            j = min(lo // w, units // w - m)
            a, b = lo // w - j, -(-hi // w) - j
            row = np.zeros(m)
            row[a:b] = w
            row[a] -= lo % w
            row[b - 1] -= -hi % w
            row.setflags(write=False)
            rows = slice(p - first, until - first, every)
            pieces.append((rows, len(range(p, until, every)), j, every * h // w, row))

        # Boxes begin .. end - 1 are neither clipped nor read from side - m:
        # only a first 2Q can be clipped at 0, and only the last box otherwise.
        begin = first + (o + first * h - half < 0)
        last_lo, last_hi = o + (stop - 1) * h - half, o + stop * h + half
        end = stop - (begin < stop and (last_hi > units or last_lo // w + m > units // w))
        if begin > first:
            piece(first, begin, 1)
        for p in range(begin, min(begin + period, end)):
            piece(p, end, period)
        if end < stop:
            piece(end, stop, 1)
        self._axes[key] = stop - first, m, pieces
        return self._axes[key]

    def plan(self, rows, doubled=False):
        """The count, band width and pieces of each axis (see ``_axis``) for
        the boxes in ``rows`` along the first axis and every row along the others."""
        plan, (first, stop) = self._plans[doubled], rows
        return plan if stop - first == self.counts[0] else [self._axis(0, first, stop, doubled), *plan[1:]]


class CellValueError(ValueError):
    """A finest cell holds an invalid value; ``index`` is its flat cell index."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def _reject_cells(bad, message):
    """Raise CellValueError for the first finest cell flagged in ``bad``."""
    if np.any(bad):
        index = int(np.flatnonzero(bad)[0])
        cell = tuple(int(c) for c in np.unravel_index(index, bad.shape))
        raise CellValueError(message.format(cell), index)


def _reject_nonfinite(values):
    """Raise CellValueError for the first weight cell of ``values`` with a
    non-finite entry."""
    if np.isfinite(values).all():
        return
    _reject_cells(~np.all(np.isfinite(values), axis=(-2, -1)), "weight cell {} is not finite")


def _reject_singular(eigvals):
    """Raise CellValueError for the first weight cell whose smallest eigenvalue
    (``eigvals`` ascending) is at most 1e-13 of its largest in magnitude.
    Passing that test against the largest magnitude of all cells suffices."""
    if eigvals[..., 0].min() > 1e-13 * np.abs(eigvals).max():
        return
    scale = np.max(np.abs(eigvals), axis=-1)
    _reject_cells(eigvals[..., 0] <= 1e-13 * scale, "weight cell {} is not positive definite")


class Grid:
    """Measured dyadic grid: dimension ``n``, finest level ``L``, density ``mu``."""

    def __init__(self, n, L, mu=None):
        if n < 1 or L < 0:
            raise ValueError(f"bad grid parameters n={n}, L={L}")
        self.n = int(n)
        self.L = int(L)
        side = 2**self.L
        shape = (side,) * self.n
        if mu is None:
            mu = np.ones(shape)
        mu = np.array(mu, dtype=float).reshape(shape)
        bad = ~(np.isfinite(mu) & (mu > 0.0))
        _reject_cells(bad, "measure density of cell {} must be finite and strictly positive")
        mu.setflags(write=False)
        self.mu = mu
        self.cell_volume = 2.0 ** (-self.n * self.L)
        self.cell_masses = mu * self.cell_volume
        self.cell_masses.setflags(write=False)
        self._starts = _level_starts(self.n, self.L)
        # The mu-measure of every dyadic cube, one flat stack in tree order.
        self.mu_stack = self.integrals(np.ones(shape))
        self.mu_stack.setflags(write=False)
        # Translated-grid geometry, built once per grid; see _family.
        self._families, self._axes = {}, {}

    @property
    def side(self):
        return 2**self.L

    @functools.cached_property
    def tree(self):
        """The grid's ``CubeTree``, built on first read; every walk on the grid reads it."""
        return CubeTree(self.n, self.L)

    def integrals(self, cell_values):
        """Integrals of ``cell_values`` d(mu) over every dyadic cube as one flat
        stack in ``CubeTree`` order, one row per cube.  The finest cells are
        read in Morton order through ``_morton``'s view, and each coarser
        level sums the sibling runs of the level below, written in place."""
        n, starts = self.n, self._starts.tolist()
        tail = cell_values.shape[n:]
        out = np.empty((starts[-1],) + tail)
        finest, cells = out[starts[-2] :], _morton(cell_values, n)
        mu = _morton(self.mu.reshape(self.mu.shape + (1,) * len(tail)), n)
        np.multiply(cells, mu, out=finest.reshape(cells.shape))
        finest *= self.cell_volume
        for k in range(self.L, 0, -1):
            _sibling_sums(out[starts[k] : starts[k + 1]], n, out=out[starts[k - 1] : starts[k]])
        return out

    def mu_averages(self, sums):
        """The mu-averages over every dyadic cube from ``sums``, a flat stack of
        their integrals as ``integrals`` returns it."""
        return sums / self.mu_stack.reshape((-1,) + (1,) * (sums.ndim - 1))

    def shift_vectors(self, shifts):
        """The zero vector and ``shifts`` distinct translations, in integer
        ninths of the unit side: every third-shift, then the ninth-shifts.
        Prefix-nested as ``shifts`` grows."""
        # 3**n third-shifts and 6**n ninth-shifts share 2**n vectors; less zero.
        limit = 3**self.n + 6**self.n - 2**self.n - 1
        if not 0 <= shifts <= limit:
            raise ValueError(
                f"shifts must lie in [0, {limit}] for n={self.n}, the distinct"
                f" ninth-shifts of the unit cube; got {shifts}"
            )
        pool = itertools.chain(
            sorted(itertools.product((0, 3, 6), repeat=self.n)),
            itertools.product((3, 6, 1, 4, 7, 2), repeat=self.n),
        )
        out = []
        for vec in pool:
            if len(out) > shifts:
                break
            if vec not in out:
                out.append(vec)
        return out

    def box_batches(self, shifts, levels=None, box_floats=None):
        """The finite surrogate for "all cubes": dyadic plus translated grids.

        Yields the cubes of every translated grid that lie fully inside [0,1)^n,
        one (shift, level) family at a time split along its first axis into
        batches, in enumeration order.  ``box_floats(level, cells, doubled)``
        is the number of floats a reader holds at once per box, given the band
        cells of a box and of its double 2Q (default ``cells``, one gathered
        channel).  A batch holds at most ``_BATCH_FLOATS`` floats, or one row.
        """
        if levels is None:
            levels = range(self.L + 1)
        for s_idx, s in enumerate(self.shift_vectors(shifts)):
            for k in levels:
                family = self._family(s_idx, s, k)
                if family is None:
                    continue
                cells = family.band_cells[False]
                if box_floats is not None:
                    cells = box_floats(k, cells, family.band_cells[True])
                count = family.counts[0]
                rows = max(1, _BATCH_FLOATS // (cells * family.row_boxes))
                for r in range(0, count, rows):
                    yield BoxBatch(family, (r, min(r + rows, count)))

    def _family(self, s_idx, vec, k):
        """The boxes of the level-``k`` grid translated by ``vec`` (in ninths)
        that lie inside [0,1)^n, or None when there are none.  Built once per
        grid; ``s_idx`` names ``vec``, since the shift vectors are prefix-nested."""
        key = (s_idx, k)
        if key not in self._families:
            units = _CELL_UNITS * self.side
            h = units >> k
            offsets = [v * units // 9 for v in vec]
            counts = tuple((units - o) // h for o in offsets)
            family = _Family(s_idx, k, offsets, h, counts, units, self._axes) if all(counts) else None
            self._families[key] = family
        return self._families[key]

    def box_sums(self, cells, batch, doubled=False):
        """Integrals of a ``(side,) * n + tail`` cell array over the boxes of
        ``batch``, or their doubles 2Q, times ``_CELL_UNITS**n``: one row per box.

        The axes are contracted in turn, each against its bands, so no
        prefix-sum difference is taken and no block of every box's band cells
        is formed.  Each piece of an axis (see ``_Family``) is one strided view
        of the cells, or of the previous axis's sums, and its einsum writes
        that piece's boxes of the axis's sums."""
        x = np.ascontiguousarray(cells).reshape(1, -1)
        for count, m, pieces in batch.family.plan(batch.rows, doubled):
            x = x.reshape(-1, self.side, x.shape[-1] // self.side)
            out, (lead, st, item) = np.empty((len(x), count, x.shape[2])), x.strides
            for rows, boxes, start, step, band in pieces:
                # Boxes a cell apart read one run of cells per band cell: one long row.
                k = 1 if boxes == 1 or step == rows.step == 1 else boxes
                shape, strides = (len(x), k, m, boxes * x.shape[2] // k), (lead, step * st, st, item)
                view = np.ndarray(shape, x.dtype, x, start * st, strides)
                np.einsum("akjb,j->akb", view, band, out=out[:, rows].reshape(shape[:2] + shape[3:]))
            x = out
        return x.reshape((-1,) + cells.shape[self.n :])


# The moments a family scan may gather, in channel order: W, W^2, W^-1, W^-2
# and log det W.
MOMENTS = ("w", "w2", "winv", "winv2", "logdet")
_POWERS = {"w": 1, "w2": 2, "winv": -1, "winv2": -2}


class WeightField:
    """SPD matrix weight on a measured grid, with cached cube integrals.

    ``values`` has shape ``(2**L,)*n + (N, N)``; every cell matrix must be
    symmetric positive definite.  Cube integrals of cell-wise functions of the
    weight (powers, log-determinants) are aggregated bottom-up once and reused.
    """

    def __init__(self, grid, values):
        side = grid.side
        values = np.array(values, dtype=float)
        expected_lead = (side,) * grid.n
        if values.shape[: grid.n] != expected_lead or values.ndim != grid.n + 2:
            raise ValueError(f"weight field shape {values.shape} does not match grid")
        N = values.shape[-1]
        if values.shape[-2] != N:
            raise ValueError("weight cells must be square matrices")
        _reject_nonfinite(values)
        values = (values + np.swapaxes(values, -1, -2)) / 2.0
        w, v = np.linalg.eigh(values)
        _reject_singular(w)
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.N = N
        self.cell_eigvals = w
        self.cell_eigvecs = v
        self._cell_cache = {}
        self._tree_cache = {}
        # Family scans by (keys, shifts, direction draws, seed); see weights.family_scan.
        self._scans = {}

    # Cell-wise derived quantities -------------------------------------------------

    def cell_power(self, exponent):
        key = ("pow", exponent)
        if key not in self._cell_cache:
            w, v = self.cell_eigvals, self.cell_eigvecs
            self._cell_cache[key] = np.einsum(
                "...ij,...j,...kj->...ik", v, np.power(w, float(exponent)), v
            )
        return self._cell_cache[key]

    def cell_log_det(self):
        key = ("logdet",)
        if key not in self._cell_cache:
            self._cell_cache[key] = np.sum(np.log(self.cell_eigvals), axis=-1)
        return self._cell_cache[key]

    # Cube integrals ----------------------------------------------------------------

    def _trees(self, moments):
        """Cache the flat stacks of cube integrals and mu-averages of the named
        ``moments`` not cached yet.  The powers of W asked for together are
        summed in one pass and divided once by the grid's flat mu stack; a
        scalar channel (log det W, or a power at N = 1) stacked beside others
        is summed in another order, so each of those keeps its own tree."""
        new = [m for m in MOMENTS if m in moments and ("avg", m) not in self._tree_cache]
        powers = [m for m in new if m != "logdet"]
        groups = [[m] for m in powers] if self.N == 1 else [powers] if powers else []
        if "logdet" in new:
            groups.append(["logdet"])
        g = self.grid
        for group in groups:
            if group == ["logdet"]:
                cells = self.cell_log_det()[..., None]
            else:
                cells = np.stack([self.cell_power(_POWERS[m]) for m in group], axis=g.n)
            sums = g.integrals(cells)
            avgs = g.mu_averages(sums)
            for i, m in enumerate(group):
                self._tree_cache["sum", m], self._tree_cache["avg", m] = sums[:, i], avgs[:, i]

    def average_stacks(self, moments):
        """Flat stacks of the mu-averages of the named ``moments`` (see
        ``MOMENTS``) over every dyadic cube, one row per cube in ``CubeTree``
        order: the one source of dyadic averages."""
        self._trees(moments)
        return [self._tree_cache["avg", m] for m in moments]

    def integral_stack(self, moment):
        """The flat stack of cube integrals of ``moment`` d(mu), one row per cube
        in ``CubeTree`` order, as in ``average_stacks``."""
        self._trees((moment,))
        return self._tree_cache["sum", moment]

    def moment_masses(self, moments=MOMENTS):
        """Cell masses of 1 and of the named ``moments`` on one last axis: each
        power of ``W`` takes N*N channels (row-major), ``logdet`` one."""
        key = ("moments", tuple(moments))
        if key not in self._cell_cache:
            lead = self.values.shape[:-2]
            parts = [np.ones(lead + (1,))]
            for m in moments:
                if m == "logdet":
                    parts.append(self.cell_log_det()[..., None])
                else:
                    parts.append(self.cell_power(_POWERS[m]).reshape(lead + (-1,)))
            masses = np.concatenate(parts, axis=-1) * self.grid.cell_masses[..., None]
            self._cell_cache[key] = masses
        return self._cell_cache[key]

    def log_norm_masses(self, directions):
        """Cell masses of log|W^{-1/2} d| for the rows d of ``directions``, on one
        last axis; |W^{-1/2} d|^2 is summed one eigen-component at a time.

        The cells are filled in C order, an even run of them at a time, whose
        products hold at most about ``_BATCH_FLOATS`` floats.  Each product is
        ``directions`` times a C-contiguous copy of the run's eigenvector
        columns, with at least two columns: a transposed operand stalls
        threaded BLAS, and BLAS rounds a one-column product by another kernel.
        A cell count above one is even, so every run has the bits of one
        product over the whole grid, and a one-cell grid those of its gemv."""
        key = ("lognorm", directions.tobytes())
        if key not in self._cell_cache:
            D, N = len(directions), self.N
            vecs = self.cell_eigvecs.reshape(-1, N, N)
            vals = self.cell_eigvals.reshape(-1, N)
            masses = self.grid.cell_masses.reshape(-1, 1)
            out = np.zeros(self.values.shape[:-2] + (D,))
            flat = out.reshape(-1, D)
            run = 2 * max(1, _BATCH_FLOATS // (2 * D))
            for lo in range(0, len(flat), run):
                sq = flat[lo : lo + run]
                for i in range(N):
                    proj = directions @ np.ascontiguousarray(vecs[lo : lo + run, :, i].T)
                    proj *= proj
                    proj /= vals[lo : lo + run, i]
                    sq += proj.T
                    del proj
                np.log(sq, out=sq)
                sq *= 0.5 * masses[lo : lo + run]
            self._cell_cache[key] = out
        return self._cell_cache[key]


# Weight-field file format ---------------------------------------------------------


class FieldFormatError(ValueError):
    """Malformed weight-field file; carries the offending line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


def write_weight_field(path, weight):
    """Text format: header ``n N L``, then one line per finest cell with the
    mu-density followed by the N*N row-major weight entries, 17 significant
    digits each (bit-exact round-trip for doubles)."""
    g = weight.grid
    lines = [f"{g.n} {weight.N} {g.L}"]
    flat_mu = g.mu.reshape(-1)
    flat_w = weight.values.reshape(-1, weight.N * weight.N)
    for dens, row in zip(flat_mu, flat_w):
        nums = [dens, *row]
        lines.append(" ".join(f"{x:.17g}" for x in nums))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _first_bad_line(lines, width):
    """The error of the first cell line that does not hold ``width`` numbers."""
    for line, parts in enumerate(map(str.split, lines), start=2):
        if len(parts) != width:
            return FieldFormatError(f"expected {width} numbers, found {len(parts)}", line)
        try:
            list(map(float, parts))
        except ValueError:
            return FieldFormatError("unparsable number", line)


def read_weight_field(path):
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise FieldFormatError("empty file", 1)
    head = raw[0].split()
    if len(head) != 3:
        raise FieldFormatError("expected header 'n N L'", 1)
    try:
        n, N, L = (int(x) for x in head)
    except ValueError:
        raise FieldFormatError("header fields must be integers", 1) from None
    if n < 1 or N < 1 or L < 0:
        raise FieldFormatError("header needs n >= 1, N >= 1 and L >= 0", 1)
    cells = 2 ** (n * L)
    if len(raw) < cells + 1:
        raise FieldFormatError(f"expected {cells} cell lines, found {len(raw) - 1}", len(raw))
    for i in range(cells + 1, len(raw)):
        if raw[i].strip():
            raise FieldFormatError("unexpected line after the last cell", i + 1)
    # Two streaming passes over the cell lines, every count and then every
    # number; only a bad file is walked again to name its first bad line.
    body = raw[1 : cells + 1]
    width = 1 + N * N
    nums = None
    if all(len(line.split()) == width for line in body):
        tokens = itertools.chain.from_iterable(map(str.split, body))
        try:
            nums = np.fromiter(map(float, tokens), float, cells * width)
        except ValueError:
            pass
    if nums is None:
        raise _first_bad_line(body, width)
    nums = nums.reshape(cells, width)
    side = 2**L
    try:
        grid = Grid(n, L, nums[:, 0].reshape((side,) * n))
        return WeightField(grid, nums[:, 1:].reshape((side,) * n + (N, N)))
    except CellValueError as exc:
        raise FieldFormatError(str(exc), exc.index + 2) from None
