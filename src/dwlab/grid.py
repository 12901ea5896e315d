"""Dyadic grids on [0,1)^n with piecewise-constant fields and exact integrals.

A grid fixes an ambient dimension ``n``, a finest level ``L`` and a positive
cell density ``mu``; every field is constant on the ``2**(n*L)`` finest cells,
so every integral below is a finite sum and carries no quadrature error.  The
"all cubes" quantifier of the weight-class definitions is approximated by the
dyadic cubes of a handful of translated grids, enumerated so that the family
for ``shifts = K`` is a prefix of the family for ``K + 1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Cube",
    "BoxBatch",
    "Grid",
    "MOMENTS",
    "WeightField",
    "FieldFormatError",
    "CellValueError",
    "root_cube",
    "weighted_avg",
    "expectation_Et",
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
    """The product of per-axis intervals ``[lo[i][j], hi[i][j])``, flattened in
    C order, in integer lattice steps; ``pos`` holds their per-axis positions
    in a translated grid."""

    def __init__(self, lo, hi, pos, shift=0, level=0):
        self.lo, self.hi, self.pos, self.shift, self.level = lo, hi, pos, shift, level

    def __len__(self):
        return math.prod(len(p) for p in self.pos)

    def descriptor(self, i):
        """The label of box ``i`` in C order."""
        at = np.unravel_index(i, tuple(len(p) for p in self.pos))
        pos = ",".join(str(int(p[j])) for p, j in zip(self.pos, at))
        return f"shift={self.shift} level={self.level} pos={pos}"

    def doubled(self):
        """The boxes 2Q: each side moved out by half the box side, clipped to the
        unit cube, whose side is the box side times ``2**level``."""
        h = int(self.hi[0][0] - self.lo[0][0])
        top = h << self.level
        lo = tuple(np.maximum(a - h // 2, 0) for a in self.lo)
        hi = tuple(np.minimum(b + h // 2, top) for b in self.hi)
        return BoxBatch(lo, hi, self.pos, self.shift, self.level)


def _coarsen(arr, n):
    """Sum 2x...x2 sibling blocks along the first ``n`` axes."""
    shape = arr.shape
    half = shape[0] // 2
    new = arr.reshape(
        sum(((half, 2) for _ in range(n)), ()) + shape[n:]
    )
    return new.sum(axis=tuple(2 * k + 1 for k in range(n)))


def _level_sums(finest, n, L):
    """Sums of ``finest`` over the dyadic cubes of each level, coarsest first."""
    tree = [finest]
    for _ in range(L):
        tree.append(_coarsen(tree[-1], n))
    return tree[::-1]


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
        # Integral of mu over every dyadic cube, one array per level.
        self._mu_tree = _level_sums(mu * self.cell_volume, self.n, self.L)

    @property
    def side(self):
        return 2**self.L

    def cubes(self, levels=None):
        if levels is None:
            levels = range(self.L + 1)
        for k in levels:
            for coords in itertools.product(range(2**k), repeat=self.n):
                yield Cube(k, coords)

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

    @property
    def cell_masses(self):
        """The mu-measure of every finest cell."""
        return self._mu_tree[-1]

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
        units = _CELL_UNITS * self.side
        for s_idx, s in enumerate(self.shift_vectors(shifts)):
            offset = [v * units // 9 for v in s]
            for k in levels:
                h = units >> k
                pos = [np.arange((units - o) // h) for o in offset]
                if any(len(p) == 0 for p in pos):
                    continue
                lo = [o + p * h for o, p in zip(offset, pos)]
                hi = [a + h for a in lo]
                family = BoxBatch(lo, hi, pos, s_idx, k)
                cells = self._band_cells(family)
                if box_floats is not None:
                    cells = box_floats(k, cells, self._band_cells(family.doubled()))
                rows = max(1, _BATCH_FLOATS // (cells * math.prod(len(p) for p in pos[1:])))
                for r in range(0, len(pos[0]), rows):
                    first_axis = ((x[0][r : r + rows], *x[1:]) for x in (lo, hi, pos))
                    yield BoxBatch(*first_axis, s_idx, k)

    def box_cells(self, batch):
        """Where the boxes of ``batch`` sit on the finest cells.

        Along one axis an interval [lo, hi) overlaps at most
        ``ceil((hi - lo) / _CELL_UNITS) + 1`` consecutive cells, so per axis a
        start index and a ``(count, m)`` band of overlaps cover the boxes.  Each
        band entry is the exact overlap in lattice steps, so every box integral
        is ``_CELL_UNITS**n`` times the mass of the box; its readers take ratios.
        Returns an index tuple that gathers a cell array into shape
        ``(count_0, ..., count_{n-1}, m_0, ..., m_{n-1}) + tail`` and the bands.
        """
        n, side, w = self.n, self.side, _CELL_UNITS
        index, bands = [], []
        for axis, (lo, hi) in enumerate(zip(batch.lo, batch.hi)):
            m = self._band_width(lo, hi)
            j = np.clip(lo // w, 0, side - m)[:, None] + np.arange(m)
            band = np.minimum(hi[:, None], (j + 1) * w) - np.maximum(lo[:, None], j * w)
            shape = [1] * (2 * n)
            shape[axis], shape[n + axis] = j.shape
            index.append(j.reshape(shape))
            bands.append(np.maximum(band, 0).astype(float))
        return tuple(index), bands

    def _band_width(self, lo, hi):
        """Cells in the band of intervals [lo, hi) along one axis."""
        return int(min(self.side, np.max(-(-hi // _CELL_UNITS) - lo // _CELL_UNITS)))

    def _band_cells(self, batch):
        """Cells each box of ``batch`` gathers in ``box_cells``."""
        return math.prod(self._band_width(lo, hi) for lo, hi in zip(batch.lo, batch.hi))

    @staticmethod
    def box_integrals(masses, bands):
        """Integrals over each box of cell masses gathered by ``box_cells``.

        Each band axis is contracted in turn against its band, so no prefix-sum
        difference is taken; the result has shape ``(boxes,) + tail``.
        """
        n = len(bands)
        for axis, band in enumerate(bands):
            sub = list(range(masses.ndim))
            masses = np.einsum(masses, sub, band, [axis, n], sub[:n] + sub[n + 1 :])
        return masses.reshape((-1,) + masses.shape[n:])


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
        _reject_cells(~np.all(np.isfinite(values), axis=(-2, -1)), "weight cell {} is not finite")
        values = (values + np.swapaxes(values, -1, -2)) / 2.0
        w, v = np.linalg.eigh(values)
        scale = np.max(np.abs(w), axis=-1)
        _reject_cells(w[..., 0] <= 1e-13 * scale, "weight cell {} is not positive definite")
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

    def _integrals(self, cell_values):
        """Per-level arrays of the cube integrals of ``cell_values`` d(mu)."""
        g = self.grid
        mu = g.mu.reshape(g.mu.shape + (1,) * (cell_values.ndim - g.n))
        return _level_sums(cell_values * mu * g.cell_volume, g.n, g.L)

    def integral_tree(self, exponent):
        """Per-level arrays of the cube integrals of W**exponent d(mu)."""
        key = ("pow", exponent)
        if key not in self._tree_cache:
            self._tree_cache[key] = self._integrals(self.cell_power(exponent))
        return self._tree_cache[key]

    def averages(self, moment):
        """Per-level arrays of the mu-averages of the named moment (see ``MOMENTS``)
        over every dyadic cube: the one source of dyadic averages."""
        key = ("avg", moment)
        if key not in self._tree_cache:
            if moment == "logdet":
                tree, at = self._integrals(self.cell_log_det()), ...
            else:
                tree, at = self.integral_tree(_POWERS[moment]), (..., None, None)
            self._tree_cache[key] = [t / m[at] for t, m in zip(tree, self.grid._mu_tree)]
        return self._tree_cache[key]

    def avg_entries(self, cube, moment="w"):
        return self.averages(moment)[cube.level][cube.coords]

    def expectation_levels(self, f):
        """Weighted averages E_R f = (int_R W dmu)^{-1} int_R W f dmu of a vector
        field ``f`` over every dyadic cube R, one array per level."""
        iwf = self._integrals(np.einsum("...ij,...j->...i", self.values, np.asarray(f, float)))
        return [
            np.linalg.solve(iw, x[..., None])[..., 0] for iw, x in zip(self.integral_tree(1), iwf)
        ]

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
        last axis; |W^{-1/2} d|^2 is summed one eigen-component at a time."""
        key = ("lognorm", directions.tobytes())
        if key not in self._cell_cache:
            sq = np.zeros(self.values.shape[:-2] + (len(directions),))
            for i in range(self.N):
                proj = self.cell_eigvecs[..., i] @ directions.T
                proj *= proj
                proj /= self.cell_eigvals[..., i, None]
                sq += proj
            del proj
            np.log(sq, out=sq)
            sq *= 0.5 * self.grid.cell_masses[..., None]
            self._cell_cache[key] = sq
        return self._cell_cache[key]


# Free-function forms of the core operations --------------------------------------


def weighted_avg(f, cube, weight):
    """Matrix weighted average: (int_Q W dmu)^{-1} int_Q W f dmu."""
    g = weight.grid
    slices = cube.cell_slices(g.L)
    f = np.asarray(f, dtype=float)
    mu = g.mu[slices]
    w_block = weight.values[slices]
    f_block = f[slices]
    axes = tuple(range(g.n))
    iw = np.sum(
        w_block * mu.reshape(mu.shape + (1, 1)) * g.cell_volume, axis=axes
    )
    iwf = np.sum(
        np.einsum("...ij,...j->...i", w_block, f_block)
        * mu.reshape(mu.shape + (1,))
        * g.cell_volume,
        axis=axes,
    )
    try:
        return np.linalg.solve(iw, iwf)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD fields cannot trigger
        raise ValueError(f"singular weight integral over {cube.descriptor()}") from exc


def expectation_Et(f, t_level, weight):
    """Field version of the weighted average: constant on each level-t cube."""
    g = weight.grid
    if t_level < 0 or t_level > g.L:
        raise ValueError(f"level {t_level} outside [0, {g.L}]")
    out = weight.expectation_levels(f)[t_level]
    for _ in range(g.L - t_level):
        out = _refine(out, g.n)
    return out


def _refine(arr, n):
    for axis in range(n):
        arr = np.repeat(arr, 2, axis=axis)
    return arr


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
    mu = np.empty(cells)
    values = np.empty((cells, N, N))
    for i in range(cells):
        parts = raw[i + 1].split()
        if len(parts) != 1 + N * N:
            raise FieldFormatError(
                f"expected {1 + N * N} numbers, found {len(parts)}", i + 2
            )
        try:
            nums = np.array([float(p) for p in parts])
        except ValueError:
            raise FieldFormatError("unparsable number", i + 2) from None
        mu[i] = nums[0]
        values[i] = nums[1:].reshape(N, N)
    side = 2**L
    try:
        grid = Grid(n, L, mu.reshape((side,) * n))
        return WeightField(grid, values.reshape((side,) * n + (N, N)))
    except CellValueError as exc:
        raise FieldFormatError(str(exc), exc.index + 2) from None
