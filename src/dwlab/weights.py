"""Class constants for matrix weights: reverse Hoelder, A-infinity and friends.

Each constant is a supremum over the sampled cube family of a per-cube ratio
built from averages of powers of the weight.  With ``S = (avg W^2)^{1/2}`` and
``V = avg W`` over a cube, the transfer matrix ``A = S V^{-1}`` has all
singular values >= 1, which pins the exact identities tested elsewhere:
the direction-sup constant equals ``|A|``, the squared variant equals
``|A|^2`` and ``|A| <= det A <= |A|^N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .grid import _BATCH_FLOATS, MOMENTS

__all__ = [
    "ClassReport",
    "class_report",
    "box_averages",
    "default_shifts",
    "family_scan",
    "FamilyScan",
    "CLASS_KEYS",
]


def default_shifts(grid):
    """Extra translated grids so that the total family has 3**n grids."""
    return 3**grid.n - 1


def _directions(n_dim, count, seed):
    """The signed basis vectors, then ``count`` random unit vectors drawn from
    one seeded stream, as a ``(2 * n_dim + count, n_dim)`` array."""
    extra = np.random.default_rng(seed).standard_normal((max(count, 0), n_dim))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.concatenate([np.eye(n_dim), -np.eye(n_dim), extra])


# The moments each per-box ratio reads past mu; ainf_i also reads the log-norm
# channels of the direction set.
_READS = {
    "b2_i": ("w", "w2"),
    "b2_ii": ("w", "w2"),
    "b2_iii": ("w", "w2"),
    "b2_iv": ("w", "w2"),
    "ainf_i": ("w", "winv"),
    "ainf_ii": ("w", "logdet"),
    "a2": ("w", "winv"),
    "thewest": ("w2", "logdet"),
}
RATIO_KEYS = tuple(_READS)
# The class report: the sups of the eight class ratios and the doubling constant.
CLASS_KEYS = ("b2_i", "b2_ii", "b2_iii", "b2_iv", "ainf_i", "ainf_ii", "a2", "thewest", "doubling")
# Arrays of (D, N) floats per box that the gather batch budget counts for the
# direction keys.  The kernel holds 1 + 2/N of them (see family_scan), but this
# count sets the gather batch rows, and so the band widths and the bits.
_STACKS = 4
# Every sup a family scan can return.
_SCAN_KEYS = frozenset(RATIO_KEYS) | {"doubling"}
# Keys that read the direction set: ainf_i, and b2_sampled, the self-check of b2.
_SAMPLED = {"b2_i", "b2_ii", "ainf_i"}


def _moments(keys):
    """The moments the ratios named in ``keys`` read past mu, in channel order."""
    return sorted({m for k in keys for m in _READS[k]}, key=MOMENTS.index)


def _b2_sampled(avg, directions):
    """Sampled lower bound for the direction-sup form of the reverse Hoelder
    constant: per cube, the max over the rows d of ``directions`` of
    |S d| / |W_Q d|, with |S d|^2 = d^T (W^2)_Q d and |W_Q d|^2 = d^T W_Q^T W_Q d.

    Each quadratic form reads the N*N entries of its matrix against the
    C-contiguous (N*N, D) table of the products d_i d_j, one (B, N*N) @ (N*N, D)
    product per moment, so no (B, N, D) product is held and no BLAS call, even
    a threaded one, reads a transposed operand.
    """
    table = directions[:, :, None] * directions[:, None, :]
    products = np.ascontiguousarray(table.reshape(len(directions), -1).T)
    w = avg["w"]
    ratio, norms = (m.reshape(len(m), -1) @ products for m in (avg["w2"], w.transpose(0, 2, 1) @ w))
    ratio /= norms
    return np.sqrt(np.max(ratio, axis=-1))


def ratio_kernel(avg, keys, directions=None):
    """The per-cube ratios named in ``keys`` from ``avg``, which maps each moment
    the keys read to its stack of averages, one row per cube, and for a sampled
    ainf_i holds under ``lognorm`` the averages of log|W^{-1/2} d| over the rows
    d of ``directions``.

    Keys: b2_i, b2_ii, b2_iii, b2_iv, ainf_ii, a2 and thewest.  Given a
    ``(D, N)`` array of unit directions, b2_i or b2_ii also give b2_sampled (a
    sampled lower bound for b2_i), and ainf_i gives ainf_i (sampled over the
    same directions) and ainf_i_jensen (its upper bound from the moments alone).

    One ``eigh`` of W_Q gives W_Q^{-1} and the Jensen root.  One ``eigvalsh``
    takes the symmetrised W_Q^{-1} (W^2)_Q W_Q^{-1} and the Jensen stack.
    b2_iii is the top eigenvalue of the first, and b2_i = b2_ii is its square
    root: |(W^2)_Q^{1/2} W_Q^{-1}|^2 is that eigenvalue.  Every determinant
    comes from one ``np.linalg.det`` call over the concatenated stacks, whose
    LU factors each matrix on its own, so each ratio has the same bits
    whatever keys share its scan.
    """
    keys = set(keys)
    sampled = directions is not None
    b2_keys = {"b2_i", "b2_ii", "b2_iii"}
    eigen_keys = b2_keys | {"ainf_i"}

    if keys & eigen_keys:
        ew, vv = np.linalg.eigh(avg["w"])
        inv_w = (vv / ew[:, None, :]) @ vv.transpose(0, 2, 1)
    stack = []
    if keys & b2_keys:
        item_iii = inv_w @ avg["w2"] @ inv_w
        stack.append((item_iii + item_iii.transpose(0, 2, 1)) / 2.0)
    if "ainf_i" in keys and sampled:
        # By Jensen, exp(avg log|W^{-1/2} e|) <= (e^T (W^-1)_Q e)^{1/2}, so ainf_i is
        # at most the square root of the top eigenvalue of W_Q^{1/2} (W^-1)_Q W_Q^{1/2}.
        sqrt_w = (vv * np.sqrt(ew)[:, None, :]) @ vv.transpose(0, 2, 1)
        jensen = sqrt_w @ avg["winv"] @ sqrt_w
        stack.append((jensen + jensen.transpose(0, 2, 1)) / 2.0)
    if stack:
        eig = np.linalg.eigvalsh(np.concatenate(stack)).reshape(len(stack), -1, avg["w"].shape[-1])

    # The determinant keys read the determinant of each power of W they read.
    need = {m for k in keys - eigen_keys for m in _READS[k]}
    lu = [m for m in MOMENTS if m in need and m != "logdet"]
    if lu:
        det = dict(zip(lu, np.linalg.det(np.concatenate([avg[m] for m in lu])).reshape(len(lu), -1)))

    out = {}
    if keys & {"b2_i", "b2_ii"}:
        out["b2_i"] = out["b2_ii"] = np.sqrt(eig[0, :, -1])
        if sampled:
            # Read from the averages alone, it checks the eigh, the inverse and
            # the eigvalsh above from outside them.
            out["b2_sampled"] = _b2_sampled(avg, directions)
    if "b2_iii" in keys:
        out["b2_iii"] = np.max(np.abs(eig[0]), axis=-1)
    if "b2_iv" in keys:
        out["b2_iv"] = np.sqrt(det["w2"]) / det["w"]
    if "ainf_ii" in keys:
        out["ainf_ii"] = det["w"] / np.exp(avg["logdet"])
    if "a2" in keys:
        out["a2"] = det["w"] * det["winv"]
    if "thewest" in keys:
        out["thewest"] = det["w2"] / np.exp(2.0 * avg["logdet"])
    if "ainf_i" in keys and sampled:
        # |W_Q^{-1/2} d|^2 = d^T W_Q^{-1} d, summed over the contiguous last axis
        # of a (B, D, N) product.  numpy sums fewer than 8 terms of that axis in
        # turn, which explicit adds repeat without its short-axis reduce, and
        # pairwise from 8 terms on, which only np.sum repeats: ainf_i keeps the
        # bits of that sum at every N.
        prod = directions @ inv_w
        prod *= directions
        if prod.shape[-1] < 8:
            sq = prod[..., 0].copy()
            for i in range(1, prod.shape[-1]):
                sq += prod[..., i]
        else:
            sq = np.sum(prod, axis=-1)
        del prod
        ratio = np.exp(avg["lognorm"])
        ratio /= np.sqrt(sq, out=sq)
        out["ainf_i"] = np.max(ratio, axis=-1)
        out["ainf_i_jensen"] = np.sqrt(eig[len(stack) - 1, :, -1])
    return out


def box_averages(field, batch, moments, directions=None):
    """The stacks of averages ``ratio_kernel`` reads over the boxes of a
    ``BoxBatch``: of the named ``moments`` and, given ``directions``, of the
    log-norms log|W^{-1/2} d| of its rows under ``lognorm``."""
    N, g = field.N, field.grid
    sums = g.box_sums(field.moment_masses(moments), batch)
    mu_q = sums[:, 0]
    avg, at = {}, 1
    for m in moments:
        width = 1 if m == "logdet" else N * N
        part = sums[:, at : at + width] / mu_q[:, None]
        avg[m] = part[:, 0] if m == "logdet" else part.reshape(-1, N, N)
        at += width
    if directions is not None:
        avg["lognorm"] = g.box_sums(field.log_norm_masses(directions), batch)
        avg["lognorm"] /= mu_q[:, None]
    return avg


class FamilyScan(NamedTuple):
    """Sups over the translated family, the first box attaining each ratio sup
    and the number of boxes at levels 0..L."""

    sups: dict
    worst: dict
    count: int


def family_scan(field, keys, shifts=None, directions=64, seed=0):
    """One pass over the translated family that returns the sups named in
    ``keys`` and gathers only what they read: ``doubling`` and the per-box
    ratios of ``ratio_kernel``.

    ``doubling`` is the sup of mu(2Q)/mu(Q), with 2Q clipped to [0,1)^n, over
    levels 0..L+1; the ratios run over levels 0..L.  b2_i, b2_ii and ainf_i read
    one direction set: the signed basis, then ``directions`` draws seeded with
    ``seed``, and they assert their sampled bounds on every box.  The result is
    memoised on the field, whose values and density are read-only.

    The averages of each gather batch wait in a chunk, and the kernel runs once
    per chunk: the chunk is run before the next batch would take its boxes
    times the kernel's floats per box past ``grid._BATCH_FLOATS``.  Kernel rows
    are independent of each other, so the chunks set no bits.
    """
    g = field.grid
    keys = frozenset(keys)
    unknown = keys - _SCAN_KEYS
    if unknown:
        raise ValueError(f"unknown scan keys {sorted(unknown)}")
    if shifts is None:
        shifts = default_shifts(g)
    ratios = [k for k in RATIO_KEYS if k in keys]
    sampled = not _SAMPLED.isdisjoint(ratios)
    memo = (keys, shifts) + ((directions, seed) if sampled else ())
    if memo in field._scans:
        return field._scans[memo]
    dirs = _directions(field.N, directions, seed) if sampled else None

    # Floats held per box: the largest of the gathers made one after another
    # (mu with the moments the ratios read, the direction channels of ainf_i,
    # mu(Q) and mu(2Q) of doubling), plus the (D, N) direction stacks.
    moments = _moments(ratios)
    moment_width = 1 + sum(1 if m == "logdet" else field.N**2 for m in moments) if ratios else 0
    D = len(dirs) if sampled else 0
    log_dirs, log_width = (dirs, D) if "ainf_i" in ratios else (None, 0)
    doubling = "doubling" in keys
    levels = range(g.L + 2 if doubling else g.L + 1)

    def box_floats(k, cells, doubled):
        held = max(cells, doubled) if doubling else 1
        if k > g.L:
            return held
        return max(held, moment_width * cells, log_width * cells) + _STACKS * D * field.N

    # Floats the kernel holds per box: the averages it reads, and the direction
    # stacks, 1 + 2/N arrays of (D, N) measured with tracemalloc.
    kernel_floats = moment_width - 1 + log_width + (field.N + 2) * D
    sups, argmax, count = {}, {}, 0
    chunk, pending = [], 0  # (batch, its averages) and their boxes, waiting for one kernel call

    def run_chunk():
        batches = [batch for batch, _ in chunk]
        avg = {m: np.concatenate([a[m] for _, a in chunk]) for m in chunk[0][1]}
        chunk.clear()  # the batches' copies go before the kernel allocates
        r = ratio_kernel(avg, ratios, dirs)
        starts = np.cumsum([0] + [len(batch) for batch in batches])

        def box(i):
            j = int(np.searchsorted(starts, i, side="right")) - 1
            return batches[j], i - int(starts[j])

        for key, bound, what in (
            ("b2_sampled", "b2_ii", "sampled direction ratio exceeded the operator norm"),
            ("ainf_i", "ainf_i_jensen", "ainf_i exceeded its Jensen bound"),
        ):
            if key not in r:
                continue
            over = r[key] > r[bound] * (1.0 + 1e-9)
            if over.any():
                batch, i = box(int(np.argmax(over)))
                raise AssertionError(f"{what} on {batch.descriptor(i)}")
        for key in ratios:
            values = r[key]
            i = int(np.argmax(values))
            # The chunk's first maximum is the first box to attain the sup.  A
            # NaN stops the scan's sup wherever it falls in a batch's argmax, so
            # a chunk holding one is taken batch by batch.
            spans = zip(starts[:-1], starts[1:]) if np.isnan(values[i]) else [(0, len(values))]
            for lo, hi in spans:
                i = int(lo + np.argmax(values[lo:hi]))
                val = float(values[i])
                if key not in sups or val > sups[key]:
                    sups[key] = val
                    argmax[key] = box(i)

    for batch in g.box_batches(shifts, levels, box_floats):
        if doubling:
            # mu(Q) is its own bare gather: einsum sums a lone channel in
            # another order than a channel of a stack.
            mass, mass2 = (g.box_sums(g.cell_masses, batch, doubled) for doubled in (False, True))
            sups["doubling"] = max(sups.get("doubling", 0.0), float(np.max(mass2 / mass)))
        if batch.level > g.L:
            continue
        count += len(batch)
        if not ratios:
            continue
        if chunk and (pending + len(batch)) * kernel_floats > _BATCH_FLOATS:
            run_chunk()
            pending = 0
        chunk.append((batch, box_averages(field, batch, moments, log_dirs)))
        pending += len(batch)
    if chunk:
        run_chunk()
    worst = {key: batch.descriptor(i) for key, (batch, i) in argmax.items()}
    field._scans[memo] = FamilyScan(sups, worst, count)
    return field._scans[memo]


@dataclass
class ClassReport:
    b2_i: float
    b2_ii: float
    b2_iii: float
    b2_iv: float
    ainf_i: float
    ainf_ii: float
    a2: float
    thewest: float
    doubling: float
    cube_count: int
    worst_cubes: dict = dc_field(default_factory=dict)

    def as_dict(self):
        return {
            "b2_i": self.b2_i,
            "b2_ii": self.b2_ii,
            "b2_iii": self.b2_iii,
            "b2_iv": self.b2_iv,
            "ainf_i": self.ainf_i,
            "ainf_ii": self.ainf_ii,
            "a2": self.a2,
            "thewest": self.thewest,
            "doubling": self.doubling,
            "worst_cubes": dict(self.worst_cubes),
        }


def class_report(field, shifts=None, directions=64, seed=0):
    """Every class constant and the doubling constant, from one family scan."""
    sups, worst, count = family_scan(field, CLASS_KEYS, shifts, directions, seed)
    return ClassReport(**sups, cube_count=count, worst_cubes=dict(worst))
