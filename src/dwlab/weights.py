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

import numpy as np

from .grid import WeightField

__all__ = [
    "ClassReport",
    "class_report",
    "b2_constants",
    "thewest_constant",
    "det_chain_check",
    "scalar_ainfty_report",
    "ScalarAinftyReport",
    "corollary_relations",
    "CorollaryReport",
    "box_ratios",
    "cube_ratios",
    "default_shifts",
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


def box_ratios(field, batch, directions=None):
    """All per-box class ratios of a ``BoxBatch``, as arrays over its boxes.

    Keys: b2_i, b2_ii, b2_iii, b2_iv, ainf_ii, a2, thewest, chain (the five-term
    determinant chain); given a ``(D, N)`` array of unit directions also
    b2_sampled (a sampled lower bound for b2_i), ainf_i (sampled over the same
    directions) and ainf_i_jensen (its upper bound from the moments alone).
    """
    N = field.N
    g = field.grid
    index, bands = g.box_cells(batch)
    sums = g.box_integrals(field.moment_masses()[index], bands)
    mu_q = sums[:, 0]
    avgs = sums[:, 1:] / mu_q[:, None]
    avg_w, avg_w2, avg_winv, avg_winv2 = np.moveaxis(avgs[:, :-1].reshape(-1, 4, N, N), 1, 0)
    avg_logdet = avgs[:, -1]
    boxes = len(mu_q)
    ew, vv = np.linalg.eigh(np.concatenate([avg_w, avg_w2]))
    ew, ew2, vv, vv2 = ew[:boxes], ew[boxes:], vv[:boxes], vv[boxes:]
    det_w = np.prod(ew, axis=-1)
    inv_w = (vv / ew[:, None, :]) @ vv.transpose(0, 2, 1)
    det_w2 = np.prod(ew2, axis=-1)
    sqrt_w2 = (vv2 * np.sqrt(ew2)[:, None, :]) @ vv2.transpose(0, 2, 1)

    b2_ii = np.linalg.svd(sqrt_w2 @ inv_w, compute_uv=False)[:, 0]
    item_iii = inv_w @ avg_w2 @ inv_w
    sym_iii = (item_iii + item_iii.transpose(0, 2, 1)) / 2.0
    stack = [sym_iii, avg_winv, avg_winv2]
    if directions is not None:
        # By Jensen, exp(avg log|W^{-1/2} e|) <= (e^T (W^-1)_Q e)^{1/2}, so ainf_i is
        # at most the square root of the top eigenvalue of W_Q^{1/2} (W^-1)_Q W_Q^{1/2}.
        sqrt_w = (vv * np.sqrt(ew)[:, None, :]) @ vv.transpose(0, 2, 1)
        jensen = sqrt_w @ avg_winv @ sqrt_w
        stack.append((jensen + jensen.transpose(0, 2, 1)) / 2.0)
    eig = np.linalg.eigvalsh(np.concatenate(stack))
    b2_iii = np.max(np.abs(eig[:boxes]), axis=-1)
    det_winv = np.prod(eig[boxes : 2 * boxes], axis=-1)
    det_winv2 = np.prod(eig[2 * boxes : 3 * boxes], axis=-1)
    exp_logdet = np.exp(avg_logdet)

    out = {
        "b2_i": b2_ii,
        "b2_ii": b2_ii,
        "b2_iii": b2_iii,
        "b2_iv": np.sqrt(det_w2) / det_w,
        "ainf_ii": det_w / exp_logdet,
        "a2": det_w * det_winv,
        "thewest": det_w2 / np.exp(2.0 * avg_logdet),
        "chain": (np.sqrt(det_w2), det_w, exp_logdet, 1.0 / det_winv, 1.0 / np.sqrt(det_winv2)),
    }

    if directions is not None:
        # Sampled lower bound for the direction-sup form of the reverse
        # Hoelder constant; the exact value is the operator norm above.
        num = np.linalg.norm(directions @ sqrt_w2.transpose(0, 2, 1), axis=-1)
        den = np.linalg.norm(directions @ avg_w.transpose(0, 2, 1), axis=-1)
        out["b2_sampled"] = np.max(num / den, axis=-1)
        # The log-norms of the directions are D more channels of the gather.
        avg_log = g.box_integrals(field.log_norm_masses(directions)[index], bands)
        avg_log /= mu_q[:, None]
        den_i = np.sqrt(np.sum((directions @ inv_w) * directions, axis=-1))
        out["ainf_i"] = np.max(np.exp(avg_log) / den_i, axis=-1)
        out["ainf_i_jensen"] = np.sqrt(eig[3 * boxes :, -1])
    return out


def cube_ratios(field, cube):
    """``box_ratios`` of one dyadic cube, as floats."""
    r = box_ratios(field, field.grid.cube_box(cube))
    r["chain"] = tuple(float(v[0]) for v in r["chain"])
    return {k: v if k == "chain" else float(v[0]) for k, v in r.items()}


_SUP_KEYS = ("b2_i", "b2_ii", "b2_iii", "b2_iv", "ainf_i", "ainf_ii", "a2", "thewest")


def _family_scan(field, shifts=None, directions=64, seed=0):
    """Sups and worst boxes of the class ratios over the translated family.

    ``directions`` random draws are added to the signed basis; ``None`` scans
    without direction channels, so ``ainf_i`` and ``b2_sampled`` are absent.
    """
    g = field.grid
    if shifts is None:
        shifts = default_shifts(g)
    dirs = None if directions is None else _directions(field.N, directions, seed)
    sups = {}
    worst = {}
    count = 0
    for batch in g.box_batches(shifts):
        descs = batch.descriptors()
        ratios = box_ratios(field, batch, directions=dirs)
        count += len(descs)
        for key, bound, what in (
            ("b2_sampled", "b2_ii", "sampled direction ratio exceeded the operator norm"),
            ("ainf_i", "ainf_i_jensen", "ainf_i exceeded its Jensen bound"),
        ):
            if key not in ratios:
                continue
            over = ratios[key] > ratios[bound] * (1.0 + 1e-9)
            if over.any():
                raise AssertionError(f"{what} on {descs[np.argmax(over)]}")
        for key in _SUP_KEYS:
            if key not in ratios:
                continue
            i = int(np.argmax(ratios[key]))
            val = float(ratios[key][i])
            if key not in sups or val > sups[key]:
                sups[key] = val
                worst[key] = descs[i]
    return sups, worst, count


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
    sups, worst, count = _family_scan(field, shifts, directions, seed)
    doubling = field.grid.doubling_constant(
        shifts if shifts is not None else default_shifts(field.grid)
    )
    return ClassReport(
        b2_i=sups["b2_i"],
        b2_ii=sups["b2_ii"],
        b2_iii=sups["b2_iii"],
        b2_iv=sups["b2_iv"],
        ainf_i=sups["ainf_i"],
        ainf_ii=sups["ainf_ii"],
        a2=sups["a2"],
        thewest=sups["thewest"],
        doubling=doubling,
        cube_count=count,
        worst_cubes=worst,
    )


def b2_constants(field, shifts=None, directions=64, seed=0):
    sups, _, _ = _family_scan(field, shifts, directions, seed)
    return sups["b2_i"], sups["b2_ii"], sups["b2_iii"], sups["b2_iv"]


def thewest_constant(field, shifts=None):
    sups, _, _ = _family_scan(field, shifts, directions=None)
    return sups["thewest"]


def det_chain_check(field, cube, rel_tol=1e-9):
    """The five-term determinant chain for one cube, asserted monotone.

    Returns (det(avg W^2)^{1/2}, det(avg W), exp(avg ln det W),
    det(avg W^{-1})^{-1}, det(avg W^{-2})^{-1/2}), which must be nonincreasing.
    """
    chain = cube_ratios(field, cube)["chain"]
    for a, b in zip(chain, chain[1:]):
        if a < b - rel_tol * max(abs(a), abs(b), 1.0):
            raise AssertionError(f"determinant chain out of order: {chain}")
    return chain


@dataclass
class ScalarAinftyReport:
    a_p: dict
    ainf: float
    alpha_beta: list
    delta_fit: float
    delta_offset: float
    b_q: dict

    def as_dict(self):
        return {
            "a_p": {str(k): v for k, v in self.a_p.items()},
            "ainf": self.ainf,
            "alpha_beta": [list(x) for x in self.alpha_beta],
            "delta_fit": self.delta_fit,
            "delta_offset": self.delta_offset,
            "b_q": {str(k): v for k, v in self.b_q.items()},
        }


def scalar_ainfty_report(
    field,
    shifts=None,
    p_grid=(1.25, 1.5, 2.0, 3.0),
    q_grid=(1.25, 1.5, 2.0, 3.0),
    densities=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    draws=32,
    seed=0,
):
    """Scalar weight conditions: A_p-prime, A-infinity, subset absorption, B_q.

    The subset conditions are sampled on dyadic cubes only, using random
    unions of finest cells as the grid-measurable subsets.
    """
    if field.N != 1:
        raise ValueError("scalar report needs a 1x1 weight field")
    g = field.grid
    if shifts is None:
        shifts = default_shifts(g)
    w_cells = field.values[..., 0, 0]
    mu_cells = g.mu * g.cell_volume
    sigma_cells = w_cells * mu_cells

    a_p = {p: 0.0 for p in p_grid}
    b_q = {q: 0.0 for q in q_grid}
    ainf = 0.0
    powers = [np.ones_like(w_cells), w_cells, np.log(w_cells)]
    powers += [w_cells ** (-(p - 1.0)) for p in p_grid] + [w_cells**q for q in q_grid]
    masses = np.stack(powers, axis=-1) * mu_cells[..., None]
    for batch in g.box_batches(shifts):
        index, bands = g.box_cells(batch)
        sums = g.box_integrals(masses[index], bands)
        avgs = sums[:, 1:] / sums[:, :1]
        avg_w = avgs[:, 0]
        ainf = max(ainf, float(np.max(avg_w / np.exp(avgs[:, 1]))))
        for i, p in enumerate(p_grid):
            a_p[p] = max(a_p[p], float(np.max(avg_w * avgs[:, 2 + i] ** (1.0 / (p - 1.0)))))
        for i, q in enumerate(q_grid, start=2 + len(p_grid)):
            b_q[q] = max(b_q[q], float(np.max(avgs[:, i] ** (1.0 / q) / avg_w)))

    mu_ratios = []
    sigma_ratios = []
    rng = np.random.default_rng(seed)
    for cube in g.cubes():
        sl = cube.cell_slices(g.L)
        mu_block = mu_cells[sl].reshape(-1)
        sigma_block = sigma_cells[sl].reshape(-1)
        if mu_block.size < 2:
            continue
        mu_q = float(mu_block.sum())
        sigma_q = float(sigma_block.sum())
        for _ in range(draws):
            dens = rng.choice(densities)
            mask = rng.random(mu_block.size) < dens
            if not mask.any() or mask.all():
                continue
            mu_ratios.append(float(mu_block[mask].sum()) / mu_q)
            sigma_ratios.append(float(sigma_block[mask].sum()) / sigma_q)

    alpha_beta = []
    mu_arr = np.array(mu_ratios)
    sig_arr = np.array(sigma_ratios)
    for beta in densities:
        sel = mu_arr <= beta
        alpha = float(sig_arr[sel].max()) if sel.any() else 0.0
        alpha_beta.append((beta, alpha))
    xs = np.log(mu_arr)
    ys = np.log(sig_arr)
    design = np.stack([xs, np.ones_like(xs)], axis=1)
    (slope, offset), *_ = np.linalg.lstsq(design, ys, rcond=None)
    return ScalarAinftyReport(
        a_p=a_p,
        ainf=ainf,
        alpha_beta=alpha_beta,
        delta_fit=float(slope),
        delta_offset=float(offset),
        b_q=b_q,
    )


@dataclass
class CorollaryReport:
    identity_residual: float
    thewest: float
    b2_iv: float
    ainf_ii: float
    scalar_b2: list
    b2_ii: float
    scalar_ok: bool

    def as_dict(self):
        return {
            "identity_residual": self.identity_residual,
            "thewest": self.thewest,
            "b2_iv": self.b2_iv,
            "ainf_ii": self.ainf_ii,
            "scalar_b2": list(self.scalar_b2),
            "b2_ii": self.b2_ii,
            "scalar_ok": self.scalar_ok,
        }


def corollary_relations(field, shifts=None, directions=8, seed=0, rel_tol=1e-9):
    """Relations tying the squared-weight condition to the component classes.

    Per cube the identity ``thewest_ratio = (b2_iv_ratio * ainf_ii_ratio)^2``
    holds exactly; the report carries the worst relative residual.  For
    sampled directions ``a`` the scalar weight ``|W(x) a|`` satisfies the
    scalar reverse Hoelder bound with constant at most ``b2_ii``.
    """
    g = field.grid
    if shifts is None:
        shifts = default_shifts(g)
    worst_resid = 0.0
    sup_thewest = sup_b2iv = sup_ainfii = sup_b2ii = 1.0
    for batch in g.box_batches(shifts):
        r = box_ratios(field, batch)
        combined = (r["b2_iv"] * r["ainf_ii"]) ** 2
        resid = np.abs(r["thewest"] - combined) / np.maximum(r["thewest"], 1.0)
        worst_resid = max(worst_resid, float(resid.max()))
        sup_thewest = max(sup_thewest, float(r["thewest"].max()))
        sup_b2iv = max(sup_b2iv, float(r["b2_iv"].max()))
        sup_ainfii = max(sup_ainfii, float(r["ainf_ii"].max()))
        sup_b2ii = max(sup_b2ii, float(r["b2_ii"].max()))

    count = max(directions - 2 * field.N, 0)
    dirs = _directions(field.N, count, seed)
    scalar_vals = []
    for d in dirs:
        w_a = np.linalg.norm(
            np.einsum("...ij,j->...i", field.values, d), axis=-1
        )
        scalar = WeightField(g, w_a.reshape(w_a.shape + (1, 1)))
        _, s_b2, _, _ = b2_constants(scalar, shifts=shifts, directions=None)
        scalar_vals.append(s_b2)
    scalar_ok = all(v <= sup_b2ii * (1.0 + rel_tol) + rel_tol for v in scalar_vals)
    return CorollaryReport(
        identity_residual=worst_resid,
        thewest=sup_thewest,
        b2_iv=sup_b2iv,
        ainf_ii=sup_ainfii,
        scalar_b2=scalar_vals,
        b2_ii=sup_b2ii,
        scalar_ok=scalar_ok,
    )
