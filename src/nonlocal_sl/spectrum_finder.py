"""Zero location for entire characteristic functions in lambda rectangles.

Counting uses the argument principle on the rectangle boundary: the winding
number accumulates phase increments of sampled values, with offending
segments refined until every increment is below pi/2, which makes the count
unambiguous.  A logarithmic-derivative quadrature (derivative by central
differences over the same samples) cross-checks the integer; its residue must
stay below 0.1.  Boxes whose boundary passes too close to a zero are inflated
by 1% steps and retried.

A box with w zeros is seeded from the moments s_k = (1/2 pi i) oint z^k dlog f
of the contour it was counted on: the eigenvalues of the Hankel pencil
(s_{i+j+1}, s_{i+j}) are its zeros (Delves & Lyness 1967; Kravanja & Van
Barel 2000).  The moments are integrated by parts against the branch of
log f that the count tracks along the contour, by a sixth-order rule on the
counting samples themselves (on each sample interval, the quintic through
the six samples of its edge around it): seeding evaluates nothing beyond the
count, and a refined stretch is integrated at its own spacing.  All seeds
are polished in one batched damped Newton (below).  A box whose seeds or
roots leave it, come close together or miss the residual bound is bisected
instead (long-side splits, retried at shifted fractions until the counts add
up) and polished in a next round.  Single zeros and clusters that no cut
separates are polished from the first moment with their multiplicity.
problem_spectrum runs a contour search on one grid, so no value depends on
the batch it is in.

The real-axis path, for a handle real on the real axis, interpolates
f(lo + t^2), entire in t, at Chebyshev points on t in [0, sqrt(hi - lo)],
doubling the degree from 16 until the last three coefficients fall below
1e-9 of the largest, the scan grid's accuracy (Boyd 2002; Trefethen, ATAP,
chs. 8 and 18).  The proxy's real roots, from its colleague matrix, seed the
Newton polish.  Its roots are trusted inside the Bernstein ellipse that its
coefficients' decay implies; a trusted non-real root in the box, or a real
pair it cannot tell from a split double zero, sends the window to the
contour search (a partial certificate: a non-real zero beyond that ellipse
is not seen).  A window not resolved at degree 256 is searched as two halves.
Every stage names itself and the first lambda where a value is not finite.

`_batched_newton` is the package's one Newton for zeros in lambda; the
inversion refines its candidate eigenvalues with it too.  Each round
evaluates only the seeds still moving, at z and z + h with
h = _LAMBDA_STEP (1 + |z|), and takes f' as the forward difference: two
points per seed and round.  A seed stops on a small step or a small |f|
and keeps the |f| of its last round, so no point is evaluated twice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .characteristic import ProblemSpec, char_handle
from .errors import ContourError, InputError, _is_pair
from .ode_core import GridSpec, modulus_scale

_EDGE_SAMPLES = 64  # contour samples per edge of a box before refinement
_MAX_CONTOUR_POINTS = 20000
_MAX_REFINE = 9  # midpoint refinements of one contour before its count is given up
_MAX_DEPTH = 48  # bisection depth at which a box is no longer split
_DIP_FLOOR = 1e-3
_MAX_NUDGE = 5
_SPLIT_FRACTIONS = (0.5, 0.45, 0.55, 0.42, 0.58)
_SEED_GAP = 1e-2
_LAMBDA_STEP = 1e-6  # relative lambda step of the forward difference df/dlambda
_GAUSS_T = (1.0 + np.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])) / 2  # three-point Gauss on [0, 1]
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0
_SCAN_GRID = GridSpec(tol=1e-8)  # problem_spectrum counts on this grid
_FINE_GRID = GridSpec(tol=1e-10)  # and polishes on this one
_CHOP = 1e-9  # relative accuracy of the scan grid, at which a real-axis proxy is resolved
_MAX_DEGREE = 256  # a real-axis window not resolved at this degree is searched as two halves


@dataclass(frozen=True)
class SearchBox:
    """Closed lambda rectangle."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        vals = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(np.isfinite(v) for v in vals):
            raise InputError("box corners must be finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InputError("box must have positive width and height")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def center(self) -> complex:
        return complex((self.re_min + self.re_max) / 2, (self.im_min + self.im_max) / 2)

    @property
    def diag(self) -> float:
        return float(np.hypot(self.width, self.height))

    def inflated(self, factor: float) -> "SearchBox":
        c = self.center
        hw, hh = self.width * factor / 2, self.height * factor / 2
        return replace(self, re_min=c.real - hw, re_max=c.real + hw, im_min=c.imag - hh, im_max=c.imag + hh)

    def split(self, fraction: float):
        """Two children across the longer side at the given fraction."""
        if self.width >= self.height:
            cut = self.re_min + fraction * self.width
            return replace(self, re_max=cut), replace(self, re_min=cut)
        cut = self.im_min + fraction * self.height
        return replace(self, im_max=cut), replace(self, im_min=cut)

    def contains(self, z: complex) -> bool:
        return self.re_min <= z.real <= self.re_max and self.im_min <= z.imag <= self.im_max


def _read_box(ctx, d, path: str):
    """The SearchBox that {re: [low, high], im: [low, high]} at `path` describes, or None after any problem."""
    if not isinstance(d, dict):
        ctx.err(path, "expected an object with re and im ranges")
        return None
    ctx.strict(d, path, ("re", "im"))
    for key in ("re", "im"):
        if not _is_pair(d.get(key)):
            ctx.err(f"{path}.{key}", "expected [low, high]")
    return None if ctx.errors else ctx.build(path, SearchBox, *map(float, d["re"] + d["im"]))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities found inside a search box."""

    entries: tuple
    winding_total: int

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.asarray([e[0] for e in self.entries], dtype=complex)

    @property
    def multiplicities(self) -> np.ndarray:
        return np.asarray([e[1] for e in self.entries], dtype=int)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class _ContourResult(NamedTuple):
    winding: int
    points: np.ndarray
    values: np.ndarray
    arg_steps: np.ndarray
    box_used: SearchBox


def _corners(box: SearchBox) -> list:
    """The four corners, counterclockwise from the lower left."""
    lo, hi = complex(box.re_min, box.im_min), complex(box.re_max, box.im_max)
    return [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)]


def _contour_points(box: SearchBox) -> np.ndarray:
    """_EDGE_SAMPLES points per edge, counterclockwise from the lower left corner."""
    c = _corners(box)
    t = np.linspace(0.0, 1.0, _EDGE_SAMPLES, endpoint=False)
    return np.concatenate([a + t * (b - a) for a, b in zip(c, c[1:] + c[:1])])


def _eval(f: Callable, pts: np.ndarray, stage: str) -> np.ndarray:
    """f at pts; a ContourError names the stage and the first lambda where f is not finite."""
    vals = np.asarray(f(pts), dtype=complex)
    if vals.shape != pts.shape:
        raise InputError("handle must return one value per lambda")
    bad = ~np.isfinite(vals)
    if bad.any():
        lam = pts[np.argmax(bad)]
        raise ContourError(f"handle returned a non-finite value in the {stage} at lambda = {lam:.8g}")
    return vals


def _quadrature_winding(vals: np.ndarray) -> float:
    """(1/2 pi i) oint f'/f dz with f' by central differences, whose dz cancels that of the rule."""
    return float((np.sum((np.roll(vals, -1) - np.roll(vals, 1)) / (2.0 * vals)) / (2j * np.pi)).real)


def _winding(f: Callable, box: SearchBox) -> _ContourResult:
    for nudge in range(_MAX_NUDGE + 1):
        used = box if nudge == 0 else box.inflated(1.01**nudge)
        pts = _contour_points(used)
        vals = _eval(f, pts, "contour count")
        dipped = False
        for _ in range(_MAX_REFINE + 1):
            absv = np.abs(vals)
            med = float(np.median(absv))
            if med == 0.0 or absv.min() < _DIP_FLOOR * med:
                dipped = True
                break
            with np.errstate(invalid="ignore"):
                steps = np.angle(np.roll(vals, -1) / vals)
            bad = np.abs(steps) >= np.pi / 2
            if not bad.any():
                w = int(round(float(steps.sum() / (2 * np.pi))))
                if w < 0:
                    raise ContourError("negative winding: handle is not analytic inside the box")
                resid = abs(_quadrature_winding(vals) - w)
                if resid < 0.1:
                    return _ContourResult(w, pts, vals, steps, used)
                bad = np.ones(len(pts), dtype=bool)  # quadrature disagrees: refine everywhere
            if len(pts) >= _MAX_CONTOUR_POINTS:
                raise ContourError(
                    f"contour refinement exhausted at {len(pts)} samples on {used}"
                )
            idx = np.nonzero(bad)[0]
            mids = (pts[idx] + pts[(idx + 1) % len(pts)]) / 2.0
            mvals = _eval(f, mids, "contour count")
            pts = np.insert(pts, idx + 1, mids)
            vals = np.insert(vals, idx + 1, mvals)
        if not dipped:
            break
    raise ContourError("a zero stays too close to the contour after the allowed nudges")


def _contour_weights(u: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Weights of a sixth-order rule for oint g du from g at the closed polygon's samples u.

    `ends` holds the indices of the corners, with len(u) - 1 (the closing
    sample, u[-1] = u[0]) last.  Each sample interval of an edge takes the
    integral of the quintic through the six samples of that edge around it
    (shifted inward near the corners), by three-point Gauss on its Lagrange
    basis.  The samples need not be equispaced, so a refined stretch is
    integrated at its own spacing; each edge needs at least 5 intervals.
    """
    i = np.arange(len(u) - 1)
    e = np.searchsorted(ends, i, side="right") - 1
    idx = np.clip(i - 2, ends[e], ends[e + 1] - 5) + np.arange(6)[:, None]  # (6, interval)
    du = u[1:] - u[:-1]
    t = ((u[idx] - u[:-1]) / du).real  # each stencil in units of its interval, which is [0, 1]
    d = _GAUSS_T[:, None, None] - t  # (Gauss point, 6, interval)
    # Lagrange basis at the Gauss points: prod_j (tau - t_j) / ((tau - t_k) prod_{j != k} (t_k - t_j))
    bary = 1.0 / (t[:, None] - t + np.eye(6)[:, :, None]).prod(axis=1)
    vals = np.tensordot(_GAUSS_W, d.prod(axis=1)[:, None] / d, 1) * bary
    w = np.bincount(idx.ravel(), (vals * du.real).ravel(), len(u))
    return w + 1j * np.bincount(idx.ravel(), (vals * du.imag).ravel(), len(u))


def _moment_seeds(cr: _ContourResult, n: int | None = None) -> np.ndarray:
    """Eigenvalues of the n x n Hankel pencil of the contour moments (n = w by default).

    With u centred on the box and scaled by its half-diagonal, the moments
    s_p = (1/2 pi i) oint u^p dlog f are integrated by parts,

        s_p = w u_0^p - (p / 2 pi i) oint u^(p-1) l(u) du,

    where l is the branch of log f - log f(z_0) that is 0 at the contour's
    first point z_0 (u_0) and returns there as 2 pi i w: the cumulative sum
    of the phase increments over every sample, refinements included.  l is
    analytic along each edge, so the integral takes the sixth-order rule of
    `_contour_weights` on the samples.  n = w gives every enclosed zero;
    n = 1 gives the first moment, their mean.
    """
    from scipy.linalg import eigvals  # here, so importing the package does not load scipy

    n = cr.winding if n is None else n
    b, r = cr.box_used, cr.box_used.diag / 2.0
    u = (np.append(cr.points, cr.points[0]) - b.center) / r  # the last edge closes at z_0
    branch = np.concatenate([[0.0], np.cumsum(cr.arg_steps[:-1]), [2 * np.pi * cr.winding]])
    ell = np.append(np.log(np.abs(cr.values / cr.values[0])), 0.0) + 1j * branch
    ends = np.append(np.flatnonzero(np.isin(cr.points, _corners(b))), len(cr.points))
    p = np.arange(1, 2 * n)
    s = np.empty(2 * n, dtype=complex)
    s[0] = cr.winding
    s[1:] = cr.winding * u[0] ** p
    s[1:] -= p * ((u[None, :] ** (p - 1)[:, None]) @ (_contour_weights(u, ends) * ell)) / (2j * np.pi)
    hankel = np.add.outer(np.arange(n), np.arange(n))
    eig = eigvals(s[hankel + 1], s[hankel])
    return b.center + r * np.where(np.isfinite(eig), eig, np.nan)  # nan where the pencil is singular


def _certified(z: np.ndarray, box: SearchBox, gap) -> bool:
    """Points inside the box, every pair farther apart than gap."""
    d = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(len(z), np.inf))
    return all(box.contains(v) for v in z) and bool(np.all(d > gap))


def _split(f: Callable, b: SearchBox, cr: _ContourResult, depth: int, seeded: bool):
    """Two children whose counts add up to the box's, or None when every cut is pinned."""
    for frac in _SPLIT_FRACTIONS:
        c1, c2 = b.split(frac)
        try:
            r1 = _winding(f, c1)
            r2 = _winding(f, c2)
        except ContourError:
            continue  # a zero sits on this cut line; try the next fraction
        if r1.winding + r2.winding == cr.winding:
            return [(c1, r1, depth + 1, seeded), (c2, r2, depth + 1, seeded)]
    return None


def _batched_newton(f, seeds, mults, caps, rounds, step_tol, f_stop):
    """Damped Newton from every seed at once: (points, |f| at each seed's last evaluated point).

    A round evaluates only the seeds still active, at z and at z + h with
    h = _LAMBDA_STEP (1 + |z|), in one call f(lambda, seed index).  It steps
    by mults f / f', with f' the forward difference, clipped to each seed's
    cap.  A seed stops when its step is at most step_tol (1 + |z|) or when
    |f| <= f_stop(z); it returns the point after that last step, with |f| at
    the point before it, so no point is evaluated twice.  A non-finite step
    counts as none.  This needs f(lambda) not to depend on the batch lambda
    is in.
    """
    z = np.array(seeds, dtype=complex)
    m = np.broadcast_to(np.asarray(mults, dtype=float), z.shape)
    caps = np.broadcast_to(np.asarray(caps, dtype=float), z.shape)
    resid = np.full(z.shape, np.inf)
    active = np.arange(len(z))
    for _ in range(rounds):
        if not len(active):
            break
        za = z[active]
        h = _LAMBDA_STEP * (1.0 + np.abs(za))
        vals = np.asarray(f(np.concatenate([za, za + h]), np.tile(active, 2)), dtype=complex)
        v0 = vals[: len(za)]
        fp = (vals[len(za) :] - v0) / h
        with np.errstate(divide="ignore", invalid="ignore"):
            step = m[active] * v0 / fp
        step = np.where(np.isfinite(step), step, 0.0)
        step *= caps[active] / np.maximum(np.abs(step), caps[active])
        z[active] = za - step
        resid[active] = np.abs(v0)
        done = np.abs(step) <= step_tol * (1.0 + np.abs(z[active]))
        done |= resid[active] <= f_stop(za)
        active = active[~done]
    return z, resid


def find_spectrum(
    f: Callable,
    box: SearchBox,
    tol: float = 1e-8,
    *,
    source: str = "f",
    scale: Callable | None = None,
    f_polish: Callable | None = None,
    real_axis: bool = False,
) -> Spectrum:
    """All zeros of the handle inside the box, refined to |f| <= tol * scale.

    `f` is used for counting; `f_polish` (default: f) for refinement and the
    final residual check.  `scale(lambda)` sets the natural magnitude of the
    handle, defaulting to (1 + |lambda|)^(1/2).  On the contour route a box
    with w > 1 zeros is split only when its w moment seeds (sixth-order
    by-parts moments of its counting contour, see `_moment_seeds`) or their
    roots fail the certificate: inside the box, pairwise farther apart than a
    hundredth of its half-diagonal and the merge distance 10 tol (1 + |lambda|),
    residual bound met.  With real_axis, a handle real on the real axis is
    searched by its Chebyshev proxy first (module docstring), and the contour
    route runs only on a window the proxy cannot certify.  `f_polish` should
    not depend on the batch a lambda is in.
    """
    scale_fn = scale if scale is not None else (lambda z: (1.0 + np.abs(z)) ** 0.5)
    fp = f_polish if f_polish is not None else f
    polish = lambda lam, _: _eval(fp, lam, "Newton polish")
    f_stop = lambda z: 1e-3 * tol * np.asarray(scale_fn(z), dtype=float)
    if real_axis and (seeds := _proxy_seeds(f, box)) is not None:
        roots, resid = _batched_newton(polish, seeds, 1.0, 1e-3 * (1.0 + np.abs(seeds)), 12, 1e-13, f_stop)
        allowed = tol * np.asarray(scale_fn(roots), dtype=float)
        if np.any(resid > allowed):
            i = int(np.argmax(resid / allowed))
            raise ContourError(
                f"real-axis refinement stalled: |{source}({roots[i].real:.8g})| = "
                f"{resid[i]:.3e} exceeds {allowed[i]:.3e}"
            )
        roots = np.sort(roots.real)  # a zero on a halving cut is found by both halves, and kept once
        roots = roots[np.diff(roots, prepend=-np.inf) > 10.0 * tol * (1.0 + np.abs(roots))]
        return Spectrum(tuple((complex(r), 1) for r in roots), len(roots))

    root = _winding(f, box)
    floor = max(tol, 1e-10)
    found = []  # (root, multiplicity)
    pending = [(box, root, 0, True)]  # (box, contour, depth, seeded from moments)
    while pending:
        tasks, stack, pending = [], pending, []  # (box, contour, depth, seeds, multiplicity)
        while stack:
            b, cr, depth, seeded = stack.pop()
            if cr.winding == 0:
                continue
            if cr.winding > 1 and depth < _MAX_DEPTH and b.diag > floor * (1.0 + abs(b.center)):
                seeds = _moment_seeds(cr) if seeded else None
                if seeded and _certified(seeds, cr.box_used, _SEED_GAP * cr.box_used.diag / 2.0):
                    tasks.append((b, cr, depth, seeds, 1))
                    continue
                children = _split(f, b, cr, depth, seeded)
                if children:
                    stack.extend(children)
                    continue
            # one zero, or a cluster that no cut separates: one seed at their mean
            mean = _moment_seeds(cr, 1)
            tasks.append((b, cr, depth, np.where(np.isfinite(mean), mean, cr.box_used.center), cr.winding))
        if not tasks:
            break

        sizes = [len(t[3]) for t in tasks]
        mults = np.repeat([t[4] for t in tasks], sizes)
        diags = np.repeat([t[0].diag for t in tasks], sizes)
        seeds = np.concatenate([t[3] for t in tasks])
        roots, resid = _batched_newton(polish, seeds, mults, diags, 60, 1e-13, f_stop)
        allowed = tol * np.asarray(scale_fn(roots), dtype=float)
        lone = np.repeat(np.asarray(sizes) == 1, sizes)
        if np.any(lone & (resid > allowed)):
            i = int(np.argmax(np.where(lone, resid / allowed, -1.0)))
            raise ContourError(
                f"refinement stalled: |{source}({roots[i]:.8g})| = {resid[i]:.3e} "
                f"exceeds {allowed[i]:.3e}"
            )
        for (b, cr, depth, _, _), idx in zip(tasks, np.split(np.arange(len(roots)), np.cumsum(sizes)[:-1])):
            z = roots[idx]
            gap = np.maximum(_SEED_GAP * cr.box_used.diag / 2.0, 10.0 * tol * (1.0 + np.abs(z)))
            if len(z) > 1 and not (np.all(resid[idx] <= allowed[idx]) and _certified(z, cr.box_used, gap)):
                # bisected from here on; one seed at the mean next round if no cut holds
                pending.extend(_split(f, b, cr, depth, False) or [(b, cr, _MAX_DEPTH, False)])
            else:
                found.extend(zip(z, mults[idx]))

    merged: list[list] = []
    for r, m in sorted(found, key=lambda t: (t[0].real, t[0].imag)):
        if merged and abs(r - merged[-1][0]) <= 10.0 * tol * (1.0 + abs(r)):
            merged[-1][1] += m
        else:
            merged.append([complex(r), int(m)])
    entries = tuple((r, m) for r, m in merged)
    return Spectrum(entries=entries, winding_total=root.winding)


def _proxy_seeds(f: Callable, box: SearchBox):
    """Seeds for the real zeros of f in the box from a Chebyshev proxy, or None (module docstring).

    err is the sum of the coefficients past degree n at their mean decay, at
    least 1e-15 max|c|; roots r with B(r)^n < e^-3 max|c| / err are trusted.
    A trusted non-real root in the box fails the certificate, and so do two
    adjacent trusted real roots, one in the window, with the proxy within
    10 err of zero at their midpoint; while they do, the degree doubles on.
    """
    lo, tau = box.re_min, np.sqrt(box.width)
    lam = lambda x: lo + (tau * (1.0 + x) / 2.0) ** 2

    def values(x, stage):  # f at lam(x), which must be real
        v = _eval(f, lam(x) + 0j, stage)
        if np.any(np.abs(v.imag) > 1e-6 * (np.abs(v) + 1.0)):
            raise InputError("handle is not real-valued on the real axis")
        return v.real

    n = 16
    v = values(np.cos(np.pi * np.arange(n + 1) / n), "Chebyshev scan")
    while True:
        c = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / n  # DCT-I
        c[[0, -1]] /= 2.0
        big, tail = np.abs(c).max(), np.abs(c[-3:]).max()
        if tail <= _CHOP * big:
            q, floor = (tail / big) ** (1.0 / n), 1e-15 * big  # q: the mean decay per degree
            err = max(2.0 * tail * q / (1.0 - q), floor)  # the dropped coefficients' sum at that decay
            r = np.polynomial.chebyshev.chebroots(c)  # log B(r) = |log|r + sqrt(r^2 - 1)||
            trusted = n * np.abs(np.log(np.abs(r + np.sqrt(r * r - 1.0 + 0j)))) < np.log(big / err) - 3.0
            x = np.sort(r.real[(r.imag == 0) & trusted])
            near = np.abs(x) <= 1.0
            hump = np.abs(np.polynomial.chebyshev.chebval((x[1:] + x[:-1]) / 2.0, c))[near[1:] | near[:-1]]
            if np.all(hump >= 10.0 * err) or err == floor or n == _MAX_DEGREE:
                break
        elif n == _MAX_DEGREE:
            halves = [_proxy_seeds(f, replace(box, **{side: box.center.real})) for side in ("re_max", "re_min")]
            return None if any(h is None for h in halves) else np.concatenate(halves)
        new = values(np.cos(np.pi * np.arange(1, 2 * n, 2) / (2 * n)), "Chebyshev doubling")
        v = np.insert(v, np.arange(1, n + 1), new)
        n *= 2
    off = r[(r.imag != 0) & trusted & (r.real >= -1.0)]  # of t and -t, the preimage nearer the interval
    if any(box.contains(z) for z in lam(off)) or np.any(hump < 10.0 * err):
        return None
    return lam(x[near])


def problem_spectrum(
    spec: ProblemSpec, which: str, box: SearchBox, *, tol: float = 1e-8, real_axis: bool = False
) -> Spectrum:
    """Spectrum of one characteristic function of the problem inside the box.

    Counting runs on a grid tolerance of 1e-8 and refinement on 1e-10.  Each
    grid depends on the problem alone, so a value does not depend on its batch.
    """
    f_scan = char_handle(spec, which, _SCAN_GRID)
    f_fine = char_handle(spec, which, _FINE_GRID)
    return find_spectrum(
        f_scan,
        box,
        tol,
        source=which,
        scale=lambda z: modulus_scale(z, spec.T),
        f_polish=f_fine,
        real_axis=real_axis,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Disjointness report between two computed zero sets."""

    holds: bool
    min_gap: float
    witness: tuple | None
    n_first: int
    n_second: int
    separation_tol: float


def _disjointness(first: Spectrum, second: Spectrum, separation_tol: float) -> ConditionReport:
    za = first.eigenvalues
    zb = second.eigenvalues
    if len(za) == 0 or len(zb) == 0:
        return ConditionReport(True, float("inf"), None, len(za), len(zb), separation_tol)
    d = np.abs(za[:, None] - zb[None, :])
    i, j = np.unravel_index(int(np.argmin(d)), d.shape)
    gap = float(d[i, j])
    return ConditionReport(
        holds=gap > separation_tol,
        min_gap=gap,
        witness=(complex(za[i]), complex(zb[j])),
        n_first=len(za),
        n_second=len(zb),
        separation_tol=separation_tol,
    )


def condition_S(
    spec: ProblemSpec, box: SearchBox, separation_tol: float, *, real_axis: bool = False
) -> ConditionReport:
    """Whether the fully nonlocal spectrum avoids the zeros of delta_1 on the box.

    The same check with a two-point problem (forms y(0), y(a)) is the
    disjointness condition of the three-spectra setting, since there the
    zero sets are the Dirichlet spectra on (0, a) and (0, T).
    """
    xi = problem_spectrum(spec, "omega", box, real_axis=real_axis)
    l1 = problem_spectrum(spec, "delta1", box, real_axis=real_axis)
    return _disjointness(xi, l1, separation_tol)
