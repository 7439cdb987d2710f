"""Independent reference values for the forward and spectrum checks.

The T-side fundamental solutions Z1, Z2 of -y'' + q y = lambda y, with
Z1(T) = Z2'(T) = 1 and Z1'(T) = Z2(T) = 0, are integrated from T down to 0
by scipy's DOP853 at rtol 1e-12.  Every atom, point form and density edge
is a segment end, so those values are exact integrator states, and each
density integral rides along as an extra state J' = d(x) y, together with
its size without cancellation, K' = |d(x) y|.  The potential
and the forms come from the benchmark's own plain descriptions, never from
the library's objects, so no code is shared with the program under test.

`self_test` compares the oracle with the closed forms for q = 0 before any
check uses it, so a broken oracle cannot pass a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12


class OracleError(RuntimeError):
    """The oracle disagrees with a closed form; its checks cannot be trusted."""


@dataclass(frozen=True)
class FormData:
    """A boundary form: jump * y(0) + sum w y(t) + int d y, or a point value.

    density holds linear pieces (lo, hi, v_lo, v_hi); point is (x0, order)
    for a point form, in which case the measure fields are unused.
    """

    jump: complex = 0j
    atoms: tuple = ()
    density: tuple = ()
    point: tuple | None = None


def _breakpoints(T: float, forms) -> list[float]:
    pts = {0.0, T}
    for f in forms:
        if f.point is not None:
            pts.add(float(f.point[0]))
        pts.update(float(t) for t, _ in f.atoms)
        for lo, hi, _, _ in f.density:
            pts.update((float(lo), float(hi)))
    return sorted(pts, reverse=True)


def _density_line(f: FormData, a: float, b: float):
    """(slope, intercept) of f's density on the segment between a and b."""
    mid = 0.5 * (a + b)
    for lo, hi, vlo, vhi in f.density:
        if lo <= mid <= hi:
            slope = (vhi - vlo) / (hi - lo)
            return complex(slope), complex(vlo - slope * lo)
    return 0j, 0j


def z_form_values(coeffs, T: float, lam: complex, forms):
    """Per form: (U(Z1), U(Z2), scale of U(Z1), scale of U(Z2)) at one lambda.

    q(x) = sum_k coeffs[k] cos(k pi x / T).  A scale is the largest
    magnitude among the form's terms applied to that solution alone: the
    jump and atom terms, and int |d y| for the density, which is what a
    quadrature error is relative to when the integrand oscillates.  Z2 is
    about |rho| times smaller than Z1, so each part keeps its own scale.
    """
    c = np.asarray(coeffs, dtype=complex)
    k = np.arange(len(c)) * (math.pi / T)
    lam = complex(lam)
    dens = [f for f in forms if f.density]
    n_dens = len(dens)

    state = np.zeros(4 + 4 * n_dens, dtype=complex)
    state[0] = 1.0  # Z1
    state[3] = 1.0  # Z2'
    at = {T: state[:4].copy()}
    xs = _breakpoints(T, forms)
    for a, b in zip(xs[:-1], xs[1:]):
        lines = [_density_line(f, a, b) for f in dens]

        def rhs(x, s, lines=lines):
            qx = np.dot(c, np.cos(k * x)) - lam
            out = np.empty_like(s)
            out[0] = s[1]
            out[1] = qx * s[0]
            out[2] = s[3]
            out[3] = qx * s[2]
            for j, (m, b0) in enumerate(lines):
                d = m * x + b0
                out[4 + 4 * j] = d * s[0]
                out[5 + 4 * j] = d * s[2]
                out[6 + 4 * j] = abs(d * s[0])
                out[7 + 4 * j] = abs(d * s[2])
            return out

        atol = 1e-14 * max(1.0, float(np.abs(state).max()))
        sol = solve_ivp(rhs, (a, b), state, method="DOP853", rtol=RTOL, atol=atol)
        if not sol.success:
            raise OracleError(f"reference integration failed on [{b}, {a}]: {sol.message}")
        state = sol.y[:, -1]
        at[b] = state[:4].copy()

    def nearest(x):
        return at[min(at, key=lambda key: abs(key - x))]

    out = []
    j = 0
    for f in forms:
        if f.point is not None:
            x0, order = f.point
            v = nearest(float(x0))
            u = v[[0, 2]] if order == 0 else v[[1, 3]]
            out.append((complex(u[0]), complex(u[1]), float(abs(u[0])), float(abs(u[1]))))
            continue
        terms = [f.jump * at[0.0][[0, 2]]]
        terms += [w * nearest(float(t))[[0, 2]] for t, w in f.atoms]
        sizes = [np.abs(t) for t in terms]
        if f.density:
            # the integrals ran from T down to 0, so they carry the opposite sign
            terms.append(-state[4 + 4 * j : 6 + 4 * j])
            sizes.append(np.abs(state[6 + 4 * j : 8 + 4 * j]))
            j += 1
        total = np.sum(terms, axis=0)
        scale = np.max(sizes, axis=0)
        out.append((complex(total[0]), complex(total[1]), float(scale[0]), float(scale[1])))
    return out


def characteristic_values(coeffs, T: float, lam: complex, form1: FormData, form2: FormData):
    """omega, delta1, delta2, delta11 at one lambda with their error scales.

    Returns {name: (value, scale)}.  omega = U1(Z1) U2(Z2) - U1(Z2) U2(Z1);
    its scale is the size of the two products, which is what limits the
    accuracy of any 2x2 determinant in floating point.
    """
    (u11, u12, s11, s12), (u21, u22, _, s22) = z_form_values(coeffs, T, lam, (form1, form2))
    return {
        "omega": (u11 * u22 - u12 * u21, abs(u11 * u22) + abs(u12 * u21)),
        "delta1": (-u12, s12),
        "delta2": (-u22, s22),
        "delta11": (u11, s11),
    }


def _rho(lam: complex) -> complex:
    r = np.sqrt(complex(lam))
    return r if (r.imag > 0 or (r.imag == 0 and r.real >= 0)) else -r


def self_test() -> None:
    """Check the oracle against the closed forms for q = 0; raise OracleError on a miss.

    For q = 0, Z1(x) = cos(rho (x - T)) and Z2(x) = sin(rho (x - T)) / rho,
    so Z1(0) = cos(rho T), Z2(0) = -sin(rho T) / rho, and a constant density
    d over [0, T] gives int Z1 = d sin(rho T) / rho and
    int Z2 = d (cos(rho T) - 1) / rho^2.
    """
    T = math.pi
    t_atom, w_atom, d_const = 1.3, 0.7 - 0.2j, 0.45 + 0.1j
    at_zero = FormData(point=(0.0, 0))
    atom_and_density = FormData(atoms=((t_atom, w_atom),), density=((0.0, T, d_const, d_const),))
    worst = 0.0
    for lam in (3.7 + 0.4j, -50.0 + 10.0j, 190.0 - 30.0j):
        rho = _rho(lam)
        (z1, z2, _, _), (a1, a2, _, _) = z_form_values([0.0], T, lam, (at_zero, atom_and_density))
        exact = {
            "Z1(0)": (z1, np.cos(rho * T)),
            "Z2(0)": (z2, -np.sin(rho * T) / rho),
            "U(Z1)": (a1, w_atom * np.cos(rho * (t_atom - T)) + d_const * np.sin(rho * T) / rho),
            "U(Z2)": (
                a2,
                w_atom * np.sin(rho * (t_atom - T)) / rho
                + d_const * (np.cos(rho * T) - 1.0) / rho**2,
            ),
        }
        for name, (got, want) in exact.items():
            err = abs(got - want) / abs(want)
            worst = max(worst, err)
            if not err <= 1e-9:
                raise OracleError(
                    f"oracle {name} at lambda={lam} is off by {err:.2e} relative to the closed form"
                )
