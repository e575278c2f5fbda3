"""Frozen copy of the per-distance Gagliardo assembly, kept as a reference.

This is the assembly ``fracch.operators.assemble_gagliardo`` used before it
moved to whole-array operations: one local block per element distance,
scattered into an all-nodes matrix for all n - d pairs at a time, and the
complement term added element by element.  The local formulas are the same
as the package's, evaluated one block at a time with scalar ``math``
functions, so only the order of summation and the rounding of the
elementary functions differ.  It is self-contained on purpose: do not
import the package's helpers here.
"""

from __future__ import annotations

import math

import numpy as np

GAUSS_ORDER = 5


def _power_integral(lo, hi, p):
    q = p + 1.0
    if lo == 0.0:
        if q <= 0.0:
            raise ValueError(f"divergent boundary integral: exponent {p} at lo=0")
        return hi**q / q
    r = math.log(hi / lo)
    if q == 0.0:
        return r
    return lo**q * math.expm1(q * r) / q


def _self_pair_integral(h, s):
    return 2.0 * h ** (3.0 - 2.0 * s) / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s))


def _touching_local(h, s):
    p0 = _power_integral(1.0, 2.0, -1.0 - 2.0 * s)
    p1 = _power_integral(1.0, 2.0, -2.0 * s)
    p2 = _power_integral(1.0, 2.0, 1.0 - 2.0 * s)
    k0, k1, k2 = p0, p1 - p0, p2 - 2.0 * p1 + p0
    scale = h ** (3.0 - 2.0 * s) / (3.0 - 2.0 * s)
    i20 = scale * (k0 + k2)
    i11 = scale * (2.0 * k1)
    i02 = i20
    ab = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]) / h
    local = np.empty((3, 3))
    for p in range(3):
        for q in range(3):
            a1, b1 = ab[p]
            a2, b2 = ab[q]
            local[p, q] = a1 * a2 * i20 + (a1 * b2 + b1 * a2) * i11 + b1 * b2 * i02
    return local


def _separated_local(h, s, d, pts, wts):
    shapes = (1.0 - pts, pts)
    kern = (h * (d + pts[None, :] - pts[:, None])) ** (-1.0 - 2.0 * s)
    scale = h * h
    row_mass = kern @ wts
    col_mass = wts @ kern
    local = np.empty((4, 4))
    for i in range(2):
        for j in range(2):
            local[i, j] = scale * np.dot(wts * shapes[i] * shapes[j], row_mass)
            local[2 + i, 2 + j] = scale * np.dot(wts * shapes[i] * shapes[j], col_mass)
            val = -scale * float((wts * shapes[i]) @ kern @ (wts * shapes[j]))
            local[i, 2 + j] = val
            local[2 + j, i] = val
    return local


def _left_exterior_local(h, s, k):
    lo, hi = k * h, (k + 1) * h
    lin = ((hi / h, -1.0 / h), (-lo / h, 1.0 / h))
    out = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            if k == 0 and 0 in (i, j):
                continue
            (c0i, c1i), (c0j, c1j) = lin[i], lin[j]
            coeffs = (c0i * c0j, c0i * c1j + c1i * c0j, c1i * c1j)
            out[i, j] = sum(
                c * _power_integral(lo, hi, order - 2.0 * s)
                for order, c in enumerate(coeffs) if c != 0.0
            ) / s
    return out


def per_distance_assembly(mesh, s, C_s):
    """Stiffness matrix by scattering one block per element distance."""
    n = mesh.n_elems
    h = mesh.h
    pts, wts = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    pts = 0.5 * (pts + 1.0)
    wts = 0.5 * wts

    same = np.array([[1.0, -1.0], [-1.0, 1.0]]) * (_self_pair_integral(h, s) / (h * h))
    blocks = [((0, 1), same), ((0, 1, 2), 2.0 * _touching_local(h, s))]
    blocks += [((0, 1, d, d + 1), 2.0 * _separated_local(h, s, d, pts, wts)) for d in range(2, n)]

    full = np.zeros((n + 1, n + 1))
    for d, (offsets, block) in enumerate(blocks):
        k = np.arange(n - d)
        for p, op in enumerate(offsets):
            for q, oq in enumerate(offsets):
                full[k + op, k + oq] += block[p, q]

    for k in range(n):
        left = _left_exterior_local(h, s, k)
        full[k:k + 2, k:k + 2] += left
        full[n - 1 - k:n + 1 - k, n - 1 - k:n + 1 - k] += left[::-1, ::-1]

    A = 0.5 * C_s * full[1:-1, 1:-1]
    return 0.5 * (A + A.T)
