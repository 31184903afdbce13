"""Hot numeric kernels with a numba fast path and a pure-Python fallback.

Every function below is written in nopython-compatible scalar style and is
compiled with ``numba.njit`` unless the environment variable ``SEQMPC_NUMBA``
is set to ``0``/``false``/``off`` (or numba is not importable), in which case
the exact same Python code runs uncompiled.  Both paths execute the identical
sequence of IEEE-754 operations, so results are bit-for-bit reproducible
across the two modes.

The decoder (`sd_search`) and the enumeration cost (`sequence_cost`) share
the same left-to-right accumulation order on purpose: equal-cost candidates
must compare identically in the search and in the brute-force oracle.
"""

from __future__ import annotations

import math
import os

import numpy as np

SQRT23 = math.sqrt(2.0 / 3.0)
SQRT3_2 = math.sqrt(3.0) / 2.0
TWO_PI = 2.0 * math.pi


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")


_want_jit = _env_flag("SEQMPC_NUMBA", True)
if _want_jit:
    try:
        import numba
    except ImportError:  # pragma: no cover - exercised via env flag instead
        numba = None
        _want_jit = False

JIT_ENABLED = _want_jit


def jit_kernel(func):
    """Compile with numba when enabled, otherwise return the function as-is."""
    if JIT_ENABLED:
        return numba.njit(cache=True)(func)
    return func


# ---------------------------------------------------------------------------
# coordinate transforms (scalar form shared by plant and integrator)
# ---------------------------------------------------------------------------


@jit_kernel
def clarke3(a, b, c):
    alpha = SQRT23 * (a - 0.5 * b - 0.5 * c)
    beta = SQRT23 * (SQRT3_2 * (b - c))
    return alpha, beta


@jit_kernel
def clarke_pinv2(alpha, beta):
    a = SQRT23 * alpha
    b = SQRT23 * (-0.5 * alpha + SQRT3_2 * beta)
    c = SQRT23 * (-0.5 * alpha - SQRT3_2 * beta)
    return a, b, c


@jit_kernel
def park2(alpha, beta, theta):
    ct = math.cos(theta)
    st = math.sin(theta)
    d = ct * alpha + st * beta
    q = -st * alpha + ct * beta
    return d, q


@jit_kernel
def park_inv2(d, q, theta):
    ct = math.cos(theta)
    st = math.sin(theta)
    alpha = ct * d - st * q
    beta = st * d + ct * q
    return alpha, beta


# ---------------------------------------------------------------------------
# plant physics
# ---------------------------------------------------------------------------


@jit_kernel
def converter_voltage3(sa, sb, sc, v_dc, v_imb):
    # per-phase voltage of the three-level NPC bridge for one switch state
    g = (v_dc + v_imb) / 6.0
    ua = g * (2.0 * sa - sb - sc)
    ub = g * (2.0 * sb - sa - sc)
    uc = g * (2.0 * sc - sa - sb)
    return ua, ub, uc


@jit_kernel
def machine_deriv2(i_d, i_q, u_d, u_q, omega_e, r_s, l_s, psi_pm):
    di_d = (-r_s / l_s) * i_d + omega_e * i_q + u_d / l_s
    di_q = -omega_e * i_d + (-r_s / l_s) * i_q + u_q / l_s - (psi_pm / l_s) * omega_e
    return di_d, di_q


@jit_kernel
def grid_deriv2(i_a, i_b, u_a, u_b, e_a, e_b, r_n, l_n):
    di_a = (-r_n / l_n) * i_a + u_a / l_n - e_a / l_n
    di_b = (-r_n / l_n) * i_b + u_b / l_n - e_b / l_n
    return di_a, di_b


@jit_kernel
def dc_link_deriv2(sma, smb, smc, sna, snb, snc, ima, imb, imc, ina, inb, inc, c_dc):
    dv_dc = (sma * ima + smb * imb + smc * imc - (sna * ina + snb * inb + snc * inc)) / c_dc
    dv_imb = (
        abs(sma) * ima + abs(smb) * imb + abs(smc) * imc
        - (abs(sna) * ina + abs(snb) * inb + abs(snc) * inc)
    ) / c_dc
    return dv_dc, dv_imb


@jit_kernel
def grid_emf2(t, e_peak, omega_n):
    # balanced three-phase source mapped through the Clarke transform
    ph = omega_n * t
    ea = e_peak * math.cos(ph)
    eb = e_peak * math.cos(ph - TWO_PI / 3.0)
    ec = e_peak * math.cos(ph + TWO_PI / 3.0)
    return clarke3(ea, eb, ec)


@jit_kernel
def torque_of_iq(i_q, pole_pairs, psi_pm):
    return 1.5 * pole_pairs * psi_pm * i_q


@jit_kernel
def integrate_plant(
    i_md, i_mq, i_na, i_nb, v_dc, v_imb, omega_m, theta_e, t,
    s_ma, s_mb, s_mc, s_na, s_nb, s_nc,
    r_s, l_s, psi_pm, pole_pairs,
    r_n, l_n, e_peak, omega_n,
    c_dc, inertia, t_mech,
    dt, substeps,
):
    """Advance the full plant by `dt` with zero-order-hold switch states.

    Explicit Euler with `substeps` sub-intervals; each substep evaluates all
    derivatives at the current state before updating, except the electrical
    angle which integrates the freshly updated speed.
    """
    h = dt / substeps
    for _ in range(substeps):
        omega_e = pole_pairs * omega_m

        u_ma, u_mb, u_mc = converter_voltage3(s_ma, s_mb, s_mc, v_dc, v_imb)
        u_mal, u_mbe = clarke3(u_ma, u_mb, u_mc)
        u_md, u_mq = park2(u_mal, u_mbe, theta_e)

        u_na, u_nb, u_nc = converter_voltage3(s_na, s_nb, s_nc, v_dc, v_imb)
        u_nal, u_nbe = clarke3(u_na, u_nb, u_nc)
        e_al, e_be = grid_emf2(t, e_peak, omega_n)

        dmd, dmq = machine_deriv2(i_md, i_mq, u_md, u_mq, omega_e, r_s, l_s, psi_pm)
        dna, dnb = grid_deriv2(i_na, i_nb, u_nal, u_nbe, e_al, e_be, r_n, l_n)

        i_mal, i_mbe = park_inv2(i_md, i_mq, theta_e)
        ima, imb, imc = clarke_pinv2(i_mal, i_mbe)
        ina, inb, inc = clarke_pinv2(i_na, i_nb)
        dv_dc, dv_imb = dc_link_deriv2(
            s_ma, s_mb, s_mc, s_na, s_nb, s_nc, ima, imb, imc, ina, inb, inc, c_dc
        )

        t_e = torque_of_iq(i_mq, pole_pairs, psi_pm)
        domega = (t_mech - t_e) / inertia

        i_md = i_md + h * dmd
        i_mq = i_mq + h * dmq
        i_na = i_na + h * dna
        i_nb = i_nb + h * dnb
        v_dc = v_dc + h * dv_dc
        v_imb = v_imb + h * dv_imb
        omega_m = omega_m + h * domega
        theta_e = (theta_e + h * (pole_pairs * omega_m)) % TWO_PI
        t = t + h
    return i_md, i_mq, i_na, i_nb, v_dc, v_imb, omega_m, theta_e, t


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


@jit_kernel
def cholesky_lower(a, out, tol):
    """Lower Cholesky factor of `a` into `out`; returns failing pivot or -1.

    A pivot at or below `tol` counts as failure so that numerically singular
    Gram matrices are rejected instead of producing garbage factors.
    """
    n = a.shape[0]
    for i in range(n):
        for j in range(i + 1):
            s = a[i, j]
            for k in range(j):
                s -= out[i, k] * out[j, k]
            if i == j:
                if s <= tol:
                    return i
                out[i, i] = math.sqrt(s)
            else:
                out[i, j] = s / out[j, j]
    return -1


@jit_kernel
def sequence_cost(h, u_check, u):
    """Residual cost of one candidate sequence against the triangular form.

    Accumulates per-layer terms left to right, matching the decoder's
    incremental sum exactly so that cost ties compare bit-identically.
    """
    n = h.shape[0]
    total = 0.0
    for k in range(n):
        s = 0.0
        for j in range(k + 1):
            s += h[k, j] * u[j]
        r = u_check[k] - s
        total = total + r * r
    return total


@jit_kernel
def sequence_costs_batch(h, u_check, seqs, out):
    for i in range(seqs.shape[0]):
        out[i] = sequence_cost(h, u_check, seqs[i])


# ---------------------------------------------------------------------------
# depth-first k-best sphere decoder core
# ---------------------------------------------------------------------------


@jit_kernel
def _order_values(order_row, center):
    # visit {-1, 0, 1} in increasing distance from the conditional estimate;
    # ties resolved toward the smaller value (affects speed only)
    v0, v1, v2 = -1, 0, 1
    d0 = abs(-1.0 - center)
    d1 = abs(0.0 - center)
    d2 = abs(1.0 - center)
    if d1 < d0:
        v0, v1 = v1, v0
        d0, d1 = d1, d0
    if d2 < d1:
        v1, v2 = v2, v1
        d1, d2 = d2, d1
        if d1 < d0:
            v0, v1 = v1, v0
            d0, d1 = d1, d0
    order_row[0] = v0
    order_row[1] = v1
    order_row[2] = v2


@jit_kernel
def _lex_cmp(a, b):
    # -1, 0 or 1 as sequence `a` sorts before, equal to or after `b`
    for j in range(a.shape[0]):
        if a[j] != b[j]:
            return -1 if a[j] < b[j] else 1
    return 0


@jit_kernel
def sd_search(h, u_check, k, seed, have_seed, seed_cost, radius_sq, rho_trace):
    """Exact k-best branch-and-bound search over {-1,0,1}^n, in one pass.

    A list sphere decoder: walks layers 0..n-1 depth first, accumulating the
    incremental residual, and keeps the k best leaves ordered by (cost,
    lexicographic).  Until the list holds k leaves the radius is `radius_sq`;
    afterwards it is the k-th cost.  Pruning is strictly above the radius, so
    equal-cost leaves stay alive and ties resolve as in the enumeration
    oracle.  An optional seed leaf (with its `sequence_cost`) starts the
    list; the walk skips it when it meets it again.

    Returns (seqs, costs, count, nodes, n_trace): the first `count` rows of
    `seqs` and entries of `costs` are the list, `nodes` counts residual
    evaluations, and `rho_trace[:n_trace]` holds the radius after each change
    made while the list was full (writes stop when the buffer is full).
    """
    n = h.shape[0]
    seqs = np.zeros((k, n), np.int64)
    costs = np.full(k, np.inf)
    count = 0
    rho2 = radius_sq
    n_trace = 0
    if have_seed:
        for j in range(n):
            seqs[0, j] = seed[j]
        costs[0] = seed_cost
        count = 1
        if k == 1:
            if seed_cost < rho2:
                rho2 = seed_cost
            if rho_trace.shape[0] > 0:
                rho_trace[0] = rho2
                n_trace = 1

    u = np.zeros(n, np.int64)
    order = np.zeros((n, 3), np.int64)
    vidx = np.zeros(n, np.int64)
    pref = np.zeros(n + 1, np.float64)
    partial = np.zeros(n, np.float64)

    nodes = 0

    i = 0
    partial[0] = 0.0
    _order_values(order[0], u_check[0] / h[0, 0])
    vidx[0] = 0

    while i >= 0:
        if vidx[i] >= 3:
            i -= 1
            continue
        v = order[i, vidx[i]]
        vidx[i] += 1
        resid = u_check[i] - (partial[i] + h[i, i] * v)
        d2 = pref[i] + resid * resid
        nodes += 1
        if d2 > rho2:
            continue
        u[i] = v
        if i == n - 1:
            # rank of the leaf in the list; equal costs order lexicographically
            pos = count
            cmp = 1
            while pos > 0:
                if costs[pos - 1] < d2:
                    break
                if costs[pos - 1] == d2:
                    cmp = _lex_cmp(u, seqs[pos - 1])
                    if cmp >= 0:
                        break
                pos -= 1
            if pos == k or cmp == 0:
                continue
            last = count if count < k else k - 1
            for r in range(last, pos, -1):
                for j in range(n):
                    seqs[r, j] = seqs[r - 1, j]
                costs[r] = costs[r - 1]
            for j in range(n):
                seqs[pos, j] = u[j]
            costs[pos] = d2
            if count < k:
                count += 1
            if count == k:
                rho2 = costs[k - 1]
                if n_trace < rho_trace.shape[0]:
                    rho_trace[n_trace] = rho2
                    n_trace += 1
            continue
        pref[i + 1] = d2
        i += 1
        s = 0.0
        for j in range(i):
            s += h[i, j] * u[j]
        partial[i] = s
        _order_values(order[i], (u_check[i] - s) / h[i, i])
        vidx[i] = 0

    return seqs, costs, count, nodes, n_trace


def warmup():
    """Force JIT compilation of all kernels (no-op on the pure path)."""
    clarke_pinv2(*clarke3(1.0, -0.5, -0.5))
    park_inv2(*park2(1.0, 0.0, 0.3), 0.3)
    converter_voltage3(1, -1, 0, 700.0, 0.0)
    grid_emf2(0.0, 250.0, 100.0 * math.pi)
    torque_of_iq(1.0, 3, 0.4)
    integrate_plant(
        0.0, 0.0, 0.0, 0.0, 700.0, 0.0, 0.0, 0.0, 0.0,
        1, 0, -1, 0, 1, -1,
        0.1379, 0.019, 0.42675, 3,
        0.156, 0.020, 250.0, 100.0 * math.pi,
        1100e-6, 0.05, 0.0,
        50e-6, 2,
    )
    q = np.array([[4.0, 2.0], [2.0, 2.0]])
    out = np.zeros((2, 2))
    cholesky_lower(q, out, 0.0)
    h = np.array([[1.0, 0.0], [0.2, 1.0]])
    u_check = np.array([0.3, -0.4])
    seq = np.array([0, 1], np.int64)
    sequence_cost(h, u_check, seq)
    seqs = np.array([[0, 1], [1, -1]], np.int64)
    costs = np.zeros(2)
    sequence_costs_batch(h, u_check, seqs, costs)
    sd_search(h, u_check, 2, seq, True, 0.0, np.inf, np.zeros(64))
