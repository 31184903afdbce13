"""Hot numeric kernels, written for the Python interpreter that runs them.

The plant kernels take and return Python floats.  `cholesky_lower` takes
and returns lists of rows, and `sd_search` converts its array arguments with
``.tolist()`` on entry; both then work on Python floats, ints and lists
only: indexing a NumPy array element by element creates a NumPy scalar each
time and pays NumPy-scalar arithmetic, which made the search several times
slower than the same IEEE-754 operations on plain floats.

The decoder (`sd_search`) and the enumeration cost (`sequence_cost`) share
the same left-to-right accumulation order on purpose: equal-cost candidates
must compare identically in the search and in the brute-force oracle.  The
decoder's box bound (`box_tail`) sums each row's widths in that order too,
which is what makes it exact in floating point.
"""

from __future__ import annotations

import math
from bisect import bisect_left

SQRT23 = math.sqrt(2.0 / 3.0)
SQRT3_2 = math.sqrt(3.0) / 2.0
TWO_PI = 2.0 * math.pi
EPS = 2.0 ** -52  # float64 machine epsilon


# ---------------------------------------------------------------------------
# coordinate transforms (scalar form shared by plant and integrator)
# ---------------------------------------------------------------------------


def clarke3(a, b, c):
    alpha = SQRT23 * (a - 0.5 * b - 0.5 * c)
    beta = SQRT23 * (SQRT3_2 * (b - c))
    return alpha, beta


def clarke_pinv2(alpha, beta):
    a = SQRT23 * alpha
    b = SQRT23 * (-0.5 * alpha + SQRT3_2 * beta)
    c = SQRT23 * (-0.5 * alpha - SQRT3_2 * beta)
    return a, b, c


def park2(alpha, beta, theta):
    ct = math.cos(theta)
    st = math.sin(theta)
    d = ct * alpha + st * beta
    q = -st * alpha + ct * beta
    return d, q


def park_inv2(d, q, theta):
    ct = math.cos(theta)
    st = math.sin(theta)
    alpha = ct * d - st * q
    beta = st * d + ct * q
    return alpha, beta


# ---------------------------------------------------------------------------
# plant physics
# ---------------------------------------------------------------------------


def converter_voltage3(sa, sb, sc, v_dc, v_imb):
    # per-phase voltage of the three-level NPC bridge for one switch state
    g = (v_dc + v_imb) / 6.0
    ua = g * (2.0 * sa - sb - sc)
    ub = g * (2.0 * sb - sa - sc)
    uc = g * (2.0 * sc - sa - sb)
    return ua, ub, uc


def machine_deriv2(i_d, i_q, u_d, u_q, omega_e, r_s, l_s, psi_pm):
    di_d = (-r_s / l_s) * i_d + omega_e * i_q + u_d / l_s
    di_q = -omega_e * i_d + (-r_s / l_s) * i_q + u_q / l_s - (psi_pm / l_s) * omega_e
    return di_d, di_q


def grid_deriv2(i_a, i_b, u_a, u_b, e_a, e_b, r_n, l_n):
    di_a = (-r_n / l_n) * i_a + u_a / l_n - e_a / l_n
    di_b = (-r_n / l_n) * i_b + u_b / l_n - e_b / l_n
    return di_a, di_b


def dc_link_deriv2(sma, smb, smc, sna, snb, snc, ima, imb, imc, ina, inb, inc, c_dc):
    dv_dc = (sma * ima + smb * imb + smc * imc - (sna * ina + snb * inb + snc * inc)) / c_dc
    dv_imb = (
        abs(sma) * ima + abs(smb) * imb + abs(smc) * imc
        - (abs(sna) * ina + abs(snb) * inb + abs(snc) * inc)
    ) / c_dc
    return dv_dc, dv_imb


def grid_emf2(t, e_peak, omega_n):
    # balanced three-phase source mapped through the Clarke transform
    ph = omega_n * t
    ea = e_peak * math.cos(ph)
    eb = e_peak * math.cos(ph - TWO_PI / 3.0)
    ec = e_peak * math.cos(ph + TWO_PI / 3.0)
    return clarke3(ea, eb, ec)


def torque_of_iq(i_q, pole_pairs, psi_pm):
    return 1.5 * pole_pairs * psi_pm * i_q


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


def cholesky_lower(a):
    """Lower Cholesky factor of `a`, a list of rows: (rows of L, pivot).

    `pivot` is -1 on success, else the index of the failing pivot.  A pivot
    at or below n * eps * max|a_ii| counts as failure so that numerically
    singular Gram matrices are rejected instead of producing garbage
    factors; the rows then hold the entries computed before that pivot.
    """
    n = len(a)
    tol = n * EPS * max(max([abs(a[i][i]) for i in range(n)]), 1e-300)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        a_i = a[i]
        l_i = low[i]
        for j in range(i):
            l_j = low[j]
            s = a_i[j]
            for k in range(j):
                s -= l_i[k] * l_j[k]
            l_i[j] = s / l_j[j]
        s = a_i[i]
        for k in range(i):
            s -= l_i[k] * l_i[k]
        if s <= tol:
            return low, i
        l_i[i] = math.sqrt(s)
    return low, -1


def sequence_cost(h, u_check, u):
    """Residual cost of one candidate sequence against the triangular form.

    Takes `h` as a list of rows and `u_check`, `u` as lists.  Accumulates
    per-layer terms left to right, matching the decoder's incremental sum
    exactly so that cost ties compare bit-identically.
    """
    total = 0.0
    for k, row in enumerate(h):
        s = 0.0
        for j in range(k + 1):
            s += row[j] * u[j]
        r = u_check[k] - s
        total = total + r * r
    return total


# ---------------------------------------------------------------------------
# depth-first k-best sphere decoder core
# ---------------------------------------------------------------------------


def box_tail(h, u_check):
    """Path-independent lower bounds on the cost of the trailing layers.

    Every entry lies in [-1, 1], so whatever the path, row r's residual is
    at least g_r = |u_check[r]| - w_r in magnitude, with w_r = sum_l
    |h[r][l]|.  `tail[i]` sums max(g_r, 0)^2 over r >= i; tail[n] = 0.

    This holds for the computed values too.  The decoder and
    `sequence_cost` sum a row's products h[r][l] * u[l] left to right from
    0.0, and w_r here is summed over the same l in the same order.  Each
    product is exact and at most |h[r][l]| in magnitude, and rounding to
    nearest is monotone, so the computed row sum is at most the computed
    w_r in magnitude; hence the computed residual is at least the computed
    g_r in magnitude, and its computed square at least that of g_r.
    """
    n = len(h)
    tail = [0.0] * (n + 1)
    acc = 0.0
    for r in range(n - 1, -1, -1):
        width = 0.0
        for x in h[r][: r + 1]:
            width += abs(x)
        gap = abs(u_check[r]) - width
        if gap > 0.0:
            acc += gap * gap
        tail[r] = acc
    return tail


def sd_search(h, u_check, k, radius_sq, seed, box_bound=True):
    """Exact k-best branch-and-bound search over {-1,0,1}^n, in one pass.

    A list sphere decoder: walks layers 0..n-1 depth first, accumulating the
    incremental residual, and keeps the k best leaves ordered by (cost,
    lexicographic).  Until the list holds k leaves the radius is `radius_sq`;
    afterwards it is the k-th cost.  Pruning is strictly above the radius, so
    equal-cost leaves stay alive and ties resolve as in the enumeration
    oracle.  Unless `seed` is None, that leaf (a tuple of levels) starts the
    list with its `sequence_cost`; the walk skips it when it meets it again.

    Box bound: a child at layer i that passes the radius test is also cut
    when its cost plus `box_tail(h, u_check)[i + 1]` exceeds the radius
    grown by the factor 1 + 2(n+2) eps.  By `box_tail`, every completion's
    computed squared residuals are at least the squares the tail sums, so
    its computed cost, the running sum of its prefix cost and those squares
    left to right, is at least the same running sum of the tail's squares.
    That sum and cost + tail[i + 1], whose tail is summed right to left,
    are two roundings of one exact sum of at most n + 1 nonnegative terms;
    each differs from it by a relative n u at most (u = eps / 2), which the
    grown radius covers.  So a cut child has no completion of computed cost at or
    below the radius, and a leaf whose cost ties the radius is never cut.
    The plain search would reject every leaf of a cut subtree at that
    moment, so the list and the radius evolve as in the plain search, and
    `best` and `rho_trace` are unchanged; only the node count falls.
    `box_bound=False` skips computing the bound, for callers that know it
    cannot prune; the result is the same either way.

    Returns (best, nodes, rho_trace): `best` is the sorted list of
    (cost, levels tuple), `nodes` counts residual evaluations, and
    `rho_trace` lists the radius after each change made while the list was
    full.
    """
    h = h.tolist()
    u_check = u_check.tolist()
    n = len(h)
    last = n - 1
    diag = [h[i][i] for i in range(n)]
    grow = 1.0 + 2 * (n + 2) * EPS
    tail = box_tail(h, u_check) if box_bound else None
    # only tail[1:] is ever read
    bounded = tail is not None and tail[1] > 0.0
    best = []
    rho2 = radius_sq
    rho_trace = []
    if seed is not None:
        seed_cost = sequence_cost(h, u_check, seed)
        best.append((seed_cost, seed))
        if k == 1:
            if seed_cost < rho2:
                rho2 = seed_cost
            rho_trace.append(rho2)
    cut = rho2 * grow

    u = [0] * n
    order = [None] * n
    vidx = [0] * n
    pref = [0.0] * (n + 1)
    partial = [0.0] * n
    nodes = 0

    i = 0
    s = 0.0
    while True:
        # visit {-1, 0, 1} in increasing distance from the conditional
        # estimate; ties resolved toward the smaller value (affects speed only)
        center = (u_check[i] - s) / diag[i]
        v0, v1, v2 = -1, 0, 1
        e0 = abs(-1.0 - center)
        e1 = abs(0.0 - center)
        e2 = abs(1.0 - center)
        if e1 < e0:
            v0, v1 = v1, v0
            e0, e1 = e1, e0
        if e2 < e1:
            v1, v2 = v2, v1
            e1 = e2
            if e1 < e0:
                v0, v1 = v1, v0
        order[i] = (v0, v1, v2)
        vidx[i] = 0

        # advance to the next surviving child, backtracking as needed
        while i >= 0:
            vi = vidx[i]
            if vi >= 3:
                i -= 1
                continue
            v = order[i][vi]
            vidx[i] = vi + 1
            resid = u_check[i] - (partial[i] + diag[i] * v)
            cost = pref[i] + resid * resid
            nodes += 1
            if cost > rho2:
                continue
            if bounded and cost + tail[i + 1] > cut:
                continue
            u[i] = v
            if i < last:
                break
            # leaf: rank it in the list; an equal entry is already listed
            entry = (cost, tuple(u))
            pos = bisect_left(best, entry)
            if pos == k or (pos < len(best) and best[pos] == entry):
                continue
            best.insert(pos, entry)
            if len(best) > k:
                best.pop()
            if len(best) == k:
                rho2 = best[-1][0]
                cut = rho2 * grow
                rho_trace.append(rho2)
        if i < 0:
            return best, nodes, rho_trace

        pref[i + 1] = cost
        i += 1
        row = h[i]
        s = 0.0
        for j in range(i):
            s += row[j] * u[j]
        partial[i] = s
