"""Hot numeric kernels, written for the Python interpreter that runs them.

The plant kernels take and return Python floats.  `cholesky_lower` takes
and returns flat lists, and `sd_search` takes the factor as that flat list
and the target as a list; both work on Python floats, ints and lists
only: indexing a NumPy array element by element creates a NumPy scalar each
time and pays NumPy-scalar arithmetic, which made the search several times
slower than the same IEEE-754 operations on plain floats.

The decoder (`sd_search`) and the enumeration cost (`sequence_cost`) share
the same left-to-right accumulation order on purpose: equal-cost candidates
must compare identically in the search and in the brute-force oracle.  The
decoder's box bound is path-dependent: below a node, row r keeps a
residual of at least |target_r - s_r| less the widths of its columns not
yet fixed, s_r being the row's partial sum so far.  A per-row slack in
those widths covers the roundings, so a cut subtree holds no leaf the
plain search would list, ties included (argument in `sd_search`).  Each
search starts from an empty list at an infinite radius, and `outside_box`
alone picks the walk.

The decoder's walk is generated per tree depth: its source, one nested
`for` per layer with each layer's state in local variables, is compiled
once per depth and walk, bounded or plain (`_search_of_depth`).  A generic
walk indexes per-layer lists on every node, and that indexing, not the
arithmetic, was most of its time.  Every expanded node evaluates all three
of its children.
`cholesky_lower` is generated the same way, once per matrix size
(`_cholesky_of_size`): straight-line code with one local per entry.  So is
the box test `outside_box` (`_box_test_of_size`): one line per row, the
row's absolute values added left to right from 0, as `sum` added them
before Python 3.12.  From 3.12 `sum` of floats is compensated, so a `sum`
form would let the walk, and with it the node counts, depend on the
Python version.

The plant integrator's substep is straight-line code too: the converter
voltages, the transforms and the derivatives are written out in the loop
body, what is constant over a period is computed once before the loop, and
Park and inverse Park share one cos/sin of the rotor angle.  Every value
still goes through the same IEEE-754 operations in the same order as in a
substep composed of one function per operation, so the integrated state is
bit-identical to that composition (kept as the reference in
`tests/test_plant.py`); the calls and argument passing had cost about as
much as the arithmetic.
"""

from __future__ import annotations

import functools
import linecache
import math
from bisect import bisect_left

SQRT23 = math.sqrt(2.0 / 3.0)
SQRT3_2 = math.sqrt(3.0) / 2.0
TWO_PI = 2.0 * math.pi
EPS = 2.0 ** -52  # float64 machine epsilon


# ---------------------------------------------------------------------------
# coordinate transforms (scalar form for the recorder and the model build;
# the integrator writes them out inline)
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


def grid_emf2(t, e_peak, omega_n):
    # balanced three-phase source mapped through the Clarke transform
    ph = omega_n * t
    ea = e_peak * math.cos(ph)
    eb = e_peak * math.cos(ph - TWO_PI / 3.0)
    ec = e_peak * math.cos(ph + TWO_PI / 3.0)
    return clarke3(ea, eb, ec)


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
    angle which integrates the freshly updated speed.  Per substep: the
    converter's phase voltages (v_dc + v_imb) / 6 * (2 s_a - s_b - s_c) of
    both bridges, the Clarke and Park transforms of the machine voltage, the
    grid EMF, the machine dq and grid alpha/beta current derivatives, the
    phase currents by inverse Park and the Clarke pseudo-inverse, the
    DC-link derivatives sum(s i) / C and sum(|s| i) / C, and the torque
    1.5 p psi i_q.

    The substep is straight-line code: the transforms and derivatives are
    written out, and what stays constant over the period is computed once
    before the loop: the switch patterns 2 s_a - s_b - s_c and |s| as
    floats, -r/l, psi/l, 2 pi/3 and 1.5 p psi.  Park and inverse Park
    share one cos/sin of theta_e, the same angle in both.  Each value is
    still computed by the same IEEE-754 operations in the same order as a
    substep composed of one function per operation: a hoisted constant is
    the value that function computes each time (the patterns are exact
    small integers, and an int level converts exactly), so the result is
    that composition's bit for bit (`tests/test_plant.py` keeps it as the
    reference).
    """
    h = dt / substeps
    pp = float(pole_pairs)
    # per phase: converter pattern 2 s_a - s_b - s_c, level, |level|
    pm_a = 2.0 * s_ma - s_mb - s_mc
    pm_b = 2.0 * s_mb - s_ma - s_mc
    pm_c = 2.0 * s_mc - s_ma - s_mb
    pn_a = 2.0 * s_na - s_nb - s_nc
    pn_b = 2.0 * s_nb - s_na - s_nc
    pn_c = 2.0 * s_nc - s_na - s_nb
    sm_a, sm_b, sm_c = float(s_ma), float(s_mb), float(s_mc)
    sn_a, sn_b, sn_c = float(s_na), float(s_nb), float(s_nc)
    am_a, am_b, am_c = float(abs(s_ma)), float(abs(s_mb)), float(abs(s_mc))
    an_a, an_b, an_c = float(abs(s_na)), float(abs(s_nb)), float(abs(s_nc))
    decay_m = -r_s / l_s
    flux_m = psi_pm / l_s
    decay_n = -r_n / l_n
    third = TWO_PI / 3.0
    k_t = 1.5 * pole_pairs * psi_pm
    cos, sin = math.cos, math.sin
    for _ in range(substeps):
        omega_e = pp * omega_m
        g = (v_dc + v_imb) / 6.0
        ct = cos(theta_e)
        st = sin(theta_e)

        # machine voltage: phases, Clarke, Park
        u_a = g * pm_a
        u_b = g * pm_b
        u_c = g * pm_c
        u_al = SQRT23 * (u_a - 0.5 * u_b - 0.5 * u_c)
        u_be = SQRT23 * (SQRT3_2 * (u_b - u_c))
        u_md = ct * u_al + st * u_be
        u_mq = -st * u_al + ct * u_be

        # grid voltage: phases, Clarke
        u_a = g * pn_a
        u_b = g * pn_b
        u_c = g * pn_c
        u_nal = SQRT23 * (u_a - 0.5 * u_b - 0.5 * u_c)
        u_nbe = SQRT23 * (SQRT3_2 * (u_b - u_c))

        # grid EMF: phases, Clarke
        ph = omega_n * t
        e_a = e_peak * cos(ph)
        e_b = e_peak * cos(ph - third)
        e_c = e_peak * cos(ph + third)
        e_al = SQRT23 * (e_a - 0.5 * e_b - 0.5 * e_c)
        e_be = SQRT23 * (SQRT3_2 * (e_b - e_c))

        dmd = decay_m * i_md + omega_e * i_mq + u_md / l_s
        dmq = -omega_e * i_md + decay_m * i_mq + u_mq / l_s - flux_m * omega_e
        dna = decay_n * i_na + u_nal / l_n - e_al / l_n
        dnb = decay_n * i_nb + u_nbe / l_n - e_be / l_n

        # phase currents: inverse Park and Clarke pseudo-inverse
        i_al = ct * i_md - st * i_mq
        i_be = st * i_md + ct * i_mq
        ima = SQRT23 * i_al
        imb = SQRT23 * (-0.5 * i_al + SQRT3_2 * i_be)
        imc = SQRT23 * (-0.5 * i_al - SQRT3_2 * i_be)
        ina = SQRT23 * i_na
        inb = SQRT23 * (-0.5 * i_na + SQRT3_2 * i_nb)
        inc = SQRT23 * (-0.5 * i_na - SQRT3_2 * i_nb)
        dv_dc = (sm_a * ima + sm_b * imb + sm_c * imc - (sn_a * ina + sn_b * inb + sn_c * inc)) / c_dc
        dv_imb = (
            am_a * ima + am_b * imb + am_c * imc
            - (an_a * ina + an_b * inb + an_c * inc)
        ) / c_dc

        domega = (t_mech - k_t * i_mq) / inertia

        i_md = i_md + h * dmd
        i_mq = i_mq + h * dmq
        i_na = i_na + h * dna
        i_nb = i_nb + h * dnb
        v_dc = v_dc + h * dv_dc
        v_imb = v_imb + h * dv_imb
        omega_m = omega_m + h * domega
        theta_e = (theta_e + h * (pp * omega_m)) % TWO_PI
        t = t + h
    return i_md, i_mq, i_na, i_nb, v_dc, v_imb, omega_m, theta_e, t


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def cholesky_lower(a):
    """Lower-triangular H with H.T @ H == q, for the n x n matrix q given as
    its flat row-major list `a`: (H as a flat row-major list, pivot).

    H is the lower Cholesky factor L of q with its indices reversed
    (L L' = J q J, J the exchange matrix), read back as
    H[i][j] = L[n-1-j][n-1-i]: the orientation in which row i of H touches
    columns 0..i only, as the decoder's layer-by-layer residual needs, in
    the C order of the decoder's factor (`solver.reverse_cholesky`).
    `pivot` is -1 on success, else the row of H whose pivot failed, and H
    is then None.  A pivot at or below n * eps * max|a_ii| counts as
    failure so that numerically singular Gram matrices are rejected instead
    of producing garbage factors.

    The factorization runs in straight-line code generated once per size
    (`_cholesky_of_size`).
    """
    return _cholesky_of_size(math.isqrt(len(a)))(a)


def _cholesky_source(n):
    """Source of `cholesky(a) -> (h, pivot)` for flat n x n matrices.

    Entry (i, j) of the lower triangle of the reversed matrix J q J lives
    in the locals a_i_j and l_i_j.  Entry l_i_j, j < i, is a_i_j minus the
    products l_i_k * l_j_k for k = 0..j-1, subtracted left to right,
    divided by l_j_j; the diagonal subtracts the squares l_i_k * l_i_k the
    same way before the pivot test and the square root.  That is the
    row-by-row (Cholesky-Banachiewicz) loop on J q J, operation for
    operation, so L and the failing pivot are the loop's to the bit; only
    where they are read from and written to is reversed.  A failed pivot
    returns (None, pivot).
    """
    def flat_h():
        # H in row-major order, from the entries of L
        entries = []
        for i in range(n):
            for j in range(n):
                entries.append(f"l_{n - 1 - j}_{n - 1 - i}" if j <= i else "0.0")
        return "[" + ", ".join(entries) + "]"

    lines = ["def cholesky(a):"]
    # q[r][c] is entry (n-1-r, n-1-c) of J q J, read where that is on or below the diagonal
    names = []
    for r in range(n):
        for c in range(n):
            i, j = n - 1 - r, n - 1 - c
            names.append(f"a_{i}_{j}" if j <= i else "_")
    lines.append(f"    {', '.join(names)}, = a")
    diag = ", ".join(f"abs(a_{i}_{i})" for i in range(n))
    lines.append(f"    tol = {n} * EPS * max(max([{diag}]), 1e-300)")
    for i in range(n):
        for j in range(i):
            terms = "".join(f" - l_{i}_{k} * l_{j}_{k}" for k in range(j))
            lines.append(f"    l_{i}_{j} = (a_{i}_{j}{terms}) / l_{j}_{j}")
        terms = "".join(f" - l_{i}_{k} * l_{i}_{k}" for k in range(i))
        lines += [
            f"    s = a_{i}_{i}{terms}",
            "    if s <= tol:",
            f"        return None, {n - 1 - i}",
            f"    l_{i}_{i} = sqrt(s)",
        ]
    lines.append(f"    return {flat_h()}, -1")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _cholesky_of_size(n):
    """The compiled `_cholesky_source(n)`, built once per size and
    registered with `linecache` as ``<cholesky_lower n=...>``."""
    if n < 1:
        raise ValueError("cholesky_lower needs a nonempty matrix")
    return _compile(_cholesky_source(n), f"<cholesky_lower n={n}>", "cholesky",
                    EPS=EPS, sqrt=math.sqrt)


def _compile(source, filename, name, **namespace):
    """Function `name` defined by `source`, with `namespace` as its globals;
    the source is registered with `linecache` under `filename`, so
    tracebacks through it show its lines."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


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


def outside_box(h, u_check):
    """Whether some row r >= 1 has |u_check[r]| > sum_l |h[r][l]|: the
    choice between the walks of `sd_search`, which give the same result.

    `h` is the n x n factor as a flat row-major list, as `cholesky_lower`
    returns it, and `u_check` a list.  The test runs in straight-line code
    generated once per size (`_box_test_of_size`), each row's sum added
    left to right from 0.  `sd_search` runs it on every call; at n = 9 it
    takes 2-4 us per call against 7-11 us for a `sum` over each row
    (timeit, medians of 9 over 1 000 perfbench `steady` subproblems, shared
    2-core Xeon, Python 3.11), and is true on 4 % of those calls.  With
    every row's target inside the range its row can reach, the box bound
    cuts only paths that stray from the target, and that costs more than it
    saves: on the 3 660 such decoder calls of perfbench `steady` (seed 0)
    it cut 15 % of the nodes and took 24 % more time.
    """
    return _box_test_of_size(len(u_check))(h, u_check)


def _box_test_source(n):
    """Source of `outside_box(h, u_check) -> bool` for n layers: per row
    r >= 1, in ascending r, the test |c_r| > 0 + |h_r0| + ... + |h_rr|,
    added left to right."""
    lines = ["def outside_box(h, u_check):"]
    if n > 1:
        # the entries h_r_l of the rows r >= 1 on and below the diagonal
        names = (f"h_{r}_{l}" if 0 < r and l <= r else "_" for r in range(n) for l in range(n))
        lines.append(f"    {', '.join(names)}, = h")
        lines.append("    _, " + "".join(f"c_{r}, " for r in range(1, n)) + "= u_check")
    for r in range(1, n):
        terms = "".join(f" + abs(h_{r}_{l})" for l in range(r + 1))
        lines += [f"    if abs(c_{r}) > 0{terms}:", "        return True"]
    lines.append("    return False")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _box_test_of_size(n):
    """The compiled `_box_test_source(n)`, built once per size and
    registered with `linecache` as ``<outside_box n=...>``."""
    return _compile(_box_test_source(n), f"<outside_box n={n}>", "outside_box")


#: layers of the deepest search: CPython compiles at most 20 statically
#: nested blocks, and the generated search nests one `for` per layer
MAX_LAYERS = 20


def sd_search(h, u_check, k):
    """Exact k-best branch-and-bound search over {-1,0,1}^n, in one pass.

    A list sphere decoder: walks layers 0..n-1 depth first, accumulating the
    incremental residual, and keeps the k best leaves ordered by (cost,
    lexicographic).  Each node visits its children {-1, 0, 1} in increasing
    distance from its conditional estimate (the Schnorr-Euchner order).
    Until the list holds k leaves the radius is infinite; afterwards it is
    the k-th cost.  No initial radius is needed: in this order the first
    descent is the Babai point, each level the alphabet value nearest its
    conditional estimate (Agrell et al., IEEE Trans. IT 2002).  Pruning is
    strictly above the radius, so equal-cost leaves stay alive and ties
    resolve as in the enumeration oracle.  The walk meets each leaf once,
    so the list holds no duplicates.

    Row sums accumulate left to right from 0.0, as in `sequence_cost`: a
    node adds its column's term h[r][i] * u[i] to the partial sum s_r of
    every row r below it, so each row's sum is built by the same additions
    in the same order as summing the row from scratch, and equal-cost
    leaves compare identically here and in the oracle.

    Box bound.  Every level lies in [-1, 1], so once layers 0..i are
    fixed, row r > i keeps a residual of at least |c_r - s_r| - W_r in
    magnitude, W_r = sum_{i<l<=r} |h[r][l]|, whatever the completion.  The
    bounded walk cuts a child at layer i that passed the radius test when
    b = p + sum_{r>i} g_r^2 > rho2, where p is the child's cost, c the
    target `u_check`, g_r = |c_r - s_r| - w_r over the rows with g_r > 0,
    added in ascending r, and w_r = W_r + e_r with the per-row slack
    e_r = 4 (n+2) eps (|c_r| + sum_l |h[r][l]|).  The widths are suffix
    sums from e_r, computed once per call.

    The cut is exact in floating point, ties included (u = eps / 2, and
    all bounds below are the standard ones for recursive summation):
    - Rounding.  Take a row r > i, A_r = sum_l |h[r][l]|, S the computed
      s_r and a completion: its computed row sum T continues S by
      m = r - i <= n - 1 additions of exact products h[r][l] * u_l, and
      its residual is R_r = fl(c_r - T).  Continuing s_r: T is within
      gamma_m (|S| + W_r) of the exact S + sum_l h[r][l] u_l, and
      |S| + W_r <= (1 + gamma_n) A_r.  Computing c_r - s_r:
      |fl(c_r - S)| <= (1 + u) |c_r - S|.  Computing w: the computed w_r
      is at least (1 - u)^m (W_r + e_r).  With a factor 1 + u for
      rounding g_r itself, |c_r - T| >= g_r follows once
      (1 - m u) e_r >= 1.01 (m + 1) eps (|c_r| + A_r); the computed e_r
      is at least (1 - u)^(n+1) 4 (n+2) eps (|c_r| + A_r), over four
      times that since m + 1 <= n.  The margin also covers the one
      rounding that can underflow, the product forming e_r (at most
      2^-1075 absolute), when |c_r| + A_r >= 2^-1022; below that every
      sum here is a multiple of 2^-1074 under 2^-1021 in magnitude, so
      exact, and w_r >= W_r is enough.  (For finite inputs whose sums do
      not overflow; a NaN fails every test, so it cuts nothing.)
    - Monotone rounding.  As g_r is a float, |R_r| = fl(|c_r - T|) >= g_r,
      so fl(R_r * R_r) >= fl(g_r * g_r).  The completion's computed cost
      is the running sum, from p, of the R_r^2 in ascending r, and b the
      running sum, from p, of the g_r^2 in the same order; a row that b
      leaves out adds a nonnegative term, which never lowers a float sum.
      So, addition by addition, the cost is at least b.
    - Cut.  So b > rho2 cuts only a subtree all of whose leaves cost more
      than the radius now, and the radius only falls: the plain walk would
      reject each of them at that moment.  The list, the radius and
      `rho_trace` evolve as in the plain walk, and no grown radius is
      needed; only the node count falls.  A leaf that ties the radius has
      cost <= rho2, so its path is never cut.

    The bound costs O(n - i) per child, so it runs only where it pays:
    when `outside_box(h, u_check)`, the walk is the bounded one, else the
    plain one, which has no bound test at all.  Both walks return the same
    `best` and `rho_trace`.

    The walks are generated per depth (`_search_of_depth`) with one nested
    `for` per layer, so n is at most MAX_LAYERS.  Every expanded node
    evaluates all three of its children, so `nodes` is three times the
    number of expanded nodes.

    `h` is the n x n factor as a flat row-major list, as `cholesky_lower`
    returns it, and `u_check` the target as a list.

    Returns (best, nodes, rho_trace): `best` is the sorted list of
    (cost, levels tuple), `nodes` counts residual evaluations, and
    `rho_trace` lists the radius after each change made while the list was
    full.
    """
    search = _search_of_depth(len(u_check), outside_box(h, u_check))
    best = []
    rho_trace = []
    nodes = search(h, u_check, k, math.inf, best, rho_trace)
    return best, nodes, rho_trace


def child_order(center):
    """A node's children as (level, level as float) pairs, in increasing
    distance from its conditional estimate `center`, ties toward the
    smaller level.

    The reference for the generated search's threshold tests
    (`_order_lines`), which call it only for centers of 2^53 and above.
    """
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
    return tuple((v, float(v)) for v in (v0, v1, v2))


def _order_lines(pad):
    """Lines that set `o` to `child_order(center)` with at most four
    comparisons of `center` against constants.

    `child_order` compares the rounded distances e0 = |fl(1 + c)|,
    e1 = |c| and e2 = |fl(1 - c)| (c the center; fl(-1 - c) = -fl(1 + c)).
    Rounding is monotone, and 1 - c or 1 + c is exact where c is within a
    factor 2 of 1 in magnitude (Sterbenz), so for every c below 2^53:
    - c in (0.5, 2^53): e1 < e0 since fl(1 + c) is at least the float after
      c (the gap there is at most 1), and e2 < e1 since fl(|1 - c|) is at
      most the float before c; order (1, 0, -1);
    - c in (2^-54, 0.5]: e1 <= 0.5 < 1 <= e0, e2 >= e1 since 1 - c >= c,
      and e2 < e0 since 1 - c rounds below 1; order (0, 1, -1);
    - c in (-0.5, 2^-54]: e1 < 0.5 <= e0, and e2 >= e0: 1 - c >= 1 + c,
      and for c in (0, 2^-54] both round to 1, a tie; order (0, -1, 1);
    - c <= -0.5: e1 >= e0 and e2 >= e1; order (-1, 0, 1), which is also
      what a NaN gets, as it fails every comparison in both.
    From 2^53 up, rounding can tie or swap the distances, so those centers
    take `child_order` itself.
    """
    top, mid, low, bottom = (
        repr(child_order(c)) for c in (1.0, 0.25, 0.0, -1.0)
    )
    return [
        f"{pad}if center > 0.5:",
        f"{pad}    o = {top} if center < {2.0 ** 53!r} else child_order(center)",
        f"{pad}elif center > {2.0 ** -54!r}:",
        f"{pad}    o = {mid}",
        f"{pad}elif center > -0.5:",
        f"{pad}    o = {low}",
        f"{pad}else:",
        f"{pad}    o = {bottom}",
    ]


def _search_source(n, bounded):
    """Source of `search(h, c, k, rho2, best, rho_trace) -> nodes`, the
    depth-first walk of `sd_search` over n layers, with the box bound if
    `bounded`; `h` is the flat n x n factor, unpacked in one statement.

    Layer i keeps its state in locals: the target c_i, the diagonal d_i, the
    row entries h_i_j, the prefix cost p_i, and s_r_i, row r's partial sum
    over the columns up to i.  Its loop variables are the level u_i and the
    same level as a float, f_i.  The bounded walk's prologue computes each
    row's slack e_r and from it the widths w_r_i = W_r + e_r of the bound
    at layer i, as suffix sums, and their negations m_r_i.  Its bound test
    adds g_r^2 for a row with |c_r - s_r_i| > w_r_i as the square of
    (c_r - s_r_i) - w_r_i or of (c_r - s_r_i) - m_r_i, whichever side the
    difference lies on: fl(x + w) = -fl(-x - w), so that is fl(g_r^2).  The
    difference of row i + 1, y, is the numerator of the next layer's center.
    """
    lines = ["def search(h, c, k, rho2, best, rho_trace):"]
    names = (f"d_{r}" if l == r else f"h_{r}_{l}" if l < r else "_"
             for r in range(n) for l in range(n))
    lines.append(f"    {', '.join(names)}, = h")
    lines.append(f"    {', '.join(f'c_{i}' for i in range(n))}, = c")
    if bounded:
        slack = repr(4 * (n + 2) * EPS)  # exact: (n + 2) * 2^-50
        for r in range(1, n):
            row = "".join(f" + abs(h_{r}_{j})" for j in range(r))
            lines.append(f"    w_{r}_{r - 1} = {slack} * (abs(c_{r}){row} + abs(d_{r})) + abs(d_{r})")
            for i in range(r - 2, -1, -1):
                lines.append(f"    w_{r}_{i} = w_{r}_{i + 1} + abs(h_{r}_{i + 1})")
            lines += [f"    m_{r}_{i} = -w_{r}_{i}" for i in range(r)]
    lines += ["    nodes = 0", "    p_0 = 0.0"]
    for i in range(n):
        pad = "    " * (i + 1)
        partial = f"s_{i}_{i - 1}" if i else "0.0"
        if bounded and i:
            # the bound test above has just computed y = c_i - s_i_(i-1)
            lines.append(f"{pad}center = y / d_{i}")
        else:
            lines.append(f"{pad}center = (c_{i} - {partial}) / d_{i}")
        lines += _order_lines(pad)
        lines += [
            f"{pad}nodes += 3",
            f"{pad}for u_{i}, f_{i} in o:",
            f"{pad}    r = c_{i} - ({partial} + d_{i} * f_{i})",
        ]
        pad += "    "
        if i < n - 1:
            lines += [
                f"{pad}p_{i + 1} = p_{i} + r * r",
                f"{pad}if p_{i + 1} > rho2:",
                f"{pad}    continue",
            ]
            for r in range(i + 1, n):
                before = f"s_{r}_{i - 1}" if i else "0.0"
                lines.append(f"{pad}s_{r}_{i} = {before} + h_{r}_{i} * f_{i}")
            if bounded:
                lines.append(f"{pad}b = p_{i + 1}")
                for r in range(i + 1, n):
                    x = "y" if r == i + 1 else "x"
                    lines += [
                        f"{pad}{x} = c_{r} - s_{r}_{i}",
                        f"{pad}if {x} > w_{r}_{i}:",
                        f"{pad}    g = {x} - w_{r}_{i}",
                        f"{pad}    b = b + g * g",
                        f"{pad}elif {x} < m_{r}_{i}:",
                        f"{pad}    g = {x} - m_{r}_{i}",
                        f"{pad}    b = b + g * g",
                    ]
                lines += [f"{pad}if b > rho2:", f"{pad}    continue"]
            continue
        # leaf: rank it in the list
        levels = ", ".join(f"u_{j}" for j in range(n))
        lines += [
            f"{pad}cost = p_{i} + r * r",
            f"{pad}if cost > rho2:",
            f"{pad}    continue",
            f"{pad}entry = (cost, ({levels},))",
            f"{pad}pos = bisect_left(best, entry)",
            f"{pad}if pos == k:",
            f"{pad}    continue",
            f"{pad}best.insert(pos, entry)",
            f"{pad}if len(best) > k:",
            f"{pad}    best.pop()",
            f"{pad}if len(best) == k:",
            f"{pad}    rho2 = best[-1][0]",
            f"{pad}    rho_trace.append(rho2)",
        ]
    lines.append("    return nodes")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _search_of_depth(n, bounded):
    """The compiled `_search_source(n, bounded)`, built once per depth and
    walk.

    Its source is registered with `linecache` under the file name
    ``<sd_search n=... bounded>`` or ``<sd_search n=... plain>``, so
    tracebacks through it show its lines.
    """
    if not 1 <= n <= MAX_LAYERS:
        raise ValueError(f"sd_search handles 1 to {MAX_LAYERS} layers, got {n}")
    walk = "bounded" if bounded else "plain"
    return _compile(_search_source(n, bounded), f"<sd_search n={n} {walk}>", "search",
                    bisect_left=bisect_left, child_order=child_order)
