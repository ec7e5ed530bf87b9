"""Adaptive explicit integration with exact snapshot output.

The scheme is the Dormand-Prince 8(5,3) pair of Hairer, Norsett & Wanner
(Solving ODEs I, II.10; DOP853, after Prince & Dormand 1981): twelve
stages, the first of them the rates at the end of the previous step
(FSAL), with Hairer's combined fifth/third-order error estimate and a PI
step-size controller.  The engine operates on a batch of trajectories at
once, but every control decision (error norm, step size, acceptance) is
made per trajectory from that trajectory's own history, and the stage
sums are elementwise, so results are bitwise identical no matter how
trajectories are grouped into batches.

Snapshots are produced exactly at the given output times by clipping the
step to the next one (or stretching it by at most 1% onto it) and
assigning that time on acceptance.

Internally the state, the stages and the error estimate are (dim, m)
arrays, one contiguous row per state component, so the stage arithmetic
runs over long rows.  Fields take the same layout: field(y, out) writes
the rates of the (dim, m) rows y into the (dim, m) rows out and returns
nothing.  The system is autonomous, so a field takes no time.

Only live rows are stepped: a trajectory that stores its last snapshot or
fails leaves the arrays in one order-preserving gather, and the rows
still running write their results through their original indices.  Large
batches run in row blocks whose stage arrays stay near cache size.  Each
block allocates its buffers once, as the slots of one array, and the m
live rows occupy the contiguous front of every slot.  A batch of several
thousand rows is also cut into contiguous row shares, one per usable CPU,
that run in forked processes and write their rows into shared memory.
Every row is controlled on its own, so none of this changes a bit of the
result.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .errors import InvalidParameterError

# Dormand-Prince 8(5,3) tableau, zero coefficients left out: stage i is
# the rates at y + h * (sum of a * k[j] over (j, a) in _A[i]), the products
# added left to right.  The fields are autonomous, so the stage times
# t + c_i*h (c_i the row sums of _A) are never formed.
_A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2),
     (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2),
     (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1),
     (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2),
     (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2),
     (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2),
     (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2),
     (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1),
     (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1),
     (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1),
     (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1),
     (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1),
     (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1),
     (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1),
     (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1),
     (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654),
     (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1),
     (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762),
     (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449),
     (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444),
     (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1),
     (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258),
     (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
)
# eighth-order weights; the rates at the new state are the next step's k[0]
_B = ((0, 5.42937341165687622380535766363e-2),
      (5, 4.45031289275240888144113950566),
      (6, 1.89151789931450038304281599044),
      (7, -5.8012039600105847814672114227),
      (8, 3.1116436695781989440891606237e-1),
      (9, -1.52160949662516078556178806805e-1),
      (10, 2.01365400804030348374776537501e-1),
      (11, 4.47106157277725905176885569043e-2))
# fifth-order error weights
_E5 = ((0, 1.312004499419488073250102996e-2),
       (5, -1.225156446376204440720569753),
       (6, -4.957589496572501915214079952e-1),
       (7, 1.664377182454986536961530415),
       (8, -3.503288487499736816886487290e-1),
       (9, 3.341791187130174790297318841e-1),
       (10, 8.192320648511571246570742613e-2),
       (11, -2.235530786388629525884427845e-2))
# third-order weights bhh; the third-order error is sum(B k) - sum(bhh k)
_BHH = ((0, 2.44094488188976377952755905512e-1),
        (8, 7.33846688281611857341361741547e-1),
        (11, 2.20588235294117647058823529412e-2))

_SAFETY = 0.9
_PI_ALPHA = 0.7 / 8.0
_PI_BETA = 0.4 / 8.0
_REJECT_EXPONENT = -1.0 / 8.0
_FAC_MIN, _FAC_MAX = 0.2, 10.0
_STRETCH = 1.01
# first step (capped by the first output interval), largest step, and the
# attempted steps after which a trajectory fails
_H_INIT, _H_MAX, _MAX_STEPS = 1e-3, 0.05, 100_000
# rows per block of a large batch: a block's twelve (2, n) stages take
# 3 MB (all twenty buffers 5 MB), near a 2 MB L2 cache, where a 1e5-row
# batch in one piece takes 19 MB; on paper-scale MC 2**14 ran faster than
# 2**13 and than one piece
_BLOCK = 1 << 14
# fewest rows per forked share: on a 2-vCPU host fork, exit and waitpid
# took about 3 ms, and desk MC batches in two shares took 0.98x the time
# of one piece at 1,000 rows, 0.85x at 2,000 and 0.6x at 10,000
_MIN_SHARE = 2048
# spacing of doubles relative to their magnitude
_ROUNDOFF = float(np.finfo(float).eps)


@dataclass
class BatchResult:
    """States of a trajectory batch at every snapshot time.

    states has shape (n_snapshots, n_traj, dim).  failed marks trajectories
    that exhausted the step budget, underflowed the step size or asked for
    a tolerance below the rounding unit of their state; t_reached records
    how far each one got, and a failed trajectory's states at later
    snapshot times are NaN.  clamped marks trajectories that were
    pulled back onto the unit disk at least once.
    """

    states: np.ndarray
    failed: np.ndarray
    clamped: np.ndarray
    t_reached: np.ndarray
    steps_accepted: int
    steps_rejected: int


def _weighted(k, coeffs, out, term):
    """Write the sum of a * k[j] over (j, a) in coeffs into out, added left
    to right, with term as scratch; returns out.

    Elementwise ufuncs keep a row's bits independent of its position in
    the batch, which matrix products over the stages would not.
    """
    (j, a), *rest = coeffs
    np.multiply(a, k[j], out=out)
    for j, a in rest:
        out += np.multiply(a, k[j], out=term)
    return out


def _sum_sq(err, scale):
    """Sum over the state components of (err / scale)**2, err overwritten."""
    err /= scale
    err *= err
    return np.add.reduce(err, axis=0)


def integrate_batch(field, y0, times, rel_tol: float, abs_tol: float,
                    clamp_disk: bool = False) -> BatchResult:
    """Propagate a batch of states from times[0] through the output times.

    y0 has shape (n, d); times is a finite, strictly increasing 1-D array,
    and a single time returns y0 as the only snapshot without calling
    field.  Steps are controlled to the error scale abs_tol + rel_tol * |y|,
    both tolerances finite and positive.  The first step is _H_INIT capped
    by times[1] - times[0], no step exceeds _H_MAX, and a trajectory fails
    after _MAX_STEPS attempted steps.  field(y, out) receives the live rows
    as y, a C-contiguous (d, m) array with one row per state component,
    writes their rates into out, a C-contiguous (d, m) array of its own,
    and returns nothing.  Both arrays are buffers the integrator reuses, so
    a field writes only to out and keeps neither.  With clamp_disk=True
    accepted states whose first two components leave the unit disk are
    rescaled onto its edge and flagged.
    A trajectory whose error scale drops below the rounding unit of a state
    component fails at once: rounding alone moves that state by more than
    the tolerance, so it would only creep on in tiny steps until the step
    budget runs out.  This needs rel_tol below that unit.
    The batch is cut into p contiguous row shares, p the usable CPUs but at
    most n // _MIN_SHARE and at least 1, and each share runs in consecutive
    blocks of at most _BLOCK rows.  A trajectory leaves its block's arrays
    in the iteration that stores its last snapshot or fails, so the field
    sees only rows still running: n rows for the start rates, then twelve
    evaluations per attempted step (plus one per clamped row).  A
    trajectory done on its last allowed step has not failed.
    Share 0 runs in the caller and every other share in a forked child
    that writes its rows into anonymous shared memory and exits.  The
    caller waits for every child, also when it raises, and integrates the
    share of a child that failed or was killed itself, so an error the
    field raises on any row reaches the caller with its own type.  So field
    must be safe to call in a forked child, and what it changes in the
    caller's memory is not seen for the rows of a child's share.  A single
    output time, a process running other threads (a fork would copy their
    locks in whatever state they are) and a platform without os.fork run
    the whole batch in the caller.
    """
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and len(times) and np.isfinite(times).all()
            and (np.diff(times) > 0.0).all()):
        raise InvalidParameterError("times must be a finite, strictly increasing 1-D array")
    for name, v in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (math.isfinite(v) and v > 0.0):
            raise InvalidParameterError(f"{name} must be finite and positive")
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim == 1:
        y0 = y0[None, :]
    n, dim = y0.shape
    shares = 1
    if len(times) > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        shares = max(1, min(_usable_cpus(), n // _MIN_SHARE))
    # children write their rows where the caller reads them
    alloc = _shared if shares > 1 else np.empty
    out = alloc((len(times), n, dim), float)
    failed = alloc((n,), bool)
    clamped = alloc((n,), bool)
    t_reached = alloc((n,), float)
    # accepted and rejected steps per share
    counts = alloc((shares, 2), np.int64)
    bounds = [i * n // shares for i in range(shares + 1)]

    def share(i):
        # a share writes all of its own rows of the result arrays, and no
        # others, so rerunning it in the caller overwrites a lost child's
        lo, hi = bounds[i], bounds[i + 1]
        rows = slice(lo, hi)
        out[0, rows] = y0[rows]
        out[1:, rows] = np.nan
        failed[rows] = False
        clamped[rows] = False
        t_reached[rows] = times[0]
        counts[i] = 0
        # a single output time leaves nothing to integrate
        if len(times) == 1:
            return
        for b in range(lo, hi, _BLOCK):
            blk = slice(b, min(b + _BLOCK, hi))
            counts[i] += _integrate_block(field, y0[blk], times, rel_tol, abs_tol, clamp_disk,
                                          out[:, blk], failed[blk], clamped[blk],
                                          t_reached[blk])

    children = {}
    try:
        for i in range(1, shares):
            try:
                pid = os.fork()
            except OSError:
                # no process to spare: the caller integrates this share
                continue
            if pid == 0:
                # the child leaves here, whatever happens, and never
                # returns into the caller's code
                status = 1
                try:
                    share(i)
                    status = 0
                finally:
                    os._exit(status)
            children[i] = pid
        share(0)
    finally:
        done = {i for i, pid in children.items() if _exited_cleanly(pid)}
    for i in range(1, shares):
        if i not in done:
            share(i)
    return BatchResult(states=out, failed=failed, clamped=clamped, t_reached=t_reached,
                       steps_accepted=int(counts[:, 0].sum()),
                       steps_rejected=int(counts[:, 1].sum()))


def _shared(shape, dtype):
    """A zeroed array in anonymous memory that forked children share."""
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, max(1, size * dtype.itemsize)), dtype,
                         count=size).reshape(shape)


def _exited_cleanly(pid) -> bool:
    """Wait for child pid; whether it exited with status 0."""
    try:
        return os.waitpid(pid, 0)[1] == 0
    except ChildProcessError:
        # reaped elsewhere (SIGCHLD ignored): its status is unknown
        return False


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _integrate_block(field, y0, times, rel_tol, abs_tol, clamp_disk, out, failed, clamped,
                     t_reached):
    """Integrate the rows of y0 into out, failed, clamped and t_reached,
    the block's slices of the batch result; returns the accepted and
    rejected step counts."""
    n, dim = y0.shape
    n_snap = len(times)

    # every buffer of the block, allocated once: y, k1, y_new, k_new, the
    # stages k2..k12, the stage state, a product term, the eighth-order
    # sum, |y| and the error scale.  With m live rows each buffer is the
    # contiguous front of its slot, seen as (dim, m) rows
    slots = np.empty((20, dim * n))

    def fronts(m):
        return [s[:dim * m].reshape(dim, m) for s in slots]

    buf = fronts(n)
    # the slots holding y, k1, y_new and k_new: an accepted step swaps
    # slots instead of copying
    role = [0, 1, 2, 3]
    buf[0][...] = y0.T
    field(buf[0], buf[1])

    # the block row of every live row; the arrays below hold live rows only
    rows = np.arange(n)
    t = np.full(n, times[0])
    h = np.full(n, min(_H_INIT, _H_MAX, times[1] - times[0]))
    err_prev = np.ones(n)
    snap_idx = np.ones(n, dtype=np.int64)
    attempts = np.zeros(n, dtype=np.int64)
    acc_total = 0
    rej_total = 0
    check_floor = rel_tol < _ROUNDOFF

    while len(rows):
        y, k1, y_new, k_new = (buf[i] for i in role)
        *stages, y_stage, term, b_sum, mag, scale = buf[4:]
        target = times[snap_idx]
        room = target - t
        h_try = np.minimum(h, _H_MAX)
        # a step ending within 1% of the boundary is stretched onto it, as
        # in Hairer's DOP853: no sliver of a step is left before a snapshot
        boundary = _STRETCH * h_try >= room
        h_try = np.where(boundary, room, h_try)

        k = [k1, *stages]
        for i, row in enumerate(_A[1:], 1):
            # y + h_try * (stage sum), in place
            _weighted(k, row, y_stage, term)
            y_stage *= h_try
            y_stage += y
            field(y_stage, k[i])
        _weighted(k, _B, b_sum, term)
        # y + h_try * b_sum
        np.multiply(h_try, b_sum, out=y_new)
        y_new += y
        field(y_new, k_new)

        np.maximum(np.abs(y, out=mag), np.abs(y_new, out=scale), out=mag)
        # abs_tol + rel_tol * mag
        np.multiply(rel_tol, mag, out=scale)
        scale += abs_tol
        e5_sq = _sum_sq(_weighted(k, _E5, y_stage, term), scale)
        e3_sq = _sum_sq(np.subtract(b_sum, _weighted(k, _BHH, y_stage, term), out=y_stage),
                        scale)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            err_norm = h_try * e5_sq / np.sqrt(dim * (e5_sq + 0.01 * e3_sq))
        # an exact step makes both estimates vanish; a NaN estimate stays NaN
        err_norm[e5_sq == 0.0] = 0.0

        attempts += 1
        accept = err_norm <= 1.0
        n_acc = int(np.count_nonzero(accept))
        acc_total += n_acc
        rej_total += len(rows) - n_acc
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fac = _SAFETY * err_norm ** (-_PI_ALPHA) * err_prev ** _PI_BETA
        # fmax maps NaN to the lower limit, fmin maps +inf to the upper one
        fac = np.fmin(np.fmax(fac, _FAC_MIN), _FAC_MAX)
        t_new = np.where(boundary, target, t + h_try)
        err_new = np.maximum(err_norm, 1e-10)
        if n_acc == len(rows):
            # most iterations reject no step: nothing to blend
            h = h_try * fac
            t, err_prev = t_new, err_new
            role = role[2:] + role[:2]
            y, k1 = y_new, k_new
        else:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                fac_rej = _SAFETY * err_norm ** _REJECT_EXPONENT
            fac_rej = np.fmin(np.fmax(fac_rej, 0.1), 1.0)
            h = h_try * np.where(accept, fac, fac_rej)
            t = np.where(accept, t_new, t)
            np.copyto(y, y_new, where=accept)
            np.copyto(k1, k_new, where=accept)
            err_prev = np.where(accept, err_new, err_prev)

        if clamp_disk:
            r2 = y[0] * y[0] + y[1] * y[1]
            over = accept & (r2 > dynamics.DISK_EDGE_R2)
            if over.any():
                shrink = np.sqrt(dynamics.DISK_EDGE_R2 / r2[over])
                y[0, over] *= shrink
                y[1, over] *= shrink
                clamped[rows[over]] = True
                y_over = np.compress(over, y, axis=1)
                k_over = np.empty_like(y_over)
                field(y_over, k_over)
                k1[:, over] = k_over

        hit = accept & boundary
        if hit.any():
            cols = np.nonzero(hit)[0]
            out[snap_idx[cols], rows[cols]] = y[:, cols].T
            snap_idx[cols] += 1

        # a row that stores its last snapshot is done, even on its last
        # allowed step; only the others can fail
        done = snap_idx >= n_snap
        dead = (attempts >= _MAX_STEPS) | (h <= 1e-15 * (1.0 + np.abs(t)))
        if check_floor:
            dead |= np.any(scale < _ROUNDOFF * mag, axis=0)
        dead &= ~done
        leave = done | dead
        if leave.any():
            failed[rows[dead]] = True
            t_reached[rows[leave]] = t[leave]
            keep = ~leave
            rows, t, h, err_prev, snap_idx, attempts = (
                a[keep] for a in (rows, t, h, err_prev, snap_idx, attempts))
            # the kept rows of y and k1 go to the fronts of the y_new and
            # k_new slots, whose contents are spent, and those slots take
            # the roles of y and k1
            role = role[2:] + role[:2]
            buf = fronts(len(rows))
            np.compress(keep, y, axis=1, out=buf[role[0]])
            np.compress(keep, k1, axis=1, out=buf[role[1]])

    return acc_total, rej_total
