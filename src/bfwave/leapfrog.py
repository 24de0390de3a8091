"""Explicit leapfrog integrator for u_tt = u_xx + f on (0, 1).

Dirichlet data at x = 0 (possibly time dependent), homogeneous Dirichlet
at x = 1. The scheme advances two consecutive displacement levels; it is
exactly time reversible and conserves its discrete energy, which is what
makes repeated forward/backward sweeps trustworthy.

The one wave state is the velocity-basis vector x = (u, (u - u_prev)/dt),
which init_leapfrog and run_homogeneous return; _from_velocity_basis, the
one decoder, gives its levels (u_prev, u) as plain arrays. It has no time
label or direction: the stencil is symmetric in the two levels, so a sweep
runs backward once the turn (_turned_wave) has swapped past and future.
Callers that alternate directions read theirs from their own pass index.

A stepped level goes through the one interior update _leap (the start-up
ghost level of init_leapfrog, the turn's _continuation_level), and the left
Neumann trace through the one stencil neumann_trace; callers only set the
two boundary nodes. run_homogeneous, the one run with homogeneous walls,
free or forced, is not stepped: it is the linear recurrence x <- S x + B s_k
on the velocity-basis state, S assembled from the update's formulas with
the walls pinned (_wave_parts, the one wave one-step matrix: the
observer's step and truth cascade advance their wave by it too),
evaluated in blocks by _run_recurrence, the package's one
linear-recurrence evaluator, which the observer's sweeps and cascade run
too. What a process keeps per system is in one store, _kept(build,
*args), keyed on the build and its arguments (an array by its shape and
bytes) and bounded by the bytes it holds, _KEPT_BYTES, oldest out first:
the evaluator's set-up (a block plan per (S, B, D), holding S^b, and S^t
per S and t), _wave_parts (_keeps makes every call of a build a _kept
call) and the observer's parts, S^n and monitor set-up. A call on matrices
seen before pays only for its own steps, with the bits of a first call.
The kernel checks run the wave free, forward synthesis
forced. A free run passes B with no columns, so it packs and carries no
inputs. The verify battery's energy drift and round trip run the same
free recurrence through _run_recurrence, the drift read out as the
levels, the backward leg from the turned state with no read-out at all.
_turned_wave, the one turn, makes that state; the observer's turn calls
it too. The stepped reference of the tests' round trips is not in the
package: step and reversed_state in tests/stepped.py, on level pairs.
neumann_trace, _continuation_level and the codecs also take (nx+1, m)
arrays, one level per column, which is how the observer's step and turn
are applied to the identity; discrete_energy takes a chain of levels, one
per column, which is how the kernel check takes its energies.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import Grid1D, _check_integer

__all__ = [
    "init_leapfrog",
    "neumann_trace",
    "discrete_energy",
    "run_homogeneous",
]


def _leap(u_prev, u_curr, c2, dt2_f=None):
    """One interior leapfrog update; boundary nodes are left for the caller.

    un = (2 u_curr - u_prev) + c2 ((u_curr[+1] - 2 u_curr) + u_curr[-1]) [+ dt2_f],
    evaluated in that order, in place where the result allows.
    """
    un = np.empty_like(u_curr)
    inner = un[1:-1]
    twice = 2.0 * u_curr[1:-1]
    lap = u_curr[2:] - twice
    lap += u_curr[:-2]
    lap *= c2
    np.subtract(twice, u_prev[1:-1], out=inner)
    inner += lap
    if dt2_f is not None:
        inner += dt2_f[1:-1]
    return un


def init_leapfrog(q0: np.ndarray, f0: np.ndarray | None, grid: Grid1D) -> np.ndarray:
    """Second-order start from rest: the velocity-basis state of q0 and its ghost level.

    The ghost level, from a Taylor expansion at t = 0, is
    u_prev = q0 + (dt^2/2)(D2 q0 + f0), which is _leap from (q0, q0) with
    half the coefficients.
    """
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (grid.nx + 1,):
        raise ValueError(f"q0 has shape {q0.shape}, expected ({grid.nx + 1},)")
    if f0 is not None and f0.shape != q0.shape:
        raise ValueError("f0 shape mismatch")
    half_dt2_f = None if f0 is None else 0.5 * grid.dt * grid.dt * f0
    up = _leap(q0, q0, 0.5 * grid.cfl * grid.cfl, half_dt2_f)
    up[0] = q0[0]
    up[-1] = q0[-1]
    return _to_velocity_basis(up, q0, grid)


def neumann_trace(u: np.ndarray, dx: float) -> float | np.ndarray:
    """Second-order one-sided x-derivative of the level u at x = 0.

    A float for one level; for an (nx+1, m) array of levels, the row of
    the m traces.
    """
    tr = (-3.0 * u[0] + 4.0 * u[1] - u[2]) * (0.5 / dx)
    return float(tr) if u.ndim == 1 else tr


def discrete_energy(levels: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Leapfrog-conserved energies of a chain of consecutive levels.

    levels is an (nx+1, m+1) array, m >= 1, one level per column; the
    result is the row of the m energies of its pairs (u_prev, u_curr),
    E = (dx/2) * [ sum_j ((u_curr - u_prev)/dt)_j^2
                   + sum_cells Dx(u_curr) * Dx(u_prev) ],
    each level's gradient taken once. Constant along homogeneous-BC
    trajectories up to round-off. One state's energy is that of the
    one-pair chain of its levels, np.stack(_from_velocity_basis(x, grid), 1).
    """
    if levels.ndim != 2 or levels.shape[0] != grid.nx + 1 or levels.shape[1] < 2:
        raise ValueError(f"a chain of levels is ({grid.nx + 1}, m + 1), m >= 1, not {levels.shape}")
    grad = np.diff(levels, axis=0) / grid.dx
    v = (levels[:, 1:] - levels[:, :-1]) / grid.dt
    return 0.5 * grid.dx * (np.sum(v * v, axis=0) + np.sum(grad[:, 1:] * grad[:, :-1], axis=0))


def _continuation_level(u_prev: np.ndarray, u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """The unforced level one step past u, u_prev the level before it.

    Used for centered velocities at the last computed node and for turning
    a trajectory around without losing second-order accuracy.
    """
    g = _leap(u_prev, u, grid.cfl * grid.cfl)
    # boundary values are never consumed by interior updates; extrapolate left,
    # keep the pinned right end
    g[0] = 2.0 * u[0] - u_prev[0]
    g[-1] = 0.0
    return g


_RUN_BLOCK = 32  # steps whose read-out rows _run_recurrence holds at once
# Set-up kept for the process by content (_kept): _run_recurrence's block
# plans, each holding S^b, and powers S^t, the wave's and the observer's
# one-step parts, and the observer's S^n, its monitor's quadratic part and
# free plan of power rows. One verify battery leaves 31 items, 2,021,920 B;
# a reference full after it 39 items, 2,752,400 B (arrays and key bytes), so
# at 3 MiB both fit and a second battery builds nothing. A stream of new
# systems grows the store to _KEPT_BYTES and no further, oldest first.
_KEPT_BYTES = 3 << 20
_store: dict = {}  # key -> read-only array, or tuple of them; oldest first
_held = 0  # the bytes of _store's keys and items, counted as they come and go


def _nbytes(obj) -> int:
    """The bytes of the arrays and bytes objects in obj, tuples walked."""
    if isinstance(obj, tuple):
        return sum(map(_nbytes, obj))
    return obj.nbytes if isinstance(obj, np.ndarray) else len(obj) if isinstance(obj, bytes) else 0


def _kept(build, *args):
    """build(*args), made read-only and kept for the process under the key (build, *args).

    In the key an array argument stands as its shape and bytes, any other by
    its value, so a call on matrices seen before has the bits of a first call
    without redoing it, and no two builds share an item. An item keyed by
    value (a grid, gains) goes stale when the code of its build, or code it
    calls, is patched: empty the store. _held counts the bytes of every key
    and item (_nbytes; the same bytes in several keys are counted in each).
    After a build, the oldest items leave until _held is at most
    _KEPT_BYTES; the newest stays, even alone above it.
    """
    global _held
    key = (build, *((a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a for a in args))
    item = _store.get(key)
    if item is None:
        item = build(*args)
        for a in item if isinstance(item, tuple) else (item,):
            a.flags.writeable = False
        _store[key] = item  # the first key object is kept, so no call leaves a new one behind
        _held += _nbytes(key) + _nbytes(item)
        while len(_store) > 1 and _held > _KEPT_BYTES:
            oldest = next(iter(_store))
            _held -= _nbytes(oldest) + _nbytes(_store[oldest])
            del _store[oldest]
    return item


def _keeps(build):
    """build with every call kept for the process: build(*args) is _kept(build, *args)."""
    return functools.wraps(build)(lambda *args: _kept(build, *args))


def _left_power(S: np.ndarray, e: int) -> np.ndarray:
    """S^e as the left product S (S (... S I)).

    Repeated squaring would be cheaper but less accurate: its error grows
    coherently over hundreds of blocks (1.5e-12 against 2.3e-13 for a wave
    run of 1e4 steps at cfl 0.9, relative to a long-double one).
    """
    Se = np.eye(len(S))
    for _ in range(e):
        Se = S @ Se
    return Se


def _block_plan(
    S: np.ndarray, B: np.ndarray, D: np.ndarray, b: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The matrices F, W and S^b of _run_recurrence's blocks of b steps.

    With w = B.shape[1] inputs per step, row w l + c of F is column c of
    S^(b-1-l) B, which carries input l of a block to its end. W stacks the
    rows D S^j, j < b, over the lower-triangular Toeplitz matrix of the
    responses D S^(j-1-l) B, so that the read-outs of a block are its start
    state and inputs times W. A free run (w = 0) has no F rows and no
    Toeplitz rows: W is the rows D S^j alone, column r + j len(D) row r of
    D S^j, which the observer's monitor sums over too (its _power_sum). S^b,
    the left product of _left_power, carries a block's start state to the
    next. A plan holds (dim + w b) b rows + dim^2 values, 239,904 B for the
    kernel check's 21 free read-out rows; it is kept per (S, B, D, b).
    """
    (rows, dim), w = D.shape, B.shape[1]
    W = np.empty((dim + w * b, b * rows))  # filled through views: no stacked copies
    P = W[:dim].reshape(dim, b, rows).transpose(1, 2, 0)  # D S^j
    G = np.empty((b, dim, w))  # S^j B
    P[0] = Dj = np.ascontiguousarray(D)
    G[0] = B
    for j in range(1, b):
        P[j] = Dj = Dj @ S  # carried contiguous, as a stacked chain would be
        G[j] = S @ G[j - 1]
    F = G[::-1].transpose(0, 2, 1).reshape(w * b, dim)
    # read-out j of a block: D S^j x + sum_(l<j) D S^(j-1-l) B u_l
    H = np.concatenate([D @ G, np.zeros((1, rows, w))])  # H[b] = 0 serves l >= j
    lag = np.arange(b) - np.arange(b)[:, None] - 1  # [l, j] = j - 1 - l
    W[dim:].reshape(b, w, b, rows)[...] = H[np.where(lag >= 0, lag, b)].transpose(0, 3, 1, 2)
    return F, W, _left_power(S, b)


def _run_recurrence(
    S: np.ndarray, B: np.ndarray, D: np.ndarray, x0: np.ndarray, s: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Run x_k+1 = S x_k + B u_k from x0 over the samples s; return x_n.

    The input u_k is (s_k, s_k+1) for a B of two columns; a B of no
    columns makes the run free, x_k+1 = S x_k, and s sets only its length.
    out, shape (len(D), n+1), receives the read-outs D x_k for k = 0..n;
    a D of no rows reads nothing out, and x_n does not depend on D.
    The steps go in blocks of b = _RUN_BLOCK. The rows D S^j and the
    impulse responses D S^j B, j < b, are formed once (_block_plan); the
    read-outs of every block are then one product of its start state and
    inputs with those rows stacked over the lower-triangular Toeplitz
    matrix of the responses, and S^b carries each block's start state to
    the next. The last block, cut at node n, takes the same product over
    inputs padded with zeros, which no read-out up to node n sees; x_n is
    S^t applied to its start plus the responses S^(t-1-l) B of its first t
    inputs. A free run packs no inputs: it reads out through the rows
    D S^j alone and carries each block start straight into the next. The
    plan (_block_plan, which holds S^b) and S^t (_left_power) are kept for
    the process (_kept), so a call on matrices seen before pays only for
    its own steps, with the same bits as a first call: one look-up, and a
    second for S^t when t > 0.
    """
    S, B, D = (np.asarray(a, dtype=float) for a in (S, B, D))
    s = np.asarray(s, dtype=float)
    n, dim, w = len(s) - 1, len(S), B.shape[1]  # w: 2 inputs per step, or 0 for a free run
    b = min(_RUN_BLOCK, n + 1)
    full, t = divmod(n, b)  # node n is t steps into the block after `full` whole ones
    F, W, Sb = _kept(_block_plan, S, B, D, b)
    St = _kept(_left_power, S, t) if t else np.eye(dim)  # the identity is cheaper made than kept
    # row i: the start x of block i, then its inputs u_k = (s_k, s_k+1), zero past s_n
    XU = np.empty((full + 1, dim + w * b))
    X, U = XU[:, :dim], XU[:, dim:]
    X[0] = x0
    if w:
        head = full * b
        U[:-1, 0::2] = s[:head].reshape(full, b)
        U[:-1, 1::2] = s[1 : head + 1].reshape(full, b)
        last = np.zeros(b + 1)
        last[: t + 1] = s[head:]
        U[-1, 0::2], U[-1, 1::2] = last[:-1], last[1:]
    if full:
        SbT = Sb.T
        if w:
            np.matmul(U[:-1], F, out=X[1:])
            carry = np.empty(dim)
            for x, nxt in zip(X, X[1:]):  # views made as needed: a list of them raised peak RSS
                x.dot(SbT, out=carry)  # the bits of x @ SbT, with less call overhead
                nxt += carry
        else:
            for x, nxt in zip(X, X[1:]):
                x.dot(SbT, out=nxt)
    if len(D):
        out[...] = (XU @ W).reshape(-1, len(D))[: n + 1].T
    return St @ X[-1] + U[-1, : w * t] @ F[w * (b - t) :]


@_keeps
def _wave_parts(grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """The wave's one-step matrix S with pinned walls, and the trace row D.

    S acts on the velocity-basis state x = (u, v), v = (u - u_prev)/dt:
    u' = u + dt v + c2 L u and v' = v + (c2/dt) L u at interior nodes, L
    the second difference, and u' = 0, v' = -u/dt at the walls, which is
    what the stepped update leaves there. Its entries are assembled from
    these formulas: taken from _leap on the columns of the identity, they
    differ by up to 2.2e-14, and a forward run through them fails the
    round trip of 1e4 steps forward and back at nx 20, cfl 0.005 (5.6e-12
    against 8.2e-13, gate 1e-12); the observer's step advances its wave by
    this S too. D x is the left Neumann trace of u. Kept for the process
    per grid (_keeps).
    """
    nx1, dt, c2 = grid.nx + 1, grid.dt, grid.cfl * grid.cfl
    S = np.zeros((2 * nx1, 2 * nx1))
    u = np.arange(1, nx1 - 1)
    v = u + nx1
    S[u, u], S[u, u - 1], S[u, u + 1], S[u, v] = 1.0 - 2.0 * c2, c2, c2, dt
    S[v, u], S[v, u - 1], S[v, u + 1], S[v, v] = -2.0 * c2 / dt, c2 / dt, c2 / dt, 1.0
    walls = np.array([0, nx1 - 1])
    S[walls + nx1, walls] = -1.0 / dt
    D = np.zeros((1, 2 * nx1))
    D[0, :nx1] = neumann_trace(np.eye(nx1), grid.dx)
    return S, D


def _to_velocity_basis(u_prev: np.ndarray, u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """The state x = (u, v), v = (u - u_prev)/dt, that _wave_parts' S acts on."""
    return np.concatenate([u, (u - u_prev) / grid.dt])


def _from_velocity_basis(x: np.ndarray, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """The level pair (u_prev, u) of the velocity-basis state x: u, and u - dt v before it."""
    u = x[: grid.nx + 1]
    return u - grid.dt * x[grid.nx + 1 :], u


def _turned_wave(x: np.ndarray, grid: Grid1D) -> np.ndarray:
    """The turn of a velocity-basis state, or of a matrix of one state per column.

    u stays and the continuation level becomes the level before it, which
    makes forward-then-backward runs retrace the discrete trajectory
    exactly (zero forcing, matching boundary data).
    """
    u_prev, u = _from_velocity_basis(x, grid)
    return _to_velocity_basis(_continuation_level(u_prev, u, grid), u, grid)


def run_homogeneous(
    q0: np.ndarray, grid: Grid1D, n_steps: int, q: np.ndarray | None = None, omega: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Run from (q0, 0) with homogeneous Dirichlet walls.

    Free evolution, or with q given, forced by q(x) cos(omega t). Returns
    the final velocity-basis state x = (u, (u - u_prev)/dt), whose first
    nx + 1 entries are the field, and the left Neumann trace at every
    visited node (n_steps + 1 values including the initial one). n_steps
    must be a non-negative integer (ValueError otherwise). The run is the
    recurrence x <- S x + B (s_k, s_k+1) of _wave_parts from the
    velocity-basis start of init_leapfrog, evaluated by _run_recurrence:
    the forcing enters as s_k = cos(omega k dt) through the input column
    (dt^2 q, dt q) on interior nodes. A free run passes B with no columns,
    so it carries no inputs at all.
    """
    _check_integer("n_steps", n_steps, 0)
    S, D = _wave_parts(grid)
    nx1, dt = grid.nx + 1, grid.dt
    B = np.zeros((2 * nx1, 0 if q is None else 2))
    s = np.zeros(n_steps + 1)
    if q is not None:
        B[1 : nx1 - 1, 0] = dt * dt * q[1:-1]
        B[nx1 + 1 : -1, 0] = dt * q[1:-1]
        s = np.cos(omega * np.arange(n_steps + 1) * dt)
    traces = np.empty((1, n_steps + 1))
    x = _run_recurrence(S, B, D, init_leapfrog(q0, q, grid), s, traces)
    return x, traces[0]
