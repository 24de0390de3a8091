"""The stepped wave reference: the leapfrog advanced one level per call, and its turn.

bfwave runs the wave as one blocked linear recurrence (leapfrog.run_homogeneous)
and turns velocity-basis states (leapfrog._turned_wave). step advances a
level pair (u_prev, u_curr), two plain arrays, by one _leap update with
Dirichlet data at x=0 and a pinned right wall, and reversed_state turns a
level pair around, so the tests can compare the blocked runs, the turn and
the round trips with the scheme taken one node at a time; the float64
stepped loops of scripts/extended_reference.py take step's scheme. A
velocity-basis state's pair is leapfrog._from_velocity_basis(x, grid).
"""

from bfwave.grid import Grid1D
from bfwave.leapfrog import _continuation_level, _leap


def step(levels: tuple, left_bc_next: float, grid: Grid1D) -> tuple:
    """Advance (u_prev, u_curr) one unforced step; the new level is left_bc_next at x=0, 0 at 1."""
    u_prev, u_curr = levels
    un = _leap(u_prev, u_curr, grid.cfl * grid.cfl)
    un[0] = left_bc_next
    un[-1] = 0.0
    return u_curr, un


def reversed_state(levels: tuple, grid: Grid1D) -> tuple:
    """Turn the trajectory of the pair (u_prev, u_curr) around at u_curr.

    The previous level of the reversed pair is the forward continuation of
    the old one, which makes forward-then-backward sweeps retrace the
    discrete trajectory exactly (zero forcing, matching boundary data).
    """
    u_prev, u_curr = levels
    return _continuation_level(u_prev, u_curr, grid), u_curr.copy()
