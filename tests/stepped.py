"""The stepped wave reference: the leapfrog advanced one level per call.

bfwave runs the wave as one blocked linear recurrence (leapfrog.run_homogeneous).
step advances a LeapfrogState by one _leap update with Dirichlet data at x=0
and a pinned right wall, so the tests can compare the blocked runs, the
turn and the round trips with the scheme taken one node at a time, and
scripts/extended_reference.py runs it as its float64 stepped loop.
"""

from bfwave.grid import Grid1D
from bfwave.leapfrog import LeapfrogState, _leap


def step(state: LeapfrogState, left_bc_next: float, grid: Grid1D) -> LeapfrogState:
    """Advance one unforced step; the new level gets left_bc_next at x=0 and 0 at x=1."""
    un = _leap(state.u_prev, state.u_curr, grid.cfl * grid.cfl)
    un[0] = left_bc_next
    un[-1] = 0.0
    return LeapfrogState(u_prev=state.u_curr, u_curr=un)
