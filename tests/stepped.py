"""The stepped wave reference: the leapfrog advanced one level per call, and its turn.

bfwave runs the wave as one blocked linear recurrence (leapfrog.run_homogeneous)
and turns velocity-basis states (leapfrog._turned_wave). step advances a
LeapfrogState by one _leap update with Dirichlet data at x=0 and a pinned
right wall, and reversed_state turns a LeapfrogState around, so the tests
can compare the blocked runs, the turn and the round trips with the scheme
taken one node at a time; the float64 stepped loops of
scripts/extended_reference.py take step's scheme.
"""

from bfwave.grid import Grid1D
from bfwave.leapfrog import LeapfrogState, _leap, continuation_level


def step(state: LeapfrogState, left_bc_next: float, grid: Grid1D) -> LeapfrogState:
    """Advance one unforced step; the new level gets left_bc_next at x=0 and 0 at x=1."""
    un = _leap(state.u_prev, state.u_curr, grid.cfl * grid.cfl)
    un[0] = left_bc_next
    un[-1] = 0.0
    return LeapfrogState(u_prev=state.u_curr, u_curr=un)


def reversed_state(state: LeapfrogState, grid: Grid1D) -> LeapfrogState:
    """Turn the trajectory around at u_curr.

    The previous level of the reversed state is the forward continuation of
    the old one, which makes forward-then-backward sweeps retrace the
    discrete trajectory exactly (zero forcing, matching boundary data).
    """
    return LeapfrogState(u_prev=continuation_level(state, grid), u_curr=state.u_curr.copy())
