"""The latent halo: the only latent entries a subsystem evaluation reads.

Micro steps reconstruct latent values on the halo alone, so the active rows
of f (and the active block of its Jacobian, analytic or by finite
differences) must not depend on any latent entry outside it, down to the last
bit.  Both operations only read the context's latent entries.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrbdf2.benchmarks import burgers_riemann, inverter_chain, linear_advection, reaction_diffusion
from mrtrbdf2.ode_problem import (ActivePartition, EvalCounter, eval_subsystem_rhs, latent_halo,
                                  subsystem_jacobian)

M = 12
BANDED = {
    "inverter_chain": inverter_chain(m=M).problem,
    "reaction_diffusion": reaction_diffusion(n_cells=M).problem,
    "burgers_riemann": burgers_riemann(n_cells=M).problem,
}
# the same problems with their Jacobians formed by finite differences
FD_TWINS = {f"{name}_fd": replace(p, jacobian=None) for name, p in BANDED.items()}

states = st.lists(st.floats(-10.0, 10.0), min_size=M, max_size=M).map(np.array)
active_sets = st.lists(st.integers(0, M - 1), min_size=1, max_size=M, unique=True).map(sorted)
junk = st.floats(-1e6, 1e6)


@pytest.mark.parametrize("name", sorted(BANDED) + sorted(FD_TWINS))
@settings(max_examples=60, deadline=None)
@given(y=states, active=active_sets, t=st.floats(0.0, 20.0), data=st.data())
def test_rhs_and_jacobian_ignore_latent_entries_outside_the_halo(name, y, active, t, data):
    problem = {**BANDED, **FD_TWINS}[name]
    part = ActivePartition(M, active)
    outside = np.ones(M, dtype=bool)
    outside[part.indices] = False
    outside[latent_halo(problem, part)] = False
    other = y.copy()
    other[outside] = data.draw(st.lists(junk, min_size=int(outside.sum()),
                                        max_size=int(outside.sum())))
    x = y[part.indices]
    latent = part.complement().indices
    before = [ctx[latent].tobytes() for ctx in (y, other)]
    # each provider is called before the generator moves on to the next context
    f, f_other = (eval_subsystem_rhs(problem, t, x, lambda s: ctx, part, EvalCounter())
                  for ctx in (y, other))
    assert f.tobytes() == f_other.tobytes()
    jac, jac_other = (subsystem_jacobian(problem, t, x, lambda s: ctx, part, EvalCounter())
                      for ctx in (y, other))
    assert jac.tobytes() == jac_other.tobytes()
    assert [ctx[latent].tobytes() for ctx in (y, other)] == before


@settings(max_examples=30, deadline=None)
@given(active=active_sets)
def test_without_a_bandwidth_every_latent_component_is_halo(active):
    problem = linear_advection(n_cells=M).problem
    assert problem.bandwidth is None
    part = ActivePartition(M, active)
    assert np.array_equal(latent_halo(problem, part), part.complement().indices)


def test_halo_follows_the_declared_band():
    part = ActivePartition(M, [0, 3, 4, 9, 11])
    # inverter i is driven by i - 1 only: (kl, ku) = (1, 0)
    assert latent_halo(BANDED["inverter_chain"], part).tolist() == [2, 8, 10]
    # (1, 1) stencils read both neighbours
    assert latent_halo(BANDED["burgers_riemann"], part).tolist() == [1, 2, 5, 8, 10]
    assert latent_halo(BANDED["burgers_riemann"], ActivePartition.full(M)).size == 0
