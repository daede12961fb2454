import numpy as np
import pytest
from hypothesis import settings

from ymwaves import AnsatzParams, ColorVector, SpacetimePoint, field_strength

# No per-example deadline for any @given test: an example's wall time on a
# loaded host says nothing about the property under test.
settings.register_profile("ymwaves", deadline=None)
settings.load_profile("ymwaves")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_params(rng, spread=3.0, freq=3.0, min_scale=0.2):
    """A generic, almost surely non-solution parameter set.

    |k|, |omega| and |g| are kept away from zero so that admissibility
    (g != 0) and the frequency scales of error budgets are meaningful.
    """
    a = rng.uniform(-spread, spread, size=5)
    sign = lambda: rng.choice([-1.0, 1.0])
    return AnsatzParams(
        alpha1=float(a[0]), alpha2=float(a[1]), alpha3=float(a[2]),
        alpha4=float(a[3]), alpha5=float(a[4]),
        lam=float(rng.uniform(-freq, freq)),
        k=float(rng.uniform(min_scale, freq) * sign()),
        omega=float(rng.uniform(min_scale, freq) * sign()),
        g=float(rng.uniform(min_scale, 2.0) * sign()),
    )


def random_point(rng, box=2.0):
    t, x, y, z = rng.uniform(-box, box, size=4)
    return SpacetimePoint(t=float(t), x=float(x), y=float(y), z=float(z))


def numeric_e_and_b(p, s):
    """The numeric E and B at s, read off field_strength: E_i = F_0i and
    B = (-F_23, -F_31, -F_12)."""
    f = field_strength(p, s)
    return ColorVector(f[0][1], f[0][2], f[0][3]), ColorVector(-f[2][3], -f[3][1], -f[1][2])
