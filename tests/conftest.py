import math

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ehwf.model import UserEnv

# Property suites call the full solver, whose time varies wildly with the
# drawn instance; wall-clock deadlines just make them flaky.  A failure
# prints its @reproduce_failure blob, so a draw-dependent one can be
# replayed without hunting for its --hypothesis-seed.
settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow],
    print_blob=True)
settings.load_profile("suite")

finite_energy = st.floats(min_value=0.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)
# blocked channel or a plain fading draw; gains between 0 and 1e-6 would
# only exercise float-range pathologies no instance generator produces
finite_gain = st.one_of(st.just(0.0),
                        st.floats(min_value=1e-6, max_value=20.0))


@st.composite
def user_envs(draw, max_slots=12, allow_inf_caps=True):
    """A random single-user instance; caps occasionally infinite."""
    k = draw(st.integers(min_value=1, max_value=max_slots))
    harvest = draw(st.lists(finite_energy, min_size=k, max_size=k))
    gain = draw(st.lists(finite_gain, min_size=k, max_size=k))
    bmax = draw(st.floats(min_value=0.1, max_value=40.0))
    pmax = draw(st.floats(min_value=0.1, max_value=30.0))
    if allow_inf_caps and draw(st.booleans()):
        pmax = math.inf
    return UserEnv(harvest=np.array(harvest), gain=np.array(gain),
                   battery_max=bmax, power_max=pmax)
