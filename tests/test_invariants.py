"""Physics relations that any correct implementation keeps.

The replaced-code oracles elsewhere pin today's order of float operations;
the relations here hold for any implementation of the same model, so they
still guard a change that is allowed to move bits within a stated tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import benchmarks as bm
from gridres.frequency import (DisturbanceEvent, DroopCurve, RatedDroopCurve,
                               simulate_disturbance)

# Largest |(f+ - f_n) + (f- - f_n)| measured over H 2-5 s and |dP| 0.05-0.16:
# 0.0 Hz with no fleet, 7.1e-15 Hz (one ulp at 50 Hz) with the benchmark
# fleet, 5.0e-14 Hz with drawn symmetric curves. Scaling the over-frequency
# containment demand by 0.999 moves it to 4.7e-5 Hz with the benchmark
# fleet and to 1e-2 Hz with none.
MIRROR_TOL_HZ = 1e-12


@st.composite
def symmetric_fleets(draw):
    """No fleet, the benchmark fleet, or one curve that is odd about f_n."""
    kind = draw(st.sampled_from(["none", "benchmark", "drawn"]))
    if kind == "none":
        return []
    if kind == "benchmark":
        return bm.benchmark_droop_fleet()
    dead_band, reach = draw(st.floats(0.0, 0.05)), draw(st.floats(0.1, 1.0))
    p_nominal, swing = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    curve = DroopCurve(f_n=50.0, dead_band_half_width=dead_band, p_nominal=p_nominal,
                       p_max=p_nominal + swing, f_min=50.0 - dead_band - reach,
                       p_min=p_nominal - swing, f_max=50.0 + dead_band + reach)
    return [RatedDroopCurve(curve=curve, rating_mw=draw(st.floats(0.0, 100.0)))]


class TestFrequencyMirror:
    @given(h_sys_s=st.floats(2.0, 5.0), size=st.floats(0.05, 0.16),
           fleet=symmetric_fleets())
    @settings(max_examples=12, deadline=None)
    def test_flipping_the_step_mirrors_the_deviation(self, h_sys_s, size, fleet):
        # Droop curves, containment and restoration reserves are all odd in
        # the deviation from f_n, so a load loss retraces a generation loss
        # of the same size reflected about f_n.
        under, over = (simulate_disturbance(
            bm.benchmark_system(h_sys_s), DisturbanceEvent(t_event_s=1.0, delta_p_pu=dp),
            bm.benchmark_fcr(), bm.benchmark_secondary(), fleet, horizon_s=120.0).f - 50.0
            for dp in (-size, size))
        assert np.abs(under + over).max() <= MIRROR_TOL_HZ
