"""Bundled benchmark scenarios.

Small, fully documented fixtures used by the test suite, the CLI
examples and the calibration studies:

- a reference disturbance on a 100 MVA aggregate system,
- the two-feeder distribution network whose configurations reproduce the
  three DER-induced protection misoperations,
- a 30-bus, 10-area restoration scenario with three grid-forming seeds
  and a comm node on every bus, laid out so that small comm cells need
  battery-backed relays to advance while large cells can monitor dead
  neighbor areas directly.

All numbers here are calibration choices of this toolkit, not measured
grid data.
"""

from .blackstart import (AreaSwitch, BusPoint, CommNode, DerAsset,
                         DerCapability, LoadAsset, RestorationScenario,
                         SyncPolicy)
from .frequency import (DisturbanceEvent, DroopCurve, FcrProduct,
                        RatedDroopCurve, SecondaryReserve, SystemParameters)
from .protection import (Breaker, DerSource, ExternalSource, FaultScenario,
                         Line, LoadPoint, RadialNetwork)

# ---------------------------------------------------------------------------
# Frequency benchmark: 0.1 pu generation loss on a 100 MVA system.
# ---------------------------------------------------------------------------

BENCHMARK_DELTA_P_PU = -0.1


def benchmark_system(h_sys_s: float = 5.0) -> SystemParameters:
    return SystemParameters(f_n=50.0, s_base_mva=100.0, h_sys_s=h_sys_s,
                            damping_pu_per_hz=0.01, band_half_width_hz=0.5)


def benchmark_event(t_event_s: float = 1.0) -> DisturbanceEvent:
    return DisturbanceEvent(t_event_s=t_event_s, delta_p_pu=BENCHMARK_DELTA_P_PU)


def benchmark_droop_fleet() -> list[RatedDroopCurve]:
    curve = DroopCurve(f_n=50.0, dead_band_half_width=0.02, p_nominal=0.5,
                       p_max=1.0, f_min=49.5, p_min=0.0, f_max=50.5)
    return [RatedDroopCurve(curve=curve, rating_mw=60.0)]


def benchmark_fcr() -> FcrProduct:
    return FcrProduct(capacity_mw=10.0)


def benchmark_secondary() -> SecondaryReserve:
    return SecondaryReserve(capacity_mw=20.0, full_activation_time_s=300.0,
                            sustain_duration_s=900.0)


# ---------------------------------------------------------------------------
# Two-feeder protection benchmark.
#
#   SRC --L0(C)-- MAIN --L1(A)-- F1A --L2-- F1B     (feeder 1, faulted)
#                      \--L3(B)-- F2A --L4-- F2B    (feeder 2, healthy)
#
# DER unit A sits at F1A between breaker A and the fault, DER unit B at
# the end of the healthy feeder. With the bolted mid-L2 fault the grid
# alone drives 1.0 / (0.05 + 0.05 + 0.10 + 0.05) = 4.0 pu through A and
# C. Breakers A and B share the 3.8 pu setting (between the blinded 3.6
# pu and the clean 4.0 pu), C tolerates 8.0 pu.
# ---------------------------------------------------------------------------

TWO_FEEDER_SETTINGS = {"A": 3.8, "B": 3.8, "C": 8.0}


def two_feeder_network(der_a_injection_pu: float = 0.0,
                       der_b_injection_pu: float = 0.0,
                       source_available: bool = True) -> RadialNetwork:
    """The two-feeder study network; injections of 0 disable a DER."""
    return RadialNetwork(
        buses=("SRC", "MAIN", "F1A", "F1B", "F2A", "F2B"),
        lines=(
            Line("L0", "SRC", "MAIN", 0.05),
            Line("L1", "MAIN", "F1A", 0.10),
            Line("L2", "F1A", "F1B", 0.10),
            Line("L3", "MAIN", "F2A", 0.10),
            Line("L4", "F2A", "F2B", 0.10),
        ),
        source=ExternalSource(bus="SRC", voltage_pu=1.0, impedance_pu=0.05,
                              available=source_available),
        ders=(
            DerSource("DER_A", "F1A", abs(der_a_injection_pu),
                      injecting=der_a_injection_pu > 0),
            DerSource("DER_B", "F2B", abs(der_b_injection_pu),
                      injecting=der_b_injection_pu > 0),
        ),
        breakers=(
            Breaker("A", "L1", TWO_FEEDER_SETTINGS["A"], delay_s=0.1),
            Breaker("B", "L3", TWO_FEEDER_SETTINGS["B"], delay_s=0.1),
            Breaker("C", "L0", TWO_FEEDER_SETTINGS["C"], delay_s=0.3),
        ),
        loads=(LoadPoint("F1B", 0.2), LoadPoint("F2B", 0.2)),
    )


def two_feeder_fault() -> FaultScenario:
    """Bolted fault halfway down the faulted feeder's tail line."""
    return FaultScenario(element_kind="line", element_id="L2",
                         impedance_pu=0.0, position=0.5)


# ---------------------------------------------------------------------------
# Restoration benchmark: 30 buses in 10 switch-delimited areas on a
# 5 x 2 layout. Areas are 4.4 km apart center to center with three
# buses 1.4 km apart inside each, so neighboring boundary buses sit
# 1.6 km apart: a 2 km cell reaches the neighbor's nearest node (battery
# relays can advance the restoration area by area) while covering a
# whole dead area remotely needs roughly a 4.4 km cell.
# ---------------------------------------------------------------------------

AREA_SPACING_KM = 4.4
BUS_OFFSET_KM = 1.4


def benchmark_restoration_scenario() -> RestorationScenario:
    buses = []
    loads = []
    ders = []
    comm = []
    areas = []
    for col in range(5):
        for row in range(2):
            area = f"A{col}{row}"
            areas.append(area)
            cx, cy = AREA_SPACING_KM * col, AREA_SPACING_KM * row
            for k, dx in enumerate((-BUS_OFFSET_KM, 0.0, BUS_OFFSET_KM)):
                bus = f"{area}b{k}"
                buses.append(BusPoint(id=bus, x_km=cx + dx, y_km=cy, area=area))
                comm.append(CommNode(bus=bus, has_battery=True,
                                     battery_kwh=5.0, drain_kw=0.5,
                                     cell_radius_km=2.0))
            loads.append(LoadAsset(bus=f"{area}b0", demand_mw=1.0, critical=True))
            loads.append(LoadAsset(bus=f"{area}b1", demand_mw=2.5))
            loads.append(LoadAsset(bus=f"{area}b2", demand_mw=3.0))

    formers = {"A00": 8.0, "A21": 8.0, "A40": 8.0}
    for area, mw in formers.items():
        ders.append(DerAsset(id=f"gf_{area}", bus=f"{area}b1",
                             capability=DerCapability.GRID_FORMING,
                             capacity_mw=mw))
        ders.append(DerAsset(id=f"pv_{area}", bus=f"{area}b2",
                             capability=DerCapability.GRID_FEEDING,
                             capacity_mw=1.5))
    for area in areas:
        if area in formers:
            continue
        ders.append(DerAsset(id=f"chp_{area}", bus=f"{area}b1",
                             capability=DerCapability.GRID_SUPPORTING,
                             capacity_mw=4.0, aux_power_mw=0.2))
    for area in ("A10", "A30"):
        ders.append(DerAsset(id=f"pv_{area}", bus=f"{area}b2",
                             capability=DerCapability.GRID_FEEDING,
                             capacity_mw=2.0))

    switches = []
    for col in range(5):
        for row in range(2):
            if col < 4:
                switches.append(AreaSwitch(f"sw_{col}{row}_{col + 1}{row}",
                                           f"A{col}{row}", f"A{col + 1}{row}"))
            if row == 0:
                switches.append(AreaSwitch(f"sw_{col}0_{col}1",
                                           f"A{col}0", f"A{col}1"))

    return RestorationScenario(
        buses=tuple(buses), loads=tuple(loads), ders=tuple(ders),
        switches=tuple(switches), comm=tuple(comm),
        sync_policy=SyncPolicy(max_phase_shift_rad=0.2, max_freq_diff_hz=0.01))
