"""Property fuzzing of the analytic system model over profile space.

Hypothesis draws arbitrary-but-plausible application profiles and
asserts the invariants the simulator must satisfy regardless of the
workload: positive finite results, DESC's energy ordering, unchanged
miss paths, and monotone responses to first-order parameters.
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import assume, given, settings, strategies as st

from repro.sim.config import SystemConfig, baseline_scheme, desc_scheme
from repro.sim.system import simulate
from repro.workloads.profiles import AppProfile

SYSTEM = SystemConfig(sample_blocks=600)


@st.composite
def profiles(draw) -> AppProfile:
    return AppProfile(
        name=draw(st.sampled_from(["Ocean", "Radix", "FFT", "LU"])),
        suite="fuzz",
        input_set="fuzz",
        p_null_block=draw(st.floats(0.0, 0.3)),
        p_zero_word=draw(st.floats(0.0, 0.4)),
        p_zero_chunk=draw(st.floats(0.0, 0.3)),
        p_repeat_chunk=draw(st.floats(0.0, 0.6)),
        p_word_repeat=draw(st.floats(0.0, 0.6)),
        instructions=2.0e8,
        l2_apki=draw(st.floats(1.0, 40.0)),
        l2_miss_rate=draw(st.floats(0.05, 0.7)),
        write_fraction=draw(st.floats(0.05, 0.6)),
        cpi_base=draw(st.floats(0.6, 1.6)),
        threads=draw(st.sampled_from([1, 8, 32])),
    )


class TestSimulatorInvariants:
    @settings(max_examples=15, deadline=None)
    @given(app=profiles())
    def test_results_finite_and_positive(self, app):
        result = simulate(app, desc_scheme("zero"), SYSTEM)
        assert math.isfinite(result.cycles) and result.cycles > 0
        assert result.l2_energy_j > 0
        assert result.processor_energy_j > result.l2_energy_j
        assert result.hit_latency > 0
        assert 0 <= result.processor.l2_fraction < 1

    @settings(max_examples=10, deadline=None)
    @given(app=profiles())
    def test_zero_skip_never_loses_to_basic(self, app):
        basic = simulate(app, desc_scheme("none"), SYSTEM)
        skipped = simulate(app, desc_scheme("zero"), SYSTEM)
        assert skipped.l2.htree_dynamic_j <= basic.l2.htree_dynamic_j * 1.001

    @settings(max_examples=10, deadline=None)
    @given(app=profiles())
    def test_desc_never_lengthens_the_miss_path(self, app):
        """DESC is not applied to addresses, so the miss *path* is
        scheme-independent (Section 5.3).  The only remaining coupling
        is DRAM queueing: DESC's slightly slower execution lowers the
        miss arrival rate, so its total miss latency can only be equal
        or lower.  The claim holds away from DRAM saturation — at the
        clamp (rho -> 0.98) the queueing equilibrium is load-determined
        and tiny rate differences swing the wait term, so saturated
        profiles are excluded.
        """
        assume(app.l2_apki * app.l2_miss_rate <= 12.0)
        binary = simulate(app, baseline_scheme("binary"), SYSTEM)
        desc = simulate(app, desc_scheme("zero"), SYSTEM)
        # Small slack: the damped execution-time fixed point leaves a
        # little numeric wobble in the queueing terms.
        assert desc.miss_latency <= binary.miss_latency * 1.05 + 2.0

    @settings(max_examples=10, deadline=None)
    @given(app=profiles())
    def test_more_intense_app_spends_more_l2_energy(self, app):
        lighter = dataclasses.replace(
            app, l2_apki=max(app.l2_apki * 0.25, 0.5)
        )
        heavy = simulate(app, baseline_scheme("binary"), SYSTEM)
        light = simulate(lighter, baseline_scheme("binary"), SYSTEM)
        assert heavy.l2.htree_dynamic_j > light.l2.htree_dynamic_j

    @settings(max_examples=8, deadline=None)
    @given(app=profiles())
    def test_desc_latency_overhead_bounded(self, app):
        """However hostile the workload, DESC's slowdown stays bounded
        (the window is capped at max_chunk_value + 2 per round)."""
        binary = simulate(app, baseline_scheme("binary"), SYSTEM)
        desc = simulate(app, desc_scheme("zero"), SYSTEM)
        assert desc.cycles / binary.cycles < 1.6


class TestCustomProfiles:
    def test_custom_profile_gets_its_own_value_stream(self):
        """Profiles are cache keys by value, not by name: a custom
        profile sharing a registered name must not inherit the
        registered application's block stream."""
        from repro.workloads.profiles import profile

        real = profile("Ocean")
        zero_heavy = dataclasses.replace(
            real, p_null_block=0.9, p_zero_word=0.9, p_zero_chunk=0.9
        )
        normal = simulate(real, desc_scheme("zero"), SYSTEM)
        custom = simulate(zero_heavy, desc_scheme("zero"), SYSTEM)
        assert custom.transfer_stats.data_flips < 0.3 * normal.transfer_stats.data_flips

    def test_unregistered_profile_name_works(self):
        app = AppProfile(
            name="my-workload", suite="custom", input_set="custom",
            p_null_block=0.1, p_zero_word=0.2, p_zero_chunk=0.1,
            p_repeat_chunk=0.3, p_word_repeat=0.3,
            instructions=1e8, l2_apki=15.0, l2_miss_rate=0.3,
            write_fraction=0.3, cpi_base=1.0, threads=32,
        )
        result = simulate(app, desc_scheme("zero"), SYSTEM)
        assert result.cycles > 0
