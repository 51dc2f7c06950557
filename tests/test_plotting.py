import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecast.anchoring import AnchorPolicy
from curvecast.controller import RunConfig, run_stream
from curvecast.model import ObservationSeries
from curvecast.plotting import render_svg
from curvecast.synth import NoiseSpec, SynthSpec, generate_series
from curvecast.trace import LearningTrace

from conftest import REFERENCE_FIT, exact_series_points, steep_params
from oracles import naive_render_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def run_state():
    state = run_stream(RunConfig(tau=6.5), exact_series_points(REFERENCE_FIT, 25))
    assert state.stopped
    return state


def test_structural_elements(run_state):
    markers = {"working": run_state.wposition, "convergence": run_state.cposition}
    svg = render_svg(run_state.trace, run_state.series,
                     selected=run_state.selected_trend, markers=markers)
    assert svg.startswith("<?xml")
    assert '<line class="axis"' in svg
    assert '<path class="trend"' in svg
    assert '<line class="asymptote"' in svg
    assert svg.count('<circle class="obs"') == len(run_state.series)
    assert svg.count('<line class="marker"') == 2
    assert "</svg>" in svg


def test_single_trend_without_observations():
    donor = run_stream(RunConfig(tau=0.0), exact_series_points(REFERENCE_FIT, 3))
    trace = donor.trace
    empty = ObservationSeries(())
    svg = render_svg(trace, empty)
    assert svg.count("<path") == 1
    assert '<circle class="obs"' not in svg
    assert svg == naive_render_svg(trace, empty)


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        render_svg(LearningTrace(), ObservationSeries(()))


def test_marker_labels_are_escaped(run_state):
    label = "R&D <v2>"
    svg = render_svg(run_state.trace, run_state.series,
                     markers={label: run_state.cposition})
    root = ET.fromstring(svg.encode("utf-8"))
    texts = [t.text for t in root.iter(SVG_NS + "text")
             if t.get("class") == "marker-label"]
    assert texts == [label]


@st.composite
def plotted_runs(draw):
    """A short noisy run under a drawn config, plus the arguments of one
    ``render_svg`` call on it."""
    count = draw(st.integers(3, 20))
    true = steep_params(np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1))))
    points = generate_series(SynthSpec(true, count=count,
                                       noise=NoiseSpec("gaussian", sigma=0.05),
                                       seed=draw(st.integers(0, 2 ** 31 - 1)))).points
    # tau of 0 never stops, a huge one stops as soon as a prediction level exists
    tau = draw(st.sampled_from([0.0, 1e9]))
    config = RunConfig(tau=tau, anchor_policy=AnchorPolicy(
        mode=draw(st.sampled_from(["none", "canonical"]))))
    state = run_stream(config, points)
    milestones = {"working": state.wposition, "prediction": state.pposition,
                  "convergence": state.cposition, "R&D <v2>": points[-1].position}
    labels = draw(st.lists(st.sampled_from(sorted(milestones)), unique=True))
    markers = {k: milestones[k] for k in labels if milestones[k] is not None}
    levels = sorted(state.trace.trends)
    selected = draw(st.one_of(st.none(), st.sampled_from(levels)))
    series = state.series
    if draw(st.booleans()):
        series = ObservationSeries(())
    return (state.trace, series,
            None if selected is None else state.trace.trends[selected], markers or None)


@settings(max_examples=30, deadline=None)
@given(plotted_runs())
def test_render_matches_scalar_reference(run):
    trace, series, selected, markers = run
    assert render_svg(trace, series, selected=selected, markers=markers) == \
        naive_render_svg(trace, series, selected=selected, markers=markers)

