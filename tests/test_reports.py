import json

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecast.anchoring import AnchorPolicy
from curvecast.controller import RunConfig, run_stream
from curvecast.model import Observation, ObservationSeries
from curvecast.reports import (
    ObservationFileError,
    build_run_report,
    format_observations,
    load_report_schema,
    parse_observations,
    read_observations,
    report_to_csv,
    report_to_json,
)
from curvecast.synth import NoiseSpec, SynthSpec, generate_series
from curvecast.trace import convergence_layer_bounded

from conftest import REFERENCE_FIT, SERIES_BUILDS, exact_series_points, steep_params


def _finished_state():
    points = generate_series(SynthSpec(REFERENCE_FIT, count=30,
                                       noise=NoiseSpec("gaussian", sigma=0.05),
                                       seed=4)).points
    config = RunConfig(tau=6.0, anchor_policy=AnchorPolicy(mode="canonical"),
                       end_position=10 ** 6)
    state = run_stream(config, points)
    assert state.stopped
    return state


@pytest.fixture
def finished_state():
    return _finished_state()


@pytest.fixture(scope="module")
def finished_report():
    return build_run_report(_finished_state(), predict_at=[300000, 2.5e5 + 0.5])


class TestObservationFiles:
    def test_roundtrip_is_byte_stable(self):
        series = generate_series(SynthSpec(REFERENCE_FIT, count=12))
        text = format_observations(series)
        parsed = parse_observations(text)
        assert [obs.position for obs in parsed] == series.positions.tolist()
        assert format_observations(ObservationSeries(parsed)) == text

    def test_same_text_for_every_build(self):
        points = exact_series_points(REFERENCE_FIT, count=7)
        texts = {name: format_observations(build(points))
                 for name, build in SERIES_BUILDS.items()}
        assert len(set(texts.values())) == 1
        assert texts["constructor"].splitlines()[:2] == ["position,accuracy", "5000,78.644679"]

    def test_header_required(self):
        with pytest.raises(ObservationFileError, match="^expected header 'position,accuracy'$"):
            parse_observations("pos,acc\n5000,90.0\n")

    def test_rejects_unsorted_positions(self):
        with pytest.raises(ObservationFileError,
                           match="^line 3: position 5000 not greater than 10000$"):
            parse_observations("position,accuracy\n10000,90.0\n5000,91.0\n")

    def test_rejects_duplicate_positions(self):
        with pytest.raises(ObservationFileError,
                           match="^line 3: position 5000 not greater than 5000$"):
            parse_observations("position,accuracy\n5000,90.0\n5000,91.0\n")

    def test_rejects_out_of_range_accuracy(self):
        with pytest.raises(ObservationFileError, match=r"^line 2: accuracy must be in \(0, 100\]"):
            parse_observations("position,accuracy\n5000,0.0\n")
        with pytest.raises(ObservationFileError, match="^line 3: accuracy must be in"):
            parse_observations("position,accuracy\n5000,90.0\n10000,100.01\n")
        # Blank lines count: the message names the row's own file line.
        with pytest.raises(ObservationFileError, match="^line 5: accuracy must be in"):
            parse_observations("position,accuracy\n5000,90\n\n\n10000,0.0\n")

    def test_rejects_malformed_rows(self):
        with pytest.raises(ObservationFileError, match="^line 2: expected two columns$"):
            parse_observations("position,accuracy\n5000\n")
        with pytest.raises(ObservationFileError, match="^line 2: invalid literal for int"):
            parse_observations("position,accuracy\nfive,90.0\n")
        # A row the Observation constructor rejects names its line too.
        with pytest.raises(ObservationFileError,
                           match=r"^line 3: position must be an integer in \[1, 2\*\*63\)"):
            parse_observations(f"position,accuracy\n5000,90.0\n{2**63},91.0\n")

    def test_header_only_file_parses_to_no_observations(self):
        assert parse_observations("position,accuracy\n") == ()

    def test_byte_order_mark_reads_as_the_same_rows(self, tmp_path):
        # Spreadsheet programs save "CSV UTF-8" with a leading byte-order mark.
        rows = "position,accuracy\n5000,90\n10000,91.5\n".encode("utf-8")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(rows)
        marked.write_bytes(b"\xef\xbb\xbf" + rows)
        assert read_observations(marked) == read_observations(plain) == (
            Observation(5000, 90.0), Observation(10000, 91.5))

    def test_parses_to_a_tuple_of_the_checked_observations(self):
        parsed = parse_observations("position,accuracy\n5000,90.5\n\n 10000 , 91.25\n")
        assert parsed == (Observation(5000, 90.5), Observation(10000, 91.25))
        assert type(parsed) is tuple and all(type(obs) is Observation for obs in parsed)


class TestRunReport:
    def test_validates_against_shipped_schema(self, finished_state):
        report = build_run_report(finished_state, predict_at=[300000, 500000])
        jsonschema.validate(report, load_report_schema())

    def test_schema_also_accepts_unstopped_runs(self):
        state = run_stream(RunConfig(tau=0.0), exact_series_points(REFERENCE_FIT, 10))
        report = build_run_report(state)
        jsonschema.validate(report, load_report_schema())
        assert report["summary"]["clevel"] is None
        assert report["summary"]["predicted_accuracy_at"] == {}

    def test_integer_tau_is_reported_as_a_number(self):
        # A bool tau is rejected by RunConfig; an int is a threshold.
        state = run_stream(RunConfig(tau=1), exact_series_points(REFERENCE_FIT, 5))
        report = build_run_report(state)
        jsonschema.validate(report, load_report_schema())
        assert type(report["config"]["tau"]) is int and report["summary"]["tau"] == 1

    def test_milestone_flags(self, finished_state):
        report = build_run_report(finished_state)
        flagged = {f: row["level"] for row in report["levels"] for f in row["flags"]}
        assert flagged["working"] == finished_state.wlevel
        assert flagged["prediction"] == finished_state.plevel
        assert flagged["convergence"] == finished_state.clevel

    def test_six_decimal_display(self, finished_state):
        report = build_run_report(finished_state)
        for row in report["levels"]:
            for key in ("a", "b", "c", "layer", "layer_bounded"):
                value = row[key]
                if value is not None:
                    assert value == round(value, 6)

    def test_layer_bounded_null_without_horizon(self):
        state = run_stream(RunConfig(tau=1e9), exact_series_points(REFERENCE_FIT, 10))
        report = build_run_report(state)
        assert all(row["layer_bounded"] is None for row in report["levels"])

    @pytest.mark.parametrize("observation, tau, nulls", [
        (11, 6.0, 15),  # stops at level 25, past the horizon
        (30, 0.1, 0),  # stops at level 29, before it
        (30, 0.0, 1),  # never stops
    ])
    def test_layer_bounded_null_from_the_horizon_on(self, observation, tau, nulls):
        # the horizon is the position of the given observation
        points = generate_series(SynthSpec(REFERENCE_FIT, count=30,
                                           noise=NoiseSpec("gaussian", sigma=0.05),
                                           seed=4)).points
        end = points[observation - 1].position
        state = run_stream(RunConfig(tau=tau, anchor_policy=AnchorPolicy(mode="canonical"),
                                     end_position=end), points)
        report = build_run_report(state)
        rows = report["levels"]
        for row in rows:
            if row["position"] >= end:
                assert row["layer_bounded"] is None
            else:
                trend = state.trace.trends[row["level"]]
                assert row["layer_bounded"] == round(convergence_layer_bounded(trend, end), 6)
        assert sum(row["layer_bounded"] is None for row in rows) == nulls
        assert state.stopped == (tau > 0.0)
        if state.stopped:
            selected = next(row for row in rows if row["level"] == state.clevel)
            bounded = selected["layer_bounded"]
            assert report["summary"]["stopping_layer"] == (
                selected["layer"] if bounded is None else bounded)
        else:
            assert "stopping_layer" not in report["summary"]

    def test_anchored_column_tracks_working_level(self, finished_state):
        report = build_run_report(finished_state)
        for row in report["levels"]:
            assert row["anchored"] == (row["level"] > finished_state.wlevel)

    def test_json_serialization_deterministic(self, finished_state):
        report = build_run_report(finished_state, predict_at=[300000])
        assert report_to_json(report) == report_to_json(
            build_run_report(finished_state, predict_at=[300000]))

    def test_json_parses_back(self, finished_state):
        text = report_to_json(build_run_report(finished_state))
        parsed = json.loads(text)
        assert parsed["summary"]["clevel"] == finished_state.clevel

    def test_csv_flattens_levels(self, finished_state):
        text = report_to_csv(build_run_report(finished_state))
        lines = text.strip().splitlines()
        assert lines[0] == ("level,position,a,b,c,layer,layer_bounded,anchored,converged,"
                            "flags")
        assert len(lines) == 1 + len(finished_state.trace.levels())

    def test_prediction_keys_are_positions(self, finished_state):
        report = build_run_report(finished_state, predict_at=[250000.0])
        assert list(report["summary"]["predicted_accuracy_at"]) == ["250000"]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@st.composite
def finished_runs(draw):
    """A short noisy series run under one drawn config, with the positions
    to predict at."""
    count = draw(st.integers(8, 24))
    true = steep_params(np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1))))
    points = generate_series(SynthSpec(true, count=count,
                                       noise=NoiseSpec("gaussian", sigma=0.05),
                                       seed=draw(st.integers(0, 2 ** 31 - 1)))).points
    # tau of 0 never stops, the true layer mid-series may stop, a huge one
    # stops at the prediction level
    x = points[count // 2].position
    tau = draw(st.sampled_from([0.0, true.a * x ** (-true.b), 1e9]))
    end = draw(st.sampled_from([None, points[count // 3].position, 2 * points[-1].position]))
    config = RunConfig(tau=tau, anchor_policy=AnchorPolicy(
        mode=draw(st.sampled_from(["none", "canonical"]))), end_position=end)
    predict_at = draw(st.lists(st.one_of(
        st.integers(1, 10 ** 9),
        st.floats(1.0, 1e12, allow_nan=False, allow_infinity=False)), max_size=3))
    return run_stream(config, points), predict_at


@settings(max_examples=40, deadline=None)
@given(finished_runs())
def test_every_report_is_schema_valid_strict_json(run):
    state, predict_at = run
    report = build_run_report(state, predict_at=predict_at)
    schema = load_report_schema()
    jsonschema.Draft7Validator(schema).validate(report)
    # Every block, setting and level-row column the writer reports is in
    # the schema, and nothing else.
    assert list(report) == schema["required"]
    assert set(schema["properties"]) == set(schema["required"])
    config = schema["properties"]["config"]
    assert list(report["config"]) == config["required"]
    assert set(config["properties"]) == set(config["required"])
    row = schema["properties"]["levels"]["items"]
    assert all(list(level) == row["required"] for level in report["levels"])
    assert set(row["properties"]) == set(row["required"])
    # no NaN or Infinity anywhere, whichever serializer writes it
    json.loads(json.dumps(report), parse_constant=_no_constant)
    assert json.loads(report_to_json(report), parse_constant=_no_constant) == json.loads(
        json.dumps(report))
    assert report_to_json(report) == _stdlib_json(report)


def _stdlib_json(report):
    return json.dumps(report, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


# Text leaning on what JSON escapes or passes through: quotes, backslashes,
# control characters, newlines and non-ASCII.
_json_strings = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\x00\x7fé€\u2028😀'),
                                  st.characters()), max_size=8)
_json_keys = st.one_of(_json_strings, st.integers(), st.booleans(), st.none(),
                       st.floats(allow_nan=False, allow_infinity=False))
# Floats include NaN and the infinities, which the writer must refuse.
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _json_strings),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_json_keys, children, max_size=4)),
    max_leaves=20)


class TestJsonText:
    """``report_to_json`` writes the stdlib's indented text byte for byte."""

    def test_run_too_short_for_a_level(self):
        state = run_stream(RunConfig(tau=6.0), exact_series_points(REFERENCE_FIT, 2))
        report = build_run_report(state, predict_at=[300000])
        assert report["levels"] == []
        assert report_to_json(report) == _stdlib_json(report)

    def test_no_predictions(self, finished_state):
        report = build_run_report(finished_state)
        assert report["summary"]["predicted_accuracy_at"] == {}
        assert report_to_json(report) == _stdlib_json(report)

    def test_empty_and_full_flags(self, finished_state):
        report = build_run_report(finished_state, predict_at=[300000, 2.5e5 + 0.5])
        report["levels"][0]["flags"] = []
        report["levels"][1]["flags"] = ["working", "prediction", "convergence"]
        assert report_to_json(report) == _stdlib_json(report)

    def test_bounded_layers(self, finished_state):
        report = build_run_report(finished_state, predict_at=[300000])
        assert any(row["layer_bounded"] is not None for row in report["levels"])
        assert report_to_json(report) == _stdlib_json(report)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["config", "level", "prediction"])
    def test_non_finite_value_raises(self, finished_state, where, bad):
        report = build_run_report(finished_state, predict_at=[300000])
        if where == "config":
            report["config"]["tau"] = bad
        elif where == "level":
            report["levels"][-1]["layer"] = bad
        else:
            report["summary"]["predicted_accuracy_at"]["300000"] = bad
        with pytest.raises(ValueError):
            report_to_json(report)

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"],
                             ids=["object", "set", "bytes"])
    def test_value_json_cannot_hold_raises_type_error(self, value):
        # As json.dumps does.
        report = {"config": {"tau": 1.0}, "summary": {"extra": [value]}}
        with pytest.raises(TypeError):
            _stdlib_json(report)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            report_to_json(report)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[-1].update(a="1, 2"),
        lambda rows: rows[-1].pop("c"),
    ])
    def test_level_rows_outside_the_layout_raise(self, finished_state, edit):
        # The row leaves are split out of one C-encoder call, which holds
        # only for rows of the same keys whose leading values are numbers,
        # bools or null.
        report = build_run_report(finished_state)
        edit(report["levels"])
        with pytest.raises(ValueError):
            report_to_json(report)

    @pytest.mark.parametrize("levels", [None, {}, (), 0], ids=["null", "dict", "tuple", "int"])
    def test_levels_that_are_not_a_list_are_written_as_the_stdlib_writes_them(
            self, finished_report, levels):
        report = dict(finished_report, levels=levels)
        assert report_to_json(report) == _stdlib_json(report)

    @settings(max_examples=300, deadline=None)
    @given(config=st.one_of(_json_values, st.dictionaries(_json_keys, _json_values)),
           summary=st.one_of(_json_values, st.dictionaries(_json_keys, _json_values)),
           extend=st.booleans())
    def test_any_config_and_summary_are_written_as_the_stdlib_writes_them(
            self, finished_report, config, summary, extend):
        # The drawn blocks replace the report's, or extend them where both
        # are dicts; keys may be str, int, bool, None or float, as json.dumps
        # takes them.
        report = dict(finished_report, config=config, summary=summary)
        if extend:
            for block in ("config", "summary"):
                if isinstance(report[block], dict):
                    report[block] = {**finished_report[block], **report[block]}
        try:
            expected = _stdlib_json(report)
        except ValueError:  # a non-finite float was drawn
            with pytest.raises(ValueError):
                report_to_json(report)
        else:
            assert report_to_json(report) == expected
