import json

import pytest

from curvecast.anchoring import AnchorPolicy
from curvecast.cli import main
from curvecast.controller import RunConfig, run_stream
from curvecast.metrics import percentage_error
from curvecast.model import PowerLawParams, eval_pattern
from curvecast.reports import format_observations, read_observations
from curvecast.synth import NoiseSpec, SynthSpec, generate_series

from conftest import REFERENCE_FIT
from oracles import naive_render_svg

TRUE = PowerLawParams(500.0, 0.45, 96.0)


def make_obs_file(tmp_path, name="obs.csv", true=REFERENCE_FIT, count=30, sigma=0.0,
                  seed=0):
    noise = NoiseSpec("gaussian", sigma=sigma) if sigma else NoiseSpec()
    series = generate_series(SynthSpec(true, count=count, noise=noise, seed=seed))
    path = tmp_path / name
    path.write_text(format_observations(series), encoding="utf-8")
    return path


class TestSimulate:
    def test_prints_csv(self, capsys):
        rc = main(["simulate", "--a", "500", "--b", "0.45", "--c", "96",
                   "--count", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "position,accuracy"
        assert len(out.strip().splitlines()) == 6

    def test_matches_library_generation(self, capsys):
        rc = main(["simulate", "--a", "500", "--b", "0.45", "--c", "96",
                   "--count", "8", "--noise", "gaussian:0.05", "--seed", "9"])
        out = capsys.readouterr().out
        assert rc == 0
        series = generate_series(SynthSpec(TRUE, count=8,
                                           noise=NoiseSpec("gaussian", sigma=0.05),
                                           seed=9))
        assert out == format_observations(series)
        # with no optional flags the CLI uses the library's defaults
        rc = main(["simulate", "--a", "500", "--b", "0.45", "--c", "96"])
        assert rc == 0
        assert capsys.readouterr().out == format_observations(generate_series(SynthSpec(TRUE)))

    def test_theorem_checks_pass_on_ideal_data(self, capsys):
        rc = main(["simulate", "--a", "542.5451", "--b", "0.3838", "--c", "99.2876",
                   "--count", "25", "--noise", "none", "--theorems"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["all_passed"] is True

    def test_clipped_rows_read_back(self, tmp_path, capsys):
        # Noise of sigma 60 drives some values below 0; the generator clips
        # them to a floor the six-decimal writer keeps positive, so the file
        # reads back and runs instead of failing on accuracy 0.
        rc = main(["simulate", "--a", "600", "--b", "0.4", "--c", "95",
                   "--noise", "gaussian:60", "--count", "30", "--seed", "1"])
        obs = tmp_path / "obs.csv"
        obs.write_text(capsys.readouterr().out)
        assert rc == 0
        series = read_observations(obs)
        assert len(series) == 30 and min(series.accuracies) == 1e-6
        rc = main(["run", "--input", str(obs), "--tau", "0.5"])
        captured = capsys.readouterr()
        assert rc in (0, 3) and not captured.err.startswith("error: ")
        assert len(json.loads(captured.out)["levels"]) == 28  # one row per level from 3

    def test_bad_noise_spec_is_input_error(self, capsys):
        rc = main(["simulate", "--a", "1", "--b", "1", "--c", "99",
                   "--noise", "pink:1"])
        assert rc == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize("theorems", [False, True], ids=["series", "theorems"])
    def test_count_below_one_is_input_error(self, capsys, count, theorems):
        rc = main(["simulate", "--a", "500", "--b", "0.45", "--c", "96", "--count", count]
                  + ["--theorems"] * theorems)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: count must be an integer >= 1, got {count}\n"

    @pytest.mark.parametrize("flags", [
        ["--a", "1772", "--b", "0.366", "--c", "74.86"],
        ["--a", "1", "--b", "0.01", "--c", "101"],
        ["--a", "500", "--b", "0.45", "--c", "96", "--kernel", "0"],
        ["--a", "500", "--b", "0.45", "--c", "96", "--kernel", "-5000"],
        ["--a", "500", "--b", "0.45", "--c", "96", "--step", "0"],
        ["--a", "500", "--b", "0.45", "--c", "96", "--step", "-5000"],
        ["--a", "500", "--b", "0.45", "--c", "96", "--kernel", str(2**63 - 1), "--count", "2"],
        ["--a", "500", "--b", "0.45", "--c", "96", "--seed", "-1"],
        ["--a", "500", "--b", "0.45", "--c", "96", "--seed", "-1", "--noise", "gaussian:0.05"],
        ["--a", "500", "--b", "0.45", "--c", "96", "--count", "5", "--noise", "bumps:1:2:4999"],
        ["--a", "500", "--b", "0.45", "--c", "96", "--count", "5", "--noise", "bumps:1:6"],
        ["--a", "500", "--b", "0.45", "--c", "96", "--noise", "gaussian"],
        ["--a", "500", "--b", "0.45", "--c", "96", "--noise", "bumps:1"],
    ], ids=["below-zero-at-the-kernel", "above-100-at-the-end", "kernel-0", "kernel-negative",
            "step-0", "step-negative", "past-int64", "seed-negative", "seed-negative-gaussian",
            "bumps-past-max-position", "bumps-past-the-series", "gaussian-without-sigma",
            "bumps-without-count"])
    @pytest.mark.parametrize("theorems", [False, True], ids=["series", "theorems"])
    def test_unsampleable_spec_is_input_error(self, capsys, flags, theorems):
        # The spec is rejected before any row is printed, instead of
        # printing clipped values. A negative seed used to print a noiseless
        # series and fail in numpy with noise; bumps with no position to go
        # to used to leave the series noiseless.
        rc = main(["simulate", *flags] + ["--theorems"] * theorems)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--kernel", "--step", "--count"])
    def test_float_schedule_is_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--a", "500", "--b", "0.45", "--c", "96", flag, "5e3"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_failed_checks_exit_one(self, capsys, monkeypatch):
        import curvecast.cli as cli
        from curvecast.synth import CheckResult, TheoremReport

        def failing_suite(series, config):
            return TheoremReport(results={
                "backbone_monotone_after_working_level":
                    CheckResult(passed=False, violations=3, checks=10),
            })

        monkeypatch.setattr(cli, "theorem_suite", failing_suite)
        rc = main(["simulate", "--a", "500", "--b", "0.45", "--c", "96",
                   "--count", "10", "--theorems"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["all_passed"] is False


class TestFit:
    def test_prints_params(self, tmp_path, capsys):
        path = make_obs_file(tmp_path)
        rc = main(["fit", "--input", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["a"] == pytest.approx(REFERENCE_FIT.a, rel=1e-4)
        assert payload["converged"] is True

    def test_level_prefix(self, tmp_path, capsys):
        path = make_obs_file(tmp_path)
        rc = main(["fit", "--input", str(path), "--level", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["level"] == 3

    @pytest.mark.parametrize("level", ["-2", "0", "2", "11"])
    def test_level_outside_the_file_is_input_error(self, tmp_path, capsys, level):
        path = make_obs_file(tmp_path, count=10)
        assert main(["fit", "--input", str(path), "--level", level]) == 2
        assert capsys.readouterr().out == ""

    def test_missing_file_is_input_error(self, capsys):
        assert main(["fit", "--input", "/nonexistent.csv"]) == 2

    def test_nonconverged_fit_is_exit_four(self, tmp_path, capsys, monkeypatch):
        import curvecast.cli as cli
        from curvecast.model import LearningTrend

        path = make_obs_file(tmp_path)

        def stuck_fit(points, *args, **kwargs):
            return LearningTrend(series=points, params=PowerLawParams(1.0, 1.0, 99.0),
                                 u_scale=1.0, converged=False, iterations=200)

        monkeypatch.setattr(cli, "fit_power_law", stuck_fit)
        assert main(["fit", "--input", str(path)]) == 4

    def test_flat_series_is_exit_four(self, tmp_path, capsys):
        # a flat series has no increasing curve to fit: the best scale is 0
        flat = tmp_path / "flat.csv"
        flat.write_text("position,accuracy\n5000,95\n10000,95\n15000,95\n20000,95\n")
        assert main(["fit", "--input", str(flat)]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is False
        assert payload["a"] > 0  # the family needs a > 0; no rounding to 0.0

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("position,accuracy\n10,90\n5,91\n")
        assert main(["fit", "--input", str(bad)]) == 2


class TestRun:
    def test_writes_report_and_plot(self, tmp_path, capsys):
        path = make_obs_file(tmp_path, sigma=0.05, seed=3)
        out = tmp_path / "report.json"
        plot = tmp_path / "view.svg"
        rc = main(["run", "--input", str(path), "--tau", "6.0",
                   "--anchors", "canonical", "--predict-at", "300000,500000",
                   "--output", str(out), "--plot", str(plot)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["summary"]["stopped"] is True
        assert set(report["summary"]["predicted_accuracy_at"]) == {"300000", "500000"}
        assert plot.read_text().startswith("<?xml")
        state = run_stream(RunConfig(tau=6.0, anchor_policy=AnchorPolicy(mode="canonical")),
                           read_observations(path).points)
        markers = {"working": state.wposition, "prediction": state.pposition,
                   "convergence": state.cposition}
        assert plot.read_text(encoding="utf-8") == naive_render_svg(
            state.trace, state.series, selected=state.selected_trend, markers=markers)

    def test_plot_is_byte_identical_across_runs(self, tmp_path, capsys):
        path = make_obs_file(tmp_path, sigma=0.05, seed=3)
        plots = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for plot in plots:
            assert main(["run", "--input", str(path), "--tau", "6.0",
                         "--anchors", "canonical", "--plot", str(plot)]) == 0
        assert plots[0].read_bytes() == plots[1].read_bytes()

    def test_unwritable_plot_path_is_input_error(self, tmp_path, capsys):
        # The plot is written before the report, so none of the report is,
        # to stdout or to --output.
        path = make_obs_file(tmp_path)
        plot = tmp_path / "missing_dir" / "view.svg"
        report = tmp_path / "report.json"
        argv = ["run", "--input", str(path), "--tau", "6.0", "--plot", str(plot)]
        for extra in ([], ["--output", str(report)]):
            rc = main(argv + extra)
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert captured.out == ""
            assert not plot.parent.exists() and not report.exists()

    def test_csv_format(self, tmp_path, capsys):
        path = make_obs_file(tmp_path)
        rc = main(["run", "--input", str(path), "--tau", "6.0", "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0].startswith("level,position,")

    def test_flat_noiseless_curve_stops_immediately(self, tmp_path, capsys):
        # a nearly saturated curve has a tiny layer from the start, so a
        # unit threshold stops at the first operative level
        flat = make_obs_file(tmp_path, name="flat.csv",
                             true=PowerLawParams(1.0, 0.5, 99.0), count=12)
        rc = main(["run", "--input", str(flat), "--tau", "1.0"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["summary"]["clevel"] == 3

    def test_no_convergence_is_exit_three(self, tmp_path, capsys):
        path = make_obs_file(tmp_path)
        rc = main(["run", "--input", str(path), "--tau", "0.0"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert report["summary"]["clevel"] is None

    def test_default_config_block_matches_library(self, tmp_path, capsys):
        from curvecast.controller import RunConfig, run_stream
        from curvecast.reports import build_run_report, read_observations

        path = make_obs_file(tmp_path)
        main(["run", "--input", str(path), "--tau", "1"])
        report = json.loads(capsys.readouterr().out)
        state = run_stream(RunConfig(tau=1.0), read_observations(path).points)
        assert report["config"] == build_run_report(state)["config"]

    def test_unknown_flag_is_usage_error(self, tmp_path):
        path = make_obs_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", str(path), "--tau", "1", "--frobnicate"])
        assert exc.value.code == 2


class TestEvaluate:
    def test_cross_module_consistency(self, tmp_path, capsys):
        controls = [200000, 250000, 300000]
        names = []
        taus = {0: "1.8", 1: "4.0"}  # reachable within the 3e5 window per shape
        for i, true in enumerate((TRUE, PowerLawParams(600.0, 0.4, 97.0))):
            obs = make_obs_file(tmp_path, name=f"curve{i}.csv", true=true,
                                count=60, sigma=0.05, seed=i)
            out = tmp_path / f"run{i}.json"
            rc = main(["run", "--input", str(obs), "--tau", taus[i],
                       "--output", str(out)])
            assert rc == 0
            names.append((str(out), str(obs)))
        rc = main(["evaluate",
                   "--runs", ",".join(n for n, _ in names),
                   "--truth", ",".join(t for _, t in names),
                   "--controls", ",".join(map(str, controls))])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == json.dumps({
            "controls": controls,
            "runs": {
                "run0": {"pe": [-0.068587, -0.055236, 0.052716], "mape": 0.058846,
                         "dmr": 100.0, "rr": 55.319149},
                "run1": {"pe": [-0.011125, -0.05366, 0.01084], "mape": 0.025209,
                         "dmr": 100.0, "rr": 34.090909},
            },
            "rer": {"run0|run1": 100.0},
        }, indent=2) + "\n"
        payload = json.loads(out)
        assert set(payload["runs"]) == {"run0", "run1"}
        assert "run0|run1" in payload["rer"]
        # PE recomputed from the emitted report and the truth file agrees
        report = json.loads((tmp_path / "run0.json").read_text())
        selected = next(row for row in report["levels"]
                        if row["level"] == report["summary"]["clevel"])
        params = PowerLawParams(selected["a"], selected["b"], selected["c"])
        truth = {p.position: p.accuracy for p in generate_series(
            SynthSpec(TRUE, count=60, noise=NoiseSpec("gaussian", sigma=0.05),
                      seed=0)).points}
        expected_pe = round(percentage_error(truth[controls[0]],
                                             eval_pattern(params, controls[0])), 6)
        assert payload["runs"]["run0"]["pe"][0] == pytest.approx(expected_pe, abs=1e-9)
        assert 0 <= payload["runs"]["run0"]["rr"] <= 100
        # RER/DMR/RR recomputed with the metrics module from the emitted
        # reports match the command output exactly (modulo display rounding)
        from curvecast.metrics import dmr, rer, rr

        pairs = {}
        for i, (run_path, _) in enumerate(names):
            rep = json.loads((tmp_path / f"run{i}.json").read_text())
            sel = next(r for r in rep["levels"]
                       if r["level"] == rep["summary"]["clevel"])
            p = PowerLawParams(sel["a"], sel["b"], sel["c"])
            true_curve = TRUE if i == 0 else PowerLawParams(600.0, 0.4, 97.0)
            t = {pt.position: pt.accuracy for pt in generate_series(
                SynthSpec(true_curve, count=60,
                          noise=NoiseSpec("gaussian", sigma=0.05),
                          seed=i)).points}
            pairs[f"run{i}"] = [(t[c], eval_pattern(p, c)) for c in controls]
            segment = [r["c"] for r in rep["levels"]
                       if rep["summary"]["wlevel"] <= r["level"]
                       <= rep["summary"]["clevel"] and r["converged"]]
            assert payload["runs"][f"run{i}"]["rr"] == round(rr(segment), 6)
        assert payload["rer"]["run0|run1"] == round(
            rer(pairs["run0"], pairs["run1"]), 6)
        assert payload["runs"]["run0"]["dmr"] == round(
            dmr(pairs["run0"], [pairs["run1"]]), 6)

    def test_older_report_with_an_alpha_column_reads_the_same(self, tmp_path, capsys):
        # Reports written before the level rows dropped ``alpha`` carry it
        # beside ``c``, with the same value; evaluate reads ``c``.
        obs = make_obs_file(tmp_path, count=40)
        out = tmp_path / "run.json"
        assert main(["run", "--input", str(obs), "--tau", "6.0",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all("alpha" not in row for row in report["levels"])
        older = tmp_path / "older" / "run.json"  # same stem, so the same run name
        older.parent.mkdir()
        older.write_text(json.dumps(dict(report, levels=[
            dict(row, alpha=row["c"]) for row in report["levels"]])))
        outputs = []
        for path in (out, older):
            assert main(["evaluate", "--runs", str(path), "--truth", str(obs),
                         "--controls", "100000,200000"]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0]["runs"]["run"]["rr"] is not None

    def test_missing_control_is_input_error(self, tmp_path, capsys):
        obs = make_obs_file(tmp_path, count=40)
        out = tmp_path / "run.json"
        assert main(["run", "--input", str(obs), "--tau", "6.0",
                     "--output", str(out)]) == 0
        rc = main(["evaluate", "--runs", str(out), "--truth", str(obs),
                   "--controls", "123457"])
        assert rc == 2

    def test_unstopped_run_is_input_error(self, tmp_path, capsys):
        obs = make_obs_file(tmp_path, count=20)
        out = tmp_path / "run.json"
        assert main(["run", "--input", str(obs), "--tau", "0.0",
                     "--output", str(out)]) == 3
        rc = main(["evaluate", "--runs", str(out), "--truth", str(obs),
                   "--controls", "100000"])
        assert rc == 2

    def test_count_mismatch_is_input_error(self, tmp_path, capsys):
        obs = make_obs_file(tmp_path)
        rc = main(["evaluate", "--runs", f"{obs},{obs}", "--truth", str(obs),
                   "--controls", "100000"])
        assert rc == 2

    def test_no_run_files_is_input_error(self, capsys):
        rc = main(["evaluate", "--runs", ",", "--truth", ",", "--controls", "100000"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: need at least one run\n"

    def test_two_run_files_of_one_stem_is_input_error(self, tmp_path, capsys):
        # Runs are named by their file stem, so two such files would be one run.
        obs = make_obs_file(tmp_path, count=40)
        paths = [tmp_path / "a" / "run.json", tmp_path / "b" / "run.json"]
        for path in paths:
            path.parent.mkdir()
        assert main(["run", "--input", str(obs), "--tau", "6.0",
                     "--output", str(paths[0])]) == 0
        paths[1].write_bytes(paths[0].read_bytes())
        rc = main(["evaluate", "--runs", ",".join(map(str, paths)),
                   "--truth", f"{obs},{obs}", "--controls", "100000"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: run report file names must be distinct\n"

    @pytest.mark.parametrize("damage, message", [
        (lambda report: report.pop("summary"), "report has no summary"),
        (lambda report: report.pop("levels"), "report has no levels"),
        (lambda report: report["summary"].pop("wlevel"), "summary has no wlevel"),
        (lambda report: report["levels"].clear(), "no level row matches clevel"),
        (lambda report: report["levels"][0].pop("converged"),
         "level row 0 lacks level, c or converged"),
        # JSON true loads as a bool, which must not read as level 1.
        pytest.param(lambda report: report["summary"].update(wlevel=True),
                     "summary levels are not integers", id="wlevel-true"),
        pytest.param(lambda report: report["summary"].update(clevel=True),
                     "summary levels are not integers", id="clevel-true"),
        pytest.param(lambda report: report["levels"][0].update(level=True),
                     "level row 0 lacks level, c or converged", id="row-level-true"),
        pytest.param(lambda report: next(row for row in report["levels"]
                                         if row["level"] == report["summary"]["clevel"]
                                         ).pop("a"),
                     "lacks its parameters", id="clevel-row-without-a"),
    ])
    def test_malformed_report_is_input_error(self, tmp_path, capsys, damage, message):
        obs = make_obs_file(tmp_path, count=40)
        out = tmp_path / "damaged.json"
        assert main(["run", "--input", str(obs), "--tau", "6.0",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        damage(report)
        out.write_text(json.dumps(report))
        rc = main(["evaluate", "--runs", str(out), "--truth", str(obs),
                   "--controls", "100000"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "'damaged'" in captured.err and message in captured.err


def test_integer_controls_are_read_exactly(tmp_path, capsys):
    # 2**53 + 1 is the first integer a float cannot hold: read through a
    # float it became 2**53, which this truth file lacks.
    obs = make_obs_file(tmp_path, count=40)
    out = tmp_path / "run.json"
    assert main(["run", "--input", str(obs), "--tau", "6.0", "--output", str(out)]) == 0
    big = 2**53 + 1
    truth = tmp_path / "truth.csv"
    truth.write_text(f"position,accuracy\n100000,95.0\n{big},96.0\n", encoding="utf-8")
    rc = main(["evaluate", "--runs", str(out), "--truth", str(truth),
               "--controls", f"100000,{big}"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert json.loads(captured.out)["controls"] == [100000, big]


@pytest.mark.parametrize("argv", [
    ["evaluate", "--runs", "{run}", "--truth", "{obs}", "--controls", "5e3"],
    ["evaluate", "--runs", "{run}", "--truth", "{obs}", "--controls", "5000.9"],
    ["simulate", "--a", "500", "--b", "0.45", "--c", "96", "--noise", "bumps:1:2:5e3"],
], ids=["evaluate-controls-float-form", "evaluate-controls-fraction",
        "simulate-bumps-maxpos-float-form"])
def test_integer_options_take_integer_text_only(tmp_path, capsys, argv):
    # Every integer option is read by int(): a float form is an input error,
    # not rounded or cut to an integer.
    obs = make_obs_file(tmp_path, count=40)
    run = tmp_path / "run.json"
    assert main(["run", "--input", str(obs), "--tau", "6.0", "--output", str(run)]) == 0
    rc = main([arg.format(run=run, obs=obs) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["evaluate", "--runs", "run.json", "--truth", "{obs}", "--controls", "100000,inf"],
    ["simulate", "--a", "500", "--b", "0.45", "--c", "96", "--noise", "bumps:1:2:inf"],
    ["simulate", "--a", "500", "--b", "0.45", "--c", "96", "--noise", "gaussian:nan"],
    ["simulate", "--a", "500", "--b", "0.45", "--c", "96", "--noise", "gaussian:inf"],
    ["simulate", "--a", "500", "--b", "0.45", "--c", "96", "--noise", "bumps:inf:2"],
    ["simulate", "--a", "500", "--b", "0.45", "--c", "96", "--noise", "bumps:nan:2"],
    ["run", "--input", "{obs}", "--tau", "nan"],
    ["run", "--input", "{obs}", "--tau", "inf"],
    ["run", "--input", "{obs}", "--tau", "0", "--predict-at", "nan"],
    ["run", "--input", "{obs}", "--tau", "1e9", "--predict-at", "inf"],
    ["run", "--input", "{obs}", "--tau", "1", "--end-position", "0"],
    ["run", "--input", "{obs}", "--tau", "1", "--end-position", "-5"],
], ids=["evaluate-controls-inf", "simulate-bumps-maxpos-inf", "simulate-gaussian-nan",
        "simulate-gaussian-inf", "simulate-bumps-inf", "simulate-bumps-nan", "run-tau-nan",
        "run-tau-inf", "run-unstopped-predict-at-nan",
        "run-predict-at-inf", "run-end-position-0", "run-end-position-negative"])
def test_non_finite_number_is_input_error(tmp_path, capsys, argv):
    obs = make_obs_file(tmp_path, count=10)
    rc = main([arg.format(obs=obs) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_overflowing_prediction_is_input_error(tmp_path, capsys):
    # A steep fit at a tiny position: 1e-300 ** -1.2 overflows a float.
    obs = make_obs_file(tmp_path, true=PowerLawParams(5000.0, 1.2, 95.0), count=30)
    rc = main(["run", "--input", str(obs), "--tau", "1e9", "--predict-at", "1e-300"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "position 1e-300" in captured.err


def test_position_past_int64_is_input_error(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text(f"position,accuracy\n5000,90\n10000,91\n{2**63},92\n")
    rc = main(["run", "--input", str(obs), "--tau", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_internal_key_error_is_not_an_input_error(monkeypatch):
    import curvecast.cli as cli

    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_cmd_simulate", broken)
    with pytest.raises(KeyError):
        main(["simulate", "--a", "500", "--b", "0.45", "--c", "96"])
