import json

import pytest

from curvecast.cli import main
from curvecast.metrics import percentage_error
from curvecast.model import PowerLawParams, eval_pattern
from curvecast.reports import format_observations, write_observations
from curvecast.synth import NoiseSpec, SynthSpec, generate_series

from conftest import REFERENCE_FIT

TRUE = PowerLawParams(500.0, 0.45, 96.0)


def make_obs_file(tmp_path, name="obs.csv", true=REFERENCE_FIT, count=30, sigma=0.0,
                  seed=0):
    noise = NoiseSpec("gaussian", sigma=sigma) if sigma else NoiseSpec()
    series = generate_series(SynthSpec(true, count=count, noise=noise, seed=seed))
    path = tmp_path / name
    write_observations(series, path)
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

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CURVE_SEED", "123")
        main(["simulate", "--a", "500", "--b", "0.45", "--c", "96",
              "--count", "6", "--noise", "gaussian:0.1", "--seed", "0"])
        with_env = capsys.readouterr().out
        monkeypatch.delenv("CURVE_SEED")
        main(["simulate", "--a", "500", "--b", "0.45", "--c", "96",
              "--count", "6", "--noise", "gaussian:0.1", "--seed", "123"])
        assert capsys.readouterr().out == with_env

    def test_theorem_checks_pass_on_ideal_data(self, capsys):
        rc = main(["simulate", "--a", "542.5451", "--b", "0.3838", "--c", "99.2876",
                   "--count", "25", "--noise", "none", "--theorems"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["all_passed"] is True

    def test_bad_noise_spec_is_input_error(self, capsys):
        rc = main(["simulate", "--a", "1", "--b", "1", "--c", "99",
                   "--noise", "pink:1"])
        assert rc == 2

    def test_failed_checks_exit_one(self, capsys, monkeypatch):
        import curvecast.cli as cli
        from curvecast.synth import CheckResult, TheoremReport

        def failing_suite(series, config):
            return TheoremReport(results={
                "backbone_monotone_after_working_level":
                    CheckResult("backbone_monotone_after_working_level",
                                passed=False, violations=3, checks=10),
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

    def test_missing_file_is_input_error(self, capsys):
        assert main(["fit", "--input", "/nonexistent.csv"]) == 2

    def test_nonconverged_fit_is_exit_four(self, tmp_path, capsys, monkeypatch):
        import curvecast.cli as cli
        from curvecast.fitting import FitResult

        path = make_obs_file(tmp_path)

        def stuck_fit(points, *args, **kwargs):
            return FitResult(params=PowerLawParams(1.0, 1.0, 99.0),
                             residuals=(0.0,) * len(points),
                             converged=False, iterations=200, final_cost=1.0)

        monkeypatch.setattr(cli, "fit_power_law", stuck_fit)
        assert main(["fit", "--input", str(path)]) == 4

    def test_flat_series_is_exit_four(self, tmp_path, capsys):
        # a flat series has no increasing curve to fit: the best scale is 0
        flat = tmp_path / "flat.csv"
        flat.write_text("position,accuracy\n5000,95\n10000,95\n15000,95\n20000,95\n")
        assert main(["fit", "--input", str(flat)]) == 4
        assert json.loads(capsys.readouterr().out)["converged"] is False

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
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
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
            segment = [r["alpha"] for r in rep["levels"]
                       if rep["summary"]["wlevel"] <= r["level"]
                       <= rep["summary"]["clevel"] and r["converged"]]
            assert payload["runs"][f"run{i}"]["rr"] == round(rr(segment), 6)
        assert payload["rer"]["run0|run1"] == round(
            rer(pairs["run0"], pairs["run1"]), 6)
        assert payload["runs"]["run0"]["dmr"] == round(
            dmr(pairs["run0"], [pairs["run1"]]), 6)

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

    @pytest.mark.parametrize("damage, message", [
        (lambda report: report.pop("summary"), "report has no summary"),
        (lambda report: report.pop("levels"), "report has no levels"),
        (lambda report: report["levels"].clear(), "no level row matches clevel"),
        (lambda report: report["levels"][0].pop("converged"),
         "level row 0 lacks level, alpha or converged"),
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
        err = capsys.readouterr().err
        assert rc == 2
        assert "'damaged'" in err and message in err


def test_internal_key_error_is_not_an_input_error(monkeypatch):
    import curvecast.cli as cli

    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_cmd_simulate", broken)
    with pytest.raises(KeyError):
        main(["simulate", "--a", "500", "--b", "0.45", "--c", "96"])
