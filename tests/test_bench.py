import csv
import json
import math

import numpy as np
import pytest

from ehwf.bench import (DEFAULT_TRIALS, PRESETS, RESULT_COLUMNS, TRACE_COLUMNS,
                        GenParams, cli_main, gen_scenario, run_experiment,
                        truncated_gaussian)
from ehwf.model import Scenario


MINI = {"label": "mini", "n_users": 2, "n_slots": 3,
        "harvest_mean": 3.0, "harvest_var": 1.0,
        "battery_max": 5.0, "power_max": 4.0,
        "sweep": {"param": "harvest_mean", "values": [3.0, 4.0]},
        "policies": ["optimal", "greedy"]}


# ---- draws and instances ------------------------------------------------------

def test_truncated_gaussian_nonnegative_and_shifted():
    rng = np.random.default_rng(0)
    draws = truncated_gaussian(5.0, 8.0, rng, size=100_000)
    assert draws.min() >= 0.0
    # redrawing the negative tail pushes the sample mean above the location
    assert draws.mean() > 5.0


def test_truncated_gaussian_tiny_variance_tracks_mean():
    rng = np.random.default_rng(1)
    draws = truncated_gaussian(5.0, 1e-8, rng, size=1000)
    assert np.allclose(draws, 5.0, atol=1e-2)


def test_truncated_gaussian_scalar_and_reproducible():
    a = truncated_gaussian(2.0, 4.0, np.random.default_rng(7))
    b = truncated_gaussian(2.0, 4.0, np.random.default_rng(7))
    assert isinstance(a, float)
    assert a == b
    for mean, var in ((2.0, 0.0), (-40.0, 1.0), (-1e-9, 1.0), (math.nan, 1.0),
                      (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(ValueError):
            truncated_gaussian(mean, var, np.random.default_rng(7))


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(n_users=0, n_slots=3, harvest_mean=1.0, harvest_var=1.0,
                  battery_max=1.0, power_max=1.0)
    with pytest.raises(ValueError):
        GenParams(n_users=1, n_slots=3, harvest_mean=1.0, harvest_var=0.0,
                  battery_max=1.0, power_max=1.0)
    for mean, var in ((-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                      (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            GenParams(n_users=1, n_slots=3, harvest_mean=mean, harvest_var=var,
                      battery_max=1.0, power_max=1.0)


def test_gen_scenario_shapes_and_determinism():
    params = GenParams(n_users=5, n_slots=20, harvest_mean=5.0, harvest_var=3.5,
                       battery_max=20.0, power_max=15.0, seed=42)
    a = gen_scenario(params)
    b = gen_scenario(params)
    assert a.harvest.shape == (5, 20) and a.gain.shape == (5, 20)
    assert np.array_equal(a.harvest, b.harvest)
    assert np.array_equal(a.gain, b.gain)
    assert (a.harvest >= 0).all() and (a.gain >= 0).all()


def test_gen_scenario_user_streams_stable():
    # adding a user must not disturb the draws of the ones already there
    small = gen_scenario(GenParams(n_users=2, n_slots=6, harvest_mean=4.0,
                                   harvest_var=2.0, battery_max=9.0,
                                   power_max=6.0, seed=5))
    big = gen_scenario(GenParams(n_users=3, n_slots=6, harvest_mean=4.0,
                                 harvest_var=2.0, battery_max=9.0,
                                 power_max=6.0, seed=5))
    assert np.array_equal(small.harvest, big.harvest[:2])
    assert np.array_equal(small.gain, big.gain[:2])


# ---- sweeps ------------------------------------------------------------------

def test_run_experiment_row_structure():
    result = run_experiment(MINI, trials=3, seed=1)
    assert result.label == "mini"
    assert result.sweep_values == (3.0, 4.0)
    assert len(result.rows) == 2 * 3 * 2
    for row in result.rows:
        assert set(RESULT_COLUMNS) <= set(row)
        assert row["policy"] in ("optimal", "greedy")
        assert row["trial"] in (0, 1, 2)
    # traces exist only for the iterative optimal policy and count from 1
    assert result.traces
    by_sid = {}
    for sid, iteration, value in result.traces:
        by_sid.setdefault(sid, []).append(iteration)
        assert math.isfinite(value)
    for iterations in by_sid.values():
        assert iterations == list(range(1, len(iterations) + 1))
    optimal_sids = {r["scenario_id"] for r in result.rows
                    if r["policy"] == "optimal"}
    assert set(by_sid) == optimal_sids


def test_run_experiment_deterministic_modulo_timing():
    a = run_experiment(MINI, trials=2, seed=9)
    b = run_experiment(MINI, trials=2, seed=9)
    for ra, rb in zip(a.rows, b.rows):
        for key in ra:
            if key != "wall_time_ms":
                assert ra[key] == rb[key]
    assert a.traces == b.traces


def test_run_experiment_mean_sum_rate():
    result = run_experiment(MINI, trials=3, seed=4)
    manual = np.mean([r["sum_rate_nats"] for r in result.rows
                      if r["policy"] == "greedy" and r["sweep_value"] == 4.0])
    assert result.mean_sum_rate("greedy", 4.0) == pytest.approx(manual)
    with pytest.raises(KeyError):
        result.mean_sum_rate("balanced", 4.0)


def test_run_experiment_bad_inputs():
    with pytest.raises(KeyError):
        run_experiment("fig99", trials=1)
    with pytest.raises(KeyError):
        run_experiment({"label": "partial"}, trials=1)
    with pytest.raises(ValueError):
        run_experiment(MINI, trials=0)
    bad = dict(MINI, policies=["optimal", "oracle"])
    with pytest.raises(ValueError):
        run_experiment(bad, trials=1)


def test_presets_well_formed():
    assert DEFAULT_TRIALS == 500
    for name, cfg in PRESETS.items():
        assert cfg["label"] == name
        assert cfg["sweep"]["param"] in ("harvest_var", "harvest_mean",
                                         "battery_max", "power_max")
        assert len(cfg["sweep"]["values"]) >= 2


def test_csv_writers_round_trip(tmp_path):
    result = run_experiment(MINI, trials=1, seed=2)
    out = tmp_path / "rows.csv"
    tout = tmp_path / "trace.csv"
    result.write_csv(out)
    result.write_trace_csv(tout)

    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RESULT_COLUMNS)
    assert len(rows) == 1 + len(result.rows)
    for parsed, row in zip(rows[1:], result.rows):
        assert parsed[0] == row["scenario_id"]
        assert float(parsed[3]) == pytest.approx(row["sum_rate_nats"], rel=1e-8)

    with open(tout, newline="") as fh:
        trows = list(csv.reader(fh))
    assert trows[0] == list(TRACE_COLUMNS)
    assert len(trows) == 1 + len(result.traces)


# ---- command line ---------------------------------------------------------------

def test_cli_gen_writes_scenario(tmp_path, capsys):
    path = tmp_path / "sc.json"
    rc = cli_main(["gen", "--n", "2", "--k", "4", "--seed", "3",
                   "--out", str(path)])
    assert rc == 0
    scenario = Scenario.from_json(path.read_text())
    assert scenario.harvest.shape == (2, 4)
    assert "wrote" in capsys.readouterr().out


def test_cli_gen_stdout(capsys):
    rc = cli_main(["gen", "--n", "1", "--k", "3", "--out", "-"])
    assert rc == 0
    scenario = Scenario.from_json(capsys.readouterr().out)
    assert scenario.harvest.shape == (1, 3)


def test_cli_gen_writes_strict_json(capsys):
    # an unbounded cap is null, never the non-JSON token Infinity
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    rc = cli_main(["gen", "--n", "2", "--k", "3", "--p-max", "inf", "--out", "-"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert [u["power_max"] for u in obj["users"]] == [None, None]
    assert np.all(Scenario.from_json_dict(obj).power_max == math.inf)


def test_cli_solve_certify(tmp_path, capsys):
    path = tmp_path / "sc.json"
    assert cli_main(["gen", "--n", "2", "--k", "4", "--seed", "3",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    rc = cli_main(["solve", "--in", str(path), "--certify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "converged: yes" in out
    assert "certificate: PASS" in out
    assert "duality_gap:" in out
    assert "sum_rate_nats:" in out


def test_cli_solve_certify_in_another_unit_of_energy(tmp_path, capsys):
    # a fig9 instance in microjoules instead of joules (energies times 1e6,
    # gains over 1e6) is the same problem and must certify the same way
    fig9 = PRESETS["fig9"]
    sc = gen_scenario(GenParams(
        n_users=fig9["n_users"], n_slots=fig9["n_slots"],
        harvest_mean=fig9["harvest_mean"], harvest_var=fig9["harvest_var"],
        battery_max=fig9["battery_max"], power_max=fig9["power_max"], seed=0))
    s = 1e6
    path = tmp_path / "sc.json"
    path.write_text(Scenario(sc.harvest * s, sc.gain / s, sc.battery_max * s,
                             sc.power_max * s).to_json())
    rc = cli_main(["solve", "--in", str(path), "--certify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "converged: yes" in out
    assert "certificate: PASS" in out


def test_cli_solve_reports_unconverged_solve(tmp_path, capsys):
    path = tmp_path / "sc.json"
    assert cli_main(["gen", "--n", "3", "--k", "6", "--seed", "3",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    rc = cli_main(["solve", "--in", str(path), "--max-iter", "1", "--certify"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "converged: no" in out
    assert "certificate: FAIL" in out


def test_cli_solve_baseline_policy(tmp_path, capsys):
    path = tmp_path / "sc.json"
    assert cli_main(["gen", "--n", "1", "--k", "5", "--seed", "8",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    rc = cli_main(["solve", "--in", str(path), "--policy", "greedy"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "iterations: 1" in out


def test_cli_experiment_preset(tmp_path, capsys):
    out = tmp_path / "res.csv"
    tout = tmp_path / "trace.csv"
    rc = cli_main(["experiment", "--preset", "fig5", "--trials", "1",
                   "--seed", "0", "--out", str(out), "--trace-out", str(tout)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "fig5: 24 rows" in text
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RESULT_COLUMNS)
    assert len(rows) == 1 + 24
    assert tout.exists()


def test_cli_experiment_config_file(tmp_path, capsys):
    cfg = tmp_path / "mini.json"
    cfg.write_text(json.dumps(MINI))
    out = tmp_path / "res.csv"
    rc = cli_main(["experiment", "--config", str(cfg), "--trials", "1",
                   "--out", str(out)])
    assert rc == 0
    assert out.exists()
    capsys.readouterr()


def test_cli_errors_return_2(tmp_path, capsys):
    rc = cli_main(["solve", "--in", str(tmp_path / "missing.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")


def test_cli_solve_names_a_missing_user_key(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text('{"num_users": 1, "num_slots": 2, "users": [{"harvest": '
                    '[1, 2], "gain": [1, 1], "power_max": 10}]}')
    rc = cli_main(["solve", "--in", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ("error: malformed scenario object: "
                            "missing key 'battery_max'\n")
    assert "p[0]" not in captured.out


@pytest.mark.parametrize("text, args, message", [
    ('{"num_users": 1, "num_slots": 0, "users": [{"harvest": [], "gain": [], '
     '"battery_max": 5, "power_max": 10}]}', ["--certify"],
     "harvest and gain must cover at least one slot, got 0"),
    ('{"num_users": 1, "num_slots": 2, "users": [{"harvest": [1e308, 1e308], '
     '"gain": [1, 1], "battery_max": 1e308, "power_max": 1e308}]}',
     ["--policy", "greedy", "--certify"],
     "the running total of harvest overflows the float range"),
], ids=["zero-slots", "overflowing-harvest"])
def test_cli_solve_rejects_a_scenario_without_a_schedule(tmp_path, capsys, text,
                                                         args, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = cli_main(["solve", "--in", str(path)] + args)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {message}\n"
    assert "p[0]" not in captured.out


def test_cli_solve_rejects_non_numbers(tmp_path, capsys):
    # strings, booleans and a fractional slot count used to load as numbers
    # and get a certified PASS
    path = tmp_path / "strings.json"
    path.write_text('{"num_users": 1, "num_slots": 2.9, "users": [{"harvest": '
                    '["1", "2"], "gain": [true, 1], "battery_max": "5", '
                    '"power_max": 10}]}')
    rc = cli_main(["solve", "--in", str(path), "--certify"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: malformed scenario object: ")
    assert "p[0]" not in captured.out


def test_cli_solve_rejects_nan_scenario(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"num_users": 1, "num_slots": 3, "users": [{"harvest": '
                    '[1, NaN, 2], "gain": [1, 1, 1], "battery_max": 5, '
                    '"power_max": 10}]}')
    rc = cli_main(["solve", "--in", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "finite" in captured.err
    assert "p[0]" not in captured.out
