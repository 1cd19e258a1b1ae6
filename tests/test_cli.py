import json
import re

import pytest

from smartsolve.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, RunConfig, main


def run_cli(*argv):
    return main(list(argv))


def test_generate_and_run_round_trip(tmp_path, capsys):
    prob = tmp_path / "ridge.json"
    assert run_cli("generate", "--kind", "ridge", "--out", str(prob),
                   "--seed", "3", "--param", "rows=8", "--param", "dim=5",
                   "--param", "reg=0.4") == EXIT_OK
    out1 = tmp_path / "run1"
    assert run_cli("run", "--preset", "saga", "--problem", str(prob),
                   "--seed", "1", "--iters", "1500",
                   "--out", str(out1)) == EXIT_OK
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["final_residual"] < 1e-6
    assert summary["config"]["preset"] == "saga"
    assert (out1 / "trace.csv").exists()
    assert (out1 / "replay.bin").exists()
    # the measured contraction must not be slower than the predicted one
    assert summary["fitted_factor"] is not None
    assert summary["predicted_factor"] is not None
    assert summary["fitted_factor"] <= summary["predicted_factor"] * 1.05
    # identical config and seed produce byte-identical traces
    out2 = tmp_path / "run2"
    assert run_cli("run", "--preset", "saga", "--problem", str(prob),
                   "--seed", "1", "--iters", "1500",
                   "--out", str(out2)) == EXIT_OK
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_run_config_round_trip():
    cfg = RunConfig(preset="saga", seed=3, iters=100,
                    preset_params={"lam": 0.1})
    back = RunConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert back == cfg


def test_async_run_and_verify_replay(tmp_path):
    out = tmp_path / "arun"
    assert run_cli("run", "--preset", "kaczmarz", "--mode", "async",
                   "--workers", "4", "--tau-p", "4", "--tau-d", "4",
                   "--seed", "5", "--iters", "30000",
                   "--stop-resid", "1e-7", "--out", str(out)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replay_gap"] == 0.0
    assert run_cli("verify-replay", "--summary", str(out / "summary.json")) == EXIT_OK


def test_delay_mode_run(tmp_path):
    out = tmp_path / "drun"
    assert run_cli("run", "--preset", "kaczmarz", "--mode", "delay",
                   "--tau-p", "3", "--tau-d", "3", "--seed", "2",
                   "--iters", "20000", "--lam", "0.15",
                   "--stop-resid", "1e-6", "--out", str(out)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_residual"] <= 1e-6


def test_smart_threads_env_caps_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("SMART_THREADS", "1")
    out = tmp_path / "capped"
    # with the cap at one worker the run must still work (and is engine-equal)
    assert run_cli("run", "--preset", "kaczmarz", "--mode", "async",
                   "--workers", "8", "--tau-p", "2", "--tau-d", "2",
                   "--seed", "7", "--iters", "3000",
                   "--out", str(out)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replay_gap"] == 0.0


def test_smart_threads_not_an_integer_exits_two(tmp_path, monkeypatch):
    monkeypatch.setenv("SMART_THREADS", "abc")
    assert run_cli("run", "--preset", "kaczmarz", "--mode", "async",
                   "--iters", "100", "--out", str(tmp_path / "out")) == EXIT_CONFIG


def test_rates_subcommand(capsys):
    assert run_cli("rates", "--preset", "SAGA", "--param", "L=1",
                   "--param", "mu=0.1", "--param", "N=10") == EXIT_OK
    row = json.loads(capsys.readouterr().out.strip())
    assert row["largest"] == 0.5 and row["best"] == 0.2 and row["rate"] == 0.98


def test_describe_subcommand(capsys):
    assert run_cli("describe", "--preset", "saga") == EXIT_OK
    desc = json.loads(capsys.readouterr().out)
    assert desc["name"] == "saga"
    assert "provenance" in desc and desc["m"] == 1


def test_config_errors_exit_two(tmp_path):
    assert run_cli("rates", "--preset", "SAGA", "--param", "badpair") == EXIT_CONFIG
    assert run_cli("run", "--preset", "saga", "--problem",
                   str(tmp_path / "missing.json")) == EXIT_CONFIG
    # argparse-level errors also map to the config exit code
    assert run_cli("run", "--preset", "not-a-preset") == EXIT_CONFIG
    assert run_cli("describe", "--preset", "not-a-preset") == EXIT_CONFIG
    # a parameter the builder does not take, or a value it rejects
    out = str(tmp_path / "out")
    assert run_cli("run", "--preset", "saga", "--param", "foo=1",
                   "--out", out) == EXIT_CONFIG
    assert run_cli("describe", "--preset", "saga", "--param", "foo=1") == EXIT_CONFIG
    assert run_cli("run", "--preset", "finito", "--param", "gamma=100",
                   "--out", out) == EXIT_CONFIG
    # a problem of a kind the preset does not take
    lsys = tmp_path / "lsys.json"
    assert run_cli("generate", "--kind", "linear_system", "--out", str(lsys)) == EXIT_OK
    for preset in ("saga", "mono"):
        assert run_cli("run", "--preset", preset, "--problem", str(lsys),
                       "--out", out) == EXIT_CONFIG
    # delay caps beyond the replay log's field width
    for mode in ("delay", "async"):
        assert run_cli("run", "--preset", "kaczmarz", "--mode", mode,
                       "--tau-p", "300", "--out", out) == EXIT_CONFIG
    # a negative budget or a trace stride below one, in every mode
    for mode in ("sync", "async"):
        for bad in (("--trace-stride", "0"), ("--trace-stride", "-5"), ("--iters", "-3")):
            assert run_cli("run", "--preset", "kaczmarz", "--mode", mode, *bad,
                           "--out", out) == EXIT_CONFIG
    # a step that is not finite and positive, or a residual target that is
    # not finite and nonnegative, in every mode
    for mode in ("sync", "async"):
        for bad in (("--lam", "nan"), ("--lam", "inf"), ("--lam", "-1"),
                    ("--stop-resid", "nan"), ("--stop-resid", "inf"),
                    ("--stop-resid", "-1")):
            assert run_cli("run", "--preset", "kaczmarz", "--mode", mode, *bad,
                           "--out", out) == EXIT_CONFIG
    # a parameter the generator does not take, or a value it rejects
    for param in ("foo=1", "rows=-3"):
        assert run_cli("generate", "--kind", "ridge", "--out", str(tmp_path / "r.json"),
                       "--param", param) == EXIT_CONFIG


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_numerical_abort_exit_four(tmp_path):
    out = tmp_path / "blowup"
    code = run_cli("run", "--preset", "kaczmarz", "--seed", "1",
                   "--iters", "4000", "--lam", "80.0", "--out", str(out))
    assert code == EXIT_NUMERIC


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_divergence_exits_four_naming_iteration_and_block(tmp_path, capsys):
    # used to print "block 0 contains NaN or Inf", with no iteration
    code = run_cli("run", "--preset", "saga", "--seed", "1", "--iters", "4000",
                   "--lam", "1000", "--out", str(tmp_path / "blowup"))
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.search(r"numerical abort: iterate diverged at iteration \d+: block 0 ", err)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_overflowing_residual_exits_four_naming_the_iteration(tmp_path, capsys):
    # used to print "block 0 contains NaN or Inf", with no iteration
    code = run_cli("run", "--preset", "saga", "--seed", "0", "--iters", "90",
                   "--lam", "1000", "--out", str(tmp_path / "blowup"))
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numerical abort: residual at iteration 90 failed: " in err


def test_verify_equivalence_exit_codes():
    assert run_cli("verify", "--suite", "equivalence", "--seed", "0") == EXIT_OK
    assert run_cli("verify", "--suite", "bogus") == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ("--suite", "coherence", "--trials", "0"),
    ("--suite", "coherence", "--trials", "-5"),
    ("--suite", "rates", "--seeds", "-3"),
    ("--suite", "rates", "--seeds", "29"),
])
def test_verify_rejects_too_few_trials_or_seeds(argv, capsys):
    # --trials -5 used to pass with max_violation -inf, --trials 0 ran the
    # default budget, and --seeds -3 ended in a ValueError traceback
    assert run_cli("verify", *argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"config error: --(trials|seeds) must be >= (1|30), got ", captured.err)


def test_verify_coherence_small_budget(capsys):
    assert run_cli("verify", "--suite", "coherence", "--trials", "200") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert "kaczmarz" in payload["report"]
