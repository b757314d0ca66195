"""Command line behavior: exit codes, emissions, determinism."""

import json

import pytest

from riskplan.cli import main
from riskplan.worlds import ski_world, slippery_walk, sussman


@pytest.fixture()
def ski_files(tmp_path):
    d, p = ski_world()
    dom = tmp_path / "ski.sexp"
    prob = tmp_path / "trip.sexp"
    dom.write_text(d)
    prob.write_text(p)
    return dom, prob


def run(args):
    return main([str(a) for a in args])


def test_clause_missing_cpt_rows_exits_one(tmp_path, capsys):
    from .test_domain import PARTIAL_CLAUSE
    dom, prob = tmp_path / "d.sexp", tmp_path / "p.sexp"
    dom.write_text(PARTIAL_CLAUSE[0])
    prob.write_text(PARTIAL_CLAUSE[1])
    assert run(["--domain", dom, "--problem", prob,
                "--planner", "nonlinear"]) == 1
    assert "[missing-cpt-row] clause a" in capsys.readouterr().err


def test_plan_found_exits_zero(ski_files, capsys):
    dom, prob = ski_files
    assert run(["--domain", dom, "--problem", prob]) == 0
    out = capsys.readouterr().out
    assert "achieved 0.9091" in out
    assert "target 0.9" in out


def test_all_emissions_written(ski_files, tmp_path):
    dom, prob = ski_files
    out = tmp_path / "artifacts"
    code = run(["--domain", dom, "--problem", prob,
                "--emit", "plan-json", "--emit", "dot", "--emit", "trace",
                "--emit", "simulate", "--trials", "500",
                "--out", out])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "net.dot", "plan.dot", "plan.json", "simulate.json", "trace.jsonl"]
    doc = json.loads((out / "plan.json").read_text())
    assert doc["achievedMass"] == pytest.approx(0.9091, abs=1e-9)
    assert doc["model"] == "kbmc"
    report = json.loads((out / "simulate.json").read_text())
    assert report["trials"] == 500
    for line in (out / "trace.jsonl").read_text().splitlines():
        json.loads(line)


def test_reruns_are_byte_identical(ski_files, tmp_path):
    dom, prob = ski_files
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run(["--domain", dom, "--problem", prob,
                    "--planner", "nonlinear", "--epsilon", "0.085",
                    "--emit", "plan-json", "--emit", "dot", "--emit", "trace",
                    "--emit", "simulate", "--trials", "300", "--seed", "9",
                    "--out", out]) == 0
        outs.append(out)
    a, b = outs
    for f in sorted(p.name for p in a.iterdir()):
        assert (a / f).read_bytes() == (b / f).read_bytes(), f


def test_output_dir_env_var(ski_files, tmp_path, monkeypatch):
    dom, prob = ski_files
    target = tmp_path / "from-env"
    monkeypatch.setenv("RISKPLAN_OUTPUT_DIR", str(target))
    assert run(["--domain", dom, "--problem", prob,
                "--emit", "plan-json"]) == 0
    assert (target / "plan.json").exists()


def test_out_beats_output_dir_env_var(ski_files, tmp_path, monkeypatch):
    dom, prob = ski_files
    env, out = tmp_path / "from-env", tmp_path / "from-out"
    monkeypatch.setenv("RISKPLAN_OUTPUT_DIR", str(env))
    assert run(["--domain", dom, "--problem", prob]) == 0
    assert not env.exists()  # nothing to emit, so no directory
    assert run(["--domain", dom, "--problem", prob,
                "--emit", "plan-json", "--out", out]) == 0
    assert [p.name for p in out.iterdir()] == ["plan.json"]
    assert not env.exists()


def test_simple_model_skips_net_dot(ski_files, tmp_path):
    d, p = sussman()
    dom = tmp_path / "blocks.sexp"
    prob = tmp_path / "blocks-goal.sexp"
    dom.write_text(d)
    prob.write_text(p)
    out = tmp_path / "blocks-out"
    assert run(["--domain", dom, "--problem", prob, "--model", "simple",
                "--emit", "dot", "--out", out]) == 0
    assert (out / "plan.dot").exists()
    assert not (out / "net.dot").exists()


def test_usage_errors_exit_one(ski_files, capsys):
    dom, prob = ski_files
    with pytest.raises(SystemExit) as e:
        run(["--domain", dom, "--problem", prob, "--epsilon", "1.0"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        run(["--domain", dom])  # --problem is required
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        run(["--domain", dom, "--problem", prob, "--trials", "0"])
    assert e.value.code == 1
    for seed in (-1, 2**64):  # planning would run, then the replay crash
        with pytest.raises(SystemExit) as e:
            run(["--domain", dom, "--problem", prob, "--emit", "simulate",
                 "--seed", str(seed)])
        assert e.value.code == 1
    assert "plan:" not in capsys.readouterr().out


def test_missing_file_exits_one(ski_files, capsys):
    _dom, prob = ski_files
    assert run(["--domain", "nope.sexp", "--problem", prob]) == 1
    assert "nope.sexp" in capsys.readouterr().err


def test_validation_errors_exit_one(tmp_path, capsys):
    dom = tmp_path / "bad.sexp"
    prob = tmp_path / "bad-goal.sexp"
    dom.write_text("(operator a (kind det) (pre (q)) (add (g)))\n")
    prob.write_text("(problem (init (not (g))) (goal (g)) (epsilon 0))\n")
    assert run(["--domain", dom, "--problem", prob]) == 1
    assert "uncovered-proposition" in capsys.readouterr().err


def test_shared_variable_exits_one(tmp_path, capsys):
    from .test_domain import SHARED_VARIABLE
    dom, prob = tmp_path / "d.sexp", tmp_path / "p.sexp"
    dom.write_text(SHARED_VARIABLE[0])
    prob.write_text(SHARED_VARIABLE[1])
    assert run(["--domain", dom, "--problem", prob]) == 1
    assert ("[shared-variable] (p a b) and (p a,b) are both variable p(a,b)"
            in capsys.readouterr().err)


def test_unpriceable_operator_fails_planning(tmp_path, capsys):
    # cpt-only chance cannot be priced by the simple model, so the walk
    # operator is never offered and the search comes up empty
    d, p = slippery_walk()
    dom = tmp_path / "walk.sexp"
    prob = tmp_path / "walk-goal.sexp"
    dom.write_text(d)
    prob.write_text(p)
    assert run(["--domain", dom, "--problem", prob, "--model", "simple"]) == 2
    assert "no plan" in capsys.readouterr().err


def test_planning_failure_exits_two(ski_files, capsys):
    dom, prob = ski_files
    code = run(["--domain", dom, "--problem", prob,
                "--epsilon", "0.0", "--node-budget", "300"])
    assert code == 2
    captured = capsys.readouterr()
    assert "no plan" in captured.err
    assert "best bound" in captured.out


def test_stdout_summary_is_deterministic(ski_files, capsys):
    dom, prob = ski_files
    run(["--domain", dom, "--problem", prob])
    first = capsys.readouterr().out
    run(["--domain", dom, "--problem", prob])
    assert capsys.readouterr().out == first
