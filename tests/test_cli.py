"""Command-line behavior: outputs, exit codes, env seed handling."""

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttp2 import (
    Instance,
    SchedulingError,
    build_schedule,
    emit_instance,
    evaluation_report,
    flip_budget,
    format_level_table,
    format_report,
    generate_instance,
    load_instance,
    report_to_json,
    schedule_from_json,
    schedule_to_json,
    total_travel,
    validate_schedule,
)
from ttp2 import cli, scheduler
from ttp2.analysis import BOUND_SLACK, NOT_METRIC
from ttp2.cli import _build_parser, main
from ttp2.errors import TEAMS_MAX
from ttp2.matching import SIZE_MAX

from helpers import day_list_text, refused_team_counts


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("TTP2_SEED", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen ---------------------------------------------------------------------


def test_gen_stdout_json(capsys):
    code, out, _ = run(capsys, "gen", "--n", "8", "--seed", "1")
    assert code == 0
    want = generate_instance(8, kind="euclidean", seed=1)
    assert out == emit_instance(want)
    # the coordinates give the distances bit for bit, so the matrix is left out
    obj = json.loads(out)
    assert sorted(obj) == ["coords", "n"]
    assert obj["n"] == 8 and len(obj["coords"]) == 8
    back = load_instance(out)
    assert back == want and back.dist.tobytes() == want.dist.tobytes()


def test_gen_to_file_round_trips(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "--n", "8", "--seed", "1", "-o", str(path))
    assert code == 0
    inst = load_instance(str(path))
    want = generate_instance(8, kind="euclidean", seed=1)
    assert inst.n == 8
    assert (inst.dist == want.dist).all()


def test_gen_deterministic(capsys):
    _, a, _ = run(capsys, "gen", "--n", "8", "--seed", "3")
    _, b, _ = run(capsys, "gen", "--n", "8", "--seed", "3")
    assert a == b


# --- schedule ------------------------------------------------------------------


def test_schedule_prints_summary(capsys):
    code, out, _ = run(capsys, "schedule", "--gen", "euclidean", "--n", "16",
                       "--seed", "1")
    assert code == 0
    assert "flips: 4" in out
    assert re.search(r"lower bound: \d+\.\d{6}", out)
    assert re.search(r"total travel: \d+\.\d{6}", out)
    assert re.search(r"ratio: \d+\.\d{6}", out)


def test_schedule_gen_without_n_is_refused(capsys):
    code, out, err = run(capsys, "schedule", "--gen", "unit")
    assert (code, out, err) == (1, "", "error: --gen requires --n\n")


def test_schedule_shows_no_ratio_on_a_zero_lower_bound(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 8, "dist": [[0] * 8] * 8}))
    code, out, _ = run(capsys, "schedule", "-i", str(path))
    assert code == 0
    assert out.splitlines()[1:] == ["lower bound: 0.000000", "total travel: 0.000000",
                                    "ratio: n/a"]


def test_schedule_n_alone_implies_generation(capsys):
    code, out, _ = run(capsys, "schedule", "--n", "8")
    assert code == 0
    assert "flips: 1" in out


def test_schedule_rejects_bad_n(capsys):
    code, _, err = run(capsys, "schedule", "--n", "10")
    assert code == 1
    assert "n must be divisible by 4" in err
    code, _, err = run(capsys, "schedule", "--n", "4")
    assert code == 1
    assert "n must be at least 8" in err


def test_schedule_names_the_supported_range(capsys):
    code, _, err = run(capsys, "schedule", "--n", "260")
    assert code == 1
    assert "n must be at most 256" in err
    assert "Traceback" not in err


def test_schedule_serves_sizes_past_32(capsys):
    code, out, _ = run(capsys, "schedule", "--n", "128", "--seed", "0")
    assert code == 0
    flips = int(out.splitlines()[0].removeprefix("flips: "))
    assert flips <= math.ceil(flip_budget(128))


@pytest.fixture
def _no_generation(monkeypatch):
    # an instance of an unsupported size is never generated: at a large n
    # the generators alone would take seconds and gigabytes
    def generate(*args, **kwargs):
        raise AssertionError("generate_instance called")
    monkeypatch.setattr("ttp2.cli.generate_instance", generate)


@pytest.mark.parametrize("n,message", [
    ("100000", "n must be at most 256, got 100000"), ("260", "n must be at most 256, got 260"),
    ("56", "n=56: the flip rule needs 29 flips, over the budget ceil(F_n) = 28"),
    ("224", "n=224: the flip rule needs 172 flips, over the budget ceil(F_n) = 168"),
    ("7", "n must be divisible by 4, got 7"), ("0", "n must be at least 8, got 0")])
def test_schedule_refuses_a_team_count_before_generating(_no_generation, capsys, n, message):
    for argv in (["--n", n], ["--gen", "random_metric", "--n", n, "--seed", "3"]):
        code, out, err = run(capsys, "schedule", *argv)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {message}"]


def test_bench_refuses_a_size_over_its_flip_budget_before_generating(_no_generation, capsys):
    code, out, err = run(capsys, "bench", "--n-set", "8,56", "--trials", "1")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: n=56: the flip rule needs 29 flips, over the budget ceil(F_n) = 28"]


def test_a_scheduling_error_in_the_build_exits_2_without_a_traceback(monkeypatch, capsys):
    # an unserved n is an InstanceError (exit 1), so only a fault inside
    # the build itself reaches main as a SchedulingError
    def build(inst):
        raise SchedulingError("super-pairs [[0, 1], [0, 1]] are not a perfect matching")
    monkeypatch.setattr(cli, "build_schedule", build)
    code, out, err = run(capsys, "schedule", "--n", "8", "--seed", "0")
    assert (code, out) == (2, "")
    assert err == "error: super-pairs [[0, 1], [0, 1]] are not a perfect matching\n"


@pytest.mark.parametrize("argv", [("schedule", "--n", "8", "--seed", "0"),
                                  ("bench", "--n-set", "8", "--trials", "1")],
                         ids=["schedule", "bench"])
def test_a_fault_of_the_planner_exits_2_through_the_team_count_check(monkeypatch, capsys,
                                                                      argv):
    # two levels for four slots: the template's own check refuses the plan,
    # which is no fault of the input
    monkeypatch.setattr(scheduler, "_group_levels", lambda X, Y: [([(0, 1), (2, 3)], [])] * 2)
    scheduler._template.cache_clear()
    try:
        code, out, err = run(capsys, *argv)
    finally:
        scheduler._template.cache_clear()
    assert (code, out) == (2, "")
    assert err == "error: internal: stored levels: 2 level(s), expected n/2 - 1 = 3\n"


@pytest.mark.parametrize("n,message", [
    (10, "n must be divisible by 4, got 10"),
    (56, "n=56: the flip rule needs 29 flips, over the budget ceil(F_n) = 28")])
def test_schedule_refuses_an_instance_file_of_an_unserved_size(tmp_path, capsys, n, message):
    path = tmp_path / f"inst{n}.json"
    assert run(capsys, "gen", "--n", str(n), "-o", str(path))[0] == 0
    code, out, err = run(capsys, "schedule", "-i", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_schedule_refuses_json_and_table_together(capsys):
    code, out, err = run(capsys, "schedule", "--n", "8", "--json", "--table")
    assert (code, out) == (1, "")
    assert err.startswith("usage: ttp2 schedule ")
    assert err.endswith("ttp2 schedule: error: argument --table: not allowed with "
                        "argument --json\n")


def test_schedule_missing_input_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "schedule", "-i", str(missing))
    assert code == 1
    assert "not found" in err and "nope.json" in err
    assert "invalid json" not in err


def test_schedule_requires_some_source(capsys):
    code, _, err = run(capsys, "schedule")
    assert code == 1
    assert "provide an instance" in err


def test_schedule_output_file(tmp_path, capsys):
    path = tmp_path / "sched.json"
    code, _, _ = run(capsys, "schedule", "--gen", "euclidean", "--n", "12",
                     "--seed", "2", "-o", str(path))
    assert code == 0
    inst = generate_instance(12, kind="euclidean", seed=2)
    assert path.read_text() == schedule_to_json(build_schedule(inst))
    sched = schedule_from_json(path.read_text())
    assert sched.n == 12
    assert validate_schedule(sched).ok


def test_schedule_json_flag(capsys):
    code, out, _ = run(capsys, "schedule", "--gen", "euclidean", "--n", "8",
                       "--seed", "0", "--json")
    assert code == 0
    assert out == schedule_to_json(build_schedule(generate_instance(8, kind="euclidean", seed=0)))
    obj = json.loads(out)
    assert obj["n"] == 8
    assert len(obj["days"]) == 14


def test_schedule_encodes_its_json_once_for_both_the_file_and_stdout(tmp_path, capsys,
                                                                     monkeypatch):
    calls = []

    def counted(sched):
        calls.append(sched)
        return schedule_to_json(sched)

    monkeypatch.setattr(cli, "schedule_to_json", counted)
    path = tmp_path / "sched.json"
    code, out, _ = run(capsys, "schedule", "--gen", "euclidean", "--n", "8",
                       "--seed", "0", "-o", str(path), "--json")
    assert code == 0 and len(calls) == 1
    assert path.read_bytes() == out.encode("utf-8")
    assert out == schedule_to_json(build_schedule(generate_instance(8, kind="euclidean", seed=0)))


def test_schedule_table(capsys):
    code, out, _ = run(capsys, "schedule", "--gen", "euclidean", "--n", "8",
                       "--seed", "0", "--table")
    assert code == 0
    assert "Round 1 Level 1:" in out
    assert re.search(r"M_\d+ --Type-[123]--> M_\d+", out)
    inst = generate_instance(8, kind="euclidean", seed=0)
    assert out.startswith(format_level_table(build_schedule(inst)) + "flips: ")
    assert "" not in out.splitlines()


def test_seed_env_override(monkeypatch, capsys):
    monkeypatch.setenv("TTP2_SEED", "5")
    code, out, _ = run(capsys, "schedule", "--n", "8")
    assert code == 0
    inst = generate_instance(8, kind="euclidean", seed=5)
    total = total_travel(build_schedule(inst), inst)
    assert f"total travel: {total:.6f}" in out


def test_seed_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("TTP2_SEED", "5")
    code, out, _ = run(capsys, "schedule", "--n", "8", "--seed", "2")
    assert code == 0
    inst = generate_instance(8, kind="euclidean", seed=2)
    total = total_travel(build_schedule(inst), inst)
    assert f"total travel: {total:.6f}" in out


def test_back_to_back_calls_share_no_state(monkeypatch, tmp_path, capsys):
    # the parser is built once; flags and seeds of one call must not reach the next
    path = tmp_path / "sched.json"
    code, out, _ = run(capsys, "schedule", "--n", "8", "--seed", "3", "--table",
                       "-o", str(path))
    assert code == 0 and "Round 1 Level 1:" in out
    assert run(capsys, "validate", "-i", str(path))[:2] == (0, "valid\n")
    monkeypatch.setenv("TTP2_SEED", "5")
    code, out, _ = run(capsys, "schedule", "--n", "8")
    assert code == 0 and "Round" not in out
    inst = generate_instance(8, kind="euclidean", seed=5)
    assert f"total travel: {total_travel(build_schedule(inst), inst):.6f}" in out
    assert run(capsys, "validate", "-i", str(path), "-n", "12")[0] == 1
    assert run(capsys, "validate", "-i", str(path))[0] == 0


def test_seed_env_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("TTP2_SEED", "zebra")
    code, _, err = run(capsys, "schedule", "--n", "8")
    assert code == 1
    assert "TTP2_SEED" in err


# --- validate ----------------------------------------------------------------------


def test_validate_clean_schedule(tmp_path, capsys):
    path = tmp_path / "sched.json"
    run(capsys, "schedule", "--gen", "euclidean", "--n", "8", "--seed", "1",
        "-o", str(path))
    code, out, _ = run(capsys, "validate", "-i", str(path))
    assert code == 0
    assert out.strip() == "valid"


def test_validate_text_day_list(tmp_path, capsys):
    path = tmp_path / "sched.txt"
    path.write_text("day 1: 0@3 1@2\nday 2: 0@1 2@3\nday 3: 2@0 3@1\n"
                    "day 4: 1@0 3@2\nday 5: 0@2 1@3\nday 6: 2@1 3@0\n")
    code, out, _ = run(capsys, "validate", "-i", str(path), "-n", "4")
    assert code == 0
    assert out.strip() == "valid"


def test_validate_broken_schedule(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0@1\n0@1\n0@1\n")
    code, out, _ = run(capsys, "validate", "-i", str(path), "-n", "2")
    assert code == 3
    assert "C2_repeater" in out
    assert "C4_max_run" in out
    assert re.search(r"\d+ violation\(s\)", out)


def test_validate_cross_checks_instance(tmp_path, capsys):
    sched_path = tmp_path / "sched.json"
    inst_path = tmp_path / "inst.json"
    run(capsys, "schedule", "--gen", "euclidean", "--n", "8", "--seed", "1",
        "-o", str(sched_path))
    run(capsys, "gen", "--n", "12", "--seed", "1", "-o", str(inst_path))
    code, _, err = run(capsys, "validate", "-i", str(sched_path),
                       "-d", str(inst_path))
    assert code == 1
    assert "n=12" in err and "n=8" in err


def test_validate_names_the_count_that_disagrees(tmp_path, capsys):
    inst_path, sched_path = tmp_path / "inst16.json", tmp_path / "s16.json"
    run(capsys, "gen", "--n", "16", "--seed", "7", "-o", str(inst_path))
    run(capsys, "schedule", "-i", str(inst_path), "-o", str(sched_path))
    text_path = tmp_path / "s16.txt"
    text_path.write_text(day_list_text(schedule_from_json(sched_path.read_text()).days))
    # a JSON schedule's own n is checked against -n first, then the instance's
    for extra in ((), ("-d", str(inst_path))):
        code, out, err = run(capsys, "validate", "-i", str(sched_path), "-n", "12", *extra)
        assert (code, out, err) == (1, "", "error: schedule n=16 does not match the "
                                           "expected n=12\n")
    # a day list has no n of its own: the count that disagrees is -n's
    code, out, err = run(capsys, "validate", "-i", str(text_path), "-n", "12",
                         "-d", str(inst_path))
    assert (code, out, err) == (1, "", "error: instance has n=16 but -n gives n=12\n")
    assert run(capsys, "validate", "-i", str(text_path), "-n", "16",
               "-d", str(inst_path))[:2] == (0, "valid\n")


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "-i", "/nonexistent/sched.json")
    assert code == 1
    assert "error:" in err


# --- evaluate -----------------------------------------------------------------------


@pytest.fixture()
def sched_and_inst(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    run(capsys, "gen", "--n", "8", "--seed", "4", "-o", str(inst_path))
    run(capsys, "schedule", "-i", str(inst_path), "-o", str(sched_path))
    return sched_path, inst_path


def test_evaluate_table(sched_and_inst, capsys):
    sched_path, inst_path = sched_and_inst
    code, out, _ = run(capsys, "evaluate", "-i", str(sched_path),
                       "-d", str(inst_path))
    assert code == 0
    assert "ratio" in out and "yes" in out
    sched = schedule_from_json(sched_path.read_text())
    assert out == format_report(evaluation_report(sched, load_instance(str(inst_path))))


def test_evaluate_json(sched_and_inst, capsys):
    sched_path, inst_path = sched_and_inst
    code, out, _ = run(capsys, "evaluate", "-i", str(sched_path),
                       "-d", str(inst_path), "--json")
    assert code == 0
    sched = schedule_from_json(sched_path.read_text())
    assert out == report_to_json(evaluation_report(sched, load_instance(str(inst_path))))
    obj = json.loads(out)
    assert obj["valid"] is True
    assert obj["ratio"] <= obj["factor_ours"] + 1e-9


def test_evaluate_day_list_text(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "8", "--seed", "4", "-o", str(inst_path))
    inst = load_instance(str(inst_path))
    sched = build_schedule(inst)
    lines = [" ".join(f"{f.away}@{f.home}" for f in day) for day in sched.days]
    text_path = tmp_path / "sched.txt"
    text_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "evaluate", "-i", str(text_path),
                       "-d", str(inst_path))
    assert code == 0
    assert "yes" in out


def test_evaluate_help_names_both_schedule_formats(capsys):
    code, out, _ = run(capsys, "evaluate", "-h")
    assert code == 0
    assert "schedule file (JSON or day-list text)" in " ".join(out.split())


def test_evaluate_invalid_schedule_exit_code(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run(capsys, "gen", "--n", "8", "--seed", "4", "-o", str(inst_path))
    bad = tmp_path / "bad.txt"
    bad.write_text("0@1 2@3 4@5 6@7\n")
    code, out, _ = run(capsys, "evaluate", "-i", str(bad), "-d", str(inst_path))
    assert code == 3
    assert "no" in out.split()


def test_evaluate_rejects_schedule_of_another_size(tmp_path, capsys):
    inst_path = tmp_path / "inst8.json"
    sched_path = tmp_path / "sched12.json"
    run(capsys, "gen", "--n", "8", "--seed", "4", "-o", str(inst_path))
    run(capsys, "schedule", "--n", "12", "--seed", "4", "-o", str(sched_path))
    code, out, err = run(capsys, "evaluate", "-i", str(sched_path),
                         "-d", str(inst_path))
    assert code == 1
    assert out == ""
    assert "n=12" in err and "n=8" in err


@pytest.mark.parametrize("command", ["schedule", "evaluate"])
def test_distances_past_the_float_range_exit_1(tmp_path, capsys, command):
    # every distance fits a float, but their sums do not
    inst_path = tmp_path / "huge.json"
    dist = [[0.0 if i == j else 1e307 for j in range(8)] for i in range(8)]
    inst_path.write_text(json.dumps({"n": 8, "dist": dist}))
    sched_path = tmp_path / "sched8.json"
    run(capsys, "schedule", "--n", "8", "--seed", "0", "-o", str(sched_path))
    argv = {"schedule": ["-i", str(inst_path)],
            "evaluate": ["-i", str(sched_path), "-d", str(inst_path)]}[command]
    code, out, err = run(capsys, command, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: the distances sum past the float range"]


# an integer past Python's 4300-digit limit for reading integer text
_LONG = "1" * 5000

# JSON nested past the interpreter's recursion limit
_DEEP = '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize("command", ["schedule", "evaluate"])
def test_an_instance_nested_too_deeply_exits_1(tmp_path, capsys, command):
    inst_path = tmp_path / "deep.json"
    inst_path.write_text(_DEEP)
    sched_path = tmp_path / "sched8.json"
    run(capsys, "schedule", "--n", "8", "--seed", "0", "-o", str(sched_path))
    argv = {"schedule": ["-i", str(inst_path)],
            "evaluate": ["-i", str(sched_path), "-d", str(inst_path)]}[command]
    code, out, err = run(capsys, command, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: invalid json: nested too deeply to read"]


@pytest.mark.parametrize("command", ["schedule", "evaluate"])
@pytest.mark.parametrize("field", ["n", "dist"])
def test_an_instance_with_an_overlong_integer_exits_1(tmp_path, capsys, command, field):
    inst_path = tmp_path / "long.json"
    # without coords the text holds the matrix, where the overlong number goes
    text = emit_instance(Instance(n=8, dist=generate_instance(8, kind="euclidean", seed=0).dist))
    if field == "n":
        text = text.replace('"n": 8', f'"n": {_LONG}')
    else:
        text = text.replace("0.0", _LONG, 1)
    inst_path.write_text(text)
    sched_path = tmp_path / "sched8.json"
    run(capsys, "schedule", "--n", "8", "--seed", "0", "-o", str(sched_path))
    argv = {"schedule": ["-i", str(inst_path)],
            "evaluate": ["-i", str(sched_path), "-d", str(inst_path)]}[command]
    code, out, err = run(capsys, command, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: invalid json: integer 111111111111... has 5000 digits, "
                                "past the 4300-digit limit for integers"]


# an outside value far longer than a message line: 300 nested arrays
_NESTED = "[" * 300 + "]" * 300


@pytest.mark.parametrize("command,text,message", [
    ("schedule", _LONG + " 0\n",
     "matrix input must start with the team count, got "
     "'111111111111111111111111111...1111111111111111111111111111'"),
    ("schedule", "1" * 3000 + " 0\n",   # its square has more digits than int writes
     "team count 1111111111111111111111111111...11111111111111111111111111111 exceeds the "
     "supported maximum 2048"),
    ("schedule", '{"n": ' + _NESTED + ', "dist": []}',
     "'n' must be an integer, got [[[[[[[[[[[[[[[[[[[[[[[[[[[[...]]]]]]]]]]]]]]]]]]]]]]]]]]]]]"),
    ("validate", '{"n": ' + _NESTED + ', "days": []}',
     "malformed schedule JSON: invalid literal for n: "
     "[[[[[[[[[[[[[[[[[[[[[[[[[[[[...]]]]]]]]]]]]]]]]]]]]]]]]]]]]] is not a number"),
], ids=["matrix-count", "matrix-count-squared", "instance-n", "schedule-n"])
def test_a_message_caps_the_outside_value_it_shows(tmp_path, capsys, command, text, message):
    path = tmp_path / ("input.json" if text.startswith("{") else "input.txt")
    path.write_text(text)
    code, out, err = run(capsys, command, "-i", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_gen_refuses_a_team_count_past_the_bound(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "--n", "2050", "-o", str(tmp_path / "inst.json"))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: team count 2050 exceeds the supported maximum 2048"]
    assert not (tmp_path / "inst.json").exists()


def _with_block_type(text, block_type):
    obj = json.loads(text)
    obj["levels"][0]["blocks"][0]["type"] = block_type
    return json.dumps(obj)


def _with(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj)


@pytest.mark.parametrize("command", ["validate", "evaluate"])
@pytest.mark.parametrize("damage,message", [
    (lambda text: '{"n": 8}', "missing field 'days'"),
    (lambda text: text[:len(text) // 2], "invalid schedule JSON"),
    (lambda text: _with_block_type(text, None), "'type': None"),
    (lambda text: _with_block_type(text, 7), "unknown block type 7"),
    (lambda text: text.replace('"n"', '"\u00e9n"', 1).encode("latin-1"),
     "bad.json is not UTF-8"),
    (lambda text: _with(text, lambda o: o["team_pairs"].update(pairs="ab")),
     "malformed schedule JSON: pair 'a'"),
    (lambda text: _with(text, lambda o: o["team_pairs"]["pairs"].__setitem__(0, [0.5, 1])),
     "malformed schedule JSON: pair [0.5, 1]: 0.5 is not an integer"),
    (lambda text: _with(text, lambda o: o["days"][0][0].update(away=2.5)),
     "malformed schedule JSON: 2.5 is not an integer"),
    (lambda text: _with(text, lambda o: o.update(n=8.5)),
     "malformed schedule JSON: 8.5 is not an integer"),
    # a day list names its teams in ASCII digits only
    (lambda text: "day 1: 1_0@3 1@2\n", "non-integer team in token '1_0@3'"),
    (lambda text: "day 1: \u0663@0 1@2\n", "non-integer team in token '\u0663@0'"),
    # a team count past the bound, with no plan to refuse first
    (lambda text: _with(text, lambda o: o.update(n=2 ** 80, levels=[], flips=0,
                                                 team_pairs=None, super_pairs=None)),
     f"team count {2 ** 80} exceeds the supported maximum 2048"),
    (lambda text: _with(text, lambda o: o.update(n=2 ** 40, levels=[], flips=0,
                                                 team_pairs=None, super_pairs=None)),
     f"team count {2 ** 40} exceeds the supported maximum 2048"),
    # an integer of more digits than int() reads
    (lambda text: _with(text, lambda o: o.update(n=0)).replace('"n": 0', f'"n": {_LONG}'),
     "invalid schedule JSON: integer 111111111111... has 5000 digits, past the 4300-digit "
     "limit for integers"),
    (lambda text: f"day 1: 0@1 {_LONG}@2\n",
     "team 111111111111... has 5000 digits, past the 4300-digit limit for integers"),
    # arrays nested past the recursion limit
    (lambda text: _DEEP, "invalid schedule JSON: nested too deeply to read"),
], ids=["no-days", "truncated", "type-null", "type-7", "not-utf8", "pairs-text",
        "pair-fraction", "away-fraction", "n-fraction", "text-underscore", "text-arabic-indic",
        "n-2e80", "n-2e40", "n-5000-digits", "text-5000-digits", "nested-too-deeply"])
def test_unreadable_schedule_file_exits_1(sched_and_inst, tmp_path, capsys,
                                          command, damage, message):
    sched_path, inst_path = sched_and_inst
    bad = tmp_path / "bad.json"
    data = damage(sched_path.read_text())
    bad.write_bytes(data if isinstance(data, bytes) else data.encode())
    code, out, err = run(capsys, command, "-i", str(bad), "-d", str(inst_path))
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command", ["validate", "evaluate"])
@pytest.mark.parametrize("edit,field", [
    (lambda o: o.update(n="8"), "n"),
    (lambda o: o["days"][0][0].update(away="0"), "away"),
    (lambda o: o["days"][0][0].update(away=False), "away"),
], ids=["n-text", "away-text", "away-false"])
def test_schedule_file_with_text_or_bool_teams_exits_1(sched_and_inst, tmp_path, capsys,
                                                       command, edit, field):
    sched_path, inst_path = sched_and_inst
    bad = tmp_path / "bad.json"
    bad.write_text(_with(sched_path.read_text(), edit))
    code, out, err = run(capsys, command, "-i", str(bad), "-d", str(inst_path))
    assert code == 1
    assert out == ""
    assert f"invalid literal for {field}: " in err
    assert "Traceback" not in err


@pytest.fixture()
def sched_12_and_inst(tmp_path, capsys):
    inst_path = tmp_path / "inst12.json"
    sched_path = tmp_path / "sched12.json"
    run(capsys, "gen", "--n", "12", "--seed", "0", "-o", str(inst_path))
    run(capsys, "schedule", "-i", str(inst_path), "-o", str(sched_path))
    obj = json.loads(sched_path.read_text())
    assert obj["flips"] == 3
    return obj, sched_path, inst_path


@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_stored_flips_must_match_the_levels(sched_12_and_inst, capsys, command):
    obj, sched_path, inst_path = sched_12_and_inst
    obj["flips"] = 0
    sched_path.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, "-i", str(sched_path), "-d", str(inst_path))
    assert code == 1
    assert out == ""
    assert "stored flips 0" in err and "3 Type-2 blocks" in err


@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_stored_block_types_must_match_the_days(sched_12_and_inst, capsys, command):
    # retyping every Type-2 block to 1 keeps the file consistent with
    # itself, but not with its days
    obj, sched_path, inst_path = sched_12_and_inst
    for level in obj["levels"]:
        for block in level["blocks"]:
            if block["type"] == 2:
                block["type"] = 1
    obj["flips"] = 0
    sched_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, command, "-i", str(sched_path), "-d", str(inst_path))
    assert code == 3
    if command == "validate":
        lines = out.splitlines()
        assert sum(line.startswith("structural_block_type:") for line in lines) == 3
        assert lines[-1] == "3 violation(s)"


@pytest.fixture()
def declared_at_64(sched_12_and_inst):
    """The n=12 schedule's days stored without a plan at n=64: its report
    runs past the kept violations of two constraints."""
    obj, sched_path, inst_path = sched_12_and_inst
    for key in ("levels", "flips", "team_pairs", "super_pairs"):
        del obj[key]
    obj["n"] = 64
    sched_path.write_text(json.dumps(obj))
    return sched_path, inst_path


def test_validate_cuts_each_long_list_and_prints_the_exact_total(declared_at_64, capsys):
    code, out, _ = run(capsys, "validate", "-i", str(declared_at_64[0]))
    lines = out.splitlines()
    assert code == 3
    assert lines[0] == "structural_day_count: day=None teams=() 22 days, expected 126"
    assert sum(line.startswith("structural_one_game_per_day:") for line in lines) == 100
    assert sum(line.startswith("C1_double_round_robin:") for line in lines) == 100
    # 22 days of 52 teams without a game, and 64 * 63 - 132 pairs that never meet
    assert lines[201:] == ["... and 1044 more structural_one_game_per_day",
                           "... and 3800 more C1_double_round_robin",
                           "5045 violation(s)"]


def test_schedule_prints_a_failed_self_check_as_validate_does(declared_at_64, monkeypatch,
                                                              capsys):
    sched_path, inst_path = declared_at_64
    _, report, _ = run(capsys, "validate", "-i", str(sched_path))
    bad = schedule_from_json(sched_path.read_text())
    monkeypatch.setattr("ttp2.cli.build_schedule", lambda inst: bad)
    code, out, err = run(capsys, "schedule", "-i", str(inst_path))
    assert (code, out, err) == (2, "", report)


def test_flips_are_counted_from_the_levels(sched_12_and_inst, capsys):
    obj, sched_path, inst_path = sched_12_and_inst
    del obj["flips"]
    sched_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "evaluate", "-i", str(sched_path), "-d", str(inst_path),
                       "--json")
    assert code == 0
    assert json.loads(out)["flips"] == 3


# One mutation of a stored schedule file, and the exit code it must get: 3
# for a swapped venue, which the file can hold but a schedule cannot; 1 for
# a file that cannot be read as a schedule at all.
TEAM_DAMAGE = ("text", "fraction", "bool", "out-of-range", "self-play")
WEIGHT_DAMAGE = ("text", "bool", "nan", "inf", "negative")
PLAN_DAMAGE = ("retyped-without-team-pairs", "truncated-levels", "swapped-super-pairs",
               "pair-named-twice", "relabeled-level", "self-paired-team")


@pytest.fixture(scope="module")
def stored_8_and_12(tmp_path_factory):
    root = tmp_path_factory.mktemp("stored")
    files = {}
    for n in (8, 12):
        inst = generate_instance(n, kind="euclidean", seed=3)
        inst_path = root / f"inst{n}.json"
        inst_path.write_text(emit_instance(inst))
        files[n] = (json.loads(schedule_to_json(build_schedule(inst))), inst_path)
    return root, files


@st.composite
def _damage(draw, obj):
    """A copy of ``obj`` with one mutation, and the exit code it must get."""
    obj = json.loads(json.dumps(obj))
    kind = draw(st.sampled_from(("swap", "team", "weight", "plan")))
    if kind == "plan":
        how = draw(st.sampled_from(PLAN_DAMAGE))
        levels, code = obj["levels"], 1
        if how == "retyped-without-team-pairs":
            k = draw(st.integers(0, len(levels) - 1))
            draw(st.sampled_from(levels[k]["blocks"]))["type"] = 1 if k == len(levels) - 1 else 3
            obj["team_pairs"], code = None, 3
        elif how == "truncated-levels":
            del levels[:draw(st.integers(1, len(levels) - 1))]
        elif how == "swapped-super-pairs":   # two super-pairs trade a member
            pairs = obj["super_pairs"]["pairs"]
            i, j = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=2, max_size=2,
                                 unique=True))
            pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
        elif how == "pair-named-twice":   # a block takes another block's pairs
            blocks = draw(st.sampled_from(levels))["blocks"]
            i, j = draw(st.lists(st.integers(0, len(blocks) - 1), min_size=2, max_size=2,
                                 unique=True))
            blocks[i]["a_pair"], blocks[i]["b_pair"] = blocks[j]["a_pair"], blocks[j]["b_pair"]
        elif how == "relabeled-level":
            level = draw(st.sampled_from(levels))
            level[draw(st.sampled_from(("round", "level")))] += draw(st.sampled_from((-1, 1, 7)))
        else:   # a team pair names one of its teams twice
            pair = draw(st.sampled_from(obj["team_pairs"]["pairs"]))
            k = draw(st.integers(0, 1))
            pair[1 - k] = pair[k]
        obj["flips"] = sum(b["type"] == 2 for level in levels for b in level["blocks"])
        return obj, code
    if kind == "weight":
        key = draw(st.sampled_from(("team_pairs", "super_pairs")))
        how = draw(st.sampled_from(WEIGHT_DAMAGE))
        w = obj[key]["weight"]
        obj[key]["weight"] = {"text": str(w), "bool": True, "nan": math.nan, "inf": math.inf,
                              "negative": -w - draw(st.floats(0.0, 1e6))}[how]
        return obj, 1
    day = draw(st.sampled_from(obj["days"]))
    fixture = draw(st.sampled_from(day))
    if kind == "swap":
        fixture["away"], fixture["home"] = fixture["home"], fixture["away"]
        return obj, 3
    side, other = draw(st.sampled_from((("away", "home"), ("home", "away"))))
    team, n = fixture[side], obj["n"]
    how = draw(st.sampled_from(TEAM_DAMAGE))
    if how == "out-of-range":
        beyond = draw(st.integers(0, 2 ** 70))
        fixture[side] = draw(st.sampled_from((n + beyond, -1 - beyond)))
    else:
        fixture[side] = {"text": str(team), "fraction": team + 0.5, "bool": team == 1,
                         "self-play": fixture[other]}[how]
    return obj, 1


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from((8, 12)), command=st.sampled_from(("validate", "evaluate")))
def test_one_mutation_of_a_stored_file_gets_its_exit_code(stored_8_and_12, data, n, command):
    root, files = stored_8_and_12
    obj, inst_path = files[n]
    bad, expected = data.draw(_damage(obj))
    path = root / f"bad{n}.json"
    path.write_text(json.dumps(bad))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-i", str(path), "-d", str(inst_path)])
    assert code == expected, err.getvalue()
    assert "Traceback" not in err.getvalue()
    if expected == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


# --- bench ---------------------------------------------------------------------------


def test_bench_csv_shape(capsys):
    code, out, _ = run(capsys, "bench", "--n-set", "8,12", "--trials", "2",
                       "--seed", "0")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["n", "seed", "LB", "total", "ratio", "flips", "budget",
                       "factor_ours", "factor_XK", "valid", "millis"]
    data = [r for r in rows[1:] if r[1] != "max"]
    summary = [r for r in rows[1:] if r[1] == "max"]
    assert len(data) == 4 and len(summary) == 2
    for r in data:
        assert r[9] == "true"
        assert float(r[4]) <= float(r[7]) + 1e-9  # ratio within factor
        assert len(r) == 11
    for r in summary:
        assert float(r[4]) <= float(r[7]) + 1e-9
        assert r[9] == "true"


BUDGET_8 = math.ceil(flip_budget(8))


def _over(rep, satisfied=False, **changes):
    """``rep`` with a ratio over factor_ours, and the ``bound_satisfied`` that
    ``evaluation_report`` gives with it: False, or None (with its reason)
    where the bound need not hold."""
    return replace(rep, ratio=rep.factor_ours + 1e-6, bound_satisfied=satisfied, **changes)


# what makes the second of three n=8 trials break a promise ``bench`` checks,
# and the exit code it then gives: 3 for an invalid trial, else 2; a ratio
# over factor_ours whose bound need not hold breaks none
_BROKEN_TRIAL = {
    "flips": (lambda rep: replace(rep, flips=BUDGET_8 + 1), 2),
    "factor": (_over, 2),
    "invalid": (lambda rep: replace(rep, valid=False), 3),
    "invalid-and-factor": (lambda rep: _over(rep, valid=False), 3),
    "factor-not-metric": (lambda rep: _over(rep, None, bound_reason=NOT_METRIC), 0),
}


@pytest.mark.parametrize("broken", list(_BROKEN_TRIAL))
def test_bench_exits_2_over_a_bound_and_3_on_an_invalid_trial(monkeypatch, capsys, broken):
    breaks, expected = _BROKEN_TRIAL[broken]
    report, second = cli.evaluation_report, generate_instance(8, "euclidean", 1)

    def evaluated(sched, inst):
        rep = report(sched, inst)
        return breaks(rep) if inst == second else rep

    monkeypatch.setattr(cli, "evaluation_report", evaluated)
    code, out, _ = run(capsys, "bench", "--n-set", "8", "--trials", "3", "--seed", "0")
    assert code == expected
    *trials, top = list(csv.reader(out.splitlines()))[1:]
    assert [r[1] for r in trials] == ["0", "1", "2"] and top[:2] == ["8", "max"]
    assert trials[1][5] == str(BUDGET_8 + 1 if broken == "flips" else trials[0][5])
    assert top[4] == max((r[4] for r in trials), key=float)
    assert (float(top[4]) > float(top[7]) + BOUND_SLACK) == ("factor" in broken)
    assert [r[9] for r in trials] == ["true", "false" if "invalid" in broken else "true", "true"]
    assert top[9] == ("false" if "invalid" in broken else "true")


def test_bench_output_file(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", "--n-set", "8", "--trials", "1",
                       "--seed", "0", "-o", str(path))
    assert code == 0
    assert out == ""
    rows = list(csv.reader(path.read_text().splitlines()))
    assert len(rows) == 3  # header + 1 trial + summary


def test_bench_rejects_bad_n(capsys):
    code, _, err = run(capsys, "bench", "--n-set", "8,10")
    assert code == 1
    assert "divisible by 4" in err


@pytest.mark.parametrize("argv,message", [
    (["--trials", "0"], "argument --trials: expected a positive integer, got '0'"),
    (["--trials", "-2"], "argument --trials: expected a positive integer, got '-2'"),
    (["--n-set", "8,x"], "argument --n-set: expected comma-separated integers, got '8,x'"),
    (["--trials", "1_0"], "argument --trials: expected a positive integer, got '1_0'"),
    (["--n-set", "8,1_2"], "argument --n-set: expected comma-separated integers, got '8,1_2'"),
    (["--n-set", "\u0668"], "argument --n-set: expected comma-separated integers, got '\u0668'"),
    (["--seed", "1_0"], "argument --seed: expected an integer in ASCII digits, got '1_0'"),
    (["--n-set", ""], "argument --n-set: expected comma-separated integers, got ''"),
    (["--n-set", ",,,"], "argument --n-set: expected comma-separated integers, got ',,,'"),
], ids=["trials-0", "trials-negative", "n-set-not-integer", "trials-underscore",
        "n-set-underscore", "n-set-arabic-indic", "seed-underscore", "n-set-empty",
        "n-set-commas"])
def test_bench_rejects_bad_arguments(capsys, argv, message):
    code, out, err = run(capsys, "bench", *argv)
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "8", "--seed", "-1"],
    ["schedule", "--n", "8", "--seed", "-1"],
    ["bench", "--n-set", "8", "--trials", "1", "--seed", "-1"],
    ["gen", "--n", "8"],
], ids=["gen", "schedule", "bench", "env"])
def test_negative_seed_exits_1(monkeypatch, capsys, argv):
    monkeypatch.setenv("TTP2_SEED", "-3")   # the flag, where given, wins
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    if "--seed" in argv:
        assert "seed must be a non-negative integer, got -1" in err
    else:   # the message names the variable
        assert "TTP2_SEED must be a non-negative integer, got '-3'" in err
    assert "Traceback" not in err


# --- integers in ASCII digits -------------------------------------------------------------
#
# Every integer the command line reads, and a matrix file's team count,
# is ASCII digits, as day-list teams are: int() alone would also take
# 1_0, +8, and digits of other scripts.  The bench options are checked
# with the other bench arguments above.


@pytest.mark.parametrize("argv,names", [
    (["schedule", "--n", "1_2", "--seed", "0"], "argument --n: "),
    (["schedule", "--n", "\u0668"], "argument --n: "),
    (["gen", "--n", "+8"], "argument --n: "),
    (["schedule", "--n", "8", "--seed", "1_0"], "argument --seed: "),
    (["gen", "--n", "8", "--seed", "\u0663"], "argument --seed: "),
    (["validate", "-i", "unused.json", "-n", "1_2"], "argument -n: "),
    (["factors", "--n-max", "3_6"], "argument --n-max: "),
    (["factors", "--n-max", "100000000"],
     "argument --n-max: team count 100000000 exceeds the supported maximum 2048"),
], ids=["schedule-n", "schedule-n-arabic-indic", "gen-n-plus", "schedule-seed", "gen-seed",
        "validate-n", "factors-n-max", "factors-n-max-past-teams-max"])
def test_integer_arguments_are_ascii_digits(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert names in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1_0", "\u0663", "+3", " 3"], ids=repr)
def test_seed_env_is_ascii_digits(monkeypatch, capsys, value):
    monkeypatch.setenv("TTP2_SEED", value)
    code, out, err = run(capsys, "schedule", "--n", "8")
    assert code == 1
    assert out == ""
    assert f"TTP2_SEED must be an integer in ASCII digits, got {value!r}" in err


def test_matrix_team_count_is_ascii_digits(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("1_0 0 1\n")
    code, out, err = run(capsys, "schedule", "-i", str(path))
    assert code == 1
    assert out == ""
    assert "matrix input must start with the team count, got '1_0'" in err


def test_team_counts_may_have_whitespace_around_them(capsys):
    code, out, _ = run(capsys, "bench", "--n-set", " 8 , 12 ", "--trials", "1")
    assert code == 0
    assert [row[:2] for row in csv.reader(out.splitlines())][1:] == [
        ["8", "0"], ["8", "max"], ["12", "0"], ["12", "max"]]


# --- factors ----------------------------------------------------------------------------


def test_factors_table(capsys):
    code, out, _ = run(capsys, "factors", "--n-max", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "factor_ours", "factor_XK", "ours<=XK"]
    verdict = {int(line.split()[0]): line.split()[3] for line in lines[1:]}
    assert all(verdict[n] == "yes" for n in range(8, 33, 4))
    assert verdict[36] == "no" and verdict[40] == "no"


def test_factors_reads_up_to_the_most_teams(capsys):
    code, out, _ = run(capsys, "factors", "--n-max", str(TEAMS_MAX), "--csv")
    assert code == 0
    assert out.splitlines()[-1].split(",")[0] == str(TEAMS_MAX)


def test_factors_csv(capsys):
    code, out, _ = run(capsys, "factors", "--n-max", "16", "--csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["n", "factor_ours", "factor_XK", "ours_le_XK"]
    assert [r[0] for r in rows[1:]] == ["8", "12", "16"]
    assert all(r[3] == "true" for r in rows[1:])


# --- top-level parsing ----------------------------------------------------------------------


def test_unknown_command(capsys):
    for command in ("frobnicate", "oracle"):
        code, _, err = run(capsys, command)
        assert code == 1
        assert "invalid choice" in err


def test_readme_lists_exactly_the_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("ttp2 ")]
    subs = next(a for a in _build_parser()._actions if a.dest == "command")
    assert sorted(listed) == sorted(subs.choices)


def test_readme_lists_exactly_the_refused_sizes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Served sizes\n", 1)[1].split("\n#", 1)[0]
    listed = {int(n): (int(f), int(b)) for n, f, b in re.findall(
        r"^- n = (\d+): (\d+) flips against (?:ceil\(F_n\) = )?(\d+)$", section, re.M)}
    intro = re.search(r"a multiple of 4 from 8 to (\d+), except ([\d, and]+);", readme)
    assert int(intro.group(1)) == SIZE_MAX
    assert sorted(map(int, re.findall(r"\d+", intro.group(2)))) == sorted(listed)
    assert f"at most {SIZE_MAX}\n(`matching.SIZE_MAX`" in section
    refused = refused_team_counts(range(8, SIZE_MAX + 5, 4))
    assert refused.pop(SIZE_MAX + 4) == f"n must be at most {SIZE_MAX}, got {SIZE_MAX + 4}"
    rule = re.compile(r"needs (\d+) flips, over the budget ceil\(F_n\) = (\d+)$")
    assert {n: tuple(map(int, rule.search(msg).groups())) for n, msg in refused.items()} == listed


def test_no_command(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "required" in err
