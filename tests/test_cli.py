import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from brute import bicyclic_count

from brauerkit import brauer, cli, covers, sympl
from brauerkit.brauer import FormSubmodule, InclusionReport
from brauerkit.cli import (
    CSV_COLUMNS,
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    REPORT_SCHEMA,
    load_report,
    main,
    parse_range,
)
from brauerkit.finab import CapExceededError


def test_parse_range():
    assert parse_range("3") == (3,)
    assert parse_range("2..5") == (2, 3, 4, 5)
    with pytest.raises(Exception):
        parse_range("abc")
    with pytest.raises(Exception):
        parse_range("5..2")


def test_bad_range_exits_with_config_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--g", "abc"])
    assert exc.value.code == EXIT_CONFIG
    with pytest.raises(SystemExit) as exc:
        main(["table", "--g", "3..1"])
    assert exc.value.code == EXIT_CONFIG
    capsys.readouterr()


def test_nonpositive_cap_is_config_error(capsys):
    assert main(["table", "--g", "2", "--r", "2", "--d", "0", "--cap", "0"]) == EXIT_CONFIG
    assert "cap" in capsys.readouterr().err


def test_modulus_beyond_int64_limit_is_config_error(capsys):
    for argv in (
        ["table", "--g", "1", "--r", str(2**31 + 1), "--d", "0"],
        ["verify-g", "--g", "1", "--r", str(2**31 + 1)],
    ):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err


def test_a_composite_modulus_past_the_limit_is_config_error(capsys):
    # every prime power of 2(2^31 - 1) is below 2^31, r itself is not
    r = 2 * (2**31 - 1)
    for family in ("isotropic", "all"):
        argv = ["bogomolov", "--family", family, "--g", "2", "--r", str(r)]
        assert main(argv + ["--cap", str(10**43)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"modulus {r} is too large" in captured.err


def test_verify_g_past_numpy_size_limit_lists_no_table(capsys):
    # (Z/65536)^4 has 2^64 elements, so its coordinate table cannot be
    # allocated, but G costs 5 witness pairs
    code = main(["verify-g", "--g", "2", "--r", "65536", "--cap", str(10**40)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.err == ""
    assert captured.out == "".join(
        f"g=2 r=65536 mode={mode} |G|=65536 rank=1 equals-pairing-span=yes\n"
        for mode in ("all-pairs", "primitive-pairs")
    )


def test_points_capped_only_by_the_group_order_are_computed(capsys):
    # (Z/8)^8 has 2^24 elements, past the default cap, but G costs 30 pairs;
    # (Z/97)^12 has about 7 * 10^23, but G costs 75
    code = main(["table", "--g", "4", "--r", "8", "--d", "0"])
    (rec,) = json.loads(capsys.readouterr().out)["records"]
    assert code == EXIT_OK
    assert rec["status"] == "ok"
    assert rec["gprime_order"] == rec["g_order_all_pairs"] == 8
    code = main(["verify-g", "--g", "6", "--r", "97", "--cap", str(10**30)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == "".join(
        f"g=6 r=97 mode={mode} |G|=97 rank=1 equals-pairing-span=yes\n"
        for mode in ("all-pairs", "primitive-pairs")
    )


def test_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    argv = ["table", "--g", "2", "--r", "2", "--d", "0", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("brauerkit: ") and str(out) in line
    assert not out.parent.exists()


def test_unwritable_out_is_refused_before_any_point(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        raise AssertionError("a point was checked")

    monkeypatch.setattr(cli, "verify_main_inclusions", counted)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out, why in [
        (tmp_path / "missing" / "x.json", "No such file or directory"),
        (blocker / "x.json", "Not a directory"),
    ]:
        argv = ["table", "--g", "2..3", "--r", "2..4", "--d", "0", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"brauerkit: cannot write {out}: {why}\n"
    assert calls == []
    assert blocker.read_text() == "" and not (tmp_path / "missing").exists()


def test_an_out_path_that_is_a_directory_is_config_error(tmp_path, capsys):
    # the directory's parent is writable, so the run gets past the up-front
    # check and fails only when it opens the path
    argv = ["table", "--g", "2", "--r", "2", "--d", "0", "--out", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"brauerkit: cannot write {tmp_path}: Is a directory\n"
    assert tmp_path.is_dir() and not any(tmp_path.iterdir())


def test_bad_jobs_is_config_error(capsys):
    code = main(["table", "--g", "2", "--r", "2", "--d", "0", "--jobs", "0"])
    assert code == EXIT_CONFIG
    capsys.readouterr()


def test_table_frozen_two_records(capsys):
    code = main(["table", "--g", "2", "--r", "2", "--d", "0..1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["config"]["g"] == [2]
    assert doc["config"]["d"] == [0, 1]
    assert len(doc["records"]) == 2
    by_d = {rec["d"]: rec for rec in doc["records"]}
    assert by_d[0]["quotient_components"] == 2 and by_d[0]["l"] == 2
    assert by_d[1]["quotient_components"] == 1 and by_d[1]["l"] == 1
    for rec in doc["records"]:
        assert rec["status"] == "ok"
        assert rec["g_all_equals_weil_span"] is True
        assert rec["prym_components"] == 2
        assert rec["timing_ms"] is None


def test_table_four_records_all_span_equal(capsys):
    code = main(["table", "--g", "2..3", "--r", "2..3", "--d", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert len(doc["records"]) == 4
    assert all(r["g_all_equals_weil_span"] for r in doc["records"])
    assert all(r["g_primitive_equals_weil_span"] for r in doc["records"])
    keys = [(r["g"], r["r"], r["d"]) for r in doc["records"]]
    assert keys == sorted(keys)


def test_table_cap_exceeded_marks_skipped(capsys):
    # G at g = 2 lists its 5 witness pairs
    code = main(["table", "--g", "2", "--r", "2", "--d", "0", "--cap", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_CAP
    rec = json.loads(out)["records"][0]
    assert rec["status"] == "skipped-cap"
    assert rec["g_order_all_pairs"] is None
    # cover counts do not depend on the enumeration, so they are still filled
    assert rec["quotient_components"] == 2


def test_table_failed_flag_names_first_violation(capsys, monkeypatch):
    def one_flag_fails(space, cap, mode):
        r = space.r
        return InclusionReport(
            g=space.g,
            r=r,
            form_rank=space.form_rank,
            weil_span_order=r,
            g_order_all_pairs=r,
            g_order_primitive_pairs=r,
            gprime_order=r,
            e_in_gprime=True,
            gprime_subset_g_all=True,
            gprime_subset_g_primitive=True,
            g_all_equals_weil_span=True,
            g_primitive_equals_weil_span=False,
            gprime_equals_weil_span=True,
        )

    monkeypatch.setattr(cli, "verify_main_inclusions", one_flag_fails)
    code = main(["table", "--g", "2", "--r", "2..3", "--d", "0..1"])
    captured = capsys.readouterr()
    assert code == EXIT_VIOLATION
    assert captured.err == "violation: g_primitive_equals_weil_span at g=2 r=2 d=0\n"
    records = json.loads(captured.out)["records"]
    assert [rec["g_primitive_equals_weil_span"] for rec in records] == [False] * 4


def test_cap_env_var_and_cli_override(capsys, monkeypatch):
    monkeypatch.setenv("BRAUERKIT_CAP", "4")
    assert main(["table", "--g", "2", "--r", "2", "--d", "0"]) == EXIT_CAP
    capsys.readouterr()
    code = main(["table", "--g", "2", "--r", "2", "--d", "0", "--cap", "5"])
    assert code == EXIT_OK
    capsys.readouterr()
    monkeypatch.setenv("BRAUERKIT_CAP", "ten")
    assert main(["table", "--g", "2", "--r", "2", "--d", "0"]) == EXIT_CONFIG
    capsys.readouterr()


def test_table_csv_projection(capsys):
    code = main(["table", "--g", "2", "--r", "2", "--d", "0", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["g"] == "2" and row["status"] == "ok"
    assert row["e_in_gprime"] == "true"
    assert row["cfg_mode"] == "both"
    assert row["cfg_seed"] == "0"
    assert row["timing_ms"] == ""


def test_table_deterministic_bytes(tmp_path):
    args = ["table", "--g", "2", "--r", "2..3", "--d", "0..1"]
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert main(args + ["--jobs", "2", "--out", str(c)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_table_timings_flag(capsys):
    code = main(["table", "--g", "2", "--r", "2", "--d", "0", "--timings"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["records"][0]["timing_ms"] >= 0


def test_table_timings_under_jobs(capsys):
    args = ["table", "--g", "2", "--r", "2..3", "--d", "0", "--timings", "--jobs", "2"]
    code = main(args)
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert len(doc["records"]) == 2
    assert all(rec["timing_ms"] >= 0 for rec in doc["records"])


def test_load_report_roundtrip_preserves_unknown_fields(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["table", "--g", "2", "--r", "2", "--d", "0", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    doc["records"][0]["future_field"] = "kept"
    out.write_text(json.dumps(doc))
    again = load_report(str(out))
    assert again["records"][0]["future_field"] == "kept"
    out.write_text(json.dumps({"schema": "other.v9"}))
    with pytest.raises(ValueError):
        load_report(str(out))


def test_verify_g_output(capsys):
    code = main(["verify-g", "--g", "2", "--r", "2..3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 4  # two r values, both modes
    assert all("equals-pairing-span=yes" in line for line in lines)


def test_verify_g_carries_on_past_a_capped_point(capsys, monkeypatch):
    # a cap of 10 passes the 5 witness pairs at g = 2 and refuses the 15 at
    # g = 3; a point refused ahead of the others, here (2, 4), leaves them
    # checked
    real_compute_G = cli.compute_G

    def capped_at_2_4(space, mode, cap):
        if (space.g, space.r) == (2, 4):
            raise CapExceededError("refused at (2, 4)")
        return real_compute_G(space, mode, cap)

    monkeypatch.setattr(cli, "compute_G", capped_at_2_4)
    code = main(["verify-g", "--g", "2..3", "--r", "2..5", "--cap", "10"])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_CAP
    assert len(out) == 16
    for mode in ("all-pairs", "primitive-pairs"):
        assert f"g=2 r=4 mode={mode} skipped: refused at (2, 4)" in out
        assert f"g=2 r=5 mode={mode} |G|=5 rank=1 equals-pairing-span=yes" in out
        assert f"g=3 r=2 mode={mode} skipped: 15 witness pairs exceed cap 10" in out


def test_verify_g_violation_outranks_a_later_capped_point(capsys, monkeypatch):
    real_compute_G = cli.compute_G

    def wrong_at_2_2(space, mode, cap):
        if (space.g, space.r) == (2, 2):
            return FormSubmodule.full(space)
        return real_compute_G(space, mode, cap)

    monkeypatch.setattr(cli, "compute_G", wrong_at_2_2)
    code = main(["verify-g", "--g", "2..3", "--r", "2", "--cap", "10"])
    out = capsys.readouterr().out
    assert code == EXIT_VIOLATION
    assert "g=2 r=2 mode=all-pairs |G|=64 rank=6 equals-pairing-span=no" in out
    assert "g=3 r=2 mode=all-pairs skipped: 15 witness pairs exceed cap 10" in out


@pytest.mark.parametrize("mode", ["both", "all-pairs", "primitive-pairs"])
def test_verify_g_makes_one_witness_cut_per_point(capsys, monkeypatch, mode):
    # both modes are the same floor check, so "both" checks once and prints
    # two lines
    check = brauer._cut_to_floor
    calls = []

    def counted(space, rows, floor, where):
        calls.append((space.g, space.r))
        return check(space, rows, floor, where)

    monkeypatch.setattr(brauer, "_cut_to_floor", counted)
    code = main(["verify-g", "--g", "2..3", "--r", "2..4", "--mode", mode])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert calls == [(g, r) for g in (2, 3) for r in (2, 3, 4)]
    assert len(lines) == len(calls) * (2 if mode == "both" else 1)


def test_bogomolov_streamed_and_explicit(capsys):
    code = main(["bogomolov", "--g", "2", "--r", "2..3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "members=streamed" in out
    assert "e-in-G'=yes" in out and "G'-in-G=yes" in out
    code = main(["bogomolov", "--g", "2", "--r", "2", "--explicit"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "members=15" in out


def test_bogomolov_explicit_reaches_the_40320_member_family(capsys):
    # the isotropic family at (3, 4) is intersected from its chart, with no
    # member built
    code = main(["bogomolov", "--explicit", "--g", "3", "--r", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("g=3 r=4 family=isotropic members=40320 |G'|=4 ")
    assert "equals-pairing-span=yes" in out


def test_bogomolov_carries_on_past_a_capped_point(capsys):
    # the isotropic family has 600 members at r = 6 but 400 at r = 7
    argv = ["bogomolov", "--explicit", "--g", "2", "--r", "6..7", "--cap", "500"]
    code = main(argv)
    out = capsys.readouterr().out.strip().split("\n")
    assert code == EXIT_CAP
    assert out[0] == "g=2 r=6 skipped: family of 600 members exceeds cap 500"
    assert out[1].startswith("g=2 r=7 family=isotropic members=400 |G'|=7 ")
    assert len(out) == 2


def test_bogomolov_all_family(capsys):
    code = main(["bogomolov", "--g", "2", "--r", "2", "--family", "all"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "family=all members=35 |G'|=1" in out


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--family", "all"], "g=2 r=2 family=all members=35 |G'|=64 rank=6"),
        (
            ["--explicit"],
            "g=2 r=2 family=isotropic members=15 |G'|=64 e-in-G'=yes G'-in-G=no "
            "equals-pairing-span=no",
        ),
    ],
    ids=["all", "isotropic"],
)
def test_bogomolov_fails_on_a_wrong_intersection(capsys, monkeypatch, argv, line):
    # an intersection of every form is neither {0} (the all family's G')
    # nor span(e) (the isotropic family's)
    monkeypatch.setattr(
        cli, "bogomolov_intersection", lambda space, *_: FormSubmodule.full(space)
    )
    code = main(["bogomolov", "--g", "2", "--r", "2", *argv])
    assert code == EXIT_VIOLATION
    assert capsys.readouterr().out == line + "\n"


def test_bogomolov_families_at_a_composite_r(capsys):
    # (3, 6) has two prime powers; the member counts are the closed forms of
    # tests/brute.py, not brauerkit's own
    members = bicyclic_count(3, 6, isotropic=False)
    code = main(["bogomolov", "--family", "all", "--g", "3", "--r", "6"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == f"g=3 r=6 family=all members={members} |G'|=1 rank=0\n"
    assert members == 7168161
    members = bicyclic_count(3, 6, isotropic=True)
    code = main(["bogomolov", "--explicit", "--g", "3", "--r", "6"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith(f"g=3 r=6 family=isotropic members={members} |G'|=6 ")
    assert out.endswith(" equals-pairing-span=yes\n") and members == 1146600


def test_bogomolov_families_past_the_int64_limit(capsys):
    # (8, 9) has about 10^26 members, which len() cannot return; the report
    # prints the closed form of tests/brute.py and exits 0
    cap = ["--cap", str(10**30), "--g", "8", "--r", "9"]
    members = bicyclic_count(8, 9, isotropic=False)
    code = main(["bogomolov", "--family", "all", *cap])
    assert code == EXIT_OK and members > 2**63
    assert capsys.readouterr().out == f"g=8 r=9 family=all members={members} |G'|=1 rank=0\n"
    members = bicyclic_count(8, 9, isotropic=True)
    code = main(["bogomolov", "--explicit", *cap])
    out = capsys.readouterr().out
    assert code == EXIT_OK and members > 2**63
    assert out.startswith(f"g=8 r=9 family=isotropic members={members} |G'|=9 ")
    assert out.endswith(" equals-pairing-span=yes\n")


def test_components_table(capsys):
    code = main(["components", "--r", "2..4", "--d", "0..2"])
    out = capsys.readouterr().out.strip().split("\n")
    assert code == EXIT_OK
    assert out[0] == "r d prym quotient l twist"
    assert "2 0 2 2 2 1" in out
    assert "4 2 4 2 2 2" in out
    assert len(out) == 1 + 3 * 3


def test_selftest_passes_and_is_deterministic(capsys):
    assert main(["selftest", "--seed", "0"]) == EXIT_OK
    first = capsys.readouterr().out
    assert "selftest: PASS" in first
    assert main(["selftest", "--seed", "0"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


def _shifted(res, n):
    """A ``solve_mod`` result with its particular solution moved by (1, ..., 1)."""
    return res if res is None else ((res[0] + 1) % n, res[1])


@pytest.mark.parametrize(
    "name, fake, suite",
    [
        ("howell_form", lambda real: lambda M, n: real(M, n)[:-1], "howell-span-oracle"),
        (
            "solve_mod",
            lambda real: lambda A, c, n: _shifted(real(A, c, n), n),
            "solve-mod-exhaustive",
        ),
        (
            "compute_G",
            lambda real: lambda space, *args: FormSubmodule.full(space),
            "brute-force-submodules",
        ),
        # the radical of the zero form, the whole group
        ("radical", lambda real: lambda b: real(0 * b), "weil-nondegeneracy"),
    ],
    ids=["howell_form", "solve_mod", "compute_G", "radical"],
)
def test_each_oracle_backed_suite_fails_on_a_wrong_answer(
    name, fake, suite, capsys, monkeypatch
):
    monkeypatch.setattr(cli, name, fake(getattr(cli, name)))
    assert main(["selftest", "--seed", "0"]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert f"suite {suite}: FAIL" in out
    assert f"selftest: FAIL ({suite})" in out


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "meta.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_output_matches_golden(name, capsys, monkeypatch):
    """stdout, stderr and exit code of each stored argv, byte for byte."""
    monkeypatch.delenv("BRAUERKIT_CAP", raising=False)
    case = GOLDEN_CASES[name]
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.err == case["stderr"]
    assert captured.out == (GOLDEN / f"{name}.stdout").read_bytes().decode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--g", "0", "--r", "2", "--d", "0"],
        ["table", "--g", "2", "--r", "1..3", "--d", "0"],
        ["verify-g", "--g", "2", "--r", "1"],
        ["bogomolov", "--g", "0..2", "--r", "2"],
        ["components", "--r", "1", "--d", "0"],
        ["selftest", "--seed", "-1"],  # numpy's generator takes no negative seed
    ],
)
def test_g_below_one_or_r_below_two_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("raw", ["ten", "0"])
def test_cap_env_var_read_only_by_commands_with_cap(raw, capsys, monkeypatch):
    monkeypatch.setenv("BRAUERKIT_CAP", raw)
    assert main(["components", "--r", "2", "--d", "0"]) == EXIT_OK
    assert main(["selftest", "--seed", "0"]) == EXIT_OK
    capsys.readouterr()
    for argv in (
        ["table", "--g", "2", "--r", "2", "--d", "0"],
        ["verify-g", "--g", "2", "--r", "2"],
        ["bogomolov", "--g", "2", "--r", "2"],
    ):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap" in captured.err.lower()


def _golden_table_json():
    case = GOLDEN_CASES["table-json"]
    return case["argv"], (GOLDEN / "table-json.stdout").read_bytes().decode("utf-8")


def test_main_builds_its_parser_once():
    main(["components", "--r", "2", "--d", "0"])
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_a_usage_error_leaves_the_shared_parser_as_it_was(capsys, monkeypatch):
    monkeypatch.delenv("BRAUERKIT_CAP", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["table", "--g", "abc"])
    assert exc.value.code == EXIT_CONFIG
    capsys.readouterr()
    argv, golden = _golden_table_json()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == golden


def test_a_patch_after_the_parser_is_built_still_holds(capsys, monkeypatch):
    # the shared parser holds neither the commands nor the library functions
    # they call, so patching cli after an earlier main call still takes effect
    main(["components", "--r", "2", "--d", "0"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_components", lambda args, cap: 7)
    assert main(["components", "--r", "2", "--d", "0..3"]) == 7
    monkeypatch.undo()
    real_verify = cli.verify_main_inclusions

    def no_e_in_gprime(space, cap, mode):
        report = real_verify(space, cap, mode)
        return InclusionReport(**{**report.as_dict(), "e_in_gprime": False})

    def capped(space, mode, cap):
        raise CapExceededError("patched")

    monkeypatch.setattr(cli, "verify_main_inclusions", no_e_in_gprime)
    assert main(["table", "--g", "2", "--r", "2", "--d", "0..1"]) == EXIT_VIOLATION
    assert capsys.readouterr().err == "violation: e_in_gprime at g=2 r=2 d=0\n"
    monkeypatch.setattr(cli, "compute_G", capped)
    assert main(["verify-g", "--g", "2", "--r", "2", "--mode", "all-pairs"]) == EXIT_CAP
    assert capsys.readouterr().out == "g=2 r=2 mode=all-pairs skipped: patched\n"


@pytest.mark.parametrize(
    "argv, points",
    [
        (["table", "--g", "2..3", "--r", "2..3", "--d", "0..2"], 4),
        (["components", "--r", "2..12", "--d", "0..11"], 11),
    ],
)
def test_one_cover_model_per_point(argv, points, capsys, monkeypatch):
    # the covering class and its kernel subgroup depend on (g, r) alone, so
    # they are built once per point, not once per d
    calls = []

    def counted(parent, gens):
        calls.append(parent)
        return real(parent, gens)

    real = covers.subgroup_from_generators
    for module in (covers, cli, sympl):
        monkeypatch.setattr(module, "subgroup_from_generators", counted)
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == points


def test_importing_cli_loads_no_process_pool():
    # the pool is imported only by table --jobs N > 1, and the oracle only by
    # selftest, so a fresh process that imports cli has loaded neither
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = "import sys, brauerkit.cli; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert {"multiprocessing", "brauerkit.oracle"}.isdisjoint(out.stdout.split())


def test_python_dash_m_runs_the_cli():
    # __main__ hands argv to main and its return to the exit status: the
    # stored components run, byte for byte, exit 0
    case = GOLDEN_CASES["components"]
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "brauerkit", *case["argv"]],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
    )
    assert out.returncode == case["exit"] == 0
    assert out.stderr.decode() == case["stderr"]
    assert out.stdout == (GOLDEN / "components.stdout").read_bytes()


@pytest.mark.parametrize("jobs, points, workers", [(64, 2, 2), (2, 4, 2)])
def test_the_jobs_pool_starts_no_more_workers_than_points(
    jobs, points, workers, capsys, monkeypatch
):
    # a stand-in pool that records its size and starts no process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    argv = ["table", "--g", "2", "--r", f"2..{points + 1}", "--d", "0"]
    assert main(argv) == EXIT_OK
    serial = capsys.readouterr().out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert main([*argv, "--jobs", str(jobs)]) == EXIT_OK
    assert capsys.readouterr().out == serial
    assert sizes == [workers]
