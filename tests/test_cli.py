import json
import re
import shlex
import time
from pathlib import Path

import pytest

from nlbox.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_pass(capsys):
    code, out = run(["verify", "--game", "magic-square", "--strategy", "ms-nlb",
                     "--seeds", "exhaustive"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["value"] == {"num": 1, "den": 1}
    assert report["checked"] == 18
    assert report["resources"] == {"nlb": 1, "comm": 0}


def test_verify_arity_mismatch_exits_1(capsys):
    code = main(["verify", "--game", "chsh", "--strategy", "ms-nlb"])
    assert code == 1


def test_verify_counterexample_exits_2(capsys):
    code, out = run(["verify", "--game", "bmaj:4", "--strategy",
                     "multi-mermin-nlb:4", "--seeds", "exhaustive"], capsys)
    assert code == 2
    report = json.loads(out)
    assert "counterexample" in report
    assert report["value"]["num"] < report["value"]["den"]


def test_verify_dj2_reports_boxes(capsys):
    code, out = run(["verify", "--game", "dj:2", "--strategy", "dj-nlb:2",
                     "--seeds", "exhaustive"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["checked"] == 112 * 16
    assert report["resources"]["nlb"] == 4


def test_sample_requires_rng_seed(capsys):
    code = main(["verify", "--game", "multi-mermin:5", "--strategy",
                 "multi-mermin-nlb:5", "--seeds", "sample:16"])
    assert code == 1


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sample_count_below_one_exits_1(count, capsys):
    code = main(["verify", "--game", "multi-mermin:5", "--strategy",
                 "multi-mermin-nlb:5", "--seeds", f"sample:{count}",
                 "--rng-seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: sample count must be at least 1")


@pytest.mark.parametrize("pair", ["0,5", "1,1", "-1,2", "2,2"])
def test_search_bad_pair_exits_1(pair, capsys):
    code = main(["search", "--game", "multi-mermin:4", f"--pair={pair}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: pair ")


@pytest.mark.parametrize("argv, message", [
    (["search", "--game", "chsh", "--budget", "0nlb", "--pair", "0,1"],
     "error: pair 0,1 needs budget 1"),
    (["verify", "--game", "chsh", "--strategy", "chsh-nlb", "--seeds",
      "exhaustive", "--rng-seed", "3"],
     "error: --rng-seed applies only to --seeds sample:<K>"),
    (["verify", "--game", "chsh", "--strategy", "chsh-nlb", "--seeds", "sample:3",
      "--rng-seed", "1", "--max-seed-bits", "0"],
     "error: --max-seed-bits applies only to --seeds exhaustive"),
])
def test_flags_that_would_be_ignored_exit_1(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["value", "--game", "multi-mermin:40"],
    ["value", "--game", "bmaj:40"],
    ["search", "--game", "multi-mermin:40", "--budget", "0nlb"],
    ["search", "--game", "bmaj:40", "--budget", "0nlb"],
    ["dist", "--game", "multi-mermin:30", "--strategy", "multi-mermin-nlb:30"],
    ["value", "--game", "dj:2"],
], ids=" ".join)
def test_limits_refuse_before_any_promise_is_built(argv, capsys):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert elapsed < 1.0


def test_value_magic_square(capsys):
    code, out = run(["value", "--game", "magic-square"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == {"num": 8, "den": 9}


def test_dist_uniform_verdict(capsys):
    code, out = run(["dist", "--game", "mermin", "--strategy",
                     "mermin-nlb-sim"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["uniform_over_winners"] is True
    assert report["seed_count"] == 4
    assert all(len(x["outcomes"]) == 4 for x in report["inputs"])


def test_dist_non_uniform_exits_2(capsys):
    # a fixed quadruple puts mass 1/2 on 2 of the 8 winning outcomes
    code, out = run(["dist", "--game", "magic-square", "--strategy", "ms-nlb"],
                    capsys)
    assert code == 2
    assert json.loads(out)["uniform_over_winners"] is False


def test_dist_without_uniform_target(capsys):
    code, out = run(["dist", "--game", "bmaj:2", "--strategy", "bmaj-nlb:2"],
                    capsys)
    assert code == 0
    assert json.loads(out)["uniform_over_winners"] is None


def test_search_reports(capsys):
    code, out = run(["search", "--game", "multi-mermin:3", "--pair", "0,1"],
                    capsys)
    assert code == 0
    report = json.loads(out)
    assert report["perfect"] is True and report["candidates"] == 16384

    code, out = run(["search", "--game", "chsh", "--budget", "0nlb"], capsys)
    report = json.loads(out)
    assert report["perfect"] is False and report["best"] == {"num": 3, "den": 4}


def test_max_seed_bits_only_where_a_sweep_runs(capsys):
    assert main(["dist", "--game", "chsh", "--strategy", "chsh-nlb",
                 "--max-seed-bits", "1"]) == 0
    # dj-nlb:2 has 2^4 seeds
    assert main(["verify", "--game", "dj:2", "--strategy", "dj-nlb:2",
                 "--max-seed-bits", "3"]) == 1
    for argv in (["value", "--game", "chsh"], ["search", "--game", "chsh"],
                 ["resources", "--strategy", "chsh-nlb"], ["list"]):
        assert main(argv + ["--max-seed-bits", "30"]) == 1, argv


@pytest.mark.parametrize("command,hint", [("dist", False), ("verify", True)])
def test_seed_limit_refusal_names_sampling_only_where_it_exists(command, hint, capsys):
    # dj-nlb:2 has 2^4 seeds; only verify takes --seeds sample:<K>
    code = main([command, "--game", "dj:2", "--strategy", "dj-nlb:2",
                 "--max-seed-bits", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: seed space of dj-nlb:2 has 16 points (limit 2**3)"
                            + ("; use --seeds sample:<K>" if hint else "") + "\n")


def test_dj_promise_refusal_names_sampling_only_where_it_exists(capsys):
    refusal = "error: dj:4 promise has 843513856 pairs (limit 1048576)"
    assert main(["dist", "--game", "dj:4", "--strategy", "dj-nlb:4"]) == 1
    assert capsys.readouterr().err == refusal + "\n"
    assert main(["verify", "--game", "dj:4", "--strategy", "dj-nlb:4"]) == 1
    assert capsys.readouterr().err == refusal + "; use --seeds sample:<K>\n"


def test_dj3_verifies_exhaustively(capsys):
    # 18,176 promised pairs x 2**12 seeds, about 2 s
    code, out = run(["verify", "--game", "dj:3", "--strategy", "dj-nlb:3",
                     "--seeds", "exhaustive"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["checked"] == 74_448_896
    assert report["value"] == {"num": 1, "den": 1}


def test_dist_and_verify_refuse_a_misfit_alike(capsys):
    errors = []
    for command in ("dist", "verify"):
        assert main([command, "--game", "mermin", "--strategy", "chsh-nlb"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == ["error: strategy 'chsh-nlb' does not fit game 'mermin' "
                      "(party count / input / output arity mismatch)\n"] * 2


def test_huge_max_seed_bits_is_checked_at_once(capsys):
    start = time.perf_counter()
    code, out = run(["dist", "--game", "chsh", "--strategy", "chsh-nlb",
                     "--max-seed-bits", "1000000000000"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["seed_count"] == 2


@pytest.mark.parametrize("argv", [
    ["value", "--game", "dj:11"],
    ["resources", "--strategy", "dj-nlb:11"],
    # sizes a build without the cap still completes, so the test fails there
    ["verify", "--game", "dj:12", "--strategy", "dj-nlb:12", "--seeds", "sample:1",
     "--rng-seed", "1"],
    ["verify", "--game", "dj:10", "--strategy", "dj-nlb:11", "--seeds",
     "sample:1", "--rng-seed", "1"],
], ids=" ".join)
def test_dj_past_its_cap_exits_1(argv, capsys):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: dj")
    assert "limited to n <= 10" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, message", [
    (["value", "--game", "multi-mermin:20000"],
     "2**40000 deterministic strategies exceed the limit 268435456"),
    (["value", "--game", "bmaj:99999"],
     "2**199998 deterministic strategies exceed the limit 268435456"),
    (["search", "--game", "multi-mermin:99999", "--budget", "0nlb"],
     "2**199998 deterministic strategies exceed the limit 268435456"),
    # these took 31 s and 327 MB to refuse while the count multiplied its
    # factors one by one and the search listed every pairing first
    (["value", "--game", "multi-mermin:1000000"],
     "2**2000000 deterministic strategies exceed the limit 268435456"),
    (["search", "--game", "multi-mermin:3000", "--budget", "1nlb"],
     "more than 2**6030 deterministic strategies exceed the limit 268435456"),
    (["verify", "--game", "multi-mermin:40", "--strategy", "multi-mermin-nlb:40"],
     "seed space of multi-mermin-nlb:40 has 2**780 points (limit 2**24); "
     "use --seeds sample:<K>"),
    (["verify", "--game", "multi-mermin:200", "--strategy", "multi-mermin-nlb:200"],
     "multi-mermin-nlb limited to n <= 40"),
    (["dist", "--game", "multi-mermin:200", "--strategy", "multi-mermin-nlb:200"],
     "multi-mermin-nlb limited to n <= 40"),
    (["resources", "--strategy", "multi-mermin-nlb:200"],
     "multi-mermin-nlb limited to n <= 40"),
    (["resources", "--strategy", "multi-mermin-nlb:41"],
     "multi-mermin-nlb limited to n <= 40"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_huge_counts_end_in_one_error_line(argv, message, capsys):
    # each printed a count of more than 4,300 digits, which Python refuses
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_multi_mermin_nlb_at_its_cap_runs(capsys):
    code, out = run(["resources", "--strategy", "multi-mermin-nlb:40"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["resources"] == {"nlb": 780, "comm": 0}
    assert report["seed_space"] == 2 ** 780
    code, out = run(["verify", "--game", "multi-mermin:40", "--strategy",
                     "multi-mermin-nlb:40", "--seeds", "sample:4", "--rng-seed", "1"],
                    capsys)
    assert code == 0 and json.loads(out)["checked"] == 4


def test_dj_at_its_cap_runs(capsys):
    code, out = run(["verify", "--game", "dj:10", "--strategy", "dj-nlb:10",
                     "--seeds", "sample:2", "--rng-seed", "1"], capsys)
    assert code == 0
    assert json.loads(out)["resources"] == {"nlb": 2032, "comm": 0}


def test_resources(capsys):
    code, out = run(["resources", "--strategy", "multi-mermin-nlb:5"], capsys)
    assert code == 0
    assert json.loads(out)["resources"] == {"nlb": 10, "comm": 0}


def test_list_contains_registries(capsys):
    code, out = run(["list"], capsys)
    report = json.loads(out)
    assert "magic-square" in report["games"]
    assert "dj:<n>" in report["games"]
    assert "ms-nlb-sim" in report["strategies"]
    assert "nlb-via-comm" in report["strategies"]


def test_unknown_ids_exit_1(capsys):
    assert main(["value", "--game", "tic-tac-toe"]) == 1
    assert main(["resources", "--strategy", "psychic"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["value", "--game", "multi-mermin:+3"], "bad parameter in 'multi-mermin:+3'"),
    (["value", "--game", "multi-mermin: 3"], "bad parameter in 'multi-mermin: 3'"),
    (["value", "--game", "multi-mermin:03"], "bad parameter in 'multi-mermin:03'"),
    (["value", "--game", "multi-mermin:\u0663"], "bad parameter in 'multi-mermin:\u0663'"),
    (["resources", "--strategy", "dj-nlb:1_0"], "bad parameter in 'dj-nlb:1_0'"),
    (["resources", "--strategy", "dj-nlb:+1"], "bad parameter in 'dj-nlb:+1'"),
    (["value", "--game", "chsh:1"], "game 'chsh' takes no parameter"),
    (["resources", "--strategy", "dj-nlb"],
     "strategy 'dj-nlb' needs a parameter, e.g. dj-nlb:3"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_registry_ids_take_only_canonical_parameters(argv, message, capsys):
    # int() would read each of the first six as a number and rename the id
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--game", "chsh", "--strategy", "chsh-nlb", "--max-seed-bits", "-1"],
    ["dist", "--game", "chsh", "--strategy", "chsh-nlb", "--max-seed-bits", "-5"],
    ["value", "--game", "chsh", "--max-search", "-1"],
    ["search", "--game", "chsh", "--max-search", "-1"],
], ids=" ".join)
def test_negative_limits_are_usage_errors(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    flag, value = argv[-2:]
    assert captured.err == f"error: {flag} must be at least 0, got {value}\n"


def test_md_format(capsys):
    code, out = run(["dist", "--game", "mermin", "--strategy", "mermin-nlb-sim",
                     "--format", "md"], capsys)
    assert code == 0
    assert "| outcome | probability |" in out
    assert "| 1/4 |" in out


@pytest.mark.parametrize("argv", [
    ["list"],
    ["verify", "--game", "bmaj:5", "--strategy", "multi-mermin-nlb:5"],
    ["value", "--game", "chsh"],
    ["dist", "--game", "chsh", "--strategy", "chsh-nlb"],
    ["search", "--game", "mermin", "--budget", "1nlb"],
    ["resources", "--strategy", "dj-nlb:3"],
], ids=lambda argv: argv[0])
def test_md_format_has_a_row_per_json_field(argv, capsys):
    # the counterexample, the witness, the resource counts and the
    # registries included; the per-input outcomes get a table per input
    code, out = run(argv, capsys)
    report = json.loads(out)
    code_md, md = run(argv + ["--format", "md"], capsys)
    assert code_md == code
    # the field table ends at the first blank line
    rows = dict(re.findall(r"^\| (\w+) \| (.*) \|$", md.split("\n\n")[0], re.M))
    assert rows.pop("field") == "value"     # the header
    assert set(rows) == set(report) - {"inputs"}
    for key, value in rows.items():
        # lists and dicts other than fractions as compact sorted JSON
        if value[0] in "[{":
            assert value == json.dumps(report[key], sort_keys=True, separators=(",", ":"))
    assert md.count("\ninput ") == len(report.get("inputs", ()))


@pytest.mark.parametrize("game,strategy", [("chsh", "chsh-nlb"),
                                           ("magic-square", "ms-nlb")])
def test_md_dist_rows_have_as_many_cells_as_their_header(game, strategy, capsys):
    # an outcome's parties are joined by a space: a "|" would add a cell
    argv = ["dist", "--game", game, "--strategy", strategy]
    code, out = run(argv, capsys)
    inputs = json.loads(out)["inputs"]
    code_md, md = run(argv + ["--format", "md"], capsys)
    assert code_md == code
    tables = [block.splitlines() for block in md.split("\n\n")
              if block.startswith("|")]
    assert len(tables) == 1 + len(inputs)
    for header, *rows in tables:
        assert rows and all(row.count("|") == header.count("|") for row in rows)
    if game == "chsh":
        assert "| 0 0 | 1/2 |" in md


def _strip_runtime(raw):
    report = json.loads(raw)
    report.pop("runtime_ms", None)
    return report


def test_identical_invocations_identical_json(capsys):
    argv = ["verify", "--game", "multi-mermin:5", "--strategy",
            "multi-mermin-nlb:5", "--seeds", "sample:64", "--rng-seed", "5"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert _strip_runtime(first) == _strip_runtime(second)
    assert json.dumps(_strip_runtime(first), sort_keys=True) == \
        json.dumps(_strip_runtime(second), sort_keys=True)


def readme_commands():
    pattern = re.compile(r"^nlbox\s+(.*?)(?:\s*#\s*exits\s+(\d+).*)?$")
    commands = []
    for line in README.read_text().splitlines():
        m = pattern.match(line.strip())
        if m:
            commands.append((shlex.split(m.group(1)),
                             int(m.group(2)) if m.group(2) else 0))
    return commands


def test_readme_lists_example_invocations():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("argv,expected",
                         readme_commands() or [(None, None)],
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_readme_examples_run(argv, expected, capsys):
    if argv is None:
        pytest.skip("README not written yet")
    assert main(argv) == expected


@pytest.mark.parametrize("argv, message", [
    (["verify", "--game", "chsh", "--strategy", "chsh-nlb", "--seeds", "sample:x",
      "--rng-seed", "1"], "bad sample count in --seeds 'sample:x'"),
    (["verify", "--game", "chsh", "--strategy", "chsh-nlb", "--seeds", "bogus"],
     "--seeds must be 'exhaustive' or 'sample:<K>', got 'bogus'"),
    (["search", "--game", "chsh", "--budget", "2nlb"], "--budget must be 0nlb or 1nlb"),
    (["search", "--game", "chsh", "--pair", "0"],
     "--pair expects two comma-separated party indices"),
    (["value", "--game", "dj:4"], "dj:4 has no enumerable per-party inputs"),
    (["search", "--game", "dj:1", "--budget", "1nlb"],
     "search needs binary per-party inputs, which dj:1 lacks"),
    (["value", "--game", "dj:0"], "dj needs n >= 1"),
    (["value", "--game", "bmaj:1"], "bmaj needs n >= 2"),
    (["resources", "--strategy", "dj-nlb:0"], "dj-nlb needs n >= 1"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_refusal_is_one_error_line(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"
