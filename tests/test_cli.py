"""CLI: run/audit/check/report round trips and exit codes."""

import os
from pathlib import Path

import pytest

from progmoney import money
from progmoney.cli import LEDGER_FILE, OBSERVATIONS_FILE, REPORT_FILE, run_cli

SCENARIO_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "scenarios"
)
POLICY_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "policies"
)
SALES_TAX_SCN = str(SCENARIO_DIR / "sales_tax.scn")
README = Path(__file__).resolve().parents[1] / "README.md"


def run(args):
    return run_cli([str(a) for a in args])


class TestRun:
    def test_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out]) == 0
        for name in (OBSERVATIONS_FILE, LEDGER_FILE, REPORT_FILE):
            assert (out / name).exists()

    def test_same_seed_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(["run", SALES_TAX_SCN, "--seed", 7, "--out", first]) == 0
        assert run(["run", SALES_TAX_SCN, "--seed", 7, "--out", second]) == 0
        for name in (OBSERVATIONS_FILE, LEDGER_FILE, REPORT_FILE):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_different_seed_may_differ_but_audits(self, tmp_path):
        out = tmp_path / "c"
        assert run(["run", SALES_TAX_SCN, "--seed", 8, "--out", out]) == 0

    def test_missing_scenario_exits_1(self, tmp_path):
        assert run(["run", tmp_path / "nope.scn", "--out", tmp_path / "o"]) == 1

    def test_malformed_scenario_exits_1(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("[hosts]\nx = WIZARD HOME\n", encoding="utf-8")
        assert run(["run", bad, "--out", tmp_path / "o"]) == 1

    @pytest.mark.parametrize("host_id", ["ali,ce", "ali|ce"])
    def test_host_id_with_a_ledger_separator_exits_1(self, tmp_path, host_id):
        # refused at load: ledger lines separate fields with "|" and items with ","
        renamed = tmp_path / "renamed.scn"
        text = Path(SALES_TAX_SCN).read_text(encoding="utf-8").replace("alice", host_id)
        renamed.write_text(text, encoding="utf-8")
        assert run(["run", renamed, "--out", tmp_path / "o"]) == 1
        assert not (tmp_path / "o").exists()

    def test_runtime_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # a fault the program does not expect, met mid-run after a clean load
        def fault(*args):
            raise RuntimeError("fault mid-run")

        monkeypatch.setattr(money, "transfer", fault)
        assert run(["run", SALES_TAX_SCN, "--out", tmp_path / "o"]) == 3
        assert capsys.readouterr().err == "runtime error: RuntimeError: fault mid-run\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, refused",
        [
            # over the default issuer allowance of 10**15
            ("[script]\n1 MINT central 10000000000000000\n2 ISSUE central alice 10\n",
             "1|central|mint_refused|value=10000000000000000 error=UnauthorizedIssuer"),
            # an ISSUE over a [supply] allowance mints nothing and transfers nothing
            ("[supply]\nissuer = central\nallowance = 5\n"
             "[script]\n1 ISSUE central alice 10\n2 ISSUE central alice 5\n",
             "1|central|mint_refused|value=10 error=UnauthorizedIssuer"),
            # the second mint exceeds what is left of the allowance
            ("[supply]\nissuer = central\nallowance = 10\n"
             "[script]\n0 MINT central 6\n1 MINT central 6\n",
             "1|central|mint_refused|value=6 error=UnauthorizedIssuer"),
            # a supply rule whose first period mints past the allowance
            ("[sim]\nuntil = 10\nperiod_ticks = 10\n[supply]\nissuer = central\n"
             "allowance = 50\nrule = CONSTANT_GROWTH 36/1\n[script]\n0 MINT central 30\n",
             "10|central|mint_refused|value=30 error=UnauthorizedIssuer"),
        ],
        ids=["default_allowance", "issue_over_allowance", "second_mint", "supply_rule"],
    )
    def test_refused_mint_is_observed_and_the_run_goes_on(self, tmp_path, text, refused):
        scenario = tmp_path / "refused.scn"
        scenario.write_text(
            "[hosts]\ncentral = CENTRAL_BANK HOME\nalice = CONSUMER HOME\n" + text,
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert run(["run", scenario, "--out", out]) == 0
        assert run(["audit", out / LEDGER_FILE]) == 0
        lines = (out / OBSERVATIONS_FILE).read_text(encoding="utf-8").splitlines()
        assert refused in lines
        # the refused action writes nothing more at its tick, and a period mints 0
        tick = refused.split("|")[0]
        assert [line for line in lines if line.startswith(f"{tick}|central|")] == [refused]
        assert all("mint=0 " in line for line in lines if "|trajectory|" in line)

    def test_seed_defaults_to_zero(self, tmp_path, monkeypatch):
        # --seed is the one way to set the seed; the environment plays no part
        first, second = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("PROGMONEY_SEED", "7")
        assert run(["run", SALES_TAX_SCN, "--out", first]) == 0
        assert run(["run", SALES_TAX_SCN, "--seed", 0, "--out", second]) == 0
        for artifact in (OBSERVATIONS_FILE, REPORT_FILE):
            assert (first / artifact).read_bytes() == (second / artifact).read_bytes()

    def test_byte_identical_across_hash_seeds(self, tmp_path):
        # separate interpreter processes with different string-hash seeds
        import subprocess
        import sys

        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"h{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "from progmoney.cli import run_cli; import sys; "
                    "sys.exit(run_cli(sys.argv[1:]))",
                    "run",
                    SALES_TAX_SCN,
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ],
                env=env,
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr.decode()
            outputs.append(
                tuple((out / name).read_bytes() for name in (OBSERVATIONS_FILE, LEDGER_FILE, REPORT_FILE))
            )
        assert outputs[0] == outputs[1]


class TestAudit:
    def test_clean_ledger_exits_0(self, tmp_path):
        out = tmp_path / "out"
        run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out])
        assert run(["audit", out / LEDGER_FILE]) == 0

    def test_corrupted_amount_exits_2(self, tmp_path):
        out = tmp_path / "out"
        run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out])
        ledger = out / LEDGER_FILE
        lines = ledger.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace("1000", "1003")
        ledger.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["audit", ledger]) == 2

    def test_deleted_record_exits_2(self, tmp_path):
        out = tmp_path / "out"
        run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out])
        ledger = out / LEDGER_FILE
        lines = ledger.read_text(encoding="utf-8").splitlines()
        ledger.write_text("\n".join(lines[:1] + lines[2:]) + "\n", encoding="utf-8")
        assert run(["audit", ledger]) == 2

    def test_missing_file_exits_1(self, tmp_path):
        assert run(["audit", tmp_path / "nothing.txt"]) == 1


class TestCheck:
    def test_shipped_pack_checks_clean(self):
        pack = sorted(POLICY_DIR.glob("*.pol"))
        assert pack
        assert run(["check", *pack]) == 0

    def test_parse_error_exits_1(self, tmp_path):
        bad = tmp_path / "bad.pol"
        bad.write_text("DUTY ON RECEIVE;\n", encoding="utf-8")
        assert run(["check", bad]) == 1

    def test_check_error_exits_1(self, tmp_path):
        bad = tmp_path / "bad.pol"
        bad.write_text('OBLIGATION ON RECEIVE DO PAY 9/1 TO "x";\n', encoding="utf-8")
        assert run(["check", bad]) == 1


class TestReport:
    def test_recompute_matches_stored(self, tmp_path, capsys):
        out = tmp_path / "out"
        run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out])
        capsys.readouterr()  # drop the run command's own output
        assert run(["report", out]) == 0
        recomputed = capsys.readouterr().out
        assert recomputed == (out / REPORT_FILE).read_text(encoding="utf-8")

    def test_tampered_report_detected(self, tmp_path):
        out = tmp_path / "out"
        run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out])
        report = out / REPORT_FILE
        report.write_text(
            report.read_text(encoding="utf-8").replace("tax_collected = 406", "tax_collected = 0"),
            encoding="utf-8",
        )
        assert run(["report", out]) == 2

    def test_missing_artifacts_exit_1(self, tmp_path):
        assert run(["report", tmp_path]) == 1

    def test_corrupt_ledger_artifact_exits_2(self, tmp_path):
        out = tmp_path / "out"
        run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out])
        ledger = out / LEDGER_FILE
        lines = ledger.read_text(encoding="utf-8").splitlines()
        ledger.write_text("\n".join(lines[:1] + lines[2:]) + "\n", encoding="utf-8")
        assert run(["report", out]) == 2

    @pytest.mark.parametrize("crafted", ["0|sim|host|role=CONSUMER", "0|sim|trajectory|period=0"])
    def test_crafted_observation_exits_2(self, tmp_path, crafted):
        out = tmp_path / "out"
        run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out])
        log = out / OBSERVATIONS_FILE
        log.write_text(crafted + "\n" + log.read_text(encoding="utf-8"), encoding="utf-8")
        assert run(["report", out]) == 2

    def test_report_contents(self, tmp_path):
        out = tmp_path / "out"
        run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out])
        text = (out / REPORT_FILE).read_text(encoding="utf-8")
        assert "tax_collected = 406" in text
        assert "balance.bob = 1630" in text
        assert "live_supply = 2036" in text


@pytest.mark.parametrize(
    "command, name, code",
    [
        ("run", "bad.scn", 1),
        ("check", "bad.pol", 1),
        ("audit", LEDGER_FILE, 2),
        ("report", OBSERVATIONS_FILE, 2),
    ],
)
def test_non_utf8_input_is_a_load_error(tmp_path, capsys, command, name, code):
    # one 0xff byte, which no UTF-8 text holds, at the head of the file read
    out = tmp_path / "out"
    assert run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out]) == 0
    bad = out / name
    bad.write_bytes(b"\xff" + (bad.read_bytes() if bad.exists() else b""))
    args = {"run": ["run", bad, "--out", tmp_path / "o"], "report": ["report", out]}
    capsys.readouterr()
    assert run(args.get(command, [command, bad])) == code
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, kind",
    [("run", "dir"), ("audit", "dir"), ("check", "dir"), ("report", "file"), ("report", "artifact")],
)
def test_path_of_the_wrong_kind_exits_1(tmp_path, capsys, command, kind):
    # a directory where a file is read, or a file where a run directory is;
    # "artifact" is a run directory whose ledger is a directory
    out = tmp_path / "out"
    assert run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out]) == 0
    path = {"dir": out, "file": out / LEDGER_FILE, "artifact": out}[kind]
    named = path
    if kind == "artifact":
        named = out / LEDGER_FILE
        named.unlink()
        named.mkdir()
    args = {"run": ["run", path, "--out", tmp_path / "o"]}
    capsys.readouterr()
    assert run(args.get(command, [command, path])) == 1
    assert str(named) in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["file", "under_a_file", "artifact"])
def test_bad_out_exits_1_and_writes_nothing(tmp_path, capsys, kind):
    # --out a file, a path under a file, or a directory whose ledger.txt is a
    # directory: refused before the run, naming the path, with nothing written
    blocker = tmp_path / "blocker"
    if kind == "artifact":
        (blocker / LEDGER_FILE).mkdir(parents=True)
    else:
        blocker.write_text("not a directory\n", encoding="utf-8")
    out = {"file": blocker, "under_a_file": blocker / "sub", "artifact": blocker}[kind]
    named = blocker / LEDGER_FILE if kind == "artifact" else blocker
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(["run", SALES_TAX_SCN, "--seed", 7, "--out", out]) == 1
    assert str(named) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def readme_block(heading, fence):
    """The first fenced block opened by `fence` under the README's `heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split(f"{fence}\n", 1)[1].split("```\n", 1)[0]


def test_readme_examples_run(tmp_path):
    policy = tmp_path / "readme.pol"
    policy.write_text(readme_block("## The policy language", "```"), encoding="utf-8")
    scenario = tmp_path / "readme.scn"
    scenario.write_text(readme_block("## Scenario files", "```ini"), encoding="utf-8")
    out = tmp_path / "out"
    assert run(["check", policy]) == 0
    assert run(["run", scenario, "--seed", 7, "--out", out]) == 0
    assert run(["audit", out / LEDGER_FILE]) == 0
    report = (out / REPORT_FILE).read_text(encoding="utf-8").splitlines()
    assert "tax_collected = 200" in report
