"""CLI: run/audit/check/report round trips and exit codes."""

import os
from pathlib import Path

import pytest

from progmoney.cli import LEDGER_FILE, OBSERVATIONS_FILE, REPORT_FILE, run_cli

SCENARIO_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "scenarios"
)
POLICY_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "policies"
)
SALES_TAX_SCN = str(SCENARIO_DIR / "sales_tax.scn")


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

    def test_runtime_error_exits_3(self, tmp_path):
        # parses fine, but the second mint exceeds what is left of the allowance
        broken = tmp_path / "broken.scn"
        broken.write_text(
            "[sim]\nname = broken\nuntil = 3\n"
            "[hosts]\ncentral = CENTRAL_BANK HOME\n"
            "[supply]\nissuer = central\nallowance = 10\n"
            "[script]\n0 MINT central 6\n1 MINT central 6\n",
            encoding="utf-8",
        )
        assert run(["run", broken, "--out", tmp_path / "o"]) == 3

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        first, second = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("PROGMONEY_SEED", "7")
        assert run(["run", SALES_TAX_SCN, "--out", first]) == 0
        monkeypatch.delenv("PROGMONEY_SEED")
        assert run(["run", SALES_TAX_SCN, "--seed", 7, "--out", second]) == 0
        assert (first / REPORT_FILE).read_bytes() == (second / REPORT_FILE).read_bytes()

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
