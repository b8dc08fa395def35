"""CLI dispatch, exit codes, JSON shape and determinism."""

import hashlib
import importlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from qcbounds import compgroup, runge, verify
from qcbounds.arith import kloosterman_direct
from qcbounds.cli import main
from qcbounds.errors import DomainError, PostconditionFailed

CLI = [sys.executable, "-m", "qcbounds.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


class TestExitCodes:
    def test_certified_positive_exits_zero(self):
        assert main(["certify", "--disc", "15", "--prime", "271", "--quiet"]) == 0

    def test_indeterminate_exits_one(self):
        assert main(["certify", "--disc", "3", "--prime", "73", "--quiet"]) == 1

    def test_input_error_exits_two(self):
        assert main(["certify", "--disc", "9", "--prime", "73", "--quiet"]) == 2
        assert main(["character", "9", "2", "--quiet"]) == 2

    def test_modulus_too_large_exits_two(self):
        assert main(["kloosterman", "1", "1", str(1 << 31), "--quiet"]) == 2
        assert main(["kloosterman", "1", "1", str(1 << 31), "--fast", "--quiet"]) == 2

    def test_modulus_out_of_memory_exits_two(self, monkeypatch, capsys):
        # 16777213, the last prime below the table bound 2^24, passes it, but
        # its unit table peaks near 1.3 GiB, which a machine may not have: the
        # allocation is faked to fail, as it would, without asking for it
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "arange", no_memory)
        for fast in ([], ["--fast"]):
            assert main(["kloosterman", "1", "1", "16777213", "--json", *fast]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: modulus 16777213")

    def test_row_past_the_table_bound_exits_two(self, monkeypatch, capsys):
        # the planned A(1,p) at p = 100000007 reads the Kloosterman row mod p,
        # a unit table and FFT of 10^8 entries, which ran for 53 s until the
        # process was killed; the table bound 2^24 stops it before any
        # allocation, so an arange that long fails the test instead of paging in
        arange = np.arange

        def no_long_arange(*args, **kwargs):
            assert max(args, default=0) < 1 << 24, f"np.arange{args} would allocate"
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", no_long_arange)
        assert main(["pairing", "--m", "1", "--level", "100000007", "--disc", "15", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: modulus 100000007 too large for a unit table")

    def test_component_group_past_its_prime_bound_exits_two(self, capsys):
        # the relation matrix at p = 100003 has 7e7 entries: its MemoryError
        # escaped as a traceback under a 2 GB address-space limit
        assert main(["component-group", "--prime", "100003", "--ram", "2", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: p = 100003 is past the relation matrix's bound")

    @pytest.mark.parametrize("D", ["5", str(2**53 + 3), str(10**400)])
    @pytest.mark.parametrize("argv", [
        ["gauss-sum", "{D}"],
        ["character", "{D}", "2"],
        ["certify", "--disc", "{D}", "--prime", "73"],
        ["pairing", "--m", "1", "--level", "49", "--disc", "{D}"],
        ["threshold", "--disc", "{D}"],
        ["thresholds", "--disc", "{D}"],
    ])
    def test_every_command_checks_the_discriminant(self, argv, D, capsys):
        # -D must be fundamental and D < 2^53, which bounds the squarefree test
        assert main([a.format(D=D) for a in argv] + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: -{D} is ")

    def test_numeric_moduli_past_int64_exit_two(self, capsys):
        # A's moduli t p^2 would wrap in int64, or not convert at all
        for p in ("1000000007", "4294967311"):
            argv = ["certify", "--disc", "15", "--prime", p, "--mode", "numeric", "--json"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert "int64" in captured.err

    def test_numeric_grid_past_its_bound_exits_two(self):
        # B(1,p^2)'s planned n-grid would hold 2.9e8 terms: the bound stops
        # it before the grid is built, where the grid took past 120 s
        argv = ["certify", "--disc", "15", "--prime", "10000019", "--mode", "numeric"]
        proc = subprocess.run(CLI + argv, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert "n-grid" in proc.stderr

    @pytest.mark.parametrize("argv", [
        # 8.9e9 q-expansion terms, still running after 20 s
        "unit-g --re 0 --im 1e-9 --prime 2 --json",
        # A(1,7) would sum 631 M n-terms in grids of at most 3.7 M: 57 s
        "pairing --m 1 --level 7 --disc 1000003 --json",
    ])
    def test_past_a_length_bound_exits_two_promptly(self, argv):
        proc = subprocess.run(CLI + argv.split(), capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.count("\n") == 1

    def test_j_invariant_underflow_exits_two(self, capsys):
        # Delta(tau) underflows to 0 this close to the real line
        assert main(["j-invariant", "--re", "0", "--im", "0.001", "--quiet"]) == 2
        assert "Delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "re_, im", [("0", "1e-3"), ("0.1", "19"), ("0.1", "30"), ("0.1", "200")]
    )
    def test_unit_g_out_of_range_exits_two(self, re_, im, capsys):
        # g(tau) underflows to 0 near the real line and overflows high up
        # (q^(1-p) overflows at Im tau = 19, q^(p-1) underflows to 0 above)
        assert main(["unit-g", "--re", re_, "--im", im, "--prime", "7", "--quiet"]) == 2
        assert "log|g|" in capsys.readouterr().err

    def test_non_convergence_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(runge, "_MAX_REDUCTION_STEPS", 1)
        assert main(["reduce-tau", "--re", "0.3", "--im", "0.01", "--quiet"]) == 2
        assert "converge" in capsys.readouterr().err

    def test_infinite_real_part_exits_two(self):
        assert main(["reduce-tau", "--re", "inf", "--im", "1", "--quiet"]) == 2

    def test_infinite_imaginary_part_exits_two(self, capsys):
        # inverting the subnormal point overflows its imaginary part to inf
        assert main(["reduce-tau", "--re", "0", "--im", "1e-310", "--json"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "finite" in out.err

    def test_postcondition_failure_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(compgroup, "_closed_form_factors", lambda n, S, e: [])
        assert main(["component-group", "--prime", "11", "--ram", "2", "--quiet"]) == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("prime", ["4", "9", "-5", "1"])
    @pytest.mark.parametrize("argv", [
        ["runge-bound"],
        ["reduce-tau", "--re", "0.3", "--im", "0.08"],
        ["unit-g", "--re", "0.0", "--im", "1.5"],
    ])
    def test_runge_commands_need_a_prime(self, argv, prime, capsys):
        assert main([*argv, "--prime", prime, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {prime} is not prime\n"
        assert captured.out == ""

    def test_out_needs_json(self, tmp_path, capsys):
        # the record is only written in JSON mode, so --out alone is refused
        # before the command runs
        path = tmp_path / "o.json"
        assert main(["gauss-sum", "4", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --out needs --json\n"
        assert captured.out == ""
        assert not path.exists()

    @pytest.mark.parametrize("where, reason", [
        ("a directory", "Is a directory"),
        ("a missing parent", "No such file or directory"),
        ("a file as parent", "Not a directory"),
    ])
    def test_out_unwritable_exits_two(self, where, reason, tmp_path, capsys):
        # an --out PATH that cannot be written is an input error (2), not a
        # certified-false verdict (1); the file is written before stdout, so
        # stdout stays empty, as at every exit 2
        (tmp_path / "file").write_text("")
        path = {"a directory": tmp_path, "a missing parent": tmp_path / "missing" / "o.json",
                "a file as parent": tmp_path / "file" / "o.json"}[where]
        assert main(["thresholds", "--disc", "15", "--json", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write --out {path}: {reason}\n"
        assert captured.out == ""

    def test_input_error_is_not_masked_by_an_unwritable_out(self, tmp_path, capsys):
        # only the write of the record is caught: a command that fails on
        # its input reports that, and never reaches --out
        assert main(["runge-bound", "--prime", "4", "--json", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: 4 is not prime\n"
        assert captured.out == ""

    def test_threads_option_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "trig", "--threads", "2", "--quiet"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["certify", "--disc", "15", "--prime", "271"],
        ["pairing", "--m", "1", "--level", "49", "--disc", "3"],
    ])
    def test_rel_tol_option_removed(self, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--rel-tol", "1e-6", "--quiet"])
        assert exc.value.code == 2

    def test_usage_error_exits_two(self):
        proc = run_cli("certify", "--disc", "15")  # missing --prime
        assert proc.returncode == 2

    def test_closed_pipe_keeps_exit_code_and_quiet_stderr(self):
        proc = subprocess.Popen(
            CLI + ["certify", "--disc", "15", "--prime", "271", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # the reader goes away while the command is still starting
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == b""


class TestColdStart:
    # closed-form commands must not pay for importing numpy
    NUMPY_FREE = [
        ["certify", "--disc", "15", "--prime", "271"],
        ["thresholds", "--disc", "3"],
        ["component-group", "--prime", "11", "--ram", "2"],
        ["runge-bound", "--prime", "11"],
        ["reduce-tau", "--re", "0.3", "--im", "0.08", "--prime", "5"],
        ["character", "15", "7"],
        ["kloosterman", "3", "4", "360", "--fast"],
        ["kloosterman", "1", "1", "5"],
        ["kloosterman", "3", "4", "65521"],  # the largest prime below the 2^16 crossover
    ]

    @staticmethod
    def run_python(script):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_bare_import_loads_no_submodule(self):
        out = self.run_python(
            "import sys, qcbounds\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('qcbounds.')))"
        )
        assert out.strip() == "[]"

    def test_closed_form_commands_skip_numpy(self):
        self.run_python(
            "import sys\n"
            "from qcbounds.cli import main\n"
            f"for argv in {self.NUMPY_FREE!r}:\n"
            "    assert main(argv + ['--quiet']) == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n"
        )

    def test_cheap_commands_skip_dataclasses_and_fractions(self):
        # certify loads dataclasses for trace.Certificate
        argvs = [argv for argv in self.NUMPY_FREE if argv[0] != "certify"]
        self.run_python(
            "import sys\n"
            "from qcbounds.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv + ['--quiet']) == 0, argv\n"
            "    assert not {'dataclasses', 'fractions'} & set(sys.modules), argv\n"
        )

    def test_closed_form_modules_skip_dataclasses_and_fractions(self):
        out = self.run_python(
            "import sys\n"
            "import qcbounds.arith, qcbounds.isogeny, qcbounds.runge, qcbounds.compgroup\n"
            "print(sorted({'dataclasses', 'fractions'} & set(sys.modules)))"
        )
        assert out.strip() == "[]"

    @pytest.mark.parametrize("fast", [[], ["--fast"]])
    def test_kloosterman_above_crossover_takes_array_value(self, fast, capsys):
        c = (1 << 16) + 1  # prime, so --fast sums it directly too
        assert main(["kloosterman", "3", "4", str(c), "--json", *fast]) == 0
        value = json.loads(capsys.readouterr().out)["result"]["value"]
        assert repr(value) == repr(float(kloosterman_direct(np.array([3]), 4, c)[0]))


class TestExports:
    def test_every_export_resolves_to_its_module(self):
        # each public name comes, through the lazy __getattr__, from the
        # module _EXPORTS lists for it, and is defined there
        import qcbounds

        for name in qcbounds.__all__:
            module = importlib.import_module(f"qcbounds.{qcbounds._MODULE_OF[name]}")
            obj = getattr(qcbounds, name)
            assert obj is getattr(module, name), name
            assert obj.__module__ == module.__name__, name

    def test_unknown_name_raises_attribute_error(self):
        import qcbounds

        for name in (
            "series_SA", "certify_weil_mix", "new_plus_pairing", "mod_inverse", "PairingParams",
            "log_abs_product_bounds", "ProductLogBounds",
        ):
            assert name not in qcbounds.__all__
            with pytest.raises(AttributeError, match=name):
                getattr(qcbounds, name)


class TestJsonOutput:
    def test_kloosterman(self, capsys):
        assert main(["kloosterman", "1", "1", "5", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == "kloosterman"
        assert record["inputs"] == {"m": 1, "n": 1, "c": 5, "fast": False}
        assert record["result"]["value"] == pytest.approx(0.3819660112501051)
        assert record["elapsed_ms"] == 0

    def test_certify_fields(self, capsys):
        assert main(["certify", "--disc", "15", "--prime", "271", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["certified"] is True
        assert record["mode"] == "closed-form"
        assert record["result"]["verdict"] == "certified-positive"

    def test_certify_bytes(self, capsys):
        # the inputs keep echoing the removed rel_tol at its old default
        assert main(["certify", "--disc", "15", "--prime", "271", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"command": "certify", "inputs": {"disc": 15, "prime": 271, '
            '"mode": "closed-form", "rel_tol": 9.9999999999999995e-07}, '
            '"result": {"verdict": "certified-positive", '
            '"lower_bound": 0.079801451791805644, "components": '
            '{"A(1,p^2)": 0.0028594381884778255, "A(1,p)": 0.77490774907749083, '
            '"A(p,p)": 0.77490774907749083, "B(1,p^2)": 17.94402907798305, '
            '"B(1,p)": 103.69249961451716, "B(p,p)": 1706.9939786300067, '
            '"first_term": 0.94999999999999996, "abel_main": 0.82221874744208867, '
            '"tau_term": 0.047979800764285339}}, "certified": true, '
            '"mode": "closed-form", "elapsed_ms": 0}\n'
        )

    @pytest.mark.parametrize("argv, fast, value", [
        (["1", "1", "7"], "false", "2.0489173395223048"),
        (["2", "1", "100", "--fast"], "true", "-1.1896771892660295e-31"),
        (["3", "4", "360", "--fast"], "true", "1.5235714119456081e-31"),
        (["3", "4", "360"], "false", "-2.5951463200613034e-15"),
    ])
    def test_kloosterman_bytes(self, capsys, argv, fast, value):
        assert main(["kloosterman", *argv, "--json"]) == 0
        m, n, c = argv[:3]
        assert capsys.readouterr().out == (
            f'{{"command": "kloosterman", "inputs": {{"m": {m}, "n": {n}, "c": {c}, '
            f'"fast": {fast}}}, "result": {{"value": {value}}}, "elapsed_ms": 0}}\n'
        )

    @pytest.mark.parametrize("m", [2 * 10**18 + 1, 10**19 + 1, 10**30 + 1])
    @pytest.mark.parametrize("fast", [[], ["--fast"]])
    def test_kloosterman_huge_m_reads_m_mod_c(self, capsys, m, fast):
        assert main(["kloosterman", str(m), "1", "7", *fast, "--json"]) == 0
        value = json.loads(capsys.readouterr().out)["result"]["value"]
        assert main(["kloosterman", str(m % 7), "1", "7", *fast, "--json"]) == 0
        assert value == json.loads(capsys.readouterr().out)["result"]["value"]

    def test_component_group(self, capsys):
        assert main(["component-group", "--prime", "11", "--ram", "2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["invariant_factors"] == [10]

    def test_rho_table(self, capsys):
        assert main(["rho-table", "--prime", "19", "--ram", "2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record["result"]["values"]) == {"0", "1", "2", "1/2", "3/2"}

    def test_reduce_tau_with_prime(self, capsys):
        assert main([
            "reduce-tau", "--re", "0.0", "--im", "0.2", "--prime", "5", "--json",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"]["cusp"] == "c_zero"
        assert record["result"]["im"] == pytest.approx(5.0)

    def test_thresholds(self, capsys):
        assert main(["thresholds", "--disc", "3", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["result"] == {
            "borel": 2e13, "split_cartan": 1e7, "nonsplit_cartan": 1e7,
            "exceptional": 67,
        }

    def test_out_duplicates_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["gauss-sum", "4", "--json", "--out", str(path)]) == 0
        stdout = capsys.readouterr().out
        assert path.read_text() == stdout


class TestEveryCommandJson:
    ARGVS = [
        ["kloosterman", "3", "4", "360", "--fast"],
        ["gauss-sum", "15"],
        ["character", "15", "7"],
        ["certify", "--disc", "15", "--prime", "271"],
        ["certify", "--disc", "3", "--prime", "73", "--mode", "numeric"],
        ["pairing", "--m", "1", "--level", "49", "--disc", "3"],
        ["threshold", "--disc", "15"],
        ["thresholds", "--disc", "3"],
        ["runge-bound", "--prime", "11"],
        ["reduce-tau", "--re", "0.3", "--im", "0.08"],
        ["reduce-tau", "--re", "0.3", "--im", "0.08", "--prime", "5"],
        ["reduce-tau", "--prime", "5", "--im", "0.08", "--re", "0.3"],  # inputs keep parser order
        ["unit-g", "--re", "0.0", "--im", "1.5", "--prime", "7"],
        ["j-invariant", "--re", "0.0", "--im", "1.0"],
        ["component-group", "--prime", "11", "--ram", "2"],
        ["rho-table", "--prime", "19", "--ram", "2"],
        ["verify", "--suite", "trig"],
    ]

    def test_every_subcommand_is_covered(self):
        from qcbounds.cli import build_parser

        parser = build_parser()
        [sub] = [a for a in parser._actions if a.dest == "command"]
        assert {argv[0] for argv in self.ARGVS} == set(sub.choices)

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_stdout_parses(self, argv, capsys):
        # _to_json writes JSON by hand; every record must still parse, and
        # its inputs are the subcommand's own arguments in parser order
        from qcbounds.cli import build_parser

        assert main([*argv, "--json"]) in (0, 1)
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == argv[0]
        [sub] = [a for a in build_parser()._actions if a.dest == "command"]
        own = [a.dest for a in sub.choices[argv[0]]._actions
               if a.dest not in ("help", "json", "quiet", "out")]
        inputs = record["inputs"]
        if argv[0] == "certify":
            own.append("rel_tol")
            assert inputs["rel_tol"] == 1e-6
        if argv[0] == "verify":
            assert list(inputs) == ["suite", "seed", "max_c"] and sorted(own) == sorted(inputs)
            assert inputs["seed"] == verify.DEFAULT_SEED == 12345
        else:
            assert list(inputs) == own


class TestTextOutput:
    """Without --json or --quiet each command prints its name and result."""

    def test_cheap_command(self, capsys):
        assert main(["runge-bound", "--prime", "11"]) == 0
        assert capsys.readouterr().out == "runge-bound: {'log_j_bound': 43.22633978897885}\n"

    def test_certify_reports_verdict_mode_and_time(self, capsys):
        assert main(["certify", "--disc", "15", "--prime", "271"]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first.startswith("certify: {'verdict': 'certified-positive', ")
        assert re.fullmatch(r"certified: True \(mode closed-form, \d+ ms\)", second)

    def test_verify_reports_each_suite(self, capsys):
        assert main(["verify", "--suite", "trig"]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"\[PASS\] trig: 45449 checks, 0 failures \(\d+\.\ds\)\n", out)

    def test_quiet_prints_only_a_verdict(self, capsys):
        assert main(["runge-bound", "--prime", "11", "--quiet"]) == 0
        assert main(["certify", "--disc", "15", "--prime", "271", "--quiet"]) == 0
        assert capsys.readouterr().out == "True\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--disc", "15", "--prime", "271", "--json"],
            ["kloosterman", "3", "4", "360", "--fast", "--json"],
            ["verify", "--suite", "compgroup", "--seed", "7", "--json"],
        ],
    )
    def test_byte_identical_across_runs(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
        assert first.stdout.strip()


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        assert main(["verify", "--suite", "trig", "--quiet"]) == 0

    def test_unknown_suite_rejected(self):
        proc = run_cli("verify", "--suite", "nonsense")
        assert proc.returncode == 2

    def test_weil_reduced_grid(self, capsys):
        assert main(["verify", "--suite", "weil", "--max-c", "60", "--quiet"]) == 0

    def test_max_c_below_one_rejected(self, capsys):
        assert main(["verify", "--suite", "weil", "--max-c", "0", "--quiet"]) == 2
        assert "max_c" in capsys.readouterr().err
        assert main(["verify", "--suite", "trig", "--max-c", "-3", "--quiet"]) == 2

    @pytest.mark.parametrize("suite", ["trig", "envelope", "tails"])
    def test_max_c_outside_weil_rejected(self, suite, capsys):
        # only the weil suite reads --max-c; elsewhere it is an input error,
        # not a silently ignored option
        assert main(["verify", "--suite", suite, "--max-c", "5", "--json"]) == 2
        captured = capsys.readouterr()
        assert "max_c applies to the weil suite only" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "suite", ["weil", "trig", "twisted", "tails", "certify-grid", "envelope"]
    )
    def test_seed_on_a_deterministic_suite_rejected(self, suite, capsys):
        # these suites draw nothing random, so --seed would be ignored
        assert main(["verify", "--suite", suite, "--seed", "5", "--json"]) == 2
        captured = capsys.readouterr()
        assert "seed applies to the runge and compgroup suites only" in captured.err
        assert captured.out == ""

    @pytest.fixture
    def stub_suites(self, monkeypatch):
        """Stub every suite: record its arguments and take a millisecond."""
        calls = []

        def stub(name):
            def run(*args):
                calls.append((name, args))
                time.sleep(0.001)
                return verify.SuiteResult(name, checks=1)
            return run

        monkeypatch.setattr(verify, "SUITES", {n: stub(n) for n in verify.SUITES})
        return calls

    @pytest.fixture
    def one_cpu(self, monkeypatch):
        """run_suite sees one usable CPU, so it runs every suite in this process."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        """run_suite sees two usable CPUs, so 'all' runs in forked workers."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.mark.parametrize("suite", ["all", "runge", "compgroup"])
    def test_seed_reaches_the_randomized_suites(self, suite, stub_suites, one_cpu, capsys):
        # the stubs record their calls in this process, so the suites must run here
        assert main(["verify", "--suite", suite, "--seed", "7", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"]["seed"] == 7
        names = verify.SUITES if suite == "all" else [suite]
        assert stub_suites == [(n, (7,) if n in ("runge", "compgroup") else ()) for n in names]

    def test_seed_reaches_the_randomized_suites_in_workers(self, monkeypatch, two_cpus):
        # a forked worker cannot append to a list here, so each stub reports
        # its arguments and its process in the result it returns
        def stub(name):
            return lambda *args: verify.SuiteResult(name, failures=[repr(args), str(os.getpid())])

        monkeypatch.setattr(verify, "SUITES", {n: stub(n) for n in verify.SUITES})
        results = verify.run_suite("all", seed=7)
        assert [(r.name, r.failures[0]) for r in results] == [
            (n, repr((7,) if n in ("runge", "compgroup") else ())) for n in verify.SUITES]
        assert str(os.getpid()) not in {r.failures[1] for r in results}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", ["one_cpu", "two_cpus"])
    def test_run_suite_times_every_suite(self, cpus, stub_suites, request):
        # bench's verify.<suite>.s reads elapsed_s, which run_suite alone sets
        request.getfixturevalue(cpus)
        results = verify.run_suite("all")
        assert [r.name for r in results] == list(verify.SUITES)
        assert all(r.elapsed_s > 0 for r in results)

    @pytest.mark.parametrize("cpus", ["one_cpu", "two_cpus"])
    def test_release_gate_json_bytes(self, cpus, request, capsys):
        # the byte-identical --json of `verify --suite all`, forked or in order;
        # a re-record of the suites updates this pin and lists the diff
        request.getfixturevalue(cpus)
        assert main(["verify", "--suite", "all", "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "4fe7e49dc3ad5960be13e365eaf58e625760600bdc859c9e47f7f3f145e3a8a8"

    def test_workers_return_what_the_loop_returns(self, monkeypatch):
        def run(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            return [(r.name, r.checks, r.passed, r.failures) for r in verify.run_suite("all")]

        assert run({0, 1}) == run({0})
        assert multiprocessing.active_children() == []

    def test_suite_error_reaches_the_parent(self, stub_suites, two_cpus, monkeypatch, capsys):
        def broken(*args):
            raise PostconditionFailed("twisted broke")

        monkeypatch.setitem(verify.SUITES, "twisted", broken)
        with pytest.raises(PostconditionFailed, match="^twisted broke$"):
            verify.run_suite("all")
        assert multiprocessing.active_children() == []
        assert main(["verify", "--suite", "all", "--json"]) == 2
        captured = capsys.readouterr()
        assert "twisted broke" in captured.err and captured.out == ""
        assert multiprocessing.active_children() == []

    def test_one_cpu_forks_nothing(self, stub_suites, one_cpu, monkeypatch):
        def no_fork():
            raise AssertionError("run_suite forked with one usable CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        assert [r.name for r in verify.run_suite("all")] == list(verify.SUITES)
        assert [name for name, _ in stub_suites] == list(verify.SUITES)

    def test_arguments_are_checked_before_any_fork(self, stub_suites, two_cpus, monkeypatch):
        def no_fork():
            raise AssertionError("run_suite forked before checking its arguments")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(DomainError, match="max_c must be >= 1"):
            verify.run_suite("all", max_c=0)
        assert stub_suites == []

    @pytest.mark.parametrize("suite, seed", [("all", -1), ("compgroup", -3)])
    def test_negative_seed_runs_no_suite(self, suite, seed, stub_suites, one_cpu, capsys):
        # numpy would reject the seed only inside a suite, after the others ran
        assert main(["verify", "--suite", suite, "--seed", str(seed), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must be >= 0 (got {seed})\n"
        assert captured.out == ""
        assert stub_suites == []


class TestPairingCommand:
    @pytest.mark.parametrize("level", ["0", "1", "-49"])
    def test_bad_level_has_its_own_message(self, level, capsys):
        assert main(["pairing", "--m", "1", "--level", level, "--disc", "3", "--quiet"]) == 2
        assert f"error: level {level} is neither p nor p^2" in capsys.readouterr().err


class TestNumericCertifyJson:
    def test_reports_caps_and_tail_split(self, capsys):
        argv = ["certify", "--disc", "15", "--prime", "271", "--mode", "numeric", "--json"]
        assert main(argv) == 0
        comp = json.loads(capsys.readouterr().out)["result"]["components"]
        assert list(comp) == [
            "value", "error_bound", "A(1,p^2) t_max", "B(1,p^2) d_max", "A(1,p) t_max",
            "B(1,p) d_max", "A(p,p) t_max", "B(p,p) d_max",
            "B(1,p^2) abel_tail", "B(1,p^2) weil_tail",
        ]
        # (146, 184, 184) and (5, 38, 3) at the plan's first pass alone
        assert (comp["B(1,p^2) d_max"], comp["B(1,p) d_max"], comp["B(p,p) d_max"]) == (
            206, 131, 131,
        )
        assert (comp["A(1,p^2) t_max"], comp["A(1,p) t_max"], comp["A(p,p) t_max"]) == (14, 27, 1)
        assert comp["error_bound"] == 3.55915266403307
        assert comp["error_bound"] <= 3.583658468594206


class TestEdgeInputs:
    # The exit-code contract on out-of-domain input, every subcommand in
    # this process: 0, 1 or 2 and never a traceback; 2 with one stderr
    # line and an empty stdout; 0 or 1 with --json a record that parses.
    # {out} is a directory, which --out cannot write.
    COMPOSITE = str(1_000_000_000_039 * 10_000_000_000_037)  # 26 digits, no factor below 10^12
    ARGVS = [
        "pairing --m 1 --level 0 --disc 3 --json",
        "pairing --m 1 --level 1 --disc 3 --json",
        "pairing --m 1 --level -7 --disc 3 --json",
        "pairing --m 0 --level 7 --disc 3 --json",
        "pairing --m -7 --level 7 --disc 3 --json",
        "pairing --m 1 --level 7 --disc 1000003 --json",
        "certify --disc 15 --prime 0 --json",
        "certify --disc 15 --prime -7 --mode numeric --json",
        f"certify --disc 15 --prime {COMPOSITE} --json",
        "certify --disc 0 --prime 271 --json",
        "runge-bound --prime 0 --json",
        f"runge-bound --prime {COMPOSITE} --json",
        "rho-table --prime -7 --ram 2 --json",
        "rho-table --prime 101 --ram 0 --json",
        f"component-group --prime {COMPOSITE} --ram 2 --json",
        "component-group --prime 101 --ram 0 --json",
        "gauss-sum 0 --json",
        "character -3 2 --json",
        "threshold --disc -3 --json",
        "thresholds --disc -3 --json",
        "thresholds --disc 2 --json",
        "thresholds --disc 15 --json --out {out}",
        "kloosterman 1 1 0 --json",
        "kloosterman 1 1 -7 --fast",
        "unit-g --re 0 --im nan --prime 7 --json",
        "unit-g --re 0 --im inf --prime 7 --json",
        "unit-g --re 0 --im 5e-324 --prime 7 --json",
        "unit-g --re 0 --im 1e-9 --prime 2 --json",
        "unit-g --re 0 --im 1e-9 --prime 0 --json",
        "j-invariant --re 0 --im nan --json",
        "j-invariant --re 0 --im 5e-324 --json",
        "j-invariant --re 0 --im 1e-9 --json",
        "reduce-tau --re 0 --im inf --json",
        "reduce-tau --re 0 --im 5e-324 --json",
        "reduce-tau --re 0 --im 1e-9 --json",
        "reduce-tau --re 0.3 --im 1e-9 --prime 11 --json",
        "reduce-tau --re 0.3 --im 0.2 --prime -7 --json",
        "reduce-tau --re 0.3 --im 0.2 --prime 0",
        "verify --suite weil --max-c 0 --json",
        "verify --suite trig --seed 5 --json",
        "verify --suite all --seed -1 --json",
        "verify --suite compgroup --seed -3 --json",
    ]

    def test_every_subcommand_is_covered(self):
        from qcbounds.cli import build_parser

        [sub] = [a for a in build_parser()._actions if a.dest == "command"]
        assert {argv.split()[0] for argv in self.ARGVS} == set(sub.choices)

    @pytest.mark.parametrize("argv", ARGVS)
    def test_exit_code_contract(self, argv, tmp_path, capsys):
        argv = argv.format(out=tmp_path).split()
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
        elif "--json" in argv:
            json.loads(out)

    # Every command that takes D checks it in arith.make_character, so each
    # prints the same line, which writes -D once, with one sign: threshold
    # and thresholds at D = -3 print one line, not "--3".
    @pytest.mark.parametrize("argv, minus_d", [
        ("threshold --disc -3 --json", 3),
        ("thresholds --disc -3 --json", 3),
        ("character -3 2 --json", 3),
        ("gauss-sum 0 --json", 0),
        ("certify --disc 0 --prime 271 --json", 0),
        ("thresholds --disc 2 --json", -2),
    ])
    def test_not_fundamental_names_minus_d(self, argv, minus_d, capsys):
        assert main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {minus_d} is not a negative fundamental discriminant\n"
        assert "--" not in err and "-0" not in err

    @pytest.mark.parametrize("im", ["5e-324", "8e-18"])
    def test_q_rounded_to_one_is_past_the_term_bound(self, im, capsys):
        # |q| = e^(-2 pi Im tau) rounds to 1.0 here: the q-expansion's length
        # bound refuses it, not the input, which is a point of the half-plane
        assert main(["unit-g", "--re", "0", "--im", im, "--prime", "7"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "2^20" in err

    @pytest.mark.parametrize("command", ["reduce-tau", "j-invariant"])
    def test_reduction_overflow_is_named(self, command, capsys):
        # -1/z at z = 5e-324 i is infinite: the reduction, not the input, overflowed
        assert main([command, "--re", "0", "--im", "5e-324", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the reduction overflowed")
