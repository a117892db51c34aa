"""Command-line interface: exit codes, JSON schema, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dvlg
from dvlg.cli import main
from dvlg.parser import parse
from test_oracle import count_atoms


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_decide_true(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--mode", "ec", "forall v:G. exists b:G. b + b = v"
        )
        assert code == 0 and out.strip() == "true"

    def test_decide_false(self, capsys):
        code, out, _ = run(capsys, "decide", "--mode", "ec", "top = bot")
        assert code == 1 and out.strip() == "false"

    def test_decide_atomless(self, capsys):
        code, _, _ = run(
            capsys,
            "decide", "--mode", "ec",
            "forall x:L. bot << x & ~(x = bot) -> "
            "(exists y:L. ~(y = bot) & y << x & ~(y = x))",
        )
        assert code == 0

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "decide", "forall v:G.")
        assert code == 2 and "error" in err

    def test_bad_character_named(self, capsys):
        code, out, err = run(capsys, "decide", "exists x:G. x = 0 $")
        assert code == 2 and out == ""
        assert "unexpected character '$'" in err

    def test_sort_error_inside_parentheses(self, capsys):
        # the ill-sorted operand is named, not a missing ')'
        code, out, err = run(capsys, "decide", "forall l:L. (l + a <= b)")
        assert code == 2 and out == ""
        assert err == "error: G-operator over L-sorted operand: l\n"

    def test_sort_error_on_a_long_operand(self, capsys):
        # the 1,000-term operand prints in one loop within its message
        terms = " + ".join(["a"] * 1000)
        code, out, err = run(capsys, "decide", f"forall l:L. l = {terms}")
        assert code == 2 and out == ""
        assert err == f"error: L-relation over G-sorted term: {terms}\n"

    def test_open_formula_rejected(self, capsys):
        code, _, err = run(capsys, "decide", "0 <= a")
        assert code == 2

    def test_unsupported_fragment(self, capsys):
        code, _, err = run(
            capsys,
            "reduce", "--mode", "tplus",
            "exists x:G. forall y:L. y << P(x - 0)",
        )
        assert code == 3 and "unsupported" in err

    def test_resource_limit(self, capsys):
        code, _, err = run(capsys, "eval", "-n", "9", "exists a:G. a <= 0")
        assert code == 4 and "resource" in err

    def test_internal_error(self, capsys, monkeypatch):
        # a crash must not read as "false" (exit 1)
        def crash(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr("dvlg.cli.reduce", crash)
        code, out, err = run(capsys, "decide", "top = bot")
        assert code == 5 and out == ""
        assert err == "internal error: ZeroDivisionError: division by zero\n"

    def test_recursion_limit_is_a_resource_limit(self, capsys, monkeypatch):
        # the message names the function the verb was running, and the limit
        limit = sys.getrecursionlimit()
        parens = "(" * 1000 + "top = top" + ")" * 1000
        for _ in range(2):
            code, out, err = run(capsys, "decide", parens)
            assert code == 4 and out == ""
            assert err == (
                f"resource limit: parse: nested deeper than the recursion "
                f"limit {limit} allows\n"
            )

        def deep(*args, **kwargs):
            return deep(*args, **kwargs)

        monkeypatch.setattr("dvlg.cli.reduce", deep)
        code, out, err = run(capsys, "decide", "top = bot")
        assert code == 4 and out == ""
        assert err.startswith("resource limit: deep: nested deeper than")

    def test_eval_true(self, capsys):
        code, out, _ = run(
            capsys, "eval", "-n", "2", "forall l:L. exists a:G. P(a) = l"
        )
        assert code == 0 and out.strip() == "true"

    def test_eval_with_env(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "-n", "2", "f <= 0", "--env",
            json.dumps({"group": {"f": ["-1", "-1/2"]}}),
        )
        assert code == 0


    def test_eval_bound_names_skip_a_free_d(self, capsys):
        # x = -1 is a witness, whatever the free variable is called
        for name in ("_d0", "c"):
            env = json.dumps({"group": {name: ["0"]}})
            code, out, _ = run(
                capsys, "eval", "-n", "1", "--env", env,
                f"exists x:G. x <= {name} & ~(x = {name})",
            )
            assert code == 0 and out.strip() == "true"

    def test_eval_lattice_env(self, capsys):
        env = json.dumps({"lattice": {"l": [1]}})
        code, out, _ = run(capsys, "eval", "-n", "2", "--env", env, "l = bot")
        assert code == 1 and out.strip() == "false"
        code, out, _ = run(
            capsys, "eval", "-n", "2", "--env", env, "exists a:G. P(a) = l"
        )
        assert code == 0 and out.strip() == "true"

    def test_eval_env_subsets_have_width_n(self, capsys):
        # {0} is not top at n = 2, though its largest index is 0
        code, out, _ = run(
            capsys,
            "eval", "-n", "2", "--env", json.dumps({"lattice": {"l": [0]}}),
            "~(l = top)",
        )
        assert code == 0 and out.strip() == "true"

    @pytest.mark.parametrize("env", [
        {"group": {"f": ["1"]}},
        {"group": {"f": ["1", "2", "3"]}},
        {"group": {"f": ["x", "1"]}},
        {"lattice": {"l": [2]}},
        {"lattice": {"l": [-1]}},
        {"lattice": ["l"]},
        [],
        {"group": {"f": ["1/0", "1"]}},
        {"group": {"f": [True, "1"]}},
        {"lattice": {"l": [True]}},
        {"group": {"f": "12"}},
        {"lattice": {"l": "1"}},
    ])
    def test_eval_env_malformed(self, capsys, env):
        code, out, err = run(
            capsys, "eval", "-n", "2", "--env", json.dumps(env), "0 <= 0"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --env:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("eval", "-n", "0", "0 <= 0"),
        ("eval", "--limits", "max_n=x", "0 <= 0"),
        ("model", "--op", "add", "--args", "[1]"),
        ("model", "--op", "add", "--args", "[1, 2]"),
        ("model", "--op", "split", "--args", '[{"k": 0}]'),
        ("model", "--op", "split", "--args", '[{"k": 0, "mask": []}]'),
        ("model", "--op", "archimedean", "--args",
         '[{"k": 0, "vals": ["0"]}, {"k": 0, "vals": ["1"]}]'),
        ("model", "--op", "neg", "--args", '[{"k": 0, "vals": ["1/0"]}]'),
        ("model", "--op", "neg", "--args", '[{"k": 0, "vals": [true]}]'),
        ("model", "--op", "neg", "--args", '[{"k": 1, "vals": "12"}]'),
        ("model", "--op", "split", "--args", '[{"k": 1, "mask": [true]}]'),
        ("model", "--op", "neg", "--args", '[{"k": true, "vals": ["1", "2"]}]'),
        ("model", "--op", "split", "--args", '[{"k": true, "mask": [0]}]'),
        ("model", "--op", "split", "--args", '[{"k": 0, "mask": [100000000]}]'),
        ("model", "--op", "split", "--args", '[{"k": 40, "mask": []}]'),
        ("model", "--op", "split", "--args", '[{"k": 20, "mask": [0]}]'),
        ("model", "--op", "neg", "--args", '[{"k": 1000000000000, "vals": ["1"]}]'),
        ("model", "--op", "witness", "--max-period", "-1", "exists a:G. a = a"),
    ])
    def test_malformed_arguments(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    def test_unreadable_file(self, capsys, tmp_path, kind):
        path = tmp_path / "formula"
        if kind == "directory":
            path.mkdir()
        elif kind == "binary":
            path.write_bytes(b"\x7fELF\x80\xff\x00")
        code, out, err = run(capsys, "decide", "--file", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: --file {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["foo", "maxdnf"])
    def test_unknown_limits_key(self, capsys, key):
        # a typo must not leave the cap at its default unnoticed
        code, out, err = run(capsys, "eval", "-n", "2", "--limits", f"{key}=10", "true")
        assert code == 2 and out == ""
        assert err.startswith(f"error: --limits: unknown key '{key}'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["a <= 0 | true", "true | a <= 0"])
    def test_eval_unassigned_variable(self, capsys, text):
        code, out, err = run(capsys, "eval", "-n", "2", text)
        assert code == 2 and out == ""
        assert err == "error: free variables not assigned: a\n"

    @pytest.mark.parametrize("argv", [
        ("decide", "--limits", "max_dnf=1", "0 <= 0"),
        ("decide", "--seed", "9", "0 <= 0"),
        ("reduce", "--seed", "9", "0 <= a"),
        ("eval", "--seed", "9", "0 <= 0"),
        ("selftest", "--limits", "max_dnf=1"),
    ])
    def test_option_of_another_verb_rejected(self, capsys, argv):
        # argparse's usage error, not a silently ignored flag
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestJsonReports:
    def test_schema(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--json", "--trace",
            "forall v:G. exists b:G. b + b = v",
        )
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == {"command", "input", "verdict", "stats", "trace"}
        assert doc["command"] == "decide" and doc["verdict"] is True
        assert set(doc["stats"]) == {"elapsed_ms", "eliminations", "atoms"}

    @pytest.mark.parametrize("argv", [
        ("decide", "forall v:G. exists b:G. b + b = v & (b < v | ~(v <= 0))"),
        ("reduce", "forall l:L. exists x:G. l << P(x - a) & (a < x -> l = top)"),
        ("eval", "-n", "2", "forall a:G. exists l:L. a < 0 -> l << P(a) & ~(l = top)"),
    ])
    def test_atoms_equal_node_count(self, capsys, argv):
        # stats.atoms counts the parsed formula's atoms; `<` makes two
        code, out, _ = run(capsys, *argv[:-1], "--json", argv[-1])
        assert code in (0, 1)
        atoms = json.loads(out)["stats"]["atoms"]
        assert atoms == count_atoms(parse(argv[-1]))

    def test_reduce_payload(self, capsys):
        code, out, _ = run(capsys, "reduce", "--json", "0 <= v")
        doc = json.loads(out)
        assert code == 0
        payload = doc["verdict"]
        assert payload["k"] == 1 and payload["terms"] == ["v"]
        assert payload["mode"] == "tplus"

    def test_model_op(self, capsys):
        code, out, _ = run(
            capsys,
            "model", "--op", "shift", "--args",
            json.dumps([{"k": 2, "vals": ["1", "2", "3", "4"]}]),
        )
        assert code == 0
        assert json.loads(out) == {"k": 2, "vals": ["2", "3", "4", "1"]}

    def test_model_archimedean(self, capsys):
        code, out, _ = run(
            capsys,
            "model", "--op", "archimedean", "--args",
            json.dumps(
                [
                    {"k": 1, "vals": ["1", "2"]},
                    {"k": 1, "vals": ["3", "10"]},
                ]
            ),
        )
        assert code == 0 and out.strip() == "4"

    def test_model_archimedean_large_ratio(self, capsys):
        # the bound is computed in one pass, not by trying n = 1, 2, ...
        code, out, _ = run(
            capsys,
            "model", "--op", "archimedean", "--args",
            '[{"k": 0, "vals": ["1"]}, {"k": 0, "vals": ["10000000000"]}]',
        )
        assert code == 0 and out.strip() == "10000000000"

    def test_model_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "model", "--op", "witness",
            "exists a:G. 0 <= a & ~(a = 0)",
        )
        assert code == 0
        # a concrete witness assignment is printed
        assert '"a"' in out


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys):
        argv = [
            "reduce", "--json",
            "exists x:G. x <= v & 0 <= x",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_decide_stable_under_reparse(self, capsys):
        text = "exists v:G. 0 <= v & P(-v) = bot"
        code1, out1, _ = run(capsys, "decide", text)
        code2, out2, _ = run(capsys, "decide", text)
        assert (code1, out1) == (code2, out2)


class TestClosedPipe:
    """A reader that closes stdout before the output ends: the verb's
    own exit code, and nothing on stderr."""

    SHIFT = ["model", "--op", "shift", "--args", '[{"k": 2, "vals": ["1","2","3","4"]}]']

    @pytest.mark.parametrize("argv, code", [
        (SHIFT, 0),
        (["decide", "top = bot"], 1),
        (["decide", "--json", "--trace", "forall v:G. exists b:G. b + b = v"], 0),
        (["--help"], 0),
    ])
    # unbuffered, each line is written, and fails, as it is printed;
    # buffered, the flush at the end of main fails
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_exit_code_and_quiet_stderr(self, argv, code, unbuffered):
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(dvlg.__file__).parents[1]),
            "PYTHONUNBUFFERED": unbuffered,
        }
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dvlg.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, b"")
