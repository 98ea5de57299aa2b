"""Command-line interface: subcommands, exit codes, output formats."""

import importlib.util
import itertools
import json
import pathlib
import time

import pytest

from magset.cli import main
from magset.constructions import construct


def run(capsys, *argv):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# -- construct ----------------------------------------------------------------

def test_construct_example_q40(capsys):
    code, out, _ = run(capsys, "construct", "--q", "40")
    assert code == 0
    assert "size = 6" in out
    assert "elements = 1,5,8,9,17,33" in out
    assert "tight" in out


def test_construct_example_q190(capsys):
    code, out, _ = run(capsys, "construct", "--q", "190")
    assert code == 0
    assert "size = 47" in out


def test_construct_does_not_depend_on_the_clock(capsys, monkeypatch):
    # A clock that runs 100 s per reading: only a node budget lets the
    # odd base 61 of q = 3904 = 2**6 * 61 finish, as on any machine.
    ticks = itertools.count(0.0, 100.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(ticks))
    code, out, _ = run(capsys, "construct", "--q", "3904", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 561 and data["tight"] is True


def test_construct_usage_error_on_bad_modulus(capsys):
    code, _, err = run(capsys, "construct", "--q", "21")
    assert code == 2
    assert "divisible by 3" in err


def _benchmark_construct_moduli():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "frozen.py"
    spec = importlib.util.spec_from_file_location("bench_frozen", path)
    frozen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frozen)
    return sorted(frozen.CONSTRUCT)


def test_construct_json_is_json_dumps_indent_2(capsys):
    # The element lists are joined outside json; the text must not move.
    # q = 2, 4 have empty element lists, 10 one piece, the odd 61 no
    # pieces; every benchmark modulus finishes in well under a second.
    for q in [2, 4, 10, 61, *_benchmark_construct_moduli()]:
        code, out, _ = run(capsys, "construct", "--q", str(q), "--json")
        data = construct(q).to_json_dict()
        assert code == 0
        assert out == json.dumps(data, indent=2) + "\n", q
        assert (data["pieces"] == []) == (q % 2 == 1), q


def test_construct_json_roundtrips_through_verify(capsys):
    code, out, _ = run(capsys, "construct", "--q", "44", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 44 and data["size"] == 10
    assert data["verified"] is True
    csv = ",".join(str(x) for x in data["elements"])
    code, out, _ = run(capsys, "verify", "--q", "44", "--lambda", "4",
                       "--set", csv)
    assert code == 0
    assert out.startswith("valid")


# -- verify ---------------------------------------------------------------------

def test_verify_valid(capsys):
    code, out, _ = run(capsys, "verify", "--q", "40", "--lambda", "4",
                       "--set", "1,5,8,9,17,33")
    assert code == 0 and out.startswith("valid")


def test_verify_invalid_prints_witness(capsys):
    code, out, _ = run(capsys, "verify", "--q", "9", "--lambda", "4",
                       "--set", "1,2")
    assert code == 1
    assert "2*1 == 1*2 (mod 9)" in out


def test_verify_parse_error(capsys):
    code, _, err = run(capsys, "verify", "--q", "20", "--lambda", "4",
                       "--set", "1,x")
    assert code == 2
    assert "not a comma-separated integer list" in err


def test_verify_domain_error_is_exit_1(capsys):
    code, _, err = run(capsys, "verify", "--q", "20", "--set", "25")
    assert code == 1
    assert "error:" in err


# -- search ----------------------------------------------------------------------

def test_search_example_q44(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "--q", "44", "--lambda", "4",
                       "--cache", str(tmp_path / "c.jsonl"))
    assert code == 0
    assert "max size = 10" in out
    assert "witness = 1,5,7,9,19,25,35,37,39,43" in out


def test_search_trivial_modulus(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "--q", "2", "--lambda", "4",
                       "--cache", str(tmp_path / "c.jsonl"))
    assert code == 0 and "max size = 0" in out


def test_search_budget_exhaustion_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "search", "--q", "106", "--budget", "5",
                         "--cache", str(tmp_path / "c.jsonl"))
    assert code == 1
    assert "max size >=" in out
    assert "budget exhausted" in err


def test_search_default_cache_in_cwd(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MAGSET_CACHE", raising=False)
    code, _, _ = run(capsys, "search", "--q", "20")
    assert code == 0
    assert (tmp_path / "magset-cache.jsonl").exists()


def test_search_cache_env_override(capsys, tmp_path, monkeypatch):
    target = tmp_path / "env-cache.jsonl"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MAGSET_CACHE", str(target))
    code, _, _ = run(capsys, "search", "--q", "20")
    assert code == 0
    assert target.exists()
    assert not (tmp_path / "magset-cache.jsonl").exists()
    record = json.loads(target.read_text().splitlines()[0])
    assert record["q"] == 20 and record["max_size"] == 4


def test_search_json_output(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "--q", "44", "--json",
                       "--cache", str(tmp_path / "c.jsonl"))
    assert code == 0
    record = json.loads(out)
    assert record["max_size"] == 10 and record["exact"] is True


# -- table -----------------------------------------------------------------------

def test_table_rows_match_frozen_parameters(capsys):
    code, out, _ = run(capsys, "table", "--family", "2p", "--max-p", "32")
    assert code == 0
    lines = [line.split() for line in out.splitlines() if line[:1].isdigit()]
    rows = {int(cells[0]): cells for cells in lines}
    assert rows[29][1:6] == ["28", "11", "-", "-", "14"]
    assert rows[23][1:6] == ["11", "4", "1", "3", ">=8"]
    assert rows[11][1:6] == ["5", "2", "1", "1", ">=3"]


def test_table_markdown_mode(capsys):
    code, out, _ = run(capsys, "table", "--family", "2p", "--max-p", "20",
                       "--md")
    assert code == 0
    assert "| p | n | m | k' | r' | size | witness |" in out
    assert "| 5 | 4 | 1 | - | - | 2 | 1 9 |" in out


def test_table_oracle_marks_tightness(capsys):
    code, out, _ = run(capsys, "table", "--family", "2p", "--max-p", "20",
                       "--oracle")
    assert code == 0
    assert "TIGHT" in out and "GAP" not in out


def test_table_requires_family(capsys):
    code, _, _ = run(capsys, "table", "--max-p", "20")
    assert code == 2


# -- bound and codec passthroughs ---------------------------------------------

def test_bound(capsys):
    code, out, _ = run(capsys, "bound", "--q", "40", "--lambda", "4")
    assert code == 0 and out.strip() == "9"


def test_encode(capsys):
    code, out, _ = run(capsys, "encode", "--q", "20", "--set", "1,9,13,17",
                       "--message", "2,0,0")
    assert code == 0 and out.strip() == "2,2,0,0"


def test_encode_negative_message_in_the_equals_form(capsys):
    # README's form for a value that starts with '-'
    code, out, _ = run(capsys, "encode", "--q", "20", "--set", "1,9,13,17",
                       "--message=-1,0,0")
    assert code == 0 and out == "9,19,0,0\n"


def test_encode_invalid_set_is_domain_error(capsys):
    code, _, err = run(capsys, "encode", "--q", "20", "--set", "5",
                       "--message", "")
    assert code == 1
    assert "not a valid set" in err


def test_decode_corrects(capsys):
    code, out, _ = run(capsys, "decode", "--q", "20", "--set", "1,9,13,17",
                       "--word", "2,5,0,0")
    assert code == 0
    assert "corrected (pos 1, mag 3)" in out
    assert "codeword: 2,2,0,0" in out


def test_decode_negative_word_in_the_equals_form(capsys):
    # -11, -18 == 9, 2 (mod 20): the codeword 9,19,0,0 with +3 at position 1
    code, out, _ = run(capsys, "decode", "--q", "20", "--set", "1,9,13,17",
                       "--word=-11,-18,0,0")
    assert code == 0
    assert out == "corrected (pos 1, mag 3)\ncodeword: 9,19,0,0\n"
    code, out, _ = run(capsys, "decode", "--q", "20", "--set", "1,9,13,17",
                       "--word=-11,-1,0,0")
    assert code == 0 and out == "no error\ncodeword: 9,19,0,0\n"


def test_decode_clean_word(capsys):
    code, out, _ = run(capsys, "decode", "--q", "20", "--set", "1,9,13,17",
                       "--word", "2,2,0,0")
    assert code == 0 and "no error" in out


def test_decode_detection_exits_1(capsys):
    code, out, _ = run(capsys, "decode", "--q", "20", "--set", "1,9,13,17",
                       "--word", "3,3,0,0")
    assert code == 1
    assert "detected" in out


def test_simulate_json_and_determinism(capsys):
    args = ("simulate", "--q", "20", "--set", "1,9,13,17",
            "--trials", "1000", "--seed", "7")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    stats = json.loads(out1)
    assert stats == {"trials": 1000, "corrected": 1000, "detected": 0,
                     "miscorrected": 0, "seed": 7}
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("flag, value", [
    ("--trials", "-5"), ("--trials", "2.5"), ("--error-rate", "1.5"),
    ("--error-rate", "-0.1"), ("--error-rate", "nan"),
    ("--error-rate", "inf")])
def test_simulate_bad_flags_are_usage_errors(capsys, flag, value):
    flags = {"--trials": "10", "--error-rate": "0.5", flag: value}
    code, out, err = run(capsys, "simulate", "--q", "20", "--set", "1,9,13,17",
                         *itertools.chain(*flags.items()))
    assert code == 2 and out == ""
    assert f"argument {flag}" in err


@pytest.mark.parametrize("trials, rate", [("0", "0"), ("3", "0.0"),
                                          ("3", "1")])
def test_simulate_accepts_boundary_flags(capsys, trials, rate):
    code, out, _ = run(capsys, "simulate", "--q", "20", "--set", "1,9,13,17",
                       "--trials", trials, "--error-rate", rate)
    assert code == 0
    assert json.loads(out)["corrected"] == int(trials)


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2
