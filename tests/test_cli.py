"""Command-line interface: formats, exit codes, and the result cache."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ttlab import __version__, cli
from ttlab.cli import cache_key, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# happy paths per subcommand
# ----------------------------------------------------------------------

def test_gen_dtr_text_prints_bare_encoding(capsys):
    code, out, err = invoke(capsys, "gen", "dtr", "--n", "4", "--r", "2")
    assert code == 0
    assert out == "TDG 4 033330\n"
    assert err == ""


def test_gen_blowup_json_record_shape(capsys):
    code, out, _ = invoke(capsys, "gen", "blowup", "--k", "3", "--t", "2",
                          "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"command", "params", "result", "version", "runtime_ms"}
    assert record["command"] == "gen"
    assert record["version"] == __version__
    assert record["params"] == {"construction": "blowup", "k": 3, "t": 2}
    assert record["result"]["n"] == 6
    assert record["result"]["f1"] == 12
    assert isinstance(record["runtime_ms"], float)


def test_check_free_and_witness(tmp_path, capsys):
    graph = tmp_path / "g.tdg"
    graph.write_text("TDG 4 033330\n")
    code, out, _ = invoke(capsys, "check", "--graph", str(graph), "--k", "3", "--t", "1")
    assert code == 0 and out == "free: yes\n"

    code, out, _ = invoke(capsys, "check", "--graph", str(graph), "--k", "2", "--t", "2",
                          "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["free"] is False
    assert record["result"]["witness"] == [0, 1, 2, 3]


def test_ex_json_reports_exact_value_and_witness(capsys):
    code, out, _ = invoke(capsys, "ex", "--n", "4", "--k", "3", "--t", "1",
                          "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value_exact"] == "8"
    assert result["f2"] == 4 and result["f1"] == 0
    assert result["witness"] == "TDG 4 033330"
    assert result["explored"].isdigit()  # big counts travel as strings


def test_ex_log3_has_no_exact_value(capsys):
    code, out, _ = invoke(capsys, "ex", "--n", "3", "--k", "3", "--t", "1",
                          "--weight", "log3", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value_exact"] is None
    assert result["value_float"] > 0


def test_count_text_prints_number_only(capsys):
    code, out, _ = invoke(capsys, "count", "free", "--n", "3", "--k", "3", "--t", "1",
                          "--mode", "oriented")
    assert code == 0 and out == "21\n"
    code, out, _ = invoke(capsys, "count", "partite", "--n", "3", "--r", "2", "--t", "1",
                          "--mode", "oriented")
    assert code == 0 and out == "19\n"


def test_count_json_uses_decimal_strings(capsys):
    code, out, _ = invoke(capsys, "count", "free", "--n", "4", "--k", "3", "--t", "1",
                          "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert isinstance(record["result"]["count"], str)
    assert record["result"]["count"].isdigit()


def test_ratio_text_report(capsys):
    code, out, _ = invoke(capsys, "ratio", "--n", "3", "--r", "2", "--t", "1",
                          "--mode", "oriented")
    assert code == 0
    assert "free_count:    21" in out
    assert "partite_count: 19" in out
    assert "21/19" in out


def test_mh_csv_row(capsys):
    code, out, _ = invoke(capsys, "mh", "--k", "3", "--t", "1", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "command,k,t,m,exponent,exponent_float,argmax_subgraph,bound_shape"
    cells = row.split(",")
    assert cells[0] == "mh" and cells[3] == "2" and cells[4] == "3/2"


def test_editdist_roundtrip_through_file(tmp_path, capsys):
    graph = tmp_path / "h.tdg"
    graph.write_text("TDG 4 011110\n")
    code, out, _ = invoke(capsys, "editdist", "--graph", str(graph), "--r", "2")
    assert code == 0
    assert out.splitlines()[0] == "distance: 4"


def test_gen_output_feeds_check(tmp_path, capsys):
    code, out, _ = invoke(capsys, "gen", "dtr", "--n", "5", "--r", "3")
    graph = tmp_path / "dtr.tdg"
    graph.write_text(out)
    code, out, _ = invoke(capsys, "check", "--graph", str(graph), "--k", "4", "--t", "1")
    assert code == 0 and out == "free: yes\n"


def test_csv_gen_header_is_fixed(capsys):
    code, out, _ = invoke(capsys, "gen", "dtr", "--n", "3", "--r", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "command,construction,n,r,k,t,f1,f2,encoding"
    assert lines[1] == "gen,dtr,3,2,,,0,2,TDG 3 033"


# every (command, second word) pair, with check both free and not free and
# ex at an exact and an irrational weight: argv, text stdout, csv stdout
GOLDEN = [
    (["gen", "dtr", "--n", "4", "--r", "2"],
     "TDG 4 033330\n",
     "command,construction,n,r,k,t,f1,f2,encoding\n"
     "gen,dtr,4,2,,,0,4,TDG 4 033330\n"),
    (["gen", "blowup", "--k", "3", "--t", "2"],
     "TDG 6 011111111011110\n",
     "command,construction,n,r,k,t,f1,f2,encoding\n"
     "gen,blowup,6,,3,2,12,0,TDG 6 011111111011110\n"),
    (["check", "--graph", "g.tdg", "--k", "3", "--t", "1"],
     "free: yes\n",
     "command,graph,k,t,free,witness\n"
     "check,TDG 4 033330,3,1,true,\n"),
    (["check", "--graph", "g.tdg", "--k", "2", "--t", "2"],
     "free: no\nwitness: 0 1 2 3\n",
     "command,graph,k,t,free,witness\n"
     "check,TDG 4 033330,2,2,false,0 1 2 3\n"),
    (["ex", "--n", "4", "--k", "3", "--t", "1"],
     "value: 8  (f1=0, f2=4)\nwitness: TDG 4 033330\nexplored: 8\n",
     "command,n,k,t,weight,mode,f1,f2,value_exact,value_float,witness,explored\n"
     "ex,4,3,1,2,digraph,0,4,8,8.0,TDG 4 033330,8\n"),
    (["ex", "--n", "4", "--k", "3", "--t", "1", "--weight", "log3"],
     "value: ~6.339850  (f1=0, f2=4)\nwitness: TDG 4 033330\nexplored: 10\n",
     "command,n,k,t,weight,mode,f1,f2,value_exact,value_float,witness,explored\n"
     "ex,4,3,1,log3,digraph,0,4,,6.339850002884624,TDG 4 033330,10\n"),
    (["count", "free", "--n", "4", "--k", "3", "--t", "1"],
     "921\n",
     "command,variant,n,k,r,t,mode,count\n"
     "count,free,4,3,,1,digraph,921\n"),
    (["count", "partite", "--n", "4", "--r", "2", "--t", "1"],
     "829\n",
     "command,variant,n,k,r,t,mode,count\n"
     "count,partite,4,,2,1,digraph,829\n"),
    (["ratio", "--n", "4", "--r", "2", "--t", "1"],
     "free_count:    921\n"
     "partite_count: 829\n"
     "ratio:         921/829  (~1.110977)\n"
     "lower_bound:   81\n"
     "note: 3^t_r(n) * 2^E with E the maximum arc count of a blowup(2,t)-free oriented"
     " graph on floor(n/r) vertices; derived for oriented mode and valid (weaker) for"
     " digraph mode\n",
     "command,n,r,t,mode,free_count,partite_count,ratio,ratio_float,lower_bound\n"
     "ratio,4,2,1,digraph,921,829,921/829,1.1109770808202655,81\n"),
    (["mh", "--k", "3", "--t", "2"],
     "m: 11/4\n"
     "exponent: 18/11  (~1.636364)\n"
     "argmax_subgraph: TDG 6 011111111011110\n"
     "bound_shape: c * N^(18/11) * log N\n",
     "command,k,t,m,exponent,exponent_float,argmax_subgraph,bound_shape\n"
     "mh,3,2,11/4,18/11,1.6363636363636365,TDG 6 011111111011110,c * N^(18/11) * log N\n"),
    (["editdist", "--graph", "g.tdg", "--r", "3"],
     "distance: 2\npartition: 0 0 1 2\n",
     "command,graph,r,distance,partition\n"
     "editdist,TDG 4 033330,3,2,0 0 1 2\n"),
]


@pytest.mark.parametrize("argv, text, csv_out", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_text_and_csv_output(argv, text, csv_out, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TTLAB_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.tdg").write_text("TDG 4 033330\n")
    assert invoke(capsys, *argv) == (0, text, "")
    assert invoke(capsys, *argv, "--format", "csv") == (0, csv_out, "")


def test_global_flags_accepted_before_subcommand(capsys):
    code, out_after, _ = invoke(capsys, "gen", "dtr", "--n", "3", "--r", "2",
                                "--format", "csv")
    code2, out_before, _ = invoke(capsys, "--format", "csv", "gen", "dtr",
                                  "--n", "3", "--r", "2")
    assert code == code2 == 0
    assert out_before == out_after


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------

def test_domain_errors_exit_one(tmp_path, capsys):
    code, _, err = invoke(capsys, "ex", "--n", "99", "--k", "3", "--t", "1")
    assert code == 1 and "error:" in err

    code, _, err = invoke(capsys, "ex", "--n", "4", "--k", "1", "--t", "1")
    assert code == 1

    # refused before the partition is built
    code, _, err = invoke(capsys, "gen", "dtr", "--n", "18446744073709551616", "--r", "2")
    assert code == 1 and "error:" in err

    code, _, err = invoke(capsys, "ex", "--n", "4", "--k", "3", "--t", "1",
                          "--weight", "3/2")
    assert code == 1 and "weight" in err

    bad = tmp_path / "bad.tdg"
    bad.write_text("TDG 3 9xx\n")
    code, _, err = invoke(capsys, "check", "--graph", str(bad), "--k", "2", "--t", "1")
    assert code == 1 and "position" in err

    code, _, err = invoke(capsys, "check", "--graph", str(tmp_path / "nothing.tdg"),
                          "--k", "2", "--t", "1")
    assert code == 1


def test_usage_errors_exit_two(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 2
    code, _, _ = invoke(capsys, "ex", "--n", "4", "--k", "3")  # --t missing
    assert code == 2
    code, _, _ = invoke(capsys, "count", "--n", "3")  # variant missing
    assert code == 2
    code, _, _ = invoke(capsys, "ex", "--n", "4", "--k", "3", "--t", "1",
                        "--mode", "sideways")
    assert code == 2
    code, _, _ = invoke(capsys, "--threads", "2", "gen", "dtr", "--n", "3", "--r", "2")
    assert code == 2


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------

def test_cache_hit_replays_byte_identically(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ("ex", "--n", "4", "--k", "3", "--t", "1", "--format", "json",
            "--cache-dir", cache)
    _, first, _ = invoke(capsys, *args)
    entries = os.listdir(cache)
    assert len(entries) == 1
    _, second, _ = invoke(capsys, *args)
    assert second == first  # includes the original runtime_ms
    assert os.listdir(cache) == entries


def test_cache_key_depends_on_params_and_version():
    a = cache_key("ex", {"n": 4, "k": 3, "t": 1, "weight": "2", "mode": "digraph"})
    b = cache_key("ex", {"n": 5, "k": 3, "t": 1, "weight": "2", "mode": "digraph"})
    assert a != b
    assert len(a) == 64 and all(c in "0123456789abcdef" for c in a)


def test_cache_key_changes_with_package_source(tmp_path, capsys, monkeypatch):
    params = {"n": 4, "k": 3, "t": 1, "weight": "2", "mode": "digraph"}
    current = cache_key("ex", params)
    assert cli.source_digest() == cli.source_digest()  # stable within a process
    monkeypatch.setattr(cli, "source_digest", lambda: "0" * 64)
    assert cache_key("ex", params) != current
    # an entry written by other sources is not replayed, and the stored
    # record carries no trace of the source hash
    cache = str(tmp_path / "cache")
    args = ("ex", "--n", "4", "--k", "3", "--t", "1", "--format", "json", "--cache-dir", cache)
    _, old_out, _ = invoke(capsys, *args)
    monkeypatch.undo()
    _, new_out, _ = invoke(capsys, *args)
    assert len(os.listdir(cache)) == 2
    old_rec, new_rec = json.loads(old_out), json.loads(new_out)
    assert sorted(new_rec) == ["command", "params", "result", "runtime_ms", "version"]
    assert new_rec["version"] == old_rec["version"] == __version__


def test_cache_entries_accumulate_per_params(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    invoke(capsys, "gen", "dtr", "--n", "3", "--r", "2", "--cache-dir", cache)
    invoke(capsys, "gen", "dtr", "--n", "4", "--r", "2", "--cache-dir", cache)
    invoke(capsys, "gen", "dtr", "--n", "3", "--r", "2", "--cache-dir", cache)
    assert len(os.listdir(cache)) == 2


def test_cache_env_var_is_honoured(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("TTLAB_CACHE_DIR", str(cache))
    invoke(capsys, "count", "free", "--n", "3", "--k", "3", "--t", "1")
    assert len(os.listdir(cache)) == 1


def test_corrupt_cache_entry_is_ignored_with_warning(tmp_path, capsys):
    cache = tmp_path / "cache"
    query = ("gen", "dtr", "--n", "3", "--r", "2")
    invoke(capsys, *query, "--cache-dir", str(cache))
    entry = cache / os.listdir(cache)[0]
    sealed = json.loads(entry.read_text())
    assert set(sealed) == {"record", "seal"}
    stored = sealed["record"]
    other = json.loads(invoke(capsys, "gen", "dtr", "--n", "4", "--r", "2",
                              "--format", "json")[1])
    fresh = {fmt: invoke(capsys, *query, "--format", fmt)[1] for fmt in ("text", "json", "csv")}
    # text that is not JSON, then JSON of the wrong shape: not a dict, a
    # record missing fields and one that is not a dict (both unsealed),
    # this record sealed under another key, a well-formed record of
    # another query under this entry's seal, and this entry's own record
    # with its result edited (emptied, or another graph) under its seal
    payloads = ["not json at all", "[]",
                json.dumps({"record": {"command": "gen"}}),
                json.dumps({"record": []}),
                json.dumps({"record": stored, "seal": cli._seal("0" * 64, stored)}),
                json.dumps({"record": other, "seal": sealed["seal"]}),
                json.dumps({**sealed, "record": {**stored, "result": {}}}),
                json.dumps({**sealed, "record": {
                    **stored, "result": {**stored["result"], "encoding": "TDG 3 000"}}})]
    for payload in payloads:
        entry.write_text(payload)
        for fmt, want in fresh.items():
            code, out, err = invoke(capsys, *query, "--format", fmt, "--cache-dir", str(cache))
            assert code == 0, (payload, fmt)
            if fmt == "json":  # runtime_ms is measured afresh
                assert json.loads(out)["result"] == json.loads(want)["result"], payload
            else:
                assert out == want, (payload, fmt)
            assert "warning" in err, (payload, fmt)
            assert entry.read_text() == payload  # entries are write-once
    # the untouched entry still replays, silently
    entry.write_text(json.dumps(sealed))
    code, out, err = invoke(capsys, *query, "--format", "json", "--cache-dir", str(cache))
    assert (code, json.loads(out), err) == (0, stored, "")


def test_unusable_cache_dir_warns_but_succeeds(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    code, out, err = invoke(capsys, "gen", "dtr", "--n", "3", "--r", "2",
                            "--cache-dir", str(blocker))
    assert code == 0
    assert out == "TDG 3 033\n"
    assert "warning" in err
    assert os.listdir(tmp_path) == ["blocker"] and blocker.read_text() == "x"


def test_store_leaves_no_temp_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    record = {"command": "gen", "params": {}, "result": {}, "version": __version__,
              "runtime_ms": 0.0}
    cli.cache_store("k", record, str(cache))
    assert os.listdir(cache) == ["k.json"]
    written = (cache / "k.json").read_bytes()
    # a second store of the key changes nothing, not even the time stamp
    cli.cache_store("k", {**record, "runtime_ms": 1.0}, str(cache))
    assert os.listdir(cache) == ["k.json"]
    assert (cache / "k.json").read_bytes() == written
    assert capsys.readouterr().err == ""


def test_failing_store_warns_and_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()

    def refuse(src, dst):
        raise PermissionError(f"cannot rename {src}")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, out, err = invoke(capsys, "gen", "dtr", "--n", "3", "--r", "2",
                            "--cache-dir", str(cache))
    assert code == 0 and out == "TDG 3 033\n"
    assert "warning" in err
    assert os.listdir(cache) == []


def test_check_cache_keys_by_graph_content_not_path(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    g1 = tmp_path / "a.tdg"
    g2 = tmp_path / "b.tdg"
    g1.write_text("TDG 3 111\n")
    g2.write_text("TDG 3 111\n")
    invoke(capsys, "check", "--graph", str(g1), "--k", "3", "--t", "1",
           "--cache-dir", cache)
    invoke(capsys, "check", "--graph", str(g2), "--k", "3", "--t", "1",
           "--cache-dir", cache)
    assert len(os.listdir(cache)) == 1


# ----------------------------------------------------------------------
# the parser is built once per process and shared by every run()
# ----------------------------------------------------------------------

def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.delenv("TTLAB_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)

    # a global flag given to one call does not leak into the next
    code, out, _ = invoke(capsys, "--format", "csv", "gen", "dtr", "--n", "3", "--r", "2")
    assert code == 0 and out.startswith("command,")
    code, out, _ = invoke(capsys, "gen", "dtr", "--n", "3", "--r", "2")
    assert code == 0 and out == "TDG 3 033\n"

    cache = tmp_path / "cache"
    invoke(capsys, "gen", "dtr", "--n", "4", "--r", "2", "--cache-dir", str(cache))
    assert len(os.listdir(cache)) == 1
    code, _, _ = invoke(capsys, "gen", "dtr", "--n", "5", "--r", "2")
    assert code == 0
    assert os.listdir(tmp_path) == ["cache"] and len(os.listdir(cache)) == 1

    query = ("ex", "--n", "4", "--k", "3", "--t", "1")
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ttlab import cli; "
         "assert cli._build_parser.cache_info().currsize == 0; "
         "sys.exit(cli.main(sys.argv[1:]))", *query],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
    ).stdout
    assert invoke(capsys, "ex", "--n", "4", "--k", "3")[0] == 2
    assert invoke(capsys, "--help")[0] == 0
    code, out, err = invoke(capsys, *query)
    assert code == 0 and err == ""
    assert out == fresh


def test_python_dash_m_runs_the_command_line(capsys, monkeypatch):
    monkeypatch.delenv("TTLAB_CACHE_DIR", raising=False)
    argv = ["gen", "dtr", "--n", "3", "--r", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "ttlab", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out == "TDG 3 033\n"


# ----------------------------------------------------------------------
# the documentation names every subcommand of the table
# ----------------------------------------------------------------------

def test_docs_name_every_subcommand_and_readme_lines_parse():
    table = {(command, word) for command, entry in cli._COMMANDS.items() for word in entry[4]}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    documented = set()
    for line in block.splitlines():
        if not line.startswith("ttlab "):
            continue
        words = shlex.split(line, comments=True)[1:]
        if ">" in words:  # "... > h.tdg" redirects the output
            words = words[:words.index(">")]
        argv = [w.strip("[]") for w in words]
        args = cli._build_parser().parse_args(argv)
        if "graph" in vars(args):
            assert args.graph == "h.tdg", line
        dest = cli._COMMANDS[args.command][3]
        documented.add((args.command, getattr(args, dest) if dest else None))
    assert documented == table

    listed = cli.__doc__.split("Subcommands\n-----------\n", 1)[1].split("\n\n", 1)[0]
    named = set()
    for line in listed.splitlines():
        words = line.split()
        named.add((words[0], words[1] if cli._COMMANDS[words[0]][3] else None))
    assert named == table
