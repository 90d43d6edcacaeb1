"""Command-line front end.

Subcommands
-----------
  gen dtr --n N --r R            emit the bidirected Turan digraph
  gen blowup --k K --t T         emit a transitive-tournament blow-up
  check --graph FILE --k K --t T freeness of a stored digraph, witness if not
  ex --n N --k K --t T --weight {2|log3|p/q} [--mode M]   exact extremal value
  count free --n N --k K --t T [--mode M]                 labelled free count
  count partite --n N --r R --t T [--mode M]              partition-count
  ratio --n N --r R --t T [--mode M]                      census report
  mh --k K --t T                 subgraph density m(H) and exponent
  editdist --graph FILE --r R    arc edits to the Turan construction

Global flags (accepted before or after the subcommand): --format
{text,json,csv}, --cache-dir PATH.  The environment variable
TTLAB_CACHE_DIR supplies a default cache directory; with no cache
directory configured nothing is written anywhere.

Output: text mode is human-readable (gen prints the bare encoding so it
can be piped into a file for `check`/`editdist`).  JSON mode emits a
record {command, params, result, version, runtime_ms}; enumerative
counts travel as decimal strings so arbitrarily large values survive
every JSON parser.  CSV mode emits a fixed header per subcommand and one
data row.

Each subcommand is declared once, as the `_COMMANDS` entry of its first
word: its help, its text renderer, its CSV header, the parameter that
holds its second word (gen -> construction, count -> variant, None for
the rest) and, for each second word or None, (help, options, compute).
Options are named from `_OPTIONS`.  The parser is built by one loop
over the table; run() and render() read the command's entry.  run()
derives the record's params from the options: a graph by the TDG
string of the file's digraph, a weight by its token, every other option
as parsed.  compute(args) runs only on a cache miss.  The argparse tree
is built once per process, on the first run() call, and reused by every
later call: building it takes about 30 times as long as parsing one
command line.  Importing the module builds nothing.

Exit codes: 0 success; 1 domain error (capacity refusal, malformed
graph file, invalid parameter value); 2 usage error (unknown subcommand
or flag).

Cache: results are keyed by the SHA-256 of the canonical serialisation
of {command, params, version, source}, where source is a SHA-256 of the
package's own .py files, so a cache written by other code is never
replayed; graph files enter the key by content (their TDG string), not
by path.  Entries are write-once JSON files <key>.json, never modified.
A store writes <key>.json.<pid>.<thread id>.tmp, a name unique per live
writer that the cache never reads, and renames it into place.  An
entry holds two fields, the record and its seal: the SHA-256 of the key
and the record's canonical serialisation.  A hit replays the stored
record byte for byte (including the original runtime_ms), but only if
the seal matches the key asked for and the record read back; an entry
edited in any way (another query's record, a missing field, a changed
result) warns on stderr and the result is computed afresh.  The record
itself does not carry the source hash.  An unwritable cache directory
is a warning, never a failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import threading
from contextlib import suppress
from fractions import Fraction
from functools import cache
from time import perf_counter

from . import __version__
from .census import count_free, count_partite, ratio_report
from .container import density_m
from .core import (
    DIGRAPH,
    MODES,
    BlowupSpec,
    Weight,
    blowup,
    decode,
    encode,
    make_dtr,
)
from .embed import contains, is_free
from .search import edit_distance_to_dtr, extremal

ENV_CACHE_DIR = "TTLAB_CACHE_DIR"


# ======================================================================
# cache
# ======================================================================

@cache
def source_digest() -> str:
    """SHA-256 over the names and contents of the package's .py files,
    computed once per process."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def cache_key(command: str, params: dict) -> str:
    canon = json.dumps(
        {"command": command, "params": params, "version": __version__,
         "source": source_digest()},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _seal(key: str, record) -> str:
    """SHA-256 of the key and the record's canonical serialisation."""
    canon = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((key + "\0" + canon).encode()).hexdigest()


def cache_lookup(key: str, cache_dir: str) -> dict | None:
    """The record stored under key, or None.  A payload replays only if it
    is a dict whose seal matches this key and its record; anything else
    warns and reads as a miss.  The file stays: entries are write-once."""
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        reason = exc
    else:
        if isinstance(payload, dict) and payload.get("seal") == _seal(key, payload.get("record")):
            return payload["record"]
        reason = "seal does not match this query's record"
    print(f"warning: ignoring unreadable cache entry {path}: {reason}", file=sys.stderr)
    return None


def cache_store(key: str, record: dict, cache_dir: str) -> None:
    """Write-once, atomic, best-effort.  Concurrent writers of the same
    key race to os.replace the same content; whoever loses changed nothing."""
    path = os.path.join(cache_dir, key + ".json")
    # unique per live writer, and not ending in .json
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        os.makedirs(cache_dir, exist_ok=True)
        if os.path.exists(path):
            return
        payload = {"record": record, "seal": _seal(key, record)}
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            os.unlink(tmp)
        print(f"warning: cache directory unusable ({exc}); continuing uncached",
              file=sys.stderr)


# ======================================================================
# subcommands: one _COMMANDS entry each
# ======================================================================

_OPTIONS = {
    "n": {"type": int, "required": True},
    "r": {"type": int, "required": True},
    "k": {"type": int, "required": True},
    "t": {"type": int, "required": True},
    "graph": {"required": True, "help": "file holding one TDG line"},
    "weight": {"default": "2", "help": "2, log3, or p/q in (3/2, 2]"},
    "mode": {"choices": MODES, "default": DIGRAPH},
}

def _construction(g):
    return {"encoding": encode(g), "n": g.n, "f1": g.f1, "f2": g.f2}


def _check(args):
    spec = BlowupSpec(args.k, args.t)
    free = is_free(args.graph, spec)
    witness = None
    if not free:
        witness = list(contains(args.graph, spec.realize()).mapping)
    return {"free": free, "witness": witness}


def _check_text(result):
    lines = [f"free: {'yes' if result['free'] else 'no'}"]
    if result["witness"] is not None:
        lines.append("witness: " + " ".join(str(v) for v in result["witness"]))
    return "\n".join(lines)


def _ex(args):
    res = extremal(args.n, BlowupSpec(args.k, args.t), args.weight, args.mode)
    exact = res.best.exact
    return {
        "f1": res.best.f1,
        "f2": res.best.f2,
        "value_exact": None if exact is None else str(exact),
        "value_float": res.best.approx,
        "witness": encode(res.witness),
        "explored": str(res.explored),
    }


def _ex_text(result):
    exact = result["value_exact"]
    shown = exact if exact is not None else f"~{result['value_float']:.6f}"
    return (f"value: {shown}  (f1={result['f1']}, f2={result['f2']})\n"
            f"witness: {result['witness']}\n"
            f"explored: {result['explored']}")


def _ratio(args):
    rep = ratio_report(args.n, args.r, args.t, args.mode)
    return {
        "free_count": str(rep.free_count),
        "partite_count": str(rep.partite_count),
        "ratio": str(rep.ratio),
        "ratio_float": float(rep.ratio),
        "lower_bound": str(rep.lower_bound),
        "lower_bound_note": rep.lower_bound_note,
    }


def _mh(args):
    d = density_m(BlowupSpec(args.k, args.t))
    exponent = 2 - Fraction(1) / d.m
    return {
        "m": str(d.m),
        "exponent": str(exponent),
        "exponent_float": float(exponent),
        "argmax_subgraph": encode(d.argmax_subgraph),
        "bound_shape": f"c * N^({exponent}) * log N",
    }


def _editdist(args):
    res = edit_distance_to_dtr(args.graph, args.r)
    return {"distance": res.distance, "partition": list(res.partition.assign)}


def _editdist_text(result):
    return (f"distance: {result['distance']}\n"
            "partition: " + " ".join(str(c) for c in result["partition"]))


# command -> (help, text renderer of the result, csv header in column order,
# parameter holding the second word or None, {second word or None: (help,
# options, compute)}); a command without a second word has only the outer
# help.  compute looks the library functions up as globals of this module
# when it runs, so wrapping them here (perfbench's tracer does) reaches it.
_COMMANDS = {
    "gen": (
        "emit a named construction", "{encoding}".format_map,
        ("command", "construction", "n", "r", "k", "t", "f1", "f2", "encoding"),
        "construction", {
            "dtr": ("bidirected Turan digraph", ("n", "r"),
                    lambda args: _construction(make_dtr(args.n, args.r))),
            "blowup": ("transitive-tournament blow-up", ("k", "t"),
                       lambda args: _construction(blowup(args.k, args.t))),
        }),
    "check": (
        "freeness of a stored digraph", _check_text,
        ("command", "graph", "k", "t", "free", "witness"),
        None, {None: (None, ("graph", "k", "t"), _check)}),
    "ex": (
        "exact weighted extremal value", _ex_text,
        ("command", "n", "k", "t", "weight", "mode", "f1", "f2",
         "value_exact", "value_float", "witness", "explored"),
        None, {None: (None, ("n", "k", "t", "weight", "mode"), _ex)}),
    "count": (
        "labelled counts", "{count}".format_map,
        ("command", "variant", "n", "k", "r", "t", "mode", "count"),
        "variant", {
            "free": ("blow-up-free digraphs", ("n", "k", "t", "mode"),
                     lambda args: {"count": str(count_free(
                         args.n, BlowupSpec(args.k, args.t), args.mode))}),
            "partite": ("digraphs admitting a good r-partition", ("n", "r", "t", "mode"),
                        lambda args: {"count": str(count_partite(
                            args.n, args.r, args.t, args.mode))}),
        }),
    "ratio": (
        "free vs partite census report",
        ("free_count:    {free_count}\n"
         "partite_count: {partite_count}\n"
         "ratio:         {ratio}  (~{ratio_float:.6f})\n"
         "lower_bound:   {lower_bound}\n"
         "note: {lower_bound_note}").format_map,
        ("command", "n", "r", "t", "mode", "free_count", "partite_count",
         "ratio", "ratio_float", "lower_bound"),
        None, {None: (None, ("n", "r", "t", "mode"), _ratio)}),
    "mh": (
        "subgraph density m(H) and exponent",
        ("m: {m}\n"
         "exponent: {exponent}  (~{exponent_float:.6f})\n"
         "argmax_subgraph: {argmax_subgraph}\n"
         "bound_shape: {bound_shape}").format_map,
        ("command", "k", "t", "m", "exponent", "exponent_float",
         "argmax_subgraph", "bound_shape"),
        None, {None: (None, ("k", "t"), _mh)}),
    "editdist": (
        "arc edits to the bidirected Turan digraph", _editdist_text,
        ("command", "graph", "r", "distance", "partition"),
        None, {None: (None, ("graph", "r"), _editdist)}),
}


# ======================================================================
# parsing
# ======================================================================

@cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first run() and shared by every later one: parse_args
    # returns a fresh namespace and leaves the parser unchanged.
    # SUPPRESS instead of a default: a subparser re-applies its own
    # defaults over the shared namespace, which would erase a value
    # given before the subcommand ("ttlab --format csv gen ...")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default=argparse.SUPPRESS,
                        help="output format (default text)")
    common.add_argument("--cache-dir", default=argparse.SUPPRESS,
                        help=f"result cache directory (default ${ENV_CACHE_DIR})")

    parser = argparse.ArgumentParser(
        prog="ttlab",
        description="Exact computations for digraphs avoiding blow-ups of transitive tournaments.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _, dest, words) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        if dest:
            group = p.add_subparsers(dest=dest, required=True)
        for word, (word_help, options, _) in words.items():
            q = group.add_parser(word, parents=[common], help=word_help) if dest else p
            for name in options:
                q.add_argument("--" + name, **_OPTIONS[name])
    return parser


# ======================================================================
# rendering
# ======================================================================

def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    return str(value)


def _render_csv(record: dict, header) -> str:
    merged = {"command": record["command"], **record["params"], **record["result"]}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerow([_csv_cell(merged.get(c)) for c in header])
    return buf.getvalue().rstrip("\n")


def render(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2, sort_keys=True)
    _, text, header, _, _ = _COMMANDS[record["command"]]
    if fmt == "csv":
        return _render_csv(record, header)
    return text(record["result"])


# ======================================================================
# entry points
# ======================================================================

def run(argv) -> int:
    """Parse argv, execute, print the result; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage problems (or --help)
        return int(exc.code or 0)

    fmt = getattr(args, "format", None) or "text"
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get(ENV_CACHE_DIR) or None

    _, _, _, dest, words = _COMMANDS[args.command]
    word = getattr(args, dest) if dest else None
    _, options, compute = words[word]

    try:
        # the params of the record and the key: a graph by its content, a
        # weight by its token; args gets the parsed objects for compute
        params = {dest: word} if dest else {}
        for name in options:
            value = getattr(args, name)
            if name == "graph":
                with open(value, encoding="utf-8") as fh:
                    value = decode(fh.read().strip())
                params[name] = encode(value)
            elif name == "weight":
                value = Weight.parse(value)
                params[name] = value.token
            else:
                params[name] = value
            setattr(args, name, value)
        key = cache_key(args.command, params)
        record = cache_lookup(key, cache_dir) if cache_dir else None
        if record is None:
            start = perf_counter()
            result = compute(args)
            elapsed_ms = round((perf_counter() - start) * 1000.0, 3)
            record = {
                "command": args.command,
                "params": params,
                "result": result,
                "version": __version__,
                "runtime_ms": elapsed_ms,
            }
            if cache_dir:
                cache_store(key, record, cache_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(render(record, fmt))
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
