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

The argparse tree is built once per process, on the first run() call,
and reused by every later call: building it takes about 30 times as
long as parsing one command line.  Importing the module builds nothing.

Exit codes: 0 success; 1 domain error (capacity refusal, malformed
graph file, invalid parameter value); 2 usage error (unknown subcommand
or flag).

Cache: results are keyed by the SHA-256 of the canonical serialisation
of {command, params, version, source}, where source is a SHA-256 of the
package's own .py files, so a cache written by other code is never
replayed; graph files enter the key by content (their TDG string), not
by path.  Entries are write-once JSON files, written atomically, never
modified: a hit replays the stored record byte for byte (including the
original runtime_ms).  The record itself does not carry the source
hash.  An unwritable cache directory is a warning, never a failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
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

@dataclass(frozen=True)
class CacheEntry:
    key: str
    created_at: str
    record: dict


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


def cache_lookup(key: str, cache_dir: str) -> CacheEntry | None:
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return CacheEntry(key=payload["key"], created_at=payload["created_at"],
                          record=payload["record"])
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError) as exc:
        print(f"warning: ignoring unreadable cache entry {path}: {exc}", file=sys.stderr)
        return None


def cache_store(entry: CacheEntry, cache_dir: str) -> None:
    """Write-once, atomic, best-effort.  Concurrent writers of the same
    key race to os.replace the same content; whoever loses changed nothing."""
    path = os.path.join(cache_dir, entry.key + ".json")
    try:
        os.makedirs(cache_dir, exist_ok=True)
        if os.path.exists(path):
            return
        payload = {"key": entry.key, "created_at": entry.created_at,
                   "record": entry.record}
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        print(f"warning: cache directory unusable ({exc}); continuing uncached",
              file=sys.stderr)


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

    p_gen = sub.add_parser("gen", parents=[common], help="emit a named construction")
    gen_sub = p_gen.add_subparsers(dest="construction", required=True)
    g_dtr = gen_sub.add_parser("dtr", parents=[common], help="bidirected Turan digraph")
    g_dtr.add_argument("--n", type=int, required=True)
    g_dtr.add_argument("--r", type=int, required=True)
    g_blow = gen_sub.add_parser("blowup", parents=[common], help="transitive-tournament blow-up")
    g_blow.add_argument("--k", type=int, required=True)
    g_blow.add_argument("--t", type=int, required=True)

    p_check = sub.add_parser("check", parents=[common], help="freeness of a stored digraph")
    p_check.add_argument("--graph", required=True, help="file holding one TDG line")
    p_check.add_argument("--k", type=int, required=True)
    p_check.add_argument("--t", type=int, required=True)

    p_ex = sub.add_parser("ex", parents=[common], help="exact weighted extremal value")
    p_ex.add_argument("--n", type=int, required=True)
    p_ex.add_argument("--k", type=int, required=True)
    p_ex.add_argument("--t", type=int, required=True)
    p_ex.add_argument("--weight", default="2", help="2, log3, or p/q in (3/2, 2]")
    p_ex.add_argument("--mode", choices=MODES, default=DIGRAPH)

    p_count = sub.add_parser("count", parents=[common], help="labelled counts")
    count_sub = p_count.add_subparsers(dest="variant", required=True)
    c_free = count_sub.add_parser("free", parents=[common], help="blow-up-free digraphs")
    c_free.add_argument("--n", type=int, required=True)
    c_free.add_argument("--k", type=int, required=True)
    c_free.add_argument("--t", type=int, required=True)
    c_free.add_argument("--mode", choices=MODES, default=DIGRAPH)
    c_part = count_sub.add_parser("partite", parents=[common],
                                  help="digraphs admitting a good r-partition")
    c_part.add_argument("--n", type=int, required=True)
    c_part.add_argument("--r", type=int, required=True)
    c_part.add_argument("--t", type=int, required=True)
    c_part.add_argument("--mode", choices=MODES, default=DIGRAPH)

    p_ratio = sub.add_parser("ratio", parents=[common], help="free vs partite census report")
    p_ratio.add_argument("--n", type=int, required=True)
    p_ratio.add_argument("--r", type=int, required=True)
    p_ratio.add_argument("--t", type=int, required=True)
    p_ratio.add_argument("--mode", choices=MODES, default=DIGRAPH)

    p_mh = sub.add_parser("mh", parents=[common], help="subgraph density m(H) and exponent")
    p_mh.add_argument("--k", type=int, required=True)
    p_mh.add_argument("--t", type=int, required=True)

    p_edit = sub.add_parser("editdist", parents=[common],
                            help="arc edits to the bidirected Turan digraph")
    p_edit.add_argument("--graph", required=True, help="file holding one TDG line")
    p_edit.add_argument("--r", type=int, required=True)

    return parser


def _read_graph_file(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read().strip()
    return decode(text)


# ======================================================================
# handlers: each returns (params, thunk); the thunk does the real work
# so that a cache hit skips it entirely
# ======================================================================

def _handle_gen(args):
    if args.construction == "dtr":
        params = {"construction": "dtr", "n": args.n, "r": args.r}

        def compute():
            g = make_dtr(args.n, args.r)
            return {"encoding": encode(g), "n": g.n, "f1": g.f1, "f2": g.f2}
    else:
        params = {"construction": "blowup", "k": args.k, "t": args.t}

        def compute():
            g = blowup(args.k, args.t)
            return {"encoding": encode(g), "n": g.n, "f1": g.f1, "f2": g.f2}
    return params, compute


def _handle_check(args):
    g = _read_graph_file(args.graph)
    params = {"graph": encode(g), "k": args.k, "t": args.t}

    def compute():
        spec = BlowupSpec(args.k, args.t)
        free = is_free(g, spec)
        witness = None
        if not free:
            witness = list(contains(g, spec.realize()).mapping)
        return {"free": free, "witness": witness}
    return params, compute


def _handle_ex(args):
    a = Weight.parse(args.weight)
    params = {"n": args.n, "k": args.k, "t": args.t,
              "weight": a.token, "mode": args.mode}

    def compute():
        res = extremal(args.n, BlowupSpec(args.k, args.t), a, args.mode)
        exact = res.best.exact
        return {
            "f1": res.best.f1,
            "f2": res.best.f2,
            "value_exact": None if exact is None else str(exact),
            "value_float": res.best.approx,
            "witness": encode(res.witness),
            "explored": str(res.explored),
        }
    return params, compute


def _handle_count(args):
    if args.variant == "free":
        params = {"variant": "free", "n": args.n, "k": args.k, "t": args.t,
                  "mode": args.mode}

        def compute():
            value = count_free(args.n, BlowupSpec(args.k, args.t), args.mode)
            return {"count": str(value)}
    else:
        params = {"variant": "partite", "n": args.n, "r": args.r, "t": args.t,
                  "mode": args.mode}

        def compute():
            return {"count": str(count_partite(args.n, args.r, args.t, args.mode))}
    return params, compute


def _handle_ratio(args):
    params = {"n": args.n, "r": args.r, "t": args.t, "mode": args.mode}

    def compute():
        rep = ratio_report(args.n, args.r, args.t, args.mode)
        return {
            "free_count": str(rep.free_count),
            "partite_count": str(rep.partite_count),
            "ratio": str(rep.ratio),
            "ratio_float": float(rep.ratio),
            "lower_bound": str(rep.lower_bound),
            "lower_bound_note": rep.lower_bound_note,
        }
    return params, compute


def _handle_mh(args):
    params = {"k": args.k, "t": args.t}

    def compute():
        d = density_m(BlowupSpec(args.k, args.t))
        exponent = 2 - Fraction(1) / d.m
        return {
            "m": str(d.m),
            "exponent": str(exponent),
            "exponent_float": float(exponent),
            "argmax_subgraph": encode(d.argmax_subgraph),
            "bound_shape": f"c * N^({exponent}) * log N",
        }
    return params, compute


def _handle_editdist(args):
    g = _read_graph_file(args.graph)
    params = {"graph": encode(g), "r": args.r}

    def compute():
        res = edit_distance_to_dtr(g, args.r)
        return {"distance": res.distance, "partition": list(res.partition.assign)}
    return params, compute


_HANDLERS = {
    "gen": _handle_gen,
    "check": _handle_check,
    "ex": _handle_ex,
    "count": _handle_count,
    "ratio": _handle_ratio,
    "mh": _handle_mh,
    "editdist": _handle_editdist,
}


# ======================================================================
# rendering
# ======================================================================

_CSV_COLUMNS = {
    "gen": ["command", "construction", "n", "r", "k", "t", "f1", "f2", "encoding"],
    "check": ["command", "graph", "k", "t", "free", "witness"],
    "ex": ["command", "n", "k", "t", "weight", "mode", "f1", "f2",
           "value_exact", "value_float", "witness", "explored"],
    "count": ["command", "variant", "n", "k", "r", "t", "mode", "count"],
    "ratio": ["command", "n", "r", "t", "mode", "free_count", "partite_count",
              "ratio", "ratio_float", "lower_bound"],
    "mh": ["command", "k", "t", "m", "exponent", "exponent_float",
           "argmax_subgraph", "bound_shape"],
    "editdist": ["command", "graph", "r", "distance", "partition"],
}


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    return str(value)


def _render_csv(record: dict) -> str:
    command = record["command"]
    merged = {"command": command, **record["params"], **record["result"]}
    cols = _CSV_COLUMNS[command]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    writer.writerow([_csv_cell(merged.get(c)) for c in cols])
    return buf.getvalue().rstrip("\n")


def _render_text(record: dict) -> str:
    command, result = record["command"], record["result"]
    if command == "gen":
        return result["encoding"]
    if command == "check":
        lines = [f"free: {'yes' if result['free'] else 'no'}"]
        if result["witness"] is not None:
            lines.append("witness: " + " ".join(str(v) for v in result["witness"]))
        return "\n".join(lines)
    if command == "ex":
        exact = result["value_exact"]
        shown = exact if exact is not None else f"~{result['value_float']:.6f}"
        return "\n".join([
            f"value: {shown}  (f1={result['f1']}, f2={result['f2']})",
            f"witness: {result['witness']}",
            f"explored: {result['explored']}",
        ])
    if command == "count":
        return result["count"]
    if command == "ratio":
        return "\n".join([
            f"free_count:    {result['free_count']}",
            f"partite_count: {result['partite_count']}",
            f"ratio:         {result['ratio']}  (~{result['ratio_float']:.6f})",
            f"lower_bound:   {result['lower_bound']}",
            f"note: {result['lower_bound_note']}",
        ])
    if command == "mh":
        return "\n".join([
            f"m: {result['m']}",
            f"exponent: {result['exponent']}  (~{result['exponent_float']:.6f})",
            f"argmax_subgraph: {result['argmax_subgraph']}",
            f"bound_shape: {result['bound_shape']}",
        ])
    if command == "editdist":
        return "\n".join([
            f"distance: {result['distance']}",
            "partition: " + " ".join(str(c) for c in result["partition"]),
        ])
    raise AssertionError(f"no text renderer for {command}")


def render(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2, sort_keys=True)
    if fmt == "csv":
        return _render_csv(record)
    return _render_text(record)


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

    try:
        params, compute = _HANDLERS[args.command](args)
        key = cache_key(args.command, params)
        entry = cache_lookup(key, cache_dir) if cache_dir else None
        if entry is not None:
            record = entry.record
        else:
            start = perf_counter()
            result = compute()
            elapsed_ms = round((perf_counter() - start) * 1000.0, 3)
            record = {
                "command": args.command,
                "params": params,
                "result": result,
                "version": __version__,
                "runtime_ms": elapsed_ms,
            }
            if cache_dir:
                stamp = datetime.now(timezone.utc).isoformat()
                cache_store(CacheEntry(key, stamp, record), cache_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(render(record, fmt))
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
