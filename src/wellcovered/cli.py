"""Command-line front end.

Subcommands: gen (write corpus/family graphs), wcdim, classify, mis,
compose, verify.  Exit codes: 0 success (for verify: no asserting check
failed), 1 usage or failed verification, 2 file parse error, 3 validation
error or a file that cannot be read or written, 4 resource cap exceeded or
out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .families import (ScsSpec, ScsValidationError, corpus_comments,
                       corpus_graph, corpus_names, complete, cycle,
                       figure2_family, path, scs_compose, scs_split,
                       sierpinski)
from .graph import (EdgeListParseError, Graph, GraphError, _decimal,
                    _read_text, format_edge_list, is_chordal, is_sccg,
                    parse_edge_list, save_graph, simplicial_report)
from .harness import run_suite, suite_passed, summary_table
from .linalg import DEFAULT_FIELDS, FieldSpec, QQ
from .mis import (DEFAULT_MIS_CAP, MisCapExceededError, NotSccgError,
                  count_mis, enumerate_mis, sccg_mis_count_formula)
from .wcspace import is_well_covered, well_covered_spaces, wcspace_report
# bench/spans.py traces well_covered_space under this module's name
from .wcspace import well_covered_space  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract wants 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _field_list(tokens: list[str] | None) -> tuple[FieldSpec, ...]:
    """The fields named by --field, each once, in order of first mention."""
    if not tokens:
        return DEFAULT_FIELDS
    return tuple(dict.fromkeys(FieldSpec.parse(t) for t in tokens))


def _int(token: str) -> int:
    """argparse type: an int in ASCII decimal digits after an optional '-'
    (graph._decimal's rule), so no '+', '_', space or digit of another
    script."""
    return -_decimal(token[1:]) if token[:1] == "-" else _decimal(token)


_int.__name__ = "int"  # argparse's message: "invalid int value: ..."


def _int_at_least(low: int):
    """argparse type: _int no smaller than low (the sign lets a negative
    value reach the message below)."""
    def parse(token: str) -> int:
        value = _int(token)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {value}")
        return value
    parse.__name__ = "int"  # argparse's message: "invalid int value: ..."
    return parse


def _load_graph_arg(spec: str, corpus_dir: str | None) -> tuple[Graph, str]:
    """Resolve a graph argument: a readable path first, then a corpus name,
    read from its file in the --corpus directory where that has one and
    built by its generator otherwise."""
    if os.path.exists(spec):
        file_path, graph_id = spec, os.path.basename(spec)
    else:
        graph_id = spec.removesuffix(".g")
        if graph_id not in corpus_names():
            raise GraphError(f"no such file or corpus graph: {spec}")
        file_path = corpus_dir and os.path.join(corpus_dir, graph_id + ".g")
        if not (file_path and os.path.exists(file_path)):
            return corpus_graph(graph_id), graph_id
    return parse_edge_list(_read_text(file_path)), graph_id


# the stdlib encoder _write_json matches byte for byte; it encodes the
# scalars _JSON_SCALARS does not cover: floats, subclasses of int, str and
# float, and values with no JSON form (TypeError)
_STOCK_JSON = json.JSONEncoder(indent=2, sort_keys=True)
_encode_str = json.encoder.encode_basestring_ascii

# scalars of exactly these types, encoded in one call each
_JSON_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_key(key) -> str:
    """A dict key that is not a str as the stdlib encoder writes it: its
    scalar's JSON text, as a JSON string."""
    if key is None or isinstance(key, (int, float)):
        return _encode_str(_STOCK_JSON.encode(key))
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


# the size of a written block of JSON: one string for the whole document
# would hold all of it in memory at once.  A block is counted as the
# characters of its lists of scalars plus one per other chunk (a key, a
# scalar or a bracket, each short).
_JSON_BLOCK = 1 << 16


def _write_json(o, write) -> None:
    """Write o, then a newline, exactly as _STOCK_JSON encodes it: indented
    by two spaces, keys sorted, non-ASCII escaped.  A list of scalars of
    one type is one chunk, its items encoded and joined in C.  The chunks
    are passed to write in blocks of about _JSON_BLOCK."""
    out: list[str] = []
    held = 0  # characters of the lists of scalars in out

    def encode(o, pad: str) -> None:
        nonlocal held
        enc = _JSON_SCALARS.get(type(o))
        if enc is not None:
            out.append(enc(o))
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(o, dict):
            if not o:
                out.append("{}")
                return
            head = "{\n" + inner
            for key in sorted(o):
                out.append(head + (_encode_str(key) if isinstance(key, str)
                                   else _json_key(key)) + ": ")
                encode(o[key], inner)
                head = sep
            out.append("\n" + pad + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                out.append("[]")
                return
            types = set(map(type, o))
            if len(types) == 1 and (enc := _JSON_SCALARS.get(types.pop())):
                out.append(f"[\n{inner}" + sep.join(map(enc, o))
                           + f"\n{pad}]")
                held += len(out[-1])
                return
            head = "[\n" + inner
            for item in o:
                out.append(head)
                encode(item, inner)
                head = sep
                if held + len(out) >= _JSON_BLOCK:
                    write("".join(out))
                    out.clear()
                    held = 0
            out.append("\n" + pad + "]")
        else:
            out.append(_STOCK_JSON.encode(o))

    encode(o, "")
    out.append("\n")
    write("".join(out))


def _emit(args, payload: dict, text: str) -> None:
    """Write text, or with --json the payload as indented, key-sorted JSON
    (see _write_json).  A reader that closes the pipe early is not an error:
    the rest of the output is dropped and the command keeps its exit code."""
    try:
        if args.json:
            _write_json(payload, sys.stdout.write)
        else:
            sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout still holds unwritten bytes; send them to devnull so that
        # the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _add_common(p: argparse.ArgumentParser, fields: bool = True) -> None:
    if fields:
        p.add_argument("--field", action="append", metavar="q|gf:<p>",
                       help="coefficient field, repeatable (default: q, gf:2, gf:3)")
    p.add_argument("--mis-cap", type=_int_at_least(1), default=DEFAULT_MIS_CAP,
                   help="abort enumeration past this many MISs")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _add_corpus(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", metavar="DIR",
                   help="directory searched for corpus graph files")


def _add_gen(p: argparse.ArgumentParser) -> None:
    p.add_argument("family",
                   help="complete|path|cycle|sierpinski|figure1|figure2|"
                        "figure6-g1|figure6-g2|figure6|corpus|<corpus name>")
    p.add_argument("param", nargs="?", type=_int,
                   help="size parameter where the family takes one")
    p.add_argument("-o", "--out", help="output file (default: stdout)")
    p.add_argument("--corpus", metavar="DIR",
                   help="target directory for 'gen corpus'")


def _add_wcdim(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="edge-list file or corpus name")
    _add_common(p)
    _add_corpus(p)


def _add_classify(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="edge-list file or corpus name")
    _add_common(p, fields=False)
    _add_corpus(p)


def _add_mis(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="edge-list file or corpus name")
    p.add_argument("--mode", choices=("count", "list"), default="count")
    _add_common(p, fields=False)
    _add_corpus(p)


def _add_compose(p: argparse.ArgumentParser) -> None:
    p.add_argument("g1", help="first edge-list file or corpus name")
    p.add_argument("g2", help="second edge-list file or corpus name")
    p.add_argument("--glue", action="append", required=True,
                   metavar="U2:U1",
                   help="map g2 vertex U2 to g1 vertex U1, repeatable")
    p.add_argument("-o", "--out", help="write the composite here")
    _add_common(p)
    _add_corpus(p)


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", nargs="?", default="default",
                   choices=("default", "full"))
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--threads", type=_int, default=1,
                   help="accepted for compatibility; checks always run "
                        "serially")
    p.add_argument("--random-count", type=_int_at_least(0), default=120,
                   help="random connected graphs in the sweep")
    _add_common(p)


def _command_parser(name: str) -> _Parser:
    """The parser of the subcommand name alone, as the full parser's
    subparsers action would build it: the same prog, options and help."""
    p = _Parser(prog=f"wellcovered {name}")
    _SUBCOMMANDS[name][0](p)
    return p


def _build_parser() -> _Parser:
    """The full parser, with every subcommand under one subparsers action.
    main builds it only for a first argument that names no subcommand
    (--help, an unknown or a missing command), where it prints the help or
    the usage error; a named subcommand is parsed by its own parser
    (_command_parser), which writes the same help and errors."""
    top = _Parser(prog="wellcovered",
                  description="well-covered spaces of finite simple graphs")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)
    for name, (add, _, summary) in _SUBCOMMANDS.items():
        add(sub.add_parser(name, help=summary))
    return top


# the hyphenated figure names gen accepts for corpus graphs
_FIGURE_ALIASES = {"figure6-g1": "figure6_g1", "figure6-g2": "figure6_g2"}


def _family_graph(family: str, param: int | None) -> tuple[Graph, tuple[str, ...]]:
    sized = {"complete": complete, "path": path, "cycle": cycle}
    if family in sized:
        if param is None:
            raise GraphError(f"family {family!r} needs a size parameter")
        return sized[family](param), (f"{family} graph, n={param}",)
    if family == "sierpinski":
        if param is None:
            raise GraphError("sierpinski needs an order parameter")
        return (sierpinski(param).graph,
                (f"sierpinski_{param}: order-{param} Sierpinski gasket graph",))
    if family == "figure2":
        if param is None:
            raise GraphError("figure2 needs the clique-block parameter k")
        return (figure2_family(param),
                (f"figure2_k{param}: clique block on {param + 2} vertices"
                 " plus two-edge tail",))
    name = _FIGURE_ALIASES.get(family, family)
    if name in corpus_names():
        if param is not None:
            raise GraphError(f"corpus graph {family!r} takes no parameter")
        return corpus_graph(name), corpus_comments(name)
    raise GraphError(f"unknown family {family!r}")


def _cmd_gen(args) -> int:
    if args.family == "corpus":
        if args.param is not None:
            raise _UsageError("gen corpus takes no size parameter")
        if args.out:
            raise _UsageError("gen corpus takes no -o/--out; use --corpus DIR")
        target = args.corpus or "corpus"
        os.makedirs(target, exist_ok=True)
        for name in corpus_names():
            save_graph(corpus_graph(name), os.path.join(target, name + ".g"),
                       corpus_comments(name))
        sys.stdout.write(f"wrote {len(corpus_names())} graphs to {target}\n")
        return EXIT_OK
    if args.corpus is not None:
        raise _UsageError(f"gen {args.family} takes no --corpus; "
                          "it is for 'gen corpus' only")
    g, comments = _family_graph(args.family, args.param)
    if args.out:
        save_graph(g, args.out, comments)
    else:
        sys.stdout.write(format_edge_list(g, comments))
    return EXIT_OK


def _cmd_wcdim(args) -> int:
    g, graph_id = _load_graph_arg(args.graph, args.corpus)
    fields = _field_list(args.field)
    spaces = well_covered_spaces(g, fields, cap=args.mis_cap)
    mis_count = spaces[0].mis_count
    rep = simplicial_report(g)
    dims = {s.field.label(): s.dimension for s in spaces}
    agree = len(set(dims.values())) == 1
    payload = {
        "graph": graph_id,
        "sc": rep.sc,
        "mis_count": mis_count,
        "fields_agree": agree,
        "reports": [wcspace_report(s, graph_id) for s in spaces],
    }
    dims_text = ", ".join(f"{k}={v}" for k, v in dims.items())
    text = (f"graph {graph_id}: wcdim {dims_text} "
            f"(fields {'agree' if agree else 'DISAGREE'}), sc={rep.sc}, "
            f"mis_count={mis_count}\n")
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_classify(args) -> int:
    g, graph_id = _load_graph_arg(args.graph, args.corpus)
    rep = simplicial_report(g)
    well_covered = is_well_covered(g, args.mis_cap)
    payload = {
        "graph": graph_id,
        "n": g.n,
        "edges": len(g.edges),
        "chordal": is_chordal(g),
        "sccg": is_sccg(g),
        "well_covered": well_covered,
        "scs_splittable": scs_split(g) is not None,
        "sc": rep.sc,
        "simplicial_cliques": [sorted(c) for c in rep.cliques],
        "connection_set": sorted(rep.connection_set),
    }
    text = (f"graph {graph_id}: n={g.n} edges={len(g.edges)}\n"
            f"chordal={payload['chordal']} sccg={payload['sccg']} "
            f"well_covered={well_covered} scs_splittable={payload['scs_splittable']}\n"
            f"sc={rep.sc} cliques={payload['simplicial_cliques']} "
            f"connection_set={payload['connection_set']}\n")
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_mis(args) -> int:
    g, graph_id = _load_graph_arg(args.graph, args.corpus)
    capped = False
    mis = None
    if args.mode == "list":
        mis = enumerate_mis(g, args.mis_cap)
        count: int | str = len(mis)
    else:
        try:
            count = count_mis(g, args.mis_cap)
        except MisCapExceededError:
            capped = True
            count = f">{args.mis_cap}"
    payload: dict = {"graph": graph_id, "count": count}
    lines = [f"graph {graph_id}: mis_count={count}"]
    if not capped and is_sccg(g):
        residual, simplicial = sccg_mis_count_formula(g)
        payload["formula_residual"] = residual.total
        payload["formula_simplicial"] = simplicial.total
        payload["formula_matches_enumeration"] = residual.total == count
        flag = "" if residual.total == count else "  [differs from enumeration]"
        lines.append(f"sccg formula: residual={residual.total} "
                     f"simplicial_only={simplicial.total}{flag}")
    if mis is not None:
        payload["sets"] = mis.sets
        lines.extend(" ".join(map(str, s)) for s in mis.sets)
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_RESOURCE if capped else EXIT_OK


def _parse_glue(tokens: list[str]) -> dict[int, int]:
    """The --glue map; a g2 vertex named twice is a usage error."""
    glue: dict[int, int] = {}
    for tok in tokens:
        try:
            u2, u1 = map(_decimal, tok.split(":"))
        except ValueError:
            raise _UsageError(f"bad --glue token {tok!r}, expected U2:U1") from None
        if u2 in glue:
            raise _UsageError(f"--glue token {tok!r} maps g2 vertex {u2} again")
        glue[u2] = u1
    return glue


def _cmd_compose(args) -> int:
    g1, id1 = _load_graph_arg(args.g1, args.corpus)
    g2, id2 = _load_graph_arg(args.g2, args.corpus)
    spec = ScsSpec(g1, g2, _parse_glue(args.glue))
    comp = scs_compose(spec)
    fields = _field_list(args.field)
    spaces = [well_covered_spaces(g, fields, cap=args.mis_cap)
              for g in (g1, g2, comp.graph)]
    dims = {}
    for i, f in enumerate(fields):
        d1, d2, dc = (per_graph[i].dimension for per_graph in spaces)
        dims[f.label()] = {"g1": d1, "g2": d2, "composite": dc,
                           "additive": dc == d1 + d2 - 1}
    sc = simplicial_report(comp.graph).sc
    payload = {
        "g1": id1, "g2": id2,
        "composite_n": comp.graph.n,
        "shared": sorted(comp.shared),
        "sc_composite": sc,
        "wcdim": dims,
    }
    comments = (f"simplicial clique sum of {id1} and {id2}",
                f"shared clique (composite labels): {sorted(comp.shared)}",
                f"g2 vertex map: {list(comp.g2_to_composite)}")
    if args.out:
        save_graph(comp.graph, args.out, comments)
    q = dims[QQ.label()] if QQ in fields else next(iter(dims.values()))
    text = (f"composite of {id1} and {id2}: n={comp.graph.n}, "
            f"shared={sorted(comp.shared)}\n"
            f"wcdim {q['g1']}+{q['g2']}-1={q['g1'] + q['g2'] - 1}, "
            f"computed={q['composite']}, sc={sc}\n")
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    fields = _field_list(args.field)
    report = run_suite(suite=args.suite, seed=args.seed, fields=fields,
                       cap=args.mis_cap, random_count=args.random_count)
    _emit(args, report, summary_table(report))
    return EXIT_OK if suite_passed(report) else EXIT_USAGE


# each subcommand's parser builder, handler and one-line help, in the
# order the top-level help lists them
_SUBCOMMANDS = {
    "gen": (_add_gen, _cmd_gen,
            "generate a graph file (or the whole corpus)"),
    "wcdim": (_add_wcdim, _cmd_wcdim, "well-covered dimension per field"),
    "classify": (_add_classify, _cmd_classify,
                 "chordal / SCCG / well-covered / splittable"),
    "mis": (_add_mis, _cmd_mis, "count or list maximal independent sets"),
    "compose": (_add_compose, _cmd_compose,
                "simplicial clique sum of two graphs"),
    "verify": (_add_verify, _cmd_verify, "run a verification suite"),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    name = argv[0] if argv else None
    try:
        if name in _SUBCOMMANDS:
            args = _command_parser(name).parse_args(argv[1:])
        else:
            # the full parser prints the help or raises the usage error
            args = _build_parser().parse_args(argv)
            name = args.command
        return _SUBCOMMANDS[name][1](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except EdgeListParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except MisCapExceededError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE
    except MemoryError:
        sys.stderr.write("resource cap: out of memory\n")
        return EXIT_RESOURCE
    except (ScsValidationError, NotSccgError, GraphError, ValueError,
            OSError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
