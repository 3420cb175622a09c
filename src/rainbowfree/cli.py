"""Command line interface.

Subcommands:
  check      test a family file for rainbow-freeness
  construct  emit one of the built-in families
  certify    run the full structural report on a family
  search     exhaustive search: maximize, prove a size, or enumerate
             extremal classes
  rs         multiset decomposition report and consequence checks
  iso        isomorphism test between two families
  canon      print the canonically relabeled family

Family files use the TRIFAM v1 format; pass "-" to read from standard
input.  Every command accepts --out PATH (write the primary output to a
file), --porcelain (frozen machine-readable field names), and --config
PATH (key = value lines mirroring the command's flags; explicit flags
win).

Exit codes: 0 the checked property holds or the command succeeded, 1 the
property fails, 2 usage or format error, 3 resource limit hit.  The
library modules raise their own error classes; main is the one place that
maps an error to exit code 2 or 3.
"""

from __future__ import annotations

import argparse
import sys

from .canon import are_isomorphic, canonical_relabeling
from .certifier import MISLimitError, RainbowFamilyError, certify, render_report
from .constructions import double, doubled_nine, pair_family, t_star
from .family import (
    MODES,
    MULTISET,
    SET,
    TriangleFamily,
    TrifamError,
    VertexLimitError,
    parse_family,
    serialize_family,
)
from .rainbow import RainbowCertificate, find_rainbow, render_certificate
from .rs import bound_report, check_t2_constraints, decompose, unique_triangle_property
from .search import (
    ENUMERATE,
    MAXIMIZE,
    PROVE,
    SearchConfig,
    SearchError,
    SearchLimitError,
    resume_search,
    run_search,
)

OK = 0
FAIL = 1
USAGE = 2
LIMIT = 3

CONSTRUCT_KINDS = ("tstar", "pairs", "double", "fig5")

_BOOL_DESTS = frozenset({"porcelain", "verify_bound", "enumerate_extremal"})
_INT_DESTS = frozenset(
    {"n", "pairs", "apexes", "prove", "node_limit", "checkpoint_interval"}
)


class _CliError(Exception):
    """A usage error of the command line; the message goes to stderr."""


# main maps these to exit 3 and 2; VertexLimitError and SearchLimitError
# subclass usage errors, so limits are matched first
_LIMIT_ERRORS = (VertexLimitError, SearchLimitError, MISLimitError, MemoryError)
_USAGE_ERRORS = (_CliError, TrifamError, SearchError)


# -- input/output helpers


def _read(path: str) -> str:
    """The UTF-8 text of a file, or of standard input for "-"."""
    try:
        if path == "-":
            if sys.stdin is None:  # started with file descriptor 0 closed
                raise OSError("standard input is closed")
            # bytes, so the decoding does not depend on the locale
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _read_family(path: str) -> TriangleFamily:
    data = _read(path)
    try:
        return parse_family(data)
    except TrifamError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_rainbow(args: argparse.Namespace, cert: RainbowCertificate) -> int:
    body = render_certificate(cert)
    _emit(args, "status=rainbow\n" + body if args.porcelain else body)
    return FAIL


def _kv(args: argparse.Namespace, key: str, value: object) -> str:
    sep = "=" if args.porcelain else " = "
    return f"{key}{sep}{value}"


# -- config file


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(raw)


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    for lineno, raw in enumerate(_read(args.config).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _CliError(f"{args.config}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        dest = key.replace("-", "_")
        if dest in ("config", "func", "file", "kind", "a", "b") or not hasattr(
            args, dest
        ):
            raise _CliError(f"{args.config}:{lineno}: unknown key {key!r}")
        if getattr(args, dest) is not None:  # explicit flags win
            continue
        try:
            if dest in _BOOL_DESTS:
                parsed: object = _parse_bool(value)
            elif dest in _INT_DESTS:
                parsed = int(value)
            else:
                parsed = value
        except ValueError as exc:
            raise _CliError(
                f"{args.config}:{lineno}: bad value {value!r} for {key}"
            ) from exc
        setattr(args, dest, parsed)


# -- subcommands


def _cmd_check(args: argparse.Namespace) -> int:
    f = _read_family(args.file)
    cert = find_rainbow(f)
    if cert is not None:
        return _emit_rainbow(args, cert)
    lines = ["status=rainbow-free" if args.porcelain else "rainbow-free"]
    code = OK
    if args.verify_bound:
        if f.mode == MULTISET:
            lines.append(
                "bound=n/a" if args.porcelain else "bound n/a (multiset mode)"
            )
        elif 8 * f.size <= f.n * f.n:
            lines.append(
                "bound=holds"
                if args.porcelain
                else f"bound 8|T| = {8 * f.size} <= n^2 = {f.n * f.n}: holds"
            )
        else:
            lines.append(
                "bound=exceeded"
                if args.porcelain
                else f"bound 8|T| = {8 * f.size} <= n^2 = {f.n * f.n}: exceeded"
            )
            code = FAIL
    _emit(args, "\n".join(lines) + "\n")
    return code


def _cmd_construct(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind != "double" and args.file != "-":
        raise _CliError(f"construct {kind} takes no family file")
    if kind == "tstar":
        if args.n is None:
            raise _CliError("construct tstar requires --n")
        f = t_star(args.n)
    elif kind == "pairs":
        if args.n is None or args.pairs is None or args.apexes is None:
            raise _CliError("construct pairs requires --n, --pairs and --apexes")
        f = pair_family(args.n, args.pairs, args.apexes)
    elif kind == "double":
        f = double(_read_family(args.file))
    else:  # fig5
        f = doubled_nine()
    _emit(args, serialize_family(f))
    return OK


def _cmd_certify(args: argparse.Namespace) -> int:
    f = _read_family(args.file)
    try:
        report = certify(f)
    except RainbowFamilyError as exc:
        return _emit_rainbow(args, exc.certificate)
    _emit(args, render_report(report, porcelain=bool(args.porcelain)))
    return OK if report.verdict else FAIL


def _given(**kwargs: object) -> dict:
    """The keyword arguments whose flags were given, so 0 is not a default."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _search_config(args: argparse.Namespace) -> SearchConfig:
    if args.prove is not None and args.enumerate_extremal:
        raise _CliError("--prove and --enumerate-extremal are mutually exclusive")
    if args.n is None:
        raise _CliError("search requires --n (or --resume)")
    if args.prove is not None:
        target, k = PROVE, args.prove
    elif args.enumerate_extremal:
        target, k = ENUMERATE, 0
    else:
        target, k = MAXIMIZE, 0
    return SearchConfig(
        n=args.n,
        mode=args.mode or SET,
        target=target,
        prove_k=k,
        checkpoint_path=args.checkpoint,
        **_given(
            node_limit=args.node_limit,
            checkpoint_interval=args.checkpoint_interval,
        ),
    )


def _cmd_search(args: argparse.Namespace) -> int:
    if args.resume is not None:
        for dest, flag in (("n", "--n"), ("mode", "--mode"), ("prove", "--prove")):
            if getattr(args, dest) is not None:
                raise _CliError(f"--resume takes {flag} from the checkpoint")
        if args.enumerate_extremal:
            raise _CliError("--resume takes the target from the checkpoint")
        result = resume_search(
            args.resume,
            checkpoint_path=args.checkpoint,
            **_given(
                node_limit=args.node_limit,
                checkpoint_interval=args.checkpoint_interval,
            ),
        )
    else:
        result = run_search(_search_config(args))

    lines = []
    if result.target != PROVE or result.found:
        # without a witness, best depends on the cuts and is no maximum
        lines.append(_kv(args, "best", result.best_size))
    if result.target == PROVE:
        if result.found:
            status = "found"
        elif result.completed:
            status = "refuted"
        else:
            status = "undecided"
        lines.append(_kv(args, "witness", status))
    if result.extremal_class_count is not None:
        lines.append(_kv(args, "classes", result.extremal_class_count))
    lines.append(_kv(args, "witnesses", len(result.witnesses)))
    if not result.completed:
        lines.append(_kv(args, "completed", "false"))
    blocks = []
    if args.out:
        for i, w in enumerate(result.witnesses):
            path = f"{args.out}-{i}"
            _write(path, serialize_family(w))
            lines.append(_kv(args, f"witness-file.{i}", path))
    else:
        blocks = [serialize_family(w) for w in result.witnesses]
    print("\n".join(lines))
    for block in blocks:
        print()
        sys.stdout.write(block)
    print(_kv(args, "nodes", result.nodes_explored), file=sys.stderr)
    if not result.completed:
        return LIMIT
    if result.found is False:
        return FAIL
    return OK


def _cmd_rs(args: argparse.Namespace) -> int:
    f = _read_family(args.file)
    d = decompose(f)
    t2_ok, notes = check_t2_constraints(d, f)
    unique_ok, bad_edge = unique_triangle_property(d.g2)
    if args.porcelain:
        lines = [
            f"n={d.t1.n}",
            f"t1={d.t1.size}",
            f"t2={d.t2.size}",
            f"g2-edges={len(d.g2.edges)}",
            f"total={d.t1.size + d.t2.size}",
            "t1-bound={}".format(
                "holds" if 8 * d.t1.size <= d.t1.n * d.t1.n else "exceeded"
            ),
            f"t2-constraints={'true' if t2_ok else 'false'}",
            f"unique-triangle={'true' if unique_ok else 'false'}",
        ]
        body = "\n".join(lines) + "\n"
    else:
        lines = [bound_report(d).rstrip("\n")]
        lines.append(f"t2-constraints = {'true' if t2_ok else 'false'}")
        for note in notes:
            lines.append(f"  {note}")
        if unique_ok:
            lines.append("unique-triangle = true")
        else:
            lines.append(f"unique-triangle = false (edge {bad_edge})")
        body = "\n".join(lines) + "\n"
    _emit(args, body)
    return OK if t2_ok and unique_ok else FAIL


def _cmd_iso(args: argparse.Namespace) -> int:
    fa = _read_family(args.a)
    fb = _read_family(args.b)
    same = are_isomorphic(fa, fb)
    if args.porcelain:
        _emit(args, f"isomorphic={'true' if same else 'false'}\n")
    else:
        _emit(args, ("isomorphic" if same else "not-isomorphic") + "\n")
    return OK if same else FAIL


def _cmd_canon(args: argparse.Namespace) -> int:
    f = _read_family(args.file)
    _, canonical = canonical_relabeling(f)
    _emit(args, serialize_family(canonical))
    return OK


# -- parser assembly


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None)
    common.add_argument(
        "--porcelain", action="store_const", const=True, default=None
    )
    common.add_argument("--config", metavar="PATH", default=None)

    parser = argparse.ArgumentParser(
        prog="rainbowfree",
        description="rainbow-free triangle family toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="test for rainbow-freeness")
    p.add_argument("file")
    p.add_argument("--verify-bound", action="store_const", const=True, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", parents=[common], help="emit a built-in family")
    p.add_argument("kind", choices=CONSTRUCT_KINDS)
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--apexes", type=int, default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("certify", parents=[common], help="full structural report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", parents=[common], help="exhaustive search")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--prove", type=int, metavar="K", default=None)
    p.add_argument(
        "--enumerate-extremal", action="store_const", const=True, default=None
    )
    p.add_argument("--node-limit", type=int, metavar="N", default=None)
    p.add_argument("--checkpoint", metavar="PATH", default=None)
    p.add_argument("--checkpoint-interval", type=int, metavar="N", default=None)
    p.add_argument("--resume", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("rs", parents=[common], help="multiset decomposition report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_rs)

    p = sub.add_parser("iso", parents=[common], help="isomorphism test")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("canon", parents=[common], help="canonical relabeling")
    p.add_argument("file")
    p.set_defaults(func=_cmd_canon)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place where an error becomes an exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        _apply_config(args)
        return args.func(args)
    except _LIMIT_ERRORS as exc:
        # exit 1 would claim the property fails; a MemoryError often
        # carries no message of its own
        message = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {message}", file=sys.stderr)
        return LIMIT
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except BrokenPipeError:
        return OK


if __name__ == "__main__":
    sys.exit(main())
