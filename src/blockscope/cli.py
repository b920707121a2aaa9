"""Command-line interface.

    blockscope analyze --group <recipe.json|preset> --prime 2 [--seed N] [--out F]
    blockscope catalog [--file catalog.json] [--filter NAME|LABEL] [--strict-lt-16]
    blockscope table --group <recipe.json|preset>

Presets are the names of shipped catalog entries.  Exit codes: 0 pass,
1 verdict failure, 2 internal inconsistency, 3 input error, by
:func:`blockscope.catalog.exit_code`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import (EXIT_INPUT, EXIT_INTERNAL, EXIT_PASS, EXIT_VERDICT_FAIL,
                      analyze_group, builtin_catalog_path, checks_pass, exit_code,
                      load_catalog, run_catalog, summarize)
from .chartable import character_table
from .errors import BlockscopeError, InputError
from .recipes import construct_group, recipe_from_json

__all__ = ["main"]


def _load_recipe(ref: str):
    presets = {e.name: e.recipe for e in load_catalog(builtin_catalog_path())}
    if ref in presets:
        return presets[ref]
    try:
        with open(ref, encoding="utf-8") as fh:
            return recipe_from_json(json.load(fh))
    except OSError as exc:
        raise InputError(f"no preset or readable file {ref!r}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder recurses too: JSON nested past the interpreter's limit
        raise InputError(f"invalid recipe JSON in {ref!r}: {exc}") from exc


def _check_writable(out: str | None):
    """Refuse an --out path that cannot be written, before any work."""
    if out is None:
        return
    if os.path.isdir(out):
        raise InputError(f"--out {out!r} is a directory")
    folder = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise InputError(f"--out {out!r}: directory {folder!r} is missing or not writable")


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_analyze(args) -> int:
    recipe = _load_recipe(args.group)
    group = construct_group(recipe)
    result = analyze_group(group, args.prime, strict_lt_threshold=args.strict_lt_16)
    payload = {
        "schema": 1,
        "seed": args.seed,
        "recipe": recipe,
        "prime": args.prime,
        **result,
    }
    _emit(payload, args.out)
    return EXIT_PASS if checks_pass(result) else EXIT_VERDICT_FAIL


def _cmd_catalog(args) -> int:
    path = args.file or builtin_catalog_path()
    report, code = run_catalog(path, filters=args.filter or None,
                               strict_lt_threshold=args.strict_lt_16, seed=args.seed)
    if args.out:
        _emit(report, args.out)
    print(summarize(report))
    return code


def _cmd_table(args) -> int:
    recipe = _load_recipe(args.group)
    group = construct_group(recipe)
    table = character_table(group)
    _emit({"schema": 1, "recipe": recipe, **table.to_json()}, args.out)
    return EXIT_PASS


_SEED_HELP = "recorded in the report; changes nothing, every method is deterministic"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockscope",
        description="block-theoretic and fusion-theoretic invariants of finite "
                    "permutation groups at a prime")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify one group and verify its counts")
    pa.add_argument("--group", required=True, help="recipe JSON file or preset name")
    pa.add_argument("--prime", type=int, default=2)
    pa.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    pa.add_argument("--out", default=None, help="write the JSON report here")
    pa.add_argument("--strict-lt-16", action="store_true",
                    help="read the hyperfocal size bound strictly (|Q| < 16)")
    pa.set_defaults(func=_cmd_analyze)

    pc = sub.add_parser("catalog", help="run a catalog of groups")
    pc.add_argument("--file", default=None, help="catalog JSON (default: shipped)")
    pc.add_argument("--filter", action="append", default=[],
                    help="restrict to entry names or case labels (repeatable)")
    pc.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    pc.add_argument("--out", default=None)
    pc.add_argument("--strict-lt-16", action="store_true")
    pc.set_defaults(func=_cmd_catalog)

    pt = sub.add_parser("table", help="print a character table as JSON")
    pt.add_argument("--group", required=True)
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=_cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_writable(args.out)
        return args.func(args)
    except (BlockscopeError, FileNotFoundError) as exc:
        code = exit_code(exc)
        kind = {EXIT_INTERNAL: "internal inconsistency", EXIT_INPUT: "input error"}
        print(f"{kind.get(code, 'error')}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
