"""Catalog loading and the end-to-end verification pipeline.

Each catalog entry names a group recipe, a prime, an expected case label
and optional expected invariants with provenance notes.  ``run_catalog``
evaluates every entry (classify, verify counts, weights, local structure,
lower defect tables, block suites), compares against the expectations,
and assembles a deterministic machine-readable report, in which each
entry's recipe is the dict :func:`recipe_from_json` returned.  An entry
that raises any exception is marked errored and the run continues.

Exit status: 0 all pass, 1 any verdict failed or other error,
2 an internal consistency assertion tripped, 3 unusable input.  An error
gives its code by :func:`exit_code`, the one rule for a run and for each
entry; a run exits with the first of 2, 3, 1 that any entry gave.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .blocks import (block_distribution, block_idempotent_vectors,
                     induce_principal_block, lower_defect_multiplicities, principal_block,
                     p_subgroup_classes, _frobenius_orbit, _times_class_sums)
from .chartable import character_table
from .classify import (check_local_structure, classify_case, count_weights,
                       verdict, verify_counts)
from .errors import (BlockscopeError, CapExceeded, InputError, InternalInconsistency,
                     ParseError)
from .exact import is_prime, p_part
from . import groups
from .groups import PermGroup, normalizer
from .recipes import construct_group, recipe_from_json

__all__ = ["CatalogEntry", "load_catalog", "builtin_catalog_path", "run_catalog",
           "analyze_group", "checks_pass", "exit_code", "EXIT_PASS", "EXIT_VERDICT_FAIL",
           "EXIT_INTERNAL", "EXIT_INPUT"]

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_INTERNAL = 2
EXIT_INPUT = 3

SCHEMA_VERSION = 1


def exit_code(exc: BaseException) -> int:
    """The exit code of an error: 2 internal, 3 input, 1 any other."""
    if isinstance(exc, InternalInconsistency):
        return EXIT_INTERNAL
    if isinstance(exc, (InputError, FileNotFoundError)):
        return EXIT_INPUT
    return EXIT_VERDICT_FAIL


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    recipe: object
    prime: int
    expected: dict
    provenance: str


def builtin_catalog_path() -> str:
    return str(resources.files("blockscope").joinpath("data/catalog.json"))


def load_catalog(path: str) -> list[CatalogEntry]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read catalog {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ParseError("catalog must be an object with an 'entries' list")
    entries = []
    for raw in data["entries"]:
        try:
            if not isinstance(raw, dict):
                raise TypeError(f"entry {raw!r} is not an object")
            name, provenance = raw["name"], raw.get("provenance", "")
            prime, expected = raw.get("prime", 2), raw.get("expected", {})
            if not isinstance(name, str) or not isinstance(provenance, str):
                raise TypeError(f"name {name!r} or provenance {provenance!r} is not a string")
            if not isinstance(prime, int) or isinstance(prime, bool):
                raise TypeError(f"prime {prime!r} is not an integer")
            if not is_prime(prime):
                raise ValueError(f"prime {prime} is not a prime")
            if not isinstance(expected, dict):
                raise TypeError(f"expected {expected!r} is not an object")
            lower = expected.get("lower_defect", [])
            if not isinstance(lower, list) or not all(
                    isinstance(pair, list) and len(pair) == 2 and
                    all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
                    for pair in lower):
                raise TypeError(f"lower_defect {lower!r} is not a list of two-integer lists")
            entries.append(CatalogEntry(name=name, recipe=recipe_from_json(raw["recipe"]),
                                        prime=prime, expected=expected, provenance=provenance))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed catalog entry: {exc}") from exc
    return entries


# ---------------------------------------------------------------------------
# per-group pipeline


def analyze_group(group: PermGroup, p: int, strict_lt_threshold: bool = False) -> dict:
    """Full pipeline for one group; returns the report dictionary.

    Refuses a p that is not prime, and a Sylow p-subgroup above the
    subgroup enumeration cap, before any work.
    """
    if not is_prime(p):
        raise InputError(f"p = {p} is not a prime")
    sylow_order, cap = p_part(group.order, p), groups.SUBGROUP_ENUM_CAP
    if sylow_order > cap:
        raise CapExceeded(f"|P| = {sylow_order} exceeds enumeration cap {cap}")
    report = classify_case(group, p, strict_lt_threshold=strict_lt_threshold)
    out = {
        "case_label": report.case_label,
        "threshold_reading": "lt16" if strict_lt_threshold else "le16",
        "evidence": report.evidence,
        "predicted": {},
        "measured": {},
        "verdicts": {},
        "local_structure": {},
        "blocks": [],
        "lower_defect": [],
    }
    if p == 2 and report.in_scope:
        verify_counts(report)
        check_local_structure(report)
        blk = principal_block(group, p)
        weights = count_weights(group, p, blk)
        report.measured["weights"] = weights
        report.verdicts["weights_equal_l"] = verdict(weights == blk.l)
        out.update(predicted=report.predicted, measured=report.measured,
                   verdicts=report.verdicts, local_structure=report.local_structure)

    table = character_table(group)
    blocks = block_distribution(table, p)
    suite = _invariant_suite(group, table, blocks, p)
    out["invariant_suite"] = suite
    for blk in blocks:
        entry = blk.to_json()
        ldt = lower_defect_multiplicities(blk)
        entry["lower_defect"] = ldt.to_json()
        out["blocks"].append(entry)
        if blk.is_principal:
            out["lower_defect"] = [[order, m] for order, m in
                                   sorted(ldt.by_order().items(), reverse=True)]
    return out


def _invariant_suite(group: PermGroup, table, blocks, p: int) -> dict:
    """Hard block-theoretic identities, checked on every analyzed group."""
    n_pregular = len(table.p_regular_indices(p))
    suite = {
        "blocks_partition_irr": sum(b.k for b in blocks) == table.n_classes,
        "sum_l_equals_p_regular_classes": sum(b.l for b in blocks) == n_pregular,
        "defect_zero_blocks_trivial": all(
            b.k == 1 and b.l == 1 and b.defect_group.order == 1
            for b in blocks if b.defect == 0),
        "idempotents_orthogonal_sum_one": _check_idempotents(table, p),
        "principal_induction_from_local": _check_brauer_third(group, p),
    }
    return suite


def _check_idempotents(table, p: int) -> bool:
    """e_b mod p are orthogonal idempotents summing to 1 in Z(kG).

    The Frobenius F, x -> x^p on coefficients, is a ring automorphism of
    Z(kG), and sigma, the next block of _frobenius_orbit, permutes the
    blocks.  For each orbit, e_sigma(a) = F(e_a) is checked for every block
    a of the orbit, and e_b e_a = [a = b] e_b for every a but only for the
    orbit's first block b: for the others, F^i(e_b) e_sigma^i(a) =
    F^i(e_b e_a) = [a = b] F^i(e_b), and sigma^i(a) runs over all blocks.
    e_b e_a = sum_j e_a[j] (e_b K_j): one product of the rows y^t e_a[j]
    over GF(p) with the coordinates of the e_b K_j.
    """
    vectors, ctx = block_idempotent_vectors(table, p)
    blocks = block_distribution(table, p)
    n, r, f = vectors.shape
    total = vectors.sum(axis=0)
    total[0, 0] -= 1                                   # minus the identity
    if (total % p).any():
        return False
    # rows (a, u), columns (j, t): coordinate u of y^t e_a[j]
    left = ctx.regular(vectors).transpose(0, 3, 1, 2).reshape(n * f, r * f)
    seen: set[int] = set()
    for b, e in enumerate(vectors):
        if b in seen:
            continue
        orbit = [blocks.index(x) for x in _frobenius_orbit(blocks[b])]
        seen.update(orbit)
        if (vectors[orbit] @ ctx.frobenius % p != vectors[orbit[1:] + orbit[:1]]).any():
            return False
        right = _times_class_sums(table, ctx, e).transpose(0, 2, 1).reshape(r * f, r)
        products = (left @ right % p).reshape(n, f, r).transpose(0, 2, 1)
        expected = np.zeros_like(vectors)
        expected[b] = e
        if (products != expected).any():
            return False
    return True


def _check_brauer_third(group: PermGroup, p: int) -> bool:
    """The principal block of N_G(R) induces to the principal block of G,
    for every p-subgroup class representative R (for R = 1, N_G(R) is G)."""
    for r in p_subgroup_classes(group, p):
        if r.order > 1:
            ind = induce_principal_block(normalizer(group, r), group, p)
            if ind is None or not ind.is_principal:
                return False
    return True


# ---------------------------------------------------------------------------
# catalog runner


def _check_expected(entry: CatalogEntry, result: dict) -> dict:
    verdicts = {}
    exp = entry.expected
    if "case_label" in exp:
        verdicts["expected_case_label"] = verdict(result["case_label"] == exp["case_label"])
    ev = result["evidence"]
    if "hyperfocal_invariants" in exp:
        verdicts["expected_hyperfocal"] = verdict(
            ev.get("hyperfocal_invariants") == exp["hyperfocal_invariants"])
    if "controlled" in exp:
        verdicts["expected_controlled"] = verdict(
            ev.get("controlled_by_sylow_normalizer") == exp["controlled"])
    if "essential_order" in exp:
        verdicts["expected_essential_order"] = verdict(
            ev.get("essential_order") == exp["essential_order"])
    if "essential_automizer_s3" in exp:
        verdicts["expected_essential_automizer"] = verdict(
            ev.get("essential_automizer_is_s3") == exp["essential_automizer_s3"])
    measured = result["measured"]
    principal = next((b for b in result["blocks"] if b["is_principal"]), None)
    for key in ("k_b", "l_b", "k_c", "l_c"):
        if key in exp:
            got = measured.get(key)
            if got is None and principal is not None and key in ("k_b", "l_b"):
                got = principal[key[0]]
            verdicts[f"expected_{key}"] = verdict(got == exp[key])
    if "weights" in exp:
        verdicts["expected_weights"] = verdict(measured.get("weights") == exp["weights"])
    if "block_count" in exp:
        verdicts["expected_block_count"] = verdict(
            len(result["blocks"]) == exp["block_count"])
    if "lower_defect" in exp:
        want = sorted(map(tuple, exp["lower_defect"]), reverse=True)
        got = sorted(map(tuple, result["lower_defect"]), reverse=True)
        verdicts["expected_lower_defect"] = verdict(want == got)
    return verdicts


def checks_pass(result: dict, more=()) -> bool:
    """Every verdict, local-structure check, invariant and extra verdict in
    `more` passes."""
    checks = [*result["verdicts"].values(), *result["local_structure"].values(),
              *map(verdict, result["invariant_suite"].values()), *more]
    return all(v == "pass" for v in checks)


def run_catalog(path: str, filters: list[str] | None = None,
                strict_lt_threshold: bool = False, seed: int = 0) -> tuple[dict, int]:
    """Evaluate a catalog file; returns (report, exit_code).  The seed is only
    recorded in the report: nothing in the pipeline samples."""
    entries = load_catalog(path)
    if filters:
        known = {e.name for e in entries} | {e.expected.get("case_label") for e in entries}
        unknown = [f for f in filters if f not in known]
        if unknown:
            raise InputError(f"filter {unknown[0]!r} matches no entry name or case label")
        entries = [e for e in entries
                   if e.name in filters or e.expected.get("case_label") in filters]
    report = {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "threshold_reading": "lt16" if strict_lt_threshold else "le16",
        "entries": [],
        "summary": {"total": len(entries), "passed": 0, "failed": 0, "errored": 0},
    }
    codes = set()
    for entry in entries:
        item = {
            "name": entry.name,
            "prime": entry.prime,
            "recipe": entry.recipe,
            "provenance": entry.provenance,
        }
        try:
            group = construct_group(entry.recipe)
            result = analyze_group(group, entry.prime,
                                   strict_lt_threshold=strict_lt_threshold)
            item.update(result)
            item["expected"] = entry.expected
            item["expected_verdicts"] = _check_expected(entry, result)
            ok = checks_pass(result, item["expected_verdicts"].values())
            item["status"] = verdict(ok)
        except Exception as exc:  # one failing entry never aborts the run
            if not isinstance(exc, BlockscopeError):
                traceback.print_exc()
            item["status"] = "errored"
            item["error"] = f"{type(exc).__name__}: {exc}"
            codes.add(exit_code(exc))
        report["entries"].append(item)
        if item["status"] == "pass":
            report["summary"]["passed"] += 1
        elif item["status"] == "fail":
            report["summary"]["failed"] += 1
            codes.add(EXIT_VERDICT_FAIL)
        else:
            report["summary"]["errored"] += 1
    return report, next((c for c in (EXIT_INTERNAL, EXIT_INPUT, EXIT_VERDICT_FAIL)
                         if c in codes), EXIT_PASS)


def summarize(report: dict) -> str:
    lines = []
    lines.append(f"catalog run (threshold reading: {report['threshold_reading']}, "
                 f"seed {report['seed']})")
    for item in report["entries"]:
        status = item["status"].upper()
        label = item.get("case_label", "-")
        extra = ""
        m = item.get("measured") or {}
        if "l_b" in m:
            extra = (f"  k={m.get('k_b')} l={m.get('l_b')}"
                     f" weights={m.get('weights')}")
        if item["status"] == "errored":
            extra = f"  {item['error']}"
        lines.append(f"  [{status:>7}] {item['name']:<10} {label or '-':<28}{extra}")
    s = report["summary"]
    lines.append(f"total {s['total']}: {s['passed']} passed, {s['failed']} failed, "
                 f"{s['errored']} errored")
    return "\n".join(lines)
