"""Expected answers computed apart from blockscope.

Nothing in this module imports blockscope.  The symmetric and alternating
groups are checked against partition combinatorics (hook-length formula,
splitting of self-conjugate shapes), wreath products against sympy's
class enumeration and Clifford theory, and the paper's cases against the
hand-derived values in the shipped catalog file.  Every function is
called after the timed span of a run.
"""

from __future__ import annotations

import json
from math import factorial, prod

# ---------------------------------------------------------------------------
# partitions and the symmetric and alternating groups


def partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate_partition(lam: tuple) -> tuple:
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0])) if lam else ()


def hook_length_degree(lam: tuple) -> int:
    """Degree of the irreducible character of S_n labelled by lam."""
    conj = conjugate_partition(lam)
    hooks = prod(lam[i] - j + conj[j] - i - 1
                 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(sum(lam)) // hooks


def _odd_part_partitions(n: int):
    return [lam for lam in partitions(n) if all(part % 2 for part in lam)]


def symmetric_facts(n: int) -> dict:
    """Order, class count, degree multiset and 2-regular class count of S_n."""
    shapes = list(partitions(n))
    return {
        "order": factorial(n),
        "classes": len(shapes),
        "degrees": sorted(hook_length_degree(lam) for lam in shapes),
        "two_regular": len(_odd_part_partitions(n)),
    }


def alternating_facts(n: int) -> dict:
    """The same facts for A_n, n >= 2.

    An even cycle type splits into two A_n-classes exactly when its parts
    are distinct and odd.  Characters of S_n restrict irreducibly and pair
    up (lam with its conjugate), except that a self-conjugate shape splits
    into two characters of half the degree.
    """
    def splits(lam):
        return len(set(lam)) == len(lam) and all(part % 2 for part in lam)

    classes = 0
    for lam in partitions(n):
        if (n - len(lam)) % 2 == 0:
            classes += 2 if splits(lam) else 1
    degrees = []
    for lam in partitions(n):
        conj = conjugate_partition(lam)
        f = hook_length_degree(lam)
        if lam == conj:
            degrees += [f // 2, f // 2]
        elif lam > conj:
            degrees.append(f)
    # odd-order elements are even permutations: every odd-part type is in A_n
    two_regular = sum(2 if splits(lam) else 1 for lam in _odd_part_partitions(n))
    return {"order": factorial(n) // 2, "classes": classes,
            "degrees": sorted(degrees), "two_regular": two_regular}


def direct_product_facts(a: dict, b: dict) -> dict:
    return {
        "order": a["order"] * b["order"],
        "classes": a["classes"] * b["classes"],
        "degrees": sorted(x * y for x in a["degrees"] for y in b["degrees"]),
        "two_regular": a["two_regular"] * b["two_regular"],
    }


# ---------------------------------------------------------------------------
# wreath products Z_m wr Z_k (top group regular on k copies)


def _wreath_sympy_group(m: int, k: int):
    from sympy.combinatorics import Permutation, PermutationGroup

    n = m * k
    base = Permutation([list(range(m))], size=n)
    shift = Permutation([[copy * m + j for copy in range(k)] for j in range(m)], size=n)
    return PermutationGroup([base, shift])


def wreath_facts(m: int, k: int) -> dict:
    """Order, classes and 2-regular classes by sympy's class enumeration;
    degrees by Clifford theory over the linear characters of the base.

    A base character is a tuple in Z_m^k.  Its orbit under the cyclic top
    group has some size s; the stabilizer (order k/s) is cyclic, so the
    character extends to its inertia group in k/s ways, each inducing to
    an irreducible of degree s.
    """
    group = _wreath_sympy_group(m, k)
    classes = group.conjugacy_classes()
    two_regular = sum(1 for cls in classes if next(iter(cls)).order() % 2)
    degrees = []
    seen = set()
    for code in range(m ** k):
        t = tuple((code // m ** i) % m for i in range(k))
        if t in seen:
            continue
        orbit = {t[i:] + t[:i] for i in range(k)}
        seen |= orbit
        s = len(orbit)
        degrees += [s] * (k // s)
    return {"order": int(group.order()), "classes": len(classes),
            "degrees": sorted(degrees), "two_regular": two_regular}


def table_facts(spec) -> dict:
    """Facts for a table-workload spec: ("symmetric", n), ("alternating", n),
    ("wreath", m, k) or ("direct", spec_a, spec_b)."""
    kind = spec[0]
    if kind == "symmetric":
        return symmetric_facts(spec[1])
    if kind == "alternating":
        return alternating_facts(spec[1])
    if kind == "wreath":
        return wreath_facts(spec[1], spec[2])
    if kind == "direct":
        return direct_product_facts(table_facts(spec[1]), table_facts(spec[2]))
    raise ValueError(f"unknown table spec {spec!r}")


def check_table(name: str, facts: dict, got: dict) -> list[str]:
    """Compare one built table (order, degrees, 2-block k and l) with facts."""
    problems = []
    if got["order"] != facts["order"]:
        problems.append(f"{name}: order {got['order']} != {facts['order']}")
    if len(got["degrees"]) != facts["classes"]:
        problems.append(f"{name}: {len(got['degrees'])} characters, "
                        f"{facts['classes']} classes expected")
    if sorted(got["degrees"]) != facts["degrees"]:
        problems.append(f"{name}: degree multiset differs from the oracle")
    if sum(d * d for d in got["degrees"]) != facts["order"]:
        problems.append(f"{name}: squared degrees do not sum to |G|")
    if sum(got["block_k"]) != facts["classes"]:
        problems.append(f"{name}: blocks do not partition the characters")
    if sum(got["block_l"]) != facts["two_regular"]:
        problems.append(f"{name}: sum of l(b) {sum(got['block_l'])} != "
                        f"{facts['two_regular']} 2-regular classes")
    return problems


# ---------------------------------------------------------------------------
# the paper's cases: H x A with H a core and A an abelian 2-group

# l(b) predicted by the paper for each in-scope label.
PAPER_L = {"P_equals_Q": 3, "case_i": 3, "case_ii": 2}

CORE_NAMES = ("A4", "A5", "L48", "S4", "S5", "G96")

# L192 = (Z8 x Z8) : Z3 with a fixed-point-free action, so P = Q and G has
# one 2-block.  Clifford theory: the 63 nontrivial characters of Q fall
# into 21 orbits of length 3 (degree-3 characters) and the trivial one
# extends in 3 ways, so k(b) = 24.  The 2-regular classes are 1, t, t^2;
# the identity has defect group P (order 64) and C(t) = <t> gives the two
# classes with trivial defect group.
L192_CORE = {"case_label": "P_equals_Q", "k_b": 24, "l_b": 3,
             "lower_defect": [[64, 1], [1, 2]]}


def load_cores(catalog_path) -> dict:
    """Hand-derived principal-block data of the cores, from the catalog file."""
    with open(catalog_path, encoding="utf-8") as fh:
        entries = {e["name"]: e for e in json.load(fh)["entries"]}
    cores = {}
    for name in CORE_NAMES:
        exp = entries[name]["expected"]
        cores[name] = {key: exp[key] for key in ("case_label", "k_b", "l_b",
                                                 "lower_defect")}
    cores["L192"] = dict(L192_CORE)
    return cores


def expected_case(core: dict, a_order: int) -> dict:
    """The paper's prediction for H x A from the core's data.

    A central abelian 2-factor keeps the hyperfocal subgroup and the fusion
    pattern: P = Q becomes case (i) (Q central in P = Q x A), case (ii)
    stays case (ii).  The principal block is b_H tensor Irr(A), so k
    multiplies by |A|, l is unchanged, and every lower defect group gains
    the factor A.
    """
    label = core["case_label"]
    if a_order > 1 and label == "P_equals_Q":
        label = "case_i"
    return {
        "case_label": label,
        "k_b": core["k_b"] * a_order,
        "l_b": PAPER_L[label],
        "lower_defect": sorted(([order * a_order, m] for order, m in core["lower_defect"]),
                               reverse=True),
    }


def paper_checks(name: str, report: dict) -> list[str]:
    """The paper's predictions on one in-scope analyze report."""
    label = report["case_label"]
    measured = report["measured"]
    problems = []
    want_l = PAPER_L[label]
    for key in ("l_b", "l_c") + (("l_b0",) if label == "case_i" else ()):
        if measured.get(key) != want_l:
            problems.append(f"{name}: {key} = {measured.get(key)}, paper predicts {want_l}")
    if label in ("case_i", "case_ii") and measured.get("k_b") != measured.get("k_c"):
        problems.append(f"{name}: k(b) != k(c)")
    if label == "case_i" and measured.get("k_b") != measured.get("k_b0"):
        problems.append(f"{name}: k(b) != k(b0)")
    if measured.get("weights") != measured.get("l_b"):
        problems.append(f"{name}: {measured.get('weights')} weights, l(b) = "
                        f"{measured.get('l_b')}")
    return problems


def check_case(name: str, expected: dict, report: dict) -> list[str]:
    problems = []
    if report["case_label"] != expected["case_label"]:
        return [f"{name}: label {report['case_label']}, expected {expected['case_label']}"]
    measured = report["measured"]
    for key in ("k_b", "l_b"):
        if measured.get(key) != expected[key]:
            problems.append(f"{name}: {key} = {measured.get(key)}, expected {expected[key]}")
    got_ld = sorted(map(list, report["lower_defect"]), reverse=True)
    if got_ld != expected["lower_defect"]:
        problems.append(f"{name}: lower defect {got_ld}, expected {expected['lower_defect']}")
    return problems + paper_checks(name, report)


# ---------------------------------------------------------------------------
# the shipped catalog


def check_catalog_report(items, catalog: dict) -> list[str]:
    """Compare catalog report entries with the catalog file's expected fields.

    The report's own expected_verdicts are not consulted: each field is
    read from the report and compared with the file directly.
    """
    problems = []
    entries = {e["name"]: e for e in catalog["entries"]}
    for item in items:
        name = item["name"]
        if item.get("status") != "pass":
            problems.append(f"{name}: status {item.get('status')}")
            continue
        exp = entries[name].get("expected", {})
        ev = item["evidence"]
        measured = item["measured"]
        principal = next(b for b in item["blocks"] if b["is_principal"])
        got = {
            "case_label": item["case_label"],
            "hyperfocal_invariants": ev.get("hyperfocal_invariants"),
            "controlled": ev.get("controlled_by_sylow_normalizer"),
            "essential_order": ev.get("essential_order"),
            "essential_automizer_s3": ev.get("essential_automizer_is_s3"),
            "k_b": principal["k"], "l_b": principal["l"],
            "k_c": measured.get("k_c"), "l_c": measured.get("l_c"),
            "weights": measured.get("weights"),
            "block_count": len(item["blocks"]),
            "lower_defect": sorted(map(list, item["lower_defect"]), reverse=True),
        }
        for key, want in exp.items():
            if key == "lower_defect":
                want = sorted(map(list, want), reverse=True)
            if got.get(key) != want:
                problems.append(f"{name}: {key} = {got.get(key)}, catalog says {want}")
        if item["case_label"] in PAPER_L:
            problems += paper_checks(name, item)
    return problems
