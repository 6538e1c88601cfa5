"""Seeded query workloads for the klrc benchmark.

Each workload is a list of *slots*.  A slot is a fixed kind of query (for
example "a dims query with 5 charges and 10 boxes") with a pool of recorded
variants.  A run of the benchmark is a sequence of rounds; every round issues
one variant of every slot, so each round of each run holds the same mix of
query sizes whatever the seed.  The seed picks which variant each slot uses
in each round and the order of the queries inside the round.

The pools are generated here, once, from fixed pool seeds, and recorded with
each query's exit status and stdout digest in ``golden/<workload>.json`` by
``record.py``; the benchmark itself reads the recorded pools.  The
generators use only their own small copy of the multipartition combinatorics,
so they do not depend on the package they measure.
"""

from __future__ import annotations

import json
import random
from math import comb
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("quiver", "dims", "fock", "blocks")

# Whole rounds every run makes, however short --seconds is.  The tail
# percentile is fixed per workload from this count, so that every run reports
# the same percentile with at least ten samples beyond it.
ROUNDS = {"quiver": 2, "dims": 4, "fock": 10, "blocks": 2}

# Variants per slot.  Dims and blocks share caches across queries, so they
# hold about twice the rounds a 20 s run makes on a 2-vCPU x86_64 machine: a
# repeated query would hit the cache, and the share of repeats would then
# depend on the machine's speed.  Quiver and fock queries share no cache, so
# a repeat costs what it did before.
VARIANTS = {"quiver": 4, "dims": 32, "fock": 20, "blocks": 32}

RENDERINGS = ("text", "json", "dot", "tsv", "maxweights")

# Queries whose stdout is known from the README and the acceptance goldens:
# (argv, line index or None for the whole stdout, expected text).
FIXED = {
    "quiver": [
        (["quiver", "--ell", "4", "--weight", "2,2"], 0, "root 2Λ2  vertices 9  arrows 18"),
    ],
    "dims": [
        (["dims", "--ell", "2", "--weight", "0,1", "--beta", "1,2,1", "--nu", "0-1-2-1"],
         None, "1 + 2q^2 + 3q^4 + 2q^6 + q^8\n"),
        (["dims", "--ell", "3", "--m", "2,1,0,0", "--beta", "1,1,0,0", "--nu", "0-1",
          "--nu2", "1-0"], None, "q^2 + q^6\n"),
    ],
    "fock": [
        (["fock", "--ell", "2", "--weight", "0,0,1", "--word", "0,1^2,0"], -1,
         "End = 1 + q^2 + 3q^4 + 2q^6 + 3q^8 + q^10 + q^12"),
    ],
    "blocks": [
        (["classify", "--ell", "3", "--weight", "0,0", "--beta", "2,2,0,0", "--char", "0"],
         None, "Tame (t20) [char≠2]\n"),
        (["classify", "--ell", "3", "--weight", "0,0", "--beta", "2,2,0,0", "--char", "2"],
         None, "Wild (t20)\n"),
        (["simples", "--ell", "3", "--weight", "2,2", "--beta", "0,0,2,1"], None, "2\n"),
        (["defect", "--ell", "3", "--weight", "2,2", "--beta", "0,0,2,1"], None, "2\n"),
    ],
}


# -- multipartition combinatorics (independent of the package) -----------


def fold(c: int, ell: int) -> int:
    r = c % (2 * ell)
    return r if r <= ell else 2 * ell - r


def addable(shape: list[list[int]]) -> list[tuple[int, int, int]]:
    """Addable nodes (component, row, column), 0-based rows and columns."""
    out = []
    for s, part in enumerate(shape):
        for a in range(len(part) + 1):
            row = part[a] if a < len(part) else 0
            if a == 0 or row < part[a - 1]:
                out.append((s, a, row))
    return out


def node_residue(charges, node, ell: int) -> int:
    s, a, b = node
    return fold(b - a + charges[s], ell)


def grow(shape: list[list[int]], node) -> None:
    s, a, _ = node
    if a == len(shape[s]):
        shape[s].append(1)
    else:
        shape[s][a] += 1


def random_walk(rng: random.Random, charges, ell: int, n: int):
    """A residue sequence of a random standard filling grown box by box."""
    shape = [[] for _ in charges]
    nu = []
    for _ in range(n):
        node = rng.choice(addable(shape))
        nu.append(node_residue(charges, node, ell))
        grow(shape, node)
    return tuple(nu), shape


def walk_within(rng: random.Random, charges, ell: int, target: list[list[int]]):
    """A residue sequence of a random standard filling of ``target``."""
    shape = [[] for _ in charges]
    nu = []
    while sum(map(sum, shape)) < sum(map(sum, target)):
        inside = [(s, a, b) for s, a, b in addable(shape)
                  if a < len(target[s]) and b < target[s][a]]
        node = rng.choice(inside)
        nu.append(node_residue(charges, node, ell))
        grow(shape, node)
    return tuple(nu)


def content(nu, ell: int) -> tuple[int, ...]:
    counts = [0] * (ell + 1)
    for r in nu:
        counts[r] += 1
    return tuple(counts)


def csv(values) -> str:
    return ",".join(str(v) for v in values)


def random_charges(rng: random.Random, k: int, ell: int) -> list[int]:
    return sorted(rng.randint(0, ell) for _ in range(k))


# -- pools ------------------------------------------------------------------

QUIVER_MAX_CLASS = 3003        # C(k+ell, ell) <= 3003: at most about 1,500 vertices
QUIVER_OVER_CAP = ((11, 6), (12, 6), (10, 7), (7, 10))   # 12,376 to 19,448 compositions


def quiver_slots(rng: random.Random) -> list[dict]:
    """Every class shape with ell 4-10 and level 2-6 up to the size cap, plus
    one over-cap slot.  Each shape has one rendering and one ev parity,
    assigned in turn down the list of shapes, so that every round renders
    the same classes the same way; the seed picks the root within the class."""
    slots = []
    shapes = [(ell, k) for ell in range(4, 11) for k in range(2, 7)
              if comb(k + ell, ell) <= QUIVER_MAX_CLASS]
    for n, (ell, k) in enumerate(shapes):
        rendering = RENDERINGS[n % len(RENDERINGS)]
        parity = n // len(RENDERINGS) % 2
        variants = []
        for _ in range(VARIANTS["quiver"]):
            charges = csv(random_root(rng, k, ell, parity))
            if rendering == "maxweights":
                argv = ["maxweights", "--ell", str(ell), "--weight", charges]
            else:
                argv = ["quiver", "--ell", str(ell), "--weight", charges, "--format", rendering]
            variants.append([argv])
        slots.append({"name": f"ell{ell}-level{k}-{rendering}", "variants": variants})
    over = [[["quiver", "--ell", str(ell), "--weight", csv(random_root(rng, k, ell, parity)),
              "--format", "tsv"]]
            for ell, k in QUIVER_OVER_CAP for parity in (0, 1)]
    slots.append({"name": "over-cap", "variants": over})
    return slots


def random_root(rng: random.Random, k: int, ell: int, parity: int) -> list[int]:
    """Charges of a random level-k weight whose ev has the given parity."""
    while True:
        charges = random_charges(rng, k, ell)
        if sum(c % 2 for c in charges) % 2 == parity:
            return charges


# (components k, boxes n, rank ell, kind): diag has nu' = nu; offdiag has nu'
# another filling of the shape nu reaches; zero has nu start with a residue no
# charge carries.  The rank is fixed per slot because it moves the cost of a
# query as much as n and k do.  The slots come in three bands of nine (the
# first counting the fixed queries): cheap, about 15-25 ms and heavy, so that
# the median latency falls inside the middle band instead of in a gap
# between bands.  n = 12 costs about 16 s a query and is left out.
DIMS_SLOTS = (
    (1, 5, 3, "diag"), (1, 7, 2, "offdiag"), (1, 10, 2, "diag"), (2, 4, 5, "diag"),
    (2, 5, 2, "offdiag"), (2, 6, 3, "diag"), (2, 7, 6, "zero"),
    (2, 8, 3, "diag"), (2, 8, 4, "diag"), (2, 8, 2, "offdiag"), (2, 9, 5, "diag"),
    (2, 9, 3, "zero"), (2, 10, 6, "diag"), (3, 6, 2, "diag"), (3, 6, 4, "offdiag"),
    (3, 7, 4, "diag"),
    (3, 7, 5, "offdiag"), (4, 6, 5, "offdiag"), (3, 8, 3, "offdiag"), (5, 6, 5, "diag"),
    (3, 9, 2, "offdiag"), (3, 10, 5, "diag"), (4, 8, 2, "diag"), (5, 7, 3, "zero"),
    (4, 9, 4, "offdiag"),
)


def dims_query(rng: random.Random, k: int, n: int, ell: int, kind: str) -> list[str]:
    while True:
        charges = random_charges(rng, k, ell)
        nu, shape = random_walk(rng, charges, ell, n)
        nu2 = None
        if kind == "offdiag":
            nu2 = walk_within(rng, charges, ell, shape)
            if nu2 == nu:
                continue
        elif kind == "zero":
            starts = {fold(c, ell) for c in charges}
            late = [j for j, r in enumerate(nu) if r not in starts]
            if not late:
                continue
            j = rng.choice(late)
            nu = (nu[j],) + nu[:j] + nu[j + 1:]
        argv = ["dims", "--ell", str(ell), "--weight", csv(charges),
                "--beta", csv(content(nu, ell)), "--nu", "-".join(map(str, nu))]
        if nu2 is not None:
            argv += ["--nu2", "-".join(map(str, nu2))]
        return argv


def dims_slots(rng: random.Random) -> list[dict]:
    variants = VARIANTS["dims"]
    return [{"name": f"k{k}-n{n}-ell{ell}-{kind}",
             "variants": [[dims_query(rng, k, n, ell, kind)] for _ in range(variants)]}
            for k, n, ell, kind in DIMS_SLOTS]


# (components k, boxes, lo, hi): a word is kept when its support work (the
# number of multipartitions summed over its single steps) lies in [lo, hi].
# Fock costs are heavy-tailed: at equal k and boxes one word can cost 1000
# times another, so the band keeps each slot's queries within a small factor.
FOCK_SLOTS = (
    (1, 8, 8, 40), (1, 12, 12, 60), (2, 8, 10, 40), (2, 10, 15, 60), (3, 8, 10, 40),
    (4, 8, 10, 40), (5, 8, 10, 40),
    (2, 12, 100, 300), (2, 14, 100, 300), (3, 10, 100, 300), (3, 12, 100, 300),
    (4, 10, 100, 300), (5, 10, 100, 300),
    (2, 16, 500, 1500), (3, 14, 500, 1500), (3, 16, 500, 1500), (4, 12, 500, 1500),
    (4, 14, 500, 1500), (4, 16, 500, 1500), (5, 12, 500, 1500),
)


def support_work(charges, ell: int, factors) -> int:
    """Sum over the single steps of a word of the size of the expansion's
    support; coefficients are sums of powers of q, so nothing cancels."""
    support = {tuple(() for _ in charges)}
    work = 0
    for i, r in factors:
        for _ in range(r):
            grown = set()
            for frozen in support:
                for node in addable([list(p) for p in frozen]):
                    if node_residue(charges, node, ell) == i:
                        shape = [list(p) for p in frozen]
                        grow(shape, node)
                        grown.add(tuple(tuple(p) for p in shape))
            support = grown
            work += len(support)
    return work


def fock_query(rng: random.Random, k: int, boxes: int, lo: int, hi: int) -> list[str]:
    """A divided-power word whose expansion is nonzero: each factor i^r adds r
    addable i-nodes to one tracked multipartition, which therefore keeps a
    nonzero coefficient."""
    while True:
        ell = rng.randint(2, 6)
        charges = random_charges(rng, k, ell)
        shape = [[] for _ in charges]
        factors = []          # in application order
        left = boxes
        while left:
            by_residue: dict[int, list] = {}
            for node in addable(shape):
                by_residue.setdefault(node_residue(charges, node, ell), []).append(node)
            i = rng.choice(sorted(by_residue))
            r = rng.randint(1, min(3, len(by_residue[i]), left))
            for node in rng.sample(by_residue[i], r):
                grow(shape, node)
            factors.append((i, r))
            left -= r
        if lo <= support_work(charges, ell, factors) <= hi:
            break
    word = ",".join(f"{i}^{r}" if r > 1 else str(i) for i, r in reversed(factors))
    argv = ["fock", "--ell", str(ell), "--weight", csv(charges), "--word", word]
    if boxes > 12:
        argv += ["--max-n", str(boxes)]
    return argv


def fock_slots(rng: random.Random) -> list[dict]:
    variants = VARIANTS["fock"]
    return [{"name": f"k{k}-boxes{boxes}-work{lo}-{hi}",
             "variants": [[fock_query(rng, k, boxes, lo, hi)] for _ in range(variants)]}
            for k, boxes, lo, hi in FOCK_SLOTS]


BLOCK_HEIGHTS = (5, 10, 14)     # several beta per weight, up to the height-14 cap


def block_group(rng: random.Random, ell: int, level: int) -> list[list[str]]:
    """One weight surveyed at several beta: each beta is the content of a
    random filling, so Lambda - beta is a weight of the module."""
    charges = random_charges(rng, level, ell)
    weight = ["--ell", str(ell), "--weight", csv(charges)]
    group = []
    for height in BLOCK_HEIGHTS:
        nu, _ = random_walk(rng, charges, ell, height)
        beta = ["--beta", csv(content(nu, ell))]
        for char in ("0", "2", "3"):
            group.append(["classify", *weight, *beta, "--char", char])
        group.append(["simples", *weight, *beta])
        group.append(["defect", *weight, *beta])
    return group


def blocks_slots(rng: random.Random) -> list[dict]:
    """One slot per (ell, level) with ell 2-8 and level 1-4; a variant is a
    whole block group, issued together so its beta share the cache."""
    return [{"name": f"ell{ell}-level{level}",
             "variants": [block_group(rng, ell, level) for _ in range(VARIANTS["blocks"])]}
            for ell in range(2, 9) for level in range(1, 5)]


GENERATORS = {"quiver": quiver_slots, "dims": dims_slots,
              "fock": fock_slots, "blocks": blocks_slots}


def build_pools() -> dict[str, list[dict]]:
    """The pools, regenerated from their fixed pool seeds, with each query
    as its argv joined by spaces (no argument holds a space)."""
    pools = {}
    for name in WORKLOADS:
        slots = GENERATORS[name](random.Random(f"klrc-bench-pool:{name}"))
        for slot in slots:
            slot["variants"] = [[" ".join(argv) for argv in variant]
                                for variant in slot["variants"]]
        pools[name] = slots
    return pools


# -- runs ---------------------------------------------------------------------


def load_golden(workload: str) -> dict:
    """The recorded pool of a workload: {"slots": [...], "fixed": [...]}, each
    query as [text, exit status, stdout digest]."""
    return json.loads((GOLDEN / f"{workload}.json").read_text(encoding="utf-8"))


def rounds(slots: list[dict], fixed: list, seed: int):
    """Yield the rounds of a run, each a list of queries.

    A slot's variant is a list of one query, or of a group of queries issued
    together; a query is any value, here its text or its recorded entry.
    Each slot walks through its own seeded permutation of its variants, so a
    run repeats no variant until it has used them all.  The order of the
    variants and fixed queries within a round is shuffled.
    """
    rng = random.Random(f"klrc-bench-run:{seed}")
    orders = [rng.sample(slot["variants"], len(slot["variants"])) for slot in slots]
    r = 0
    while True:
        units = [order[r % len(order)] for order in orders] + [[query] for query in fixed]
        rng.shuffle(units)
        yield [query for unit in units for query in unit]
        r += 1
