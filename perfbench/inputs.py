"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed: the same seed gives the same
graphs, campaign configurations and CLI commands.  Gnp, tree and bipartite
graphs come from ``dmp.random_graph``; random cubic graphs come from a
configuration model with rejection, which ``dmp`` does not provide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SOLVE_CLASSES = ("two_cubic", "gnp_mid", "sparse_large", "product_trees", "deep_path", "budgeted")
# explicit node budgets: both classes have instances whose search runs for
# minutes under the default budget, so a cap keeps one seed from setting the time
BUDGETED_NODES = 500_000
PRODUCT_NODES = 200_000
# product_trees factors do not depend on --seed: about one 15x12 product of
# random trees in four needs more than PRODUCT_NODES, so seeded factors would
# make the number of failed solves depend on the seed
PRODUCT_SEED = 1408


@dataclass
class Instance:
    cls: str
    label: str
    graph: object
    limits: object = None
    parts: tuple = ()  # factor graphs, for the union and product checks


def random_cubic_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform simple cubic graph on n vertices (n even): pair 3n half-edges
    at random and reject any pairing with a loop or a repeated edge."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges: set[tuple[int, int]] = set()
        for u, v in zip(points[::2], points[1::2]):
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return sorted(edges)


def solve_suite(dmp, seed: int, quick: bool = False) -> list[Instance]:
    """The `solve` suite: six classes, each stressing a different search regime.

    Search effort on one random instance is heavy-tailed, so the classes with
    the widest spread are drawn many times at moderate size: the suite's total
    time then depends little on the seed.
    """
    rng = random.Random(seed)
    draw = lambda: rng.randrange(1 << 62)  # noqa: E731
    rg, Gnp, Tree = dmp.random_graph, dmp.Gnp, dmp.RandomTree
    suite: list[Instance] = []

    # two disjoint cubic graphs: the degree-count bound ignores connectivity
    for k, copies in ((10, 2), (12, 2)) if quick else ((16, 20), (18, 20), (20, 6)):
        for c in range(copies):
            a = dmp.from_edge_list(k, random_cubic_edges(k, rng))
            b = dmp.from_edge_list(k, random_cubic_edges(k, rng))
            g = dmp.from_edge_list(2 * k, a.edges() + [(u + k, v + k) for u, v in b.edges()])
            suite.append(Instance("two_cubic", f"2x{k}#{c}", g, parts=(a, b)))

    for n, p in ((60, 0.05),) if quick else ((120, 0.04), (150, 0.03), (180, 0.03)) * 2:
        suite.append(Instance("gnp_mid", f"gnp({n},{p})", rg(Gnp(n, p), draw())))

    for model in (Gnp(300, 0.01), Tree(500)) if quick else (Gnp(2000, 0.002), Tree(5000)):
        suite.append(Instance("sparse_large", model.describe(), rg(model, draw())))

    product_limits = dmp.SearchLimits(node_budget=PRODUCT_NODES)
    fixed = random.Random(PRODUCT_SEED)
    for c, (a, b) in enumerate(((6, 5),) if quick else ((15, 12),) * 3):
        ga, gb = (rg(Tree(k), fixed.randrange(1 << 62)) for k in (a, b))
        suite.append(Instance("product_trees", f"tree{a}x{b}#{c}", dmp.cartesian_product(ga, gb),
                              product_limits, parts=(ga, gb)))

    for n in (900, 1200, 5000):  # one path that fits the recursion limit, two that do not
        suite.append(Instance("deep_path", f"path({n})", dmp.constructions.path_graph(n)))

    budget = dmp.SearchLimits(node_budget=20_000 if quick else BUDGETED_NODES)
    suite.append(Instance("budgeted", "gnp(300,0.03)", rg(Gnp(300, 0.03), draw()), budget))
    return suite


# campaign mix: (theorem, model, target policy, trials); trial counts weight
# the theorems so that no single one dominates the pass
def campaign_mix(dmp, seed: int, quick: bool = False) -> list:
    Gnp, Tree, Bip = dmp.Gnp, dmp.RandomTree, dmp.RandomBipartite
    mix = (
        ("edge_add", Gnp(14, 0.3), None, 60),
        ("edge_delete", Gnp(14, 0.3), None, 60),
        ("subdivision", Gnp(14, 0.3), None, 60),
        ("vertex_delete_general", Gnp(14, 0.3), None, 80),
        ("vertex_add_general", Gnp(14, 0.3), ("sample", 4), 300),
        ("contraction_triangle_free", Bip(7, 7, 0.4), None, 80),
        ("tree_leaf_add", Tree(20), None, 60),
        ("tree_leaf_delete", Tree(20), None, 120),
        ("cartesian_product", Tree(6), None, 400),
        ("join", Gnp(6, 0.4), None, 400),  # at n=8 some trials take seconds: README
    )
    rng = random.Random(seed)
    return [
        dmp.CampaignConfig(theorem, model, max(2, trials // 20) if quick else trials,
                           rng.randrange(1 << 31), policy)
        for theorem, model, policy, trials in mix
    ]


# CLI batch ------------------------------------------------------------------

@dataclass
class Command:
    part: str  # "catalog", "bigfile" or "verify"
    argv: list[str]  # dmp arguments; "{dir}" stands for the batch directory
    inst: object = None  # catalog instance the command is about
    kind: str = ""  # "construct", "mp", "op", ...


def _target_flags(inst) -> list[str]:
    op, t = inst.operation, inst.target
    if op in ("add-edge", "delete-edge", "subdivide", "contract"):
        return ["--op", op, "--u", str(t[0]), "--v", str(t[1])]
    if op == "add-vertex":
        return ["--op", op, "--neighbors", ",".join(map(str, t))]
    if op == "delete-vertex":
        return ["--op", op, "--vertex", str(t)]
    return ["--op", "cartesian" if op == "cartesian-product" else "join",
            "--partner", "{dir}/%s-partner.txt" % _stem(inst)]


def _stem(inst) -> str:
    return inst.family + "".join(f"-{k}{v}" for k, v in sorted(inst.params.items()))


def cli_batch(dmp, seed: int, directory: Path, quick: bool = False) -> list[Command]:
    """Write the batch's input files into ``directory`` and return its commands."""
    rng = random.Random(seed)
    cmds: list[Command] = []
    families = dmp.list_families()
    if quick:
        families = families[:3]
    for fam in families:
        first = {name: low + rng.randrange(3) for name, low in fam.params}
        second = {name: v + 1 + rng.randrange(2) for name, v in first.items()}
        for params in (first, second):
            inst = dmp.generate(fam.name, params)
            stem = "{dir}/" + _stem(inst)
            pflags = [f"--{k}={v}" for k, v in sorted(params.items())]
            con = ["construct", "--family", fam.name, *pflags, "--out", stem + ".txt"]
            if isinstance(inst.target, dmp.Graph):
                con += ["--partner-out", stem + "-partner.txt"]
            cmds.append(Command("catalog", con, inst, "construct"))
            cmds.append(Command("catalog", ["mp", stem + ".txt", "--witness"], inst, "mp"))
            cmds.append(Command("catalog", ["op", stem + ".txt", *_target_flags(inst)],
                                inst, "op"))

    tree = dmp.random_graph(dmp.RandomTree(2000 if quick else 20000), rng.randrange(1 << 62))
    (directory / "tree.txt").write_text(dmp.to_edge_list_text(tree))
    (directory / "tree.json").write_text(dmp.to_json_text(tree) + "\n")
    u, v = tree.edges()[rng.randrange(tree.m)]
    cmds.append(Command("bigfile", ["mp", "{dir}/tree.txt", "--format", "edgelist"], tree, "mp"))
    cmds.append(Command("bigfile", ["mp", "{dir}/tree.json"], tree, "mp"))
    cmds.append(Command("bigfile", ["op", "{dir}/tree.txt", "--op", "subdivide", "--u", str(u),
                                    "--v", str(v), "--out", "{dir}/tree-sub.txt"], tree, "op"))

    vseed = str(rng.randrange(1 << 31))
    trials = "6" if quick else "40"
    common = ["verify", "--theorem", "edge_add", "--model", "gnp", "--n", "12", "--p", "0.3",
              "--trials", trials, "--seed", vseed]
    cmds.append(Command("verify", common + ["--report", "{dir}/verify-1.csv"], kind="verify"))
    cmds.append(Command("verify", common + ["--jobs", "2", "--report", "{dir}/verify-2.csv"],
                        kind="verify"))
    return cmds
