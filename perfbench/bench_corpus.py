"""Seeded corpus of CLI commands, each with its known answer.

A command is a plain dict: ``argv`` (CLI arguments), ``stdin`` (the input
text), ``kind`` (the subcommand) and ``expect`` (exit ``code`` and the
report ``fields`` the checker compares).  Inputs come from ``random.Random``
seeded with the workload name and seed, never from ``shatterlab.sampling``;
answers come from ``bench_oracle``.  The same seed gives the same corpus,
byte for byte.
"""

from __future__ import annotations

import json
import random

import bench_oracle as oracle

WORKLOADS = ("extremal-pipeline", "audit-sweep", "algebra")

# extremal-pipeline: (n, families per pass, how many of them non-anchored).
# A command costs about |F|^2 (or |complement|^2 on peel's dual side) times a
# factor set by the shape of the shattered sets, so every system of a kind
# has the same make-up (see extremal_system) to make one seed's commands cost
# what another's do.  The counts give over 100 commands per pass and put the
# 90th percentile in the middle of the n=11 augments, not in a gap between
# clusters of commands.
PIPELINE_SLOTS = ((9, 6, 3), (10, 6, 3), (11, 7, 0))
PIPELINE_MEMBERS = 7
PIPELINE_SUPPORT = 3
# audit-sweep: random audits per pass; every (n, count) pair of the grid
# appears equally often, and only the audit seeds vary with the corpus seed
RANDOM_AUDITS = 120
RANDOM_AUDIT_NS = (4, 5, 6)
RANDOM_AUDIT_COUNTS = (100, 150, 200, 250, 300)
# algebra: small systems per pass (n cycles 6..8, members cycle 2..6), all
# supports of size 3 so that |down-set| and |family| stay near (7/8)^members
# of 2^n: the point-evaluation rank costs about |down-set| * |family| * rank.
# Plus one large system per member count for `balance` alone (cost 2^members).
ALGEBRA_SYSTEMS = 30
ALGEBRA_SUPPORT = 3
BALANCE_MEMBERS = (14, 17, 20)


def family_obj(n: int, masks) -> dict:
    return {"n": n, "sets": [oracle.elements(m) for m in sorted(masks)]}


def system_obj(n: int, pairs) -> dict:
    return {"n": n, "members": [{"S": oracle.elements(s), "H": oracle.elements(h)}
                                for s, h in sorted(pairs)]}


def family_text(n: int, masks) -> str:
    lines = [f"n={n}"]
    lines += [",".join(map(str, oracle.elements(m))) or "-" for m in sorted(masks)]
    return "\n".join(lines) + "\n"


def _command(kind, stdin, code, fields, structured=False, extra=()):
    argv = [kind, *extra]
    if structured:
        argv += ["--format", "structured"]
    return {"kind": kind, "argv": argv, "stdin": stdin,
            "expect": {"code": code, "fields": fields}}


def _antichain(rng: random.Random, n: int, k: int, lo: int, hi: int) -> list[int]:
    while True:
        supports = set()
        while len(supports) < k:
            mask = 0
            for e in rng.sample(range(n), rng.randint(lo, hi)):
                mask |= 1 << e
            supports.add(mask)
        supports = sorted(supports)
        if all(a & b not in (a, b) for i, a in enumerate(supports) for b in supports[i + 1:]):
            return supports


def _all_compatible(pairs) -> bool:
    return all(h1 & s2 == h2 & s1 for s1, h1 in pairs for s2, h2 in pairs)


def _triangle(rng: random.Random, elements: list[int]) -> list[tuple[int, int]]:
    """Three pairs on three elements whose cubes are not all compatible, at zero defect."""
    a, b, c = (1 << e for e in elements)
    supports = [a | b, a | c, b | c]
    while True:
        pairs = [(s, s & rng.getrandbits(max(elements) + 1)) for s in supports]
        if not _all_compatible(pairs) and oracle.defect(max(elements) + 1, pairs) == 0:
            return pairs


def extremal_system(rng: random.Random, n: int, anchored: bool):
    """A zero-defect system of PIPELINE_MEMBERS members, with witnesses on both sides.

    Anchored: supports of PIPELINE_SUPPORT elements, patterns cut by one
    anchor set.  Non-anchored: the product of a three-pair system on three
    elements that has disjoint cubes and zero defect with an anchored system
    on the other elements; a product of extremal families is extremal.  Both
    are checked for zero defect by inclusion-exclusion and by counting.
    """
    while True:
        if anchored:
            supports = _antichain(rng, n, PIPELINE_MEMBERS, PIPELINE_SUPPORT, PIPELINE_SUPPORT)
            anchor = rng.getrandbits(n)
            pairs = [(s, s & anchor) for s in supports]
        else:
            core = rng.sample(range(n), 3)
            rest = [e for e in range(n) if e not in core]
            supports = [sum(1 << rest[i] for i in range(len(rest)) if m >> i & 1)
                        for m in _antichain(rng, len(rest), PIPELINE_MEMBERS - 3,
                                            PIPELINE_SUPPORT, PIPELINE_SUPPORT)]
            anchor = rng.getrandbits(n)
            pairs = sorted(_triangle(rng, core) + [(s, s & anchor) for s in supports])
        supports = [s for s, _ in pairs]
        fam = oracle.family_of(n, pairs)
        if oracle.defect(n, pairs) != 0 or len(fam) != len(oracle.down_set(n, supports)):
            raise AssertionError("extremal construction with nonzero defect")
        witness = oracle.first_witness(n, pairs)
        removal = oracle.first_witness(n, oracle.complement_system(n, pairs, fam))
        if witness is not None and removal is not None:
            return pairs, fam, witness, removal


def pipeline_commands(rng: random.Random, n: int, anchored: bool) -> list[dict]:
    """construct -> check -> decompose -> augment -> peel on one extremal family."""
    pairs, fam, (chosen, added), (_, removed) = extremal_system(rng, n, anchored)
    sys_json = json.dumps(system_obj(n, pairs))
    fam_in = (json.dumps(family_obj(n, fam)) if rng.random() < 0.5
              else family_text(n, fam))
    size = len(fam)
    cmds = []
    structured = rng.random() < 1 / 3
    cmds.append(_command("construct", sys_json, 0, {"family": family_obj(n, fam)}, structured))
    cmds.append(_command("check", fam_in, 0, {
        "n": n, "family_size": size, "shattered_size": size, "s_extremal": True},
        rng.random() < 1 / 3))
    cmds.append(_command("decompose", fam_in, 0, {"system": system_obj(n, pairs)}))
    structured = rng.random() < 1 / 3
    fields = {"chosen_member": oracle.elements(chosen), "added_set": oracle.elements(added),
              "augmented_family": family_obj(n, fam + [added])}
    if not structured:
        fields.update(family_size=size + 1, s_extremal=True)
    cmds.append(_command("augment", sys_json, 0, fields, structured))
    structured = rng.random() < 1 / 3
    fields = {"removed_set": oracle.elements(removed), "s_extremal": True,
              "remaining_family": family_obj(n, [m for m in fam if m != removed])}
    if not structured:
        fields["family_size"] = size - 1
    cmds.append(_command("peel", fam_in, 0, fields, structured))
    return cmds


def audit_command(rng: random.Random, n: int, count: int | None, seed: int | None) -> dict:
    if count is None:
        extra = ["--n", str(n)]
        examined = 1 << (1 << n)
        extremal = oracle.exhaustive_audit_extremal(n)
    else:
        extra = ["--n", str(n), "--count", str(count), "--seed", str(seed)]
        examined = count
        extremal = oracle.random_audit_extremal(seed, n, count)
    fields = {"n": n, "mode": "exhaustive" if count is None else "random",
              "families_examined": examined, "s_extremal_families": extremal,
              "brute_failures": 0, "missing_witness": 0, "machinery_failures": 0,
              "disagreements": 0, "ok": True}
    return _command("audit", "", 0, fields, rng.random() < 1 / 3, extra)


def algebra_commands(rng: random.Random, n: int, k: int, orders: int) -> list[dict]:
    """groebner under several lex orders, graph, balance, construct and check."""
    pairs = sorted((s, s & rng.getrandbits(n))
                   for s in _antichain(rng, n, k, ALGEBRA_SUPPORT, ALGEBRA_SUPPORT))
    fam = oracle.family_of(n, pairs)
    down = len(oracle.down_set(n, [s for s, _ in pairs]))
    size = len(fam)
    extremal_by_counting = size == down
    sys_json = json.dumps(system_obj(n, pairs))
    cmds = []
    priorities = [list(range(1, n + 1)), list(range(n, 0, -1))]
    while len(priorities) < orders:
        priorities.append(rng.sample(range(1, n + 1), n))
    for priority in priorities[:orders]:
        cmds.append(_command("groebner", sys_json, 0 if extremal_by_counting else 2, {
            "family_size": size, "down_set_size": down,
            "counting_equal": extremal_by_counting, "groebner_basis": extremal_by_counting,
            "standard_monomials": down, "evaluation_rank": size, "rank_full": True,
            "equivalence_holds": True},
            rng.random() < 1 / 3, ["--order", ",".join(map(str, priority))]))
    edges = [[i + 1, j + 1] for i in range(k) for j in range(i + 1, k)
             if oracle.compatible(pairs[i], pairs[j], n)]
    cmds.append(_command("graph", sys_json, 0,
                         {"n": n, "vertices": k, "edges": edges}, rng.random() < 1 / 3))
    cmds.append(balance_command(rng, n, pairs, down - size))
    cmds.append(_command("construct", sys_json, 0, {"family": family_obj(n, fam)},
                         rng.random() < 1 / 3))
    shattered = oracle.shattered_count(fam, n)
    cmds.append(_command("check", family_text(n, fam), 0 if shattered == size else 2, {
        "n": n, "family_size": size, "shattered_size": shattered,
        "s_extremal": shattered == size}, rng.random() < 1 / 3))
    if oracle.defect(n, pairs) != down - size:
        raise AssertionError("inclusion-exclusion defect disagrees with |down-set| - |family|")
    return cmds


def balance_command(rng: random.Random, n: int, pairs, defect: int) -> dict:
    return _command("balance", json.dumps(system_obj(n, pairs)), 0 if defect == 0 else 2,
                    {"n": n, "members": len(pairs), "defect": defect}, rng.random() < 1 / 3)


def large_balance_command(rng: random.Random, n: int, k: int) -> dict:
    """`balance` on a k-member system; the defect comes from counting, not from 2^k terms."""
    pairs = sorted((s, s & rng.getrandbits(n)) for s in _antichain(rng, n, k, n // 2, n // 2))
    defect = len(oracle.down_set(n, [s for s, _ in pairs])) - len(oracle.family_of(n, pairs))
    return balance_command(rng, n, pairs, defect)


def tour(rng: random.Random) -> list[dict]:
    """A few small commands that reach every layer, so no layer's figures are empty."""
    cmds = pipeline_commands(rng, 6, True)
    cmds += algebra_commands(rng, 5, 3, 1)
    cmds.append(audit_command(rng, 3, 40, rng.getrandbits(32)))
    return cmds


def build(workload: str, seed: int) -> list[dict]:
    """One pass of the workload's corpus for this seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    cmds: list[dict] = []
    if workload == "extremal-pipeline":
        # mix the sizes through the pass
        slots = [(n, i >= other) for n, count, other in PIPELINE_SLOTS for i in range(count)]
        rng.shuffle(slots)
        for n, anchored in slots:
            cmds += pipeline_commands(rng, n, anchored)
    elif workload == "audit-sweep":
        cmds.append(audit_command(rng, 3, None, None))
        cmds.append(audit_command(rng, 4, None, None))
        seeds = rng.sample(range(1, 1 << 31), RANDOM_AUDITS)
        for i, audit_seed in enumerate(seeds):
            n = RANDOM_AUDIT_NS[i % len(RANDOM_AUDIT_NS)]
            count = RANDOM_AUDIT_COUNTS[i // len(RANDOM_AUDIT_NS) % len(RANDOM_AUDIT_COUNTS)]
            cmds.append(audit_command(rng, n, count, audit_seed))
    else:
        for i in range(ALGEBRA_SYSTEMS):
            cmds += algebra_commands(rng, 6 + i % 3, 2 + i % 5, 3)
        for k in BALANCE_MEMBERS:
            cmds.append(large_balance_command(rng, 8, k))
    return cmds + tour(rng)
