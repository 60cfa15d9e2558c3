"""The benchmark's three workloads: inputs, operations and checks.

A workload builds its inputs from the seed when it is constructed (that is
part of set-up), hands out rounds of operations of a fixed make-up, runs one
operation while the caller times it, and checks the output afterwards.  The
checks rest on the paper's statements or on the naive `arq2d.oracle`, never
on stored copies of the engine's output, and they run outside the timed
region.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import arq2d.cli
from arq2d import closure, homs, oracle, ortho
from arq2d.model import (
    Euclid,
    Params,
    Tube,
    canonical,
    format_vertex,
    is_brick_candidate,
    omega,
    omega_inv,
    parse_vertex,
)

Op = collections.namedtuple("Op", "kind P args")


def seeded(name: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (name, seed))


def src_env(root) -> dict:
    """The environment for a fresh interpreter that imports arq2d from the
    checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def part(v) -> str:
    """Component part of a vertex, written out here rather than borrowed
    from homs so the checks do not lean on the code they check."""
    if isinstance(v, Euclid):
        return "e%d" % v.comp
    return "%s%d" % ("u" if v.family == "U" else "p", v.level)


def anchor_window(P: Params, anchor: Euclid) -> oracle.WindowSpec:
    """A window that holds every representative of biperp({anchor}): the
    Euclidean part of that bi-perp lies within one period of the anchor in
    each direction, and tube bricks stop at height rank-2."""
    return oracle.WindowSpec(P, anchor.x - P.p, anchor.x + P.p,
                             anchor.y - P.q, anchor.y + P.q,
                             max(P.p, P.q) - 1)


def has_sms_shape(S, P: Params) -> bool:
    """p+q members: k on each Euclidean component, q-k U-tube and p-k P-tube
    members (the cardinality statements of the paper)."""
    parts = collections.Counter(
        part(v) if isinstance(v, Euclid) else v.family.lower() for v in S)
    k = parts["e0"]
    return (len(S) == P.p + P.q and parts["e1"] == k
            and parts["u"] == P.q - k and parts["p"] == P.p - k)


def pairwise_orthogonal(S, P: Params) -> bool:
    S = list(S)
    return all(oracle.mutually_orthogonal(a, b, P)
               for i, a in enumerate(S) for b in S[i + 1:])


class Workload:
    name = ""
    in_process = True  # False where each operation is a child process

    def round(self) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> bool:
        raise NotImplementedError

    def facts(self, op: Op, out) -> dict:
        """What a traced run keeps of an output once it is checked."""
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# certify: closure-based certification of maximal and punctured systems

CERTIFY_PARAMS = ((2, 3), (3, 3), (3, 4))
CERTIFY_ANCHOR = Euclid(0, 1, 0)
# One round: (p,q), kind, count.  Maximal systems certify, punctured ones
# (one member dropped) come back inconclusive after a smaller closure.  On a
# 2-core machine a punctured (2,3) system takes about 0.5 s, a maximal (2,3)
# one 1 s, and the dear four 1.2 to 4.4 s; a round takes about 18 s, so a
# 30-second run is two rounds, or three on a fast machine.  An operation's
# time varies by about 10% from one repetition to the next through garbage
# collection alone, so the median needs a large group of alike operations
# around it: two rounds draw all 14 maximal (2,3) systems, which sit between
# six cheaper and eight dearer operations, and every run's median is taken
# over that same group.  At (3,3) and (3,4) the draws keep to the commonest
# box area, which fixes the catalog size and so the peak memory.
CERTIFY_ROUND = (
    ((2, 3), "punctured", 3), ((2, 3), "maximal", 7),
    ((3, 3), "punctured", 1), ((3, 3), "maximal", 1),
    ((3, 4), "punctured", 1), ((3, 4), "maximal", 1),
)


def box_area(S, P: Params) -> int:
    """Area of the box around the canonical Euclidean representatives of
    S's members and of their images under Omega and its inverse.  The
    closure's default window pads this box, and its triangle catalog grows
    with the window's area."""
    pts = [u for v in S for u in (canonical(v, P), omega(v, P),
                                  omega_inv(v, P)) if isinstance(u, Euclid)]
    xs = [u.x for u in pts]
    ys = [u.y for u in pts]
    return (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)


def commonest_box(systems, P: Params) -> list:
    """The systems whose box area is the commonest among them."""
    areas = collections.Counter(box_area(S, P) for S in systems)
    area = max(sorted(areas), key=areas.__getitem__)
    return [S for S in systems if box_area(S, P) == area]


class Certify(Workload):
    name = "certify"

    def __init__(self, seed: int, root):
        self.rng = seeded(self.name, seed)
        self.systems = {}
        self.order = {}
        for pq in CERTIFY_PARAMS:
            P = Params(*pq)
            systems = ortho.maximal_systems_containing([CERTIFY_ANCHOR], P)
            if pq != (2, 3):
                systems = commonest_box(systems, P)
            self.systems[pq] = (P, systems)
        for pq, kind, _ in CERTIFY_ROUND:
            order = list(range(len(self.systems[pq][1])))
            self.rng.shuffle(order)
            self.order[pq, kind] = order
        self.drawn = collections.Counter()

    def round(self):
        ops = []
        for pq, kind, count in CERTIFY_ROUND:
            P, systems = self.systems[pq]
            order = self.order[pq, kind]
            for _ in range(count):
                S = systems[order[self.drawn[pq, kind] % len(order)]]
                self.drawn[pq, kind] += 1
                if kind == "maximal":
                    ops.append(Op(kind, P, (S, None)))
                else:
                    drop = self.rng.randrange(len(S))
                    ops.append(Op(kind, P, (S[:drop] + S[drop + 1:], S[drop])))
        return ops

    def run(self, op):
        S = op.args[0]
        doc = closure.certify_sms(S, op.P)
        return doc, closure.replay_trace(S, doc["trace"], op.P)

    def facts(self, op, out):
        doc = out[0]
        return {"certified": doc["certified"], "derived": doc["derived"],
                "steps": len(doc["trace"])}

    def check(self, op, out):
        doc, replayed = out
        S, dropped = op.args
        P = op.P
        if len(replayed) != doc["derived"]:
            return False
        if op.kind == "maximal":
            members = {canonical(v, P) for v in S}
            return (doc["certified"] and pairwise_orthogonal(S, P)
                    and all(omega_inv(v, P) in replayed for v in members))
        # the dropped member is a witness that the rest is not maximal, so
        # the rest cannot be a simple-minded system
        return (not doc["certified"]
                and all(oracle.mutually_orthogonal(dropped, v, P) for v in S))


# ---------------------------------------------------------------------------
# explore: closure-free enumeration, maximality and parameter extraction

EXPLORE_PARAMS = ((4, 4), (4, 5), (5, 5))
SYSTEMS_PER_ROUND = 3  # per (p,q), after one anchored enumeration


class Explore(Workload):
    name = "explore"

    def __init__(self, seed: int, root):
        rng = seeded(self.name, seed)
        self.cases = {}
        for pq in EXPLORE_PARAMS:
            P = Params(*pq)
            anchor = canonical(Euclid(0, rng.randrange(-3, 4),
                                      rng.randrange(P.q)), P)
            systems = ortho.maximal_systems_containing([anchor], P)
            order = list(range(len(systems)))
            rng.shuffle(order)
            self.cases[pq] = (P, anchor, systems, order)
        self.drawn = collections.Counter()
        self.verified: dict = {}

    def round(self):
        ops = []
        for pq in EXPLORE_PARAMS:
            P, anchor, systems, order = self.cases[pq]
            ops.append(Op("anchored", P, (pq, anchor)))
            for _ in range(SYSTEMS_PER_ROUND):
                S = systems[order[self.drawn[pq] % len(order)]]
                self.drawn[pq] += 1
                ops.append(Op("system", P, (pq, S)))
        return ops

    def run(self, op):
        P = op.P
        if op.kind == "anchored":
            return ortho.maximal_systems_containing([op.args[1]], P)
        S = op.args[1]
        rest = [v for v in S if not (isinstance(v, Euclid) and v.comp == 1)]
        return (ortho.is_orthogonal_system(S, P),
                ortho.maximality(S, P).is_maximal,
                [ortho.maximality(S[:i] + S[i + 1:], P).is_maximal
                 for i in range(len(S))],
                closure.extract_params(S, P),
                homs.biperp(rest, P))

    def _enumeration_ok(self, pq) -> bool:
        """Every enumerated system through the anchor has the paper's shape,
        is pairwise orthogonal and has no brick witness, by the oracle."""
        if pq not in self.verified:
            P, anchor, systems, _ = self.cases[pq]
            # Every other member, and every witness, is a brick orthogonal to
            # the anchor.  The oracle's verdicts on those pairs go into
            # bitsets so thousands of systems can be checked quickly.
            pool = [anchor] + [
                v for v in anchor_window(P, anchor).vertices()
                if is_brick_candidate(v, P) and v != anchor
                and oracle.mutually_orthogonal(v, anchor, P)]
            index = {v: i for i, v in enumerate(pool)}
            compatible = [sum(1 << j for j, u in enumerate(pool)
                              if j == i or oracle.mutually_orthogonal(v, u, P))
                          for i, v in enumerate(pool)]

            def verified(S) -> bool:
                if anchor not in S or not has_sms_shape(S, P):
                    return False
                if any(v not in index for v in S):
                    return False
                mask = sum(1 << index[v] for v in S)
                if any(mask & ~compatible[index[v]] for v in S):
                    return False  # two members with a nonzero Hom
                return not any(mask & ~compatible[i] == 0 and not mask >> i & 1
                               for i in range(len(pool)))  # a witness

            distinct = {tuple(S) for S in systems}
            self.verified[pq] = (len(distinct) == len(systems)
                                 and all(verified(S) for S in systems))
        return self.verified[pq]

    def check(self, op, out):
        P = op.P
        pq = op.args[0]
        if op.kind == "anchored":
            return out == self.cases[pq][2] and self._enumeration_ok(pq)
        S = op.args[1]
        is_ortho, is_max, punctured_max, params, report = out
        if not (is_ortho and is_max and not any(punctured_max)):
            return False
        if not (has_sms_shape(S, P) and pairwise_orthogonal(S, P)):
            return False
        window = anchor_window(P, self.cases[pq][1])
        if any(is_brick_candidate(v, P) and v not in S
               for v in oracle.brute_biperp(S, window)):
            return False
        comp1 = sorted(format_vertex(v) for v in S
                       if isinstance(v, Euclid) and v.comp == 1)
        if sorted(format_vertex(v) for v in params["predictedComp1"]) != comp1:
            return False
        rest = [v for v in S if not (isinstance(v, Euclid) and v.comp == 1)]
        inside = set(oracle.brute_biperp(rest, window))
        return all(report.contains(v) == (v in inside)
                   for v in window.vertices())


# ---------------------------------------------------------------------------
# cli: fresh-interpreter runs of the light subcommands

CLI_COMMANDS = ("classify", "algebra", "supports", "biperp", "enumerate-max",
                "render")
CLI_VARIANTS = 4  # distinct seeded argument lists per subcommand
CLI_PARAMS = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3))
CLI_ENUMERATE_PARAMS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4))


def four_cycle(rng: random.Random) -> dict:
    """The 4-cycle Brauer graph with multiplicity 1 everywhere, under a
    seeded relabelling: names, list order, edge orientation and the starting
    point of each cyclic order change; the ribbon graph does not."""
    names = rng.sample(range(100, 1000), 8)
    vs = ["v%d" % n for n in names[:4]]
    es = ["e%d" % n for n in names[4:]]
    ends = [[vs[i], vs[(i + 1) % 4]] for i in range(4)]
    # rotation at vertex i: (edge i, slot 0) then (edge i-1, slot 1)
    rotation = {vs[i]: [[i, 0], [(i - 1) % 4, 1]] for i in range(4)}
    flipped = [rng.random() < 0.5 for _ in range(4)]
    for i in range(4):
        if flipped[i]:
            ends[i].reverse()
    doc_rotation = {}
    for v, slots in rotation.items():
        cyc = [{"edge": es[e], "slot": 1 - s if flipped[e] else s}
               for e, s in slots]
        k = rng.randrange(len(cyc))
        doc_rotation[v] = cyc[k:] + cyc[:k]
    vertices = [{"id": v, "multiplicity": 1} for v in vs]
    edges = [{"id": es[i], "ends": ends[i]} for i in range(4)]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return {"vertices": vertices, "edges": edges, "rotation": doc_rotation}


def random_vertex(rng: random.Random, P: Params, tubes: bool = True):
    if tubes and rng.random() < 0.5:
        family = rng.choice("UP")
        return Tube(family, rng.randrange(2), rng.randrange(-3, 4),
                    rng.randrange(P.rank(family) + 1))
    return Euclid(rng.randrange(2), rng.randrange(-4, 5), rng.randrange(-4, 5))


class Cli(Workload):
    name = "cli"

    def __init__(self, seed: int, root, in_process: bool = False):
        rng = seeded(self.name, seed)
        self.root = root
        self.in_process = in_process
        self.workdir = os.path.join(root, ".bench_work",
                                    "cli-%d" % os.getpid())
        os.makedirs(self.workdir, exist_ok=True)
        self.env = src_env(root)
        self.variants = {c: [] for c in CLI_COMMANDS}
        for i in range(CLI_VARIANTS):
            path = os.path.join(self.workdir, "graph-%d.json" % i)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(four_cycle(rng), fh)
            self.variants["classify"].append(["classify", path])
            self.variants["algebra"].append(
                ["algebra", path, "--emit", "json"])

            P = Params(*rng.choice(CLI_PARAMS))
            members = [random_vertex(rng, P) for _ in range(rng.randrange(1, 3))]
            self.variants["supports"].append(
                ["supports", *self._pq(P), "--set",
                 ";".join(format_vertex(v) for v in members)])

            P = Params(*rng.choice(CLI_PARAMS))
            seed_set = [random_vertex(rng, P, tubes=False)]
            extra = random_vertex(rng, P)
            if oracle.mutually_orthogonal(seed_set[0], extra, P):
                seed_set.append(extra)
            self.variants["biperp"].append(
                ["biperp", *self._pq(P), "--set",
                 json.dumps([format_vertex(v) for v in seed_set])])

            P = Params(*rng.choice(CLI_ENUMERATE_PARAMS))
            anchor = random_vertex(rng, P, tubes=False)
            self.variants["enumerate-max"].append(
                ["enumerate-max", *self._pq(P), "--set", format_vertex(anchor)])

            P = Params(*rng.choice(CLI_PARAMS))
            which = rng.choice(("e0", "e1", "u0", "u1", "p0", "p1"))
            argv = ["render", which, *self._pq(P), "--emit", "svg"]
            if rng.random() < 0.5:
                if which[0] == "e":
                    mark = Euclid(int(which[1]), 0, rng.randrange(P.q))
                else:
                    family = which[0].upper()
                    mark = Tube(family, int(which[1]),
                                rng.randrange(P.rank(family)), 0)
                argv += ["--set", format_vertex(mark)]
            self.variants["render"].append(argv)
        self.rounds = 0
        self.expected: dict = {}

    @staticmethod
    def _pq(P: Params) -> list[str]:
        return ["--p", str(P.p), "--q", str(P.q)]

    def round(self):
        i = self.rounds % CLI_VARIANTS
        self.rounds += 1
        return [Op(c, None, tuple(self.variants[c][i])) for c in CLI_COMMANDS]

    def run(self, op):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = arq2d.cli.main(list(op.args))
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "arq2d.cli", *op.args], cwd=self.root,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=60)
        return proc.returncode, proc.stdout.decode("utf-8")

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    @staticmethod
    def _option(argv, name):
        return argv[argv.index(name) + 1]

    def _params(self, argv) -> Params:
        return Params(int(self._option(argv, "--p")),
                      int(self._option(argv, "--q")))

    def _expected(self, argv):
        """The oracle's answer for an argument list, computed once."""
        key = tuple(argv)
        if key in self.expected:
            return self.expected[key]
        P = self._params(argv)
        members = [canonical(parse_vertex(s), P) for s in
                   self._vertex_names(self._option(argv, "--set"))]
        if argv[0] == "biperp":
            want = {name: [] for name in ("e0", "e1", "u0", "u1", "p0", "p1")}
            for v in oracle.brute_biperp(members,
                                         oracle.WindowSpec.periods(P, 2)):
                want[part(v)].append(format_vertex(v))
            value = {k: sorted(v) for k, v in want.items()}
        else:  # enumerate-max
            rep = oracle.exhaustive_max_ortho(P, members[0])
            value = (rep["count"],
                     sorted(sorted(format_vertex(v) for v in s)
                            for s in rep["systems"]))
        self.expected[key] = value
        return value

    @staticmethod
    def _vertex_names(text: str) -> list[str]:
        if text.startswith("["):
            return json.loads(text)
        return [s for s in text.split(";") if s.strip()]

    def check(self, op, out):
        code, text = out
        if code != 0:
            return False
        argv = list(op.args)
        if op.kind == "render":
            ET.fromstring(text)
            return True
        doc = json.loads(text)
        if op.kind == "classify":
            return (doc.get("tag") == "TwoDomestic"
                    and (doc.get("p"), doc.get("q")) == (2, 2))
        if op.kind == "algebra":
            # one quiver vertex per edge, one arrow per half-edge successor
            return len(doc["vertices"]) == 4 and len(doc["arrows"]) == 8
        if op.kind == "supports":
            P = self._params(argv)
            names = self._vertex_names(self._option(argv, "--set"))
            want = [format_vertex(canonical(parse_vertex(s), P))
                    for s in names]
            return [row["vertex"] for row in doc] == want
        if op.kind == "biperp":
            got = {k: sorted(v) for k, v in doc["windowMembers"].items()}
            return got == self._expected(argv)
        count, systems = self._expected(argv)
        got = sorted(sorted(s) for s in doc["systems"])
        return doc["count"] == count and got == systems


WORKLOADS = {"certify": Certify, "explore": Explore, "cli": Cli}
