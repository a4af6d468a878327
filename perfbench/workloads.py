"""The three workloads: job decks, jobs run through the program's public
functions, and the known-answer checks on what the program returned.

A workload is a deck of job templates.  One pass runs every due template
once, in an order shuffled from the seed.  A template's size steps through
its short list from pass to pass, so consecutive passes never repeat a
presentation; the seed picks each job's generator names, words and Tietze
script.  The mix of work does not depend on the seed, and a run ends only
after whole cycles of passes (see run.py), so it does not depend on the
machine's speed either.

``execute`` is the timed part of a job: the program's calls and nothing
else.  ``check`` runs afterwards, untimed.  It turns the results into a
verdict, the exact counts taken at the public boundary, and a list of
failure causes; an empty list means every answer agreed with group theory.
"""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import groups as G

CAP = 10000  # the CLI's enumeration cap
EQ_MAX_RULES = 512  # the CLI's completion budget for `eq`
RADIUS = 4  # the CLI's search radius for `eq`

# Span names, one per public function the benchmark calls.
SPANS = (
    "presentations.parse",
    "rewriting.encode",
    "rewriting.complete",
    "rewriting.enumerate_normal_forms",
    "rewriting.word_equal",
    "rewriting.normalize",
    "tietze.run_script",
    "tietze.synthesize_witness",
    "model.boundary",
    "oracle.bfs_equal",
    "oracle.table_from_normal_forms",
    "oracle.closure_generates",
    "cayley.build_complex",
    "cayley.graph_invariants",
    "cayley.homology",
    "cayley.export",
    "cli.main",
)


@dataclass(frozen=True)
class Template:
    family: str
    sizes: tuple = (None,)
    mode: str = "lib"  # lib | t1 | cli-eq | cli-enumerate | cli-tietze | cli-complex
    truth: str = "seeded"  # equation truth: "seeded" coin, or "alternate" between runs of the template
    period: int = 1  # the template runs in every period-th pass

    def size(self, pass_no: int):
        """The size for a pass: the list is stepped through, one entry per run of the template."""
        return self.sizes[(pass_no // self.period) % len(self.sizes)]


@dataclass
class Job:
    seed: str
    template: Template
    family: str
    group: G.Group
    param: str
    text: str = ""
    u: G.Word = field(default_factory=list)
    v: G.Word = field(default_factory=list)
    equal: bool = True
    script: str | None = None
    argv: list[str] | None = None
    op: str = ""


@dataclass
class Outcome:
    verdict: dict
    decided: bool
    counts: Counter
    errors: list[str]


def _count_completion(counts: Counter, P, outcome) -> None:
    counts["rewriting.complete.calls"] += 1
    counts["rewriting.complete.rules_out"] += len(outcome.system.rules)
    if isinstance(outcome, P.rewriting.Converged):
        counts["rewriting.complete.converged"] += 1
    else:
        counts[f"rewriting.complete.gaveup.{outcome.reason}"] += 1


def _t1_script(rng: random.Random, group: G.Group) -> str:
    """Adjoin a fresh generator defined by the product of two distinct generators.

    Both letters are positive: with inverse letters, the cost of completing
    the rewired presentation swings by up to 2x with the signs alone.
    """
    first, second = rng.sample(range(len(group.gens)), 2)
    word = group.word_text([(first, 1), (second, 1)])
    name = next(n for n in G.fresh_names(rng, len(group.gens) + 1) if n not in group.gens)
    return f"T1 {name} := {word}\n"


def run_cli(P, argv: list[str]) -> tuple[int, bytes, str]:
    """``polygraph.cli.main`` in process, with stdout captured as bytes."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = P.cli.main(argv)
        out.flush()
    data = raw.getvalue()
    out.detach()
    return code, data, err.getvalue()


# ------------------------------------------------------------------ decide


class Decide:
    """Cold "answer this presentation" jobs, shaped like `polygraph eq` and
    `polygraph enumerate`: parse, optionally rewire by a T1 script, encode,
    complete under the CLI limits, enumerate if converged, and decide one
    seeded equation by normal forms or, when completion gave up, by search
    with a synthesized and boundary-checked witness."""

    name = "decide"
    setup_reps = 7
    deck = (
        Template("dihedral-power", (6, 8)),
        Template("dihedral-power", (10, 12), "t1"),
        Template("dihedral-power", (14, 18)),
        Template("dihedral-power", (20, 24), "t1"),
        Template("dihedral-power", (24, 28)),
        Template("dihedral-power", (30, 32)),
        Template("dihedral-balanced", (10, 14)),
        Template("dihedral-balanced", (20, 24), "t1"),
        Template("dihedral-balanced", (30, 34)),
        Template("dihedral-balanced", (40, 44)),
        Template("dihedral-balanced", (50, 54)),
        Template("abelian", ((2, 3), (3, 4))),
        Template("abelian", ((4, 6), (5, 5)), "t1"),
        Template("abelian", ((4, 6), (3, 8))),
        Template("abelian", ((6, 10), (8, 8))),
        Template("coxeter", (3,)),
        Template("coxeter", (4,)),
        Template("coxeter", (4,), "t1"),
        Template("A5"),
        Template("A5", mode="t1"),
        Template("Q8"),
        Template("Q8", mode="t1"),
        Template("ZxZ"),
        Template("ZxZ"),
        Template("Z2*Z3"),
        Template("Z2*Z3", mode="t1"),
        Template("b3", truth="alternate", period=2),
        Template("abelian", ((2, 3), (2, 5)), "cli-eq"),
        Template("coxeter", (4,), "cli-enumerate"),
        Template("dihedral-balanced", (6, 10), "cli-tietze"),
        Template("Q8", mode="cli-complex"),
    )

    def __init__(self, workdir: Path):
        self.plg = workdir / "job.plg"
        self.tz = workdir / "job.tz"

    def setup(self, P, T) -> Counter:
        return Counter()

    def make(self, template: Template, seed: str, pass_no: int) -> Job:
        rng = random.Random(seed)
        group = G.build(template.family, template.size(pass_no), rng)
        if template.truth == "alternate":
            equal = (pass_no // template.period) % 2 == 0
        else:
            equal = rng.random() < 0.5
        # b3 pairs are searched for; their length fixes the size of that search.
        length = 6 if group.rep is None else rng.randrange(6, 13)
        u, v = G.equation(rng, group, length, 4, equal)
        job = Job(seed, template, group.family, group, group.param, group.text(), u, v, equal)
        if template.mode in ("t1", "cli-tietze"):
            job.script = _t1_script(rng, group)
        if template.mode.startswith("cli-"):
            self.plg.write_text(job.text, encoding="utf-8")
            u_text, v_text = group.word_text(u), group.word_text(v)
            job.argv = {
                "cli-eq": ["eq", str(self.plg), u_text, v_text],
                "cli-enumerate": ["enumerate", str(self.plg)],
                "cli-tietze": ["tietze", str(self.plg), str(self.tz), "--check-order"],
                "cli-complex": ["cayley", "complex", str(self.plg), "--format", "json", "--homology"],
            }[template.mode]
            if job.script is not None:
                self.tz.write_text(job.script, encoding="utf-8")
        return job

    def execute(self, job: Job, P, T) -> dict:
        if job.argv is not None:
            code, out, err = T.call("cli.main", run_cli, P, job.argv)
            return {"code": code, "stdout": out, "stderr": err}
        r: dict = {}
        u_text, v_text = job.group.word_text(job.u), job.group.word_text(job.v)
        p = T.call("presentations.parse", P.presentations.parse, job.text)
        if job.script is not None:
            p = T.call("tietze.run_script", P.tietze.run_script, p, job.script)
        system = T.call("rewriting.encode", P.rewriting.encode, p)
        outcome = r["complete"] = T.call(
            "rewriting.complete", P.rewriting.complete, system, max_rules=EQ_MAX_RULES
        )
        if isinstance(outcome, P.rewriting.Converged):
            r["enumerate"] = T.call(
                "rewriting.enumerate_normal_forms",
                P.rewriting.enumerate_normal_forms, outcome.system, cap=CAP,
            )
            r["equal"] = T.call(
                "rewriting.word_equal", P.rewriting.word_equal, outcome.system, u_text, v_text
            )
            return r
        found = r["search"] = T.call("oracle.bfs_equal", P.oracle.bfs_equal, p, u_text, v_text, RADIUS)
        if isinstance(found, P.oracle.Equal):
            source, target = p.word(u_text), p.word(v_text)
            witness = r["witness"] = T.call(
                "tietze.synthesize_witness", P.tietze.synthesize_witness,
                p, source, target, radius=RADIUS,
            )
            if witness is not None:
                r["sphere"] = (source, target)
                r["boundary"] = T.call("model.boundary", P.model.boundary, p, witness)
        return r

    def check(self, job: Job, r: dict, P) -> Outcome:
        if job.argv is not None:
            return self._check_cli(job, r, P)
        counts: Counter = Counter()
        errors: list[str] = []
        group = job.group
        outcome = r["complete"]
        _count_completion(counts, P, outcome)
        verdict: dict = {}
        order_decided = equation_decided = False
        if isinstance(outcome, P.rewriting.Converged):
            listed = r["enumerate"]
            if isinstance(listed, P.rewriting.Finite):
                n = len(listed.words)
                counts["rewriting.enumerate_normal_forms.elements"] += n
                verdict["order"] = n
                if group.order is None:
                    errors.append("infinite group reported Finite")
                elif n != group.order:
                    errors.append(f"order {n}, expected {group.order}")
                else:
                    order_decided = True
            else:
                counts["rewriting.enumerate_normal_forms.elements"] += listed.found
                verdict["order"] = "more-than-cap"
                if group.order is not None:
                    errors.append(f"finite group of order {group.order} reported MoreThanCap")
            verdict["equation"] = "equal" if r["equal"] else "unequal"
            if r["equal"] != job.equal:
                errors.append(f"word_equal said {verdict['equation']}, truth is the opposite")
            else:
                equation_decided = True
        else:
            verdict["order"] = f"gave-up:{outcome.reason}"
            found = r["search"]
            counts["oracle.bfs_equal.calls"] += 1
            if isinstance(found, P.oracle.Equal):
                counts["oracle.bfs_equal.equal"] += 1
                verdict["equation"] = "equal"
                if not job.equal:
                    errors.append("search connected an unequal pair")
                else:
                    equation_decided = True
                counts["tietze.synthesize_witness.calls"] += 1
                if r["witness"] is not None:
                    counts["tietze.synthesize_witness.found"] += 1
                    if r["boundary"] != r["sphere"]:
                        errors.append("witness boundary differs from the equation")
            else:
                verdict["equation"] = "undecided"
        return Outcome(verdict, order_decided and equation_decided, counts, errors)

    def _check_cli(self, job: Job, r: dict, P) -> Outcome:
        counts: Counter = Counter()
        errors: list[str] = []
        code, out = r["code"], r["stdout"]
        if code not in (0, 1, 2, 3):
            errors.append(f"exit code {code!r} outside 0-3")
        else:
            counts[f"cli.main.exit.{code}"] += 1
        ref_code, ref_out = self._library_path(job, P)
        if out != ref_out:
            errors.append("stdout differs from the library path")
        if code != ref_code:
            errors.append(f"exit {code}, library path gives {ref_code}")
        group = job.group
        mode = job.template.mode
        verdict = {"exit": code}
        if code == 0:
            if mode == "cli-eq":
                said = out.decode().strip()
                verdict["equation"] = said
                if said != ("equal" if job.equal else "unequal"):
                    errors.append(f"eq said {said!r}, truth is {'equal' if job.equal else 'unequal'}")
            elif mode == "cli-enumerate":
                n = out.count(b"\n")
                verdict["order"] = n
                if n != group.order:
                    errors.append(f"enumerate listed {n} elements, expected {group.order}")
            elif mode == "cli-tietze":
                line = f"order before={group.order} after={group.order}"
                verdict["order"] = group.order if line in r["stderr"] else r["stderr"].strip()
                if line not in r["stderr"]:
                    errors.append(f"tietze --check-order did not report {line!r}")
            elif mode == "cli-complex":
                errors += _complex_export_errors(json.loads(out), group)
                verdict["homology"] = "checked"
        elif code in (1, 3):
            errors.append(f"exit {code} on a valid input")
        return Outcome(verdict, code == 0 and not errors, counts, errors)

    def _library_path(self, job: Job, P) -> tuple[int, bytes]:
        """What the CLI should print, rebuilt from the library's public calls."""
        rw = P.rewriting
        p = P.presentations.parse(job.text)
        mode = job.template.mode
        if mode == "cli-eq":
            outcome = rw.complete(rw.encode(p), max_rules=EQ_MAX_RULES)
            u_text, v_text = job.group.word_text(job.u), job.group.word_text(job.v)
            if isinstance(outcome, rw.Converged):
                equal = rw.word_equal(outcome.system, u_text, v_text)
                return 0, b"equal\n" if equal else b"unequal\n"
            if isinstance(P.oracle.bfs_equal(p, u_text, v_text, RADIUS), P.oracle.Equal):
                return 0, b"equal\n"
            return 2, b"undecided\n"
        if mode == "cli-tietze":
            after = P.tietze.run_script(p, job.script)
            text = P.presentations.render(after)
            orders = [_library_order(P, q) for q in (p, after)]
            code = 2 if None in orders else (0 if orders[0] == orders[1] else 3)
            return code, (text if text.endswith("\n") else text + "\n").encode()
        outcome = rw.complete(rw.encode(p))
        if not isinstance(outcome, rw.Converged):
            return 2, b""
        if mode == "cli-enumerate":
            listed = rw.enumerate_normal_forms(outcome.system, cap=CAP)
            if not isinstance(listed, rw.Finite):
                return 2, b""
            return 0, "".join(w + "\n" for w in listed.words).encode()
        complex_ = P.cayley.build_complex(p, outcome.system)
        data = P.cayley.to_jsonable(complex_)
        h = P.cayley.homology(complex_)
        data["homology"] = {
            "h0_rank": h.h0_rank,
            "h1_rank": h.h1_rank,
            "h1_torsion": list(h.h1_torsion),
            "euler": h.euler,
        }
        return 0, P.cayley.dump_json(data)


def _library_order(P, p) -> int | None:
    rw = P.rewriting
    outcome = rw.complete(rw.encode(p))
    if not isinstance(outcome, rw.Converged):
        return None
    listed = rw.enumerate_normal_forms(outcome.system, cap=CAP)
    return len(listed.words) if isinstance(listed, rw.Finite) else None


def _complex_export_errors(data: dict, group: G.Group) -> list[str]:
    n, g, r = group.order, len(group.gens), len(group.rels)
    errors = []
    shape = (len(data["vertices"]), len(data["edges"]), len(data["faces"]))
    if shape != (n, n * g, n * r):
        errors.append(f"complex has V,E,F = {shape}, expected {(n, n * g, n * r)}")
    h = data["homology"]
    expected = {"h0_rank": 1, "h1_rank": 0, "h1_torsion": [], "euler": n * (1 - g + r)}
    if h != expected:
        errors.append(f"homology {h}, expected {expected}")
    return errors


# ------------------------------------------------------------------ structure


class Structure:
    """Finite groups studied whole: complete a cheap presentation, build the
    Cayley complex, take its graph invariants and homology, export it as
    json and dot, build the multiplication table and check that the
    generators generate."""

    name = "structure"
    setup_reps = 7
    deck = (
        Template("dihedral-balanced", (4, 5, 6)),
        Template("dihedral-balanced", (8, 9, 10)),
        Template("dihedral-balanced", (12, 13, 14)),
        Template("dihedral-balanced", (16, 17, 18)),
        Template("dihedral-balanced", (20, 21, 22)),
        Template("dihedral-balanced", (24, 25, 26)),
        Template("dihedral-balanced", (28, 29, 30)),
        Template("abelian", ((2, 3), (2, 4), (3, 3))),
        Template("abelian", ((3, 4), (2, 6), (4, 4))),
        Template("abelian", ((4, 6), (5, 5), (3, 8))),
        Template("abelian", ((5, 7), (6, 6), (4, 9))),
        Template("abelian", ((6, 8), (7, 7), (5, 10))),
        Template("abelian", ((7, 8), (6, 9), (5, 11))),
        Template("coxeter", (3,)),
        Template("coxeter", (4,)),
        Template("coxeter", (4,)),
        Template("A5"),
        Template("A5"),
        Template("Q8"),
        Template("Q8"),
    )

    def setup(self, P, T) -> Counter:
        return Counter()

    def make(self, template: Template, seed: str, pass_no: int) -> Job:
        rng = random.Random(seed)
        group = G.build(template.family, template.size(pass_no), rng)
        return Job(seed, template, group.family, group, group.param, group.text())

    def execute(self, job: Job, P, T) -> dict:
        r: dict = {}
        p = T.call("presentations.parse", P.presentations.parse, job.text)
        system = T.call("rewriting.encode", P.rewriting.encode, p)
        outcome = r["complete"] = T.call("rewriting.complete", P.rewriting.complete, system)
        if not isinstance(outcome, P.rewriting.Converged):
            return r
        system = outcome.system
        c = r["complex"] = T.call("cayley.build_complex", P.cayley.build_complex, p, system)
        r["invariants"] = T.call("cayley.graph_invariants", P.cayley.graph_invariants, c.graph)
        r["homology"] = T.call("cayley.homology", P.cayley.homology, c)
        r["json"] = T.call("cayley.export", P.cayley.export, c, "json")
        r["dot"] = T.call("cayley.export", P.cayley.export, c, "dot")
        table = r["table"] = T.call(
            "oracle.table_from_normal_forms", P.oracle.table_from_normal_forms, system
        )
        r["gen_nfs"] = [T.call("rewriting.normalize", P.rewriting.normalize, system, g) for g in p.gens]
        indices = [c.graph.vertices.index(nf) for nf in r["gen_nfs"]]
        r["generates"] = T.call("oracle.closure_generates", P.oracle.closure_generates, table, indices)
        return r

    def check(self, job: Job, r: dict, P) -> Outcome:
        counts: Counter = Counter()
        errors: list[str] = []
        outcome = r["complete"]
        _count_completion(counts, P, outcome)
        if not isinstance(outcome, P.rewriting.Converged):
            return Outcome({"order": f"gave-up:{outcome.reason}"}, False, counts, errors)
        group = job.group
        n, g, rels = group.order, len(group.gens), len(group.rels)
        c, h, inv, table = r["complex"], r["homology"], r["invariants"], r["table"]
        v, e, f = len(c.graph.vertices), len(c.graph.edges), len(c.faces)
        counts["cayley.build_complex.cells"] += v + e + f
        counts["cayley.homology.matrix_entries"] += v * e + e * f
        counts["cayley.export.bytes_out"] += len(r["json"]) + len(r["dot"])
        counts["oracle.table_from_normal_forms.cells"] += table.size * table.size
        counts["rewriting.normalize.letters_in"] += len(r["gen_nfs"])
        if (v, e, f) != (n, n * g, n * rels):
            errors.append(f"complex has V,E,F = {(v, e, f)}, expected {(n, n * g, n * rels)}")
        if not inv.connected or (inv.vertices, inv.edges) != (v, e):
            errors.append("graph invariants: not connected or wrong counts")
        found = (h.h0_rank, h.h1_rank, tuple(h.h1_torsion), h.euler)
        if found != (1, 0, (), n * (1 - g + rels)):
            errors.append(f"homology (H0, H1, torsion, euler) = {found}, expected {(1, 0, (), n * (1 - g + rels))}")
        if table.size != n:
            errors.append(f"table size {table.size}, expected {n}")
        if not r["generates"]:
            errors.append("closure_generates: generators do not generate")
        errors += _graph_errors(job.group, c, table)
        exported = json.loads(r["json"])
        if (len(exported["vertices"]), len(exported["edges"]), len(exported["faces"])) != (v, e, f):
            errors.append("json export does not hold the complex")
        if r["dot"].count(b"\n") != v + e + 2:
            errors.append("dot export does not hold the graph")
        verdict = {"order": v, "h1": [h.h1_rank, list(h.h1_torsion)], "table": table.size}
        return Outcome(verdict, not errors, counts, errors)


def _parse_text(group: G.Group, text: str) -> G.Word:
    index = {name: i for i, name in enumerate(group.gens)}
    if text == "1":
        return []
    return [
        (index[t[:-1]], -1) if t.endswith("'") else (index[t], 1) for t in text.split()
    ]


def _graph_errors(group: G.Group, c, table) -> list[str]:
    """Vertices, edges and table entries checked through the faithful representation."""
    rep = group.rep
    elements = [group.element(_parse_text(group, w)) for w in c.graph.vertices]
    if len(set(elements)) != len(elements):
        return ["two vertices are the same group element"]
    gen_images = {name: rep.images[i] for i, name in enumerate(group.gens)}
    for edge in c.graph.edges:
        if rep.mul(elements[edge.src], gen_images[edge.gen]) != elements[edge.dst]:
            return [f"edge {edge} does not multiply by its generator"]
    for i, row in enumerate(table.table):
        for j, k in enumerate(row):
            if rep.mul(elements[i], elements[j]) != elements[k]:
                return [f"table[{i}][{j}] = {k} is not the product"]
    return []


# ------------------------------------------------------------------ word-problem


class WordProblem:
    """Warm queries against systems completed once at set-up: a seeded
    stream of `word_equal` and `normalize` calls on long words."""

    name = "word-problem"
    setup_reps = 3
    systems = (
        ("D100", "dihedral-balanced", 100),
        ("A5", "A5", None),
        ("S4", "coxeter", 4),
        ("Z12xZ12", "abelian", (12, 12)),
        ("ZxZ", "ZxZ", None),
        ("Z2*Z3", "Z2*Z3", None),
    )
    deck = tuple(
        Template(name, (length,), op)
        for name, _, _ in systems
        for op in ("normalize", "word_equal")
        for length in (100, 400, 1600)
    )

    def __init__(self):
        self.groups: dict[str, G.Group] = {}
        self.completed: dict = {}

    def setup(self, P, T) -> Counter:
        """Complete every system once; this is the set-up time users pay."""
        counts: Counter = Counter()
        rng = random.Random("word-problem systems")
        for name, family, size in self.systems:
            group = self.groups[name] = G.build(family, size, rng)
            p = T.call("presentations.parse", P.presentations.parse, group.text())
            system = T.call("rewriting.encode", P.rewriting.encode, p)
            outcome = T.call("rewriting.complete", P.rewriting.complete, system)
            _count_completion(counts, P, outcome)
            if not isinstance(outcome, P.rewriting.Converged):
                raise RuntimeError(f"set-up: completion of {name} gave up ({outcome.reason})")
            self.completed[name] = outcome.system
        return counts

    def make(self, template: Template, seed: str, pass_no: int) -> Job:
        rng = random.Random(seed)
        group = self.groups[template.family]
        length = template.sizes[0]
        equal = rng.random() < 0.5
        u, v = G.equation(rng, group, length, length // 5, equal)
        return Job(seed, template, template.family, group, str(length),
                   u=u, v=v, equal=equal, op=template.mode)

    def execute(self, job: Job, P, T) -> dict:
        system = self.completed[job.template.family]
        u_text = job.group.word_text(job.u)
        if job.op == "normalize":
            return {"nf": T.call("rewriting.normalize", P.rewriting.normalize, system, u_text)}
        v_text = job.group.word_text(job.v)
        return {"equal": T.call("rewriting.word_equal", P.rewriting.word_equal, system, u_text, v_text)}

    def check(self, job: Job, r: dict, P) -> Outcome:
        counts: Counter = Counter()
        errors: list[str] = []
        group = job.group
        if job.op == "normalize":
            counts["rewriting.normalize.letters_in"] += len(job.u)
            nf = r["nf"]
            if group.element(_parse_text(group, nf)) != group.element(job.u):
                errors.append("normal form is a different group element")
            verdict = {"nf_letters": 0 if nf == "1" else len(nf.split())}
        else:
            counts["rewriting.word_equal.letters_in"] += len(job.u) + len(job.v)
            verdict = {"equation": "equal" if r["equal"] else "unequal"}
            if r["equal"] != job.equal:
                errors.append(f"word_equal said {verdict['equation']}, truth is the opposite")
        return Outcome(verdict, not errors, counts, errors)
