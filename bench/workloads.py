"""The four benchmark workloads.

Each workload generates its inputs from the seed in ``setup`` (timed and
repeated by the runner), builds its op schedule and oracle state in
``prepare`` (untimed), and runs one op at a time in ``run``, which returns
the op's latency and a verdict: "ok", "known" for the documented known
defect, or the reason the output is wrong.  The program sees only the
generated documents and argument lists.

A workload's schedule is a fixed sequence of rounds; every round has the
same mix of kinds and sizes, so any prefix of the schedule has the same
make-up, and a run that stops mid-way measures the same mix as one that
does not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import docgen
import oracles


def _grid(lo, hi, count):
    return [round(lo + (hi - lo) * i / (count - 1)) for i in range(count)]


def _log_grid(lo, hi, count):
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


class Workload:
    name = ""
    rusage = resource.RUSAGE_SELF
    importtime = False  # cli_cold: run subprocesses with -X importtime
    output_bytes = 0  # bytes cli.main printed in this process

    def __init__(self, seed, workdir, lib):
        self.seed = seed
        self.workdir = workdir
        self.lib = lib  # namespace of catgeo modules
        self.models = {}
        self.schedule = []
        self._verified = {}

    def write(self, model):
        path = os.path.join(self.workdir, model.label + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(model.text())
        self.models[model.label] = model
        return path

    def path(self, label):
        return os.path.join(self.workdir, label + ".json")

    def counts(self) -> dict:
        return docgen.counts(self.models.values())

    def peak_rss_mb(self) -> float:
        return resource.getrusage(self.rusage).ru_maxrss / 1024.0

    def verdict(self, key, outputs, check):
        """Check outputs with the oracle once per distinct output, then by digest."""
        digest = hashlib.sha1(repr(outputs).encode("utf-8", "surrogatepass")).digest()
        cached = self._verified.get(key)
        if cached is not None and cached[0] == digest:
            return cached[1]
        verdict = check() or "ok"
        self._verified[key] = (digest, verdict)
        return verdict


class InProcessCli(Workload):
    """Runs ``catgeo.cli.main`` in this process with stdout and stderr captured."""

    def cli(self, api, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = api.cli_main(argv)
            except SystemExit as exc:
                rc = exc.code
            elapsed = perf_counter() - start
        stdout = out.getvalue()
        self.output_bytes += len(stdout.encode("utf-8"))
        return elapsed, (rc, stdout, err.getvalue())

    def model_of(self, path):
        return self.models[os.path.basename(path)[:-5]]

    def run_commands(self, api, path, commands):
        """Run ((command, *flags), checker) pairs on one document as one op."""
        model = self.model_of(path)
        total, results = 0.0, []
        for (command, *flags), _ in commands:
            elapsed, result = self.cli(api, [command, path, *flags])
            total += elapsed
            results.append(result)
        if model.defect:
            return total, self.verdict(model.label, results, lambda: oracles.check_collision(results))

        def check():
            for (_, checker), result in zip(commands, results):
                reason = checker(model, *result)
                if reason:
                    return "%s: %s" % (model.label, reason)
            return None

        return total, self.verdict(model.label, results, check)


class Structure(InProcessCli):
    """validate, basis --json, norms --json and dot on one document per op.

    Builders, ``validate_axioms`` and JSON parsing do the work; no command
    here calls into ``geometry``.  One op in 25 is the thin id-collision
    reproducer, a documented known defect.
    """

    name = "structure"
    members = 24  # 96 documents and 4 reproducer ops: a 100-op schedule
    collision_every = 25

    def setup(self):
        rng = random.Random("structure-%d" % self.seed)
        m = self.members
        self.kinds = {"chain": [], "dag": [], "free": [], "explicit": []}
        for i, n in enumerate(_grid(14, 30, m)):
            self.kinds["chain"].append(self.write(docgen.chain(rng, "chain-%d" % i, n)))
        objects = _grid(30, 60, m)
        rng.shuffle(objects)
        for i, target in enumerate(_grid(100, 420, m)):
            self.kinds["dag"].append(self.write(docgen.thin_dag(rng, "dag-%d" % i, objects[i], target)))
        for i, target in enumerate(_grid(60, 300, m)):
            self.kinds["free"].append(self.write(docgen.free_stages(rng, "free-%d" % i, (6, 8), target)))
        for i, target in enumerate(_grid(60, 240, m)):
            label = "explicit-%d" % i
            if i % 3 == 2:
                model = docgen.planted(rng, docgen.free_stages(rng, label, (4, 7), target), label)
            elif i % 3 == 1:
                model = docgen.explicit(rng, docgen.free_stages(rng, label, (4, 7), target), label)
            else:
                model = docgen.explicit(rng, docgen.thin_dag(rng, label, 16 + i, target), label)
            self.kinds["explicit"].append(self.write(model))
        self.collision = self.write(docgen.collision())

    def prepare(self):
        rng = random.Random("structure-schedule-%d" % self.seed)
        ops = []
        for r in range(self.members):
            batch = [paths[r] for paths in self.kinds.values()]
            rng.shuffle(batch)
            for path in batch:
                if len(ops) % self.collision_every == 0:
                    ops.append(self.collision)
                ops.append(path)
        self.schedule = ops

    def run(self, path, api):
        return self.run_commands(api, path, oracles.STRUCTURE_COMMANDS)


class Products(InProcessCli):
    """The law survey: clifford --json per category, plus table --json on small ones.

    ``geometry.clifford_report`` dominates; the table's JSON output weights
    ``cli``.  Sizes are log-spaced so that a run covers small and large
    categories in a fixed proportion.
    """

    name = "products"
    strata = 9
    members = 12
    table_max_arrows = 50

    def setup(self):
        rng = random.Random("products-%d" % self.seed)
        self.rounds = [[] for _ in range(self.members)]
        # every category gets its own size, so the latency distribution has no steps
        targets = _log_grid(20, 120, self.strata * self.members)
        for s in range(self.strata):
            for i in range(self.members):
                label = "cat-%d-%d" % (s, i)
                target = targets[s * self.members + i]
                kind = ("dag", "free", "explicit", "chain")[(i + s) % 4]
                if kind == "chain":
                    model = docgen.chain(rng, label, max(2, round((math.sqrt(8 * target + 1) - 1) / 2)))
                elif kind == "free" or (kind == "explicit" and i % 2 == 0):
                    model = docgen.free_stages(rng, label, (2, 8), target)
                else:
                    n = max(4, round(math.sqrt(2 * target)) + rng.randint(1, 6))
                    model = docgen.thin_dag(rng, label, n, target)
                if kind == "explicit":
                    model = docgen.explicit(rng, model, label)
                self.rounds[i].append(self.write(model))

    def prepare(self):
        rng = random.Random("products-schedule-%d" % self.seed)
        self.schedule = []
        for batch in self.rounds:
            batch = list(batch)
            rng.shuffle(batch)
            self.schedule.extend(batch)

    def run(self, path, api):
        commands = [(("clifford", "--json"), oracles.check_clifford)]
        if self.model_of(path).total_arrows <= self.table_max_arrows:
            commands.append((("table", "--json"), oracles.check_table))
        return self.run_commands(api, path, commands)


def _plain(value):
    """A library multivector as the oracle's (scalar, blades) pair."""
    blades = {}
    for blade, c in value.blades.items():
        first, second = blade.first, blade.second
        if hasattr(first, "lo"):
            first, second = (first.lo, first.hi), (second.lo, second.hi)
        blades[(first, second)] = c
    return value.scalar, blades


class Queries(Workload):
    """Seeded library calls against two categories loaded once in setup.

    The per-call argument checks and the full-arrow scans inside
    ``distance`` do the work.  Builders run only in setup, so a builder
    change should move ``setup_s`` here and nothing else.  One product group
    in six and one sum in four name an unknown or identity arrow on
    purpose; the oracle expects ``UnknownArrow`` there.
    """

    name = "queries"
    rounds = 200

    def setup(self):
        rng = random.Random("queries-%d" % self.seed)
        thin = docgen.explicit(rng, docgen.thin_dag(rng, "explicit", 36, 240), "explicit")
        free = docgen.free_stages(rng, "free", (4, 7), 130)
        self.categories = []
        for model in (thin, free):
            with open(self.write(model), encoding="utf-8") as handle:
                category = self.lib.documents.load_category(handle.read())
            basis = self.lib.vectors.atomic_basis(category)
            self.categories.append((model, category, self.lib.vectors.compute_norms(category, basis)))
        self.pool = self._queries(rng)

    def _queries(self, rng):
        """Rounds of 20 queries: 6 product sets, 6 distances, 4 sums, 4 interval pairs."""
        pool = []
        for r in range(self.rounds):
            c = r % 2
            model = self.categories[c][0]
            ids = sorted(model.arrows)
            out = {}
            for a in ids:
                out.setdefault(model.arrows[a][0], []).append(a)

            def composable_pair():
                while True:
                    f = rng.choice(ids)
                    nxt = out.get(model.arrows[f][1])
                    if nxt:
                        return f, rng.choice(nxt)

            batch = []
            for k in range(6):
                f, g = rng.choice(ids), rng.choice(ids)
                if k == 0:
                    g = rng.choice(("nope%d" % r, "id:" + model.objects[0]))
                batch.append(("products", c, f, g))
            for k in range(6):
                if k < 3:  # f = g (+) l exists
                    g, l = composable_pair()
                    batch.append(("distance", c, model.composite(g, l), g))
                else:
                    batch.append(("distance", c, rng.choice(ids), rng.choice(ids)))
            batch.append(("add", c, *composable_pair()))
            batch.append(("add", c, *composable_pair()))
            batch.append(("add", c, rng.choice(ids), rng.choice(ids)))
            batch.append(("add", c, rng.choice(ids), "nope%d" % r))
            for k in range(4):
                lo = Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 7, 10)))
                mid = lo + Fraction(rng.randint(1, 40), rng.choice((1, 4, 5, 9)))
                hi = mid + Fraction(rng.randint(1, 40), rng.choice((1, 3, 8)))
                if k == 0:
                    f, g = (lo, mid), (mid, hi)
                elif k == 1:
                    f = g = (lo, mid)
                else:
                    f, g = (lo, hi), (mid, hi + 1)
                batch.append(("interval", c, f, g))
            rng.shuffle(batch)
            pool.extend(batch)
        return pool

    def prepare(self):
        arrow = self.lib.realline.IntervalArrow
        self.schedule = [
            (kind, c, arrow(*f), arrow(*g), f, g) if kind == "interval" else (kind, c, f, g)
            for kind, c, f, g in self.pool
        ]

    def run(self, op, api):
        kind, c = op[0], op[1]
        model, category, norms = self.categories[c]
        errors = self.lib.errors
        if kind == "products":
            f, g = op[2], op[3]
            calls = (
                ("inner_fg", api.inner, (category, norms, f, g)),
                ("inner_gf", api.inner, (category, norms, g, f)),
                ("orthogonal", api.is_orthogonal, (category, norms, f, g)),
                ("parallel", api.is_parallel, (category, f, g)),
                ("outer_fg", api.outer, (category, norms, f, g)),
                ("geometric_fg", api.geometric, (category, norms, f, g)),
                ("geometric_gf", api.geometric, (category, norms, g, f)),
                ("anticommutator", api.anticommutator, (category, norms, f, g)),
            )
            got = {}
            start = perf_counter()
            for name, fn, args in calls:
                try:
                    got[name] = fn(*args)
                except errors.UnknownArrow:
                    got[name] = errors.UnknownArrow
            elapsed = perf_counter() - start
            if g not in model.arrows:
                ok = all(v is errors.UnknownArrow for v in got.values())
            else:
                for name in ("outer_fg", "geometric_fg", "geometric_gf", "anticommutator"):
                    got[name] = _plain(got[name])
                ok = got == oracles.products(model, f, g)
            return elapsed, "ok" if ok else "products %s %s: %r" % (f, g, got)
        if kind == "distance":
            f, g = op[2], op[3]
            start = perf_counter()
            try:
                got = api.distance(category, norms, f, g)
            except errors.NoDifference:
                got = None
            elapsed = perf_counter() - start
            try:
                want = oracles.distance(model, f, g)
            except oracles.NoDifference:
                want = None
            return elapsed, "ok" if got == want else "distance %s %s: %r, expected %r" % (f, g, got, want)
        if kind == "add":
            f, g = op[2], op[3]
            start = perf_counter()
            try:
                got = api.vec_add(category, f, g)
            except (errors.UndefinedSum, errors.UnknownArrow) as exc:
                got = type(exc)
            elapsed = perf_counter() - start
            if g not in model.arrows:
                want = errors.UnknownArrow
            else:
                want = model.composite(f, g) if model.composable(f, g) else errors.UndefinedSum
            return elapsed, "ok" if got == want else "vec_add %s %s: %r, expected %r" % (f, g, got, want)
        f, g, fp, gp = op[2], op[3], op[4], op[5]
        start = perf_counter()
        products = api.interval_products(f, g)
        try:
            total = api.interval_add(f, g)
        except errors.UndefinedSum:
            total = None
        elapsed = perf_counter() - start
        inner, outer, geometric = oracles.interval_products(fp, gp)
        got = (products[0], _plain(products[1]), _plain(products[2]),
               None if total is None else (total.lo, total.hi))
        ok = got == (inner, outer, geometric, oracles.interval_add(fp, gp))
        return elapsed, "ok" if ok else "interval %s %s: %r" % (fp, gp, got)


#: label of the known-defect probe in cli_cold: argparse reads a negative
#: fraction literal such as -3/7 as an option and exits 1
NEGATIVE_FRACTION = "negative-fraction"


class CliCold(Workload):
    """One ``python -m catgeo.cli`` subprocess per op, run one at a time.

    Interpreter start, the catgeo imports and argparse are measured here and
    nowhere else.  One invocation in the list expects exit 2 (an unknown
    arrow), one expects exit 1 (a malformed endpoint literal), and one is
    the negative-fraction known-defect probe.  Other negative endpoints are
    written as decimals, which argparse accepts.
    """

    name = "cli_cold"
    rusage = resource.RUSAGE_CHILDREN
    rounds = 12

    def setup(self):
        rng = random.Random("cli_cold-%d" % self.seed)
        invocations = []
        for label, model in docgen.builtins().items():
            path = self.write(model)
            invocations.append((label, ("example", label)))
            invocations.append((label, ("validate", path)))
            invocations.append((label, ("norms", path, "--json")))
            invocations.append((label, ("clifford", path, "--json")))
            invocations.append((label, ("dot", path)))
            invocations.append((label, ("embed", path, "--json")))
            f, g = rng.sample(sorted(model.arrows), 2)
            invocations.append((label, ("product", path, f, g, "--json")))
        invocations.append(("po6", ("product", self.path("po6"), "e1", "nope", "--json")))
        for command, layout in (("norm", (0, 1)), ("add", (0, 1, 2, 3)), ("add", (0, 1, 1, 2)), ("product", (0, 2, 1, 3))):
            ends = set()
            while len(ends) < 4:
                value = Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 4, 8, 10, 100)))
                if value >= 0 or (value * 1000).denominator == 1:
                    ends.add(value)
            ends = sorted(ends)
            literals = [self._literal(rng, ends[k]) for k in layout]
            invocations.append(("", ("interval", command, *literals, "--json")))
        invocations.append(("", ("interval", "norm", "1", "x", "--json")))
        lo = -Fraction(3 * rng.randint(1, 33) + 1, 3)  # never a whole number
        invocations.append((NEGATIVE_FRACTION, ("interval", "norm", str(lo), str(-lo / 2), "--json")))
        self.invocations = invocations
        self.spawn(("example", "po6"))  # warm the page cache and the bytecode cache

    @staticmethod
    def _literal(rng, value):
        """A decimal literal for negative values, else a fraction or decimal at random."""
        millis = value * 1000
        if millis.denominator == 1 and (value < 0 or rng.random() < 0.5):
            return "%s%d.%03d" % ("-" if millis < 0 else "", abs(millis) // 1000, abs(millis) % 1000)
        return str(value)

    def spawn(self, args, importtime=False):
        env = dict(os.environ, PYTHONPATH=self.lib.src)
        command = [sys.executable, *(("-X", "importtime") if importtime else ()), "-m", "catgeo.cli", *args]
        start = perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60, cwd=self.lib.root)
        return perf_counter() - start, proc

    def prepare(self):
        rng = random.Random("cli_cold-schedule-%d" % self.seed)
        self.schedule = []
        for _ in range(self.rounds):
            batch = list(self.invocations)
            rng.shuffle(batch)
            self.schedule.extend(batch)
        self.import_runs = []

    def run(self, op, api):
        label, args = op
        elapsed, proc = self.spawn(args, self.importtime)
        err = proc.stderr
        if self.importtime:
            lines = err.splitlines(keepends=True)
            imports = {}
            for line in lines:
                if line.startswith("import time:") and "self [us]" not in line:
                    self_us, _, module = line[len("import time:"):].split("|")
                    imports[module.strip()] = imports.get(module.strip(), 0) + int(self_us)
            self.import_runs.append(imports)
            err = "".join(line for line in lines if not line.startswith("import time:"))
        result = (proc.returncode, proc.stdout, err)
        return elapsed, self.verdict(args, result, lambda: self.check(label, args, result))

    def check(self, label, args, result):
        command = args[0]
        if label == NEGATIVE_FRACTION and result[0] == 1 and "unrecognized arguments" in result[2]:
            return "known"
        if command == "interval":
            return oracles.check_interval(args[1], args[2:-1], *result)
        model = self.models[label]
        if command == "example":
            return oracles.check_example(model, *result)
        if command == "product":
            return oracles.check_product(model, args[2], args[3], *result)
        checker = {
            "validate": oracles.check_validate,
            "norms": oracles.check_norms,
            "clifford": oracles.check_clifford,
            "dot": oracles.check_dot,
            "embed": oracles.check_embed,
        }[command]
        return checker(model, *result)


WORKLOADS = {w.name: w for w in (Structure, Products, Queries, CliCold)}
