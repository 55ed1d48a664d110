"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs (``setup``) and lists the
items of one pass over them (``items``): ``(label, call)`` pairs, each call
going through the public quiverz API and timed on its own.  ``checker(inputs)``
returns a function that checks the outputs of one pass, outside the timed
region, and returns ``(attempted, failed)`` counted in the workload's own
items: suite reports, exhaustive instances, theta vectors or certify
verdicts.  Outputs are checked pass by pass and then dropped, so peak memory
does not grow with the number of passes.

The program is always called through module attributes (``verify.x``, never
``from quiverz.verify import x``) so that the tracer's patches reach the
benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

from quiverz import cli, exactmat, partitions, quiverrep, verify

PRIME = 32003


class Workload:
    # True where each item is one user-visible request whose time is a latency.
    latency_items = False

    def tuples(self, inputs: dict, outputs: list) -> int:
        """Tuples the exhaustive drivers of one pass enumerate (p^cells each)."""
        return 0


def memo_check(verify_one):
    """Wrap a per-item check so that an output identical to one already
    checked is not checked again: passes are deterministic."""
    seen: dict = {}

    def check(key, doc) -> bool:
        k = (key, json.dumps(doc, sort_keys=True))
        if k not in seen:
            seen[k] = verify_one(key, doc)
        return seen[k]

    return check


class Suite(Workload):
    """``quiverz --json verify all --seed S --jobs 2`` in-process."""

    name = "suite"
    why = (
        "the battery users run; the only workload on the --jobs parallel path "
        "and the CLI's JSON emission"
    )

    def setup(self, seed: int) -> dict:
        return {"argv": ["--json", "verify", "all", "--seed", str(seed)], "jobs": 2}

    def reduced(self, seed: int) -> dict:
        argv = ["--json", "verify", "theta-image", "--max-last", "4", "--trials", "1"]
        return {"argv": argv + ["--seed", str(seed)], "jobs": 2}

    @staticmethod
    def _main(argv) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def items(self, inputs: dict) -> list:
        argv = inputs["argv"] + ["--jobs", str(inputs["jobs"])]
        return [("verify all", lambda: self._main(argv))]

    def checker(self, inputs: dict):
        # The reference is the same command with one worker: reports must be
        # byte-identical whatever --jobs is.
        ref_code, ref_out = self._main(inputs["argv"] + ["--jobs", "1"])
        ref = json.loads(ref_out)
        items = len(ref["reports"]) if "reports" in ref else 1
        ref_ok = ref_code == 0 and ref["pass"]

        def check(outputs: list) -> tuple:
            code, out = outputs[0]
            return items, items if not ref_ok or code != 0 or out != ref_out else 0

        return check

    def tuples(self, inputs: dict, outputs: list) -> int:
        doc = json.loads(outputs[0][1])
        return sum(
            r["size"] for r in doc.get("reports", ()) if r["statement"] in ("ab-step", "stability")
        )


def pair_count(n: int, a: int, p: int) -> int:
    return p ** (2 * n * (n + a))


def table_doc(table: dict) -> list:
    """A BA-type -> AB-types table as sorted ``[BA-type, [AB-types]]`` rows."""
    return [[list(ta), sorted(list(tb) for tb in tbs)] for ta, tbs in sorted(table.items())]


def ab_step_holds(rows: list, n: int, a: int) -> bool:
    """The AB-step statement read off the rows of a BA-type -> AB-types
    table: for each partition eta of n, add(eta, a) is reachable from BA-types
    dominated by eta and dominates every AB-type reachable from them."""
    keys = {partitions.Partition(ta) for ta, _ in rows}
    if keys != set(partitions.partitions_of_weight(n)):
        return False
    for eta in partitions.partitions_of_weight(n):
        expected = partitions.add(eta, a)
        reachable = {
            partitions.Partition(tb)
            for ta, tbs in rows
            if partitions.dominates(eta, partitions.Partition(ta))
            for tb in tbs
        }
        if expected not in reachable or not all(
            partitions.dominates(expected, tb) for tb in reachable
        ):
            return False
    return True


class Exhaustive(Workload):
    """Exhaustive pair enumeration over F_3 and F_2, through verify's raw
    mod-p helpers.  The inputs do not depend on the seed."""

    name = "exhaustive"
    why = (
        "verify's exhaustive pair loops and raw mod-p helpers over F_3 and F_2, "
        "with no ExactMatrix work, so exactmat changes should not move it"
    )
    # 3^8 pairs each over F_3, 2^12 pairs each over F_2: items short enough
    # for many passes a run.
    TABLES = ((2, 0, 3), (1, 3, 3))  # pair_type_table(n, a, p)
    AB_STEPS = ((2, 1, 2), (1, 5, 2))  # ab_step_report(n, a, p)

    def setup(self, seed: int) -> dict:
        return {"tables": self.TABLES, "ab_steps": self.AB_STEPS}

    def reduced(self, seed: int) -> dict:
        return {"tables": ((1, 2, 3),), "ab_steps": ((1, 2, 2),)}

    def items(self, inputs: dict) -> list:
        out = [
            (("table", n, a, p), lambda n=n, a=a, p=p: verify.pair_type_table(n, a, p=p))
            for n, a, p in inputs["tables"]
        ]
        out += [
            (("ab-step", n, a, p), lambda n=n, a=a, p=p: verify.ab_step_report(n, a, p=p))
            for n, a, p in inputs["ab_steps"]
        ]
        return out

    @staticmethod
    def _instance_ok(key: tuple, doc) -> bool:
        kind, n, a, p = key
        if kind == "table":
            return ab_step_holds(doc, n, a)
        etas = [list(eta.parts) for eta in partitions.partitions_of_weight(n)]
        return (
            doc["pass"]
            and doc["size"] == pair_count(n, a, p)
            and [inst["eta"] for inst in doc["instances"]] == etas
            and all(inst["ok"] for inst in doc["instances"])
        )

    def checker(self, inputs: dict):
        keys = [key for key, _ in self.items(inputs)]
        ok = memo_check(self._instance_ok)

        def check(outputs: list) -> tuple:
            docs = [
                table_doc(out) if key[0] == "table" else out.to_json_dict()
                for key, out in zip(keys, outputs)
            ]
            if len(docs) != len(keys):
                return len(keys), len(keys)
            return len(keys), sum(not ok(key, doc) for key, doc in zip(keys, docs))

        return check

    def tuples(self, inputs: dict, outputs: list) -> int:
        return sum(pair_count(n, a, p) for n, a, p in inputs["tables"] + inputs["ab_steps"])


def monotone_vectors(max_last: int) -> list:
    """Strictly increasing vectors of length at least 2 with entries in
    1..max_last, sorted: the vectors a theta-image sweep must cover."""
    entries = range(1, max_last + 1)
    return sorted(
        c for r in range(2, max_last + 1) for c in itertools.combinations(entries, r)
    )


class ThetaSweep(Workload):
    """``theta_image_report(max_last=6, p=32003, seed=X, trials=3, jobs=1)``
    for three seeds X derived from S, one sweep per item."""

    name = "theta-sweep"
    why = (
        "many tiny matrices (n <= 6) on the serial path, so per-call overhead in "
        "exactmat and chain building in abdiagrams and quiverrep dominate"
    )
    MAX_LAST = 6
    TRIALS = 3
    SWEEPS = 3

    def setup(self, seed: int) -> dict:
        seeds = [seed * self.SWEEPS + k for k in range(self.SWEEPS)]
        return {"max_last": self.MAX_LAST, "trials": self.TRIALS, "seeds": seeds}

    def reduced(self, seed: int) -> dict:
        return {"max_last": 4, "trials": 1, "seeds": [seed]}

    def items(self, inputs: dict) -> list:
        return [
            (x, lambda x=x: verify.theta_image_report(
                max_last=inputs["max_last"], p=PRIME, seed=x, trials=inputs["trials"], jobs=1))
            for x in inputs["seeds"]
        ]

    def checker(self, inputs: dict):
        vectors = monotone_vectors(inputs["max_last"])
        trials = inputs["trials"]
        seeds = inputs["seeds"]

        def sweep_ok(seed, doc) -> bool:
            if [tuple(inst["d"]) for inst in doc["instances"]] != vectors:
                return False
            if doc["params"]["seed"] != seed or not doc["pass"]:
                return False
            if doc["size"] != len(vectors) * (1 + 2 * trials):
                return False
            return all(
                inst["ok"]
                and not inst["failed"]
                and inst["lambda"] == partitions.theta_image(inst["d"]).to_list()
                and inst["mu"] == partitions.mu_of(inst["d"]).to_list()
                for inst in doc["instances"]
            )

        ok = memo_check(sweep_ok)

        def check(outputs: list) -> tuple:
            # An item is one vector of one sweep; a sweep that fails its check
            # counts all its vectors as failed.
            attempted = len(vectors) * len(seeds)
            if len(outputs) != len(seeds):
                return attempted, attempted
            bad = sum(not ok(x, out.to_json_dict()) for x, out in zip(seeds, outputs))
            return attempted, bad * len(vectors)

        return check


def certify_vectors(seed: int, slots=((3, 4, 5, 6), (16, 21, 26, 31, 36, 40))) -> list:
    """One obstructed dimension vector (theta_image != mu_of) per (length,
    last entry) slot.  Interior entries sit one step at most from an even
    spacing of the last entry, so the cost of a pass barely depends on the
    seed while the vectors themselves do.  Each default slot has at least
    five obstructed candidates, so every draw ends."""
    rng = random.Random(f"certify:{seed}")
    lengths, lasts = slots
    out: list = []
    for length in lengths:
        for last in lasts:
            while True:
                d = tuple(
                    [round(last * i / length) + rng.randint(-1, 1) for i in range(1, length)]
                    + [last]
                )
                if (
                    d[0] > 0
                    and all(x < y for x, y in zip(d, d[1:]))
                    and d not in out
                    and partitions.theta_image(d) != partitions.mu_of(d)
                ):
                    break
            out.append(d)
    return out


class Certify(Workload):
    """``witness_reducible`` on seeded obstructed vectors, as ``quiverz dimvec
    verdict`` runs it, one timed verdict at a time."""

    name = "certify"
    why = (
        "a few large dense matrices (n up to 40), the only workload that "
        "measures the O(n^3) inner loops of exactmat at large n"
    )
    latency_items = True

    def setup(self, seed: int) -> dict:
        return {"vectors": certify_vectors(seed), "seed": seed}

    def reduced(self, seed: int) -> dict:
        return {"vectors": certify_vectors(seed, ((3, 4), (8,))), "seed": seed}

    def items(self, inputs: dict) -> list:
        field = exactmat.FieldSpec(PRIME)
        seed = inputs["seed"]
        return [
            (d, lambda d=d: quiverrep.witness_reducible(
                d, field, verify.derive_rng(seed, "verdict", d)).to_json_dict())
            for d in inputs["vectors"]
        ]

    @staticmethod
    def _verdict_ok(d: tuple, doc: dict) -> bool:
        lam = partitions.theta_image(d)
        mu = partitions.mu_of(d)
        if doc["verdict"] != "reducible" or doc["dims"] != list(d):
            return False
        if doc["lambda"] != lam.to_list() or doc["mu"] != mu.to_list():
            return False
        kinds = [w["kind"] for w in doc["witnesses"]]
        if kinds != ["chain", "stable"]:
            return False
        for w in doc["witnesses"]:
            z = quiverrep.QuiverRep.from_json_dict(w["rep"])
            if z.dims != tuple(d) or z.field.p != PRIME or not quiverrep.check_relations(z):
                return False
            typ = exactmat.jordan_type(quiverrep.theta(z))
            if typ.to_list() != w["theta_type"]:
                return False
            # lambda strictly dominates mu, so a point of type lambda is never
            # stable, while stable points stay dominated by mu.
            if w["kind"] == "chain" and (typ != lam or quiverrep.is_stable(z)):
                return False
            if w["kind"] == "stable" and not (
                quiverrep.is_stable(z) and partitions.dominates(mu, typ)
            ):
                return False
        return True

    def checker(self, inputs: dict):
        vectors = list(inputs["vectors"])
        ok = memo_check(self._verdict_ok)

        def check(outputs: list) -> tuple:
            if len(outputs) != len(vectors):
                return len(vectors), len(vectors)
            return len(vectors), sum(not ok(d, doc) for d, doc in zip(vectors, outputs))

        return check


WORKLOADS = {w.name: w for w in (Suite(), Exhaustive(), ThetaSweep(), Certify())}
