"""Digests of every run in a fixed set, for diffing two trees line by line.

Each line names one run (system, prime, variant, plain or certified) and
gives the sha256 prefix of

* basis:  the output basis, as term tuples,
* stats:  RunStats.to_dict() as sorted JSON,
* trace:  the verbose text trace,
* store:  the final store's entries (signature and payload terms),
* cofs:   the final store's cofactor vectors (certified runs; plain runs
  carry None).

The set is katsura-3..6 and cyclic-4..6 at p = 32003, and katsura-3..5 and
cyclic-4..5 at p = 101 and 7, each under f5, f5r and f5c, plain and
certified: 102 runs.  After each system's runs one oracle line gives the
digest of buchberger_reduced's basis, its _gm_update calls, its
S-polynomials, and the eliminations and reduce_full calls summed over every
ReducerSet it builds (a normal form recomputed in vain moves the last),
all taken by patching names in f5gb.drivers, so the script runs on trees
that build those sets differently.  Run it on two trees and diff the
outputs:

    PYTHONPATH=src python tests/run_digests.py > after.txt
    (cd ../parent && PYTHONPATH=src python /path/to/run_digests.py) > before.txt
    diff before.txt after.txt

--omit KEY drops KEY from every dict in RunStats.to_dict() before hashing,
so a tree that adds a stats key can be compared with one that lacks it.
--quick keeps the p = 32003 runs up to katsura-5 and cyclic-5.  --orders
appends katsura-3 and cyclic-4 at p = 32003 under deglex and lex (24 more
runs, under a second), so the graded and the lex branches of the packed-key
arithmetic are pinned too; their lines name the order.  This file is not
collected by pytest (its name has no test_ prefix).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import f5gb.drivers as drivers
from f5gb.algebra import PolynomialRing
from f5gb.bench import cyclic, katsura
from f5gb.drivers import VariantConfig, run_variant

SYSTEMS = {"katsura": katsura, "cyclic": cyclic}


def run_set(quick: bool = False, orders: bool = False):
    """(system name, n, p, order) for each system of the set, in output order."""
    out = []
    for p, top in ((32003, 6), (101, 5), (7, 5)):
        if quick and p != 32003:
            continue
        top = min(top, 5) if quick else top
        out += [("katsura", n, p, "grevlex") for n in range(3, top + 1)]
        out += [("cyclic", n, p, "grevlex") for n in range(4, top + 1)]
    if orders:
        out += [(name, n, 32003, order) for order in ("deglex", "lex")
                for name, n in (("katsura", 3), ("cyclic", 4))]
    return out


def system(name, n, p, order):
    """The named system over F_p, moved to the given monomial order."""
    F = SYSTEMS[name](n, p)
    if order == "grevlex":
        return F
    ring = PolynomialRing(p, F[0].ring.names, order)
    return [ring.from_terms(f.dict().items()) for f in F]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _omit(obj, keys):
    if isinstance(obj, dict):
        return {k: _omit(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [_omit(v, keys) for v in obj]
    return obj


def _terms(f):
    return None if f is None else f.terms


def digest_run(name, n, p, variant, certified, omit=(), order="grevlex"):
    """One output line for the run."""
    engines = []

    class Recorded(drivers.F5Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    lines = []
    real = drivers.F5Engine
    drivers.F5Engine = Recorded
    try:
        cfg = VariantConfig(variant=variant, certified=certified)
        result = run_variant(system(name, n, p, order), cfg, trace=lines.append)
    finally:
        drivers.F5Engine = real
    stats = json.dumps(_omit(result.stats.to_dict(), set(omit)), sort_keys=True)
    entries = [e for e in engines[0].store.entries if e is not None]
    store = [(e.sig, e.poly.terms) for e in entries]
    cofs = [None if e.cofactors is None else [_terms(c) for c in e.cofactors] for e in entries]
    mode = "certified" if certified else "plain"
    label = "" if order == "grevlex" else f" {order}"
    return (
        f"{name}-{n} p={p}{label} {variant} {mode}"
        f" basis={_digest([b.terms for b in result.basis])}"
        f" stats={_digest(stats)} trace={_digest(lines)}"
        f" store={_digest(store)} cofs={_digest(cofs)}"
    )


def digest_oracle(name, n, p, order="grevlex"):
    """The oracle's output line for the system."""
    counts = {"_gm_update": 0, "spoly": 0}
    sets = []
    saved = {fname: getattr(drivers, fname) for fname in (*counts, "ReducerSet")}

    def counted(fname):
        def wrapper(*args):
            counts[fname] += 1
            return saved[fname](*args)

        return wrapper

    normal_forms = []

    class Built(saved["ReducerSet"]):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sets.append(self)

        def reduce_full(self, *args, **kwargs):
            normal_forms.append(None)
            return super().reduce_full(*args, **kwargs)

    for fname in counts:
        setattr(drivers, fname, counted(fname))
    drivers.ReducerSet = Built
    try:
        basis = drivers.buchberger_reduced(system(name, n, p, order))
    finally:
        for fname, real in saved.items():
            setattr(drivers, fname, real)
    label = "" if order == "grevlex" else f" {order}"
    return (
        f"{name}-{n} p={p}{label} oracle"
        f" basis={_digest([b.terms for b in basis])}"
        f" gm_updates={counts['_gm_update']} spolys={counts['spoly']}"
        f" eliminations={sum(rs.eliminations for rs in sets)}"
        f" normal_forms={len(normal_forms)}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--omit", action="append", default=[], metavar="KEY",
                    help="drop this RunStats.to_dict() key before hashing (repeatable)")
    ap.add_argument("--quick", action="store_true", help="only the small p = 32003 runs")
    ap.add_argument("--orders", action="store_true",
                    help="also katsura-3 and cyclic-4 under deglex and lex")
    args = ap.parse_args(argv)
    for name, n, p, order in run_set(args.quick, args.orders):
        for certified in (False, True):
            for variant in drivers.VARIANTS:
                print(digest_run(name, n, p, variant, certified, args.omit, order), flush=True)
        print(digest_oracle(name, n, p, order), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
