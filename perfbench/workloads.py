"""The benchmark's workloads: their inputs, the calls of one pass, and checks.

A pass runs every call of a workload once, in a fixed order, times each call
and checks its output.  A call fails if it raises, if its basis (after
interreduction, for the raw f5/f5r outputs) differs from the reference, or if
groebner_check returns False.  The reference is the pinned digest at the
default seed; at any other seed it is the oracle's basis (computed in the
pass for the plain workloads, in set-up for the certified one).

Every call and check of a pass is timed, and its time is scaled by the host
speed measured around it (see hostspeed.py).

Entry points are looked up on ``f5gb.drivers`` at call time, so a tracer that
replaced them sees the calls.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import f5gb.drivers as drivers
from f5gb.algebra import is_prime
from f5gb.drivers import VariantConfig
from f5gb.bench import cyclic, katsura
from hostspeed import HostSpeed

DEFAULT_SEED = 0
PAPER_PRIME = 32003
VARIANTS = ("f5", "f5r", "f5c")
COUNTERS = ("pairs", "spolys", "reduction_steps", "zero_reductions", "basis_size_final")
REFERENCE_FILE = Path(__file__).with_name("reference.json")
FAMILIES = {"katsura": katsura, "cyclic": cyclic}


@dataclass(frozen=True)
class Workload:
    """One workload; README.md says why each was chosen."""

    name: str
    systems: tuple  # ((family, n), ...)
    certified: bool = False
    verify: tuple = ()  # variants whose outputs groebner_check receives
    verify_extra: tuple = ()  # (family, n) whose set-up oracle basis is checked
    rounds: int = 1  # times a pass repeats the oracle and variant calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "katsura-6",
            (("katsura", 6),),
            verify_extra=(("katsura", 5),),
        ),
        Workload(
            "cyclic-6",
            (("cyclic", 6),),
            verify=("f5c",),
            # the 7 s check would leave a run only 3 samples of each short call
            rounds=2,
        ),
        Workload(
            "certified",
            (("katsura", 5), ("cyclic", 5)),
            certified=True,
            verify=VARIANTS,
        ),
    )
}


def prime_for_seed(seed: int) -> int:
    """The characteristic for a seed: 32003 at the default seed.

    Other seeds draw from the primes in [30000, 32768).  Products of two
    coefficients then stay below 2**30, one CPython integer digit, so every
    seed exercises the same integer arithmetic as p = 32003.
    """
    if seed == DEFAULT_SEED:
        return PAPER_PRIME
    return random.Random(seed).choice([q for q in range(30000, 32768) if is_prime(q)])


def label(family: str, n: int) -> str:
    return f"{family}-{n}"


def digest(basis) -> str:
    """A digest of a basis by exponent vectors and coefficients."""
    h = hashlib.sha256()
    for g in basis:
        exps = g.ring.exps
        h.update(repr([(exps(k), c) for k, c in g.terms]).encode())
        h.update(b";")
    return h.hexdigest()[:20]


def counters_of(stats) -> dict:
    out = dict(stats.totals())
    out["basis_size_final"] = stats.basis_size_final
    return {k: out[k] for k in COUNTERS}


def load_pinned(workload: Workload, seed: int) -> dict:
    """Pinned digests and counters for the workload, at the default seed only."""
    if seed != DEFAULT_SEED:
        return {}
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["workloads"][workload.name]


@dataclass
class Context:
    """Everything set-up produces: the inputs and the set-up references."""

    workload: Workload
    seed: int
    p: int
    systems: dict
    references: dict  # certified: label -> set-up oracle basis
    extra: list  # bases for the verify_extra checks
    pinned: dict


def setup(workload: Workload, seed: int, pinned: bool = True) -> Context:
    """Generate the inputs; pinned=False skips the pinned reference (for pinning)."""
    p = prime_for_seed(seed)
    systems = {label(f, n): FAMILIES[f](n, p) for f, n in workload.systems}
    references = {}
    if workload.certified:
        references = {k: drivers.buchberger_reduced(F) for k, F in systems.items()}
    extra = [drivers.buchberger_reduced(FAMILIES[f](n, p)) for f, n in workload.verify_extra]
    return Context(
        workload, seed, p, systems, references, extra,
        load_pinned(workload, seed) if pinned else {},
    )


class NullProbe:
    """The hooks a pass calls; a Tracer supplies recording ones."""

    scope = ""

    def spanned(self, name, fn):
        return fn

    def end_call(self):
        pass


@dataclass
class PassResult:
    times: dict = field(default_factory=dict)  # metric -> scaled seconds per round, summed over systems
    wall: float = 0.0  # scaled seconds of every call and check of the pass
    raw_wall: float = 0.0  # the same, unscaled and with the host-speed kernel's time in it
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # (system, call) -> digest
    counters: dict = field(default_factory=dict)  # (system, variant) -> counters
    verified: list = field(default_factory=list)  # bases given to groebner_check
    intervals: list = field(default_factory=list, repr=False)  # (metric or None, round, start, end)

    def segment(self, fn, *args, metric=None, rnd=0):
        """fn(*args), its interval kept for metric in round rnd and for the wall."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.intervals.append((metric, rnd, t0, time.perf_counter()))

    def timed(self, metric, rnd, fn, *args):
        """Call fn, adding its time to metric in round rnd; a raising call is a failure."""
        self.attempted += 1
        try:
            return self.segment(fn, *args, metric=metric, rnd=rnd)
        except Exception:  # the pass goes on; the failure is counted and reported
            self.failures.append(f"{metric}: raised\n{traceback.format_exc()}")
            return None

    def finish(self, host: HostSpeed):
        """Scale every interval by the host speed around it; sum into times and wall."""
        if self.intervals:
            host.settle(self.intervals[-1][3])
        for metric, rnd, t0, t1 in self.intervals:
            scaled = host.scale(t0, t1)
            self.raw_wall += t1 - t0
            self.wall += scaled
            if metric is not None:
                samples = self.times.setdefault(metric, [])
                samples.extend([0.0] * (rnd + 1 - len(samples)))
                samples[rnd] += scaled

    def record_counters(self, key, counters):
        if self.counters.setdefault(key, counters) != counters:
            self.failures.append(f"{key[0]} {key[1]}: counters differ between rounds")


def _check_basis(res, what, basis, expected):
    d = digest(basis)
    res.digests[what] = d
    if d != expected:
        res.failures.append(f"{what[0]} {what[1]}: basis digest {d} != reference {expected}")


def run_pass(ctx: Context, probe=None) -> PassResult:
    """Run every call of the workload once; time, check and record it."""
    probe = probe or NullProbe()
    res = PassResult()
    gc.collect()
    with HostSpeed() as host:
        _calls(ctx, probe, res)
        res.finish(host)
    return res


def _calls(ctx: Context, probe, res: PassResult):
    w = ctx.workload
    for rnd in range(w.rounds):
        for name, F in ctx.systems.items():
            pinned = ctx.pinned.get(name, {})
            oracle = res.timed("oracle_s", rnd, drivers.buchberger_reduced, F)
            probe.end_call()
            reference = ctx.references.get(name, oracle)
            expected = pinned.get("basis") or (digest(reference) if reference is not None else None)
            if oracle is not None:
                res.segment(_check_basis, res, (name, "oracle"), oracle, expected)
            for v in VARIANTS:
                cfg = VariantConfig(variant=v, certified=w.certified)
                probe.scope = v
                run = probe.spanned("drivers.run_variant", getattr(drivers, v))
                out = res.timed(f"{v}_s", rnd, run, F, cfg)
                if out is not None:
                    def check():
                        basis = out.basis if out.reduced else drivers.interreduce(out.basis)
                        _check_basis(res, (name, v), basis, expected)

                    res.segment(probe.spanned("bench.check", check))
                    res.record_counters((name, v), counters_of(out.stats))
                    if rnd == 0 and v in w.verify:
                        res.verified.append(out.basis)
                probe.end_call()
                probe.scope = ""
    res.verified.extend(ctx.extra)
    for basis in res.verified:
        ok = res.timed("verify_s", 0, drivers.groebner_check, basis)
        if ok is False:
            res.failures.append(f"groebner_check returned False on a {len(basis)}-element basis")
        probe.end_call()


def counter_drift(ctx: Context, res: PassResult) -> list:
    """Counters that differ from the pinned ones, by name (default seed only)."""
    lines = []
    for (name, v), got in sorted(res.counters.items()):
        want = ctx.pinned.get(name, {}).get("counters", {}).get(v)
        if want is None:
            continue
        for k in COUNTERS:
            if got[k] != want[k]:
                lines.append(f"{ctx.workload.name} {name} {v} {k}: pinned {want[k]}, now {got[k]}")
    return lines


def mismatches(a: PassResult, b: PassResult) -> list:
    """Digests or counters on which two passes of the same inputs disagree."""
    out = []
    for kind, x, y in (("digest", a.digests, b.digests), ("counters", a.counters, b.counters)):
        for key in sorted(set(x) | set(y)):
            if x.get(key) != y.get(key):
                out.append(f"{kind} of {key[0]} {key[1]} differs between passes")
    return out


def pin(seed: int = DEFAULT_SEED) -> dict:
    """Digests and counters of every workload at the default seed."""
    out = {}
    for w in WORKLOADS.values():
        ctx = setup(w, seed, pinned=False)
        res = run_pass(ctx)
        if res.failures:
            raise RuntimeError(f"{w.name}: cannot pin a failing pass: {res.failures}")
        out[w.name] = {
            name: {
                "basis": res.digests[name, "oracle"],
                "counters": {v: res.counters[name, v] for v in VARIANTS},
            }
            for name in ctx.systems
        }
    return {"p": prime_for_seed(seed), "workloads": out}
