"""The committed mutant suite: exact source edits the tests must detect.

Each mutant is one exact (file, old, new) edit under src/f5gb/ plus the
fast pytest selection that should fail under it.  For each mutant the
script copies src/, tests/ and pyproject.toml into a temporary directory,
applies the edit there (the working tree is never edited), runs the
selection under a timeout and reports

* killed: the selection failed or ran out of time,
* survived: the selection passed; a mutant marked equivalent cannot change
  a result, and its survival is expected.

Every selection must pass on the unmutated copy first, or the suite stops.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

Exit status: 0 when every mutant not marked equivalent is killed, 1 when
one survives, 2 when an edit does not apply or a selection fails unmutated.
This file is not collected by pytest (its name has no test_ prefix).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/f5gb/
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # pytest arguments, relative to the repository root
    equivalent: str = ""  # why the mutant cannot change a result, if it cannot


COFACTOR_TESTS = (
    "tests/test_algebra.py::test_interreduce_with_cofactors_on_raw_f5_basis",
    "tests/test_algebra.py::test_interreduce_with_cofactors_rejects_non_groebner_input",
    "tests/test_algebra.py::test_reduced_basis_fixed_cases",
    "tests/test_algebra.py::test_reduce_payload_rejects_a_basis_missing_a_cofactor_vector",
    "tests/test_sympy_differential.py::test_certificates_hold_in_sympy",
)
TAIL_PASS_TESTS = (
    "tests/test_engine.py::test_interreduction_counters_golden",
    "tests/test_algebra.py::test_reduced_basis_fixed_cases",
)
INTERREDUCE_TESTS = (
    "tests/test_algebra.py::test_interreduce_trivial_cases",
    "tests/test_algebra.py::test_interreduce_properties_randomized",
    "tests/test_algebra.py::test_interreduce_with_cofactors_rejects_non_groebner_input",
)
KERNEL_TESTS = (  # the property tests last: shrinking a failure takes seconds
    "tests/test_algebra.py::test_reduce_full_fixed_cases_match_eager_reference",
    "tests/test_algebra.py::test_fold_normal_form_fixed_cases",
    "tests/test_algebra.py::test_working_payload_reads_and_drops_its_head",
    "tests/test_algebra.py::test_engine_runs_eliminate_as_the_eager_kernel",
    "tests/test_engine.py",
    "tests/test_algebra.py::test_reduce_full_matches_eager_reference",
    "tests/test_algebra.py::test_fold_normal_form_matches_reduce_full",
)
LCM_TESTS = (
    "tests/test_algebra.py::test_products_past_the_packed_degree_raise",
    "tests/test_algebra.py::test_key_divisibility_agrees_with_exponent_tuples",
)
GM_TESTS = ("tests/test_drivers.py::test_gebauer_moller_pair_stream_is_pinned",)
CRITERIA_TESTS = (
    "tests/test_acceptance.py::test_criterion_2_trace_fidelity",
    "tests/test_engine.py",
    "tests/test_drivers.py",
    "tests/test_sigcore.py",
)

MUTANTS = (
    # -- cofactor vectors through the interreduction (algebra.reduced_basis
    #    and algebra.reduce_payload)
    Mutant(
        "kept-vectors-unscaled",
        "algebra.py",
        "c if c is None or inv == 1 else [h.scale(inv) for h in c]",
        "c",
        COFACTOR_TESTS,
    ),
    Mutant(
        "payload-drops-own-cofactor",
        "algebra.py",
        "            ps.append((cofs[m], ring.one))\n",
        "",
        COFACTOR_TESTS,
    ),
    Mutant(
        "tails-reduce-against-unscaled-vectors",
        "algebra.py",
        "Polynomial(ring, g.terms[1:]), kcofs[i], kcofs, None",
        "Polynomial(ring, g.terms[1:]), kcofs[i], cofs, None",
        COFACTOR_TESTS,
    ),
    Mutant(
        "non-groebner-input-accepted",
        "algebra.py",
        "    if not _reduce_to_zero(dropped, result):\n"
        "        raise ValueError(\"interreduce_with_cofactors needs a Groebner basis\")\n",
        "",
        COFACTOR_TESTS,
    ),
    Mutant(
        # each element keeps the vector it came in with, for later tails too
        "tail-vector-not-replaced",
        "algebra.py",
        "        tail, kcofs[i] = reduce_payload(\n",
        "        tail, _ = reduce_payload(\n",
        COFACTOR_TESTS,
    ),
    # -- the tail pass (algebra.reduced_basis) and the public check around it
    Mutant(
        # later tails reduce against the element's raw tail: the same basis,
        # but more eliminations, and vectors that no longer match the tails
        "tail-not-replaced",
        "algebra.py",
        "        cands[i] = cands[i][:4] + (tail.terms,)\n",
        "",
        TAIL_PASS_TESTS,
    ),
    Mutant(
        "eliminations-not-counted",
        "algebra.py",
        "        self.eliminations += steps\n",
        "",
        TAIL_PASS_TESTS,
    ),
    Mutant(
        "public-interreduce-skips-check",
        "algebra.py",
        "    return result if _reduce_to_zero(dropped, result) else _autoreduce(G)\n",
        "    return result\n",
        INTERREDUCE_TESTS,
    ),
    # -- the criteria
    Mutant(
        "no-f5-criterion",
        "engine.py",
        "        if us1 >= base and prev_heads.is_top_reducible(us1 - base):\n"
        "            return None\n"
        "        if us2 >= base and prev_heads.is_top_reducible(us2 - base):\n"
        "            return None\n",
        "",
        CRITERIA_TESTS,
    ),
    Mutant(
        "safe-step-flipped",
        "engine.py",
        "            safe = new_sig < sig_k\n",
        "            safe = new_sig > sig_k\n",
        CRITERIA_TESTS,
    ),
    # -- the chain of safe steps in F5Engine.top_reduction, and the check
    #    that certifies what it stores
    Mutant(
        # a safe step's cofactor update forgets the chain's earlier steps
        "chain-stale-cofactor",
        "engine.py",
        "multiples.setdefault(j, {})[u_key] = c",
        "multiples = {j: {u_key: c}}",
        CRITERIA_TESTS,
    ),
    Mutant(
        "chain-unscaled-store",
        "engine.py",
        "            if not safe and stepped:  # k as a step-by-step loop stored it\n"
        "                inv = field.inv(lc)\n",
        "            if not safe and stepped:  # k as a step-by-step loop stored it\n"
        "                inv = 1\n",
        CRITERIA_TESTS,
    ),
    Mutant(
        "chain-unscaled-zero-cofactors",
        "engine.py",
        "else field.inv(lc) if stepped else 1",
        "else 1",
        CRITERIA_TESTS,
    ),
    # -- the one elimination loop (algebra.ReducerSet.fold_normal_form, its
    #    caller reduce_full, and algebra.WorkingPayload)
    Mutant(
        "pending-pop-without-mod-p",
        "algebra.py",
        "                c = coeffs.pop(key) % p\n",
        "                c = coeffs.pop(key)\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "pending-key-kept",
        "algebra.py",
        "                c = coeffs.pop(key) % p\n",
        "                c = coeffs[key] % p\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "prefix-dropped",
        "algebra.py",
        "        payload = WorkingPayload(Polynomial(self.ring, terms[:i]))\n",
        "        payload = WorkingPayload(self.ring.zero)\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "mfac-not-negated",
        "algebra.py",
        "            mfac = p - fac\n",
        "            mfac = fac\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "fold-shared-pending-heap",
        "algebra.py",
        "        pending: list[int] = []\n",
        "        pending = globals().setdefault(\"_shared_pending\", [])\n",
        KERNEL_TESTS,
        equivalent="each call pops its pending heap until it is empty, so a shared"
        " heap is empty whenever a call starts",
    ),
    Mutant(
        "irreducible-key-pending",
        "algebra.py",
        "                if cand is None:\n                    fresh.append(nk)\n",
        "                if False:\n                    fresh.append(nk)\n",
        KERNEL_TESTS,
    ),
    Mutant(
        # correct results, but each new key goes to find_divisor again
        "divisor-cache-skipped",
        "algebra.py",
        "                cand = cache.get(nk, 0)\n",
        "                cand = 0\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "fresh-keys-not-pushed",
        "algebra.py",
        "        for key in self.fresh:\n            _heappush(heap, -key)\n",
        "",
        KERNEL_TESTS,
    ),
    Mutant(
        "fresh-keys-pushed-twice",
        "algebra.py",
        "        self.fresh.clear()\n",
        "",
        KERNEL_TESTS,
    ),
    Mutant(
        "head-read-without-mod-p",
        "algebra.py",
        "            c = coeffs[key] % p\n",
        "            c = coeffs[key]\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "cancelled-head-left",
        "algebra.py",
        "        del self.coeffs[-_heappop(self.heap)]\n",
        "        _heappop(self.heap)\n",
        KERNEL_TESTS,
    ),
    # -- the packed-key lcm (algebra.PolynomialRing.lcm)
    Mutant(
        "lcm-selects-minimum",
        "algebra.py",
        "        w = wb ^ ((wa ^ wb) & m)\n",
        "        w = wa ^ ((wa ^ wb) & m)\n",
        LCM_TESTS,
    ),
    Mutant(
        "lcm-degree-unchecked",
        "algebra.py",
        "        self.check_degree(d)\n        if self._graded:\n",
        "        if self._graded:\n",
        LCM_TESTS,
    ),
    # -- the oracle's Gebauer-Moller update (drivers._gm_update)
    Mutant(
        "no-product-criterion",
        "drivers.py",
        "    E = [c for c in D if not c[1]]\n",
        "    E = D\n",
        GM_TESTS,
    ),
    Mutant(
        "no-chain-test-among-new-pairs",
        "drivers.py",
        "        if c[1] or not (\n",
        "        if True or not (\n",
        GM_TESTS,
    ),
    Mutant(
        "admissible-heads-only",
        "sigcore.py",
        "    return sum_products(ring, zip(cof, system)) == entry.poly\n",
        "    return True\n",
        CRITERIA_TESTS,
    ),
    Mutant(
        "no-phantom-rules",
        "drivers.py",
        "    if not skip_rule_rebuild:\n",
        "    if False:\n",
        CRITERIA_TESTS,
    ),
    Mutant(
        "find-rewriting-returns-k",
        "sigcore.py",
        "                return j\n        return k\n",
        "                return k\n        return k\n",
        CRITERIA_TESTS,
    ),
    Mutant(
        "reductor-scan-done-first",
        "engine.py",
        "        for j in chain(curr, done):\n",
        "        for j in chain(done, curr):\n",
        CRITERIA_TESTS,
        equivalent="no find_reductor call in f5, f5r or f5c on katsura-5/6, cyclic-5/6"
        " or 3,000 random 3-variable systems has two candidates that pass all three"
        " safety tests, so the scan order never decides",
    ),
)


def _copy_tree(dest: str) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            os.path.join(ROOT, name),
            os.path.join(dest, name),
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _mutated(root: str, mutant: Mutant) -> str:
    """The text of mutant.file under root with the edit applied."""
    with open(os.path.join(root, "src", "f5gb", mutant.file)) as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def _run_selection(dest: str, tests) -> tuple[bool, float]:
    """(passed, seconds) for one pytest run of tests in the copy at dest."""
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=dest, env=env, capture_output=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] if args.names else list(MUTANTS)
    try:
        for m in chosen:  # every edit applies before anything runs
            _mutated(ROOT, m)
    except ValueError as exc:
        print(exc)
        return 2
    with tempfile.TemporaryDirectory(prefix="f5gb-mutants-") as tmp:
        clean = os.path.join(tmp, "clean")
        _copy_tree(clean)
        for tests in dict.fromkeys(m.tests for m in chosen):
            passed, secs = _run_selection(clean, tests)
            if not passed:
                print(f"selection fails without a mutant ({secs:.1f} s): {' '.join(tests)}")
                return 2
        shutil.rmtree(clean)
        status = 0
        for m in chosen:
            dest = os.path.join(tmp, m.name)
            _copy_tree(dest)
            text = _mutated(dest, m)
            with open(os.path.join(dest, "src", "f5gb", m.file), "w") as fh:
                fh.write(text)
            passed, secs = _run_selection(dest, m.tests)
            shutil.rmtree(dest)
            if not passed:
                verdict = "killed"
            elif m.equivalent:
                verdict = f"survived (equivalent: {m.equivalent})"
            else:
                verdict = "SURVIVED"
                status = 1
            print(f"{m.name:40s} {verdict}  ({secs:.1f} s)", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
