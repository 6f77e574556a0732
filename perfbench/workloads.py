"""The four workloads: seeded inputs, the timed op list, and the known answers.

Each workload's ``setup(wh, seed, workdir)`` is the timed set-up: it takes the
freshly imported ``weakhopf`` package, generates the seeded inputs and
pre-builds what the ops need.  It returns a :class:`Plan`, whose ops are run
in order, as one closed-loop client, for every pass of the measured window.

The seed varies values only (q, rho, basis-change constants, perturbed
positions, primes for the non-scan GF(p) checks), never sizes, so every seed
does the same amount of work.  The brute-force scans therefore use fixed
primes: their candidate count p^dim would change with p.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field

import specgen

CHECK_AXIOMS = ("unital", "associative", "coassociative", "counit_left_neutral",
                "counit_right_neutral", "coproduct_multiplicative",
                "coproduct_unit_compatibility", "counit_weak_multiplicative",
                "antipode_vs_target_counital", "antipode_vs_source_counital",
                "antipode_composition")
ANTIPODE_AXIOMS = frozenset(a for a in CHECK_AXIOMS if a.startswith("antipode_"))
AXIOM_LINE = re.compile(r"AXIOM (\S+) (PASS|FAIL)(?: witness=\S+)?$")
GF_PRIMES = (5, 7, 11, 13)


@dataclass
class Op:
    """One operation: ``run()`` is timed; ``judge(payload)`` gives (output text, answer right)."""

    name: str
    run: object
    judge: object


@dataclass
class Plan:
    ops: list
    inputs: list = field(default_factory=list)   # (name, spec document or None, degree bound)
    describe_extra: object = None                 # () -> list of stats dicts, not timed


def run_cli(wh, argv):
    """``weakhopf <argv>`` in process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = wh.cli.main(argv)
    return rc, out.getvalue()


def cli_op(wh, name, argv, oracle):
    def judge(payload):
        rc, text = payload
        return text, oracle(rc, text.splitlines())
    return Op(name, lambda: run_cli(wh, argv), judge)


def _axioms(lines):
    """{axiom: passed} if every line is an AXIOM line, else None."""
    out = {}
    for line in lines:
        m = AXIOM_LINE.match(line)
        if m is None or m.group(1) in out:
            return None
        out[m.group(1)] = m.group(2) == "PASS"
    return out


def expect_valid(rc, lines):
    ax = _axioms(lines)
    return rc == 0 and ax is not None and set(ax) == set(CHECK_AXIOMS) and all(ax.values())


def expect_antipode_only(rc, lines):
    ax = _axioms(lines)
    if rc != 1 or ax is None or set(ax) != set(CHECK_AXIOMS):
        return False
    failed = {a for a, ok in ax.items() if not ok}
    return bool(failed) and failed <= ANTIPODE_AXIOMS


def expect_unit_failure(rc, lines):
    ax = _axioms(lines)
    return rc == 1 and ax is not None and set(ax) == set(CHECK_AXIOMS) and not ax["unital"]


def expect_count(n):
    def oracle(rc, lines):
        found = [ln for ln in lines if ln.startswith("WEAK-GROUPLIKE ")]
        return (rc == 0 and len(found) == n and len(lines) == n + 1
                and lines[-1] == f"COUNT {n} (including zero if present)")
    return oracle


def expect_extension(rc, lines):
    return (rc == 0 and len(lines) > 1 and lines[0].startswith("BUILT ")
            and all(AXIOM_LINE.match(ln) and ln.endswith(" PASS") for ln in lines[1:]))


def _write(workdir, inst_or_doc):
    doc = inst_or_doc.to_doc() if isinstance(inst_or_doc, specgen.Instance) else inst_or_doc
    path = os.path.join(workdir, re.sub(r"[^A-Za-z0-9_.+-]", "_", doc["name"]) + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path, doc


def _check_ops(wh, workdir, items):
    """items: (instance, oracle, label); writes each spec and makes a check op."""
    ops, inputs = [], []
    for inst, oracle, label in items:
        path, doc = _write(workdir, inst)
        ops.append(cli_op(wh, f"check {label} {inst.name}", ["check", path], oracle))
        inputs.append((inst.name, doc, None))
    return ops, inputs


def _transported(rng, group, n):
    """M_n(kG) in the basis b'_a = b_a + c*b_b, a = t*E_12, b = E_11, c seeded."""
    inst = specgen.groupoid_algebra(group, n)
    a = specgen.groupoid_index(n, 1, 0, 1)
    b = specgen.groupoid_index(n, 0, 0, 0)
    return specgen.basis_change(inst, a, b, rng.choice(specgen.GENERIC_RATIONALS))


def setup_check_qq(wh, seed, workdir):
    rng = random.Random(f"check-qq/{seed}")
    z2, z3, s3 = specgen.cyclic(2), specgen.cyclic(3), specgen.symmetric3()
    m3z2 = _transported(rng, z2, 3)
    m2s3 = specgen.groupoid_algebra(s3, 2)
    unit_support = sorted(m2s3.unit)
    items = [
        (m3z2, expect_valid, "valid"),
        (_transported(rng, s3, 2), expect_valid, "valid"),
        (specgen.groupoid_algebra(z3, 3), expect_valid, "valid"),
        (_transported(rng, z2, 4), expect_valid, "valid"),
        (specgen.perturb_antipode(m3z2, rng.randrange(m3z2.dim), rng.randrange(m3z2.dim),
                                  rng.choice(specgen.GENERIC_RATIONALS)),
         expect_antipode_only, "antipode-perturbed"),
        (specgen.perturb_mult(m2s3, rng.choice(unit_support), rng.randrange(m2s3.dim),
                              rng.randrange(m2s3.dim), rng.choice(specgen.GENERIC_RATIONALS)),
         expect_unit_failure, "mult-perturbed"),
    ]
    ops, inputs = _check_ops(wh, workdir, items)
    return Plan(ops, inputs)


def setup_check_gfp(wh, seed, workdir):
    rng = random.Random(f"check-gfp/{seed}")
    prime = lambda: rng.choice(GF_PRIMES)
    nonzero = lambda p: rng.randrange(1, p)
    d4 = specgen.function_algebra(specgen.dihedral(4), prime())
    z8 = specgen.function_algebra(specgen.cyclic(8), prime())
    items = [
        (z8, expect_valid, "valid"),
        (d4, expect_valid, "valid"),
        (specgen.function_algebra(specgen.dihedral(5), prime()), expect_valid, "valid"),
        (specgen.groupoid_algebra(specgen.cyclic(2), 3, prime()), expect_valid, "valid"),
        (specgen.groupoid_algebra(specgen.symmetric3(), 2, prime()), expect_valid, "valid"),
        (specgen.perturb_antipode(d4, rng.randrange(d4.dim), rng.randrange(d4.dim),
                                  nonzero(d4.p)), expect_antipode_only, "antipode-perturbed"),
        (specgen.perturb_mult(z8, rng.randrange(z8.dim), rng.randrange(z8.dim),
                              rng.randrange(z8.dim), nonzero(z8.p)),
         expect_unit_failure, "mult-perturbed"),
    ]
    ops, inputs = _check_ops(wh, workdir, items)
    # Exhaustive scans of p^dim candidates. The counts include 0: |G|+1 for kG,
    # |Hom(G, F_p*)|+1 = gcd(|G|, p-1)+1 for cyclic k^G, and
    # sum_k C(n,k)*P(n,k)+1 for M_n(F_p).
    scans = [
        (specgen.groupoid_algebra(specgen.cyclic(4), 1, 7), 4 + 1),
        (specgen.function_algebra(specgen.cyclic(4), 7), math.gcd(4, 7 - 1) + 1),
        (specgen.groupoid_algebra(specgen.cyclic(1), 2, 7),
         sum(math.comb(2, k) * math.perm(2, k) for k in (1, 2)) + 1),
    ]
    for inst, count in scans:
        inst.name = f"{inst.name}/GF({inst.p})"
        path, doc = _write(workdir, inst)
        ops.append(cli_op(wh, f"grouplikes --brute {inst.name}", ["grouplikes", "--brute", path],
                          expect_count(count)))
        inputs.append((inst.name, doc, None))
    return Plan(ops, inputs)


def _library_op(name, fn, oracle, render):
    return Op(name, fn, lambda result: (render(result), oracle(result)))


def _verdict_passes(verdict):
    return verdict.passed and all(c.passed for c in verdict.clauses)


def setup_decide(wh, seed, workdir):
    rng = random.Random(f"decide/{seed}")
    QQ = wh.fields.QQ
    ops, built = [], []
    verdict_text = lambda v: "\n".join(v.lines())
    dim_text = lambda basis: f"dim {len(basis)}"
    for m, n in ((4, 2), (6, 2)):
        group = specgen.cyclic(m)
        pres = wh.groupoid.GroupPresentation(group.table, name=group.name)
        sign = rng.random() < 0.5
        rho = [QQ((-1) ** k if sign else 1) for k in range(m)]
        q = [rng.choice(specgen.GENERIC_RATIONALS) for _ in range(n)]
        data = wh.fixtures.twisted_derivation_data(pres, n, rho, q)
        label = f"M{n}(kZ{m})"
        built.append((label, data))
        args = (data.R, data.sigma, data.delta, data.g)
        for proc in ("panov_necessary", "panov_sufficient", "hopf_conditions"):
            ops.append(_library_op(f"{proc} {label}",
                                   lambda proc=proc, args=args: getattr(wh.panov, proc)(*args),
                                   _verdict_passes, verdict_text))
        # g = t*1 moves every basis element, so each b_k carries exactly one
        # (g,1)-coderivation direction b_k - g b_k: the space has dimension dim R.
        ops.append(_library_op(f"coderivation_space {label} (g,1)",
                               lambda R=data.R, g=data.g: wh.coderivations.coderivation_space(
                                   R, g, R.unit),
                               lambda basis, d=data.R.dim: len(basis) == d, dim_text))
    # k^G comes from the benchmark's own generator and is parsed the way
    # `weakhopf check` parses it, without the |G|^6 construction-time sweep.
    inputs = []
    for group in (specgen.dihedral(6), specgen.dihedral(8)):
        doc = specgen.function_algebra(group).to_doc()
        kg = wh.specfile.parse_spec(doc, validate=False).wb
        inputs.append((doc["name"], doc, None))
        expected = group.order - group.conjugacy_classes()
        ops.append(_library_op(f"coderivation_space {doc['name']} (1,1)",
                               lambda kg=kg: wh.coderivations.coderivation_space(
                                   kg, kg.unit, kg.unit),
                               lambda basis, e=expected: len(basis) == e, dim_text))

    def describe():
        out = []
        for label, data in built:
            bundle = wh.specfile.SpecBundle(field=data.R.field, wb=data.R, name=label,
                                            maps={"delta": data.delta})
            out.append(specgen.doc_stats(wh.specfile.emit_spec(bundle)) | {"name": label})
        return out
    return Plan(ops, inputs, describe)


def setup_ore_extend(wh, seed, workdir):
    rng = random.Random(f"ore-extend/{seed}")
    frac = lambda: str(rng.choice(specgen.GENERIC_RATIONALS))
    sign = lambda m: ",".join("1" if k % 2 == 0 else "-1" for k in range(m))
    specs = [  # (name, example argv, verify degree); delta != 0 needs rho = sign
        ("section5-Z2-n1", ["section5", "--group", "Z2", "--n", "1",
                            f"--rho={sign(2)}", f"--q={frac()}"], 4),
        ("section5-Z4-n1", ["section5", "--group", "Z4", "--n", "1",
                            f"--rho={sign(4)}", f"--q={frac()}"], 3),
        ("section5-Z6-n1", ["section5", "--group", "Z6", "--n", "1",
                            f"--rho={sign(6)}", f"--q={frac()}"], 3),
        ("sweedler", ["sweedler"], 8),
        ("section5-Z2-n2", ["section5", "--group", "Z2", "--n", "2",
                            f"--rho={rng.choice(['1,1', sign(2)])}", f"--q={frac()},{frac()}"], 3),
    ]
    ops, written = [], []
    for name, argv, degree in specs:
        path = os.path.join(workdir, name + ".json")
        rc, _ = run_cli(wh, ["example", *argv, "-o", path])
        if rc != 0:
            raise RuntimeError(f"weakhopf example {' '.join(argv)} exited {rc}")
        written.append((name, path, degree))
        ops.append(cli_op(wh, f"ore build {name} D={degree}",
                          ["ore", "build", path, "--verify-degree", str(degree)],
                          expect_extension))

    def describe():
        out = []
        for name, path, degree in written:
            with open(path, encoding="utf-8") as fh:
                out.append(specgen.doc_stats(json.load(fh), degree) | {"name": name})
        return out
    return Plan(ops, describe_extra=describe)


WORKLOADS = {
    "check-qq": setup_check_qq,
    "check-gfp": setup_check_gfp,
    "decide": setup_decide,
    "ore-extend": setup_ore_extend,
}


def describe(plan):
    """Instance statistics for the results file (not part of the timed set-up)."""
    out = [specgen.doc_stats(doc, degree) | {"name": name} for name, doc, degree in plan.inputs]
    if plan.describe_extra is not None:
        out.extend(plan.describe_extra())
    return out
