"""Command-line driver: verification suites, dumps, and golden files.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage
error or bad input, 3 I/O error.  Every command that runs checks writes
one JSON schema, reporting.Report.as_dict(): one record per check, each
carrying a stable descriptive id, the seed used for sampled families so
runs are reproducible, the setup time and the wall time; a run that
built the model engine adds memo_entries, the size of its straightening
tables.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from .exactnum import ONE, ZERO, add, sca, scale, sub
from .reporting import Report


@dataclass
class Config:
    dimension_cap: int = 512
    nmax: Optional[int] = None          # defaults to 2*deg + 2 per element
    seed: int = 20240801
    parallelism: int = 1                # accepted for old config files

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "nmax":
                continue
            if type(value) is not int:          # a bool is not a count
                raise ValueError("%s must be an integer, not %r"
                                 % (f.name, value))
        if self.dimension_cap <= 0:
            raise ValueError("dimension_cap must be positive")
        if self.nmax is not None and self.nmax < 1:
            raise ValueError("nmax must be at least 1, not %d" % self.nmax)
        if self.parallelism != 1:
            raise ValueError("parallelism must be 1: the checks of a suite "
                             "share state and run in order")

    @staticmethod
    def load(path: str) -> "Config":
        with open(path) as f:
            text = f.read()
        if path.endswith(".json"):
            data = json.loads(text)
        else:
            import tomllib          # imported only when a TOML file is read
            data = tomllib.loads(text)
        if not isinstance(data, dict):
            raise ValueError("%s must hold an object of keys" % path)
        unknown = sorted(set(data) - {f.name for f in fields(Config)})
        if unknown:
            raise ValueError("unknown key %s in %s" % (unknown[0], path))
        return Config(**data)


def _ok(cond: bool, witness: str = None) -> Tuple[bool, Optional[str]]:
    return bool(cond), witness


# ---------------------------------------------------------------------------
# suite definitions
# ---------------------------------------------------------------------------


def _outcome(rep: Report) -> Tuple[bool, Optional[str]]:
    """A nested report as one check: its status, and its first failures."""
    return rep.ok, "; ".join(rep.details[:3])


# Each suite starts its report first, so that imports and the model and
# engine builds are charged to its setup_seconds.


def suite_model(cfg: Config) -> Report:
    rep = Report("model", cfg.seed)
    from .liealg import build_f4_model, verify_model
    model = build_f4_model()
    rep.end_setup()
    return verify_model(model, rep)


def suite_transversality(cfg: Config) -> Report:
    rep = Report("transversality", cfg.seed)
    from .liealg import (build_f4_model, transversality_rank,
                         transversality_rank_zero_map)
    model = build_f4_model()

    def mk(which, expect):
        def fn():
            rank, target = transversality_rank(model, which)
            return _ok(rank == expect == target,
                       "rank %d target %d" % (rank, target))
        return fn

    checks = [
        ("transversality map surjects onto the ideal orthocomplement",
         mk("T", 33)),
        ("extended transversality map surjects onto the fixed subalgebra",
         mk("Ttilde", 36)),
        ("zero anchor degenerates to the inclusion",
         lambda: _ok(transversality_rank_zero_map(model) == 27)),
    ]
    return rep.run(checks)


def suite_omega(cfg: Config) -> Report:
    rep = Report("omega", cfg.seed)
    from .uea import model_engine, omega_normalized
    from .balg import check_b_membership
    from .repth import degree_machine, label_degree
    me = model_engine()
    omr = omega_normalized(me)
    om = omr.omega
    dm = degree_machine(me)
    nmax = cfg.nmax or 6
    cap = 4                             # the paper's bound on omega_0

    def constant_degree():
        labels = sorted(dm.components(om.coeff(0)))
        d = label_degree(labels)
        return _ok(d <= cap, "degree %d > %d; components %s" % (
            d, cap, ", ".join(map(str, labels))))

    checks = [
        ("projected Casimir has polynomial degree 2",
         lambda: _ok(om.degree == 2)),
        ("leading coefficient normalized to 1",
         lambda: _ok(om.coeff(2) == me.g.one())),
        ("middle coefficient is a nonzero scalar",
         lambda: _ok(bool(omr.omega1_scalar)
                     and omr.omega1_scalar.is_rational(),
                     str(omr.omega1_scalar))),
        ("constant coefficient in span{1, centralizer Casimir}",
         lambda: _ok(omr.casimir_m_coeff != ZERO,
                     "solved (%r, %r)" % (omr.casimir_m_coeff,
                                          omr.constant_coeff))),
        ("constant coefficient degree at most %d" % cap, constant_degree),
        ("membership equations for the projected Casimir",
         lambda: _outcome(check_b_membership(me, om, nmax=nmax))),
        ("membership equations for its square",
         lambda: _outcome(check_b_membership(me, om.mul(om, me.g),
                                             nmax=nmax))),
    ]
    return rep.run(checks)


def suite_balg(cfg: Config) -> Report:
    rep = Report("balg", cfg.seed)
    from .uea import IwasawaElement, model_engine, omega_normalized
    from .balg import (check_congruences, check_triangular, default_nmax,
                       discrete_derivative, epsilon_ln, phi_poly,
                       shift_substitute, substitute, t_matrix_entry, to_phi)
    from math import factorial
    me = model_engine()
    om = omega_normalized(me).omega
    rng = random.Random(cfg.seed)

    def phi_axioms():
        for n in range(1, 7):
            d = discrete_derivative(phi_poly(n), 1)
            if d.coeffs != phi_poly(n - 1).coeffs:
                return False, "difference recursion fails at %d" % n
            if phi_poly(n).at(0):
                return False, "vanishing at zero fails at %d" % n
        return True, None

    def t_identity():
        e_elt = me.named["E"]
        for j in range(5):
            for i in range(j + 1):
                t = t_matrix_entry(me, i, j)
                d = me.g.ad_power(e_elt, t, j - i)
                scalef = Fraction((-1) ** (j - i) * factorial(j), 2 ** (j - i))
                expect = scale(sca(scalef), me.g.gen("E", j - i))
                if d != expect:
                    return False, "entry (%d,%d)" % (i, j)
        return True, None

    def raising_identities():
        h = me.g.from_lie(me.named["H"])
        neg_yt = me.g.from_lie(scale(-ONE, me.named["Ytilde"]))
        raiser_e = me.named["E"]
        raiser_d = me.named["Xdelta"]
        xdelta = me.g.gen("Xdelta")
        for k in range(5):
            got = me.g.ad_power(raiser_e, me.g.power(h, k), k)
            expect = scale(
                sca(Fraction(factorial(k) * (-1) ** k, 2 ** k)),
                me.g.gen("E", k))
            if got != expect:
                return False, "torus power identity at %d" % k
            val = substitute(me, phi_poly(k), h).at(0)
            if me.g.ad_power(raiser_e, val, k) != scale(
                    sca(Fraction((-1) ** k, 2 ** k)), me.g.gen("E", k)):
                return False, "basis-evaluated identity at %d" % k
            got2 = me.g.ad_power(raiser_d, me.g.power(neg_yt, k), k)
            if got2 != scale(sca(factorial(k) * (-1) ** k),
                             me.g.power(xdelta, k)):
                return False, "argument power identity at %d" % k
            val2 = substitute(me, phi_poly(k), neg_yt).at(3)
            if me.g.ad_power(raiser_d, val2, k) != scale(
                    sca((-1) ** k), me.g.power(xdelta, k)):
                return False, "shifted basis identity at %d" % k
        return True, None

    def equivalence_sampled():
        labels = ["Xdelta", "E", "X2", "T23", "S24", "Ht2", None]
        for _ in range(8):
            coeffs = []
            for _ in range(3):
                lab = labels[rng.randrange(len(labels))]
                c = sca(rng.randint(-2, 2))
                coeffs.append(scale(c, me.g.gen(lab))
                              if lab else scale(c, me.g.one()))
            b = IwasawaElement(coeffs).trim()
            nmax = default_nmax(max(b.degree, 0))
            direct = check_congruences(me, b, nmax).ok
            tri = check_triangular(me, shift_substitute(me, b)).ok
            if direct != tri:
                return False, "equivalence fails on a sampled input"
        return True, None

    def omega_consequences():
        e_elt = me.named["E"]
        m = om.degree
        c = to_phi(shift_substitute(me, om))
        for j in range(m + 1):
            if me.reduce_mod_mplus(me.g.ad_power(e_elt, c[j], m + 1)):
                return False, "substituted coefficient %d" % j
        for j in range(m + 1):
            if me.reduce_mod_mplus(
                    me.g.ad_power(e_elt, om.coeff(j), 2 * m + 1 - j)):
                return False, "raw coefficient %d" % j
        return True, None

    def epsilon_family():
        cphi = to_phi(shift_substitute(me, om))
        for l in range(4):
            for n in range(4):
                if me.reduce_mod_mplus(epsilon_ln(me, cphi, l, n)):
                    return False, "(l, n) = (%d, %d)" % (l, n)
        return True, None

    checks = [
        ("difference-basis axioms", phi_axioms),
        ("torus-substitution matrix identity", t_identity),
        ("raising identities on argument powers", raising_identities),
        ("direct and triangular systems agree on a seeded family",
         equivalence_sampled),
        ("higher-difference vanishing on the projected Casimir",
         omega_consequences),
        ("mixed-difference combinations vanish on the projected Casimir",
         epsilon_family),
    ]
    return rep.run(checks)


def _module_checks(me, kl, cap: int, modules: dict) -> List[tuple]:
    """The dimension, invariant, boundary and chain checks of module kl.

    The first builds the module into modules; the others read it there.
    The build itself checks the dimension: build_irrep raises naming both
    the built and the predicted dimension when they differ.  When the
    build fails (on that check or on the dimension cap), modules holds
    the error instead, and the others fail with a witness naming it.
    """
    from .repth import build_module, m_invariants, verify_hw3iv, verify_techo

    def dim():
        try:
            modules[kl] = build_module(me, *kl, cap=cap)
        except Exception as exc:
            modules[kl] = exc
            raise
        return True, None

    def on_module(check):
        def fn():
            ctx = modules[kl]
            if isinstance(ctx, Exception):
                return False, "module (%d,%d) was not built: %s: %s" % (
                    *kl, type(ctx).__name__, ctx)
            return check(ctx)
        return fn

    def inv(ctx):
        n = len(m_invariants(ctx, me))
        return _ok(n == 1, "multiplicity %d" % n)

    return [
        ("module (%d,%d): dimension matches the product formula" % kl, dim),
        ("module (%d,%d): invariant multiplicity measured" % kl,
         on_module(inv)),
        ("module (%d,%d): raising vanishing boundary" % kl,
         on_module(lambda ctx: _outcome(verify_hw3iv(ctx, me, *kl)))),
        ("module (%d,%d): lowering-chain identities" % kl,
         on_module(lambda ctx: _outcome(verify_techo(ctx, me, *kl)))),
    ]


def suite_repth(cfg: Config) -> Report:
    rep = Report("repth", cfg.seed)
    from .uea import model_engine, invariants_up_to_degree
    from .repth import degree_machine, label_degree, m_generators
    me = model_engine()
    rng = random.Random(cfg.seed)
    labels = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    modules = {}
    per_module = [_module_checks(me, kl, cfg.dimension_cap, modules)
                  for kl in labels]
    # every dimension first, then each module's other three checks
    checks = [mc[0] for mc in per_module]
    checks += [c for mc in per_module for c in mc[1:]]

    def degree_checks():
        gens = m_generators(me)
        lw = {i: me.model.k_t_weights[i][1:] for i in range(me.n_k)}
        inv2 = invariants_up_to_degree(me.g, gens, 2, label_weights=lw,
                                       label_limit=me.n_k)
        dm = degree_machine(me)

        def degree(u):
            labels = sorted(dm.components(u))
            return label_degree(labels), ", ".join(map(str, labels))

        d, labels = degree(me.g.one())
        if d != 0:
            return False, "the unit has degree %d; components %s" % (d, labels)
        for i in range(20):
            u = me.g.zero()
            for b in inv2:
                u = add(u, scale(sca(rng.randint(-3, 3)), b))
            if not u:
                continue
            d, labels = degree(u)
            if d > 4:
                return False, ("sample %d has degree %d > 4; components %s"
                               % (i, d, labels))
        return True, None

    checks.append(("filtration bound on sampled invariants", degree_checks))
    return rep.run(checks)


def suite_combin(cfg: Config) -> Report:
    rep = Report("combin", cfg.seed)
    from .uea import model_engine, omega_normalized
    from .combin import (assemble_system, degree_profile,
                         determinant_factorization, dk_operator,
                         index_sets, system_matches_generalized, u_element,
                         weight_of)
    from .repth import degree_machine
    from .uea import model_casimir_m
    from .rootdata import gamma_basis, vadd, vscale
    import itertools
    me = model_engine()
    om = omega_normalized(me).omega

    def profile_table():
        for m in range(0, 5):
            prof = degree_profile(m)
            for r, d in enumerate(prof):
                if d != (3 * m - 2 * r + 2) // 2:
                    return False, "m=%d r=%d" % (m, r)
        return True, None

    def cross_eval():
        for m in (1, 2, 3):
            d0 = degree_profile(m)[0]
            for T in range(m, 2 * d0 + 1):
                for n in range(0, min(T, 2 * d0 - T) + 1):
                    if not system_matches_generalized(m, T, n):
                        return False, "(m,T,n)=(%d,%d,%d)" % (m, T, n)
        return True, None

    def det_split():
        for size in (1, 2, 3, 4):
            for lseq in itertools.combinations(range(0, 7), size):
                for delta in (0, 1):
                    fac = determinant_factorization(lseq, delta)
                    if not fac.splits:
                        return False, "lseq=%r delta=%d" % (lseq, delta)
        return True, None

    def u_checks():
        u, a, b = u_element(me)
        g = gamma_basis()
        if weight_of(me, u) != vadd(g["gamma4"], g["delta"]):
            return False, "weight"
        lead = me.g.mul(me.g.gen("Xdelta"), me.g.from_lie(me.named["X4"]))
        if me.reduce_mod_y(sub(u, lead)):
            return False, "leading congruence"
        return True, None

    def dk_checks():
        dm = degree_machine(me)
        comps = dm.components(model_casimir_m(me))
        b20 = comps[(2, 0)]
        x1 = me.named["X1"]
        g = gamma_basis()
        for k in range(0, 3):
            dk = dk_operator(me, b20, k)
            expect = vadd(vadd(g["gamma4"], g["delta"]),
                          vscale(k, g["gamma3"]))
            if weight_of(me, dk) != expect:
                return False, "weight at k=%d" % k
            if me.g.ad(x1, dk):
                return False, "annihilation at k=%d" % k
        return True, None

    def assembly():
        return _outcome(assemble_system(me, om, 2, [(1, 0), (0, 1), (2, 0)]))

    checks = [
        ("degree profile table", profile_table),
        ("numeric and polynomial systems agree at integer points", cross_eval),
        ("polynomial determinants split into rational linear factors",
         det_split),
        ("dominant quadratic element", u_checks),
        ("twisted raising combinations", dk_checks),
        ("assembled congruence sums vanish on the projected Casimir",
         assembly),
    ]
    return rep.run(checks)


# in the order verify all runs them
SUITES = {
    "model": suite_model,
    "transversality": suite_transversality,
    "omega": suite_omega,
    "balg": suite_balg,
    "repth": suite_repth,
    "combin": suite_combin,
}

# the suites that run on the model alone and never build the PBW engine
MODEL_ONLY_SUITES = ("model", "transversality")


def run_suite(name: str, cfg: Config) -> Report:
    """Run one suite, or all of them; wall_time covers the whole call,
    including the model and engine setup the suite pays for.  The report
    of all suites sums their setup_seconds."""
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    t0 = time.perf_counter()
    if name == "all":
        report = Report("all", cfg.seed)
        for sub, suite in SUITES.items():
            part = suite(cfg)
            report.checks.extend(dict(c, id="%s: %s" % (sub, c["id"]))
                                 for c in part.checks)
            report.setup_seconds += part.setup_seconds
    else:
        report = SUITES[name](cfg)
    report.wall_time = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# golden files
# ---------------------------------------------------------------------------


def golden_structure_constants() -> str:
    from .liealg import build_f4_model
    model = build_f4_model()
    alg = model.algebra
    table = {}
    for (i, j), v in sorted(alg.table.items()):
        key = "[%s, %s]" % (alg.labels[i], alg.labels[j])
        table[key] = {alg.labels[k]: c.to_string()
                      for k, c in sorted(v.items())}
    ktab = {}
    ka = model.k_algebra
    for (i, j), v in sorted(ka.table.items()):
        key = "[%s, %s]" % (ka.labels[i], ka.labels[j])
        ktab[key] = {ka.labels[k]: c.to_string()
                     for k, c in sorted(v.items())}
    return json.dumps({"ambient": table, "fixed_subalgebra": ktab},
                      indent=1, sort_keys=True)


def golden_rootdata() -> str:
    from .rootdata import dump_f4
    return json.dumps(dump_f4(), indent=1, sort_keys=True)


def golden_omega() -> str:
    from .uea import model_engine, omega_normalized
    me = model_engine()
    rep = omega_normalized(me)
    return json.dumps({
        "coefficients": rep.omega.serialize(me.g),
        "middle_scalar": rep.omega1_scalar.to_string(),
        "casimir_m_coeff": rep.casimir_m_coeff.to_string(),
        "constant_coeff": rep.constant_coeff.to_string(),
    }, indent=1, sort_keys=True)


GOLDENS = {
    "structure-constants": golden_structure_constants,
    "rootdata": golden_rootdata,
    "omega": golden_omega,
}


def emit_golden(target: str, path: str) -> None:
    if target not in GOLDENS:
        raise KeyError(target)
    data = GOLDENS[target]()
    with open(path, "w") as fh:
        fh.write(data + "\n")


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _common_options(default) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=default,
                        help="TOML or JSON config file")
    common.add_argument("--json", dest="json_out", default=default,
                        help="write the report here")
    common.add_argument("--seed", type=int, default=default,
                        help="seed for sampled families")
    return common


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="f4workbench",
                                parents=[_common_options(None)],
                                description=__doc__.splitlines()[0])
    # a subcommand sets only the options given after it, so one given
    # before it keeps its value
    common = _common_options(argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command")

    v = sub.add_parser("verify", parents=[common],
                       help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES) + ["all"])

    g = sub.add_parser("golden", parents=[common],
                       help="emit a deterministic golden file")
    g.add_argument("target", choices=sorted(GOLDENS))
    g.add_argument("--out", required=True)

    r = sub.add_parser("rootdata", parents=[common], help="root-system dumps")
    r.add_argument("action", choices=["dump"])
    r.add_argument("what", choices=["f4"])

    l = sub.add_parser("liealg", parents=[common],
                       help="structure-model commands")
    l.add_argument("action", choices=["verify-model"])

    u = sub.add_parser("uea", parents=[common],
                       help="enveloping-algebra commands")
    u.add_argument("action", choices=["omega"])

    b = sub.add_parser("balg", parents=[common], help="membership checks")
    b.add_argument("action", choices=["check-b"])
    b.add_argument("--input", required=True)
    b.add_argument("--nmax", type=int, default=None)

    rp = sub.add_parser("repth", parents=[common], help="module verification")
    rp.add_argument("action", choices=["verify"])
    rp.add_argument("--k", type=int, required=True)
    rp.add_argument("--l", type=int, required=True)

    c = sub.add_parser("combin", parents=[common],
                       help="combinatorial systems")
    c.add_argument("action", choices=["matrix", "dets", "assemble"])
    c.add_argument("--T", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--reduced", action="store_true")
    c.add_argument("--kmax", type=int, default=3)
    c.add_argument("--lmax", type=int, default=6)
    c.add_argument("--input")
    return p


class BadInput(Exception):
    """An input file that does not hold a serialized element."""


ELEMENT_SHAPE = ('a list of coefficient lists with at least one term, or an '
                 'object holding that list under "coefficients"; a term is '
                 '{"exponents": {label: positive int}, '
                 '"coeff": "a/b + c/d*sqrt2"}')


def _is_term(term) -> bool:
    return (isinstance(term, dict) and set(term) == {"exponents", "coeff"}
            and isinstance(term["coeff"], str)
            and isinstance(term["exponents"], dict)
            and all(type(e) is int and e > 0
                    for e in term["exponents"].values()))


def _read_input(path: str) -> list:
    """The coefficient lists held in path, read and checked for shape
    before any model is built.

    The file holds the list, or an object holding it under
    "coefficients" (as `uea omega` writes it).  OSError propagates (exit
    3); a file that is not JSON or holds any other shape raises BadInput
    (exit 2).
    """
    with open(path) as fh:
        try:
            data = json.loads(fh.read())
        except ValueError as exc:
            raise BadInput("bad input %s: %s" % (path, exc)) from exc
    if isinstance(data, dict):
        data = data.get("coefficients")
    if not (isinstance(data, list) and any(data)
            and all(isinstance(c, list) and all(map(_is_term, c))
                    for c in data)):
        raise BadInput("bad input %s: expected %s" % (path, ELEMENT_SHAPE))
    return data


def _load_element(me, path: str, data: list):
    """Deserialize the IwasawaElement read from path by _read_input.

    An unknown label, a bad coefficient string or a coefficient outside
    U(k) raises BadInput (exit 2).
    """
    from .uea import IwasawaElement
    try:
        elem = IwasawaElement.deserialize(me.g, data)
    except KeyError as exc:
        raise BadInput("bad input %s: unknown label %s" % (path, exc)) from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise BadInput("bad input %s: %s" % (path, exc)) from exc
    if not all(me.k_only(c) for c in elem.coeffs):
        raise BadInput("bad input %s: coefficients must lie in U(k)" % path)
    return elem


def _emit(payload: dict, json_out: Optional[str]) -> None:
    text = json.dumps(payload, indent=1, sort_keys=False)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _emit_report(rep: Report, json_out: Optional[str], me=None) -> int:
    """Write the report; a run that built the model engine me also gets
    memo_entries, the size of its straightening tables at the end."""
    payload = rep.as_dict()
    if me is not None:
        payload["memo_entries"] = me.g.memo_entries
    _emit(payload, json_out)
    return 0 if rep.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage()
        return 2
    for count in ("k", "l", "kmax", "lmax"):
        value = getattr(args, count, None)
        if value is not None and value < 0:
            print("--%s must be nonnegative, not %d" % (count, value),
                  file=sys.stderr)
            return 2
    cfg = Config()
    try:
        if args.config:
            cfg = Config.load(args.config)
        flags = {"seed": args.seed, "nmax": getattr(args, "nmax", None)}
        cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    except (OSError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            rep = run_suite(args.suite, cfg)
            me = None
            if args.suite not in MODEL_ONLY_SUITES:
                from .uea import model_engine
                me = model_engine()
            return _emit_report(rep, args.json_out, me)

        if args.command == "golden":
            emit_golden(args.target, args.out)
            return 0

        if args.command == "rootdata":
            from .rootdata import dump_f4
            _emit(dump_f4(), args.json_out)
            return 0

        if args.command == "liealg":
            return _emit_report(run_suite("model", cfg), args.json_out)

        if args.command == "uea":
            _emit(json.loads(golden_omega()), args.json_out)
            return 0

        if args.command == "balg":
            rep = Report("balg check-b", cfg.seed)
            from .uea import model_engine
            from .balg import check_b_membership
            data = _read_input(args.input)
            me = model_engine()
            elem = _load_element(me, args.input, data)
            rep.end_setup()
            try:
                check_b_membership(me, elem, nmax=cfg.nmax, rep=rep)
            except ValueError as exc:
                print("balg check-b: %s" % exc, file=sys.stderr)
                return 2
            return _emit_report(rep, args.json_out, me)

        if args.command == "repth":
            rep = Report("repth verify", cfg.seed)
            from .uea import model_engine
            me = model_engine()
            rep.run(_module_checks(me, (args.k, args.l), cfg.dimension_cap,
                                   {}))
            return _emit_report(rep, args.json_out, me)

        if args.command == "combin":
            return _combin_command(args, cfg)
        parser.print_usage()
        return 2
    except BadInput as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return 3


def _combin_command(args, cfg: Config) -> int:
    from .combin import (assemble_system, assembly_pairs,
                         determinant_factorization, index_sets, system_matrix)
    import itertools
    if args.action == "matrix":
        if args.T is None or args.n is None or args.m is None:
            print("matrix requires --T --n --m", file=sys.stderr)
            return 2
        try:
            sets = index_sets(args.m, args.T, args.n)
        except ValueError as exc:
            print("combin matrix: %s" % exc, file=sys.stderr)
            return 2
        sm = system_matrix(args.T, args.n, args.m, reduced=args.reduced)
        payload = {
            "L": list(sets.L),
            "R": list(sets.R_reduced if args.reduced else sets.R),
            "entries": [[e.to_string() for e in row] for row in sm],
        }
        _emit(payload, args.json_out)
        return 0
    if args.action == "dets":
        out = []
        for size in range(1, args.kmax + 2):
            for lseq in itertools.combinations(range(0, args.lmax + 1), size):
                for delta in (0, 1):
                    fac = determinant_factorization(lseq, delta)
                    out.append({
                        "lseq": list(lseq), "delta": delta,
                        "splits": fac.splits,
                        "roots": [str(r) for r in fac.roots],
                        "leading": fac.leading.to_string(),
                    })
        _emit({"factorizations": out}, args.json_out)
        return 0 if all(f["splits"] for f in out) else 1
    if args.action == "assemble":
        T = args.T if args.T is not None else 2
        n = args.n if args.n is not None else 0
        pairs = assembly_pairs(T, n)
        if not pairs:
            print("combin assemble: no pair (l,n) with l != n and "
                  "l + n <= T=%d for n=%d" % (T, n), file=sys.stderr)
            return 2
        rep = Report("combin assemble", cfg.seed)
        from .uea import model_engine, omega_normalized
        data = _read_input(args.input) if args.input else None
        me = model_engine()
        if args.input:
            elem = _load_element(me, args.input, data)
        else:
            elem = omega_normalized(me).omega
        rep.end_setup()
        try:
            assemble_system(me, elem, T, pairs, rep=rep)
        except ValueError as exc:
            print("combin assemble: %s" % exc, file=sys.stderr)
            return 2
        return _emit_report(rep, args.json_out, me)
    return 2


if __name__ == "__main__":
    sys.exit(main())
