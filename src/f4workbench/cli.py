"""Command-line driver: verification suites, dumps, and golden files.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage
error or bad input, 3 I/O error.  Every report is JSON with one record
per check, each carrying a stable descriptive id, and the seed used for
sampled families so runs are reproducible.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .exactnum import ONE, Scalar, ZERO, sca


@dataclass
class Config:
    dimension_cap: int = 512
    nmax: Optional[int] = None          # defaults to 2*deg + 2 per element
    degree_cap: int = 4
    seed: int = 20240801
    parallelism: int = 1                # accepted for old config files

    def __post_init__(self):
        if self.dimension_cap <= 0 or self.degree_cap <= 0:
            raise ValueError("config values must be positive")
        if self.parallelism != 1:
            raise ValueError("parallelism must be 1: the checks of a suite "
                             "share state and run in order")

    @staticmethod
    def load(path: str) -> "Config":
        text = open(path).read()
        data = None
        if path.endswith(".json"):
            data = json.loads(text)
        else:
            try:
                import tomllib
                data = tomllib.loads(text)
            except ModuleNotFoundError:
                data = _mini_toml(text)
        known = {"dimension_cap", "nmax", "degree_cap", "seed", "parallelism"}
        kwargs = {k: v for k, v in data.items() if k in known}
        return Config(**kwargs)


def _mini_toml(text: str) -> dict:
    """Flat key = value lines with integer or quoted-string values."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("unsupported config line: %r" % line)
        k, v = (s.strip() for s in line.split("=", 1))
        if v.startswith('"') and v.endswith('"'):
            out[k] = v[1:-1]
        else:
            out[k] = int(v)
    return out


@dataclass
class Report:
    suite: str
    seed: int
    checks: List[dict] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def as_dict(self) -> dict:
        passes = sum(1 for c in self.checks if c["status"] == "pass")
        return {
            "suite": self.suite,
            "seed": self.seed,
            "checks": self.checks,
            "summary": {"pass": passes, "fail": len(self.checks) - passes},
            "wall_time_seconds": round(self.wall_time, 3),
        }


Check = Tuple[str, Callable[[], Tuple[bool, Optional[str]]]]


def _run_checks(suite: str, cfg: Config, checks: List[Check]) -> Report:
    """Run the checks in order; later checks may read what earlier built."""
    report = Report(suite=suite, seed=cfg.seed)
    for cid, fn in checks:
        try:
            ok, witness = fn()
        except Exception as exc:   # a crash is a failed check with witness
            ok, witness = False, "%s: %s" % (type(exc).__name__, exc)
        rec = {"id": cid, "status": "pass" if ok else "fail"}
        if not ok:
            rec["witness"] = witness or "unspecified"
        report.checks.append(rec)
    return report


def _ok(cond: bool, witness: str = None) -> Tuple[bool, Optional[str]]:
    return (bool(cond), None if cond else (witness or "condition failed"))


# ---------------------------------------------------------------------------
# suite definitions
# ---------------------------------------------------------------------------


def suite_model(cfg: Config) -> Report:
    from .liealg import build_f4_model, verify_model
    bat = verify_model(build_f4_model())
    return Report(suite="model", seed=cfg.seed,
                  checks=[r.as_dict() for r in bat.results])


def suite_transversality(cfg: Config) -> Report:
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
    return _run_checks("transversality", cfg, checks)


def suite_omega(cfg: Config) -> Report:
    from .uea import model_engine, omega_normalized
    from .balg import check_b_membership
    from .repth import degree_machine
    me = model_engine()
    rep = omega_normalized(me)
    om = rep.omega
    dm = degree_machine(me)
    nmax = cfg.nmax or 6

    checks = [
        ("projected Casimir has polynomial degree 2",
         lambda: _ok(om.degree == 2)),
        ("leading coefficient normalized to 1",
         lambda: _ok(om.coeff(2) == me.g.one())),
        ("middle coefficient is a nonzero scalar",
         lambda: _ok(bool(rep.omega1_scalar)
                     and rep.omega1_scalar.is_rational(),
                     str(rep.omega1_scalar))),
        ("constant coefficient in span{1, centralizer Casimir}",
         lambda: _ok(rep.casimir_m_coeff != ZERO,
                     "solved (%r, %r)" % (rep.casimir_m_coeff,
                                          rep.constant_coeff))),
        ("constant coefficient degree at most 4",
         lambda: _ok(dm.degree(om.coeff(0)) <= cfg.degree_cap)),
        ("membership equations for the projected Casimir",
         lambda: _ok(check_b_membership(me, om, nmax=nmax).passed)),
        ("membership equations for its square",
         lambda: _ok(check_b_membership(me, om.mul(om, me.g),
                                        nmax=nmax).passed)),
    ]
    return _run_checks("omega", cfg, checks)


def suite_balg(cfg: Config) -> Report:
    from .uea import model_engine, omega_normalized, PBWEngine
    from .balg import (CentralArg, check_congruences, check_triangular,
                       default_nmax, discrete_derivative, epsilon_ln,
                       evaluate_poly, iwasawa_to_poly, phi_poly,
                       poly_to_iwasawa, PolyUEA, shift_substitute,
                       t_matrix_entry)
    from math import factorial
    me = model_engine()
    om = omega_normalized(me).omega
    rng = random.Random(cfg.seed)

    def phi_axioms():
        for n in range(1, 7):
            d = discrete_derivative(phi_poly(n), 1)
            if d.trim().coeffs != phi_poly(n - 1).to_x().trim().coeffs:
                return False, "difference recursion fails at %d" % n
            from .balg import phi_value_at
            if phi_value_at(n, Fraction(0)) != 0:
                return False, "vanishing at zero fails at %d" % n
        return True, None

    def t_identity():
        e_elt = me.lie_in_mixed(me.model.distinguished["E"])
        for j in range(5):
            for i in range(j + 1):
                t = t_matrix_entry(me, i, j)
                d = me.g.ad_power(e_elt, t, j - i)
                scalef = Fraction((-1) ** (j - i) * factorial(j), 2 ** (j - i))
                expect = PBWEngine.scale(
                    sca(scalef), me.g.gen("E", j - i) if j > i else me.g.one())
                if d != expect:
                    return False, "entry (%d,%d)" % (i, j)
        return True, None

    def raising_identities():
        from .liealg import el_scale
        h = me.model.distinguished["H"]
        yt = me.model.distinguished["Ytilde"]
        raiser_e = me.lie_in_mixed(me.model.distinguished["E"])
        raiser_d = me.lie_in_mixed(me.model.distinguished["Xdelta"])
        xdelta = me.g.gen("Xdelta")
        for k in range(5):
            argh = CentralArg(me, Fraction(0), h)
            got = me.g.ad_power(raiser_e, argh.power(k), k)
            expect = PBWEngine.scale(
                sca(Fraction(factorial(k) * (-1) ** k, 2 ** k)),
                me.g.gen("E", k) if k else me.g.one())
            if got != expect:
                return False, "torus power identity at %d" % k
            val = evaluate_poly(me, phi_poly(k), argh)
            if me.g.ad_power(raiser_e, val, k) != PBWEngine.scale(
                    sca(Fraction((-1) ** k, 2 ** k)),
                    me.g.gen("E", k) if k else me.g.one()):
                return False, "basis-evaluated identity at %d" % k
            argy = CentralArg(me, Fraction(0), el_scale(-ONE, yt))
            got2 = me.g.ad_power(raiser_d, argy.power(k), k)
            if got2 != PBWEngine.scale(sca(factorial(k) * (-1) ** k),
                                       me.g.power(xdelta, k)):
                return False, "argument power identity at %d" % k
            val2 = evaluate_poly(me, phi_poly(k),
                                 CentralArg(me, Fraction(3), el_scale(-ONE, yt)))
            if me.g.ad_power(raiser_d, val2, k) != PBWEngine.scale(
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
                coeffs.append(PBWEngine.scale(c, me.g.gen(lab))
                              if lab else PBWEngine.scale(c, me.g.one()))
            b = PolyUEA(coeffs, "x").trim()
            nmax = default_nmax(max(b.degree, 0))
            direct = check_congruences(me, poly_to_iwasawa(b), nmax).passed
            tri = check_triangular(me, shift_substitute(me, b)).passed
            if direct != tri:
                return False, "equivalence fails on a sampled input"
        return True, None

    def omega_consequences():
        e_elt = me.lie_in_mixed(me.model.distinguished["E"])
        m = om.degree
        c = shift_substitute(me, iwasawa_to_poly(om)).to_phi()
        for j in range(m + 1):
            if me.reduce_mod_mplus(me.g.ad_power(e_elt, c.coeff(j), m + 1)):
                return False, "substituted coefficient %d" % j
        bpoly = iwasawa_to_poly(om)
        for j in range(m + 1):
            if me.reduce_mod_mplus(
                    me.g.ad_power(e_elt, bpoly.coeff(j), 2 * m + 1 - j)):
                return False, "raw coefficient %d" % j
        return True, None

    def epsilon_family():
        c = shift_substitute(me, iwasawa_to_poly(om))
        for l in range(4):
            for n in range(4):
                if me.reduce_mod_mplus(epsilon_ln(me, c, l, n)):
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
    return _run_checks("balg", cfg, checks)


def suite_repth(cfg: Config) -> Report:
    from .uea import model_engine, invariants_up_to_degree, PBWEngine
    from .repth import (build_module, degree_additivity, degree_machine,
                        m_generators, m_invariants, verify_hw3iv,
                        verify_techo, weyl_dimension, xi_weight)
    me = model_engine()
    rng = random.Random(cfg.seed)
    labels = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    modules = {}

    def mk_dim(kl):
        def fn():
            ctx = modules.get(kl) or build_module(me, *kl,
                                                  cap=cfg.dimension_cap)
            modules[kl] = ctx
            want = weyl_dimension(xi_weight(*kl))
            return _ok(ctx.rep.dim == want,
                       "dim %d vs %d" % (ctx.rep.dim, want))
        return fn

    def mk_inv(kl):
        def fn():
            ctx = modules[kl]
            inv = m_invariants(ctx, me)
            return _ok(len(inv) == 1, "multiplicity %d" % len(inv))
        return fn

    def mk_hw(kl):
        def fn():
            r = verify_hw3iv(modules[kl], me, *kl)
            return _ok(r.ok, "; ".join(r.details[:3]))
        return fn

    def mk_techo(kl):
        def fn():
            r = verify_techo(modules[kl], me, *kl)
            return _ok(r.ok, "; ".join(r.details[:3]))
        return fn

    checks = []
    for kl in labels:
        checks.append(("module (%d,%d): dimension matches the product formula"
                       % kl, mk_dim(kl)))
    for kl in labels:
        checks.append(("module (%d,%d): invariant multiplicity measured"
                       % kl, mk_inv(kl)))
        checks.append(("module (%d,%d): raising vanishing boundary" % kl,
                       mk_hw(kl)))
        checks.append(("module (%d,%d): lowering-chain identities" % kl,
                       mk_techo(kl)))

    def degree_checks():
        gens = [me.lie_in_mixed(me.model.k_element_in_g(g))
                for g in m_generators(me)]
        lw = {i: me.model.k_t_weights[i][1:] for i in range(36)}
        inv2 = invariants_up_to_degree(me.g, gens, 2, label_weights=lw,
                                       label_limit=36)
        dm = degree_machine(me)
        if dm.degree(me.g.one()) != 0:
            return False, "unit degree"
        for _ in range(20):
            u = me.g.zero()
            for b in inv2:
                u = PBWEngine.add(u, PBWEngine.scale(sca(rng.randint(-3, 3)), b))
            if u and dm.degree(u) > 4:
                return False, "bound violated"
        return True, None

    checks.append(("filtration bound on sampled invariants", degree_checks))
    return _run_checks("repth", cfg, checks)


def suite_combin(cfg: Config) -> Report:
    from .uea import model_engine, omega_normalized
    from .combin import (assemble_system, degree_profile,
                         determinant_factorization, dk_operator,
                         index_sets, system_matches_generalized, u_element,
                         weight_of)
    from .repth import degree_machine
    from .uea import model_casimir_m, PBWEngine
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
        lead = me.g.mul(me.g.gen("Xdelta"),
                        me.uea_of(me.model.distinguished["X4"]))
        if me.reduce_mod_y(PBWEngine.sub(u, lead)):
            return False, "leading congruence"
        return True, None

    def dk_checks():
        dm = degree_machine(me)
        comps = dm.components(model_casimir_m(me))
        b20 = comps[(2, 0)]
        x1 = me.lie_in_mixed(me.model.distinguished["X1"])
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
        rep = assemble_system(me, om, 2, [(1, 0), (0, 1), (2, 1)])
        return _ok(rep.passed, str(rep.direct_residuals))

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
    return _run_checks("combin", cfg, checks)


SUITES = {
    "model": suite_model,
    "transversality": suite_transversality,
    "balg": suite_balg,
    "repth": suite_repth,
    "combin": suite_combin,
    "omega": suite_omega,
}


def run_suite(name: str, cfg: Config) -> Report:
    """Run one suite, or all of them; wall_time covers the whole call,
    including the model and engine setup the suite pays for."""
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    t0 = time.perf_counter()
    if name == "all":
        report = Report(suite="all", seed=cfg.seed)
        for sub in ("model", "transversality", "omega", "balg", "repth",
                    "combin"):
            report.checks.extend(dict(c, id="%s: %s" % (sub, c["id"]))
                                 for c in SUITES[sub](cfg).checks)
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="TOML or JSON config file")
    common.add_argument("--json", dest="json_out", help="write the report here")
    common.add_argument("--seed", type=int, help="seed for sampled families")

    p = argparse.ArgumentParser(prog="f4workbench", parents=[common],
                                description=__doc__.splitlines()[0])
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


def _read_input(path: str):
    """The JSON held in path, read before any model is built.

    OSError propagates (exit 3); a file that is not JSON raises BadInput
    (exit 2).
    """
    with open(path) as fh:
        try:
            return json.loads(fh.read())
        except ValueError as exc:
            raise BadInput("bad input %s: %s" % (path, exc)) from exc


def _load_element(me, path: str, data):
    """Deserialize the IwasawaElement read from path by _read_input.

    An unknown label or a bad coefficient string raises BadInput (exit 2).
    """
    from .uea import IwasawaElement
    try:
        return IwasawaElement.deserialize(me.g, data)
    except KeyError as exc:
        raise BadInput("bad input %s: unknown label %s" % (path, exc)) from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise BadInput("bad input %s: %s" % (path, exc)) from exc


def _emit(payload: dict, json_out: Optional[str]) -> None:
    text = json.dumps(payload, indent=1, sort_keys=False)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage()
        return 2
    cfg = Config()
    try:
        if args.config:
            cfg = Config.load(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
    except (OSError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            rep = run_suite(args.suite, cfg)
            _emit(rep.as_dict(), args.json_out)
            return 0 if rep.ok else 1

        if args.command == "golden":
            emit_golden(args.target, args.out)
            return 0

        if args.command == "rootdata":
            from .rootdata import dump_f4
            _emit(dump_f4(), args.json_out)
            return 0

        if args.command == "liealg":
            rep = run_suite("model", cfg)
            _emit(rep.as_dict(), args.json_out)
            return 0 if rep.ok else 1

        if args.command == "uea":
            _emit(json.loads(golden_omega()), args.json_out)
            return 0

        if args.command == "balg":
            from .uea import model_engine
            from .balg import check_b_membership
            data = _read_input(args.input)
            me = model_engine()
            elem = _load_element(me, args.input, data)
            rep = check_b_membership(me, elem, nmax=args.nmax or cfg.nmax)
            _emit(rep.as_dict(), args.json_out)
            return 0 if rep.passed else 1

        if args.command == "repth":
            from .uea import model_engine
            from .repth import (build_module, m_invariants, verify_hw3iv,
                                verify_techo)
            me = model_engine()
            ctx = build_module(me, args.k, args.l, cap=cfg.dimension_cap)
            inv = m_invariants(ctx, me)
            r1 = verify_hw3iv(ctx, me, args.k, args.l)
            r2 = verify_techo(ctx, me, args.k, args.l)
            payload = {
                "label": [args.k, args.l],
                "dimension": ctx.rep.dim,
                "invariant_multiplicity": len(inv),
                "vanishing_boundary": {"ok": r1.ok, "details": r1.details},
                "chain_identities": {"ok": r2.ok, "details": r2.details},
            }
            _emit(payload, args.json_out)
            return 0 if (r1.ok and r2.ok) else 1

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
    from .combin import (assemble_system, determinant_factorization,
                         index_sets, system_matrix)
    import itertools
    if args.action == "matrix":
        if args.T is None or args.n is None or args.m is None:
            print("matrix requires --T --n --m", file=sys.stderr)
            return 2
        sets = index_sets(args.m, args.T, args.n)
        sm = system_matrix(args.T, args.n, args.m, reduced=args.reduced)
        payload = {
            "L": list(sets.L),
            "R": list(sets.R_reduced if args.reduced else sets.R),
            "entries": [[e.to_string() for e in row] for row in sm.entries],
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
        from .uea import model_engine, omega_normalized
        data = _read_input(args.input) if args.input else None
        me = model_engine()
        if args.input:
            elem = _load_element(me, args.input, data)
        else:
            elem = omega_normalized(me).omega
        T = args.T if args.T is not None else 2
        n = args.n if args.n is not None else 0
        pairs = [(l, n) for l in range(0, T - n + 1) if (l, n) != (n, n)] \
            or [(0, n)]
        rep = assemble_system(me, elem, T, pairs)
        payload = {
            "T": T,
            "pairs": [list(p) for p in rep.n_l_pairs],
            "direct_residual_monomials":
                {str(k): v for k, v in rep.direct_residuals.items()},
            "typed_residual_monomials":
                {str(k): v for k, v in rep.typed_residuals.items()},
            "combined_residual_monomials":
                {str(k): v for k, v in rep.script_e_residuals.items()},
            "passed": rep.passed,
        }
        _emit(payload, args.json_out)
        return 0 if rep.passed else 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
