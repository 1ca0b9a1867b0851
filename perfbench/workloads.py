"""The four benchmark workloads.

Each workload is a pair of functions.  ``run(me, seed)`` is the timed part:
it calls the program's public functions and returns what they produced.
``check(me, state)`` runs after the timer has stopped and returns
``(attempted, failed, problems)``: an operation is a check, a degree call,
a membership call or a module build, and ``problems`` lists every property
the outputs violate (empty when they are correct).

The program's own modules are imported inside the functions, because the
sample process puts the checkout's ``src`` on ``sys.path`` first.
"""

import random

DEFAULT_SEED = 20240801

# verify_all: the checks each suite defines at this commit.
SUITE_CHECKS = {"model": 52, "transversality": 3, "omega": 7, "balg": 6,
                "repth": 21, "combin": 6}

# degree_products: each combination gives every basis invariant a random
# coefficient of 1 to 30 bits and a random sign.  Coefficients in -3..3
# cancel whole isotypic components on some seeds (a combination of all four
# invariants lost its (2,0) part), which changes the Krylov dimension and the
# work; at this width a cancellation has odds of about 2**-30 per component,
# so every seed does the same work.
COEFF_BITS = 30
DEGREE_SAMPLES = 4

# membership_powers
NMAX = 6
POWERS = (1, 2, 3)

# modules_large: past the default 512 cap, which is a fixed input here.
MODULE_LABEL = (1, 2)
MODULE_CAP = 1024


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

def run_verify_all(me, seed):
    from f4workbench.cli import Config, run_suite
    return run_suite("all", Config(seed=seed, parallelism=1))


def check_verify_all(me, report):
    """A failing check counts as a failed operation, not as a wrong output."""
    counts = {}
    for c in report.checks:
        suite = c["id"].split(":", 1)[0]
        counts[suite] = counts.get(suite, 0) + 1
    problems = []
    if counts != SUITE_CHECKS:
        problems.append("checks executed per suite %r, defined %r"
                        % (counts, SUITE_CHECKS))
    failed = sum(1 for c in report.checks if c["status"] != "pass")
    return len(report.checks), failed, problems


# ---------------------------------------------------------------------------
# degree_products
# ---------------------------------------------------------------------------

def _coefficients(seed, n_basis):
    rng = random.Random(seed)

    def draw(n):
        return [rng.choice((-1, 1)) * rng.randrange(1, 2 ** COEFF_BITS)
                for _ in range(n)]
    samples = [draw(n_basis) for _ in range(DEGREE_SAMPLES)]
    return samples, draw(2), draw(2)


def _combine(coeffs, basis):
    from f4workbench.exactnum import sca
    from f4workbench.uea import PBWEngine
    out = {}
    for c, b in zip(coeffs, basis):
        out = PBWEngine.add(out, PBWEngine.scale(sca(c), b))
    return out


def _degree(components):
    """The Kostant degree as DegreeMachine.degree reads it off components."""
    return max((k + 2 * l for (k, l) in components), default=0)


def run_degree_products(me, seed):
    from f4workbench.repth import degree_machine, m_generators
    from f4workbench.uea import invariants_up_to_degree
    gens = [me.lie_in_mixed(me.model.k_element_in_g(g))
            for g in m_generators(me)]
    weights = {i: me.model.k_t_weights[i][1:] for i in range(36)}
    basis = invariants_up_to_degree(me.g, gens, 2, label_weights=weights,
                                    label_limit=36)
    samples, cu, cv = _coefficients(seed, len(basis))
    # u and v span the two smallest invariants (the unit and a quadratic), so
    # the degree-8 product u*v has three components instead of the eight of
    # two generic invariants, and a sample stays short.
    smallest = sorted(basis, key=len)[:2]
    u = _combine(cu, smallest)
    v = _combine(cv, smallest)
    inputs = [_combine(c, basis) for c in samples] + [u, v, me.g.mul(u, v)]
    dm = degree_machine(me)
    return {"dm": dm, "inputs": inputs, "seed": seed,
            "components": [dm.components(x) for x in inputs]}


def check_degree_products(me, state):
    """Sum, eigen-action, bound and additivity checks on every degree call.

    The eigen-action check applies the Casimir once per call, to a random
    combination w = sum mu_c c of the components c, and compares it with
    sum mu_c lambda(c) c.  If some component were not an eigenvector for the
    eigenvalue of its label, the two sides would differ for all mu off one
    hyperplane; with 30-bit mu drawn from the seed a false pass has odds of
    about 2**-30, at a sixth of the cost of one application per component.
    """
    from f4workbench.exactnum import sca
    from f4workbench.repth import xi_weight
    from f4workbench.uea import PBWEngine
    dm, inputs, comps = state["dm"], state["inputs"], state["components"]
    rng = random.Random(state["seed"])
    problems = []
    for i, (x, cs) in enumerate(zip(inputs, comps)):
        total, mixed, expect = {}, {}, {}
        for label, comp in cs.items():
            total = PBWEngine.add(total, comp)
            mu = sca(rng.randrange(1, 2 ** COEFF_BITS))
            lam = sca(dm.casimir_eigenvalue(xi_weight(*label)))
            mixed = PBWEngine.add(mixed, PBWEngine.scale(mu, comp))
            expect = PBWEngine.add(expect, PBWEngine.scale(mu * lam, comp))
        if total != x:
            problems.append("input %d: components do not sum to the input" % i)
        if dm.casimir_apply(mixed) != expect:
            problems.append("input %d: the Casimir does not act on each "
                            "component by the eigenvalue of its label" % i)
    degrees = [_degree(cs) for cs in comps]
    for i, d in enumerate(degrees[:DEGREE_SAMPLES]):
        if d > 4:
            problems.append("sample %d: degree %d exceeds 4" % (i, d))
    d_u, d_v, d_uv = degrees[DEGREE_SAMPLES:]
    if d_uv != d_u + d_v:
        problems.append("degree(uv) = %d != %d + %d" % (d_uv, d_u, d_v))
    return len(inputs), 0, problems


# ---------------------------------------------------------------------------
# membership_powers
# ---------------------------------------------------------------------------

def _control(me, omega):
    """omega with its Z coefficient shifted by 1: not a member."""
    from f4workbench.uea import IwasawaElement, PBWEngine
    coeffs = [dict(c) for c in omega.coeffs]
    coeffs[1] = PBWEngine.add(coeffs[1], me.g.one())
    return IwasawaElement(coeffs)


def run_membership_powers(me, seed):
    from f4workbench.balg import check_b_membership
    from f4workbench.uea import omega_normalized
    omega = omega_normalized(me).omega
    power = omega
    reports = []
    for k in POWERS:
        if k > 1:
            power = power.mul(omega, me.g)
        reports.append(check_b_membership(me, power, nmax=NMAX))
    control = check_b_membership(me, _control(me, omega), nmax=NMAX)
    return {"reports": reports, "control": control}


def check_membership_powers(me, state):
    problems = ["omega^%d is rejected" % k
                for k, rep in zip(POWERS, state["reports"]) if not rep.passed]
    if state["control"].passed:
        problems.append("the shifted control is accepted")
    return len(POWERS) + 1, 0, problems


# ---------------------------------------------------------------------------
# modules_large
# ---------------------------------------------------------------------------

def run_modules_large(me, seed):
    from f4workbench.repth import (build_module, m_invariants, verify_hw3iv,
                                   verify_techo)
    ctx = build_module(me, *MODULE_LABEL, cap=MODULE_CAP)
    return {"dim": ctx.rep.dim,
            "invariants": m_invariants(ctx, me),
            "boundary": verify_hw3iv(ctx, me, *MODULE_LABEL),
            "chain": verify_techo(ctx, me, *MODULE_LABEL)}


def check_modules_large(me, state):
    from f4workbench.repth import weyl_dimension, xi_weight
    problems = []
    want = weyl_dimension(xi_weight(*MODULE_LABEL))
    if state["dim"] != want:
        problems.append("dimension %d, Weyl formula %d" % (state["dim"], want))
    if len(state["invariants"]) != 1:
        problems.append("invariant multiplicity %d" % len(state["invariants"]))
    for name in ("boundary", "chain"):
        rep = state[name]
        if not rep.ok:
            problems.append("%s report: %s" % (name, "; ".join(rep.details[:3])))
    return 4, 0, problems


WORKLOADS = {
    "verify_all": (run_verify_all, check_verify_all),
    "degree_products": (run_degree_products, check_degree_products),
    "membership_powers": (run_membership_powers, check_membership_powers),
    "modules_large": (run_modules_large, check_modules_large),
}

# Operations one round attempts; a round whose process dies counts them all
# as failed.
OPS_PER_ROUND = {
    "verify_all": sum(SUITE_CHECKS.values()),
    "degree_products": DEGREE_SAMPLES + 3,
    "membership_powers": len(POWERS) + 1,
    "modules_large": 4,
}
