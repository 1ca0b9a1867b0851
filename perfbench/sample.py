"""One benchmark sample, in a fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N --trace 0|1
        --src DIR --spawned-at T

Sets up the program as a command-line run does (import every module, build
the model engine), runs one round of the workload, stops the clock, then
checks the outputs.  Prints one JSON record as its last line.  With
``--trace 1`` setup and workload run under cProfile and the record carries
the per-layer figures instead of being used for end-to-end metrics.
"""

import argparse
import cProfile
import json
import os
import pstats
import resource
import sys
import time

MODULES = ("exactnum", "rootdata", "liealg", "uea", "balg", "repth", "combin",
           "cli", "reporting")


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _setup():
    import importlib
    for name in MODULES:
        importlib.import_module("f4workbench." + name)
    from f4workbench.uea import model_engine
    return model_engine()


def _krylov_probe():
    """Wrap DegreeMachine so each components call records its Krylov size.

    The Krylov dimension of a call is the number of Casimir applications it
    makes.  Returns the list the wrappers append to.
    """
    from f4workbench.repth import DegreeMachine
    applies = [0]
    dims = []
    apply, components = DegreeMachine.casimir_apply, DegreeMachine.components

    def casimir_apply(self, u):
        applies[0] += 1
        return apply(self, u)

    def components_probe(self, u):
        before = applies[0]
        try:
            return components(self, u)
        finally:
            dims.append(applies[0] - before)

    DegreeMachine.casimir_apply = casimir_apply
    DegreeMachine.components = components_probe
    return dims


def _code_key(fn):
    fn = getattr(fn, "__wrapped__", fn)
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_metrics(profile, me, krylov_dims):
    """Aggregate cProfile stats by defining module, plus named counters."""
    from f4workbench import balg, exactnum, liealg, repth, rootdata, uea
    stats = pstats.Stats(profile).stats
    pkg_dir = os.path.dirname(os.path.abspath(exactnum.__file__))
    out = {}
    for name in MODULES + ("other",):
        out[name + ".self_s"] = 0.0
        out[name + ".calls"] = 0
    for (filename, _, _), (_, nc, tt, _, _) in stats.items():
        module = "other"
        if os.path.dirname(os.path.abspath(filename)) == pkg_dir:
            stem = os.path.basename(filename)[:-3]
            module = stem if stem in MODULES else "other"
        out[module + ".self_s"] += tt
        out[module + ".calls"] += nc

    def calls(*fns):
        return sum(stats.get(_code_key(f), (0, 0))[1] for f in fns)

    def cumulative(fn):
        return stats.get(_code_key(fn), (0, 0, 0, 0.0))[3]

    S, M = exactnum.Scalar, exactnum.Matrix
    out["exactnum.scalar_ops"] = calls(S.__add__, S.__sub__, S.__neg__,
                                       S.__mul__, S.__truediv__, S.inverse,
                                       S.__pow__)
    out["exactnum.matrix_elims"] = calls(M.bareiss, M.rref, M.solve,
                                         M.nullspace)
    out["rootdata.f4_root_system_calls"] = calls(rootdata.f4_root_system)
    out["liealg.build_f4_model_calls"] = calls(liealg.build_f4_model)
    out["liealg.build_f4_model_s"] = cumulative(liealg.build_f4_model)
    E = uea.PBWEngine
    out["uea.mul_calls"] = calls(E.mul)
    out["uea.ad_calls"] = calls(E.ad)
    out["uea.reduce_mod_calls"] = calls(uea.reduce_mod)
    straighten = calls(E._mono_times_gen, E._gen_times_mono)
    memo = len(me.g._memo) + len(me.g._memo_left)
    out["uea.straighten_calls"] = straighten
    out["uea.memo_entries"] = memo
    # The engine starts with empty memos, so every entry was added here.
    out["uea.memo_miss_ratio"] = memo / straighten if straighten else 0.0
    out["balg.check_b_membership_calls"] = calls(balg.check_b_membership)
    out["repth.build_irrep_calls"] = calls(repth.build_irrep)
    out["repth.components_calls"] = len(krylov_dims)
    out["repth.casimir_apply_calls"] = sum(krylov_dims)
    out["repth.krylov_dim_max"] = max(krylov_dims, default=0)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'setup' to stop after setup")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    from workloads import WORKLOADS

    profile = cProfile.Profile() if args.trace else None
    if profile:
        profile.enable()
    me = _setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.workload == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    run, check = WORKLOADS[args.workload]
    krylov_dims = _krylov_probe() if profile else []

    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    state = run(me, args.seed)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if profile:
        profile.disable()

    record = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb}
    if profile:
        record["layers"] = layer_metrics(profile, me, krylov_dims)
    attempted, failed, problems = check(me, state)
    record.update(attempted=attempted, failed=failed, problems=problems)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
