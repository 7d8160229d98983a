"""Command-line harness.

Subcommands: generate, run, verify, decompose, experiment, bipartite,
pathlab. Exit codes: 0 all checks pass, 1 a check failed, 2 usage or I/O
trouble. Everything is deterministic given flags and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bipartite as bp
from . import instance as inst_mod
from . import pathlab
from .dynamics import DynamicsConfig, extract_pairing, run
from .experiment import ExperimentSpec, reference_solution, run_experiment
from .instance import GeneratorSpec, Instance, InstanceError
from .slack import DecompositionError, check_fp_identities, decompose
from .matching import SizeCapError, classification_report, classify, dual_check
from .nb import FP_TOL, fp_property_suite, nb_from_fp

PASS, FAIL, USAGE = 0, 1, 2


def _read_instance(path: str) -> Instance:
    if path == "-":
        return inst_mod.loads(sys.stdin.read())
    return inst_mod.load(path)


def _write(text: str, out: str | None):
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_weights(s: str | None):
    if s is None:
        return None
    return tuple(float(x) for x in s.split(","))


def cmd_generate(args) -> int:
    sizes = {
        "path": lambda a: (a.length,),
        "even_cycle": lambda a: (a.length,),
        "odd_cycle": lambda a: (a.length,),
        "blossom": lambda a: (a.stem, a.cycle),
        "bicycle": lambda a: (a.cycle, a.rod, a.cycle2 or a.cycle),
        "bipartite_random": lambda a: (a.buyers, a.sellers),
        "erdos_renyi": lambda a: (a.n,),
    }
    if args.topology not in sizes:
        print(f"unknown topology {args.topology}", file=sys.stderr)
        return USAGE
    spec = GeneratorSpec(
        args.topology,
        sizes[args.topology](args),
        weights=_parse_weights(args.weights),
        base=_parse_weights(args.base) or (1.0,),
        jitter=args.jitter,
        seed=args.seed,
    )
    _write(inst_mod.dumps(inst_mod.generate(spec)), args.output)
    return PASS


def cmd_run(args) -> int:
    inst = _read_instance(args.input)
    cfg = DynamicsConfig(
        kappa=args.kappa, eps_conv=args.eps, max_iters=args.max_iters, init=args.init, seed=args.seed
    )
    state, iters, trace, converged = run(inst, cfg)
    if args.trace:
        _write(trace.to_csv(), args.trace)
    doc = json.loads(inst_mod.dumps(inst))
    doc["alpha"] = [
        {"from": i, "to": j, "value": repr(v)} for (i, j), v in sorted(state.alpha_map().items())
    ]
    doc["gamma"] = [repr(float(g)) for g in state.gamma]
    doc["iterations"] = iters
    doc["converged"] = converged
    _write(json.dumps(doc, indent=2) + "\n", args.output)
    if args.margin is not None:
        pairs, amb, unpaired = extract_pairing(state, args.margin)
        print(f"pairs={sorted(pairs)} ambiguous={sorted(amb)} unpaired={sorted(unpaired)}")
    return PASS if converged else FAIL


def cmd_verify(args) -> int:
    inst = _read_instance(args.input)
    lines = []
    try:
        cls = classify(inst, cap=args.cap)
    except SizeCapError:
        cls = None
        lines.append(f"n={inst.n} beyond enumeration cap: dual feasibility only")
    cfg = DynamicsConfig(kappa=args.kappa, eps_conv=args.eps, max_iters=args.max_iters)
    state, iters, _, converged = run(inst, cfg)
    lines.append(f"dynamics: {'converged' if converged else 'NOT CONVERGED'} after {iters} steps")
    gamma = [round(float(g), 9) for g in state.gamma]
    lines.append(f"gamma: {gamma}")
    ok = converged
    if cls is None:
        rep = dual_check(state.gamma, inst, tol=1e-6, cap=0)
        lines.append(f"dual feasibility: {'pass' if rep.feasible else 'FAIL ' + str(rep.violations)}")
        ok = ok and rep.feasible
    elif cls.kind == "degenerate":
        lines.append("degenerate LP: verification skipped beyond dual feasibility")
        rep = dual_check(state.gamma, inst, tol=1e-6)
        lines.append(f"dual feasibility: {'pass' if rep.feasible else 'FAIL ' + str(rep.violations)}")
        ok = ok and rep.feasible
    elif not converged:
        lines.append("fixed-point audit skipped: the dynamics did not converge")
    else:
        # run stops once the residual is at most --eps, so audit to that bound
        report = fp_property_suite(state, inst, cls, residual_tol=max(FP_TOL, args.eps))
        lines.append(classification_report(cls, inst))
        lines.append(report.summary())
        ok = ok and report.passed
        if cls.kind == "pointed_not_tight":
            if ok:
                lines.append("pointed, not tight: no NB solution exists; dual optimum certified")
        elif ok:
            sol = nb_from_fp(state, inst, report)
            lines.append(f"outcome: matching={sorted(sol.matching)} certified={sol.certified}")
            ok = ok and sol.certified
            if not sol.matching:
                lines.append("decomposition: no structures (empty outcome)")
            else:
                try:
                    dec = decompose(state, sol, inst)
                    lines.append(dec.summary())
                    ident = check_fp_identities(dec, state, inst, tol=1e-6)
                    lines.append(ident.table())
                    lines.append(f"message identities: {'pass' if ident.passed else 'FAIL'}")
                    ok = ok and ident.passed
                    if args.margin is not None or dec.gap is not None:
                        margin = dec.gap / 3.0 if args.margin is None else args.margin
                        pairs, amb, unpaired = extract_pairing(state, margin)
                        lines.append(f"pairing: pairs={sorted(pairs)} ambiguous={sorted(amb)} unpaired={sorted(unpaired)}")
                except DecompositionError as e:
                    lines.append(f"decomposition failed: {e}")
                    ok = False
    _write("\n".join(lines) + "\n", args.output)
    return PASS if ok else FAIL


def cmd_decompose(args) -> int:
    inst = _read_instance(args.input)
    try:
        cls = classify(inst, cap=args.cap)
        if cls.kind != "tight":
            print(f"cannot decompose: classification is {cls.kind}", file=sys.stderr)
            return FAIL
    except SizeCapError:
        pass
    ref = reference_solution(inst, enum_cap=args.cap)
    if ref is None:
        print("cannot decompose: no certified unique outcome", file=sys.stderr)
        return FAIL
    _write(ref.decomposition.summary() + "\n", args.output)
    return PASS


def cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        topology=args.topology,
        sizes=tuple(int(s) for s in args.sizes.split(",")),
        eps=args.eps,
        repetitions=args.reps,
        seed=args.seed,
        kappa=args.kappa,
        max_iters=args.max_iters,
        c_ref=args.c_ref,
    )
    result = run_experiment(spec)
    _write(result.to_csv(), args.output)
    print(result.fit_summary())
    print(f"regenerated: {result.regenerated}")
    return PASS if all(r["converged"] for r in result.rows) else FAIL


def cmd_bipartite(args) -> int:
    inst = _read_instance(args.input)
    try:
        part = bp.check_bipartite(inst)
    except bp.NotBipartiteError as e:
        print(f"not bipartite: witness odd cycle {e.cycle}", file=sys.stderr)
        return FAIL
    lines = [f"buyers: {sorted(part.buyers)}", f"sellers: {sorted(part.sellers)}"]
    cfg = DynamicsConfig(kappa=args.kappa, eps_conv=args.eps, max_iters=args.max_iters)
    ok = True
    sides = ["buyer", "seller"] if args.side == "both" else [args.side]
    states = {}
    for side in sides:
        sol, state, iters, converged = bp.run_extremal(inst, part, side, cfg)
        states[side] = state
        lines.append(
            f"{side}-optimal: gamma={[round(float(g), 6) for g in sol.gamma]} "
            f"converged={converged} iters={iters} certified={sol.certified}"
        )
        ok = ok and converged and sol.certified
    if len(sides) == 2 and ok:
        dom = bp.order_leq(states["seller"].alpha, states["buyer"].alpha, part, states["buyer"].index, tol=1e-9)
        lines.append(f"buyer-optimal dominates seller-optimal: {dom}")
        ok = ok and dom
    _write("\n".join(lines) + "\n", args.output)
    return PASS if ok else FAIL


def cmd_pathlab(args) -> int:
    inst = _read_instance(args.input)
    ref = reference_solution(inst, enum_cap=args.cap)
    if ref is None:
        print("pathlab needs an instance with a certified unique outcome", file=sys.stderr)
        return FAIL
    from .nb import fp_from_nb

    fp = fp_from_nb(ref.solution, inst)
    dec = ref.decomposition
    delta = args.delta if args.delta is not None else min(args.big_delta / 2, dec.gap)
    qs = [q for q, s in enumerate(dec.structures) if s.topology == "path"]
    if args.structure is not None:
        qs = [args.structure]
    lines = []
    ok = True
    for q in qs:
        seq, weights, matched, slots = pathlab.structure_path(dec, q, fp.index)
        spec = pathlab.PathSpec(weights, matched, args.kappa)
        star = tuple(float(x) for x in fp.alpha[slots])
        for sign in (+1, -1):
            cfg = pathlab.BoundingConfig(sign, args.big_delta, delta, star)
            try:
                states = pathlab.bounding_process(cfg, spec, args.horizon)
                lines.append(f"structure {q} sign {sign:+d}: bound signs hold over {args.horizon} steps")
                if sign == +1 and args.decay_csv:
                    decay = np.abs(states - pathlab.bounding_fixed_point(cfg)).max(axis=1)
                    _write(pathlab.series_csv(decay), args.decay_csv)
            except pathlab.BoundSignError as e:
                lines.append(f"structure {q} sign {sign:+d}: BOUND SIGN VIOLATION {e}")
                ok = False
        sandwiched = pathlab.sandwich_test(
            fp, dec, q, args.big_delta, delta, args.horizon, kappa=args.kappa
        )
        lines.append(f"structure {q}: sandwich {'holds' if sandwiched else 'FAILS'}")
        ok = ok and sandwiched
        rho = np.ones(2 * spec.ell)
        stationary = True
        for _ in range(args.horizon):
            rho = pathlab.mass_step(rho, spec, injection="both")
            if np.abs(rho - 1.0).max() > 1e-12:
                stationary = False
                break
        lines.append(f"structure {q}: dual-injection mass stationary: {stationary}")
        ok = ok and stationary
        rng = np.random.default_rng(args.seed)
        log: list = []
        dominated = pathlab.domination_test(
            spec, 0.0, rng.uniform(-1, 1, size=2 * spec.ell), args.horizon, log=log
        )
        if args.domination_csv:
            _write(pathlab.series_csv(log), args.domination_csv)
        lines.append(f"structure {q}: difference dominated by mass: {dominated}")
        ok = ok and dominated
    _write("\n".join(lines) + "\n", args.output)
    return PASS if ok else FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="netbargain", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_input=True):
        if with_input:
            sp.add_argument("--input", required=True, help="instance file, or - for stdin")
        sp.add_argument("--output", default=None, help="output path (default stdout)")
        sp.add_argument("--kappa", type=float, default=0.5)
        sp.add_argument("--eps", type=float, default=1e-9)
        sp.add_argument("--max-iters", dest="max_iters", type=int, default=10**6)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--cap", type=int, default=12)

    g = sub.add_parser("generate", help="emit an instance document")
    g.add_argument("--topology", required=True)
    g.add_argument("--len", dest="length", type=int, default=3, help="node count (paths) or cycle length")
    g.add_argument("--stem", type=int, default=1)
    g.add_argument("--cycle", type=int, default=3)
    g.add_argument("--cycle2", type=int, default=None)
    g.add_argument("--rod", type=int, default=1)
    g.add_argument("--buyers", type=int, default=3)
    g.add_argument("--sellers", type=int, default=3)
    g.add_argument("--n", type=int, default=6)
    g.add_argument("--weights", default=None, help="comma-separated explicit weights")
    g.add_argument("--base", default=None, help="comma-separated base weights")
    g.add_argument("--jitter", type=float, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", default=None)
    g.set_defaults(fn=cmd_generate)

    r = sub.add_parser("run", help="run the dynamics to convergence")
    common(r)
    r.add_argument("--init", default="zeros")
    r.add_argument("--trace", default=None, help="write per-step CSV trace here")
    r.add_argument("--margin", type=float, default=None, help="also extract pairing at this margin")
    r.set_defaults(fn=cmd_run)

    v = sub.add_parser("verify", help="full certification pipeline")
    common(v)
    v.add_argument("--margin", type=float, default=None)
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("decompose", help="slack-level decomposition report")
    common(d)
    d.set_defaults(fn=cmd_decompose)

    e = sub.add_parser("experiment", help="convergence-scaling sweep, CSV out")
    e.add_argument("--topology", required=True)
    e.add_argument("--sizes", required=True, help="comma-separated strictly increasing sizes")
    e.add_argument("--eps", type=float, default=1e-4)
    e.add_argument("--reps", type=int, default=1)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--kappa", type=float, default=0.5)
    e.add_argument("--max-iters", dest="max_iters", type=int, default=10**6)
    e.add_argument("--c-ref", dest="c_ref", type=float, default=1.0)
    e.add_argument("--output", default=None)
    e.set_defaults(fn=cmd_experiment)

    b = sub.add_parser("bipartite", help="extremal runs on a two-sided instance")
    common(b)
    b.add_argument("--side", choices=["buyer", "seller", "both"], default="both")
    b.set_defaults(fn=cmd_bipartite)

    pl = sub.add_parser("pathlab", help="bounding, sandwich, and mass diagnostics")
    common(pl)
    pl.add_argument("--structure", type=int, default=None)
    pl.add_argument("--big-delta", dest="big_delta", type=float, default=0.4)
    pl.add_argument("--delta", type=float, default=None, help="default min(big_delta / 2, gap)")
    pl.add_argument("--horizon", type=int, default=2000)
    pl.add_argument("--decay-csv", dest="decay_csv", default=None, help="write the bound's decay trace here")
    pl.add_argument("--domination-csv", dest="domination_csv", default=None, help="write per-step domination margins here")
    pl.set_defaults(fn=cmd_pathlab)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InstanceError, SizeCapError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
