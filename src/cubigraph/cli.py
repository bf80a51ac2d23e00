"""Command-line interface.

Every command reads JSON inputs, prints a deterministic report (human
readable by default, machine readable with --json), and exits with:
0 on success, 1 on a negative mathematical verdict, 2 on input errors,
3 on budget exhaustion or an inconclusive verdict.  Inconclusive is never
conflated with "no".

Each command imports the modules it runs, and nothing else: every CLI call
is one cold process, and a process compiles every module it imports when
no bytecode is cached.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# the exit code of each verdict a bounded report may carry; every other
# verdict (inconclusive, or a budget run out) exits with EXIT_BUDGET
_VERDICT_EXIT = {
    "yes": EXIT_OK,
    "yes_on_tested_range": EXIT_OK,
    "no_exhausted": EXIT_NEGATIVE,
    "counterexample": EXIT_NEGATIVE,
}


@dataclass
class RunConfig:
    """Run settings a --config file may set; every one is an integer, and
    every one but seed is a non-negative count."""

    n: int = 1
    support_bound: int = 1
    slack: int = 2
    cell_budget: int = 10**7
    max_steps: int = 20000
    seed: int = 0


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(v) for v in value), key=repr)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _emit(report, as_json):
    if as_json:
        print(json.dumps(_jsonable(report), sort_keys=True))
    else:
        for line in report.get("lines", []):
            print(line)


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _load_as(parse, label, path):
    """parse(JSON of path); a malformed document exits with EXIT_INPUT."""
    try:
        return parse(_load(path))
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        print(f"error: bad {label} file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _load_config(path):
    """A RunConfig with the settings of a JSON object; a malformed one
    exits with EXIT_INPUT."""
    data = _load(path)
    if not isinstance(data, dict):
        print(f"error: config {path} is not a JSON object", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    known = {f.name for f in fields(RunConfig)}
    cfg = RunConfig()
    for key, value in data.items():
        if key not in known:
            print(f"error: unknown config key {key!r}", file=sys.stderr)
            raise SystemExit(EXIT_INPUT)
        # bool is an int subclass, but true is not a count
        if type(value) is not int or (value < 0 and key != "seed"):
            print(f"error: bad value {value!r} for config key {key!r}",
                  file=sys.stderr)
            raise SystemExit(EXIT_INPUT)
        setattr(cfg, key, value)
    return cfg


def _count(text):
    """argparse type of count flags: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _vertex(token):
    try:
        return int(token)
    except ValueError:
        return token


def _parse_word(text):
    return tuple(_vertex(t) for t in text.split(",") if t != "")


def _abelianization_text(rank, torsion):
    parts = ["Z"] * rank + [f"Z/{d}" for d in torsion]
    return " x ".join(parts) if parts else "trivial"


# --- commands -----------------------------------------------------------


def cmd_verify_identities(args):
    from . import skeleta as sk

    sites = (
        ["cubical", "simplicial"] if args.site == "both" else [args.site]
    )
    k_max = args.k_max if args.k_max is not None else args.n + 3
    if k_max < 1:
        print(f"error: --k-max {k_max} checks no identity; it must be at least 1",
              file=sys.stderr)
        return EXIT_INPUT
    lines = []
    results = []
    ok_all = True
    for site in sites:
        for row in sk.verify_skeletal_identities(site, args.n, k_max):
            results.append({"site": site, **row})
            ok_all = ok_all and row["ok"]
            status = "ok" if row["ok"] else "FAIL"
            lines.append(
                f"{site} n={args.n} k={row['k']} {row['kind']}: {status}"
            )
    lines.append("all identities hold" if ok_all else "identity failures")
    _emit({"lines": lines, "results": results, "ok": ok_all}, args.json)
    return EXIT_OK if ok_all else EXIT_NEGATIVE


def cmd_check_rlp(args):
    from . import lifting as lf
    from . import presheaf as ps

    f = _load_as(ps.map_from_json, "presheaf map", args.map)
    site = f.source.site
    name = ("J_n_prime_" if args.set == "J" else "I_n_prime_") + site
    gens = lf.generating_set(name, args.n)
    if gens.max_k() > f.source.trunc_dim:
        print(f"error: --n {args.n} needs members of dimension "
              f"{gens.max_k()}, above the map's truncation "
              f"{f.source.trunc_dim}",
              file=sys.stderr)
        return EXIT_INPUT
    holds, witness = lf.has_rlp(f, gens)
    lines = [f"RLP against {name} (n={args.n}): {'yes' if holds else 'no'}"]
    if witness is not None:
        lines.append(f"counterexample member: {witness['member']}")
    _emit(
        {"lines": lines, "holds": holds,
         "counterexample_member": witness["member"] if witness else None},
        args.json,
    )
    return EXIT_OK if holds else EXIT_NEGATIVE


def _emit_presheaf(X, args):
    text = json.dumps(_jsonable(X.to_json()), sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        if not args.json:
            print(f"written to {args.output}")
    else:
        print(text)


def cmd_sk_cosk(args):
    """The --n skeleton (sk) or coskeleton (cosk) of the input presheaf."""
    from . import presheaf as ps
    from . import skeleta as sk

    X = _load_as(ps.FinitePresheaf.from_json, "presheaf", args.input)
    if args.n > X.trunc_dim:
        print(f"error: --n {args.n} exceeds the input's truncation "
              f"{X.trunc_dim}", file=sys.stderr)
        return EXIT_INPUT
    build = sk.skeleton if args.command == "sk" else sk.coskeleton
    Y, _map = build(X, args.n)
    _emit_presheaf(Y, args)
    return EXIT_OK


def cmd_triangulate(args):
    from . import presheaf as ps
    from . import product as pr

    X = _load_as(ps.FinitePresheaf.from_json, "presheaf", args.input)
    if X.site != "cubical":
        print("error: triangulation needs a cubical input", file=sys.stderr)
        return EXIT_INPUT
    _emit_presheaf(pr.triangulate(X, args.trunc_dim), args)
    return EXIT_OK


def cmd_geometric_product(args):
    from . import presheaf as ps
    from . import product as pr

    X = _load_as(ps.FinitePresheaf.from_json, "presheaf", args.x)
    Y = _load_as(ps.FinitePresheaf.from_json, "presheaf", args.y)
    if X.site != "cubical" or Y.site != "cubical":
        print("error: geometric product requires cubical presheaves",
              file=sys.stderr)
        return EXIT_INPUT
    _emit_presheaf(pr.geometric_product(X, Y, args.trunc_dim), args)
    return EXIT_OK


def cmd_pi0(args):
    from . import graphs as gr

    X = _load_as(gr.Graph.from_json, "graph", args.graph)
    comps = gr.pi0(X)
    lines = [f"{len(comps)} components"]
    for comp in comps:
        lines.append("  " + ", ".join(repr(v) for v in sorted(comp, key=repr)))
    _emit(
        {"lines": lines, "count": len(comps), "components": comps},
        args.json,
    )
    return EXIT_OK


def cmd_a1(args):
    from . import graphs as gr
    from . import pi1 as p1

    X = _load_as(gr.Graph.from_json, "graph", args.graph)
    if args.base is None and not X.vertices:
        print(f"error: graph {args.graph} has no vertices", file=sys.stderr)
        return EXIT_INPUT
    base = _vertex(args.base) if args.base is not None else X.vertices[0]
    try:
        pres = p1.a1_presentation(X, base)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    rank, torsion = pres.abelianization()
    lines = [
        f"generators: {len(pres.generators)}, "
        f"relators: {len(pres.relators)}, "
        f"abelianization: {_abelianization_text(rank, torsion)}"
    ]
    _emit(
        {
            "lines": lines,
            "generators": len(pres.generators),
            "relators": len(pres.relators),
            "abelianization": {"rank": rank, "torsion": torsion},
        },
        args.json,
    )
    return EXIT_OK


def cmd_paths_homotopic(args):
    from . import graphs as gr
    from . import pi1 as p1

    X = _load_as(gr.Graph.from_json, "graph", args.graph)
    try:
        a = p1.make_path(X, _parse_word(args.p1))
        b = p1.make_path(X, _parse_word(args.p2))
        report = p1.path_homotopic_bounded(
            a, b, max_support=args.support, max_steps=args.max_steps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    lines = [f"verdict: {report.verdict}"]
    if report.layers:
        for layer in report.layers:
            lines.append("  " + "-".join(repr(v) for v in layer))
    _emit(
        {"lines": lines, "verdict": report.verdict,
         "layers": report.layers, "explored": report.explored},
        args.json,
    )
    return _VERDICT_EXIT.get(report.verdict, EXIT_BUDGET)


def cmd_check_graph_fibration(args):
    from . import graphs as gr
    from . import nerve as nv

    f = _load_as(gr.GraphMap.from_json, "graph map", args.map)
    report = nv.is_graph_n_fibration_bounded(
        f, args.n, M_max=args.support, slack=args.slack, budget=args.budget,
        seed=args.seed,
    )
    lines = [f"verdict: {report.verdict}"]
    for key in sorted(report.detail):
        if key not in ("u", "w"):
            lines.append(f"  {key}: {report.detail[key]!r}")
    _emit(
        {"lines": lines, "verdict": report.verdict, "detail": report.detail},
        args.json,
    )
    return _VERDICT_EXIT.get(report.verdict, EXIT_BUDGET)


def cmd_psi_check(args):
    from . import graphs as gr
    from . import pi1 as p1

    f = _load_as(gr.GraphMap.from_json, "graph map", args.f)
    g = _load_as(gr.GraphMap.from_json, "graph map", args.g)
    if (f.target.vertices != g.target.vertices
            or f.target.edges() != g.target.edges()):
        print("error: the two maps must share a target", file=sys.stderr)
        return EXIT_INPUT
    report = p1.psi_comparison(
        f, g,
        samples=args.samples,
        seed=args.seed,
        max_support=args.support,
        max_steps=args.max_steps,
    )
    lines = [f"pi0: {report['pi0']['verdict']}"]
    for label in ("fullness", "faithfulness"):
        for sample in report[label]:
            lines.append(f"{label}: {sample['verdict']}")
    lines.append("passed" if report["passed"] else "FAILED")
    _emit({"lines": lines, **report}, args.json)
    return EXIT_OK if report["passed"] else EXIT_NEGATIVE


def cmd_nerve_stats(args):
    from . import graphs as gr
    from . import nerve as nv

    X = _load_as(gr.Graph.from_json, "graph", args.graph)
    try:
        N = nv.nerve_fragment(X, args.dim, args.support, budget=args.budget)
    except nv.BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    counts = {d: len(N.cells[d]) for d in N.dims()}
    nondeg = {d: len(N.nondeg(d)) for d in N.dims()}
    lines = [
        f"dim {d}: {counts[d]} cubes ({nondeg[d]} nondegenerate)"
        for d in sorted(counts)
    ]
    _emit(
        {"lines": lines, "cells": counts, "nondegenerate": nondeg},
        args.json,
    )
    return EXIT_OK


def cmd_selftest(args):
    from . import graphs as gr
    from . import lifting as lf
    from . import pi1 as p1
    from . import presheaf as ps
    from . import product as pr
    from . import skeleta as sk

    n = args.n
    lines = []
    ok = True

    for site in ("cubical", "simplicial"):
        rows = sk.verify_skeletal_identities(site, n, n + 3)
        good = all(r["ok"] for r in rows)
        ok = ok and good
        lines.append(
            f"identity lemmas ({site}, n={n}): "
            f"{'pass' if good else 'FAIL'} ({len(rows)} checks)"
        )

    for name in ("J_n_prime_cubical", "I_n_prime_cubical",
                 "J_n_prime_simplicial", "I_n_prime_simplicial"):
        gens = lf.generating_set(name, n)
        members = gens.realize(n + 3)
        lines.append(f"generating set {name} (n={n}): {len(members)} members")

    c1 = ps.build_standard("cube", 1, trunc_dim=3).realized
    P = pr.geometric_product(c1, c1, 3)
    c2 = ps.build_standard("cube", 2, trunc_dim=3).realized
    square_ok, _ = ps.is_isomorphic(P, c2)
    ok = ok and square_ok
    lines.append(
        f"interval x interval = square: {'pass' if square_ok else 'FAIL'}"
    )

    pres = p1.a1_presentation(gr.cycle(5), 0)
    rank, torsion = pres.abelianization()
    loops_ok = (rank, torsion) == (1, [])
    ok = ok and loops_ok
    lines.append(
        f"pentagon fundamental group = Z: {'pass' if loops_ok else 'FAIL'}"
    )

    ha = p1.path_homotopic_bounded(
        p1.make_path(gr.cycle(4), (0, 1, 2)),
        p1.make_path(gr.cycle(4), (0, 3, 2)),
    )
    hb_ok = ha.verdict == "yes"
    ok = ok and hb_ok
    lines.append(
        f"square halves homotopic: {'pass' if hb_ok else 'FAIL'}"
    )

    lines.append("selftest passed" if ok else "selftest FAILED")
    _emit({"lines": lines, "ok": ok}, args.json)
    return EXIT_OK if ok else EXIT_NEGATIVE


# --- wiring --------------------------------------------------------------


def _build_parser(cfg):
    """The argument parser; each flag that a config key also sets takes
    the value of that key in cfg as its default, so a flag given on the
    command line wins over the config, and the config over RunConfig's
    built-in value."""
    top = argparse.ArgumentParser(
        prog="cubigraph",
        description="truncated cubical/simplicial presheaves and the "
        "discrete homotopy theory of reflexive graphs",
    )
    top.add_argument("--config", help="JSON file with run configuration")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        return p

    n = {"type": _count, "default": cfg.n}
    max_steps = {"type": _count, "default": cfg.max_steps}
    seed = {"type": int, "default": cfg.seed}
    add(
        "verify-identities", cmd_verify_identities,
        site={"choices": ["cubical", "simplicial", "both"],
              "default": "both"},
        n=n,
        k_max={"type": _count, "default": None},
    )
    add(
        "check-rlp", cmd_check_rlp,
        map={"required": True},
        set={"choices": ["J", "I"], "default": "J"},
        n=n,
    )
    for name in ("cosk", "sk"):
        add(
            name, cmd_sk_cosk,
            input={"required": True}, n=n, output={"default": None},
        )
    add(
        "triangulate", cmd_triangulate,
        input={"required": True},
        trunc_dim={"type": _count, "default": None},
        output={"default": None},
    )
    add(
        "geometric-product", cmd_geometric_product,
        x={"required": True}, y={"required": True},
        trunc_dim={"type": _count, "default": None},
        output={"default": None},
    )
    add("pi0", cmd_pi0, graph={"required": True})
    add(
        "a1", cmd_a1,
        graph={"required": True}, base={"default": None},
    )
    add(
        "paths-homotopic", cmd_paths_homotopic,
        graph={"required": True},
        p1={"required": True, "help": "comma-separated vertex word"},
        p2={"required": True},
        support={"type": _count, "default": None},
        max_steps=max_steps,
    )
    add(
        "check-graph-fibration", cmd_check_graph_fibration,
        map={"required": True},
        n=n,
        support={"type": _count, "default": cfg.support_bound},
        slack={"type": _count, "default": cfg.slack},
        budget={"type": _count, "default": cfg.cell_budget},
        seed=seed,
    )
    add(
        "psi-check", cmd_psi_check,
        f={"required": True}, g={"required": True},
        samples={"type": _count, "default": 5},
        support={"type": _count, "default": 8},
        max_steps=max_steps,
        seed=seed,
    )
    add(
        "nerve-stats", cmd_nerve_stats,
        graph={"required": True},
        dim={"type": _count, "required": True},
        support={"type": _count, "default": cfg.support_bound},
        budget={"type": _count, "default": cfg.cell_budget},
    )
    add("selftest", cmd_selftest, n={"type": _count, "default": 0})
    return top


def main(argv=None):
    args = _build_parser(RunConfig()).parse_args(argv)
    if args.config:
        # the config is read after a first parse, so that a malformed
        # command line and --help are answered before a config error, and
        # the second parse gives the config's values to the flags
        args = _build_parser(_load_config(args.config)).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
