"""Command line front end.

Commands
--------
table       inclusion checks over a (g, r, d) grid, emitted as JSON or CSV
verify-g    the isotropic-vanishing submodule versus the pairing span
bogomolov   intersected restriction kernels over a bicyclic family
components  covering-side component counts and exponents
selftest    deterministic property suites, seeded, against ``brauerkit.oracle``

Exit codes: 0 every checked flag holds, 1 some inclusion flag failed,
2 unusable configuration (g < 1, r < 2, a modulus r > 2^31, the one
int64 limit of the Z/r routines, ``ModulusTooLargeError``, a negative
selftest seed, and a ``table --out`` file that cannot be written
included), 3 what some point would list passed the cap (such records are
marked skipped).

table, verify-g and bogomolov take a cap on what one call lists (the
witness pairs of G, the members of an explicit family), which can also be
set through the environment variable BRAUERKIT_CAP; an explicit --cap
wins.  The other commands do not read it.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import stat
import sys
import time
from dataclasses import fields, replace
from functools import cache, partial
from itertools import product

import numpy as np

from .brauer import (
    MODE_ALL_PAIRS,
    MODE_PRIMITIVE_PAIRS,
    FormSubmodule,
    InclusionReport,
    all_bicyclics,
    bogomolov_intersection,
    compute_G,
    isotropic_bicyclics,
    restriction_kernel,
    verify_main_inclusions,
)
from .covers import (
    CoverModel,
    picard_quotient_order,
    prym_component_count,
    quotient_component_count,
    twisted_norm_exponent,
)
from .finab import (
    CapExceededError,
    DEFAULT_ENUMERATION_CAP,
    FinAbGroup,
    subgroup_from_generators,
)
from .sympl import AltForm, SymplecticSpace, eval_form, radical, weil_form
from .zmodlinalg import (
    ModulusTooLargeError,
    det_int,
    howell_form,
    smith_normal_form,
    solve_mod,
)

CAP_ENV_VAR = "BRAUERKIT_CAP"
REPORT_SCHEMA = "brauerkit.report.v1"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_CAP = 3

VERIFY_KEYS = [f.name for f in fields(InclusionReport) if f.name not in ("g", "r")]
COVER_KEYS = ("prym_components", "quotient_components", "l", "twist_exponent")
CSV_COLUMNS = [
    "g", "r", "d", "status", *VERIFY_KEYS, *COVER_KEYS,
    "cfg_mode", "cfg_cap", "cfg_seed", "timing_ms",
]


def parse_range(text: str, least: int | None = None) -> tuple[int, ...]:
    """Inclusive integer range: "a" or "a..b", starting at ``least`` or above."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, want N or N..M") from exc
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if least is not None and lo < least:
        raise argparse.ArgumentTypeError(f"range {text!r} starts below {least}")
    return tuple(range(lo, hi + 1))


_genus_range = partial(parse_range, least=1)
_modulus_range = partial(parse_range, least=2)


def _seed(text: str) -> int:
    """A selftest seed: numpy's generator takes no negative one."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"negative seed {text!r}")
    return int(text)


def _verify_pair(args: tuple[int, int, int, str]):
    """Verify one (g, r) point; returns (g, r, payload, elapsed ms)."""
    g, r, cap, mode = args
    t0 = time.perf_counter()
    try:
        report = verify_main_inclusions(SymplecticSpace(g=g, r=r), cap=cap, mode=mode)
        payload = report.as_dict()
    except CapExceededError as exc:
        payload = {"cap_exceeded": str(exc)}
    return g, r, payload, (time.perf_counter() - t0) * 1000.0


def _cover_fields(g: int, r: int, ds) -> list[dict]:
    """The cover fields (``COVER_KEYS``) of (g, r) at each d in ``ds``.  The
    covering class, its kernel and the Prym count depend on (g, r) alone, so
    they are built once; only the quotient side is computed per d."""
    tau = FinAbGroup((r,) * (2 * g)).element([1] + [0] * (2 * g - 1))
    model = CoverModel.from_tau(tau, 0)
    prym, twist = prym_component_count(model), twisted_norm_exponent(r)
    return [
        dict(zip(COVER_KEYS, (
            prym,
            quotient_component_count(replace(model, d=d)),
            picard_quotient_order(r, d),
            twist,
        )))
        for d in ds
    ]


def _build_records(args, cap: int) -> tuple[list[dict], int]:
    pair_args = [(g, r, cap, args.mode) for g, r in sorted(set(product(args.g, args.r)))]
    if args.jobs > 1 and len(pair_args) > 1:
        # imported here, so that importing cli loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts every worker at once, so start no more than points
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(pair_args))) as pool:
            outcomes = list(pool.map(_verify_pair, pair_args))
    else:
        outcomes = [_verify_pair(point) for point in pair_args]

    # a point's verify fields, flags and timing are the same at every d
    ds = sorted(args.d)
    records = []
    first_violation: str | None = None
    any_skipped = False
    for g, r, payload, ms in outcomes:
        if "cap_exceeded" in payload:
            any_skipped = True
            verified = {"status": "skipped-cap", **dict.fromkeys(VERIFY_KEYS)}
        else:
            verified = {"status": "ok", **{key: payload[key] for key in VERIFY_KEYS}}
            flags = InclusionReport(**payload).inclusion_flags()
            failed = [flag for flag, value in flags.items() if not value]
            if failed and first_violation is None:
                first_violation = f"{failed[0]} at g={g} r={r} d={ds[0]}"
        timing = round(ms, 3) if args.timings else None
        for d, cover in zip(ds, _cover_fields(g, r, ds)):
            records.append({"g": g, "r": r, "d": d, **verified, **cover, "timing_ms": timing})
    if first_violation is not None:
        print(f"violation: {first_violation}", file=sys.stderr)
    return records, _exit_code(first_violation is None, any_skipped)


def _exit_code(ok: bool, skipped: bool) -> int:
    """A failed check outranks a skipped point, which outranks success."""
    if not ok:
        return EXIT_VIOLATION
    return EXIT_CAP if skipped else EXIT_OK


def _render_json(args, cap: int, records: list[dict]) -> str:
    config = {
        "g": list(args.g),
        "r": list(args.r),
        "d": list(args.d),
        "mode": args.mode,
        "cap": cap,
        "seed": args.seed,
        "format": args.format,
    }
    doc = {"schema": REPORT_SCHEMA, "config": config, "records": records}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _render_csv(args, cap: int, records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        row = {**record, "cfg_mode": args.mode, "cfg_cap": cap, "cfg_seed": args.seed}
        writer.writerow([_csv_cell(row[col]) for col in CSV_COLUMNS])
    return buf.getvalue()


def load_report(path: str) -> dict:
    """Re-read a JSON report; unknown fields are preserved as-is."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"unrecognized report schema {doc.get('schema')!r}")
    return doc


def _unwritable_dir(path: str) -> str | None:
    """Why no file can be created at ``path`` as far as its directory
    tells (missing, not a directory, not writable), or ``None``.  The file
    itself is not touched, so a refused run leaves nothing behind."""
    parent = os.path.dirname(path) or "."
    try:
        mode = os.stat(parent).st_mode
    except OSError as exc:
        return exc.strerror
    if not stat.S_ISDIR(mode):
        return os.strerror(errno.ENOTDIR)
    if not os.access(parent, os.W_OK | os.X_OK):
        return os.strerror(errno.EACCES)
    return None


def cmd_table(args, cap: int) -> int:
    if args.jobs < 1:
        print(f"brauerkit: jobs must be positive, got {args.jobs}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out and (why := _unwritable_dir(args.out)):
        print(f"brauerkit: cannot write {args.out}: {why}", file=sys.stderr)
        return EXIT_CONFIG
    records, exit_code = _build_records(args, cap)
    render = _render_csv if args.format == "csv" else _render_json
    text = render(args, cap, records)
    if not args.out:
        sys.stdout.write(text)
        return exit_code
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"brauerkit: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    return exit_code


def cmd_verify_g(args, cap: int) -> int:
    modes = [MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS] if args.mode == "both" else [args.mode]
    ok, skipped = True, False
    for g, r in sorted(product(args.g, args.r)):
        space = SymplecticSpace(g=g, r=r)
        # both modes are the same witness cut, so one call serves every line
        try:
            G = compute_G(space, modes[0], cap)
        except CapExceededError as exc:
            outcome = f"skipped: {exc}"
            skipped = True
        else:
            equal = G == FormSubmodule.weil_span(space)
            ok &= equal
            outcome = (
                f"|G|={G.order} rank={G.rank} "
                f"equals-pairing-span={'yes' if equal else 'no'}"
            )
        for m in modes:
            print(f"g={g} r={r} mode={m} {outcome}")
    return _exit_code(ok, skipped)


def cmd_bogomolov(args, cap: int) -> int:
    ok, skipped = True, False
    for g, r in sorted(product(args.g, args.r)):
        space = SymplecticSpace(g=g, r=r)
        try:
            if args.family == "all":
                fam = all_bicyclics(space, cap)
                gprime = bogomolov_intersection(space, fam, cap)
                ok &= gprime == FormSubmodule.trivial(space)
                print(
                    f"g={g} r={r} family=all members={fam.size} "
                    f"|G'|={gprime.order} rank={gprime.rank}"
                )
                continue
            g_prim = compute_G(space, MODE_PRIMITIVE_PAIRS, cap)
            if args.explicit:
                fam = isotropic_bicyclics(space, cap)
                gprime = bogomolov_intersection(space, fam, cap)
                members = str(fam.size)
            else:
                # the implicit family's G' is the primitive-pairs G
                gprime = g_prim
                members = "streamed"
        except CapExceededError as exc:
            print(f"g={g} r={r} skipped: {exc}")
            skipped = True
            continue
        e_span = FormSubmodule.weil_span(space)
        e_in = gprime.contains_vector(e_span.generators[0])
        subset = gprime.is_submodule_of(g_prim)
        equal = gprime == e_span
        ok &= e_in and subset
        print(
            f"g={g} r={r} family=isotropic members={members} |G'|={gprime.order} "
            f"e-in-G'={'yes' if e_in else 'no'} "
            f"G'-in-G={'yes' if subset else 'no'} "
            f"equals-pairing-span={'yes' if equal else 'no'}"
        )
    return _exit_code(ok, skipped)


def cmd_components(args, _cap) -> int:
    print("r d prym quotient l twist")
    ds = sorted(args.d)
    for r in sorted(args.r):
        for d, cover in zip(ds, _cover_fields(1, r, ds)):
            print(r, d, *(cover[key] for key in COVER_KEYS))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def _suite_smith(rng: np.random.Generator):
    cases = 200
    for _ in range(cases):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        M = rng.integers(-50, 51, size=(m, k))
        U, D, V = smith_normal_form(M)
        if not np.array_equal(U @ M.astype(object) @ V, D):
            return False, "product mismatch"
        diag = [int(D[i, i]) for i in range(min(m, k))]
        for i in range(m):
            for j in range(k):
                if i != j and D[i, j]:
                    return False, "off-diagonal entry"
        for a, b in zip(diag, diag[1:]):
            if a < 0 or (a and b % a) or (a == 0 and b != 0):
                return False, "broken divisibility chain"
        if abs(det_int(U)) != 1 or abs(det_int(V)) != 1:
            return False, "transform not unimodular"
    return True, f"{cases} cases"


def _suite_howell(rng: np.random.Generator):
    from .oracle import span_closure  # here, so that importing cli loads no oracle
    cases = 0
    for n in (2, 3, 4, 6, 8):
        for _ in range(24):
            rows = int(rng.integers(1, 4))
            cols = int(rng.integers(1, 5))
            M = rng.integers(0, n, size=(rows, cols))
            H, span = howell_form(M, n), span_closure(M, n)
            if span != span_closure(H, n):
                return False, f"span changed (n={n})"
            if not np.array_equal(howell_form(H, n), H):
                return False, f"not idempotent (n={n})"
            extra = sorted(span)[int(rng.integers(0, len(span)))]
            M2 = np.vstack([M[::-1], np.array(extra, dtype=np.int64)])
            if not np.array_equal(howell_form(M2, n), H):
                return False, f"same span, different form (n={n})"
            cases += 1
    return True, f"{cases} cases"


def _suite_solve(rng: np.random.Generator):
    from .oracle import solutions, span_closure
    n = 6
    cases = 12
    for _ in range(cases):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        A = rng.integers(0, n, size=(m, k))
        c = rng.integers(0, n, size=m)
        brute = solutions(A, c, n, k)
        res = solve_mod(A, c, n)
        if res is None:
            if brute:
                return False, "missed a solvable system"
            continue
        x0, kernel = res
        if tuple(x0.tolist()) not in brute:
            return False, "particular solution wrong"
        shifted = {
            tuple(((np.array(v) + x0) % n).tolist())
            for v in span_closure(kernel, n)
        }
        if shifted != brute:
            return False, "kernel span wrong"
    return True, f"{cases} cases"


def _suite_bilinearity(rng: np.random.Generator):
    cases = 0
    for r in range(2, 9):
        for g in (1, 2, 3):
            space = SymplecticSpace(g=g, r=r)
            group = space.group
            for _ in range(4):
                form = AltForm.from_vector(
                    space, rng.integers(0, r, size=space.form_rank)
                )
                x = group.element(rng.integers(0, r, size=space.dim))
                y = group.element(rng.integers(0, r, size=space.dim))
                z = group.element(rng.integers(0, r, size=space.dim))
                if eval_form(form, x + y, z) != (
                    eval_form(form, x, z) + eval_form(form, y, z)
                ) % r:
                    return False, "not bilinear"
                if (eval_form(form, x, y) + eval_form(form, y, x)) % r:
                    return False, "not antisymmetric"
                if eval_form(form, x, x):
                    return False, "not alternating"
                cases += 1
    return True, f"{cases} cases"


def _suite_nondegeneracy(_: np.random.Generator):
    cases = 0
    for g in (1, 2, 3):
        for r in (2, 3, 4, 5, 6):
            space = SymplecticSpace(g=g, r=r)
            if radical(weil_form(space)).order != 1:
                return False, f"degenerate pairing at g={g} r={r}"
            cases += 1
    return True, f"{cases} cases"


def _suite_submodules(_: np.random.Generator):
    from .oracle import vanishing_forms
    for r in (2, 3):
        space = SymplecticSpace(g=2, r=r)
        brute_all = vanishing_forms(2, r, bicyclic_only=False)
        brute_prim = vanishing_forms(2, r, bicyclic_only=True)
        if set(compute_G(space, MODE_ALL_PAIRS).vectors()) != brute_all:
            return False, f"all-pairs mismatch at r={r}"
        if set(compute_G(space, MODE_PRIMITIVE_PAIRS).vectors()) != brute_prim:
            return False, f"primitive-pairs mismatch at r={r}"
        if set(bogomolov_intersection(space).vectors()) != brute_prim:
            return False, f"implicit family intersection mismatch at r={r}"
        span = subgroup_from_generators(space.group, [space.a(1), space.a(2)])
        sub = restriction_kernel(space, span)
        if sub.order != r ** (space.form_rank - 1):
            return False, f"restriction kernel order at r={r}"
    return True, "r=2,3 at g=2"


def cmd_selftest(args, _cap) -> int:
    rng = np.random.default_rng(args.seed)
    suites = [
        ("smith-normal-form", lambda: _suite_smith(rng)),
        ("howell-span-oracle", lambda: _suite_howell(rng)),
        ("solve-mod-exhaustive", lambda: _suite_solve(rng)),
        ("form-bilinearity", lambda: _suite_bilinearity(rng)),
        ("weil-nondegeneracy", lambda: _suite_nondegeneracy(rng)),
        ("brute-force-submodules", lambda: _suite_submodules(rng)),
    ]
    failed = []
    for name, run in suites:
        ok, detail = run()
        print(f"suite {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failed.append(name)
    if failed:
        print(f"selftest: FAIL ({', '.join(failed)})")
        return EXIT_VIOLATION
    print("selftest: PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _resolve_cap(cap: int | None) -> int:
    """--cap, else BRAUERKIT_CAP, else the library default; must be positive."""
    if cap is None:
        raw = os.environ.get(CAP_ENV_VAR)
        try:
            cap = DEFAULT_ENUMERATION_CAP if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"bad {CAP_ENV_VAR}={raw!r}, want an integer") from None
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauerkit",
        description="Exact verification of vanishing submodules of alternating "
        "forms on (Z/r)^(2g) and the attached covering-side counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="inclusion checks over a (g, r, d) grid")
    table.set_defaults(run="cmd_table")
    table.add_argument("--g", type=_genus_range, default="2..3")
    table.add_argument("--r", type=_modulus_range, default="2..5")
    table.add_argument("--d", type=parse_range, default="0..2")
    table.add_argument(
        "--mode",
        choices=[MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS, "both"],
        default="both",
    )
    table.add_argument("--cap", type=int, default=None)
    table.add_argument("--seed", type=int, default=0)
    table.add_argument("--format", choices=["json", "csv"], default="json")
    table.add_argument("--out", default=None)
    table.add_argument("--jobs", type=int, default=1)
    table.add_argument(
        "--timings",
        action="store_true",
        help="fill timing_ms (off by default so identical configs give "
        "byte-identical reports)",
    )

    vg = sub.add_parser("verify-g", help="isotropic-vanishing submodule checks")
    vg.set_defaults(run="cmd_verify_g")
    vg.add_argument("--g", type=_genus_range, default="2")
    vg.add_argument("--r", type=_modulus_range, default="2..5")
    vg.add_argument(
        "--mode",
        choices=[MODE_ALL_PAIRS, MODE_PRIMITIVE_PAIRS, "both"],
        default="both",
    )
    vg.add_argument("--cap", type=int, default=None)

    bg = sub.add_parser("bogomolov", help="intersected restriction kernels")
    bg.set_defaults(run="cmd_bogomolov")
    bg.add_argument("--g", type=_genus_range, default="2")
    bg.add_argument("--r", type=_modulus_range, default="2..3")
    bg.add_argument("--family", choices=["isotropic", "all"], default="isotropic")
    bg.add_argument(
        "--explicit",
        action="store_true",
        help="intersect over the explicit family instead of the implicit one",
    )
    bg.add_argument("--cap", type=int, default=None)

    comp = sub.add_parser("components", help="covering-side component counts")
    comp.set_defaults(run="cmd_components")
    comp.add_argument("--r", type=_modulus_range, default="2..12")
    comp.add_argument("--d", type=parse_range, default="0..11")

    st = sub.add_parser("selftest", help="deterministic property suites")
    st.set_defaults(run="cmd_selftest")
    st.add_argument("--seed", type=_seed, default=0)

    return parser


# main's one parser, built on its first call: building one makes a help
# formatter per argument, which costs more than a small table.  Parsing
# leaves the parser as it was.  The parser names each command (run), and
# main looks it up when it runs, as the command looks up the library
# functions it calls, so a patch of one of them still holds.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cap = _resolve_cap(args.cap) if "cap" in args else None
    except ValueError as exc:
        print(f"brauerkit: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return globals()[args.run](args, cap)
    except ModulusTooLargeError as exc:
        print(f"brauerkit: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
