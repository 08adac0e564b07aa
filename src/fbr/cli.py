"""Command line front end.

Verbs: basis, multiply, species, idempotents, spectrum, blocks, weyl,
verify-all; each sub-parser names its handler with set_defaults(run=...).
The seven ring verbs share one protocol (_run_ring_verb): load the ring
from --cache-dir or build it, start the document with the envelope
{command, group, fiber, level, rank}, run the verb's body
(args, ring, doc) -> table lines, which fills in its own fields, emit,
and save a ring it built to the cache.  Output is JSON (default) or an
aligned text table; both are byte-stable for a fixed configuration and
seed.
Exit codes: 0 ok, 1 input error, 2 resource cap exceeded, 3 theorem or
invariant violation (including failed verify-all criteria).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice

from . import acceptance, cache, species as sp, spectrum as spc
from .cyclo import find_prime_ideal, render_cyclotomic
from .errors import (FbrError, InputError, InvariantViolationError,
                     ResourceLimitError, TheoremViolationError)
from .perm import parse_group_spec
from .ring import build_ring

_WRITE_BATCH = 65536


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def _parser():
    parser = _Parser(
        prog="fbr",
        description="Exact computation in fibered Burnside rings",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def ring_verb(name, summary, body):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=lambda args: _run_ring_verb(args, body))
        p.add_argument("--group", required=True,
                       help="C<n>, D<n>, S<n>, A<n>, Q8, V4 or perm:<deg>:<cycles;...>")
        p.add_argument("--fiber", default="1",
                       help="invariant factors like 2x4, or 1 for the trivial fiber")
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--cache-dir", default=os.environ.get("FBR_CACHE_DIR"))
        return p

    ring_verb("basis", "list the monomial basis orbits", cmd_basis)
    p = ring_verb("multiply", "product of two basis orbits", cmd_multiply)
    p.add_argument("left", type=int)
    p.add_argument("right", type=int)
    ring_verb("species", "emit the species table", cmd_species)
    ring_verb("idempotents", "emit the primitive idempotents", cmd_idempotents)
    p = ring_verb("spectrum", "P-equivalence partition of dual pairs", cmd_spectrum)
    p.add_argument("--char", required=True,
                   help="residue characteristic: 0 or a prime p")
    ring_verb("blocks", "block idempotents and block bases", cmd_blocks)
    p = ring_verb("weyl", "inflation bijection onto a block", cmd_weyl)
    p.add_argument("--perfect", required=True,
                   help="perfect subgroup selector: 1 or a named group of matching order")
    p = sub.add_parser("verify-all", help="run the acceptance suite")
    p.add_argument("--group", default=None, help="restrict the catalog to one group")
    p.add_argument("--fiber", default=None, help="restrict the catalog to one fiber")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.set_defaults(run=cmd_verify_all)
    return parser


def _run_ring_verb(args, body):
    """The protocol of every ring verb: load the ring from --cache-dir or
    build it, fill the envelope, let the verb's body add its fields and
    give its table lines, emit, and save the ring to the cache if this
    call built it.  A cache that cannot be written costs a notice on
    stderr, not the exit code."""
    ring = None
    if args.cache_dir:
        ring = cache.load_session(args.cache_dir, args.group, args.fiber)
    built = ring is None
    if built:
        ring = build_ring(args.group, args.fiber)
    doc = {"command": args.verb, "group": args.group, "fiber": args.fiber,
           "level": ring.level, "rank": ring.rank}
    _emit(args, doc, body(args, ring, doc))
    if args.cache_dir and built:
        try:
            cache.save_session(args.cache_dir, ring, args.group, args.fiber)
        except OSError as exc:
            name = cache.cache_path(args.cache_dir, args.group, args.fiber).name
            print(f"notice: cannot write cache entry {name}: {exc}", file=sys.stderr)
    return 0


def _emit(args, doc, table_lines):
    """Write the document, or the table lines.  A JSON document is
    encoded piece by piece and written _WRITE_BATCH characters at a
    time, so it is never held as one string.  The pieces are joined a
    few thousand at a time: a write per piece would cost a system call
    each on unbuffered stdout, and a length check per piece added about
    a fifth to the encoding time."""
    if args.format == "json":
        pieces = chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc), "\n")
        text = ""
        while batch := "".join(islice(pieces, 4096)):
            text += batch
            while len(text) >= _WRITE_BATCH:
                sys.stdout.write(text[:_WRITE_BATCH])
                text = text[_WRITE_BATCH:]
        sys.stdout.write(text)
    else:
        for line in table_lines:
            print(line)


def cmd_basis(args, ring, doc):
    doc["orbits"] = [ring.orbit_descriptor(i) for i in range(ring.rank)]
    lines = [f"rank {ring.rank}  level {ring.level}"]
    for i, o in enumerate(doc["orbits"]):
        gens = ",".join(o["subgroup"]["generators"]) or "1"
        lines.append(f"b{i:<3} order {o['subgroup']['order']:<4}"
                     f" size {o['orbit_size']:<4} [{gens} | {o['hom']['images']}]")
    return lines


def cmd_multiply(args, ring, doc):
    if not (0 <= args.left < ring.rank and 0 <= args.right < ring.rank):
        raise InputError(f"orbit indices must lie in 0..{ring.rank - 1}")
    prod = ring.multiply(ring.basis_element(args.left),
                         ring.basis_element(args.right))
    doc["left"] = args.left
    doc["right"] = args.right
    doc["product"] = prod.to_json()
    return [f"b{args.left} * b{args.right} ="] + [
        f"  {render_cyclotomic(prod.coeffs[k]):>8} * b{k}" for k in prod.support()
    ]


def cmd_species(args, ring, doc):
    table = sp.species_table(ring)
    doc["rows"] = [sp.dual_descriptor(ring, d) for d in range(ring.rank)]
    doc["cols"] = [ring.orbit_descriptor(i) for i in range(ring.rank)]
    doc["values"] = [[v.to_json() for v in row] for row in table]
    width = max((len(render_cyclotomic(v)) for row in table for v in row),
                default=1)
    return [" ".join(f"{render_cyclotomic(v):>{width}}" for v in row)
            for row in table]


def cmd_idempotents(args, ring, doc):
    elems = [sp.idempotent(ring, d) for d in range(ring.rank)]
    doc["idempotents"] = [
        {"dual": sp.dual_descriptor(ring, d), "element": e.to_json()}
        for d, e in enumerate(elems)
    ]
    return [f"e{d} = {e.render()}" for d, e in enumerate(elems)]


def cmd_spectrum(args, ring, doc):
    char = args.char.strip()
    ideal = None
    if char != "0":
        try:
            p = int(char)
        except ValueError:
            raise InputError(f"--char must be 0 or a prime, got {char!r}") from None
        ideal = find_prime_ideal(p, ring.level)
    part = spc.p_equivalence_partition(ring, ideal)
    characteristic = ideal.p if ideal else 0
    doc["characteristic"] = characteristic
    doc["ideal"] = ideal.to_json() if ideal else None
    doc["classes"] = [list(c) for c in part.classes]
    doc["regular_representatives"] = (
        list(part.regular_representatives)
        if part.regular_representatives is not None else None)
    doc["dual_orbits"] = [sp.dual_descriptor(ring, d) for d in range(ring.rank)]
    lines = [f"characteristic {characteristic}: "
             f"{len(part.classes)} classes"]
    for i, c in enumerate(part.classes):
        rep = ("" if part.regular_representatives is None
               else f"  regular rep d{part.regular_representatives[i]}")
        lines.append(f"  class {i}: {list(c)}{rep}")
    return lines


def cmd_blocks(args, ring, doc):
    comps = spc.components(ring)
    doc["blocks"] = []
    lines = [f"{len(comps)} blocks"]
    for comp in comps:
        e = spc.block_idempotent(ring, comp)
        basis = spc.block_basis(ring, comp)
        doc["blocks"].append({
            "perfect": ring.subgroup_descriptor(comp.perfect_id),
            "dual_orbits": list(comp.dual_orbits),
            "basis_orbits": list(comp.basis_orbits),
            "idempotent": e.to_json(),
            "basis": [x.to_json() for x in basis],
        })
        lines.append(f"block J order {ring.lattice.subgroups[comp.perfect_id].order}:"
                     f" rank {len(comp.basis_orbits)}, e = {e.render()}")
    return lines


def _resolve_perfect(ring, selector):
    perfect = ring.lattice.perfect_class_reps()
    if selector.strip() == "1":
        order = 1
    else:
        order = parse_group_spec(selector).order
    matches = [j for j in perfect
               if ring.lattice.subgroups[j].order == order]
    if not matches:
        raise InputError(f"no perfect subgroup class of order {order}")
    if len(matches) > 1:
        raise InputError(f"ambiguous perfect subgroup selector {selector!r}")
    return matches[0]


def cmd_weyl(args, ring, doc):
    jid = _resolve_perfect(ring, args.perfect)
    iso = spc.weyl_block_iso(ring, jid)
    doc["perfect"] = ring.subgroup_descriptor(jid)
    doc["weyl_group_order"] = iso.weyl_ring.group.order
    doc["bijection"] = [
        {"weyl_orbit": iso.weyl_ring.orbit_descriptor(w), "orbit": ring.orbit_descriptor(g)}
        for w, g in iso.bijection
    ]
    doc["verified"] = True
    lines = [f"W = N(J)/J of order {iso.weyl_ring.group.order}; "
             f"block rank {len(iso.bijection)}; verified"]
    for w, g in iso.bijection:
        lines.append(f"  w{w} -> b{g}")
    return lines


def cmd_verify_all(args):
    groups = [args.group] if args.group else None
    fibers = [args.fiber] if args.fiber else None
    report = acceptance.run_all(groups=groups, fibers=fibers, seed=args.seed)
    doc = {"command": "verify-all", "group": args.group, "fiber": args.fiber}
    doc.update(report)
    lines = []
    for c in report["criteria"]:
        status = ("SKIP" if c.get("skipped")
                  else "PASS" if c["passed"] else "FAIL")
        lines.append(f"{status}  {c['id']}. {c['name']}  {c['detail']}")
    lines.append("overall " + ("PASS" if report["passed"] else "FAIL"))
    _emit(args, doc, lines)
    return 0 if report["passed"] else 3


def main(argv=None):
    try:
        args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left (as `| head` does); drop the rest of the output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (TheoremViolationError, InvariantViolationError) as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 3
    except FbrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
