"""The benchmark's workloads: their inputs and the fbr calls of one pass.

Why these inputs (see README.md for the measured splits):

- cli-session: the only workload through the CLI, the disk cache and
  interpreter start-up, where fixed per-call costs show; its two
  nonsolvable rings (S5/2 and GL(3,2)/1) have lattices of 156 and 179
  subgroups, so lattice enumeration, the p-regularization climb and the
  Weyl map are most of the work behind the calls.
- verify-all: the acceptance suite end to end over the catalog, many
  small rings and their cyclotomic checks; the only user of the
  acceptance criteria and the table-of-marks oracle.

A job is one user-visible request, one fbr process.
"""

from __future__ import annotations

import random

from fbr import acceptance

GL32 = "perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)"

# group, fiber, primes dividing |G|, one selector per perfect class
CLI_RINGS = [
    ("S5", "2", (2, 3, 5), ("1", "A5")),
    (GL32, "1", (2, 3, 7), ("1", GL32)),
]
MULTIPLY_PAIRS = 2


def specs(workload):
    """The (group, fiber) specs a workload parses during set-up."""
    if workload == "cli-session":
        return [(g, f) for g, f, _, _ in CLI_RINGS]
    return [(g, f) for g in acceptance.CATALOG_GROUPS
            for f in acceptance.CATALOG_FIBERS]


SHORT_NAMES = {GL32: "GL(3,2)"}


def ring_label(group, fiber):
    return f"{SHORT_NAMES.get(group, group)}/{fiber}"


def multiply_pairs(seed, rank_of):
    """Seeded multiply operands for each CLI ring: label -> [(i, j), ...]."""
    rng = random.Random(seed)
    out = {}
    for group, fiber, _, _ in CLI_RINGS:
        label = ring_label(group, fiber)
        n = rank_of[label]
        out[label] = [(rng.randrange(n), rng.randrange(n))
                      for _ in range(MULTIPLY_PAIRS)]
    return out


def cli_calls(workload, seed, pairs):
    """The fbr argument lists of one pass, as (label, kind, argv).

    kind is "cold" for the call that writes the cache, "warm" for the
    calls that read it, "multiply" for seeded products (warm as well)
    and "report" for verify-all.
    """
    if workload == "verify-all":
        return [("verify-all", "report", ["verify-all", "--seed", str(seed)])]
    calls = []
    for group, fiber, primes, perfect in CLI_RINGS:
        label = ring_label(group, fiber)
        ring_args = ["--group", group, "--fiber", fiber]
        calls.append((f"{label} basis cold", "cold", ["basis", *ring_args]))
        calls.append((f"{label} basis warm", "warm", ["basis", *ring_args]))
        for i, j in pairs[label]:
            calls.append((f"{label} multiply {i} {j}", "multiply",
                          ["multiply", *ring_args, str(i), str(j)]))
        calls.append((f"{label} species", "warm", ["species", *ring_args]))
        calls.append((f"{label} idempotents", "warm", ["idempotents", *ring_args]))
        for p in (0, *primes):
            calls.append((f"{label} spectrum {p}", "warm",
                          ["spectrum", *ring_args, "--char", str(p)]))
        calls.append((f"{label} blocks", "warm", ["blocks", *ring_args]))
        for k, sel in enumerate(perfect):
            calls.append((f"{label} weyl {k}", "warm",
                          ["weyl", *ring_args, "--perfect", sel]))
    return calls
