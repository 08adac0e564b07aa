"""Session cache: subgroup sets, basis and structure constants on disk.

A cache entry is keyed by a digest of the normalized group and fiber
specs, and is bound to the key it is read under: loading checks the
format version, a payload checksum and that the stored digest is the
key of the requested specs, then rebuilds the group and fiber from
those specs under the order cap (so a group over the cap is a
ResourceLimitError, not a corrupt entry).
The stored subgroup sets must hold element indices of the group and be
subgroups; the lattice built on them computes the classes, witnesses
and normalizers, which fails when the sets are not closed under
conjugation.  The stored basis must match the one rebuilt on that
lattice, which it does not when a class is missing.  The structure
constants must be a dict of "i,j" keys with 0 <= i <= j < rank whose
values are lists of int pairs [k, c] with 0 <= k < rank, and each entry
must respect the degree homomorphism [K, psi] -> |G:K|: deg(i) deg(j)
equals the sum of c deg(k), which an edit that keeps the degrees
passes.  Any other mismatch or corruption makes the caller recompute,
with a notice on stderr.  Neither the basis nor the structure constants
depend on the level, so a loaded ring is at the natural level.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

from .abelian import parse_fiber_spec
from .errors import FbrError, ResourceLimitError
from .perm import SubgroupLattice, parse_group_spec
from .ring import FiberedBurnsideRing

FORMAT_VERSION = 4
# an entry with other fields was not written in this format
_FIELDS = {"format_version", "digest", "subgroups", "basis", "structure", "checksum"}


def session_key(group_spec, fiber_spec):
    fiber = parse_fiber_spec(fiber_spec)
    canon = json.dumps(
        {"group": group_spec.strip(), "fiber": list(fiber.invariant_factors)},
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _payload_checksum(payload):
    body = {k: v for k, v in payload.items() if k != "checksum"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def ring_payload(ring, group_spec, fiber_spec):
    lattice = ring.lattice
    payload = {
        "format_version": FORMAT_VERSION,
        "digest": session_key(group_spec, fiber_spec),
        "subgroups": [list(s.sorted_elems) for s in lattice.subgroups],
        "basis": [[o.subgroup_id, o.hom_index] for o in ring.basis.orbits],
        "structure": {
            f"{i},{j}": [[k, c] for k, c in val]
            for (i, j), val in sorted(ring._structure.items())
        },
    }
    payload["checksum"] = _payload_checksum(payload)
    return payload


def ring_from_payload(payload, group_spec, fiber_spec):
    """Rebuild the ring session of the given specs from a payload; None if
    it does not verify or was stored under another key."""
    if (not isinstance(payload, dict) or set(payload) != _FIELDS
            or payload["format_version"] != FORMAT_VERSION):
        return None
    if payload["checksum"] != _payload_checksum(payload):
        return None
    if payload["digest"] != session_key(group_spec, fiber_spec):
        return None
    group = parse_group_spec(group_spec)
    fiber = parse_fiber_spec(fiber_spec)
    sets = payload["subgroups"]
    if not all(type(x) is int and 0 <= x < group.order for s in sets for x in s):
        return None
    lattice = SubgroupLattice(group, sets)
    if any(group.closure(s.gens) != s.elems for s in lattice.subgroups):
        return None
    ring = FiberedBurnsideRing(group, fiber, lattice=lattice)
    stored_basis = [tuple(b) for b in payload["basis"]]
    rebuilt = [(o.subgroup_id, o.hom_index) for o in ring.basis.orbits]
    if stored_basis != rebuilt:
        return None
    structure = payload["structure"]
    if not isinstance(structure, dict):
        return None
    n = ring.rank
    deg = [group.order // lattice.subgroups[o.subgroup_id].order
           for o in ring.basis.orbits]
    for key, val in structure.items():
        i, j = (int(t) for t in key.split(","))
        if not (0 <= i <= j < n and isinstance(val, list) and all(
                isinstance(t, list) and len(t) == 2 and all(type(x) is int for x in t)
                and 0 <= t[0] < n for t in val)):
            return None
        if deg[i] * deg[j] != sum(c * deg[k] for k, c in val):
            return None
        ring._structure[(i, j)] = tuple(map(tuple, val))
    return ring


def cache_path(cache_dir, group_spec, fiber_spec):
    return Path(cache_dir) / f"{session_key(group_spec, fiber_spec)}.json"


def save_session(cache_dir, ring, group_spec, fiber_spec):
    """Write the entry through a temporary file in the same directory and
    rename it into place, so a concurrent reader never sees half of it."""
    path = cache_path(cache_dir, group_spec, fiber_spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = ring_payload(ring, group_spec, fiber_spec)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_session(cache_dir, group_spec, fiber_spec):
    """Ring from cache, or None (with a stderr notice) when unusable."""
    path = cache_path(cache_dir, group_spec, fiber_spec)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        ring = ring_from_payload(payload, group_spec, fiber_spec)
    except ResourceLimitError:
        # a cap is exceeded, which recomputing would hit again
        raise
    except (OSError, ValueError, KeyError, TypeError, FbrError):
        # corrupt or truncated entries; anything else is a bug and propagates
        ring = None
    if ring is None:
        print(f"notice: cache entry {path.name} unusable, recomputing",
              file=sys.stderr)
    return ring
