"""Session cache: lattice, basis and structure constants on disk.

A cache entry is keyed by a digest of the normalized group and fiber
specs.  Loading checks the format version, the digest and a payload
checksum, then rebuilds the group from its spec under the order cap
(so a group over the cap is a ResourceLimitError, not a corrupt entry),
checks the stored conjugacy classes, to_rep and normalizers against the
group, and checks the stored basis against the one rebuilt on the cached
lattice; any other mismatch or corruption makes the caller recompute,
with a notice on stderr.  Neither the basis nor the structure constants
depend on the level, so a loaded ring is at the natural level.  The hom
cap is not part of the key: loading rebuilds the Hom groups, which
enforce the cap again.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

from .abelian import parse_fiber_spec
from .errors import FbrError, ResourceLimitError
from .perm import DEFAULT_ORDER_CAP, SubgroupLattice, parse_group_spec
from .ring import FiberedBurnsideRing

FORMAT_VERSION = 2


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
        "group_spec": group_spec.strip(),
        "fiber_spec": fiber_spec.strip(),
        "digest": session_key(group_spec, fiber_spec),
        "subgroups": [list(s.sorted_elems) for s in lattice.subgroups],
        "class_index": list(lattice.class_index),
        "to_rep": list(lattice.to_rep),
        "classes": [{"rep": c.rep, "members": list(c.members)}
                    for c in lattice.classes],
        "normalizers": list(lattice.normalizer_ids),
        "basis": [[o.subgroup_id, o.hom_index] for o in ring.basis.orbits],
        "structure": {
            f"{i},{j}": [[k, c] for k, c in val]
            for (i, j), val in sorted(ring._structure.items())
        },
    }
    payload["checksum"] = _payload_checksum(payload)
    return payload


def ring_from_payload(payload, order_cap):
    """Rebuild a ring session from a payload; None if it does not verify."""
    if not isinstance(payload, dict) or payload.get("format_version") != FORMAT_VERSION:
        return None
    if payload.get("checksum") != _payload_checksum(payload):
        return None
    if payload.get("digest") != session_key(payload["group_spec"],
                                            payload["fiber_spec"]):
        return None
    group = parse_group_spec(payload["group_spec"], order_cap)
    fiber = parse_fiber_spec(payload["fiber_spec"])
    lattice = SubgroupLattice.from_data(
        group, payload["subgroups"], payload["class_index"], payload["to_rep"],
        [(c["rep"], c["members"]) for c in payload["classes"]],
        payload["normalizers"])
    if not _classes_agree(lattice):
        return None
    ring = FiberedBurnsideRing(group, fiber, lattice=lattice)
    stored_basis = [tuple(b) for b in payload["basis"]]
    rebuilt = [(o.subgroup_id, o.hom_index) for o in ring.basis.orbits]
    if stored_basis != rebuilt:
        return None
    for key, val in payload["structure"].items():
        i, j = (int(t) for t in key.split(","))
        ring._structure[(i, j)] = tuple((int(k), int(c)) for k, c in val)
    return ring


def _classes_agree(lattice):
    """Whether the stored classes, class_index, to_rep and normalizers are
    those of the lattice's subgroups, up to the choice of each to_rep
    witness (which no output depends on).

    The classes must partition the subgroups in canonical order (each
    rep its class's least member, reps increasing) and agree with
    class_index; to_rep[s] must conjugate s onto its class rep; the
    generators of the stored N(s) must normalize s, with |N(s)| equal to
    |G| over the class size.  N(s) then is the whole normalizer and each
    class a whole conjugacy class.  Only generators are conjugated, so
    the check costs far less than rebuilding the lattice.
    """
    group, subs, classes = lattice.group, lattice.subgroups, lattice.classes
    m = len(subs)
    if not len(lattice.class_index) == len(lattice.to_rep) == \
            len(lattice.normalizer_ids) == m:
        return False
    if sorted(s for c in classes for s in c.members) != list(range(m)):
        return False
    last_rep = -1
    for c in classes:
        if c.rep != min(c.members) or c.rep <= last_rep:
            return False
        last_rep = c.rep
        rep_elems = subs[c.rep].elems
        for s in c.members:
            w, n = lattice.to_rep[s], lattice.normalizer_ids[s]
            if lattice.class_index[s] != c.index or not (
                    0 <= w < group.order and 0 <= n < m):
                return False
            # a conjugate of H inside a subgroup of |H| elements is that subgroup
            h = subs[s]
            if h.order != len(rep_elems) or not all(
                    group.conj(w, x) in rep_elems for x in h.gens):
                return False
            if subs[n].order * len(c.members) != group.order or not all(
                    group.conj(g, x) in h.elems for g in subs[n].gens for x in h.gens):
                return False
    return True


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


def load_session(cache_dir, group_spec, fiber_spec, order_cap=DEFAULT_ORDER_CAP):
    """Ring from cache, or None (with a stderr notice) when unusable."""
    path = cache_path(cache_dir, group_spec, fiber_spec)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        ring = ring_from_payload(payload, order_cap)
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
