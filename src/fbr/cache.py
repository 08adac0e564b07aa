"""Session cache: the subgroup sets and the basis on disk.

An entry holds the element sets of the subgroups, which spare the
enumeration, and the basis; structure constants are not stored.
A cache entry is keyed by a digest of the normalized group and fiber
specs, and is bound to the key it is read under: loading checks the
format version, a payload checksum and that the stored digest is the
key of the requested specs, then rebuilds the group and fiber from
those specs under the order cap (so a group over the cap is a
ResourceLimitError, not a corrupt entry).
The payload's shape (its fields, and lists of ints wherever ints are
read) is checked before anything is built, so that an error raised by
the build propagates as the bug it is.  The stored subgroup sets must
hold element indices of the group and be subgroups.  The lattice built
on them computes the classes, witnesses and normalizers; when the sets
miss a conjugate, a normalizer or another subgroup that the build looks
up, the lookup raises InvariantViolationError, which marks the entry
unusable.  A family of sets that misses a whole class that no lookup
reaches builds without error; the stored basis, which must match the
one rebuilt on that lattice, catches it.  Any other mismatch or
corruption makes the caller recompute, with a notice on stderr.  The
basis does not depend on the level, so a loaded ring is at the
natural level.
Both digests are SHA-256 from CPython's built-in module (_sha2 on 3.12+,
_sha256 before), not hashlib, whose import maps OpenSSL's libcrypto
(about 3.5 MB of peak RSS); hashlib is the fallback on a build without
built-in hashes.  The hex digests are the same.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .abelian import parse_fiber_spec
from .errors import InvariantViolationError
from .perm import SubgroupLattice, parse_group_spec
from .ring import FiberedBurnsideRing

FORMAT_VERSION = 5
# an entry with other fields was not written in this format
_FIELDS = {"format_version", "digest", "subgroups", "basis", "checksum"}


def session_key(group_spec, fiber_spec):
    fiber = parse_fiber_spec(fiber_spec)
    canon = json.dumps(
        {"group": group_spec.strip(), "fiber": list(fiber.invariant_factors)},
        sort_keys=True,
    )
    return sha256(canon.encode()).hexdigest()


def _payload_checksum(payload):
    body = {k: v for k, v in payload.items() if k != "checksum"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode()).hexdigest()


def ring_payload(ring, group_spec, fiber_spec):
    payload = {
        "format_version": FORMAT_VERSION,
        "digest": session_key(group_spec, fiber_spec),
        "subgroups": [list(s.sorted_elems) for s in ring.lattice.subgroups],
        "basis": [[o.subgroup_id, o.hom_index] for o in ring.basis.orbits],
    }
    payload["checksum"] = _payload_checksum(payload)
    return payload


def _ints(value, length=None):
    return (isinstance(value, list) and (length is None or len(value) == length)
            and all(type(x) is int for x in value))


def _well_formed(payload):
    """The shape of an entry of this format: its fields, and lists of
    ints wherever the build reads ints."""
    return (isinstance(payload, dict) and set(payload) == _FIELDS
            and payload["format_version"] == FORMAT_VERSION
            and isinstance(payload["subgroups"], list)
            and all(_ints(s) for s in payload["subgroups"])
            and isinstance(payload["basis"], list)
            and all(_ints(b, 2) for b in payload["basis"]))


def ring_from_payload(payload, group_spec, fiber_spec):
    """Rebuild the ring session of the given specs from a payload; None if
    it is malformed, does not verify or was stored under another key.
    The shape is checked before anything is built, so an exception from
    the build is a bug, not a corrupt entry."""
    if not _well_formed(payload):
        return None
    if payload["checksum"] != _payload_checksum(payload):
        return None
    if payload["digest"] != session_key(group_spec, fiber_spec):
        return None
    group = parse_group_spec(group_spec)
    fiber = parse_fiber_spec(fiber_spec)
    sets = payload["subgroups"]
    if not all(0 <= x < group.order for s in sets for x in s):
        return None
    lattice = SubgroupLattice(group, sets)
    if any(group.closure(s.gens) != s.elems for s in lattice.subgroups):
        return None
    ring = FiberedBurnsideRing(group, fiber, lattice=lattice)
    stored_basis = [tuple(b) for b in payload["basis"]]
    rebuilt = [(o.subgroup_id, o.hom_index) for o in ring.basis.orbits]
    return ring if stored_basis == rebuilt else None


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
    except (OSError, ValueError):
        payload = None  # unreadable or truncated
    try:
        ring = ring_from_payload(payload, group_spec, fiber_spec)
    except InvariantViolationError:
        ring = None  # the stored sets miss a subgroup that the build looks up
    if ring is None:
        print(f"notice: cache entry {path.name} unusable, recomputing",
              file=sys.stderr)
    return ring
