"""Correctness gate, run outside the timed regions.

Every seed-independent result is reduced to the SHA-256 of its canonical
JSON and compared with reference.json, recorded from the package as it
was when the benchmark was defined.  CLI documents are also validated
against schemas/, and seeded multiply results are checked against the
recorded structure constants.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def save_reference(ref):
    """One line per entry, so that a re-recording diffs entry by entry."""
    blocks = []
    for workload in sorted(ref):
        lines = [f"  {json.dumps(key)}: {json.dumps(val, sort_keys=True, separators=(',', ':'))}"
                 for key, val in sorted(ref[workload].items())]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n }")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


class Schemas:
    def __init__(self, schema_dir):
        from referencing import Registry, Resource
        registry = Registry()
        self.schemas = {}
        for path in sorted(Path(schema_dir).glob("*.json")):
            contents = json.loads(path.read_text())
            registry = registry.with_resource(contents["$id"],
                                              Resource.from_contents(contents))
            self.schemas[path.stem] = contents
        self.registry = registry

    def error(self, verb, doc):
        """None when doc is a valid document of the verb, else the reason."""
        import jsonschema
        try:
            jsonschema.validate(doc, self.schemas[verb], registry=self.registry)
        except jsonschema.ValidationError as exc:
            return f"schema {verb}: {exc.message}"
        return None


def check_product(doc, i, j, table):
    """A multiply document against recorded structure constants."""
    if (doc.get("left"), doc.get("right")) != (i, j):
        return "operands echoed wrongly"
    key = f"{min(i, j)},{max(i, j)}"
    want = {str(k): c for k, c in table[key]}
    coeffs = doc["product"]["coeffs"]
    if set(coeffs) != set(want):
        return f"support of b{i}*b{j} differs"
    for k, c in want.items():
        got = coeffs[k]["coeffs"]
        if got[0] != f"{c}/1" or any(x != "0/1" for x in got[1:]):
            return f"coefficient of b{k} in b{i}*b{j} differs"
    return None
