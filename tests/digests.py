"""The sha256 of a payload's canonical JSON, for tests that compare documents by digest."""

import hashlib

from sslift.formats import canonical_json


def content_digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
