"""Content-addressed cache for computed hom tables.

Requests are canonicalized to JSON, hashed, and the stored payload is the
canonical JSON of the result: a warm lookup reproduces the cold output byte
for byte.
"""

import hashlib
import json
import os
import tempfile


def canonical_json(payload):
    """Stable text form: sorted keys, fixed separators, no trailing space."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def request_key(request):
    return hashlib.sha256(canonical_json(request).encode("utf-8")).hexdigest()


def resolve_cache_dir(flag_value=None):
    """Precedence: explicit flag, then HMSKIT_CACHE_DIR, then ./.hmskit-cache."""
    if flag_value:
        return flag_value
    env = os.environ.get("HMSKIT_CACHE_DIR")
    if env:
        return env
    return os.path.join(".", ".hmskit-cache")


class TableCache:
    """Directory of JSON payloads addressed by request hash."""

    def __init__(self, root):
        self.root = root

    def path_for(self, key):
        return os.path.join(self.root, key + ".json")

    def load(self, key):
        """Stored payload for the key, or None on miss or unreadable entry."""
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # ValueError covers both bad JSON and bytes that are not UTF-8
            return None

    def store(self, key, payload):
        os.makedirs(self.root, exist_ok=True)
        data = canonical_json(payload)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
            # rename is atomic on the same filesystem, so readers never see
            # a partially written entry
            os.replace(tmp, self.path_for(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
