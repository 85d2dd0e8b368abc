"""Content-addressed cache for computed hom tables.

Requests are canonicalized to JSON, hashed together with BSIDE_REVISION, and
the stored entry is the canonical JSON of the result plus a stamp: a warm
lookup reproduces the cold output byte for byte.

The stamp holds the request key, the entry layout (SCHEMA), BSIDE_REVISION
and the SHA-256 of the table's canonical JSON.  An entry whose stamp is
missing or differs in any field is a miss, so tables of an older algorithm,
partial edits and bit rot are recomputed.  The cache directory is trusted
like the user's own files: an entry forged with a valid stamp is not told
apart without recomputing it.

SHA-256 comes from the interpreter's built-in module (_sha2 on 3.12 and
later, _sha256 before): hashlib would load OpenSSL's libcrypto, about 3.6 MB
of every process's resident memory, for this one function.  The digests are
the same, so keys and stamps do not depend on which module computed them.
"""

import json
import os
import tempfile

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        # an interpreter built without the module has only hashlib's
        from hashlib import sha256

# layout of a stored entry: the table's keys plus "stamp"
SCHEMA = 1

# revision of the B-side algorithm: bump it whenever a change to the hom
# computation may change a table, so that no older table is replayed
BSIDE_REVISION = 1


def canonical_json(payload):
    """Stable text form: sorted keys, fixed separators, no trailing space."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text):
    return sha256(text.encode("utf-8")).hexdigest()


def request_key(request):
    """Hash of the request and of BSIDE_REVISION."""
    return _sha256(canonical_json({"request": request, "revision": BSIDE_REVISION}))


def resolve_cache_dir(flag_value):
    """Precedence: explicit flag, then HMSKIT_CACHE_DIR, then ./.hmskit-cache."""
    if flag_value:
        return flag_value
    env = os.environ.get("HMSKIT_CACHE_DIR")
    if env:
        return env
    return os.path.join(".", ".hmskit-cache")


def _stamp(key, table):
    return {
        "key": key,
        "schema": SCHEMA,
        "revision": BSIDE_REVISION,
        "sha256": _sha256(canonical_json(table)),
    }


class TableCache:
    """Directory of stamped JSON tables addressed by request hash.

    After a `load` that finds an entry but does not return it, `rejected`
    says why: "malformed" (unreadable, or no stamp) or "stale" (a stamp
    that does not match); otherwise it is None.
    """

    def __init__(self, root):
        self.root = root
        self.rejected = None

    def path_for(self, key):
        return os.path.join(self.root, key + ".json")

    def load(self, key):
        """Stored table for the key, or None on a miss or rejected entry."""
        self.rejected = None
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (FileNotFoundError, NotADirectoryError):
            # no entry, or no directory to hold one: a plain miss
            return None
        except (OSError, ValueError):
            # ValueError covers both bad JSON and bytes that are not UTF-8
            self.rejected = "malformed"
            return None
        stamp = entry.pop("stamp", None) if isinstance(entry, dict) else None
        if not isinstance(stamp, dict):
            self.rejected = "malformed"
            return None
        if stamp != _stamp(key, entry):
            self.rejected = "stale"
            return None
        return entry

    def store(self, key, payload):
        os.makedirs(self.root, exist_ok=True)
        data = canonical_json({**payload, "stamp": _stamp(key, payload)})
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
