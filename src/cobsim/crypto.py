"""Hashing, simulated signatures and the node key registry.

All cryptography here is simulation-grade: digests are blake2b-256 and
"signatures" are keyed blake2b MACs whose verification goes through the
registry of node secrets.  This gives deterministic, collision-resistant
binding (any bit flip breaks verification) without real asymmetric crypto,
which is out of scope.
"""

from __future__ import annotations

import hashlib

DIGEST_SIZE = 32
SIG_SIZE = 64


def digest(*parts: bytes) -> bytes:
    """32-byte blake2b over the concatenation of ``parts``."""
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    for p in parts:
        h.update(p)
    return h.digest()


def keyed_digest(key: bytes, *parts: bytes) -> bytes:
    h = hashlib.blake2b(key=key[:64], digest_size=DIGEST_SIZE)
    for p in parts:
        h.update(p)
    return h.digest()


def sign(secret: bytes, payload: bytes) -> bytes:
    """Simulated signature: 64-byte keyed MAC over the payload."""
    return hashlib.blake2b(payload, key=secret[:64], digest_size=SIG_SIZE).digest()


def u64_from(data: bytes) -> int:
    return int.from_bytes(data[:8], "big")


class KeyRegistry:
    """Maps node ids to their (simulated) key material.

    The simulator plays omniscient verifier: "public key" checks recompute
    the keyed hash from the registered secret.  Secrets are derived
    deterministically from the run seed so identical scenarios produce
    identical key material.
    """

    def __init__(self, num_nodes: int, master: bytes):
        self.num_nodes = num_nodes
        self._secrets = [
            digest(master, b"node-secret", i.to_bytes(4, "big")) for i in range(num_nodes)
        ]

    def secret(self, node: int) -> bytes:
        return self._secrets[node]

    def sign(self, node: int, payload: bytes) -> bytes:
        return sign(self._secrets[node], payload)

    def verify(self, node: int, payload: bytes, signature: bytes) -> bool:
        if not 0 <= node < self.num_nodes:
            return False
        return sign(self._secrets[node], payload) == signature
