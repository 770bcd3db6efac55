"""Component values (payload-or-blank) and their canonical byte encoding.

Every per-component value travelling in protocol messages is either an
opaque payload of at most 64 bytes or the distinguished blank value BOT
(the "no agreement" marker).  Equality is byte equality of the canonical
encoding, so digests and signatures over encoded vectors are well defined.
"""

from __future__ import annotations

from . import crypto

MAX_VALUE_BYTES = 64

# Canonical one-byte tags.
TAG_BOT = 0
TAG_VALUE = 1

BOT = None  # Bot is represented as None at the API surface.


def encode_value(value: bytes | None) -> bytes:
    """Tag byte plus length-prefixed payload; BOT encodes as a single byte."""
    if value is None:
        return bytes([TAG_BOT])
    if not isinstance(value, (bytes, bytearray)):
        raise TypeError(f"component value must be bytes or None, got {type(value)!r}")
    if len(value) > MAX_VALUE_BYTES:
        raise ValueError(f"component value exceeds {MAX_VALUE_BYTES} bytes")
    return bytes([TAG_VALUE, len(value)]) + bytes(value)


def decode_values(data: bytes, m: int) -> list[bytes | None]:
    out: list[bytes | None] = []
    i = 0
    for _ in range(m):
        tag = data[i]
        i += 1
        if tag == TAG_BOT:
            out.append(None)
        elif tag == TAG_VALUE:
            n = data[i]
            i += 1
            out.append(data[i : i + n])
            i += n
        else:
            raise ValueError(f"bad component tag {tag}")
    if i != len(data):
        raise ValueError("trailing bytes after component vector")
    return out


def encode_vector(values: list[bytes | None]) -> bytes:
    return b"".join(encode_value(v) for v in values)


class ValueInterner:
    """Per-instance mapping of component values to small dense ids.

    Id 0 is reserved for BOT.  Ids are assigned in first-seen order, which
    the instance machinery keeps deterministic.  Each value id carries its
    canonical encoding, made once, and that encoding's digest; the digest
    ordering is the protocol's deterministic tie-break.
    """

    def __init__(self):
        self._by_bytes: dict[bytes, int] = {}
        self.values: list[bytes | None] = [None]
        self.encodings: list[bytes] = [encode_value(None)]
        self.digests: list[bytes] = [crypto.digest(self.encodings[0])]

    def intern(self, value: bytes | None) -> int:
        if value is None:
            return 0
        value = bytes(value)
        vid = self._by_bytes.get(value)
        if vid is None:
            vid = len(self.values)
            self._by_bytes[value] = vid
            self.values.append(value)
            self.encodings.append(encode_value(value))
            self.digests.append(crypto.digest(self.encodings[-1]))
        return vid

    def intern_vector(self, values: list[bytes | None]) -> list[int]:
        return [self.intern(v) for v in values]

    def value(self, vid: int) -> bytes | None:
        return self.values[vid]

    def __len__(self) -> int:
        return len(self.values)

    def digest_ranks(self):
        """Rank of each value id under ascending digest order (rank 0 wins ties)."""
        order = sorted(range(len(self.digests)), key=lambda i: self.digests[i])
        ranks = [0] * len(order)
        for rank, vid in enumerate(order):
            ranks[vid] = rank
        return ranks
