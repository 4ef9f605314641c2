"""Message size model.

The simulator charges each protocol message a byte size so that bandwidth
figures are meaningful.  We use a BGP UPDATE-shaped estimate: fixed header
plus per-hop AS-path bytes plus a small attribute block.  Absolute numbers
only shift the Figs. 5/6 curves vertically; the comparisons (gadget vs
fixed, PV vs HLP vs HLP-CH) depend on message *counts* and path lengths,
which the protocols determine.
"""

from __future__ import annotations

#: BGP message header (RFC 4271) is 19 bytes.
HEADER_BYTES = 19
#: Per-hop cost of the AS_PATH attribute (4-byte AS numbers).
PER_HOP_BYTES = 4
#: NLRI + NEXT_HOP + preference attributes, rounded.
ATTRIBUTE_BYTES = 21


def update_size(path_length: int) -> int:
    """Size of a route advertisement carrying a ``path_length``-hop path."""
    hops = path_length if path_length > 0 else 0
    return HEADER_BYTES + ATTRIBUTE_BYTES + PER_HOP_BYTES * hops
