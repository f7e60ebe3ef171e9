"""Reference semantics of the modified TCP layer (paper §3.4).

Receive Aggregation changes two things the TCP layer normally infers from
the packet stream: the number of segments received, and the exact sequence
of ACK numbers.  The paper's §3.4 fixes both using the per-fragment metadata
stored in the sk_buff:

1. **Congestion control** — cwnd must grow as if each fragment's ACK had
   arrived as its own packet (Reno counts ACKs, not bytes).
2. **ACK generation** — one ACK per two full segments *received*, counted
   per fragment, not per aggregated packet.

The production implementation lives inside
:class:`repro.tcp.connection.TcpConnection` (``aggregation_aware`` mode).
This module provides the same semantics as *pure functions*, used by the
test suite to cross-check the connection: for any fragment metadata, the
connection's observable behaviour must equal these references.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.tcp.reno import RenoState
from repro.tcp.seqmath import seq_gt


def replay_fragment_acks(reno: RenoState, snd_una: int, frag_acks: Sequence[int]) -> Tuple[RenoState, int]:
    """Apply each fragment's ACK number to ``reno`` as its own ACK.

    Returns the mutated state and the new ``snd_una``.  Duplicate-ACK and
    recovery handling are out of scope here (aggregation never coalesces the
    out-of-order packets that produce them — §3.6).
    """
    una = snd_una
    for ack in frag_acks:
        if seq_gt(ack, una):
            acked = (ack - una) & 0xFFFFFFFF
            reno.on_new_ack(acked)
            una = ack
    return reno, una


def acks_for_fragments(
    frag_end_seqs: Sequence[int],
    segs_since_ack: int,
    ack_every: int = 2,
) -> Tuple[List[int], int]:
    """The ACK numbers an unaggregated receiver would have generated.

    Walks the fragment edges applying the every-``ack_every``-segments rule,
    starting from a carry-in counter.  Returns (ack numbers, carry-out).

    >>> acks_for_fragments([1448*1, 1448*2, 1448*3, 1448*4], 0)
    ([2896, 5792], 0)
    >>> acks_for_fragments([100, 200, 300], 1)
    ([100, 300], 0)
    """
    acks: List[int] = []
    count = segs_since_ack
    for end_seq in frag_end_seqs:
        count += 1
        if count >= ack_every:
            acks.append(end_seq)
            count = 0
    return acks, count
