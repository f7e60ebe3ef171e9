"""Packet-immutability rule: headers change through the write-through API.

Once a packet leaves its creator, its headers and its computed lengths must
stay mutually consistent (checksums, ip.total_length, wire length caches).
Scattered field pokes (`head.tcp.ack = ...` in a driver) rot that invariant;
the sanctioned mutators live on :class:`repro.net.packet.Packet` itself
(``absorb_segment``, ``finalize_aggregate_header``, ``rewrite_ack_incremental``,
``refresh_lengths``, ``tso_slice``, ...), so only ``net/`` modules may touch
raw header fields.

The same holds one layer up: an :class:`~repro.buffers.skbuff.SkBuff` keeps
``payload_len`` as the running total of its chained fragments, so its
``frags`` list changes only through ``SkBuff.chain``/``adopt_chain`` in
``buffers/skbuff.py``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional

from repro.analysis.simlint.core import ModuleContext, Rule, Violation, attribute_chain

#: Attribute names that denote a protocol-header sub-object on a packet.
_HEADER_ATTRS = {"tcp", "ip", "eth"}

#: Direct packet fields whose mutation desyncs cached geometry.
_GEOMETRY_ATTRS = {"payload", "payload_len"}

#: Modules that implement the packet/header layer itself.
_EXEMPT_FRAGMENTS = ("/net/",)

#: List methods that add or remove fragments behind ``SkBuff.chain``'s back.
_FRAG_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear"}

#: The one module that may change an skb's fragment list.
_FRAGS_OWNER = "/buffers/skbuff.py"


class PacketMutationRule(Rule):
    id = "packet-mutation"
    summary = (
        "no direct writes to packet header fields outside net/ — use the "
        "Packet write-through API (absorb_segment, rewrite_ack_incremental, "
        "refresh_lengths, ...); skb fragments join only through SkBuff.chain"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        if ctx.module_in(*_EXEMPT_FRAGMENTS):
            return
        check_frags = not ctx.module_in(_FRAGS_OWNER)
        for node in ast.walk(ctx.tree):
            if check_frags and isinstance(node, ast.Call):
                # `skb.frags.append(pkt)` and the other list mutators.
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _FRAG_MUTATORS:
                    root, attrs = attribute_chain(func)
                    if _foreign_frags(root, attrs[:-1]):
                        yield self._frags_violation(ctx, node, root, attrs)
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                root, attrs = attribute_chain(target)
                # `skb.frags = ...` / `skb.frags += ...`.
                if check_frags and _foreign_frags(root, attrs):
                    yield self._frags_violation(ctx, target, root, attrs)
                    continue
                # `x.tcp.ack = ...` — any header object in the chain before
                # the final written attribute.
                if any(a in _HEADER_ATTRS for a in attrs[:-1]):
                    yield self.violation(
                        ctx,
                        target,
                        f"direct write to packet header field "
                        f"`{'.'.join(attrs)}` — mutate through the Packet "
                        "write-through API so checksums and lengths stay "
                        "consistent",
                    )
                    continue
                # `pkt.payload = ...` (but `self.payload = ...` inside the
                # packet layer's own classes is someone else's business —
                # those files are exempt anyway; `self` elsewhere is a
                # different object entirely).
                if (
                    len(attrs) == 1
                    and attrs[0] in _GEOMETRY_ATTRS
                    and root is not None
                    and root != "self"
                ):
                    yield self.violation(
                        ctx,
                        target,
                        f"direct write to `{root}.{attrs[0]}` desyncs packet "
                        "geometry — use set_joined_payload/refresh_lengths",
                    )

    def _frags_violation(
        self, ctx: ModuleContext, node: ast.AST, root: Optional[str], attrs: List[str]
    ) -> Violation:
        name = ".".join([root or "<expr>"] + attrs)
        return self.violation(
            ctx,
            node,
            f"direct change to `{name}` desyncs SkBuff.payload_len — chain "
            "fragments with SkBuff.chain (or move a chain with adopt_chain)",
        )


def _foreign_frags(root: Optional[str], attrs: List[str]) -> bool:
    """True for an attribute chain ending in some object's ``frags``.

    A class's own ``self.frags`` elsewhere is a different object entirely
    (a test double, say); ``self.skb.frags`` is an skb's.
    """
    if not attrs or attrs[-1] != "frags":
        return False
    return not (root == "self" and len(attrs) == 1)


RULES: Iterable[Rule] = (PacketMutationRule(),)
