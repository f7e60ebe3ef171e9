"""The TCP connection state machine.

One :class:`TcpConnection` is one endpoint of one connection.  It implements:

* three-way handshake and teardown (RFC 793 state machine),
* Reno congestion control with NewReno partial ACKs (:mod:`repro.tcp.reno`),
* RTO estimation and management (:mod:`repro.tcp.rtt`), Karn's algorithm,
* delayed ACKs (ACK every second full segment, else a delayed-ACK timer),
* out-of-order reassembly with SACK block generation,
* RFC 1323 timestamps and window scaling,
* the paper's §3.4 *modified TCP layer*: when handed an aggregated packet it
  replays the per-fragment ACK numbers into congestion control and counts
  ACK-generation per fragment, so protocol behaviour is identical to having
  processed every network packet individually.

The connection is **cost-free**: it never touches the CPU model.  Hosts that
must account cycles (the receive host under test) wrap it — see
``repro/host/kernel.py``.

The connection talks to its environment through a small transport interface::

    transport.send_packet(conn, packet)      # data / control segments
    transport.send_acks(conn, ack_event)     # a batch of consecutive pure ACKs
    timers.schedule(delay, fn) -> handle     # handle.cancel(),
                                             # handle.postpone(delay) -> bool
    clock() -> float                         # simulation seconds

A host builds one :class:`TcpConfig` and one clock and hands the same pair
to every connection it opens or accepts; the config is frozen so that
sharing it is safe.

``send_acks`` receives *all* consecutive ACKs generated by one inbound packet
as one :class:`AckEvent` — the hook Acknowledgment Offload (§4) needs.  A
baseline transport simply emits one pure-ACK packet per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.net.flow import FlowKey
from repro.net.ip import IPv4Header
from repro.net.packet import Packet, PacketTemplate
from repro.net.tcp_header import TcpFlags, TcpHeader, TcpOptions
from repro.tcp.reno import RenoState
from repro.tcp.rtt import RttEstimator
from repro.tcp.seqmath import seq_add, seq_diff, seq_ge, seq_gt, seq_le, seq_lt
from repro.tcp.state import TcpState

#: Raw flag bits for hot-path tests (IntFlag operators construct a new enum
#: member per ``&``, which is measurable at millions of segments).
_F_FIN = int(TcpFlags.FIN)
_F_SYN = int(TcpFlags.SYN)
_F_RST = int(TcpFlags.RST)
_F_ACK = int(TcpFlags.ACK)
_F_SYN_FIN = _F_SYN | _F_FIN
#: Pre-combined enum members for the segments a connection sends (enum
#: ``|`` at call time constructs a new member each call).
_ACK_PSH = TcpFlags.ACK | TcpFlags.PSH
_SYN_ACK = TcpFlags.SYN | TcpFlags.ACK
_FIN_ACK = TcpFlags.FIN | TcpFlags.ACK
_SEQ_MASK = 0xFFFFFFFF
_SEQ_HALF = 0x80000000
#: The state nearly every segment arrives in, as a module constant so the
#: per-segment state tests skip the enum lookup.
_ESTABLISHED = TcpState.ESTABLISHED


@dataclass(frozen=True)
class TcpConfig:
    """Per-connection tunables, shared by every connection of a host."""

    mss: int = 1448
    #: Receive buffer: the Linux 2.6.16 default (~85 KiB).  This matters for
    #: the saturation experiments — it window-limits each sender below the
    #: NIC ring capacity, producing the paper's lossless CPU-bound regime
    #: rather than slow-start burst losses.
    rcv_buf: int = 87380
    window_scale: int = 2
    use_timestamps: bool = True
    use_sack: bool = True
    delayed_ack_timeout: float = 0.040
    ts_clock_hz: float = 1000.0
    #: §3.4 modified TCP layer: consume per-fragment metadata of aggregated
    #: packets.  Harmless when packets arrive unaggregated.
    aggregation_aware: bool = False
    initial_cwnd_segments: int = 3
    #: Generate real payload bytes (integrity tests) vs. length-only.
    materialize_payload: bool = False
    #: Segments per send offered to the driver: >1 enables TSO-style large
    #: sends (the transmit-side analogue the paper cites, §1) — only
    #: meaningful on hosts whose driver/NIC can split before the wire.
    gso_segments: int = 1
    time_wait_timeout: float = 1.0
    persist_interval: float = 0.2


@dataclass
class AckEvent:
    """A batch of consecutive pure ACKs produced by one inbound packet.

    ``acks`` is ascending.  ``window``/``timestamp``/``sack_blocks`` describe
    the *last* ACK of the batch; earlier ones share them (§4.2: successive
    ACK headers differ only in the ACK number and checksum).
    """

    acks: List[int]
    window: int
    timestamp: Optional[Tuple[int, int]]
    sack_blocks: List[Tuple[int, int]] = field(default_factory=list)


class TcpConnStats:
    """Counters kept by each connection endpoint."""

    # Slotted by hand: ``dataclass(slots=True)`` needs Python 3.10.
    __slots__ = (
        "segs_in", "segs_out", "bytes_delivered", "acks_generated", "ack_batches",
        "dup_acks_in", "out_of_order_in", "retransmits", "fast_retransmits", "rtos",
        "delayed_ack_fires", "frag_acks_processed", "cwnd_updates",
    )

    def __init__(self) -> None:
        self.segs_in = 0
        self.segs_out = 0
        self.bytes_delivered = 0
        self.acks_generated = 0
        self.ack_batches = 0
        self.dup_acks_in = 0
        self.out_of_order_in = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.rtos = 0
        self.delayed_ack_fires = 0
        self.frag_acks_processed = 0
        #: Times congestion control processed an advancing (non-recovery) ACK.
        self.cwnd_updates = 0


class _RtxRecord:
    """One unacknowledged outbound segment."""

    __slots__ = ("seq", "length", "fin", "syn", "time_sent", "retransmitted", "end_seq")

    def __init__(self, seq: int, length: int, fin: bool, syn: bool, time_sent: float):
        self.seq = seq
        self.length = length
        self.fin = fin
        self.syn = syn
        self.time_sent = time_sent
        self.retransmitted = False
        # seq/length/fin/syn are fixed for the record's lifetime, so the end
        # sequence is precomputed (it is read on every ACK that arrives).
        self.end_seq = (seq + length + (1 if fin or syn else 0)) & 0xFFFFFFFF


class TcpConnection:
    """One endpoint of a TCP connection (see module docstring)."""

    # Past 30 attributes CPython gives every instance its own ``__dict__``;
    # a scale run holds tens of thousands of endpoints.
    __slots__ = (
        "key", "config", "clock", "timers", "transport", "app", "_name", "stats",
        "_template", "state",
        # send side
        "iss", "snd_una", "snd_nxt", "snd_wnd", "snd_wl1", "snd_wl2",
        "peer_mss", "peer_wscale", "peer_sack_ok", "reno", "rtt", "rtx_queue",
        "source", "_send_base_seq", "_fin_pending", "_fin_sent", "_rto_timer",
        "_rto_backoff", "_loss_recovery_point", "_loss_recovery_nxt",
        "_recovery_partials", "_persist_timer",
        # receive side
        "irs", "rcv_nxt", "_ooo", "_segs_since_ack", "_delack_timer",
        "ts_recent", "_unread_bytes", "_last_window_advertised", "_fin_rcvd",
        "_time_wait_timer",
    )

    def __init__(
        self,
        key: FlowKey,
        config: TcpConfig,
        clock: Callable[[], float],
        timers,
        transport,
        iss: int = 0,
        app=None,
        name: str = "",
    ):
        self.key = key
        self.config = config
        self.clock = clock
        self.timers = timers
        self.transport = transport
        self.app = app
        self._name = name or None
        self.stats = TcpConnStats()
        # Outbound header template: every frame this endpoint emits carries
        # this connection's 4-tuple.
        self._template = PacketTemplate(key)

        self.state = TcpState.CLOSED
        # ---- send side ----
        self.iss = iss & 0xFFFFFFFF
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_wnd = config.mss  # until the peer advertises
        self.snd_wl1 = 0
        self.snd_wl2 = 0
        self.peer_mss = config.mss
        self.peer_wscale = 0
        self.peer_sack_ok = False
        self.reno = RenoState(mss=config.mss, initial_cwnd_segments=config.initial_cwnd_segments)
        self.rtt = RttEstimator()
        # Oldest first; an ACK trims an acked prefix.  A list, not a deque:
        # an empty deque is 760 bytes, and every endpoint holds a queue.
        self.rtx_queue: List[_RtxRecord] = []
        self.source = None  # ByteSource | InfiniteSource | None
        self._send_base_seq = 0  # stream offset 0 <-> this sequence number
        self._fin_pending = False
        self._fin_sent = False
        self._rto_timer = None
        self._rto_backoff = 0
        #: High-water mark at the last RTO: while snd_una is below it, each
        #: cumulative ACK triggers a slow-start (go-back-N) retransmission
        #: of the next hole — without SACK, waiting one full RTO per lost
        #: segment would make burst-loss recovery glacial.
        self._loss_recovery_point = None
        self._loss_recovery_nxt = 0
        #: Partial ACKs seen in the current fast-recovery episode (RFC 6582
        #: "impatient" retransmit timer: only the first one restarts the
        #: clock, so a long hole-by-hole recovery eventually falls back to
        #: the RTO's slow-start go-back-N bulk retransmission).
        self._recovery_partials = 0
        self._persist_timer = None
        # ---- receive side ----
        self.irs = 0
        self.rcv_nxt = 0
        # (seq, len, payload) per queued out-of-order segment; None until
        # the first one arrives, which most connections never see.
        self._ooo: Optional[List[Tuple[int, int, Optional[bytes]]]] = None
        self._segs_since_ack = 0
        self._delack_timer = None
        self.ts_recent = 0
        self._unread_bytes = 0  # occupies receive buffer until app reads
        self._last_window_advertised = config.rcv_buf
        self._fin_rcvd = False
        self._time_wait_timer = None

    # ==================================================================
    # public API
    # ==================================================================
    @property
    def name(self) -> str:
        """The name given at construction; without one, the transport
        host's name and the local and remote ports, formatted when read
        (only violation messages and ``repr`` read it, and a scale rig
        holds tens of thousands of endpoints)."""
        name = self._name
        if name is not None:
            return name
        host = getattr(self.transport, "name", None)
        if host is None:
            return repr(self.key)
        return f"{host}:{self.key.src_port}-{self.key.dst_port}"

    def attach_source(self, source) -> None:
        """Attach the application's outbound data source."""
        self.source = source
        self._send_base_seq = seq_add(self.iss, 1)

    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = TcpState.SYN_SENT
        self._send_control(TcpFlags.SYN, syn_options=True)
        self._arm_rto()

    def passive_open(self) -> None:
        """Mark this endpoint as created from a listening socket."""
        self.state = TcpState.LISTEN

    def close(self) -> None:
        """Application close: send FIN once all queued data is out."""
        if self.state in (TcpState.CLOSED, TcpState.LISTEN):
            self.state = TcpState.CLOSED
            return
        if self.source is not None and hasattr(self.source, "close"):
            self.source.close()
        self._fin_pending = True
        self._try_send_fin_or_data()

    def app_wrote(self) -> None:
        """Application pushed data into the source; try to transmit."""
        self._maybe_send()

    def mark_read(self, nbytes: int) -> None:
        """Application consumed ``nbytes`` from the receive queue (opens the
        advertised window back up).

        Mirrors ``tcp_cleanup_rbuf``: if the window had collapsed below one
        MSS and reading reopened it by at least two MSS, send an immediate
        window update so a stalled sender resumes.
        """
        self._unread_bytes = max(0, self._unread_bytes - nbytes)
        if self.state is TcpState.CLOSED or nbytes <= 0:
            return
        previous = self._last_window_advertised
        new_window = self._advertised_window_field() << self.config.window_scale
        if previous < self.config.mss and new_window >= 2 * self.config.mss:
            self._send_pure_acks([self.rcv_nxt])

    @property
    def flight_size(self) -> int:
        return seq_diff(self.snd_nxt, self.snd_una)

    @property
    def effective_window(self) -> int:
        return min(self.reno.cwnd, self.snd_wnd)

    # ==================================================================
    # segment input
    # ==================================================================
    def on_segment(
        self,
        pkt: Packet,
        frag_acks: Optional[List[int]] = None,
        frag_end_seqs: Optional[List[int]] = None,
        frag_windows: Optional[List[int]] = None,
        nr_segments: int = 1,
        agg_payload: Optional[bytes] = None,
        agg_len: Optional[int] = None,
    ) -> None:
        """Process one inbound (possibly aggregated) segment.

        For an aggregated packet the caller passes the per-fragment metadata
        that Receive Aggregation stored in the sk_buff; the modified TCP
        layer (§3.4) replays it.  ``nr_segments`` is the number of network
        packets this host packet represents; ``agg_len``/``agg_payload`` are
        the total payload of the aggregate (``pkt`` is only its head
        fragment, whose own payload covers just the first MSS).
        """
        self.stats.segs_in += nr_segments
        tcp = pkt.tcp
        flags = int(tcp.flags)
        state = self.state

        if state is TcpState.CLOSED:
            return
        if flags & _F_RST:
            self._enter_closed()
            return

        # ---- handshake states ----
        if state is not _ESTABLISHED:
            if state is TcpState.LISTEN:
                if flags & _F_SYN:
                    self._on_syn(pkt)
                return
            if state is TcpState.SYN_SENT:
                if (flags & _F_SYN) and (flags & _F_ACK):
                    self._on_syn_ack(pkt)
                return
            if state is TcpState.SYN_RCVD:
                if (flags & _F_ACK) and seq_gt(tcp.ack, self.snd_una):
                    self._handshake_complete(pkt)
                    # fall through: the ACK may carry data
                else:
                    return

        # ---- timestamps (RFC 1323) ----
        ts = tcp.options.timestamp
        if ts is not None:
            d = (tcp.seq - self.rcv_nxt) & _SEQ_MASK  # seq_le inlined
            if d == 0 or d >= _SEQ_HALF:
                self.ts_recent = ts[0]

        # ---- ACK processing (send side) ----
        if flags & _F_ACK:
            if frag_acks and self.config.aggregation_aware:
                # §3.4 case 1: replay each fragment's ACK number so cwnd
                # grows per network packet, not per aggregated packet.
                n = len(frag_acks)
                snd_una = self.snd_una
                if (
                    self.source is None
                    and snd_una == self.snd_nxt
                    and frag_acks.count(snd_una) == n
                    and (0 not in frag_windows if frag_windows else tcp.window != 0)
                ):
                    # The replay is provably a no-op but for the window:
                    # nothing is in flight or can be sent, so no fragment
                    # is a duplicate or sends, and each one offers the
                    # same segment's window update.  Only the last window
                    # sticks, and with none zero no persist timer is armed.
                    self.stats.frag_acks_processed += n
                    self._update_snd_wnd(pkt, frag_windows[-1] if frag_windows else tcp.window)
                else:
                    last_i = n - 1
                    for i, frag_ack in enumerate(frag_acks):
                        window = frag_windows[i] if frag_windows else tcp.window
                        self.stats.frag_acks_processed += 1
                        self._process_ack(frag_ack, window, pkt, count_dup=(i == last_i))
            else:
                self._process_ack(tcp.ack, tcp.window, pkt, count_dup=True)

        # ---- data processing (receive side) ----
        seg_len = agg_len if agg_len is not None else pkt.payload_len
        if seg_len > 0 or (flags & _F_FIN):
            seg_payload = agg_payload if agg_len is not None else pkt.payload
            self._process_data(pkt, seg_len, seg_payload, frag_end_seqs)

        state = self.state
        if state is not _ESTABLISHED and (
            state is TcpState.LAST_ACK
            or state is TcpState.FIN_WAIT_1
            or state is TcpState.CLOSING
        ):
            self._check_fin_acked(tcp.ack)

    # ------------------------------------------------------------------
    # handshake helpers
    # ------------------------------------------------------------------
    def _syn_options(self) -> TcpOptions:
        return TcpOptions(
            mss=self.config.mss,
            window_scale=self.config.window_scale,
            sack_permitted=self.config.use_sack,
            timestamp=self._ts_pair(self.clock()),
        )

    def _learn_peer_options(self, opts: TcpOptions) -> None:
        if opts.mss is not None:
            self.peer_mss = opts.mss
            effective = min(self.config.mss, opts.mss)
            self.reno.mss = effective
        if opts.window_scale is not None:
            self.peer_wscale = opts.window_scale
        self.peer_sack_ok = opts.sack_permitted

    def _on_syn(self, pkt: Packet) -> None:
        self.irs = pkt.tcp.seq
        self.rcv_nxt = seq_add(pkt.tcp.seq, 1)
        self._learn_peer_options(pkt.tcp.options)
        if pkt.tcp.options.timestamp:
            self.ts_recent = pkt.tcp.options.timestamp[0]
        self.state = TcpState.SYN_RCVD
        self._send_control(_SYN_ACK, syn_options=True)
        self._arm_rto()

    def _on_syn_ack(self, pkt: Packet) -> None:
        self.irs = pkt.tcp.seq
        self.rcv_nxt = seq_add(pkt.tcp.seq, 1)
        self._learn_peer_options(pkt.tcp.options)
        if pkt.tcp.options.timestamp:
            self.ts_recent = pkt.tcp.options.timestamp[0]
        self.snd_una = pkt.tcp.ack
        self._drop_acked_rtx(pkt.tcp.ack)
        self.snd_wnd = pkt.tcp.window << 0  # SYN segments are never scaled
        self.state = TcpState.ESTABLISHED
        self._cancel_rto()
        self._send_pure_acks([self.rcv_nxt])
        if self.app is not None and hasattr(self.app, "on_established"):
            self.app.on_established(self)
        self._maybe_send()

    def _handshake_complete(self, pkt: Packet) -> None:
        self.snd_una = pkt.tcp.ack
        self._drop_acked_rtx(pkt.tcp.ack)
        self.snd_wnd = pkt.tcp.window << self.peer_wscale
        self.state = TcpState.ESTABLISHED
        self._cancel_rto()
        if self.app is not None and hasattr(self.app, "on_established"):
            self.app.on_established(self)
        self._maybe_send()

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def _process_ack(self, ack: int, window_field: int, pkt: Packet, count_dup: bool) -> None:
        d = (ack - self.snd_nxt) & _SEQ_MASK  # seq_gt inlined
        if d and d < _SEQ_HALF:
            return  # acks data we never sent; ignore
        snd_una = self.snd_una
        acked = (ack - snd_una) & _SEQ_MASK
        if acked and acked < _SEQ_HALF:  # seq_gt(ack, snd_una)
            rtx = self.rtx_queue
            # RTT sample: an echoed timestamp gives the send time directly;
            # without one, time the oldest fully-acked, never-retransmitted
            # segment (Karn's algorithm).
            ts = pkt.tcp.options.timestamp
            if ts is not None and ts[1]:
                rtt = self.clock() - ts[1] / self.config.ts_clock_hz
                if 0 <= rtt < 10:
                    self.rtt.sample(rtt)
            else:
                for rec in rtx:
                    if seq_ge(ack, rec.end_seq) and not rec.retransmitted:
                        self.rtt.sample(self.clock() - rec.time_sent)
                        break
                    if not seq_lt(rec.seq, ack):
                        break
            self._drop_acked_rtx(ack)
            self.snd_una = ack
            self._rto_backoff = 0
            source = self.source
            if source is not None:
                offset = (ack - self._send_base_seq) & _SEQ_MASK
                if offset and offset < _SEQ_HALF:  # seq_diff(...) > 0
                    source.release(offset)
            reno = self.reno
            if reno.recover is not None:  # reno.in_recovery
                partial = reno.on_recovery_ack(ack, seq_add(ack, -acked))
                if partial:
                    self._recovery_partials += 1
                    self._retransmit_front()
                else:
                    self._recovery_partials = 0
            else:
                reno.on_new_ack(acked)
                self.stats.cwnd_updates += 1
            lrp = self._loss_recovery_point
            if lrp is not None:
                if seq_ge(ack, lrp):
                    self._loss_recovery_point = None
                elif not reno.in_recovery:
                    # Still below the RTO high-water mark: slow-start
                    # (go-back-N) retransmission of the holes this window's
                    # cwnd allows, from where the last pass stopped.
                    nxt = self._loss_recovery_nxt
                    if seq_lt(nxt, ack):
                        nxt = ack
                    cwnd = reno.cwnd
                    for rec in self.rtx_queue:
                        if seq_lt(rec.seq, nxt) or seq_ge(rec.seq, lrp):
                            continue
                        if seq_diff(rec.end_seq, ack) > cwnd:
                            break
                        self._retransmit_record(rec)
                        nxt = rec.end_seq
                    self._loss_recovery_nxt = nxt
            self._update_snd_wnd(pkt, window_field)
            # RTO: cancelled once nothing is outstanding, else restarted
            # (the backoff is 0 here).  Only the first partial ACK of a
            # recovery episode restarts it.  A restart almost always moves
            # the deadline later, so the pending timer is postponed in place.
            timer = self._rto_timer
            if not rtx:
                self._cancel_rto()
            elif timer is None:
                self._arm_rto()
            elif self._recovery_partials <= 1 and not timer.postpone(self.rtt.rto):
                timer.cancel()
                self._rto_timer = self.timers.schedule(self.rtt.rto, self._rto_fire)
            # _maybe_send ends in the same FIN check when it gets that far;
            # this covers the paths where it returns early.
            self._maybe_send()
            if self._fin_pending and not self._fin_sent:
                self._try_send_fin_or_data()
        elif ack == snd_una:
            # RFC 5681 wants an unchanged window; with SACK, an ACK at
            # snd_una carrying SACK blocks is a loss signal even when the
            # advertised window moved (out-of-order data shrinks the
            # receiver's buffer), per RFC 6675 practice.
            window_unchanged = (window_field << self.peer_wscale) == self.snd_wnd
            is_dup = (
                count_dup
                and self.flight_size > 0
                and pkt.payload_len == 0
                and not (int(pkt.tcp.flags) & _F_SYN_FIN)
                and (window_unchanged or bool(pkt.tcp.options.sack_blocks))
            )
            self._update_snd_wnd(pkt, window_field)
            if is_dup:
                self.stats.dup_acks_in += 1
                if self.reno.on_duplicate_ack(self.snd_nxt, self.flight_size):
                    self.stats.fast_retransmits += 1
                    self._recovery_partials = 0
                    self._retransmit_front()
            self._maybe_send()

    def _update_snd_wnd(self, pkt: Packet, window_field: int) -> None:
        tcp = pkt.tcp
        seq, ack = tcp.seq, tcp.ack
        wl1 = self.snd_wl1
        # seq_lt(wl1, seq) or (wl1 == seq and seq_le(wl2, ack)), inlined.
        update = ((wl1 - seq) & _SEQ_MASK) >= _SEQ_HALF
        if not update and wl1 == seq:
            d2 = (self.snd_wl2 - ack) & _SEQ_MASK
            update = d2 == 0 or d2 >= _SEQ_HALF
        if update:
            new_wnd = window_field << self.peer_wscale
            self.snd_wnd = new_wnd
            self.snd_wl1 = seq
            self.snd_wl2 = ack
            if new_wnd == 0:
                self._arm_persist()
            elif self._persist_timer is not None:
                self._cancel_persist()

    def _drop_acked_rtx(self, ack: int) -> None:
        rtx = self.rtx_queue
        n = 0
        for rec in rtx:
            d = (rec.end_seq - ack) & _SEQ_MASK  # seq_le inlined
            if d and d < _SEQ_HALF:
                break
            n += 1
        if n:
            del rtx[:n]

    def _maybe_send(self) -> None:
        """Transmit as much new data as cwnd/rwnd/source allow."""
        source = self.source
        if source is None:
            return  # pure receivers (the common case on the server) exit here
        state = self.state
        if state is not TcpState.ESTABLISHED and state is not TcpState.CLOSE_WAIT:
            return  # state.can_send_data, inlined
        reno = self.reno
        mss = reno.mss
        config = self.config
        gso = config.gso_segments
        send_cap = mss * (gso if gso > 1 else 1)
        read_payload = config.materialize_payload or getattr(source, "materialize", False)
        source_available = source.available
        base_seq = self._send_base_seq
        min_room = 1 if mss > 1 else mss
        # The clock, the timestamp pair and the advertised window cannot
        # change inside one simulated event, so every segment sent here
        # carries the same ones.
        now = window = ts = None
        while True:
            # flight_size / effective_window, inlined.
            snd_nxt = self.snd_nxt
            flight = (snd_nxt - self.snd_una) & _SEQ_MASK
            if flight >= _SEQ_HALF:
                flight -= 1 << 32
            cwnd = reno.cwnd
            snd_wnd = self.snd_wnd
            room = (cwnd if cwnd < snd_wnd else snd_wnd) - flight
            if room < min_room:
                break
            offset = (snd_nxt - base_seq) & _SEQ_MASK
            if offset >= _SEQ_HALF:
                offset -= 1 << 32
            avail = source_available(offset)
            if avail <= 0:
                break
            length = send_cap
            if avail < length:
                length = avail
            if room < length:
                length = room
            if length <= 0:
                break
            if length < mss and avail > length and flight > 0:
                # Sender-side silly-window-syndrome avoidance (RFC 1122
                # §4.2.3.4): don't emit a sub-MSS segment while more data is
                # queued and in-flight data will open the window.
                break
            if now is None:
                now = self.clock()
                ts = self._ts_pair(now)
                window = self._advertised_window_field()
            payload = source.read(offset, length) if read_payload else None
            if payload is None:
                pkt = self._template.make(
                    snd_nxt, self.rcv_nxt, _ACK_PSH, window, length, None, ts
                )
            else:
                pkt = self._build_packet(snd_nxt, _ACK_PSH, length, payload)
            pkt.created_time = now
            self.rtx_queue.append(_RtxRecord(snd_nxt, length, False, False, now))
            if self._delack_timer is not None:
                # The segment carries the ACK: a pending delayed ACK is
                # satisfied.
                self._cancel_delack()
                self._segs_since_ack = 0
            if self._rto_timer is None:
                self._arm_rto()
            self.stats.segs_out += 1
            self.transport.send_packet(self, pkt)
            self.snd_nxt = (snd_nxt + length) & _SEQ_MASK
        if self._fin_pending and not self._fin_sent:
            self._try_send_fin_or_data()

    def _try_send_fin_or_data(self) -> None:
        if not self._fin_pending or self._fin_sent:
            return
        if self.source is not None:
            offset = seq_diff(self.snd_nxt, self._send_base_seq)
            if self.source.available(offset) > 0:
                return  # data still queued ahead of FIN
        if self.flight_size >= self.effective_window and self.flight_size > 0:
            return
        self._fin_sent = True
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        self._send_control(_FIN_ACK)
        self._arm_rto()

    def _check_fin_acked(self, ack: int) -> None:
        if not self._fin_sent:
            return
        fin_seq_end = self.snd_nxt  # FIN consumed one sequence number
        if seq_ge(ack, fin_seq_end) and not self.rtx_queue:
            if self.state is TcpState.FIN_WAIT_1:
                self.state = TcpState.CLOSING if self._fin_rcvd else TcpState.FIN_WAIT_2
                if self._fin_rcvd:
                    self._enter_time_wait()
                elif self.state is TcpState.FIN_WAIT_2 and self._fin_rcvd:
                    self._enter_time_wait()
            elif self.state is TcpState.CLOSING:
                self._enter_time_wait()
            elif self.state is TcpState.LAST_ACK:
                self._enter_closed()

    # ------------------------------------------------------------------
    # packet construction
    # ------------------------------------------------------------------
    def _ts_pair(self, now: float) -> Optional[Tuple[int, int]]:
        """The (tsval, tsecr) pair a segment sent at ``now`` carries."""
        config = self.config
        if not config.use_timestamps:
            return None
        return (int(now * config.ts_clock_hz) & 0xFFFFFFFF, self.ts_recent)

    def _advertised_window_field(self) -> int:
        config = self.config
        free = config.rcv_buf - self._unread_bytes
        if self._ooo:
            free -= sum(l for _, l, _ in self._ooo)
        if free < 0:
            free = 0
        wscale = config.window_scale
        field = free >> wscale
        if field > 0xFFFF:
            field = 0xFFFF
        self._last_window_advertised = field << wscale
        return field

    def _build_packet(
        self,
        seq: int,
        flags: TcpFlags,
        payload_len: int = 0,
        payload: Optional[bytes] = None,
        options: Optional[TcpOptions] = None,
    ) -> Packet:
        now = self.clock()
        ack = self.rcv_nxt if (int(flags) & _F_ACK) else 0
        window = self._advertised_window_field()
        if payload is None:
            # Length-only fast path: stamp the packet from the per-connection
            # template; the IP checksum stays deferred until serialization.
            pkt = self._template.make(
                seq, ack, flags, window, payload_len, options, self._ts_pair(now)
            )
        else:
            if options is None:
                options = TcpOptions(timestamp=self._ts_pair(now))
            tcp = TcpHeader(
                src_port=self.key.src_port,
                dst_port=self.key.dst_port,
                seq=seq,
                ack=ack,
                flags=flags,
                window=window,
                options=options,
            )
            ip = IPv4Header(src_ip=self.key.src_ip, dst_ip=self.key.dst_ip)
            pkt = Packet(ip=ip, tcp=tcp, payload=payload, payload_len=payload_len)
            pkt.refresh_lengths()
        pkt.created_time = now
        return pkt

    def _send_control(self, flags: TcpFlags, syn_options: bool = False) -> None:
        options = self._syn_options() if syn_options else None
        pkt = self._build_packet(self.snd_nxt, flags, options=options)
        bits = int(flags)
        if bits & _F_SYN_FIN:
            self.rtx_queue.append(
                _RtxRecord(
                    self.snd_nxt,
                    0,
                    fin=bool(bits & _F_FIN),
                    syn=bool(bits & _F_SYN),
                    time_sent=self.clock(),
                )
            )
            self.snd_nxt = seq_add(self.snd_nxt, 1)
        self.stats.segs_out += 1
        self.transport.send_packet(self, pkt)

    def _send_pure_acks(self, acks: List[int], sack_blocks: Optional[List[Tuple[int, int]]] = None) -> None:
        """Hand a batch of consecutive pure ACKs to the transport (§4 hook).

        Piggybacking: if outbound data is ready to go right now, the ACK
        rides on it (data segments always carry ack = rcv_nxt) and no pure
        ACK packets are emitted — as in a real stack.  Duplicate ACKs with
        SACK blocks are always sent as pure ACKs (loss signals must not be
        deferred behind congestion-window limits).
        """
        if not sack_blocks and self.source is not None and self.state.can_send_data:
            offset = seq_diff(self.snd_nxt, self._send_base_seq)
            room = self.effective_window - self.flight_size
            if self.source.available(offset) > 0 and room >= min(self.reno.mss, self.source.available(offset)):
                before = self.snd_nxt
                self._maybe_send()
                if self.snd_nxt != before:
                    return  # the data segment carried the (cumulative) ACK
        event = AckEvent(
            acks=list(acks),
            window=self._advertised_window_field(),
            timestamp=self._ts_pair(self.clock()),
            sack_blocks=list(sack_blocks or []),
        )
        self.stats.acks_generated += len(acks)
        self.stats.ack_batches += 1
        self.transport.send_acks(self, event)

    def build_ack_packet(self, ack: int, event: AckEvent) -> Packet:
        """Materialize one pure-ACK packet for an :class:`AckEvent` entry.

        Used both by baseline transports (one call per entry) and by the
        ACK-offload driver when it expands a template (§4.2).
        """
        sacks = event.sack_blocks
        options = TcpOptions(timestamp=event.timestamp, sack_blocks=list(sacks)) if sacks else None
        pkt = self._template.make(
            self.snd_nxt, ack, TcpFlags.ACK, event.window, 0, options, event.timestamp
        )
        pkt.created_time = self.clock()
        return pkt

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def _process_data(
        self,
        pkt: Packet,
        length: int,
        payload: Optional[bytes],
        frag_end_seqs: Optional[List[int]],
    ) -> None:
        tcp = pkt.tcp
        seq = tcp.seq
        fin = bool(int(tcp.flags) & _F_FIN)

        if not self.state.can_receive_data and not fin:
            return

        d = (seq + length - self.rcv_nxt) & _SEQ_MASK  # seq_le(seq + length, rcv_nxt)
        if length > 0 and (d == 0 or d >= _SEQ_HALF):
            # Entirely duplicate data: re-ACK immediately (the peer is
            # probably retransmitting because an ACK got lost).
            self._send_pure_acks([self.rcv_nxt], self._current_sack_blocks())
            return

        if seq == self.rcv_nxt:
            self._accept_in_order(seq, length, payload, frag_end_seqs, fin)
        elif seq_gt(seq, self.rcv_nxt):
            # Out-of-order: queue, emit an immediate duplicate ACK with SACK.
            self.stats.out_of_order_in += 1
            if length > 0:
                self._ooo_insert(seq, length, payload)
            self._send_pure_acks([self.rcv_nxt], self._current_sack_blocks())
        else:
            # Partially duplicate (seq < rcv_nxt < seq+len): trim and accept.
            overlap = seq_diff(self.rcv_nxt, seq)
            trimmed = payload[overlap:] if payload is not None else None
            self._accept_in_order(self.rcv_nxt, length - overlap, trimmed, None, fin)

    def _accept_in_order(
        self,
        seq: int,
        length: int,
        payload: Optional[bytes],
        frag_end_seqs: Optional[List[int]],
        fin: bool,
    ) -> None:
        if length > 0:
            self.rcv_nxt = (self.rcv_nxt + length) & _SEQ_MASK
            self._deliver(payload, length)

        # Merge any now-contiguous out-of-order data.
        ooo = self._ooo
        drained = self._ooo_drain(ooo) if ooo else False

        if fin and not self._fin_rcvd:
            self._fin_rcvd = True
            self.rcv_nxt = seq_add(self.rcv_nxt, 1)
            self._on_fin_received()
            self._send_pure_acks([self.rcv_nxt])
            return

        # ---- ACK generation (§3.4 case 2) ----
        acks: List[int] = []
        if self.config.aggregation_aware and frag_end_seqs:
            # Count each constituent network packet toward the
            # every-second-segment rule, acking at that fragment's edge.
            for end_seq in frag_end_seqs:
                self._segs_since_ack += 1
                if self._segs_since_ack >= 2:
                    acks.append(end_seq)
                    self._segs_since_ack = 0
        elif length > 0:
            self._segs_since_ack += 1
            if self._segs_since_ack >= 2:
                acks.append(self.rcv_nxt)
                self._segs_since_ack = 0

        if drained:
            # Filling a hole: ACK immediately regardless of the counter.
            acks = [self.rcv_nxt]
            self._segs_since_ack = 0

        if acks:
            self._cancel_delack()
            self._send_pure_acks(acks)
        if self._segs_since_ack > 0:
            self._arm_delack()

    def _deliver(self, payload: Optional[bytes], length: int) -> None:
        self.stats.bytes_delivered += length
        self._unread_bytes += length
        if self.app is not None and hasattr(self.app, "on_data"):
            self.app.on_data(self, payload, length)

    # ---- out-of-order queue ----
    def _ooo_insert(self, seq: int, length: int, payload: Optional[bytes]) -> None:
        ooo = self._ooo
        if ooo is None:
            ooo = self._ooo = []
        for existing_seq, existing_len, _ in ooo:
            if existing_seq == seq and existing_len >= length:
                return  # duplicate of queued segment
        ooo.append((seq, length, payload))
        ooo.sort(key=lambda item: seq_diff(item[0], self.rcv_nxt))

    def _ooo_drain(self, ooo: List[Tuple[int, int, Optional[bytes]]]) -> bool:
        """Deliver any segments queued in ``ooo`` (the connection's
        ``_ooo``) that are now contiguous with rcv_nxt."""
        drained = False
        progress = True
        while progress:
            progress = False
            for i, (seq, length, payload) in enumerate(ooo):
                if seq == self.rcv_nxt:
                    ooo.pop(i)
                    self.rcv_nxt = seq_add(self.rcv_nxt, length)
                    self._deliver(payload, length)
                    drained = True
                    progress = True
                    break
                if seq_lt(seq, self.rcv_nxt):
                    # Became stale (covered by delivered data).
                    end = seq_add(seq, length)
                    if seq_le(end, self.rcv_nxt):
                        ooo.pop(i)
                    else:
                        keep = seq_diff(end, self.rcv_nxt)
                        body = payload[length - keep :] if payload is not None else None
                        ooo[i] = (self.rcv_nxt, keep, body)
                    progress = True
                    break
        return drained

    def _current_sack_blocks(self) -> List[Tuple[int, int]]:
        if not (self.config.use_sack and self.peer_sack_ok) or not self._ooo:
            return []
        blocks: List[Tuple[int, int]] = []
        for seq, length, _ in self._ooo[:3]:
            blocks.append((seq, seq_add(seq, length)))
        return blocks

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def _arm_delack(self) -> None:
        if self._delack_timer is None:
            self._delack_timer = self.timers.schedule(self.config.delayed_ack_timeout, self._delack_fire)

    def _cancel_delack(self) -> None:
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None

    def _delack_fire(self) -> None:
        self._delack_timer = None
        if self._segs_since_ack > 0:
            self.stats.delayed_ack_fires += 1
            self._segs_since_ack = 0
            self._send_pure_acks([self.rcv_nxt])

    def _arm_rto(self) -> None:
        """Schedule the RTO, backed off, unless one is pending (an advancing
        ACK restarts it in :meth:`_process_ack`)."""
        if self._rto_timer is not None:
            return
        backoff = self._rto_backoff
        timeout = self.rtt.rto if backoff == 0 else self.rtt.rto * (2 ** backoff)
        self._rto_timer = self.timers.schedule(timeout, self._rto_fire)

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _rto_fire(self) -> None:
        self._rto_timer = None
        if not self.rtx_queue:
            return
        self.stats.rtos += 1
        self._rto_backoff = min(self._rto_backoff + 1, 6)
        self.reno.on_rto()
        self._loss_recovery_point = self.snd_nxt
        self._loss_recovery_nxt = self.snd_una
        self._retransmit_front()
        self._arm_rto()

    def _arm_persist(self) -> None:
        if self._persist_timer is None:
            self._persist_timer = self.timers.schedule(self.config.persist_interval, self._persist_fire)

    def _cancel_persist(self) -> None:
        if self._persist_timer is not None:
            self._persist_timer.cancel()
            self._persist_timer = None

    def _persist_fire(self) -> None:
        self._persist_timer = None
        if self.snd_wnd == 0 and self.state.can_send_data:
            # Window probe: one byte past the window.
            probe = self._build_packet(self.snd_una, TcpFlags.ACK)
            self.stats.segs_out += 1
            self.transport.send_packet(self, probe)
            self._arm_persist()

    def _retransmit_front(self) -> None:
        if not self.rtx_queue:
            return
        rec = self.rtx_queue[0]
        self._retransmit_record(rec)
        if seq_gt(rec.end_seq, self._loss_recovery_nxt):
            self._loss_recovery_nxt = rec.end_seq

    def _retransmit_record(self, rec: _RtxRecord) -> None:
        rec.retransmitted = True
        rec.time_sent = self.clock()
        self.stats.retransmits += 1
        if rec.syn:
            self._send_retransmit_control(rec, TcpFlags.SYN if self.state is TcpState.SYN_SENT else _SYN_ACK)
            return
        if rec.fin and rec.length == 0:
            self._send_retransmit_control(rec, _FIN_ACK)
            return
        payload = None
        if self.source is not None and self.config.materialize_payload:
            offset = seq_diff(rec.seq, self._send_base_seq)
            payload = self.source.read(offset, rec.length)
        elif self.source is not None and getattr(self.source, "materialize", False):
            offset = seq_diff(rec.seq, self._send_base_seq)
            payload = self.source.read(offset, rec.length)
        pkt = self._build_packet(rec.seq, _ACK_PSH, payload_len=rec.length, payload=payload)
        self.stats.segs_out += 1
        self.transport.send_packet(self, pkt)

    def _send_retransmit_control(self, rec: _RtxRecord, flags: TcpFlags) -> None:
        options = self._syn_options() if rec.syn else None
        pkt = self._build_packet(rec.seq, flags, options=options)
        self.stats.segs_out += 1
        self.transport.send_packet(self, pkt)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _on_fin_received(self) -> None:
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
        elif self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()
        if self.app is not None and hasattr(self.app, "on_remote_close"):
            self.app.on_remote_close(self)

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        if self._time_wait_timer is None:
            self._time_wait_timer = self.timers.schedule(self.config.time_wait_timeout, self._enter_closed)

    def _enter_closed(self) -> None:
        self.state = TcpState.CLOSED
        self._cancel_rto()
        self._cancel_delack()
        self._cancel_persist()
        if self._time_wait_timer is not None:
            self._time_wait_timer.cancel()
            self._time_wait_timer = None
        if self.app is not None and hasattr(self.app, "on_closed"):
            self.app.on_closed(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TcpConnection({self.name}, {self.state.value}, una={self.snd_una},"
            f" nxt={self.snd_nxt}, cwnd={self.reno.cwnd}, rcv_nxt={self.rcv_nxt})"
        )
