"""Point-to-point simulated link.

A :class:`Link` serializes frames at a fixed bit rate, applies a propagation
delay, and delivers each frame to a sink callback.  It models the Ethernet
wire including per-frame overhead (preamble, CRC, inter-frame gap), which is
what bounds the paper's "saturate five Gigabit links" numbers: 1500-byte MTU
frames carry at most ~94% of the line rate as TCP payload.

Optional impairments support the correctness and resilience experiments:

* independent per-frame ``drop_prob`` / ``reorder_prob`` / ``dup_prob``
  (aggregation must be bypassed for out-of-order or lost-then-retransmitted
  segments, and duplicated frames must not be counted twice),
* *bursty, correlated* loss via a two-state :class:`GilbertElliott` model
  (``loss_model``) — the storm generator of the fault-injection subsystem,
* frame corruption (``corrupt_prob``): the frame is delivered but marked
  ``corrupted`` so receiver-side checksum verification must reject it,
* administrative link state (``up``): a downed link black-holes frames,
  modelling a cable pull / switch-port flap.

Every frame is accounted for: ``frames_sent + frames_duplicated ==
frames_delivered + frames_dropped + in_flight`` at all times, which the
runtime sanitizer audits (packet conservation under combined impairments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng

#: Ethernet wire overhead per frame, in bytes, beyond the MAC frame itself:
#: 7B preamble + 1B SFD + 4B FCS + 12B inter-frame gap.
ETHERNET_WIRE_OVERHEAD = 24


class GilbertElliott:
    """Two-state Markov loss model for bursty, correlated loss.

    The classic Gilbert–Elliott channel: a *good* state with loss
    probability ``loss_good`` (usually 0) and a *bad* state with loss
    probability ``loss_bad`` (usually near 1), with per-frame transition
    probabilities between them.  Mean burst length is ``1 / p_bad_good``
    frames; stationary loss rate is
    ``p_gb / (p_gb + p_bg) * loss_bad + p_bg / (p_gb + p_bg) * loss_good``.

    Exactly one RNG draw per frame for the state transition plus one for
    the loss decision keeps seeded runs deterministic and replayable.
    """

    __slots__ = ("rng", "p_good_bad", "p_bad_good", "loss_good", "loss_bad",
                 "in_bad", "transitions", "losses_in_bad")

    def __init__(
        self,
        rng: SeededRng,
        p_good_bad: float = 0.01,
        p_bad_good: float = 0.25,
        loss_good: float = 0.0,
        loss_bad: float = 0.9,
    ):
        if not (0.0 <= p_good_bad <= 1.0 and 0.0 <= p_bad_good <= 1.0):
            raise ValueError("transition probabilities must be in [0, 1]")
        self.rng = rng
        self.p_good_bad = p_good_bad
        self.p_bad_good = p_bad_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.in_bad = False
        self.transitions = 0
        self.losses_in_bad = 0

    def loses(self) -> bool:
        """Advance the channel state one frame; True if the frame is lost."""
        rng = self.rng
        if self.in_bad:
            if rng.random() < self.p_bad_good:
                self.in_bad = False
                self.transitions += 1
        elif rng.random() < self.p_good_bad:
            self.in_bad = True
            self.transitions += 1
        p_loss = self.loss_bad if self.in_bad else self.loss_good
        if p_loss > 0.0 and rng.random() < p_loss:
            if self.in_bad:
                self.losses_in_bad += 1
            return True
        return False


@dataclass
class LinkStats:
    """Counters accumulated by a link over its lifetime."""

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0
    frames_reordered: int = 0
    frames_duplicated: int = 0
    frames_corrupted: int = 0
    #: Breakdown of ``frames_dropped`` by cause (also counted in the total).
    frames_dropped_burst: int = 0
    frames_dropped_link_down: int = 0
    bytes_sent: int = 0
    wire_bytes_sent: int = 0


class Link:
    """A unidirectional link with rate, delay, and optional impairments.

    Parameters
    ----------
    sim:
        Shared simulator.
    rate_bps:
        Serialization rate in bits/second (e.g. ``1e9`` for GbE).
    delay_s:
        One-way propagation delay in seconds.
    sink:
        Callback invoked as ``sink(frame)`` when a frame arrives.
    drop_prob / reorder_prob / dup_prob / corrupt_prob:
        Per-frame impairment probabilities (default 0 — a clean LAN).
        ``dup_prob`` delivers the frame twice (switch flooding / spurious
        retransmit on the wire), the copy arriving just after the original.
        ``corrupt_prob`` marks the frame ``corrupted`` in flight; the
        receiver's checksum verification is expected to discard it.
    rng:
        Random stream for impairments; required if any probability > 0.
    name:
        Label used in reprs and stats dumps.

    The fault injector may additionally set :attr:`loss_model` (a
    :class:`GilbertElliott` instance, consulted before the independent
    ``drop_prob``) and flip :attr:`up` for link-flap windows.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay_s: float,
        sink: Optional[Callable[[Any], None]] = None,
        drop_prob: float = 0.0,
        reorder_prob: float = 0.0,
        reorder_delay_s: float = 100e-6,
        dup_prob: float = 0.0,
        corrupt_prob: float = 0.0,
        rng: Optional[SeededRng] = None,
        batch_window_s: float = 0.0,
        name: str = "link",
    ):
        if (drop_prob > 0 or reorder_prob > 0 or dup_prob > 0 or corrupt_prob > 0) and rng is None:
            raise ValueError("impaired links need an rng")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.sink = sink
        self.drop_prob = drop_prob
        self.reorder_prob = reorder_prob
        self.reorder_delay_s = reorder_delay_s
        self.dup_prob = dup_prob
        self.corrupt_prob = corrupt_prob
        self.rng = rng
        self.name = name
        self.stats = LinkStats()
        #: Administrative state: False black-holes every frame (link flap).
        self.up = True
        #: Optional bursty-loss channel (set by the fault injector).
        self.loss_model: Optional[GilbertElliott] = None
        #: Frames scheduled for delivery but not yet handed to the sink;
        #: part of the sanitizer's packet-conservation audit.
        self.in_flight = 0
        # Time at which the transmitter becomes free; frames queue FIFO.
        self._tx_free_at = 0.0
        #: Opt-in delivery batching: frames whose arrival falls within
        #: ``batch_window_s`` of the first frame's arrival are handed to the
        #: sink in ONE simulator event (fired at the window's close, so every
        #: frame is held at most one window past its wire arrival — like NIC
        #: interrupt moderation, which the receive path models anyway).
        #: 0 disables batching: per-frame events, timing bit-identical to
        #: the pre-batching link.  Many-connection rigs opt in.
        self.batch_window_s = batch_window_s
        self._open_batch: Optional[list] = None
        self._open_until = 0.0
        self.stats_batches = 0

    # ------------------------------------------------------------------
    def wire_bytes(self, frame: Any) -> int:
        """Wire footprint of a frame: its MAC bytes plus fixed overhead."""
        try:
            return frame.wire_len + ETHERNET_WIRE_OVERHEAD
        except AttributeError:
            return len(frame) + ETHERNET_WIRE_OVERHEAD

    def busy(self) -> bool:
        """True while a frame is still being serialized."""
        return self._tx_free_at > self.sim.now

    @property
    def tx_free_at(self) -> float:
        return self._tx_free_at

    def send(self, frame: Any) -> float:
        """Enqueue ``frame`` for transmission.

        Returns the simulation time at which serialization of this frame
        completes (i.e. when the transmitter is free again).  Frames sent
        while the link is busy queue behind the in-flight frame, so a sender
        that calls ``send`` faster than line rate is implicitly paced.
        """
        try:
            wire = frame.wire_len + ETHERNET_WIRE_OVERHEAD
        except AttributeError:
            wire = len(frame) + ETHERNET_WIRE_OVERHEAD
        now = self.sim.now
        free = self._tx_free_at
        start = now if now > free else free
        tx_time = wire * 8.0 / self.rate_bps
        done = start + tx_time
        self._tx_free_at = done

        stats = self.stats
        stats.frames_sent += 1
        stats.bytes_sent += wire - ETHERNET_WIRE_OVERHEAD
        stats.wire_bytes_sent += wire

        if not self.up:
            # The transmitter still serializes (the sender cannot tell), but
            # nothing reaches the far end while the link is down.
            stats.frames_dropped += 1
            stats.frames_dropped_link_down += 1
            return done
        loss_model = self.loss_model
        if loss_model is not None and loss_model.loses():
            stats.frames_dropped += 1
            stats.frames_dropped_burst += 1
            return done
        if self.drop_prob > 0 and self.rng.random() < self.drop_prob:
            stats.frames_dropped += 1
            return done

        if self.corrupt_prob > 0 and self.rng.random() < self.corrupt_prob:
            stats.frames_corrupted += 1
            try:
                frame.corrupted = True
            except AttributeError:
                pass  # opaque test frames: corruption is stats-only

        arrival = done + self.delay_s
        if self.reorder_prob > 0 and self.rng.random() < self.reorder_prob:
            arrival += self.reorder_delay_s
            self.stats.frames_reordered += 1

        if self.batch_window_s <= 0.0:
            # Unbatched: one delivery event per frame, scheduled directly.
            self.in_flight += 1
            self.sim.call_at(arrival, self._deliver, frame)
        else:
            self._enqueue(arrival, frame)
        if self.dup_prob > 0 and self.rng.random() < self.dup_prob:
            # Deliver an independent copy with its *own* delivery metadata:
            # the duplicate takes the un-reordered arrival time, so a
            # reorder-delayed original can never alias the duplicate's
            # delivery (and the receive path, which mutates and frees what
            # it is handed, never sees the same object twice).
            stats.frames_duplicated += 1
            dup = frame.copy() if hasattr(frame, "copy") else frame
            self._enqueue(done + self.delay_s, dup)
        return done

    def _enqueue(self, arrival: float, frame: Any) -> None:
        """Schedule delivery: per-frame event, or append to the open batch."""
        self.in_flight += 1
        window = self.batch_window_s
        if window <= 0.0:
            self.sim.call_at(arrival, self._deliver, frame)
            return
        batch = self._open_batch
        if batch is None or arrival > self._open_until:
            # Open a new window anchored at this frame's arrival; one event
            # at its close delivers everything that lands inside it.
            batch = [(arrival, frame)]
            self._open_batch = batch
            self._open_until = arrival + window
            self.stats_batches += 1
            self.sim.call_at(self._open_until, self._deliver_batch, batch)
        else:
            batch.append((arrival, frame))

    def _deliver(self, frame: Any) -> None:
        self.in_flight -= 1
        self.stats.frames_delivered += 1
        if self.sink is not None:
            self.sink(frame)

    def _deliver_batch(self, batch: list) -> None:
        """Hand a closed batch to the sink, in wire-arrival order."""
        if batch is self._open_batch:
            self._open_batch = None
        # Stable sort: serialization is FIFO so this is already sorted
        # unless a reorder-delayed frame landed inside the window.
        batch.sort(key=lambda entry: entry[0])
        self.in_flight -= len(batch)
        self.stats.frames_delivered += len(batch)
        sink = self.sink
        if sink is not None:
            for _arrival, frame in batch:
                sink(frame)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Link({self.name!r}, {self.rate_bps / 1e9:.1f} Gb/s, "
            f"{self.delay_s * 1e6:.0f} us)"
        )
