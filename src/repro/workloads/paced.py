"""Application-paced senders: offered load below link capacity.

The saturating stream benchmark models netperf; real deployments often run
*application-limited* — a media server, a periodic backup, a database
replicating at its commit rate.  :class:`PacedSender` writes fixed-size
chunks on a timer, producing an offered load of ``rate_bps`` regardless of
what TCP could carry, with optional burstiness (several chunks back to
back, then a longer pause, at the same average rate).

Used by the §5.5 load-sensitivity study: the paper promises the optimized
stack "will never get worse than the original system" whatever the degree
of aggregation the traffic permits.
"""

from __future__ import annotations


from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConnection
from repro.tcp.source import ByteSource


class PacedSender:
    """Feeds a connection ``chunk_bytes`` every ``chunk_bytes*8/rate_bps``.

    Parameters
    ----------
    burst_chunks:
        Number of chunks written back-to-back per timer fire; the interval
        scales so the average rate is unchanged (1 = smooth pacing).
    """

    def __init__(
        self,
        sim: Simulator,
        conn: TcpConnection,
        rate_bps: float,
        chunk_bytes: int = 8192,
        burst_chunks: int = 1,
        start: bool = True,
    ):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if burst_chunks < 1:
            raise ValueError("burst_chunks must be >= 1")
        self.sim = sim
        self.conn = conn
        self.rate_bps = rate_bps
        self.chunk_bytes = chunk_bytes
        self.burst_chunks = burst_chunks
        self.interval_s = burst_chunks * chunk_bytes * 8 / rate_bps
        self.bytes_written = 0
        self.stopped = False
        self._event = None
        if conn.source is None:
            conn.attach_source(ByteSource())
        if start:
            self._event = sim.schedule(0.0, self._tick)

    def _tick(self) -> None:
        if self.stopped:
            return
        payload = b"\x00" * self.chunk_bytes
        for _ in range(self.burst_chunks):
            self.conn.source.write(payload)
            self.bytes_written += self.chunk_bytes
        self.conn.app_wrote()
        self._event = self.sim.schedule(self.interval_s, self._tick)

    def stop(self) -> None:
        self.stopped = True
        if self._event is not None:
            self._event.cancel()
