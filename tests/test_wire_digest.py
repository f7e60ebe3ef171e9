"""Per-frame wire pins for the seven Figure 7 / mq4 streaming points.

Golden row digests say *that* a quick experiment's totals moved; these pins
say whether any single frame on any link moved.  Each point runs to 40 ms
with every link tapped (``helpers.WireDigest``), and its digest over every
delivered frame must equal ``tests/golden/wire.json``.  The seven points are
the ones perfbench's ``stream_mix`` workload runs: UP/SMP/Xen x
baseline/optimized, plus the 0.8 GHz two-node mq4 RSS rig.

A change that means to move the wire re-pins with::

    PYTHONPATH=src python tests/test_wire_digest.py --update
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import pytest

from repro.core.config import OptimizationConfig
from repro.host.configs import linux_smp_config, linux_up_config, xen_config
from repro.mem.hierarchy import MemConfig
from repro.workloads.stream import build_stream_rig

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from helpers import WireDigest  # noqa: E402

PINS = Path(__file__).resolve().parent / "golden" / "wire.json"
END_S = 0.04


def _mq4_config():
    return dataclasses.replace(
        linux_smp_config(),
        cpu_freq_hz=0.8e9,
        mem=MemConfig(nodes=2, app_working_set_bytes=16 << 20),
    )


#: label -> (config factory, optimization factory, queues)
POINTS = {
    f"{system}/{mode}": (config_fn, opt_fn, 1)
    for system, config_fn in (("up", linux_up_config), ("smp", linux_smp_config), ("xen", xen_config))
    for mode, opt_fn in (("base", OptimizationConfig.baseline), ("opt", OptimizationConfig.optimized))
}
POINTS["smp/mq4-rss-mem/opt"] = (_mq4_config, OptimizationConfig.optimized, 4)


def wire_digest(label: str) -> str:
    config_fn, opt_fn, queues = POINTS[label]
    sim, machine, _clients, _senders = build_stream_rig(config_fn(), opt_fn(), queues=queues)
    digest = WireDigest(machine)
    sim.run(until=END_S)
    assert digest.frames > 0
    return digest.hexdigest()


@pytest.mark.parametrize("label", list(POINTS))
def test_wire_digest_matches_pin(label):
    pins = json.loads(PINS.read_text())
    assert wire_digest(label) == pins[label], (
        f"{label}: a frame on the wire moved (re-pin only if that was the point)"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_wire_digest.py --update")
    PINS.write_text(json.dumps({label: wire_digest(label) for label in POINTS}, indent=1) + "\n")
