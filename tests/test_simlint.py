"""Every simlint rule: fires on a bad fixture, stays quiet on a good one."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.simlint import lint_source
from repro.analysis.simlint.cli import main as simlint_main
from repro.analysis.simlint.rules import ALL_RULES, PROGRAM_RULES, RULES_BY_ID


def rules_fired(source: str, relname: str = "src/repro/some/module.py"):
    violations = lint_source(
        textwrap.dedent(source), path=relname, relname=relname
    )
    return [v.rule for v in violations], violations


def assert_fires(rule_id: str, source: str, **kwargs) -> None:
    fired, violations = rules_fired(source, **kwargs)
    assert rule_id in fired, f"{rule_id} did not fire; got {fired}"


def assert_clean(rule_id: str, source: str, **kwargs) -> None:
    fired, violations = rules_fired(source, **kwargs)
    assert rule_id not in fired, f"{rule_id} fired unexpectedly: {violations}"


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------
class TestWallClock:
    def test_time_time_fires(self):
        assert_fires("wall-clock", """
            import time
            def f():
                return time.time()
        """)

    def test_perf_counter_fires(self):
        assert_fires("wall-clock", """
            import time
            def f():
                return time.perf_counter()
        """)

    def test_datetime_now_fires(self):
        assert_fires("wall-clock", """
            import datetime
            def f():
                return datetime.now()
        """)

    def test_from_import_of_clock_fires(self):
        assert_fires("wall-clock", "from time import perf_counter\n")

    def test_sim_clock_clean(self):
        assert_clean("wall-clock", """
            def f(sim):
                return sim.now
        """)

    def test_line_suppression(self):
        assert_clean("wall-clock", """
            import time
            def f():
                return time.time()  # simlint: allow(wall-clock) -- harness
        """)

    def test_file_suppression(self):
        assert_clean("wall-clock", """
            # simlint: file-allow(wall-clock) -- benchmarking module
            import time
            def f():
                return time.time() - time.perf_counter()
        """)

    def test_suppression_is_rule_specific(self):
        assert_fires("wall-clock", """
            import time
            def f():
                return time.time()  # simlint: allow(unseeded-random)
        """)


# ----------------------------------------------------------------------
# unseeded-random
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def test_import_fires(self):
        assert_fires("unseeded-random", "import random\n")

    def test_from_import_fires(self):
        assert_fires("unseeded-random", "from random import randint\n")

    def test_attribute_use_fires(self):
        assert_fires("unseeded-random", """
            def f(random):
                return random.random()
        """)

    def test_rng_module_exempt(self):
        assert_clean(
            "unseeded-random",
            "import random\n",
            relname="src/repro/sim/rng.py",
        )

    def test_seeded_rng_clean(self):
        assert_clean("unseeded-random", """
            from repro.sim.rng import SeededRng
            def f(seed):
                return SeededRng(seed, "traffic").uniform(0, 1)
        """)


# ----------------------------------------------------------------------
# import-time-schedule
# ----------------------------------------------------------------------
class TestImportTimeSchedule:
    def test_module_scope_schedule_fires(self):
        assert_fires("import-time-schedule", """
            from repro.sim.engine import Simulator
            sim = Simulator()
            sim.schedule(1.0, print)
        """)

    def test_class_body_fires(self):
        assert_fires("import-time-schedule", """
            class Rig:
                token = sim.at(0.0, print)
        """)

    def test_inside_function_clean(self):
        assert_clean("import-time-schedule", """
            def setup(sim):
                sim.schedule(1.0, print)
                sim.post(2.0, print)
        """)


# ----------------------------------------------------------------------
# raw-seq-compare
# ----------------------------------------------------------------------
class TestRawSeqCompare:
    def test_ordering_on_seq_field_fires(self):
        assert_fires("raw-seq-compare", """
            def f(self, pkt):
                if pkt.tcp.seq < self.rcv_nxt:
                    return True
        """)

    def test_ordering_on_named_state_fires(self):
        assert_fires("raw-seq-compare", """
            def f(self, ack):
                return ack > self.snd_una
        """)

    def test_equality_allowed(self):
        assert_clean("raw-seq-compare", """
            def f(self, pkt):
                return pkt.tcp.seq == self.rcv_nxt
        """)

    def test_masked_difference_idiom_clean(self):
        assert_clean("raw-seq-compare", """
            def f(self, pkt):
                return ((pkt.tcp.seq - self.rcv_nxt) & 0xFFFFFFFF) < 0x80000000
        """)

    def test_seqmath_module_exempt(self):
        assert_clean(
            "raw-seq-compare",
            """
            def seq_lt(a, b):
                return a != b and ((b - a) & 0xFFFFFFFF) < 0x80000000
            def helper(seq, rcv_nxt):
                return seq < rcv_nxt
            """,
            relname="src/repro/tcp/seqmath.py",
        )

    def test_innocent_names_clean(self):
        # `serial`, loop counters etc. must not trip the generic detector.
        assert_clean("raw-seq-compare", """
            def f(self, serial, count):
                return serial < self._seq_limit and count < 3
        """)


# ----------------------------------------------------------------------
# raw-seq-arith
# ----------------------------------------------------------------------
class TestRawSeqArith:
    def test_unmasked_add_fires(self):
        assert_fires("raw-seq-arith", """
            def f(self, length):
                nxt = self.rcv_nxt + length
                return nxt
        """)

    def test_augassign_fires(self):
        assert_fires("raw-seq-arith", """
            def f(self):
                self._iss += 64000
        """)

    def test_masked_add_clean(self):
        assert_clean("raw-seq-arith", """
            def f(self, length):
                return (self.rcv_nxt + length) & 0xFFFFFFFF
        """)

    def test_named_mask_clean(self):
        assert_clean("raw-seq-arith", """
            _SEQ_MASK = 0xFFFFFFFF
            def f(self, length):
                return (self.rcv_nxt + length) & _SEQ_MASK
        """)

    def test_seqmath_exempt(self):
        assert_clean(
            "raw-seq-arith",
            """
            def seq_add(seq, n):
                return (seq + n) & 0xFFFFFFFF
            def seq_diff_unmasked(seg_seq, other):
                return seg_seq - other
            """,
            relname="src/repro/tcp/seqmath.py",
        )

    def test_non_seq_arith_clean(self):
        assert_clean("raw-seq-arith", """
            def f(self, cycles):
                self.total += cycles
                return self.busy_until + cycles
        """)


# ----------------------------------------------------------------------
# packet-mutation
# ----------------------------------------------------------------------
class TestPacketMutation:
    def test_tcp_field_write_fires(self):
        assert_fires("packet-mutation", """
            def f(pkt, ack):
                pkt.tcp.ack = ack
        """)

    def test_nested_header_write_fires(self):
        assert_fires("packet-mutation", """
            def f(skb):
                skb.head.ip.total_length = 40
        """)

    def test_options_write_fires(self):
        assert_fires("packet-mutation", """
            def f(head, ts):
                head.tcp.options.timestamp = ts
        """)

    def test_payload_len_write_fires(self):
        assert_fires("packet-mutation", """
            def f(pkt):
                pkt.payload_len = 0
        """)

    def test_augassign_fires(self):
        assert_fires("packet-mutation", """
            def f(pkt, n):
                pkt.ip.total_length += n
        """)

    def test_net_modules_exempt(self):
        assert_clean(
            "packet-mutation",
            """
            def absorb(self, pkt):
                self.tcp.ack = pkt.tcp.ack
            """,
            relname="src/repro/net/packet.py",
        )

    def test_write_through_api_clean(self):
        assert_clean("packet-mutation", """
            def f(pkt, ack):
                pkt.rewrite_ack_incremental(ack)
                pkt.refresh_lengths()
        """)

    def test_self_payload_clean(self):
        assert_clean("packet-mutation", """
            class Thing:
                def reset(self):
                    self.payload = None
        """)

    @pytest.mark.parametrize("stmt", [
        "skb.frags.append(pkt)",
        "skb.frags.extend([pkt])",
        "skb.frags.insert(0, pkt)",
        "self.skb.frags.append(pkt)",
        "skbs[0].frags.append(pkt)",
        "guest.frags = skb.frags",
        "skb.frags += [pkt]",
    ])
    def test_skb_frags_change_fires(self, stmt):
        fired, violations = rules_fired(f"""
            def f(self, skb, skbs, guest, pkt):
                {stmt}
        """)
        assert fired == ["packet-mutation"], violations
        assert "SkBuff.chain" in violations[0].message

    def test_skb_frags_owner_and_reads_clean(self):
        owner = """
            class SkBuff:
                def chain(self, pkt):
                    self.frags.append(pkt)

                def adopt_chain(self, other):
                    self.frags = other.frags
        """
        assert_clean("packet-mutation", owner, relname="src/repro/buffers/skbuff.py")
        assert_clean("packet-mutation", """
            class FakeSkb:
                def __init__(self, pkts):
                    self.frags = list(pkts[1:])

            def f(skb, pkt):
                skb.chain(pkt)
                n = len(skb.frags)
                last = skb.frags[-1]
                return [p.payload_len for p in skb.frags], n, last
        """)


# ----------------------------------------------------------------------
# float-eq
# ----------------------------------------------------------------------
class TestFloatEq:
    def test_busy_until_eq_fires(self):
        assert_fires("float-eq", """
            def f(cpu):
                return cpu.busy_until == 3.0
        """)

    def test_cycles_suffix_neq_fires(self):
        assert_fires("float-eq", """
            def f(a, drain_cycles):
                return drain_cycles != a
        """)

    def test_now_eq_fires(self):
        assert_fires("float-eq", """
            def f(sim, t):
                return sim.now == t
        """)

    def test_ordering_clean(self):
        assert_clean("float-eq", """
            def f(cpu, t):
                return cpu.busy_until <= t or cpu.busy_until > 0
        """)

    def test_none_sentinel_clean(self):
        assert_clean("float-eq", """
            def f(self):
                return self.busy_until == None
        """)

    def test_generic_float_clean(self):
        assert_clean("float-eq", """
            def f(v):
                return v == 0.0
        """)


# ----------------------------------------------------------------------
# unpicklable-worker
# ----------------------------------------------------------------------
class TestUnpicklableWorker:
    def test_lambda_fires(self):
        assert_fires("unpicklable-worker", """
            from repro.parallel import run_points
            def f(points):
                return run_points(lambda p: p * 2, points, jobs=4)
        """)

    def test_nested_function_fires(self):
        assert_fires("unpicklable-worker", """
            from repro.parallel import run_points
            def f(points, scale):
                def worker(p):
                    return p * scale
                return run_points(worker, points, jobs=4)
        """)

    def test_bound_method_fires(self):
        assert_fires("unpicklable-worker", """
            class Sweep:
                def run(self, points):
                    from repro.parallel import run_points
                    return run_points(self.worker, points, jobs=4)
        """)

    def test_module_level_function_clean(self):
        assert_clean("unpicklable-worker", """
            from repro.parallel import run_points
            def worker(p):
                return p * 2
            def f(points):
                return run_points(worker, points, jobs=4)
        """)

    def test_partial_of_lambda_fires(self):
        assert_fires("unpicklable-worker", """
            import functools
            from repro.parallel import run_points
            def f(points):
                return run_points(functools.partial(lambda s, p: p * s, 2), points)
        """)

    def test_keyword_worker_fires(self):
        assert_fires("unpicklable-worker", """
            from repro.parallel import run_points
            def f(points):
                return run_points(points=points, worker=lambda p: p)
        """)


# ----------------------------------------------------------------------
# hot-path-io
# ----------------------------------------------------------------------
class TestHotPathIo:
    def test_print_fires(self):
        assert_fires("hot-path-io", """
            def deliver(self, skb):
                print("got", skb)
        """)

    def test_import_logging_fires(self):
        assert_fires("hot-path-io", "import logging\n")

    def test_from_logging_fires(self):
        assert_fires("hot-path-io", "from logging import getLogger\n")

    def test_logging_attribute_fires(self):
        assert_fires("hot-path-io", """
            def f(logging):
                logging.info("x")
        """)

    def test_obs_tracer_call_clean(self):
        # The blessed alternative — trace events through repro.obs — is quiet.
        assert_clean("hot-path-io", """
            def f(self, tr, now):
                if tr is not None:
                    tr.event("tcp.rx", now)
        """)

    def test_obs_package_exempt(self):
        assert_clean(
            "hot-path-io",
            "def dash(s):\n    print(s.render_dashboard())\n",
            relname="src/repro/obs/sampler.py",
        )

    def test_analysis_package_exempt(self):
        assert_clean(
            "hot-path-io",
            "def report(text):\n    print(text)\n",
            relname="src/repro/analysis/reporting.py",
        )

    def test_cli_exempt(self):
        assert_clean(
            "hot-path-io",
            "def main():\n    print('rows')\n",
            relname="src/repro/cli.py",
        )

    def test_line_suppression(self):
        assert_clean("hot-path-io", """
            def f(self):
                print("boot banner")  # simlint: allow(hot-path-io) -- intended
        """)


# ----------------------------------------------------------------------
# framework behaviour
# ----------------------------------------------------------------------
class TestFramework:
    def test_registry_ids_unique_and_expected(self):
        ids = {rule.id for rule in ALL_RULES}
        assert ids == {
            "wall-clock",
            "unseeded-random",
            "import-time-schedule",
            "raw-seq-compare",
            "raw-seq-arith",
            "packet-mutation",
            "float-eq",
            "unpicklable-worker",
            "hot-path-io",
            "unused-allow",
        }
        program_ids = {rule.id for rule in PROGRAM_RULES}
        assert program_ids == {"cross-cpu-write", "uncharged-cycles", "slab-escape"}
        assert set(RULES_BY_ID) == ids | program_ids

    def test_violation_carries_location_and_snippet(self):
        _, violations = rules_fired("""
            import time
            def f():
                return time.time()
        """)
        [v] = [v for v in violations if v.rule == "wall-clock"]
        assert v.line == 4
        assert "time.time()" in v.snippet
        assert "wall-clock" in v.format()

    def test_multi_rule_suppression_comment(self):
        assert_clean("float-eq", """
            def f(cpu, t):
                return cpu.busy_until == t  # simlint: allow(float-eq, wall-clock)
        """)


class TestCli:
    def test_list_rules_exit_zero(self, capsys):
        assert simlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock" in out and "unpicklable-worker" in out

    def test_bad_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert simlint_main(["--no-cache", str(tmp_path)]) == 1
        assert "[wall-clock]" in capsys.readouterr().out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def f(sim):\n    return sim.now\n")
        assert simlint_main(["--no-cache", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert simlint_main(["--no-cache", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["violations"][0]["rule"] == "unseeded-random"

    def test_select_subset(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nimport random\nt = time.time()\n")
        assert simlint_main(["--no-cache", "--select", "unseeded-random", str(bad)]) == 1
        assert (
            simlint_main(["--no-cache", "--select", "import-time-schedule", str(bad)])
            == 0
        )

    def test_unknown_rule_usage_error(self, tmp_path):
        assert simlint_main(["--select", "no-such-rule", str(tmp_path)]) == 2

    def test_no_paths_usage_error(self):
        assert simlint_main([]) == 2

    def test_repo_source_tree_is_clean(self):
        assert simlint_main(["--no-cache", "src/"]) == 0


# ----------------------------------------------------------------------
# unused-allow (stale suppressions)
# ----------------------------------------------------------------------
class TestUnusedAllow:
    def test_stale_line_allow_fires(self):
        assert_fires("unused-allow", """
            def f(sim):
                return sim.now  # simlint: allow(wall-clock) -- long since fixed
        """)

    def test_stale_file_allow_fires(self):
        assert_fires("unused-allow", """
            # simlint: file-allow(wall-clock) -- module no longer reads clocks
            def f(sim):
                return sim.now
        """)

    def test_used_allow_clean(self):
        assert_clean("unused-allow", """
            import time
            def f():
                return time.time()  # simlint: allow(wall-clock) -- harness
        """)

    def test_unknown_rule_id_is_stale(self):
        fired, violations = rules_fired("""
            def f(sim):
                return sim.now  # simlint: allow(no-such-rule)
        """)
        assert "unused-allow" in fired
        [v] = [v for v in violations if v.rule == "unused-allow"]
        assert "no-such-rule" in v.message

    def test_not_judged_when_rule_not_running(self):
        # wall-clock is known but not selected: the pass can't tell whether
        # the allow would have masked something, so it stays quiet.
        source = textwrap.dedent("""
            def f(sim):
                return sim.now  # simlint: allow(wall-clock)
        """)
        rules = [RULES_BY_ID["unseeded-random"], RULES_BY_ID["unused-allow"]]
        violations = lint_source(source, rules=rules)
        assert [v.rule for v in violations] == []

    def test_docstring_allow_is_inert(self):
        # A quoted allow marker (docs showing the syntax) neither
        # suppresses a real finding nor registers as a stale allow.
        fired, _ = rules_fired('''
            import time
            def f():
                """Example: x = time.time()  # simlint: allow(wall-clock)"""
                return time.time()
        ''')
        assert "wall-clock" in fired
        assert "unused-allow" not in fired

    def test_stale_allow_can_itself_be_allowed(self):
        assert_clean("unused-allow", """
            def f(sim):
                return sim.now  # simlint: allow(unused-allow, wall-clock) -- keep
        """)

    def test_per_rule_staleness_in_multi_rule_allow(self):
        # One comment, one used id, one stale id: only the stale one fires.
        fired, violations = rules_fired("""
            import time
            def f():
                return time.time()  # simlint: allow(wall-clock, float-eq)
        """)
        stale = [v for v in violations if v.rule == "unused-allow"]
        assert len(stale) == 1
        assert "float-eq" in stale[0].message


# ----------------------------------------------------------------------
# content-hash result cache
# ----------------------------------------------------------------------
class TestLintCache:
    def _write_tree(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import time\n"
            "def f():\n"
            "    return time.time()  # simlint: allow(float-eq)\n"
        )
        (tmp_path / "good.py").write_text("def f(sim):\n    return sim.now\n")

    def test_second_run_hits_and_matches(self, tmp_path):
        from repro.analysis.simlint.cache import LintCache
        from repro.analysis.simlint.runner import lint_paths

        self._write_tree(tmp_path)
        cache_path = str(tmp_path / "cache.json")
        first = lint_paths([str(tmp_path)], cache=LintCache(cache_path))
        warm = LintCache(cache_path)
        second = lint_paths([str(tmp_path)], cache=warm)
        assert [v.to_dict() for v in first] == [v.to_dict() for v in second]
        assert warm.hits >= 2  # both files served from cache
        # The stale float-eq allow is still judged from cached use-marks.
        assert any(v.rule == "unused-allow" for v in second)
        assert any(v.rule == "wall-clock" for v in second)

    def test_source_change_invalidates(self, tmp_path):
        from repro.analysis.simlint.cache import LintCache
        from repro.analysis.simlint.runner import lint_paths

        self._write_tree(tmp_path)
        cache_path = str(tmp_path / "cache.json")
        lint_paths([str(tmp_path)], cache=LintCache(cache_path))
        (tmp_path / "good.py").write_text("import random\n")
        warm = LintCache(cache_path)
        second = lint_paths([str(tmp_path)], cache=warm)
        assert warm.misses >= 1
        assert any(v.rule == "unseeded-random" for v in second)

    def test_whole_program_pass_is_cached(self, tmp_path):
        from repro.analysis.simlint.cache import LintCache
        from repro.analysis.simlint.runner import default_rules, lint_paths

        (tmp_path / "fix.py").write_text(
            "class D:\n"
            "    def kick(self):\n"
            "        self.cpu.submit(self._isr)\n"
            "    def _isr(self):\n"
            "        self.stats.runs = 1\n"
        )
        cache_path = str(tmp_path / "cache.json")
        rules = default_rules(whole_program=True)
        first = lint_paths([str(tmp_path)], rules=rules, cache=LintCache(cache_path))
        warm = LintCache(cache_path)
        second = lint_paths([str(tmp_path)], rules=rules, cache=warm)
        assert [v.to_dict() for v in first] == [v.to_dict() for v in second]
        assert any(v.rule == "uncharged-cycles" for v in second)
        assert warm.hits >= 2  # module entry + program entry

    def test_cli_cache_roundtrip(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        cache_path = str(tmp_path / "cache.json")
        argv = ["--cache-path", cache_path, str(bad)]
        assert simlint_main(argv) == 1
        assert simlint_main(argv) == 1  # served from cache, same verdict
        bad.write_text("def f(sim):\n    return sim.now\n")
        assert simlint_main(argv) == 0


def test_every_rule_has_a_firing_test():
    """Meta: the test suite covers each registered rule id (program rules
    fire in tests/test_simlint_program.py)."""
    covered = {
        "wall-clock",
        "unseeded-random",
        "import-time-schedule",
        "raw-seq-compare",
        "raw-seq-arith",
        "packet-mutation",
        "float-eq",
        "unpicklable-worker",
        "hot-path-io",
        "unused-allow",
        "cross-cpu-write",
        "uncharged-cycles",
        "slab-escape",
    }
    assert covered == set(RULES_BY_ID)
