"""Fixture tests: one positive and one negative case per lint rule id."""

import textwrap

from repro.analysis import lint_source


def rules_of(source, path="pkg/mod.py"):
    return {f.rule for f in lint_source(textwrap.dedent(source), path)}


# -- DET101: wall-clock reads ---------------------------------------------


def test_det101_flags_wallclock_read():
    assert "DET101" in rules_of(
        """
        import time

        def stamp():
            return time.time()
        """
    )


def test_det101_resolves_import_aliases():
    assert "DET101" in rules_of(
        """
        from time import perf_counter as tick

        def stamp():
            return tick()
        """
    )


def test_det101_ignores_virtual_clock():
    assert "DET101" not in rules_of(
        """
        def stamp(sim):
            return sim.now
        """
    )


# -- DET102: OS entropy ---------------------------------------------------


def test_det102_flags_os_entropy():
    assert "DET102" in rules_of(
        """
        import os

        def token():
            return os.urandom(8)
        """
    )


def test_det102_ignores_seeded_stream():
    assert "DET102" not in rules_of(
        """
        from repro.sim.rng import stream

        def token(seed):
            return stream(seed, "token").integers(0, 256, size=8)
        """
    )


# -- DET103: global/unseeded RNG ------------------------------------------


def test_det103_flags_global_random_module():
    assert "DET103" in rules_of(
        """
        import random

        def pick(xs):
            return random.choice(xs)
        """
    )


def test_det103_flags_direct_numpy_generator():
    assert "DET103" in rules_of(
        """
        import numpy

        def gen():
            return numpy.random.default_rng(0)
        """
    )


def test_det103_exempts_rng_home_module():
    source = """
        import numpy

        def make(seed):
            return numpy.random.default_rng(seed)
        """
    assert "DET103" not in rules_of(source, path="src/repro/sim/rng.py")


def test_det103_ignores_passed_in_generator():
    assert "DET103" not in rules_of(
        """
        def jitter(rng):
            return rng.normal(0.0, 1.0)
        """
    )


# -- DET201: unordered set iteration --------------------------------------


def test_det201_flags_set_iteration():
    assert "DET201" in rules_of(
        """
        def fan_out(send):
            peers = {"a", "b", "c"}
            for peer in peers:
                send(peer)
        """
    )


def test_det201_ignores_sorted_set_iteration():
    assert "DET201" not in rules_of(
        """
        def fan_out(send):
            peers = {"a", "b", "c"}
            for peer in sorted(peers):
                send(peer)
        """
    )


def test_det201_flags_set_comprehension_iteration():
    assert "DET201" in rules_of(
        """
        def labels(hosts):
            return [h.name for h in set(hosts)]
        """
    )


# -- DET202: filesystem enumeration ---------------------------------------


def test_det202_flags_unsorted_listdir():
    assert "DET202" in rules_of(
        """
        import os

        def entries(path):
            return os.listdir(path)
        """
    )


def test_det202_flags_pathlib_glob():
    assert "DET202" in rules_of(
        """
        def entries(path):
            return list(path.glob("*.json"))
        """
    )


def test_det202_ignores_sorted_enumeration():
    assert "DET202" not in rules_of(
        """
        import os

        def entries(path):
            return sorted(os.listdir(path))
        """
    )


# -- DET203: dict-view iteration into an ordering sink --------------------


def test_det203_flags_dict_view_feeding_sink():
    assert "DET203" in rules_of(
        """
        def publish(table, bus):
            for key, value in table.items():
                bus.put((key, value))
        """
    )


def test_det203_ignores_dict_view_without_sink():
    assert "DET203" not in rules_of(
        """
        def total(table):
            acc = 0
            for key, value in table.items():
                acc += value
            return acc
        """
    )


def test_det203_ignores_sorted_dict_view():
    assert "DET203" not in rules_of(
        """
        def publish(table, bus):
            for key, value in sorted(table.items()):
                bus.put((key, value))
        """
    )


# -- DET301: id()/hash() ordering -----------------------------------------


def test_det301_flags_sort_keyed_on_id():
    assert "DET301" in rules_of(
        """
        def order(events):
            return sorted(events, key=id)
        """
    )


def test_det301_flags_id_comparison():
    assert "DET301" in rules_of(
        """
        def before(a, b):
            return id(a) < id(b)
        """
    )


def test_det301_ignores_stable_sort_key():
    assert "DET301" not in rules_of(
        """
        def order(events):
            return sorted(events, key=lambda e: e.seq)
        """
    )


# -- DET401: environment-variable branches --------------------------------


def test_det401_flags_environ_branch():
    assert "DET401" in rules_of(
        """
        import os

        def mode():
            if os.environ.get("REPRO_FAST"):
                return "fast"
            return "full"
        """
    )


def test_det401_flags_getenv_branch():
    assert "DET401" in rules_of(
        """
        import os

        def mode():
            return "fast" if os.getenv("REPRO_FAST") else "full"
        """
    )


def test_det401_ignores_explicit_parameter():
    assert "DET401" not in rules_of(
        """
        def mode(fast):
            if fast:
                return "fast"
            return "full"
        """
    )


# -- SIM101: non-event yields ---------------------------------------------


def test_sim101_flags_literal_yield_in_process():
    assert "SIM101" in rules_of(
        """
        def proc(sim):
            yield sim.timeout(1.0)
            yield 42
        """
    )


def test_sim101_ignores_event_only_process():
    assert "SIM101" not in rules_of(
        """
        def proc(sim, store):
            yield sim.timeout(1.0)
            item = yield store.get()
            return item
        """
    )


def test_sim101_ignores_plain_data_generators():
    # A generator that never yields events is not a sim process.
    assert "SIM101" not in rules_of(
        """
        def squares(n):
            for i in range(n):
                yield i * i
        """
    )


# -- SIM102: leaked events ------------------------------------------------


def test_sim102_flags_discarded_timeout():
    assert "SIM102" in rules_of(
        """
        def proc(sim):
            sim.timeout(1.0)
            yield sim.timeout(2.0)
        """
    )


def test_sim102_ignores_bound_and_fireandforget():
    assert "SIM102" not in rules_of(
        """
        def proc(sim, store):
            wake = sim.timeout(1.0)
            store.put("msg")
            yield wake
        """
    )


# -- SIM103: double trigger -----------------------------------------------


def test_sim103_flags_double_succeed():
    assert "SIM103" in rules_of(
        """
        def settle(done):
            done.succeed(1)
            done.succeed(2)
        """
    )


def test_sim103_ignores_distinct_events():
    assert "SIM103" not in rules_of(
        """
        def settle(first, second):
            first.succeed(1)
            second.fail(RuntimeError("boom"))
        """
    )


# -- SIM104: kernel re-entrancy -------------------------------------------


def test_sim104_flags_run_inside_process():
    assert "SIM104" in rules_of(
        """
        def proc(sim):
            yield sim.timeout(1.0)
            sim.run(until=5.0)
        """
    )


def test_sim104_ignores_driver_code():
    assert "SIM104" not in rules_of(
        """
        def drive(sim):
            sim.process(worker(sim))
            sim.run(until=5.0)
        """
    )


# -- OBS101: print() inside simulation code -------------------------------


def test_obs101_flags_print_in_gated_code():
    assert "OBS101" in rules_of(
        """
        def notify(sim):
            print("violation!")
        """,
        path="src/repro/runtime/monitor.py",
    )


def test_obs101_ignores_print_outside_gated_dirs():
    assert "OBS101" not in rules_of(
        """
        def render(result):
            print(result)
        """,
        path="src/repro/experiments/fig3.py",
    )


# -- OBS102: leaked spans --------------------------------------------------


def test_obs102_flags_discarded_begin():
    assert "OBS102" in rules_of(
        """
        def handle(obs, work):
            obs.begin("handle", cat="app")
            work()
        """
    )


def test_obs102_flags_never_referenced_span_id():
    assert "OBS102" in rules_of(
        """
        def handle(obs, work):
            sid = obs.begin("handle", cat="app")
            work()
        """
    )


def test_obs102_flags_discarded_begin_in_except_handler():
    assert "OBS102" in rules_of(
        """
        def handle(obs, work):
            try:
                work()
            except ValueError:
                obs.begin("recover", cat="app")
        """
    )


def test_obs102_ignores_span_passed_to_end():
    assert "OBS102" not in rules_of(
        """
        def handle(obs, work):
            sid = obs.begin("handle", cat="app")
            try:
                work()
            finally:
                obs.end(sid)
        """
    )


def test_obs102_ignores_span_stored_on_attribute():
    assert "OBS102" not in rules_of(
        """
        def handle(obs, message):
            message.span = obs.begin("deliver", cat="app")
        """
    )


def test_obs102_ignores_span_captured_by_closure():
    assert "OBS102" not in rules_of(
        """
        def handle(obs):
            sid = obs.begin("handle", cat="app")

            def finish(ok):
                obs.end(sid, ok=ok)

            return finish
        """
    )


# -- OBS103: unannotated wall-clock reads in kernel code -------------------


def test_obs103_flags_bare_wallclock_in_gated_code():
    assert "OBS103" in rules_of(
        """
        from time import perf_counter

        def window():
            return perf_counter()
        """,
        path="src/repro/sim/core.py",
    )


def test_obs103_ignores_wallclock_outside_gated_dirs():
    # The profiler (repro/obs) and experiments read host clocks too; only
    # the kernel/runtime/faults dirs demand the visible justification.
    assert "OBS103" not in rules_of(
        """
        from time import perf_counter

        def window():
            return perf_counter()
        """,
        path="src/repro/obs/perf.py",
    )


def test_obs103_satisfied_by_det101_telemetry_annotation():
    # The established convention annotates the read as host-side
    # telemetry via allow[DET101]; that same annotation satisfies OBS103
    # (no stacked double-allow needed).
    source = """
        import time

        def window():
            return time.perf_counter()  # repro: allow[DET101] -- host-side profiler telemetry
        """
    found = rules_of(source, path="src/repro/runtime/launcher.py")
    assert "OBS103" not in found
    assert "DET101" not in found


def test_obs103_flags_virtual_clock_never():
    assert "OBS103" not in rules_of(
        """
        def window(sim):
            return sim.now
        """,
        path="src/repro/faults/inject.py",
    )


# -- OBS104: mutating calls inside read-only inspectors --------------------


def test_obs104_flags_mutating_call_in_inspector_class():
    assert "OBS104" in rules_of(
        """
        class ScenarioInspector:
            def shares(self):
                self._scene.testbed.hosts["client"].cpu.share.set_speed(0.5)
        """,
        path="src/repro/obs/interactive.py",
    )


def test_obs104_flags_schedule_prefix_by_name():
    assert "OBS104" in rules_of(
        """
        class QueueInspector:
            def poke(self, sim):
                sim.schedule_callback(0.0, lambda: None)
        """,
        path="src/repro/obs/interactive.py",
    )


def test_obs104_flags_fluid_sync_and_scheduler_select():
    found = rules_of(
        """
        class ShareInspector:
            def shares(self, share):
                return share.sync()

            def decision(self, scheduler, estimates):
                return scheduler.select(estimates)
        """,
        path="src/repro/obs/interactive.py",
    )
    assert "OBS104" in found


def test_obs104_flags_detaching_a_kernel_observer():
    assert "OBS104" in rules_of(
        """
        class ScenarioInspector:
            def quiet(self, sim, recorder):
                sim.unobserve(recorder._step_hook)
        """,
        path="src/repro/obs/interactive.py",
    )


def test_obs104_flags_arming_the_clock_alarm():
    assert "OBS104" in rules_of(
        """
        class ScenarioInspector:
            def wake(self, sim, fn):
                sim.set_alarm(sim.now + 1.0, fn)
        """,
        path="src/repro/obs/interactive.py",
    )


def test_obs104_ignores_reading_the_kernel_observers():
    assert "OBS104" not in rules_of(
        """
        class ScenarioInspector:
            def observers(self, sim):
                return [fn.__qualname__ for fn in sim.observers]
        """,
        path="src/repro/obs/interactive.py",
    )


def test_obs104_ignores_passive_reads_in_inspector():
    assert "OBS104" not in rules_of(
        """
        class ScenarioInspector:
            def shares(self, share):
                return share.peek()

            def monitor(self, agent):
                return dict(agent.estimates())

            def supervision(self, supervisor, now):
                return supervisor.summary(now)
        """,
        path="src/repro/obs/interactive.py",
    )


def test_obs104_ignores_mutations_outside_inspector_classes():
    # Interventions on the context itself are the sanctioned mutation
    # surface; only *Inspector* classes carry the read-only contract.
    assert "OBS104" not in rules_of(
        """
        class InteractiveContext:
            def perturb(self, sandbox, limits):
                sandbox.set_limits(limits)
        """,
        path="src/repro/obs/interactive.py",
    )


def test_obs104_gated_to_interactive_module_only():
    assert "OBS104" not in rules_of(
        """
        class WidgetInspector:
            def poke(self, share):
                share.set_speed(0.5)
        """,
        path="src/repro/obs/report.py",
    )
