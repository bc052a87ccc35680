"""Golden event-order test across the engine refactors.

``GOLDEN`` below is the (time, tag) execution order of a mixed
schedule / schedule_at / timer workload first recorded on the original
engine (dataclass events, single heap).  The heap+wheel engine must
replay it exactly -- same times, same tie-break order, same number of
executed events -- both when every timer goes through the heap
(``use_timer=False``) and when the homogeneous poll chain rides the
bucketed event wheel (``use_timer=True``).

The heartbeat grid (0.25) and poll step (0.125) are binary-exact
floats, so no time in this workload depends on rounding: any
divergence here is a real ordering regression.
"""

from repro.simnet import Simulator

#: Captured on the original engine (see module docstring).
GOLDEN = [
    (0.0, "poll0"), (0.125, "poll1"), (0.25, "beat"), (0.25, "poll2"),
    (0.375, "poll3"), (0.5, "a"), (0.5, "b"), (0.5, "c"), (0.5, "beat"),
    (0.5, "poll4"), (0.625, "killer"), (0.625, "poll5"), (0.75, "beat"),
    (0.75, "poll6"), (0.875, "poll7"), (1.0, "nest"), (1.0, "beat"),
    (1.0, "poll8"), (1.0625, "stop-beat"), (1.0625, "timer-child"),
    (1.125, "nested-child"), (1.125, "poll9"), (1.25, "poll10"),
    (1.375, "poll11"),
]

#: Total events executed, including the stopped heartbeat's final no-op
#: tick at 1.25 and the victim's no-op at 0.75.
GOLDEN_EVENTS_RUN = 26

GOLDEN_FINAL_NOW = 2.0


def drive(sim, log, use_timer=False):
    """The recorded workload: a self-rescheduling heartbeat on a fixed
    grid, a self-rescheduling poll chain, tie-breaking one-shots, a
    one-shot another callback silences, and nested scheduling from
    inside a callback."""
    timer = (sim.schedule_timer if use_timer
             else (lambda d, cb: sim.schedule(d, cb)))

    def note(tag):
        log.append((sim.now, tag))

    beating = [True]
    ticks = [0]

    def beat():
        if not beating[0]:
            return
        note("beat")
        ticks[0] += 1
        sim.schedule_at(0.25 * (ticks[0] + 1), beat)

    sim.schedule_at(0.25, beat)
    n = [0]

    def poll():
        note("poll%d" % n[0])
        n[0] += 1
        if n[0] < 12:
            timer(0.125, poll)

    timer(0.0, poll)
    sim.schedule(0.5, lambda: note("a"))
    sim.schedule(0.5, lambda: note("b"))
    sim.schedule_at(0.5, lambda: note("c"))
    victim_alive = [True]

    def victim():
        if victim_alive[0]:
            note("victim")

    sim.schedule(0.75, victim)

    def killer():
        note("killer")
        victim_alive[0] = False

    sim.schedule(0.625, killer)

    def nest():
        note("nest")
        sim.schedule(0.125, lambda: note("nested-child"))
        timer(0.0625, lambda: note("timer-child"))

    sim.schedule(1.0, nest)

    def stop():
        note("stop-beat")
        beating[0] = False

    sim.schedule(1.0625, stop)


class TestGoldenOrder:
    def test_heap_path_replays_golden(self):
        sim = Simulator()
        log = []
        drive(sim, log, use_timer=False)
        sim.run(until=2.0)
        assert log == GOLDEN
        assert sim.now == GOLDEN_FINAL_NOW
        assert sim.events_run == GOLDEN_EVENTS_RUN

    def test_wheel_path_replays_golden(self):
        sim = Simulator()
        log = []
        drive(sim, log, use_timer=True)
        sim.run(until=2.0)
        assert log == GOLDEN
        assert sim.now == GOLDEN_FINAL_NOW
        assert sim.events_run == GOLDEN_EVENTS_RUN
        # The poll chain really went through the wheel, not the heap.
        assert sim._quantum == 0.125

    def test_epoch_sliced_run_matches_batch(self):
        """Repeated run(until=slice) calls -- the parallel runner's epoch
        protocol -- must replay the golden order exactly, including when
        slice boundaries land on event times (boundary events execute in
        the epoch that reaches them first, i.e. run(until=t) is
        inclusive)."""
        for epoch in (0.0625, 0.1, 0.125, 0.33, 1.0):
            sim = Simulator()
            log = []
            drive(sim, log, use_timer=True)
            t = 0.0
            while t < GOLDEN_FINAL_NOW:
                t = min(t + epoch, GOLDEN_FINAL_NOW)
                sim.run(until=t)
            assert log == GOLDEN, "epoch=%r diverged" % epoch
            assert sim.now == GOLDEN_FINAL_NOW
            assert sim.events_run == GOLDEN_EVENTS_RUN
