"""The phases of `progmoney run`, `audit` and `report`, timed from outside.

One pass runs a scenario end to end through the same public functions the
CLI calls:

  setup      parse_scenario + build_simulation
  run        Simulation.run_until(until)
  artifacts  the rest of `progmoney run`: the observation log, the ledger
             export, render_report(report_for(sim)) and registry.audit()
  verify     `progmoney audit` and `progmoney report` on the written text:
             audit_export, build_report and render_report

setup, artifacts and verify take milliseconds on some workloads, so each is
called repeatedly within a pass and timed per call; every one of those
calls is pure over its input.  A pass also checks the program's outputs and
records failures instead of raising, so a run can count them.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from typing import Callable

from progmoney import registry, report, scenario
from progmoney.money import UnitState
from progmoney.registry import RecordKind

from tracing import Tracer, clock
from workloads import Workload

# Calls into the program go through module attributes, so that the
# wrappers a traced pass installs see them.

# a short phase is repeated until it has run this long and this often
PHASE_MIN_S = 0.25
PHASE_MIN_CALLS = 2
PHASE_MAX_CALLS = 200

# one speed sample is taken for every this much timed work
SPEED_SAMPLE_EVERY_S = 0.025
_REFERENCE_BYTES = bytes(range(256)) * 8


def reference_work() -> int:
    """A fixed slice of pure-Python work, independent of the program.

    It mixes what the program spends its time on: a byte-wise integer hash,
    string formatting and dict traffic.  Its time tracks how fast the core
    runs Python at the moment, whatever the program's code.
    """
    h = 0xCBF29CE484222325
    for byte in _REFERENCE_BYTES:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    table = {}
    for i in range(1000):
        table[f"{i}:{h >> (i % 48):x}"] = i
    return h ^ sum(table.values())


class Speedometer:
    """Times reference_work() between the timed calls of one phase.

    On a shared host a core runs the same code faster or slower from one
    moment to the next (another tenant on the sibling hyperthread, in the
    caches), and CPU time does not leave that out.  Samples taken between
    the timed calls see the same moments as the calls, so a phase's time
    divided by its mean sample leaves it out.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._since = 0.0

    def after(self, elapsed: float) -> None:
        """Count `elapsed` seconds of timed work; sample once per SPEED_SAMPLE_EVERY_S.

        A long call is followed by as many samples as its length is worth,
        so the mean sample weighs every moment of the phase alike.
        """
        self._since += elapsed
        while self._since >= SPEED_SAMPLE_EVERY_S:
            self._since -= SPEED_SAMPLE_EVERY_S
            self.sample()

    def sample(self) -> None:
        t0 = clock()
        reference_work()
        self.samples.append(clock() - t0)

    def mean_s(self) -> float:
        """The mean sample; a phase too short to have one takes one now."""
        if not self.samples:
            self.sample()
        return sum(self.samples) / len(self.samples)


ARTIFACTS = ("observations.log", "ledger.txt", "report.txt")


@dataclass
class Artifacts:
    """The three files `progmoney run` writes, as text."""

    observations: str
    ledger: str
    report: str

    def digests(self) -> dict[str, str]:
        texts = (self.observations, self.ledger, self.report)
        return {
            name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in zip(ARTIFACTS, texts)
        }


@dataclass
class PassResult:
    setup_s: list[float] = field(default_factory=list)
    tick_s: list[float] = field(default_factory=list)
    artifacts_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    # phase -> mean time of reference_work() during the phase
    reference_s: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def repeat(
    fn: Callable[[], object], speed: Speedometer
) -> tuple[object, list[float], bool]:
    """Call `fn` until PHASE_MIN_S and PHASE_MIN_CALLS are both reached.

    Returns the first result, the per-call times, and whether every call
    returned a result equal to the first.
    """
    times: list[float] = []
    first = None
    same = True
    while len(times) < PHASE_MAX_CALLS and (
        len(times) < PHASE_MIN_CALLS or sum(times) < PHASE_MIN_S
    ):
        gc.collect()
        t0 = clock()
        result = fn()
        times.append(clock() - t0)
        speed.after(times[-1])
        if len(times) == 1:
            first = result
        elif result != first:
            same = False
        del result  # free a repeat's output outside the timed region
    return first, times, same


def setup(workload: Workload):
    return scenario.build_simulation(scenario.parse_scenario(workload.text), workload.sim_seed)


def artifacts(sim) -> tuple[Artifacts, list[str]]:
    """What `progmoney run` writes, and the live registry audit."""
    observations = "\n".join(sim.observations) + "\n"
    ledger = sim.registry.export() + "\n"
    rendered = report.render_report(report.report_for(sim))
    return Artifacts(observations, ledger, rendered), sim.registry.audit()


def verify(written: Artifacts) -> tuple[list[str], str]:
    """`progmoney audit` and `progmoney report` on the written text."""
    violations = registry.audit_export(written.ledger)
    rebuilt = report.render_report(
        report.build_report(written.observations.splitlines(), written.ledger.splitlines())
    )
    return violations, rebuilt


def check(written: Artifacts, live_violations, verified) -> list[str]:
    """Every correctness condition a single pass must meet."""
    failures = [f"registry.audit: {v}" for v in live_violations]
    export_violations, rebuilt = verified
    failures += [f"audit_export: {v}" for v in export_violations]
    if rebuilt != written.report:
        failures.append("report rebuilt from artifacts differs from the live report")
    return failures


def run_by_tick(sim, until: int, speed: Speedometer) -> list[float]:
    """Simulation.run_until(until), one tick per call; returns each tick's time.

    run_until(t) for t = 0..until processes exactly the ticks that
    run_until(until) would, so the sum is the run's time.
    """
    times = []
    for tick in range(until + 1):
        t0 = clock()
        sim.run_until(tick)
        times.append(clock() - t0)
        speed.after(times[-1])
    return times


def timed_pass(workload: Workload) -> PassResult:
    """One untraced pass: every phase timed, outputs checked."""
    result = PassResult()
    speeds = {phase: Speedometer() for phase in ("setup", "run", "artifacts", "verify")}
    # every call builds an equal, fresh simulation; the first one is run
    sim, result.setup_s, _ = repeat(lambda: setup(workload), speeds["setup"])
    gc.collect()
    result.tick_s = run_by_tick(sim, workload.until, speeds["run"])

    (written, live_violations), result.artifacts_s, same_artifacts = repeat(
        lambda: artifacts(sim), speeds["artifacts"]
    )
    del sim
    verified, result.verify_s, same_verify = repeat(lambda: verify(written), speeds["verify"])
    result.reference_s = {phase: speed.mean_s() for phase, speed in speeds.items()}
    result.failures = check(written, live_violations, verified)
    if not (same_artifacts and same_verify):
        result.failures.append("a repeated artifacts or verify call gave different output")
    result.digests = written.digests()
    return result


@dataclass
class TracedPass:
    counters: dict[str, int]
    times_s: dict[str, float]
    tick_s: list[float]
    digests: dict[str, str]
    failures: list[str]
    edges: list[dict]


def _end_state_counters(cfg, sim, written: Artifacts) -> dict[str, int]:
    """Counters read from the finished simulation and its artifacts."""
    counters = {
        "money.provenance_live_total": sum(
            len(u.provenance) for u in sim.units.values() if u.state is UnitState.ACTIVE
        ),
        "registry.records": len(sim.registry.records),
        "sim.ticks": sim.now,
        "sim.events_executed": sim.executed_count,
        "sim.observations": len(sim.observations),
        "scenario.script_lines": len(cfg.script),
        "report.lines": written.report.count("\n"),
    }
    for kind in RecordKind:
        counters["registry.records." + kind.value.lower()] = 0
    for line in written.ledger.splitlines():
        kind = line.split("|", 3)[2].lower()
        counters["registry.records." + kind] += 1
    events = [line.split("|", 3)[2] for line in sim.observations]
    counters["registry.replay.accepted"] = events.count("replay_accepted")
    counters["registry.replay.rejected"] = events.count("double_spend") + events.count(
        "replay_rejected"
    )
    return counters


def traced_pass(workload: Workload) -> TracedPass:
    """One pass with every layer wrapped; each phase runs once.

    As in run_by_tick, the run goes one tick at a time, so each tick is a span.
    """
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        cfg, parse_s, _ = tracer.root("setup", scenario.parse_scenario, workload.text)
        sim, build_s, _ = tracer.root("setup", scenario.build_simulation, cfg, workload.sim_seed)
        gc.collect()
        tick_s = []
        sim_self_s = 0.0
        for tick in range(workload.until + 1):
            _, elapsed, wrapped = tracer.root("run", sim.run_until, tick)
            tick_s.append(elapsed)
            sim_self_s += elapsed - wrapped
        (written, live_violations), _, _ = tracer.root("artifacts", artifacts, sim)
        verified, _, _ = tracer.root("verify", verify, written)
    finally:
        tracer.uninstall()

    counters = tracer.deterministic_counts()
    counters.update(_end_state_counters(cfg, sim, written))
    times = {f"{layer}.self_s": s for layer, s in tracer.layer_self_s("run").items()}
    times.update(
        {
            "sim.self_s": sim_self_s,
            "scenario.parse_s": parse_s,
            "scenario.build_s": build_s,
            "registry.audit_s": tracer.total_s("registry.Registry.audit"),
            "registry.replay_records_s": tracer.total_s("registry.replay_records"),
            "report.build_report_s": tracer.total_s("report.build_report", root="verify"),
        }
    )
    return TracedPass(
        counters=counters,
        times_s=times,
        tick_s=tick_s,
        digests=written.digests(),
        failures=check(written, live_violations, verified),
        edges=tracer.dump(),
    )
