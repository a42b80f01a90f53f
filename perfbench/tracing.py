"""Per-layer tracing by wrapping the program's public functions.

Nothing inside `progmoney` changes: `Tracer.install` replaces each public
function of interest with a timing wrapper, in every `progmoney` module
that binds it.  Several modules import functions by name (`money.h64`,
`sim.attest_location`, `sim.cda_submit`, `sim.select_best_rate`,
`markets.transfer`, `report.replay_records`), so a wrapper is installed on
every binding that is the same object as the original, not only in the
defining module.  `Tracer.uninstall` puts every original back.

Calls are not recorded one span each: `h64`, `sign` and `verify` alone run
hundreds of thousands of times a run.  Each call instead adds its count,
total time and self time to an edge keyed by (root span, parent span,
function).  Root spans are the benchmark phases (`setup`, `run`,
`artifacts`, `verify`); during `run` each tick is its own root span, and
its duration is kept, so tick percentiles come from real spans.  A layer's
self time is the time inside its functions minus the time in the wrapped
functions they call; the `sim` layer's self time is tick time minus the
time of every wrapped call the tick made.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Optional

from progmoney import crypto, markets, money, policy, registry, report, sim, supply

# Bindings that other modules import by name; `install` checks each one.
CROSS_MODULE_BINDINGS = (
    (money, "h64"),
    (policy, "h64"),
    (sim, "attest_location"),
    (sim, "verify_attestation"),
    (sim, "cda_submit"),
    (sim, "select_best_rate"),
    (markets, "transfer"),
    (report, "replay_records"),
    (report, "parse_ledger_line"),
)

ROOT = "idle"

# Every time the benchmark reports is CPU time of this process.  The
# benchmark is single-threaded and CPU-bound, so on an idle core this equals
# wall time; on a shared host it leaves out the time the process waits for a
# core, which the kernel does not charge to it (steal time included).
clock = time.process_time

# wrapped function -> the metric that counts its calls
COUNTED_CALLS = {
    "crypto.h64": "crypto.h64.calls",
    "crypto.KeyDirectory.verify": "crypto.verify.calls",
    "policy.evaluate": "policy.evaluate.calls",
    "policy.render_rules": "policy.render_rules.calls",
    "policy.compile_policy": "policy.compile.calls",
    "money.verify_integrity": "money.verify_integrity.calls",
    "money.mint": "money.mint.calls",
    "money.split": "money.split.calls",
    "money.merge": "money.merge.calls",
    "money.transfer": "money.transfer.calls",
    "money.zeroise": "money.zeroise.calls",
    "registry.Registry.endorse": "registry.endorse.calls",
    "registry.Registry.supply_stats": "registry.supply_stats.calls",
    "supply.issuance": "supply.issuance.calls",
    "markets.cda_submit": "markets.cda_submit.calls",
}


class Tracer:
    """Counts and self times per layer, gathered from wrapped functions."""

    def __init__(self) -> None:
        self._stack: list[list] = [[ROOT, 0.0]]
        self._patches: list[tuple[object, str, object]] = []
        # (root span, parent span, function) -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str, str], list] = {}
        self.counts: Counter = Counter()
        self.provenance_max = 0

    # -- spans -------------------------------------------------------------

    def root(self, name: str, fn: Callable, *args):
        """Run `fn` as a root span; returns (result, seconds, seconds in wrapped calls)."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = clock()
        try:
            result = fn(*args)
        finally:
            elapsed = clock() - t0
            self._stack.pop()
        return result, elapsed, frame[1]

    def _wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
    ) -> Callable:
        stack, edges, now = self._stack, self.edges, clock

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error(args)
                raise
            finally:
                elapsed = now() - t0
                stack.pop()
                parent[1] += elapsed
                key = (stack[1][0] if len(stack) > 1 else ROOT, parent[0], name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                    edge[2] += elapsed - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def _patch_function(self, module, attr: str, name: str, observe=None, on_error=None) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, observe, on_error)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "progmoney" or mod_name.startswith("progmoney.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, name: str, observe=None, on_error=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, observe, on_error))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        counts = self.counts

        def on_h64(args, _result):
            counts["crypto.h64.bytes"] += len(args[0])

        def on_sign(_args, _result):
            # KeyDirectory.verify recomputes the MAC through sign; count
            # only signatures made on behalf of a caller
            if self._stack[-1][0] != "crypto.KeyDirectory.verify":
                counts["crypto.sign.calls"] += 1

        def on_verify(_args, ok):
            if not ok:
                counts["crypto.verify.failed"] += 1

        def on_evaluate(args, decision):
            counts["policy.evaluate." + args[1].value.lower()] += 1
            if not decision.permitted:
                counts["policy.evaluate.forbid"] += 1

        def on_integrity(args, result):
            stamps = len(args[0].provenance)
            counts["money.stamps_verified"] += stamps
            self.provenance_max = max(self.provenance_max, stamps)
            if not result:
                counts["money.integrity_failed"] += 1

        def on_transfer_error(_args):
            counts["money.transfer.refused"] += 1

        def on_endorse(args, _result):
            counts["registry.endorse.calls." + args[1].kind.value.lower()] += 1

        def on_endorse_error(args):
            counts["registry.endorse.calls." + args[1].kind.value.lower()] += 1
            counts["registry.endorse.rejected"] += 1

        def on_cda(_args, result):
            counts["markets.trades"] += len(result[1])

        self._patch_function(crypto, "h64", "crypto.h64", on_h64)
        self._patch_method(crypto.KeyDirectory, "sign", "crypto.KeyDirectory.sign", on_sign)
        self._patch_method(crypto.KeyDirectory, "verify", "crypto.KeyDirectory.verify", on_verify)
        self._patch_function(crypto, "attest_location", "crypto.attest_location")
        self._patch_function(crypto, "verify_attestation", "crypto.verify_attestation")

        self._patch_function(policy, "evaluate", "policy.evaluate", on_evaluate)
        self._patch_function(policy, "render_rules", "policy.render_rules")
        self._patch_function(policy, "compile_policy", "policy.compile_policy")

        self._patch_function(money, "verify_integrity", "money.verify_integrity", on_integrity)
        for op in ("mint", "split", "merge", "zeroise"):
            self._patch_function(money, op, f"money.{op}")
        self._patch_function(money, "transfer", "money.transfer", on_error=on_transfer_error)

        self._patch_method(
            registry.Registry, "endorse", "registry.Registry.endorse", on_endorse, on_endorse_error
        )
        for method in ("supply_stats", "export", "audit"):
            self._patch_method(registry.Registry, method, f"registry.Registry.{method}")
        for fn in ("replay_records", "parse_ledger_line", "audit_export"):
            self._patch_function(registry, fn, f"registry.{fn}")

        self._patch_function(supply, "issuance", "supply.issuance")
        self._patch_function(markets, "cda_submit", "markets.cda_submit", on_cda)
        for fn in ("select_best_rate", "interest_payment", "delegated_move"):
            self._patch_function(markets, fn, f"markets.{fn}")

        for fn in ("build_report", "render_report", "report_for"):
            self._patch_function(report, fn, f"report.{fn}")

        # a count only: the time of a unit's upkeep stays in the sim layer
        upkeep = sim.Simulation._upkeep_unit
        self._patches.append((sim.Simulation, "_upkeep_unit", upkeep))

        def counted_upkeep(*args):
            counts["sim.unit_ticks"] += 1
            return upkeep(*args)

        sim.Simulation._upkeep_unit = counted_upkeep

        missing = [
            f"{mod.__name__}.{attr}"
            for mod, attr in CROSS_MODULE_BINDINGS
            if not hasattr(getattr(mod, attr), "__wrapped__")
        ]
        if missing:
            self.uninstall()
            raise RuntimeError("bindings left unwrapped: " + ", ".join(missing))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, _, n), e in self.edges.items() if n == name)

    def total_s(self, name: str, root: Optional[str] = None) -> float:
        return sum(
            e[1] for (r, _, n), e in self.edges.items() if n == name and root in (None, r)
        )

    def layer_self_s(self, root: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for (r, _, name), edge in self.edges.items():
            if r == root:
                layer = name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + edge[2]
        return out

    def deterministic_counts(self) -> dict[str, int]:
        """Every count the wrappers saw; identical for identical inputs."""
        out = dict(self.counts)
        for name, metric in COUNTED_CALLS.items():
            out[metric] = self.calls(name)
        out["money.provenance_max"] = self.provenance_max
        return dict(sorted(out.items()))

    def dump(self) -> list[dict]:
        """The aggregated span tree, for writing out after the run."""
        return [
            {"root": r, "parent": p, "name": n, "calls": e[0], "total_s": e[1], "self_s": e[2]}
            for (r, p, n), e in sorted(self.edges.items())
        ]
