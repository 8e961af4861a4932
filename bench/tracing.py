"""In-memory spans and counters around the public calls of each layer.

The wrappers replace names in the namespaces the calls are looked up from:
the package for what the benchmark calls itself, ``wifimarket.engine`` for
what the runners call.  Provider solves made inside ``solve_isp_prices`` go
through the engine's name too, so their spans get the ISP span as parent.
``user_utility`` is called per user per step and is counted, with its time
accumulated, instead of spanned.
"""
from __future__ import annotations

from collections import Counter
from time import monotonic

# (module, attribute, span name), in the order the layers are listed.
TRACED = (
    ("wifimarket", "load_scenario", "config.load_scenario"),
    ("wifimarket", "validate_scenario", "config.validate_scenario"),
    ("wifimarket", "run_scenario", "engine.run_scenario"),
    ("wifimarket.engine", "run_sweep", "engine.run_sweep"),
    ("wifimarket.engine", "run_equilibrium", "engine.run_equilibrium"),
    ("wifimarket.engine", "run_iwfp_topology", "engine.run_iwfp_topology"),
    ("wifimarket.engine", "run_iwfp_ceiling", "engine.run_iwfp_ceiling"),
    ("wifimarket.engine", "solve_wfp_equilibrium", "pricing.solve_wfp_equilibrium"),
    ("wifimarket.engine", "solve_isp_prices", "pricing.solve_isp_prices"),
    ("wifimarket.engine", "settle_transaction", "sharing.settle_transaction"),
    ("wifimarket", "write_csv", "reports.write_csv"),
    ("wifimarket", "write_svg", "reports.write_svg"),
)


class Tracer:
    """Spans as ``[name, start, end, parent_index]`` plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.utility_s = 0.0
        self._open: list[int] = []

    def install(self, modules: dict) -> None:
        """Wrap every traced name; ``modules`` maps module names to modules."""
        observers = {
            "pricing.solve_wfp_equilibrium": self._solver_result("wfp"),
            "pricing.solve_isp_prices": self._solver_result("isp"),
            "sharing.settle_transaction": self._settlement,
        }
        for module, attr, name in TRACED:
            target = modules[module]
            setattr(target, attr, self._span(name, getattr(target, attr), observers.get(name)))
        engine = modules["wifimarket.engine"]
        engine.user_utility = self._counted(engine.user_utility)

    def _span(self, name, fn, observe):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = monotonic()
                open_.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _counted(self, fn):
        def counted(*args):
            start = monotonic()
            result = fn(*args)
            self.utility_s += monotonic() - start
            self.counters["pricing.user_utility_calls"] += 1
            return result

        return counted

    def _solver_result(self, side: str):
        counters = self.counters

        def observe(args, result) -> None:
            counters[f"pricing.{side}_solves"] += 1
            counters[f"pricing.{side}_iterations"] += result.iterations
            counters[f"pricing.{side}_unconverged"] += not result.converged

        return observe

    def _settlement(self, args, result) -> None:
        account, sales = args[0], args[1]
        settlement, _ = result
        self.counters["sharing.settlements"] += 1
        self.counters["sharing.sales"] += len(sales)
        # The uncapped payout is the Shapley share; settle_transaction only
        # ever lowers it, for an individual plan whose fee caps the cycle.
        uncapped = 0.5 * settlement.wfp_value + 0.5 * (
            settlement.total_value - settlement.isp_value
        )
        if account.kind.value == "individual" and settlement.wfp_share < uncapped:
            self.counters["sharing.cap_hits"] += 1

    def layer_times(self, nominal_s) -> dict[str, float]:
        """Busy and self times per layer, in nominal seconds.

        ``nominal_s(start, end)`` converts a span (see speed.py).  The
        accumulated ``user_utility`` time is scaled as its run is.
        """
        spent = [nominal_s(start, end) for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (name, start, end, parent), time_s in zip(self.spans, spent):
            if parent >= 0:
                child_time[parent] += time_s
        busy: Counter = Counter()
        own: Counter = Counter()
        scale = 1.0
        for (name, start, end, _), time_s, children in zip(self.spans, spent, child_time):
            busy[name] += time_s
            own[name] += time_s - children
            if name == "engine.run_scenario":
                scale = time_s / (end - start)
        utility_s = self.utility_s * scale
        engine_self = sum(v for k, v in own.items() if k.startswith("engine."))
        return {
            "config.load_s": busy["config.load_scenario"],
            "config.validate_s": busy["config.validate_scenario"],
            # user_utility runs inside the engine's spans but is pricing work.
            "engine.self_s": engine_self - utility_s,
            "pricing.wfp_solve_s": busy["pricing.solve_wfp_equilibrium"],
            "pricing.isp_self_s": own["pricing.solve_isp_prices"],
            "pricing.user_utility_s": utility_s,
            "sharing.settle_s": busy["sharing.settle_transaction"],
            "reports.csv_s": busy["reports.write_csv"],
            "reports.svg_s": busy["reports.write_svg"],
        }
