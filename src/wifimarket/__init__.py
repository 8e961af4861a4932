"""Secondary Wi-Fi bandwidth market simulator.

Providers resell their spare Wi-Fi capacity to nearby users; the ISP that
carries the traffic prices each backhaul link.  This package models how those
prices form (each provider's exact capacity-clearing dual price, the ISP's
link prices by projected dual subgradient steps), how each
transaction's revenue splits between the provider and the ISP (the two-player
Shapley value with kind-specific contribution functions), and how individual
providers' data plans cap what they can earn per billing cycle.

Typical use::

    from wifimarket import load_preset, run_scenario, write_csv

    ts = run_scenario(load_preset("scenario1"))
    write_csv(ts, "scenario1.csv")
"""
from .checks import CheckResult, run_all
from .config import (
    MAX_USER_STEPS,
    CeilingSweepMode,
    ConfigError,
    EquilibriumMode,
    QuotaSweepMode,
    ScenarioConfig,
    SweepMode,
    load_scenario,
    scenario_from_dict,
    validate_scenario,
)
from .engine import StepRecord, TimeSeries, run_scenario
from .model import (
    TOLERANCE,
    LinkState,
    SaleRecord,
    Settlement,
    Topology,
    Unit,
    UserProfile,
    UserValues,
    WfpAccount,
    WfpKind,
    effective_capacity,
)
from .presets import PRESET_NAMES, load_preset, preset_path
from .pricing import (
    EquilibriumResult,
    SolverConfig,
    final_price,
    isp_link_price_update,
    min_price_for_path,
    solve_isp_prices,
    solve_wfp_equilibrium,
    solve_wfp_subgradient,
    step_size,
    user_best_response,
    user_utility,
    wfp_price_update,
)
from .reports import read_csv, write_csv, write_svg
from .sharing import (
    CoalitionValues,
    SaleTotals,
    SharingParams,
    coalition_map,
    ewfp_contribution,
    isp_standalone_revenue,
    iwfp_contribution,
    settle_transaction,
    shapley_permutation,
    shapley_split,
    total_revenue,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "run_all",
    "MAX_USER_STEPS",
    "CeilingSweepMode",
    "ConfigError",
    "EquilibriumMode",
    "QuotaSweepMode",
    "ScenarioConfig",
    "SweepMode",
    "load_scenario",
    "scenario_from_dict",
    "validate_scenario",
    "StepRecord",
    "TimeSeries",
    "run_scenario",
    "TOLERANCE",
    "LinkState",
    "SaleRecord",
    "Settlement",
    "Topology",
    "Unit",
    "UserProfile",
    "UserValues",
    "WfpAccount",
    "WfpKind",
    "effective_capacity",
    "PRESET_NAMES",
    "load_preset",
    "preset_path",
    "EquilibriumResult",
    "SolverConfig",
    "final_price",
    "isp_link_price_update",
    "min_price_for_path",
    "solve_isp_prices",
    "solve_wfp_equilibrium",
    "solve_wfp_subgradient",
    "step_size",
    "user_best_response",
    "user_utility",
    "wfp_price_update",
    "read_csv",
    "write_csv",
    "write_svg",
    "CoalitionValues",
    "SaleTotals",
    "SharingParams",
    "coalition_map",
    "ewfp_contribution",
    "isp_standalone_revenue",
    "iwfp_contribution",
    "settle_transaction",
    "shapley_permutation",
    "shapley_split",
    "total_revenue",
    "__version__",
]
