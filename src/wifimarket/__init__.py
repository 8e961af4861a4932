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
# The surface README's "Library" section documents (tests/test_library.py holds
# the two to each other), with the types its signatures take.
from .config import load_scenario, validate_scenario
from .engine import run_scenario
from .model import (
    LinkState,
    Population,
    SaleRecord,
    Settlement,
    UserProfile,
    UserValues,
    WfpAccount,
    WfpKind,
)
from .presets import load_preset
from .pricing import (
    SolverConfig,
    solve_isp_prices,
    solve_wfp_equilibrium,
    solve_wfp_subgradient,
    user_best_response,
)
from .reports import read_csv, write_csv, write_svg
from .sharing import (
    CoalitionValues,
    SaleTotals,
    SharingParams,
    ewfp_contribution,
    iwfp_contribution,
    settle_rows,
    settle_transaction,
    shapley_permutation,
    shapley_split,
)

__version__ = "0.1.0"

__all__ = [
    "load_preset",
    "load_scenario",
    "validate_scenario",
    "run_scenario",
    "read_csv",
    "write_csv",
    "write_svg",
    "UserValues",
    "shapley_split",
    "shapley_permutation",
    "ewfp_contribution",
    "iwfp_contribution",
    "settle_transaction",
    "settle_rows",
    "solve_wfp_equilibrium",
    "solve_wfp_subgradient",
    "solve_isp_prices",
    "user_best_response",
    "SaleRecord",
    "SaleTotals",
    "Settlement",
    "SharingParams",
    "WfpAccount",
    "WfpKind",
    "CoalitionValues",
    "LinkState",
    "Population",
    "SolverConfig",
    "UserProfile",
    "__version__",
]
