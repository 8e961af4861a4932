"""The scalar settlement oracle the kernel ``settle_rows`` is checked against.

It repeats the paper's settlement of one transaction with plain float
arithmetic and ``math.log``, sharing no code with the kernel beyond the
value types.
"""
import math
from dataclasses import replace

from wifimarket.model import TOLERANCE, Settlement, WfpKind, fold_sum
from wifimarket.sharing import SaleTotals

SETTLEMENT_FIELDS = ("wfp_share", "isp_share", "total_value", "wfp_value", "isp_value")


def bits(values):
    """Exact, sign-of-zero-aware form of floats, for bit-for-bit comparison."""
    return [float(v).hex() for v in values]


def totals_of(*sales):
    """The SaleTotals of (x, min_price, final_price) sales, folded from 0.0 in order."""
    return SaleTotals(
        count=len(sales),
        revenue=fold_sum(x * p for x, _, p in sales),
        isp_revenue=fold_sum(x * g for x, g, _ in sales),
        spread=fold_sum((p - g) * x for x, g, p in sales),
        floor_sum=fold_sum(g for _, g, _ in sales),
        volume=fold_sum(x for x, _, _ in sales),
    )


def reference_settle(account, totals, params):
    """The scalar settlement that ``settle_rows`` replaced, kept as its oracle.

    Same contract as ``settle_transaction``: one transaction's ``SaleTotals``
    in, the Settlement and the updated account out.
    """
    if not totals.count:
        return Settlement(0.0, 0.0, 0.0, 0.0, 0.0), account

    total, isp_alone = totals.revenue, totals.isp_revenue
    if account.kind is WfpKind.ESTABLISHMENT:
        floor_sum = totals.floor_sum
        denom = max(math.log(floor_sum), params.beta) if floor_sum > 0.0 else params.beta
        wfp_value = totals.spread / denom
    else:
        if isp_alone > total + TOLERANCE:
            raise ValueError(
                f"ISP standalone value {isp_alone} exceeds total revenue {total}"
            )
        surplus = total - isp_alone
        if account.fee > 0.0 and account.settled_share >= account.fee - TOLERANCE:
            wfp_value = 0.0
        elif surplus <= 0.0:
            wfp_value = 0.0
        else:
            omega = account.unused / account.quota if account.quota > 0.0 else 0.0
            raw = omega * math.log(params.alpha * surplus)
            wfp_value = min(max(raw, 0.0), surplus)

    isp_value = isp_alone if wfp_value > 0.0 else total
    wfp_share = 0.5 * wfp_value + 0.5 * (total - isp_value)
    isp_share = 0.5 * isp_value + 0.5 * (total - wfp_value)
    settlement = Settlement(wfp_share, isp_share, total, wfp_value, isp_value)

    if account.kind is WfpKind.ESTABLISHMENT:
        return settlement, replace(
            account, settled_share=account.settled_share + settlement.wfp_share
        )
    headroom = max(account.fee - account.settled_share, 0.0)
    if account.fee > 0.0 and settlement.wfp_share > headroom:
        settlement = replace(
            settlement,
            wfp_share=headroom,
            isp_share=settlement.isp_share + (settlement.wfp_share - headroom),
        )
    return settlement, replace(
        account,
        unused=max(account.unused - totals.volume, 0.0),
        settled_share=account.settled_share + settlement.wfp_share,
    )
