"""Between-arm response-rate comparison with two-proportion z-tests.

Overall response compares the fraction of displays with any token
selected; per-token rows compare each token's selection rate. The
default denominator is every display in the arm; a responders-only
denominator is available since per-token "response rate" admits both
readings.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Union


from .counts import RowCounts
from .dataset import Dataset
from .errors import DataError, ParameterError, SchemaError

DENOMINATORS = ("displays", "responders")


@dataclass(frozen=True)
class ArmCounts:
    successes: int
    trials: int


@dataclass(frozen=True)
class ProportionComparison:
    """Pooled two-proportion z-test between control and treatment counts.

    relative_delta is (p_t - p_c) / p_c, or None when the control
    proportion is zero (undefined); the p-value is still computed.
    """

    control: ArmCounts
    treatment: ArmCounts
    relative_delta: Optional[float]
    z: float
    p_value: float

    @property
    def direction(self) -> str:
        p_c = self.control.successes / self.control.trials
        p_t = self.treatment.successes / self.treatment.trials
        if p_t > p_c:
            return "up"
        if p_t < p_c:
            return "down"
        return "flat"

    def to_json(self) -> dict:
        return asdict(self)


def compare_proportions(c_succ: int, c_n: int, t_succ: int, t_n: int) -> ProportionComparison:
    """Two-sided pooled z-test of treatment vs control proportions."""
    if c_n < 1 or t_n < 1:
        raise ParameterError("trial counts must be >= 1")
    if not (0 <= c_succ <= c_n and 0 <= t_succ <= t_n):
        raise ParameterError("successes must be between 0 and trials")
    p_c = c_succ / c_n
    p_t = t_succ / t_n
    pooled = (c_succ + t_succ) / (c_n + t_n)
    var = pooled * (1.0 - pooled) * (1.0 / c_n + 1.0 / t_n)
    if var > 0.0:
        z = (p_t - p_c) / math.sqrt(var)
    else:
        z = 0.0
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    delta = (p_t - p_c) / p_c if p_c > 0 else None
    return ProportionComparison(
        control=ArmCounts(c_succ, c_n),
        treatment=ArmCounts(t_succ, t_n),
        relative_delta=delta,
        z=z,
        p_value=p_value,
    )


@dataclass(frozen=True)
class TokenComparison:
    token_id: int
    label: str
    comparison: ProportionComparison


@dataclass(frozen=True)
class AbTestReport:
    overall: ProportionComparison
    per_token: tuple[TokenComparison, ...]
    significance_level: float
    denominator: str

    def significant_tokens(self) -> list[TokenComparison]:
        return [t for t in self.per_token if t.comparison.p_value < self.significance_level]

    def to_json(self) -> dict:
        payload = asdict(self)
        # a token's entry carries its comparison's fields beside token_id and label
        for entry in payload["per_token"]:
            entry.update(entry.pop("comparison"))
        return payload

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("label,relative_delta,p_value,direction\n")
        for t in self.per_token:
            cmp = t.comparison
            delta = "" if cmp.relative_delta is None else repr(cmp.relative_delta)
            label = t.label.replace('"', '""')
            buf.write(f'"{label}",{delta},{cmp.p_value!r},{cmp.direction}\n')
        return buf.getvalue()


def run_abtest(
    control: Union[Dataset, RowCounts],
    treatment: Union[Dataset, RowCounts],
    denominator: str = "displays",
    significance_level: float = 0.01,
) -> AbTestReport:
    """Overall and per-token response-rate comparison between two arms, each
    a Dataset or the `RowCounts` of its file: an arm's records, responders
    and per-token selections are read from its counts."""
    if control.catalog != treatment.catalog:
        raise SchemaError("control and treatment datasets use different catalogs")
    if denominator not in DENOMINATORS:
        raise ParameterError(f"denominator must be one of {DENOMINATORS}")
    if not 0.0 < significance_level < 1.0:
        raise ParameterError("significance_level must be in (0, 1)")

    control, treatment = (arm if isinstance(arm, RowCounts) else arm.row_counts for arm in (control, treatment))
    c_resp, t_resp = control.responders, treatment.responders
    for arm, ds, resp in (("control", control, c_resp), ("treatment", treatment, t_resp)):
        if len(ds) == 0:
            raise DataError(f"{arm} arm has no records")
        if denominator == "responders" and resp == 0:
            raise DataError(f"{arm} arm has no responders to use as the denominator")
    overall = compare_proportions(c_resp, len(control), t_resp, len(treatment))

    c_n = len(control) if denominator == "displays" else c_resp
    t_n = len(treatment) if denominator == "displays" else t_resp
    c_sel, t_sel = control.token_sums, treatment.token_sums

    rows = []
    for token in control.catalog:
        rows.append(
            TokenComparison(
                token.id,
                token.label,
                compare_proportions(int(c_sel[token.id]), c_n, int(t_sel[token.id]), t_n),
            )
        )
    return AbTestReport(
        overall=overall,
        per_token=tuple(rows),
        significance_level=significance_level,
        denominator=denominator,
    )
