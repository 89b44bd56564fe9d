"""Georgia study presets and the published result tables they are checked against.

Parameter values and 2017 initial conditions for both model variants, the
published 10-year incidence tables (used as golden data by the validators),
the study window conventions, and ``STUDIES``: one record per variant
holding everything above that belongs to it.

Window convention: the published "10-yr incidence 2020-30" covers calendar
years 2020 through 2030 inclusive, i.e. t in [2020, 2031).  Reproducing the
tables requires this window; see README for the reconciliation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .mixing import BasicMixing, RiskMixing
from .model import VARIANTS, StateVec, TransmissionProbs, make_spec

SIM_START = 2017.0
INTERVENTION_START = 2020.0
REPORT_END = 2031.0  # end of calendar year 2030

MU = 1.0 / 50.0
PROBS = TransmissionProbs(beta_mm=0.0008, beta_fm=0.0003, beta_mf=0.0004)


def georgia_basic():
    """3-group Georgia parameterisation; returns (spec, initial state at 2017)."""
    spec = make_spec(
        variant="basic",
        Pi=(3874.0, 65497.0, 63549.0),
        a=(94.7, 47.3, 48.5),
        delta=(1.0 / 200.0, 1.0 / 100.0, 1.0 / 50.0),
        epsilon=(0.089, 0.0003, 0.0),
        probs=PROBS,
        mu=MU,
        mixing_priors=BasicMixing(eta_msm=0.858, alpha_hetf=0.02),
    )
    y0 = StateVec.make(S=(123418.0, 3260101.0, 3138939.0),
                       I=(42000.0, 14700.0, 7000.0))
    return spec, y0


def georgia_risk():
    """4-group Georgia parameterisation; returns (spec, initial state at 2017)."""
    spec = make_spec(
        variant="risk",
        Pi=(3784.0, 3275.0, 62222.0, 63549.0),
        a=(94.7, 91.0, 43.7, 48.5),
        delta=(1.0 / 200.0, 1.0 / 50.0, 1.0 / 100.0, 1.0 / 50.0),
        epsilon=(0.089, 0.0061, 0.0, 0.0),
        probs=PROBS,
        mu=MU,
        mixing_priors=RiskMixing(eta_msm=0.858, eta_hetfh=0.071,
                                 alpha_hetfh=0.06, alpha_hetfl=0.01,
                                 xi_hetm=0.005),
    )
    y0 = StateVec.make(S=(123418.0, 243340.0, 3016762.0, 3138939.0),
                       I=(42000.0, 8820.0, 5880.0, 7000.0))
    return spec, y0


# Published 10-year (2020-2030 inclusive) cumulative incidence and, per
# intervention, infections prevented relative to baseline.  Keys are
# (group receiving PrEP, additional persons); values are dicts of published
# cells: incidence per reported group plus prevented counts.
TABLE_BASIC_BASELINE = {"total": 29019.0, "msm": 22824.0, "hetf": 4021.0,
                        "hetm": 2174.0}
TABLE_BASIC_INTERVENTIONS = {
    ("msm", 10000): {"total": 26613.0, "prevented": 2406.0},
    ("msm", 25000): {"total": 23200.0, "prevented": 5819.0},
    ("msm", 50000): {"total": 18026.0, "prevented": 10993.0},
    ("hetf", 10000): {"total": 29005.0, "prevented": 14.0},
    ("hetf", 25000): {"total": 28986.0, "prevented": 33.0},
    ("hetf", 50000): {"total": 28951.0, "prevented": 68.0},
    ("hetm", 10000): {"total": 29012.0, "prevented": 7.0},
    ("hetm", 25000): {"total": 28999.0, "prevented": 20.0},
    ("hetm", 50000): {"total": 28981.0, "prevented": 38.0},
}

TABLE_RISK_BASELINE = {"total": 29644.0, "msm": 22783.0, "hetf": 4132.0,
                       "hetm": 2729.0}
TABLE_RISK_INTERVENTIONS = {
    ("msm", 10000): {"total": 27242.0, "prevented": 2402.0},
    ("msm", 25000): {"total": 23838.0, "prevented": 5806.0},
    ("msm", 50000): {"total": 18667.0, "prevented": 10977.0},
    ("hetf_h", 10000): {"total": 29548.0, "prevented": 96.0},
    ("hetf_h", 25000): {"total": 29405.0, "prevented": 239.0},
    ("hetf_h", 50000): {"total": 29163.0, "prevented": 481.0},
    ("hetf_l", 10000): {"total": 29636.0, "prevented": 8.0},
    ("hetf_l", 25000): {"total": 29627.0, "prevented": 17.0},
    ("hetf_l", 50000): {"total": 29608.0, "prevented": 36.0},
    ("hetm", 10000): {"total": 29631.0, "prevented": 13.0},
    ("hetm", 25000): {"total": 29618.0, "prevented": 26.0},
    ("hetm", 50000): {"total": 29591.0, "prevented": 53.0},
}


@dataclass(frozen=True)
class Study:
    """Every per-variant fact of a published study: the preset (spec and
    2017 state), the baseline cells validate checks, the golden tables (the
    intervention table's keys are the study's arms, in table order), and the
    model groups each reported column sums."""

    preset: object
    baseline_cells: tuple
    baseline: dict
    interventions: dict
    reported: dict


STUDIES = {
    "basic": Study(georgia_basic, ("total", "msm", "hetf", "hetm"),
                   TABLE_BASIC_BASELINE, TABLE_BASIC_INTERVENTIONS,
                   {"msm": ("msm",), "hetf": ("hetf",), "hetm": ("hetm",)}),
    "risk": Study(georgia_risk, ("total",),
                  TABLE_RISK_BASELINE, TABLE_RISK_INTERVENTIONS,
                  {"msm": ("msm",), "hetf": ("hetf_h", "hetf_l"), "hetm": ("hetm",)}),
}


# Per variant, each reported column's model groups as state-order indices.
_COLUMNS = {variant: tuple((col, tuple(map(VARIANTS[variant].groups.index, groups)))
                           for col, groups in study.reported.items())
            for variant, study in STUDIES.items()}


def combine_reported(variant, per_group):
    """Per-model-group values (Python floats in state order) summed onto the
    reported columns (risk HETF strata combined), then the total over every
    group.  Each sum adds its terms left to right to 0.0, which is how
    np.sum adds fewer than 8 terms (and sum() adds numpy scalars)."""
    out = {col: reduce(add, map(per_group.__getitem__, idx), 0.0)
           for col, idx in _COLUMNS[variant]}
    out["total"] = reduce(add, per_group, 0.0)
    return out
