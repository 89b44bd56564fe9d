"""Group-structured HIV transmission models with PrEP spillover analysis.

Submodules: model (compartmental right-hand sides), mixing (contact-balance
closure), integrators, spillover (coverage sensitivities and NNT),
reproduction (next-generation matrices and stability probes), sobol
(polynomial-chaos variance decomposition), presets (Georgia study values),
scenarios (config-driven batch runner), cli.
"""

from .integrators import IntegratorConfig, Trajectory, annual_series, integrate
from .mixing import BasicMixing, RiskMixing, close_basic, close_risk
from .model import (GroupParams, ModelSpec, StateVec, TransmissionProbs,
                    contact_matrix, dfe, make_spec)
from .presets import georgia_basic, georgia_risk
from .reproduction import (NGMatrices, ReproductionNumber, build_ngm,
                           rc_closed_basic, rc_closed_risk, rc_numeric,
                           stability_probe)
from .scenarios import (RunReport, ScenarioConfig, default_config, load_config,
                        run_scenarios, validate_tables)
from .sobol import (PCExpansion, QuadratureGrid, SobolIndices, UncertainInput,
                    build_grid, fit_pce, sobol_indices, sobol_timeseries)
from .spillover import NNTResult, integrate_with_spillover, nnt

__version__ = "0.1.0"
