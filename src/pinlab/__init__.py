"""pinlab: a numerical laboratory for pinned distance sets.

Builds fractal sets of prescribed dimension with their natural Frostman
measures, evaluates distance-type phase functions with their degeneracy
checks, forms mollified pinned and chain measures with Cauchy-Schwarz
support bounds, counts hinge/chain/edge-map configurations, and verifies the
harmonic-analysis inputs (dyadic frequency partition, energy integrals,
averaging-operator Sobolev ratios, oscillatory decay) on FFT grids.
"""

__version__ = "0.1.0"

from .errors import (BudgetError, ConfigError, CoverageError, DomainError,
                     PinlabError, RegressionMismatch, ResolutionError)
from .fractals import (CellFractal, FrostmanMeasure, ball_mass,
                       build_product_cantor, build_subdivision_fractal,
                       circle_measure, frostman_exponent_fit, natural_measure,
                       sample_points, save_cells, save_measure,
                       segment_measure, uniform_grid_measure)
from .phases import (CutoffPair, PhaseFunction, build_cutoffs,
                     monge_ampere_det, nondegeneracy_scan, phase_function)
from .pinned import (ChainDensity, Mollifier, chain_density, cs_lower_bound,
                     default_t_grid, density_mass, l2_energy, pinned_density,
                     support_measure)
from .configs import (ConfigCount, EdgeMap, chain_tuple_count,
                      config_count, hinge_count, hinge_count_integrated,
                      pinned_lift, save_edge_map, star_edge_map)
from .harmonic import (DecayFit, EnergyResult, LPPartition, energy_integral,
                       freq_norms, l2_norm, oscillatory_G, radon_sobolev_ratio,
                       random_band_limited, riesz_constant,
                       shell_profile_verdict, sobolev_norm,
                       surface_measure_decay)
from .experiments import (ProbeReport, SweepReport, exceptional_probe,
                          load_config, sweep_threshold, verdict_from_series)
