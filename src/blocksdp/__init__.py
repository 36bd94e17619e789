"""Low-rank block-coordinate solver for SDPs with identity diagonal blocks.

Minimizes tr(Q Y^T Y) over products of orthonormal-column blocks by
randomized exact block-coordinate minimization, with descent/gradient
identity diagnostics, iteration-count bounds for both sampling schemes, and
a dual-certificate check for global optimality of the lifted solution.
"""

from .analysis import (BoundInputs, CertificateReport, build_certificate_matrix,
                       certify_global, grad_norm_sq_fast, iteration_bound_importance,
                       iteration_bound_uniform, sdp_lift_check)
from .bcm import (LogRecord, NumericalError, RunReport, SolverConfig,
                  SolverState, bcm_step, init_state, sample_block, solve)
from .blockmat import (BlockSparseSym, ParseError, from_block_dict,
                       nuclear_norm, read_bsm, read_matrix_market, write_bsm)
from .problems import (EdgeListGraph, SyncInstance, generate_maxcut, generate_rotsync,
                       ground_truth_blocks, maxcut_to_Q, read_edgelist, read_instance,
                       sync_to_Q)
from .stiefel import (FactorPoint, block_minimize, compute_gcache, evaluate_cost,
                      feasibility_residual, is_orthonormal, project_stiefel,
                      random_stiefel, read_yfactor, riemannian_grad_oracle,
                      sym_coupling, write_yfactor)

__version__ = "0.1.0"
