"""Similarity graphs from locally linear representation.

Builds sparse similarity graphs by reconstructing each sample from its
nearest-neighbor dictionary under a distance-weighted regularizer, with
spectral clustering and linear embedding pipelines on top, plus heat-kernel
and unregularized reconstruction baselines.

Importing the package limits OpenBLAS to one thread, unless the caller has
set a BLAS thread variable or numpy is already loaded. Every dense solve and
eigensolve here is small, so a second thread mostly spins, and the basis
LAPACK returns for a degenerate eigenspace would follow the core count.
With one thread a core stays free, and `sweep_run` forks workers for its
seeds to use it.
"""

import os
import sys

# OpenBLAS reads the limit when it loads: numpy's copy on the import below,
# SciPy's on first use. Once numpy has loaded, setting it would change only
# SciPy's copy and child processes, so the caller's counts are left alone.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(os.environ.get(name) for name in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
# Whether OpenBLAS loads with one thread: numpy is not loaded yet, and the first
# set variable of the three OpenBLAS reads, in its order, is 1. Only then does
# runs fork workers for a sweep's seeds; more threads would oversubscribe.
_BLAS_ONE_THREAD = "numpy" not in sys.modules and next(
    (os.environ[name] for name in _THREAD_VARIABLES[:3] if os.environ.get(name)), None
) == "1"

from .baselines import HeatKernelParams, heat_kernel_graph, lle_graph
from .data import (
    InputError,
    LabeledDataset,
    PcaModel,
    SyntheticSpec,
    load_csv,
    pca_fit,
    pca_transform,
    save_csv,
    synth_union_of_subspaces,
    train_test_split,
)
from .embedding import (
    generalized_sym_eig,
    load_projection,
    lpp_embed,
    nn_classify,
    npe_from_graph,
    save_projection,
    transform,
)
from .graphio import CSR, read_graph, read_labels, write_graph, write_labels
from .llr import (
    Dictionary,
    HyperParams,
    build_dictionary,
    build_llr_coefficients,
    build_llr_graph,
    distance_diagonal,
    solve_coefficients,
    sparsify,
    symmetrize,
)
from .metrics import (
    classification_accuracy,
    clustering_accuracy,
    contingency_table,
    hungarian,
    intra_class_edge_mass,
    nmi,
)
from .runs import (
    build_graph_by_method,
    classify_run,
    cluster_graph,
    evaluate_clustering,
    preset_spec,
    resolve_d_dict,
    sweep_run,
)
from .spectral import KMeansConfig, kmeans, normalized_laplacian_embedding, spectral_cluster, sym_eig

__version__ = "0.1.0"

# The names imported above, less the modules, and the version.
__all__ = ["__version__", *(name for name, value in globals().items()
                            if not name.startswith("_") and not isinstance(value, type(sys)))]
