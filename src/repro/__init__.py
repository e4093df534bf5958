"""repro — differentiable delayed-feedback reservoir (DFR) computing.

A faithful, self-contained reproduction of

    Ikeda, Awano & Sato, "Fast Parameter Optimization of Delayed Feedback
    Reservoir with Backpropagation and Gradient Descent", DATE 2024 /
    ACM TECS (arXiv:2504.12363),

including every substrate the paper builds on: modular/digital/analog DFR
reservoirs, the dot-product reservoir representation (DPRR), analytic
backpropagation with truncation, the SGD training protocol, the
grid-search baseline, ridge readouts, the 12-dataset benchmark suite
(synthetic generators), storage accounting, and hardware-oriented
fixed-point utilities.

Quickstart
----------
>>> from repro import DFRClassifier, load_dataset
>>> data = load_dataset("JPVOW", seed=0)
>>> clf = DFRClassifier(seed=0).fit(data.u_train, data.y_train)
>>> print(f"A={clf.A_:.4f} B={clf.B_:.4f} beta={clf.beta_:g} "
...       f"acc={clf.score(data.u_test, data.y_test):.3f}")
"""

from repro.core import (
    BackpropEngine,
    BackpropTrainer,
    DFRClassifier,
    DFRFeatureExtractor,
    GridSearch,
    RecursiveGridSearch,
    TrainerConfig,
    TrainingResult,
    evaluate_fixed_params,
)
from repro.data import (
    LoadedDataset,
    dataset_keys,
    get_spec,
    load_dataset,
    make_toy_dataset,
)
from repro.memory import naive_storage, truncated_storage
from repro.readout import (
    RidgeModel,
    SoftmaxReadout,
    accuracy_score,
    fit_ridge,
    select_beta,
)
from repro.backend import (
    ArrayBackend,
    BackendUnavailableError,
    available_backends,
    resolve_backend,
)
from repro.representation import DPRR, LastState, MeanState, SubsampledStates
from repro.reservoir import (
    AnalogMGDFR,
    DigitalMGDFR,
    InputMask,
    MackeyGlass,
    ModularDFR,
    Tanh,
    get_nonlinearity,
)
from repro.utils.blas import pin_blas_threads
from repro.utils.heap import set_heap_policy

# after the imports above have loaded NumPy's and SciPy's OpenBLAS
pin_blas_threads()
set_heap_policy()

__version__ = "1.0.0"

__all__ = [
    "BackpropEngine",
    "BackpropTrainer",
    "DFRClassifier",
    "DFRFeatureExtractor",
    "GridSearch",
    "RecursiveGridSearch",
    "TrainerConfig",
    "TrainingResult",
    "evaluate_fixed_params",
    "LoadedDataset",
    "dataset_keys",
    "get_spec",
    "load_dataset",
    "make_toy_dataset",
    "naive_storage",
    "truncated_storage",
    "RidgeModel",
    "SoftmaxReadout",
    "accuracy_score",
    "fit_ridge",
    "select_beta",
    "DPRR",
    "LastState",
    "MeanState",
    "SubsampledStates",
    "AnalogMGDFR",
    "DigitalMGDFR",
    "InputMask",
    "MackeyGlass",
    "ModularDFR",
    "Tanh",
    "get_nonlinearity",
    "ArrayBackend",
    "BackendUnavailableError",
    "available_backends",
    "resolve_backend",
    "__version__",
]
