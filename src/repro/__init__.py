"""LCCS-LSH: Locality-Sensitive Hashing based on Longest Circular Co-Substring.

A from-scratch reproduction of Lei et al., SIGMOD 2020.  The public API
re-exports the core schemes, the CSA data structure, every baseline the
paper compares against, the LSH families, and the data/evaluation
utilities used by the benchmark suite.
"""

from repro.base import ANNIndex
from repro.core import (
    CircularShiftArray,
    DynamicLCCSLSH,
    LCCSLSH,
    NaiveCSA,
    lccs_length,
)
from repro.data import Dataset, compute_ground_truth, dataset_names, load_dataset
from repro.hashes import (
    BitSamplingFamily,
    CauchyProjectionFamily,
    CrossPolytopeFamily,
    HashFamily,
    HyperplaneFamily,
    MinHashFamily,
    RandomProjectionFamily,
    make_family,
)

__version__ = "1.2.0"

from repro.serve import (  # noqa: E402  (needs __version__ for manifests)
    ANNService,
    BundleError,
    ConcurrentIndex,
    IndexSpec,
    QueryCache,
    load_index,
    save_index,
)

__all__ = [
    "ANNIndex",
    "ANNService",
    "BitSamplingFamily",
    "BundleError",
    "ConcurrentIndex",
    "IndexSpec",
    "QueryCache",
    "load_index",
    "save_index",
    "CauchyProjectionFamily",
    "CircularShiftArray",
    "DynamicLCCSLSH",
    "NaiveCSA",
    "CrossPolytopeFamily",
    "Dataset",
    "HashFamily",
    "HyperplaneFamily",
    "LCCSLSH",
    "MinHashFamily",
    "RandomProjectionFamily",
    "__version__",
    "compute_ground_truth",
    "dataset_names",
    "lccs_length",
    "load_dataset",
    "make_family",
]
