"""Reference state factories and JSON (de)serialization of states and observables.

File schema for states::

    {"dims": [2, 2], "re": [[...], ...], "im": [[...], ...]}

with row-major entries.  Observables use the same schema for their matrix plus
an extra ``"spectrum"`` field listing the eigenvalues.
"""
from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadProbabilities,
    DimMismatch,
    NonOrthonormalBasis,
    OutOfRange,
    ParseError,
)
from .linalg import (
    DensityMatrix,
    Observable,
    haar_unitary,
    hermitian_part,
    pure_density,
    random_density,
    tensor,
    validate_density,
)

FAMILIES = ("bell", "werner", "cq", "product", "fig1", "pure-schmidt", "custom-file")


def make_bell() -> DensityMatrix:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return pure_density(v, (2, 2))


def make_cq(probabilities, basis, sigmas) -> DensityMatrix:
    """Classical-quantum state sum_i p_i |i><i|_A (x) sigma_B^i.

    ``basis`` holds the orthonormal A-side vectors as columns (or a list of
    vectors); ``sigmas`` is one B-side density matrix per probability.
    """
    p = np.asarray(probabilities, dtype=float).reshape(-1)
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise BadProbabilities(f"probabilities must be nonnegative and sum to 1, got {p}")
    p = np.maximum(p, 0.0)
    if isinstance(basis, (list, tuple)):
        b = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in basis])
    else:
        b = np.asarray(basis, dtype=complex)
        if b.ndim == 1:
            b = b.reshape(-1, 1)
    if b.shape[1] != p.size:
        raise DimMismatch(f"need {p.size} basis vectors, got {b.shape[1]}")
    gram = b.conj().T @ b
    if np.max(np.abs(gram - np.eye(p.size))) > 1e-9:
        raise NonOrthonormalBasis("A-side basis vectors are not orthonormal")
    sig_mats = []
    d_b = None
    for s in sigmas:
        m = s.mat if isinstance(s, DensityMatrix) else np.asarray(s, dtype=complex)
        if d_b is None:
            d_b = m.shape[0]
        if m.shape != (d_b, d_b):
            raise DimMismatch("all B-side states must share one dimension")
        sig_mats.append(m)
    if len(sig_mats) != p.size:
        raise DimMismatch(f"need {p.size} B-side states, got {len(sig_mats)}")
    d_a = b.shape[0]
    out = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for pi, col, sig in zip(p, b.T, sig_mats):
        proj = np.outer(col, col.conj())
        out += pi * tensor(proj, sig)
    return validate_density(hermitian_part(out), (d_a, d_b))


def make_werner(q: float, d_b: int = 2) -> DensityMatrix:
    """Mixture q * Bell + (1 - q) * I/(2 d_B), a smooth classical-to-quantum sweep."""
    if not 0.0 <= q <= 1.0:
        raise OutOfRange(f"mixing parameter must lie in [0, 1], got {q}")
    d = 2 * d_b
    v = np.zeros(d, dtype=complex)
    v[0] = 1.0 / np.sqrt(2.0)
    v[d_b + 1] = 1.0 / np.sqrt(2.0)
    bell = np.outer(v, v.conj())
    mat = q * bell + (1.0 - q) * np.eye(d) / d
    return validate_density(mat, (2, d_b))


def make_fig1_state(p: float) -> DensityMatrix:
    """Single-qubit interpolation (1-p) I/2 + p |+><+| between fully mixed and pure."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"purity parameter must lie in [0, 1], got {p}")
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    mat = (1.0 - p) * np.eye(2) / 2.0 + p * np.outer(plus, plus.conj())
    return DensityMatrix((2,), mat)


def make_schmidt_pure(schmidt_probs, dims: Sequence[int]) -> DensityMatrix:
    """Bipartite pure state with the given Schmidt probabilities (computational bases)."""
    s = np.asarray(schmidt_probs, dtype=float).reshape(-1)
    if np.any(s < -1e-12) or abs(s.sum() - 1.0) > 1e-9:
        raise BadProbabilities("Schmidt probabilities must be nonnegative and sum to 1")
    d_a, d_b = int(dims[0]), int(dims[1])
    if s.size > min(d_a, d_b):
        raise DimMismatch(f"at most min(dims) = {min(d_a, d_b)} Schmidt terms, got {s.size}")
    v = np.zeros(d_a * d_b, dtype=complex)
    for i, si in enumerate(np.maximum(s, 0.0)):
        v[i * d_b + i] = np.sqrt(si)
    return pure_density(v, (d_a, d_b))


def random_cq(dims: Sequence[int], rng: np.random.Generator) -> DensityMatrix:
    """Random classical-quantum state: Haar basis on A, Ginibre states on B."""
    d_a, d_b = int(dims[0]), int(dims[1])
    p = rng.dirichlet(np.ones(d_a))
    basis = haar_unitary(d_a, rng)
    sigmas = [random_density((d_b,), d_b, rng) for _ in range(d_a)]
    return make_cq(p, basis, sigmas)


# ---------------------------------------------------------------------------
# file format


def _matrix_to_obj(mat: np.ndarray) -> dict:
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def _matrix_from_obj(obj: Mapping, path: str) -> np.ndarray:
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: missing or malformed 're'/'im' fields") from exc
    if re.ndim != 2 or re.shape != im.shape or re.shape[0] != re.shape[1]:
        raise ParseError(f"{path}: 're'/'im' must be equal square 2-d arrays")
    return re + 1j * im


def save_state(rho: DensityMatrix, path) -> None:
    obj = {"dims": list(rho.dims)}
    obj.update(_matrix_to_obj(rho.mat))
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def load_state(path) -> DensityMatrix:
    """Load and validate a density matrix; raises ParseError / ValidationError."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top-level JSON object expected")
    dims = obj.get("dims")
    if (
        not isinstance(dims, list)
        or not dims
        or not all(isinstance(d, int) and d > 0 for d in dims)
    ):
        raise ParseError(f"{path}: 'dims' must be a non-empty list of positive integers")
    mat = _matrix_from_obj(obj, str(path))
    if mat.shape[0] != int(np.prod(dims)):
        raise ParseError(f"{path}: matrix side {mat.shape[0]} != product(dims)")
    return validate_density(mat, dims)


def save_observable(obs: Observable, path) -> None:
    obj = {"dim": obs.dim, "spectrum": obs.spectrum.tolist()}
    obj.update(_matrix_to_obj(obs.matrix))
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def load_observable(path) -> Observable:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict) or "spectrum" not in obj:
        raise ParseError(f"{path}: observable files need a 'spectrum' field")
    mat = _matrix_from_obj(obj, str(path))
    obs = Observable.from_matrix(mat)
    declared = np.sort(np.asarray(obj["spectrum"], dtype=float))
    if declared.size != obs.dim or np.max(np.abs(declared - obs.spectrum)) > 1e-8:
        raise ParseError(f"{path}: declared spectrum does not match the stored matrix")
    return obs


# ---------------------------------------------------------------------------
# parametrized families


def build_state(family: str, parameters: Mapping | None = None, dims=None) -> DensityMatrix:
    params = dict(parameters or {})
    if family == "bell":
        return make_bell()
    if family == "werner":
        return make_werner(float(params["q"]), int(params.get("d_b", 2)))
    if family == "fig1":
        return make_fig1_state(float(params["p"]))
    if family == "cq":
        return make_cq(params["probabilities"], params["basis"], params["sigmas"])
    if family == "product":
        a = params["state_a"]
        b = params["state_b"]
        a = a if isinstance(a, DensityMatrix) else load_state(a)
        b = b if isinstance(b, DensityMatrix) else load_state(b)
        return DensityMatrix(a.dims + b.dims, tensor(a.mat, b.mat))
    if family == "pure-schmidt":
        if dims is None:
            raise DimMismatch("pure-schmidt needs explicit dims")
        return make_schmidt_pure(params["probs"], dims)
    if family == "custom-file":
        return load_state(params["path"])
    raise OutOfRange(f"unknown state family {family!r}; known: {', '.join(FAMILIES)}")
