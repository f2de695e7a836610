import json

import numpy as np
import pytest

from metrocorr.errors import (
    BadProbabilities,
    NonOrthonormalBasis,
    NotPositive,
    OutOfRange,
    ParseError,
)
from metrocorr.linalg import PAULI_Z, embed, random_density, tensor, Observable
from metrocorr.states import (
    load_observable,
    load_state,
    make_bell,
    make_cq,
    make_fig1_state,
    make_schmidt_pure,
    make_werner,
    random_cq,
    save_observable,
    save_state,
)
from metrocorr.uncertainty import lqu_qubit_qudit


def test_bell_is_pure_with_mixed_marginal():
    bell = make_bell()
    assert abs(bell.purity() - 1.0) < 1e-12
    from metrocorr.linalg import partial_trace

    np.testing.assert_allclose(partial_trace(bell, 0).mat, np.eye(2) / 2, atol=1e-12)


def test_bell_eigenstate_of_zz():
    bell = make_bell()
    zz = tensor(PAULI_Z, PAULI_Z)
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    np.testing.assert_allclose(zz @ v, v, atol=1e-14)
    assert abs(np.real(np.trace(bell.mat @ zz)) - 1.0) < 1e-12


def test_cq_trivial_probability_is_product():
    rng = np.random.default_rng(0)
    sigma = random_density([3], 3, rng)
    cq = make_cq([1.0, 0.0], np.eye(2), [sigma, sigma])
    expect = tensor(np.diag([1.0, 0.0]), sigma.mat)
    np.testing.assert_allclose(cq.mat, expect, atol=1e-12)


def test_cq_classically_correlated():
    zero = np.diag([1.0, 0.0])
    one = np.diag([0.0, 1.0])
    cq = make_cq([0.5, 0.5], np.eye(2), [zero, one])
    np.testing.assert_allclose(cq.mat, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)


def test_cq_states_have_zero_lqu():
    rng = np.random.default_rng(42)
    for _ in range(10):
        cq = random_cq((2, 3), rng)
        assert lqu_qubit_qudit(cq).value <= 1e-10


def test_cq_invariant_under_basis_measurement():
    # dephasing in the A basis used to build the state leaves it unchanged
    rng = np.random.default_rng(7)
    for _ in range(5):
        from metrocorr.linalg import haar_unitary

        basis = haar_unitary(2, rng)
        cq = make_cq(
            rng.dirichlet([1, 1]), basis, [random_density([2], 2, rng) for _ in range(2)]
        )
        dephased = np.zeros_like(cq.mat)
        for col in basis.T:
            proj = embed(np.outer(col, col.conj()), cq.dims, 0)
            dephased = dephased + proj @ cq.mat @ proj
        assert np.max(np.abs(dephased - cq.mat)) < 1e-10


def test_cq_validation_errors():
    with pytest.raises(BadProbabilities):
        make_cq([0.7, 0.7], np.eye(2), [np.eye(2) / 2, np.eye(2) / 2])
    bad_basis = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonOrthonormalBasis):
        make_cq([0.5, 0.5], bad_basis, [np.eye(2) / 2, np.eye(2) / 2])


def test_werner_extremes():
    np.testing.assert_allclose(make_werner(0.0).mat, np.eye(4) / 4, atol=1e-14)
    np.testing.assert_allclose(make_werner(1.0).mat, make_bell().mat, atol=1e-14)
    assert lqu_qubit_qudit(make_werner(0.0)).value < 1e-12
    assert abs(lqu_qubit_qudit(make_werner(1.0)).value - 1.0) < 1e-12
    with pytest.raises(OutOfRange):
        make_werner(1.2)


def test_werner_midpoint_against_direction_grid():
    # independent oracle: minimize the raw skew information over sampled directions
    from helpers import fibonacci_sphere, skew_on_directions

    rho = make_werner(0.5)
    grid_val = float(skew_on_directions(rho, fibonacci_sphere(4000)).min())
    assert abs(lqu_qubit_qudit(rho).value - grid_val) < 1e-4


def test_fig1_extremes_and_spectrum():
    np.testing.assert_allclose(make_fig1_state(0.0).mat, np.eye(2) / 2, atol=1e-14)
    plus = np.array([1, 1]) / np.sqrt(2)
    np.testing.assert_allclose(make_fig1_state(1.0).mat, np.outer(plus, plus), atol=1e-14)
    for p in (0.2, 0.5, 0.9):
        w = np.sort(np.linalg.eigvalsh(make_fig1_state(p).mat))
        np.testing.assert_allclose(w, [(1 - p) / 2, (1 + p) / 2], atol=1e-12)
    with pytest.raises(OutOfRange):
        make_fig1_state(-0.1)


def test_schmidt_pure_factory():
    psi = make_schmidt_pure([0.5, 0.5], (2, 2))
    np.testing.assert_allclose(psi.mat, make_bell().mat, atol=1e-14)


def test_state_file_roundtrip(tmp_path):
    path = tmp_path / "bell.json"
    bell = make_bell()
    save_state(bell, path)
    loaded = load_state(path)
    assert loaded.dims == (2, 2)
    assert np.max(np.abs(loaded.mat - bell.mat)) < 1e-12


def test_state_file_malformed_dims(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": "nope", "re": [[1]], "im": [[0]]}))
    with pytest.raises(ParseError):
        load_state(path)


def test_state_file_not_psd(tmp_path):
    path = tmp_path / "npsd.json"
    mat = np.diag([1.1, -0.1])
    path.write_text(
        json.dumps({"dims": [2], "re": mat.tolist(), "im": np.zeros((2, 2)).tolist()})
    )
    with pytest.raises(NotPositive):
        load_state(path)


def test_state_file_not_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_state(path)


def test_observable_file_roundtrip(tmp_path):
    path = tmp_path / "obs.json"
    obs = Observable.pauli([0.0, 1.0, 1.0])
    save_observable(obs, path)
    loaded = load_observable(path)
    np.testing.assert_allclose(loaded.spectrum, obs.spectrum, atol=1e-12)
    np.testing.assert_allclose(loaded.matrix, obs.matrix, atol=1e-12)


def test_observable_file_spectrum_mismatch(tmp_path):
    path = tmp_path / "obs.json"
    obs = Observable.pauli([0.0, 0.0, 1.0])
    save_observable(obs, path)
    data = json.loads(path.read_text())
    data["spectrum"] = [-2.0, 2.0]
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        load_observable(path)


def test_factories_produce_valid_states():
    from metrocorr.linalg import validate_density

    rng = np.random.default_rng(3)
    for rho in (
        make_bell(),
        make_werner(0.37),
        make_fig1_state(0.8),
        random_cq((2, 2), rng),
        make_schmidt_pure([0.1, 0.9], (2, 3)),
    ):
        validate_density(rho.mat, rho.dims)
