"""Reference computations for the benchmark's correctness checks.

Every oracle is built from the raw definition with its own ``numpy.linalg``
calls and shares no code with ``metrocorr``, so a fault in the package cannot
vouch for itself.  Where the package uses golden-section search (the Chernoff
``s``-search) the oracle uses bisection on the derivative instead.

Run ``python3 bench/oracles.py`` for the self-test against known values.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

PAULIS = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
SUPPORT = 1e-14
PAIR = 1e-12
# eigenvalues below this are rounding noise of an exact zero; their square
# roots (~3e-9 for 1e-17) would otherwise bias skew information by 1e-8
NOISE = 1e-13


def hermitian_function(m: np.ndarray, fn) -> np.ndarray:
    """fn applied to the eigenvalues of the Hermitian part of m."""
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * fn(w)) @ v.conj().T


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    return hermitian_function(m, lambda w: np.sqrt(np.where(w > NOISE, w, 0.0)))


def local(op: np.ndarray, d_b: int) -> np.ndarray:
    """op (x) identity on the second factor."""
    return np.kron(op, np.eye(d_b))


def reduced_a(mat: np.ndarray, dims) -> np.ndarray:
    d_a, d_b = dims
    return np.einsum("ajbj->ab", mat.reshape(d_a, d_b, d_a, d_b))


def haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ginibre_state(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def cq_state(dims, rng: np.random.Generator) -> np.ndarray:
    """sum_i p_i |u_i><u_i| (x) sigma_i with a Haar basis {u_i}."""
    d_a, d_b = dims
    p = rng.dirichlet(np.ones(d_a))
    u = haar(d_a, rng)
    out = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for i in range(d_a):
        proj = np.outer(u[:, i], u[:, i].conj())
        out += p[i] * np.kron(proj, ginibre_state(d_b, d_b, rng))
    return out


def generator(spectrum, u: np.ndarray) -> np.ndarray:
    return (u * np.asarray(spectrum, dtype=float)) @ u.conj().T


def skew(rho: np.ndarray, k: np.ndarray) -> float:
    """Wigner-Yanase skew information tr[rho K^2] - tr[sqrt(rho) K sqrt(rho) K]."""
    r = psd_sqrt(rho)
    return float(np.trace(rho @ k @ k).real - np.trace(r @ k @ r @ k).real)


def qfi_quarter(rho: np.ndarray, k: np.ndarray) -> float:
    """F(rho, K)/4 = (1/2) sum_kl (w_k - w_l)^2 / (w_k + w_l) |K_kl|^2."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    kt = v.conj().T @ k @ v
    s = w[:, None] + w[None, :]
    num = (w[:, None] - w[None, :]) ** 2
    coeff = np.divide(num, s, out=np.zeros_like(s), where=s > PAIR)
    return 0.5 * float(np.sum(coeff * np.abs(kt) ** 2))


def pauli_w(rho: np.ndarray, dims) -> np.ndarray:
    """W_ij = tr[sqrt(rho) (s_i x I) sqrt(rho) (s_j x I)]."""
    r = psd_sqrt(rho)
    rs = [r @ local(p, dims[1]) for p in PAULIS]
    return np.array([[np.trace(a @ b).real for b in rs] for a in rs])


def pauli_m(rho: np.ndarray, dims) -> np.ndarray:
    """M with n.M.n = F(rho, (n.s) x I)/4, by polarisation of qfi_quarter."""
    ops = [local(p, dims[1]) for p in PAULIS]
    m = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            plus = qfi_quarter(rho, ops[i] + ops[j])
            minus = qfi_quarter(rho, ops[i] - ops[j])
            m[i, j] = 0.25 * (plus - minus)
    return m


def lqu_qubit(rho: np.ndarray, dims) -> float:
    """Unit-spectrum LQU of a qubit-qudit state: 1 - lambda_max(W)."""
    return 1.0 - float(np.linalg.eigvalsh(pauli_w(rho, dims))[-1])


def ip_qubit(rho: np.ndarray, dims) -> float:
    """Unit-spectrum interferometric power of a qubit-qudit state: lambda_min(M)."""
    return float(np.linalg.eigvalsh(pauli_m(rho, dims))[0])


def rotate(rho: np.ndarray, k_local: np.ndarray, d_b: int) -> np.ndarray:
    """exp(iK) rho exp(-iK) for a local generator K on the first factor."""
    r = local(hermitian_function(k_local, lambda w: np.exp(1j * w)), d_b)
    return r @ rho @ r.conj().T


def chernoff_q(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """min over s in [0, 1] of tr[rho1^s rho2^(1-s)], support convention.

    g(s) = sum_ij a_i^s b_j^(1-s) |<i|j>|^2 is convex; its minimum is found by
    bisection on g'(s), with the endpoints taken as support projectors.
    """
    w1, v1 = np.linalg.eigh(rho1)
    w2, v2 = np.linalg.eigh(rho2)
    m1, m2 = w1 > SUPPORT, w2 > SUPPORT
    ov = np.abs(v1[:, m1].conj().T @ v2[:, m2]) ** 2
    la, lb = np.log(w1[m1]), np.log(w2[m2])
    d = (la[:, None] - lb[None, :]).ravel()
    c = (ov * np.exp(lb)[None, :]).ravel()

    def g(s):
        return float(c @ np.exp(s * d))

    def slope(s):
        return float((c * d) @ np.exp(s * d))

    if slope(0.0) >= 0.0:
        return g(0.0)
    if slope(1.0) <= 0.0:
        return g(1.0)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return min(g(0.5 * (lo + hi)), g(0.0), g(1.0))


def uhlmann_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """(tr |sqrt(rho1) sqrt(rho2)|)^2."""
    sv = np.linalg.svd(psd_sqrt(rho1) @ psd_sqrt(rho2), compute_uv=False)
    return float(np.sum(sv) ** 2)


def helstrom_pure(fidelity: float, n: int) -> float:
    """Minimum error for n copies of two pure states with overlap |<a|b>|^2.

    For mixed states the same expression with the Uhlmann fidelity is the
    Fuchs-van de Graaf lower bound."""
    return 0.5 * (1.0 - math.sqrt(max(1.0 - fidelity**n, 0.0)))


def ds_pure_permutation(psi: np.ndarray, dims, spectrum) -> float:
    """DS of a pure state: 1 - max over assignments of spectrum phases to
    Schmidt probabilities of |sum_i p_i exp(i lambda_pi(i))|^2."""
    probs = np.sort(np.clip(np.linalg.eigvalsh(reduced_a(psi, dims)), 0.0, None))[::-1]
    phases = np.exp(1j * np.asarray(spectrum, dtype=float))
    best = max(
        abs(np.dot(probs, phases[list(p)])) ** 2
        for p in itertools.permutations(range(len(phases)))
    )
    return 1.0 - best


def bell() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v.conj())


def werner(q: float) -> np.ndarray:
    return q * bell() + (1.0 - q) * np.eye(4) / 4.0


def self_test() -> list[str]:
    """Check the oracles against known values; returns the failures."""
    failures = []

    def expect(label, got, want, tol):
        if not abs(got - want) <= tol:
            failures.append(f"oracle self-test {label}: {got!r} != {want!r}")

    rho = bell()
    expect("Bell LQU", lqu_qubit(rho, (2, 2)), 1.0, 1e-12)
    expect("Bell IP", ip_qubit(rho, (2, 2)), 1.0, 1e-12)
    rho = werner(0.5)
    expect("Werner LQU", lqu_qubit(rho, (2, 2)), (3.0 - math.sqrt(5.0)) / 4.0, 1e-12)
    expect("Werner IP", ip_qubit(rho, (2, 2)), 1.0 / 3.0, 1e-12)
    for p in (0.0, 0.3, 0.9, 1.0):
        plus = np.full((2, 2), 0.5, dtype=complex)
        fig1 = (1.0 - p) * np.eye(2) / 2.0 + p * plus
        expect(f"fig1 skew p={p}", skew(fig1, PAULIS[2]), 1.0 - math.sqrt(1.0 - p * p), 1e-12)
    # Bell against its rotation exp(i lam Z) x I: overlap cos^2(lam), Q equals
    # the pure-state fidelity, DS = sin^2(lam) = unit LQU * sin^2(lam).
    lam = 0.7
    other = rotate(bell(), lam * PAULIS[2], 2)
    expect("Bell Chernoff", chernoff_q(bell(), other), math.cos(lam) ** 2, 1e-12)
    expect("Bell fidelity", uhlmann_fidelity(bell(), other), math.cos(lam) ** 2, 1e-12)
    expect("Bell DS", ds_pure_permutation(bell(), (2, 2), [-lam, lam]), math.sin(lam) ** 2, 1e-12)
    # Helstrom n = 1 for pure states: trace-norm definition by eigvalsh
    err1 = 0.25 * (2.0 - np.sum(np.abs(np.linalg.eigvalsh(bell() - other))))
    expect("pure Helstrom n=1", helstrom_pure(math.cos(lam) ** 2, 1), err1, 1e-12)
    # commuting states: Chernoff is the classical min_s sum p^s q^(1-s)
    p, q = np.array([0.7, 0.3]), np.array([0.2, 0.8])
    s = np.linspace(0.0, 1.0, 200001)
    classical = float(np.min((p[:, None] ** s * q[:, None] ** (1 - s)).sum(axis=0)))
    expect("classical Chernoff", chernoff_q(np.diag(p), np.diag(q)), classical, 1e-9)
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(line)
    print("oracle self-test: " + ("FAIL" if problems else "PASS"))
    raise SystemExit(1 if problems else 0)
