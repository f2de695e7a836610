# The three correlation measures side by side.
#
# LQU (minimum local quantum uncertainty), IP (worst-case phase sensitivity)
# and DS (worst-case distinguishability from a local rotation) all vanish
# exactly on classical-quantum states and reach their maximum on the Bell
# state.  On the Werner family q*Bell + (1-q)*I/4 they interpolate smoothly,
# with LQU <= IP everywhere.

import numpy as np

from metrocorr import (
    correlation,
    ds_qubit_qudit,
    ip_qubit_qudit,
    lqu_general,
    lqu_qubit_qudit,
    make_bell,
    make_werner,
    random_cq,
)

LAM = np.pi / 4

print("Werner sweep (closed forms, spectrum {-1, 1}, DS rotation pi/4):")
print(f"{'q':>5} {'LQU':>10} {'IP':>10} {'DS':>10}")
for q in np.linspace(0.0, 1.0, 11):
    rho = make_werner(q)
    print(
        f"{q:5.2f} {lqu_qubit_qudit(rho).value:10.6f} "
        f"{ip_qubit_qudit(rho).value:10.6f} {ds_qubit_qudit(rho, LAM).value:10.6f}"
    )

bell = make_bell()
print("\nBell state: LQU =", f"{lqu_qubit_qudit(bell).value:.6f}",
      " IP =", f"{ip_qubit_qudit(bell).value:.6f}")

cq = random_cq((2, 2), np.random.default_rng(7))
print("Random CQ state: LQU =", f"{lqu_qubit_qudit(cq).value:.2e}",
      " IP =", f"{ip_qubit_qudit(cq).value:.2e}",
      " DS =", f"{ds_qubit_qudit(cq, LAM).value:.2e}")

# The multi-start optimizer over local observables reproduces the qubit
# closed form; its certificate is the optimal spin direction.
res = lqu_general(make_werner(0.5), [-1.0, 1.0])
print("\nOptimizer on Werner(0.5):", f"value {res.value:.6f},",
      f"{res.restarts_used} restarts, converged {res.converged}")
print("Closed form:             ", f"value {lqu_qubit_qudit(make_werner(0.5)).value:.6f}")

# On a qubit probe every two-point spectrum {a, b} has a closed form: the
# unit-spectrum value times ((b - a)/2)^2 for LQU, and for DS the half-width
# (b - a)/2 at any size, past pi/2 too.  general=True forces the optimizer.
rho = make_werner(0.5)
for label, args in (("LQU, spectrum {0.3, 2.0}", ("lqu", rho, [0.3, 2.0])),
                    ("DS, half-width 2.0", ("ds", rho, None, 2.0))):
    closed, searched = correlation(*args), correlation(*args, general=True)
    print(f"{label:<24}: closed form {closed.value:.6f} ({closed.restarts_used} restarts),",
          f"optimizer {searched.value:.6f} ({searched.restarts_used} restarts)")
