"""Bath-only dynamics: autocorrelations and the correlation time.

The single-site longitudinal correlation decays as flip-flops carry the
excitation away; its 1/e time is the tau_B that the decoupling results
are measured against. The collective transverse correlation dephases much
faster since the coupling only conserves total I_z. A two-spin bath shows
the mechanism in its purest form: one cosine at the flip-flop splitting.
"""

import numpy as np

from spinbath import bath_correlation, build_model, default_model
from spinbath.engine import model_tau_b

# two spins, one coupling: the excitation swaps back and forth
d = np.zeros((2, 2))
d[0, 1] = d[1, 0] = 0.21
pair = build_model(np.zeros(2), d)
t = np.linspace(0.0, 30.0, 7)
iz = bath_correlation(pair, t, which="iz", j=0)
print("two-spin bath, d = 0.21 rad/us")
print("  t_us   iz(t)   (1+cos(d t))/2")
for ti, vi in zip(t, iz):
    print(f"{ti:6.1f}  {vi:6.3f}  {(1 + np.cos(0.21 * ti)) / 2:6.3f}")

print()
model = default_model()
t = np.linspace(0.0, 400.0, 9)
iz_mean = bath_correlation(model, t, which="iz_mean")
ix = bath_correlation(model, t, which="ix_total")
print(f"default bath ({model.n_bath} spins)")
print("  t_us   mean iz   collective ix")
for ti, zi, xi in zip(t, iz_mean, ix):
    print(f"{ti:6.0f}   {zi:7.3f}   {xi:13.3f}")

est = model_tau_b(model)
print(f"tau_B (1/e of mean iz) = {est.value:.1f} us, reached={est.reached}")
