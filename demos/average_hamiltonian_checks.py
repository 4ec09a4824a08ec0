"""Leading-order averages in the toggling frame, checked numerically.

The four-pulse block removes the system-bath coupling at leading order;
what is left of H^(0) is exactly the bath-internal part. The truncated
two-term average then predicts the cycle propagator with an error that
shrinks as the cube of the couplings.
"""

import numpy as np

from spinbath import build_h_e, build_h_free, build_model, compile_pdd, verify_claim
from spinbath.avgham import average_hamiltonian, magnus_defect, residual_text, toggling_frames

rng = np.random.default_rng(4)
n = 4
b = rng.uniform(-0.05, 0.05, n)
d = np.zeros((n, n))
iu = np.triu_indices(n, 1)
d[iu] = rng.uniform(-0.05, 0.05, len(iu[0]))
model = build_model(b, d + d.T)
h_free = build_h_free(model)

tl = compile_pdd(15.0)
h0, h1 = average_hamiltonian(toggling_frames(tl, h_free))

print("four-pulse block, tau = 15 us")
print(f"|H_free|        = {np.linalg.norm(h_free):.4e}")
print(f"|H0|            = {np.linalg.norm(h0):.4e}")
print(f"|H0 - H_bath|   = {np.linalg.norm(h0 - build_h_e(model)):.4e}")
print(f"|H1|            = {np.linalg.norm(h1):.4e}")

print()
print("truncation defect |U_exact - exp(-i(H0+H1) tau_c)| vs coupling scale:")
for scale in (1.0, 0.5, 0.25):
    scaled = build_model(b * scale, (d + d.T) * scale)
    defect = magnus_defect(tl, build_h_free(scaled), scaled.ops)
    print(f"  couplings x{scale:<5g} -> {defect:.3e}")
print("(each halving should divide the defect by about 8)")

print()
print("registered closed-form claims:")
for cid in ("cpmg-flip-angle-zeroth-order",
            "cpmg2-error-sum-vanishes",
            "pdd-cancels-system-bath-coupling"):
    report = verify_claim(cid)
    mark = "PASS" if report["pass"] else "FAIL"
    print(f"  {mark} {cid}  {residual_text(report['residual'], '.2e')}")
