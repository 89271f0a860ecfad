#!/usr/bin/env python3
"""Solve the linear-shear invariant curve and compare it to the closed form.

The shear map x -> x + omega, y -> q y + eps sin(2 pi x) has the exact
invariant curve phi(x) = Im(c e^{2 pi i x}) with c = eps / (e^{2 pi i omega} - q),
which makes it the standard desk check for the graph-transform solver.
"""
import argparse
import os

import numpy as np

import perimap as pm


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=0.25)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--eps", type=float, default=0.01)
    ap.add_argument("--n-nodes", type=int, default=256)
    ap.add_argument("--out", default="out/shear")
    args = ap.parse_args()

    spec = pm.linear_shear(q=args.q)
    cfg = pm.CurveConfig(n_nodes=args.n_nodes, tol=1e-12)
    curve, report = pm.solve_invariant_curve(spec, args.omega, args.eps, cfg)

    c = args.eps / (np.exp(2j * np.pi * args.omega) - args.q)
    xs = np.linspace(0.0, 1.0, 4096, endpoint=False)
    exact = (c * np.exp(2j * np.pi * xs)).imag
    sup_err = float(np.max(np.abs(curve.eval(xs)[:, 0] - exact)))

    os.makedirs(args.out, exist_ok=True)
    pm.write_csv(os.path.join(args.out, "curve.csv"), *pm.curve_table(curve))
    pm.write_json(os.path.join(args.out, "report.json"),
                  pm.invariant_graph.curve_to_json_dict(curve, report))

    print(f"converged in {report.iterations} sweeps "
          f"(final update {report.final_update:.2e})")
    print(f"invariance residual   {report.invariance_residual:.2e}")
    print(f"sup error vs closed form  {sup_err:.2e}")
    print(f"phi(0) = {float(curve.eval(0.0)[0]):+.6f}  "
          f"(closed form {c.imag:+.6f})")
    print(f"artifacts in {args.out}/")


if __name__ == "__main__":
    main()
