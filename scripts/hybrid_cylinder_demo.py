#!/usr/bin/env python3
"""Full hybrid pipeline on the forced polar system with a radial jump.

Analyzes the reduced cycle (fixed point, Poincare derivative, adapted norm),
solves the T_g-periodic invariant curve of the forced section map, and emits
the cylinder data: dense samples of forced trajectories started on the curve,
jumps included.
"""
import argparse
import os

import perimap as pm
from perimap import cycle_analysis


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa", type=float, default=0.5)
    ap.add_argument("--T-g", type=float, default=0.8)
    ap.add_argument("--eps", type=float, default=0.01)
    ap.add_argument("--n-nodes", type=int, default=128)
    ap.add_argument("--n-trajectories", type=int, default=8)
    ap.add_argument("--out", default="out/hybrid")
    args = ap.parse_args()

    sys_ = pm.polar_hybrid(kappa=args.kappa, T_g=args.T_g)
    handle = pm.prepare_handle(sys_)
    report = cycle_analysis.analyze_cycle(handle)
    print(f"cycle fixed point u* = {report.u_star}  "
          f"(residual {report.fixed_point_residual:.2e})")
    print(f"P'(u*) = {report.jacobian.ravel()}  "
          f"spectral radius {report.spectral_radius:.6f}")
    print(f"transversality grad H . X = {report.transversality:.4f}")

    wrapped = pm.extract_alpha_beta(handle)
    cfg = pm.CurveConfig(n_nodes=args.n_nodes, tol=1e-11)
    curve, solve_report = pm.solve_invariant_curve(wrapped, 1.0, args.eps, cfg)
    print(f"curve solved in {solve_report.iterations} sweeps, "
          f"residual {solve_report.invariance_residual:.2e}, "
          f"sup {curve.sup_norm():.3e}")

    os.makedirs(args.out, exist_ok=True)
    pm.write_csv(os.path.join(args.out, "curve.csv"), *pm.curve_table(curve))
    pm.write_json(os.path.join(args.out, "cycle_report.json"),
                  report.to_json_dict())

    # trajectories started on the invariant curve trace the forced cylinder
    pm.write_csv(os.path.join(args.out, "cylinder.csv"),
                 *pm.cylinder_table(handle, curve, args.eps,
                                    args.n_trajectories))
    print(f"artifacts in {args.out}/")


if __name__ == "__main__":
    main()
