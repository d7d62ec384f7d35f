"""Regenerate the F-KPP reference fronts in perfbench/reference.json.

    PYTHONPATH=src python3 perfbench/make_reference.py

Solves every fkpp operation of every workload, at both sizes, with the
explicit solver of the current checkout and stores the final front (and
any tail constants) under the key the output check looks up.  The
tolerances in the file are kept as they are.
"""

from __future__ import annotations

import json

import numpy as np

from vsbbm import fkpp
from vsbbm.genealogy import OffspringDistribution
from workloads import REFERENCE_PATH, SIZES, WORKLOADS, fkpp_key, load_reference, op_params


def law(offspring):
    if not offspring:
        return OffspringDistribution.binary()
    ks = [int(k) for k in offspring["ks"].split()]
    ps = [float(p) for p in offspring["ps"].split()]
    return OffspringDistribution(np.array(ks), np.array(ps))


def main():
    ref = load_reference()
    ref["fkpp"] = {}
    for spec in WORKLOADS.values():
        for op in spec["ops"]:
            if op["kind"] != "fkpp":
                continue
            for size in SIZES:
                params = op_params(op, size)
                t_end, dx = float(params["t_end"]), float(params["dx"])
                state = fkpp.solve_heaviside(law(op["offspring"]), t_end, dx=dx)
                entry = {"front": fkpp.front_position(state)}
                if "sigma_e_list" in params:
                    entry["tail_constants"] = {
                        str(float(s)): fkpp.tail_constant(law(op["offspring"]), float(s), t_end, dx=dx)[0]
                        for s in params["sigma_e_list"].split()
                    }
                ref["fkpp"][fkpp_key(op["offspring"], t_end, dx)] = entry
                print(fkpp_key(op["offspring"], t_end, dx), entry)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
