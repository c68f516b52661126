import os
import re
import subprocess
import sys

import jetgauge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(jetgauge.__file__)))


def test_convergence_study_orders():
    """RK4 ~4, Bianchi residual ~2 and field-strength stencil ~4 under step
    halving, as printed by scripts/convergence_study.py."""
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "convergence_study.py")],
        capture_output=True, text=True, env=env, check=True,
    )
    orders = {}
    study = None
    for line in proc.stdout.splitlines():
        if not line.startswith(" "):
            study = line.split()[0]
            orders[study] = []
        elif "order" in line:
            orders[study].append(float(re.search(r"order\s+(\S+)", line).group(1)))
    assert list(orders) == ["RK4", "Bianchi", "field-strength"]
    bounds = {"RK4": (3.5, 4.5), "Bianchi": (1.5, 2.5), "field-strength": (3.5, 4.5)}
    for study, (lo, hi) in bounds.items():
        assert len(orders[study]) == 3
        assert all(lo <= p <= hi for p in orders[study]), (study, orders[study])
