"""Asserts every paper shape that EXPERIMENTS.md marks ✔, over the grid
reports of the figure files in this directory: one named check per row.

Run the figure grids first (each writes <name>.report.jsonl beside its
file), then:

    python3 scenarios/figures/check_shapes.py [DIR]

Prints one PASS/FAIL line per check and exits 1 if any check fails.
"""

import json
import pathlib
import sys

DIR = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent)
BASELINES = ("dpois", "mrepl", "dba")


def rows(name):
    """The report's rows, each with its axis values parsed from the cell id."""
    out = []
    for line in (DIR / f"{name}.report.jsonl").read_text().splitlines():
        row = json.loads(line)
        row["axes"] = dict(p.split("=", 1) if "=" in p else ("cell", p) for p in row["cell"].split("+"))
        out.append(row)
    return out


def cell(report, **axes):
    """The one row whose axes include `axes`."""
    found = [r for r in report if all(r["axes"].get(k) == v for k, v in axes.items())]
    assert len(found) == 1, f"{axes}: {len(found)} rows"
    return found[0]


def collapois_leads(name, algos, alphas):
    """CollaPois reaches >= 99% Attack SR and no baseline attack beats it."""
    report = rows(name)
    for algo in algos:
        for alpha in alphas:
            sr = {r["axes"]["attack"]: r["attack_sr"] for r in report if r["axes"]["algo"] == algo and r["axes"]["alpha"] == alpha}
            assert sr["collapois"] >= 0.99, f"{algo} alpha={alpha}: CollaPois SR {sr['collapois']:.4f}"
            best = max(BASELINES, key=sr.get)
            assert sr["collapois"] >= sr[best], f"{algo} alpha={alpha}: {best} {sr[best]:.4f} > CollaPois {sr['collapois']:.4f}"


def fig08_collapois_leads_fedavg_feddc():
    # Sentiment-sim; every alpha, FedAvg and FedDC, at full utility.
    collapois_leads("fig08_attacks_sentiment", ("fedavg", "feddc"), ("0.01", "1.0", "100.0"))
    for r in rows("fig08_attacks_sentiment"):
        if r["axes"]["attack"] == "collapois" and r["axes"]["algo"] != "metafed":
            assert r["benign_ac"] >= 0.98, f"{r['cell']}: Benign AC {r['benign_ac']:.4f}"


def fig15_collapois_leads_fedavg_feddc_alpha_1_100():
    collapois_leads("fig15_attacks_femnist", ("fedavg", "feddc"), ("1.0", "100.0"))


def fig09_dp_normbound_leave_sr_high():
    # Sentiment-sim has two classes, so a clean model already reads about
    # 50% Attack SR; DP and NormBound must leave CollaPois 20 points above.
    for r in rows("fig09_defenses_sentiment"):
        if r["axes"]["defense"] in ("dp", "norm-bound"):
            assert r["attack_sr"] >= 0.70, f"{r['cell']}: Attack SR {r['attack_sr']:.4f}"


def fig11_wide_client_spread():
    (r,) = rows("fig11_client_distribution")
    srs = [m["attack_sr"] for m in r["client_metrics"]]
    bins = [sum(1 for x in srs if i / 5 <= x < (i + 1) / 5 + (1e-9 if i == 4 else 0)) for i in range(5)]
    assert all(bins), f"per-client Attack SR histogram {bins} leaves a fifth empty"
    high_ac = sum(1 for m in r["client_metrics"] if m["benign_ac"] >= 0.8)
    assert high_ac == len(srs), f"only {high_ac} of {len(srs)} clients at >= 80% Benign AC"


def fig13_longevity():
    report = rows("fig13_longevity")
    series = {a: [e["attack_sr"] for e in cell(report, attack=a)["evaluations"]] for a in ("collapois", "dpois", "mrepl", "dba")}
    cp = series["collapois"]
    # CollaPois: >= 95% by the second evaluation, and no later drop.
    assert cp[1] >= 0.95, f"CollaPois SR {cp[1]:.4f} at the second evaluation"
    assert all(b >= a - 0.01 for a, b in zip(cp[1:], cp[2:])), f"CollaPois SR decays: {cp}"
    # MRepl: abrupt shifts of 30 points or more between evaluations.
    mr = series["mrepl"]
    assert max(abs(b - a) for a, b in zip(mr, mr[1:])) >= 0.30, f"MRepl moves smoothly: {mr}"
    # DPois and DBA: slower and lower, ending at least 50 points below CollaPois.
    for a in ("dpois", "dba"):
        assert series[a][0] < cp[0] and series[a][-1] <= cp[-1] - 0.50, f"{a}: {series[a]} vs CollaPois {cp}"


def table1_bypassed_rules():
    # The rules CollaPois bypasses (Attack SR above 50%, the verdict the
    # Table I target printed), Ditto included.
    report = rows("table1_defense_matrix")
    for d in ("none", "dp", "norm-bound", "rlr", "crfl", "user-dp", "fine-prune"):
        sr = cell(report, defense=d)["attack_sr"]
        assert sr > 0.5, f"{d}: Attack SR {sr:.4f}"
    ditto = cell(rows("table1_defense_matrix_reference"), variant="ditto")["attack_sr"]
    assert ditto > 0.5, f"ditto: Attack SR {ditto:.4f}"


CHECKS = [
    fig08_collapois_leads_fedavg_feddc,
    fig09_dp_normbound_leave_sr_high,
    fig11_wide_client_spread,
    fig13_longevity,
    fig15_collapois_leads_fedavg_feddc_alpha_1_100,
    table1_bypassed_rules,
]

failed = 0
for check in CHECKS:
    try:
        check()
        print(f"PASS {check.__name__}")
    except AssertionError as e:
        failed += 1
        print(f"FAIL {check.__name__}: {e}")
print(f"{len(CHECKS) - failed} of {len(CHECKS)} shape checks pass")
sys.exit(1 if failed else 0)
