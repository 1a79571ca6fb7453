"""Workload definitions and their seeded inputs.

The program only ever receives scenario files.  For the bundled workloads the
seed sets the order of the scenarios in a pass; for ``refine`` it picks which
member of a fixed family of generated scenario files is run.  The
family is finite so that every member's verdict and report digest could be
recorded at the commit that defined the benchmark.
"""

from __future__ import annotations

import os
import random

WORKLOADS = {
    # Godunov solve plus kinetic assembly: the kinetic boundaries carry most
    # of the time, the sweep a few percent.
    "conslaw": ["standing-shock-traffic", "burgers-shock", "transport-smooth",
                "traffic-kato", "negative-entropy"],
    # Cantor parts: level-set scans (breakpoints_1d) and the Cantor function
    # under the primitive (ifs_cdf) share most of the time.
    "cantor": ["cantor-divb-w11", "cantor-divb-bv", "cantor-u-autonomous",
               "cantor-u-jump"],
    # Primitive B through integrate_to_upper: a few large batches (2-D) and
    # many tiny calls (1-D); no Cantor work.
    "chain": ["2d-graph-diag", "2d-smooth-disc", "2d-vline-jump",
              "bv-scalar-signt-2h", "moll-halfline", "moll-sign-exp", "moll-sign-lin",
              "negative-control", "product-sin-heaviside", "sign-2t-heaviside",
              "sign-const", "volpert-heaviside", "w11-growing-x", "w11-sign-xsq"],
}

# Large Kato L1-contraction solves: the only workload where the Godunov sweep
# does most of the work and the kinetic assembly is absent.  Each file also
# runs traffic-kato's unshifted conslaw experiment without the kinetic part,
# so the entropy-residual margin is the same for every variant.
REFINE = "refine"
REFINE_FAMILY = 8          # generated variants, indexed 0..7
REFINE_PER_PASS = 1        # variants run in one pass

EXPECTED_FAIL = {"negative-control", "negative-entropy"}

# The five bundled scenarios that take 7-17 s each on a 2-core host run as
# generated copies with a coarser grid or a looser tolerance.  A whole pass
# then fits a time-boxed run, so the many runs a comparison of two commits
# needs take a fixed time however slow a shared host is.  Each copy keeps its
# scenario's experiments and checks, so the same layers dominate.
# id -> (suffix, text to replace, replacement)
LIGHTER = {
    "standing-shock-traffic": ("n400", "ncells = 800", "ncells = 400"),
    "cantor-divb-w11": ("tol5e-5", "[scenario]\n", "[scenario]\ntol_abs = 5e-5\n"),
    "cantor-divb-bv": ("tol1e-4", "[scenario]\n", "[scenario]\ntol_abs = 1e-4\n"),
    "2d-graph-diag": ("tol1e-6", "[scenario]\n", "[scenario]\ntol_abs = 1e-6\n"),
    "2d-smooth-disc": ("tol1e-6", "[scenario]\n", "[scenario]\ntol_abs = 1e-6\n"),
}

NAMES = ("conslaw", REFINE, "cantor", "chain")

# How strongly each workload's scenario times follow the host-speed
# reference slices (calib.scale).  Chosen on a 2-core host from three sets of
# conslaw runs, 20 runs in all, whose raw pass times differed by up to 20%
# between sets: at 0.75 the sets' wall_s medians agreed within 2%, at 1
# within 4% (8% for max_scenario_s) and at 0.5 within 10%.  The refine,
# cantor and chain medians agreed best at 1 (README.md, "Normalised time").
SENSITIVITY = {"conslaw": 0.75, REFINE: 1.0, "cantor": 1.0, "chain": 1.0}

# traffic-kato's three data pairs, at three finer resolutions.  Variant j
# shifts every bump centre by SHIFTS[j]; the grids and step counts are the
# same for every variant, so every pass does the same solver work.
SHIFTS = [-0.07, -0.05, -0.03, -0.01, 0.01, 0.03, 0.05, 0.07]

REFINE_TEMPLATE = """\
# Generated by perfbench/inputs.py: Kato contraction, variant {j}.
[scenario]
id = refine-kato-{j}
dim = 1
domain = -1 .. 1
experiments = conslaw, kato

[conslaw]
k_breaks = 0.5 : +1
k_pieces = 1 | 0.6
ahat = k*u*(1-u)
dahat_du = k*(1-2*u)
alpha = -k
beta = k
critical = 0.5
u_range = 0 .. 1
u0 = 0.4 + 0.2*(1-min(1,abs((x1+0.3)/0.3))^2)^2
T = 0.25
ncells = 200

[kato]
T = 0.25
dx_list = 1/400, 1/800, 1/1600
u0_a = 0.4 + 0.2*(1-min(1,abs((x1+{a1:.2f})/0.25))^2)^2
u0_b = 0.4 + 0.2*(1-min(1,abs((x1+{b1:.2f})/0.25))^2)^2
u0_a2 = 0.4 + 0.15*(1-min(1,abs((x1+{a2:.2f})/0.2))^2)^2
u0_b2 = 0.4 + 0.15*(1-min(1,abs((x1+{b2:.2f})/0.2))^2)^2
u0_a3 = 0.4
u0_b3 = 0.4 + 0.25*(1-min(1,abs((x1-{b3:.2f})/0.35))^2)^2
"""


def refine_text(j):
    s = SHIFTS[j]
    return REFINE_TEMPLATE.format(j=j, a1=0.55 + s, b1=0.35 + s, a2=0.5 + s,
                                  b2=0.25 + s, b3=0.4 + s)


def refine_variants(seed):
    return sorted(random.Random(seed).sample(range(REFINE_FAMILY), REFINE_PER_PASS))


def refine_files(variants, inputs_dir):
    """Write the given refine variants; [(scenario id, path, expected exit code)]."""
    os.makedirs(inputs_dir, exist_ok=True)
    out = []
    for j in variants:
        path = os.path.join(inputs_dir, f"refine-kato-{j}.scn")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(refine_text(j))
        out.append((f"refine-kato-{j}", path, 0))
    return out


def scenarios(workload, seed, root, inputs_dir):
    """[(scenario id, path, expected exit code)] in the seeded pass order."""
    if workload == REFINE:
        return refine_files(refine_variants(seed), inputs_dir)
    ids = list(WORKLOADS[workload])
    random.Random(seed).shuffle(ids)
    bundled = os.path.join(root, "src", "divchain", "scenarios")
    out = []
    for sid in ids:
        path = os.path.join(bundled, f"{sid}.scn")
        if sid in LIGHTER:
            sid, path = lighter_file(sid, path, inputs_dir)
        out.append((sid, path, 1 if sid in EXPECTED_FAIL else 0))
    return out


def lighter_file(sid, path, inputs_dir):
    """Write the lighter copy of a bundled scenario; (new id, path)."""
    suffix, old, new = LIGHTER[sid]
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    ident = f"id = {sid}\n"
    if text.count(old) != 1 or text.count(ident) != 1:
        raise ValueError(f"{path}: cannot derive the lighter copy")
    lid = f"{sid}-{suffix}"
    text = text.replace(old, new).replace(ident, f"id = {lid}\n")
    os.makedirs(inputs_dir, exist_ok=True)
    out = os.path.join(inputs_dir, f"{lid}.scn")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"# Generated by perfbench/inputs.py from {sid}.scn\n" + text)
    return lid, out
