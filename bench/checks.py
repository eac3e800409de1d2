"""Independent checks of the program's outputs.

Nothing here calls the program's formulas. The noise terms are the paper's
closed forms with h and c typed in, and the GMCS rate is computed from the
covariance matrix of the entanglement-based realistic model (Lodewyck et
al., PRA 76, 042305 (2007)): an EPR source, a lossy noisy channel, and
Bob's detector as a beam splitter of transmittance eta fed by an EPR state
that carries the electronic noise. Stdlib only: numpy would change the
measured process's memory.
"""
from __future__ import annotations

import dataclasses
import json
import math

H = 6.62607015e-34  # J s
C = 299792458.0  # m / s


class CheckError(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, rel: float = 1e-8, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def refuse(token):
        raise CheckError(f"non-JSON constant {token} in output")

    return json.loads(text, parse_constant=refuse)


# --- noise: closed forms -------------------------------------------------

def noise_terms(z_km: float, link, comp, delta_t_s: float) -> dict:
    """ASE, leakage and SASRS per detection window, plus the matched-mode
    photon number behind the GMCS excess noise, all from closed forms."""
    m = link.classical_channel_count
    p_w = 1e-3 * 10.0 ** (link.p_out_dbm / 10.0)
    eta_ch = 10.0 ** (-link.alpha_db_per_km * z_km / 10.0)
    modes = comp.delta_nu_hz * delta_t_s
    if m == 0:
        return {"eta_ch": eta_ch, "ase": 0.0, "leak": 0.0, "sasrs": 0.0, "matched": 0.0}
    gain = comp.gain_fixed if comp.gain_fixed is not None else comp.gain_g0 / eta_ch
    nf = 10.0 ** (comp.nf_db / 10.0)
    if gain <= 1:
        n_ase = 0.0
    else:
        n_sp = (nf * gain - 1.0) / (2.0 * (gain - 1.0)) if comp.nsp_exact else nf / 2.0
        n_ase = 2.0 * n_sp * (gain - 1.0)
    ase_mode = m * comp.xi1 * n_ase  # per mode, after the MUX
    lam_q = link.lambda_quantum_nm * 1e-9
    lam_c = link.lambda_classical_nm * 1e-9
    # lambda^3 / (h c^2) * P * beta * z * eta_dmu, beta converted to 1/(km m)
    sasrs_mode = m * lam_q**3 / (H * C**2) * p_w * link.beta_raman * 1e9 * z_km * comp.eta_dmu
    return {
        "eta_ch": eta_ch,
        "ase": modes * eta_ch * comp.eta_dmu * ase_mode,
        "leak": m * comp.xi2 * p_w * lam_c / (H * C) * delta_t_s,
        "sasrs": modes * sasrs_mode,
        "matched": 0.5 * (eta_ch * comp.eta_dmu * ase_mode + sasrs_mode),
    }


def check_noise_row(row: dict, link, comp, delta_t_s: float, where: str) -> dict:
    """row holds ase_window, leak_window, sasrs_window, total_window as
    printed (9 significant digits)."""
    ref = noise_terms(row["z_km"], link, comp, delta_t_s)
    total = row["ase_window"] + row["leak_window"] + row["sasrs_window"]
    require(
        close(row["total_window"], total, rel=2e-8, abs_=1e-300),
        f"{where}: total_window {row['total_window']!r} != ase + leak + sasrs {total!r}",
    )
    for col, key in (("ase_window", "ase"), ("leak_window", "leak"), ("sasrs_window", "sasrs")):
        require(
            close(row[col], ref[key], rel=1e-8, abs_=1e-300),
            f"{where}: {col} {row[col]!r} != closed form {ref[key]!r}",
        )
    return ref


# --- GMCS: realistic model from the covariance matrix ---------------------

def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _omega(n_modes: int):
    om = [[0.0] * (2 * n_modes) for _ in range(2 * n_modes)]
    for k in range(n_modes):
        om[2 * k][2 * k + 1] = 1.0
        om[2 * k + 1][2 * k] = -1.0
    return om


def _two_mode_block(a: float, b: float, c: float):
    return [[a, 0.0, c, 0.0], [0.0, a, 0.0, -c], [c, 0.0, b, 0.0], [0.0, -c, 0.0, b]]


def _cubic_roots(e1: float, e2: float, e3: float):
    """Real roots of x^3 - e1 x^2 + e2 x - e3 (three real roots assumed)."""
    p = e2 - e1 * e1 / 3.0
    q = -2.0 * e1**3 / 27.0 + e1 * e2 / 3.0 - e3
    if p >= 0:
        roots = [e1 / 3.0] * 3
    else:
        r = 2.0 * math.sqrt(-p / 3.0)
        arg = max(-1.0, min(1.0, 3.0 * q / (p * r)))
        phi = math.acos(arg) / 3.0
        roots = [e1 / 3.0 + r * math.cos(phi - 2.0 * math.pi * k / 3.0) for k in range(3)]
    polished = []
    for x in roots:
        for _ in range(3):
            f = ((x - e1) * x + e2) * x - e3
            df = (3.0 * x - 2.0 * e1) * x + e2
            if df == 0:
                break
            x -= f / df
        polished.append(x)
    return polished


def _g(nu: float) -> float:
    x = max(0.0, (nu - 1.0) / 2.0)
    if x == 0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def gmcs_rate(eta_ch: float, eps: float, v_a: float, eta_det: float, v_el: float, gamma: float) -> float:
    """Reverse-reconciliation rate gamma*I_AB - chi_BE, clamped at 0."""
    v = v_a + 1.0
    chi_line = 1.0 / eta_ch - 1.0 + eps
    a, b, c = v, eta_ch * (v + chi_line), math.sqrt(eta_ch * (v * v - 1.0))
    v_det = 1.0 + v_el / (1.0 - eta_det)  # EPR variance that yields v_el
    w_det = math.sqrt(v_det * v_det - 1.0)

    # modes A, B1 (after the channel), F0, G; quadratures x, p each
    gam = [[0.0] * 8 for _ in range(8)]
    for block, off in ((_two_mode_block(a, b, c), 0), (_two_mode_block(v_det, v_det, w_det), 4)):
        for i in range(4):
            for j in range(4):
                gam[off + i][off + j] = block[i][j]
    t, r = math.sqrt(eta_det), math.sqrt(1.0 - eta_det)
    s = [[1.0 if i == j else 0.0 for j in range(8)] for i in range(8)]
    for k in (0, 1):  # B = t B1 + r F0, F = -r B1 + t F0
        s[2 + k][2 + k], s[2 + k][4 + k] = t, r
        s[4 + k][2 + k], s[4 + k][4 + k] = -r, t
    gam = _matmul(_matmul(s, gam), [list(col) for col in zip(*s)])

    v_b = gam[2][2]
    v_b_given_a = eta_det * eta_ch * (1.0 + chi_line) + (1.0 - eta_det) * v_det
    i_ab = 0.5 * math.log2(v_b / v_b_given_a)

    # S(E) = S(A B1): two-mode invariants
    delta = a * a + b * b - 2.0 * c * c
    det = (a * b - c * c) ** 2
    root = math.sqrt(max(0.0, delta * delta - 4.0 * det))
    s_e = sum(_g(math.sqrt(x)) for x in ((delta + root) / 2.0, (delta - root) / 2.0))

    # S(E | x_B) = S(A F G | x_B): condition on Bob's homodyne outcome
    rest = [0, 1, 4, 5, 6, 7]
    cond = [[gam[i][j] - gam[i][2] * gam[j][2] / v_b for j in rest] for i in rest]
    m = _matmul(_omega(3), cond)
    m2 = [[-x for x in row] for row in _matmul(m, m)]  # eigenvalues nu_k^2, twice
    powers, pk = [], m2
    for _ in range(3):
        powers.append(sum(pk[i][i] for i in range(6)) / 2.0)
        pk = _matmul(pk, m2)
    p1, p2, p3 = powers
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    s_cond = sum(_g(math.sqrt(max(1.0, x))) for x in _cubic_roots(e1, e2, e3))

    return max(0.0, gamma * i_ab - (s_e - s_cond))


def gmcs_eps_in_out(ref: dict, det, delta_t_s: float = 1e-9):
    """eps_in from the matched mode; eps_out from the unmatched modes that a
    detector of bandwidth B integrates over 1/(2 pi B)."""
    eps_in = 2.0 * det.eta_bob * ref["matched"]
    window = ref["ase"] + ref["leak"] + ref["sasrs"]
    t_hom = 1.0 / (2.0 * math.pi * det.detector_bandwidth_hz)
    return eps_in, det.eta_bob * (t_hom / delta_t_s) * window / det.n_lo


def gmcs_eps(ref: dict, det, eta_dmu: float, strict: bool = False) -> float:
    """Input-referred excess noise: eps0 + eps_in / eta (+ sigma / eta)."""
    eta = ref["eta_ch"] * eta_dmu * det.eta_bob
    eps_in, eps_out = gmcs_eps_in_out(ref, det)
    eps = det.eps0 + (eps_in + (eps_out if strict else 0.0)) / eta
    if det.conservative:
        eps += det.sigma_meas / eta
    return eps


def check_gmcs_rate(rate: float, z_km: float, link, comp, det, where: str, strict: bool = False) -> None:
    ref = noise_terms(z_km, link, comp, 1e-9)
    eps = gmcs_eps(ref, det, comp.eta_dmu, strict)
    expected = gmcs_rate(ref["eta_ch"], eps, det.v_a, comp.eta_dmu * det.eta_bob, det.v_el, det.gamma)
    require(
        close(rate, expected, rel=1e-6, abs_=1e-8),
        f"{where}: rate {rate!r} != realistic-model rate {expected!r}",
    )


def check_secure_distance(rows, distance: float, where: str, tol_km: float = 0.05) -> None:
    """The distance lies between the last positive row and the next zero row."""
    positive = [r["z_km"] for r in rows if r["rate"] > 0]
    if not positive:
        require(distance == 0.0, f"{where}: no positive rate but distance {distance}")
        return
    lo = positive[-1]
    after = [r["z_km"] for r in rows if r["z_km"] > lo]
    hi = after[0] if after else lo
    require(
        lo - tol_km <= distance <= hi + tol_km,
        f"{where}: secure distance {distance} outside rows [{lo}, {hi}]",
    )


# --- per-workload verification ------------------------------------------

CSV_COLUMNS = ["z_km", "ase_window", "leak_window", "sasrs_window", "total_window", "eps_in", "eps_out", "rate"]
BUILTIN_NAMES = {
    "fig3-noise", "bb84-0dBm", "gmcs-none", "gmcs-1ch-nonadj", "gmcs-1ch-adj", "gmcs-38ch",
    "gmcs-1ch-100MHz-detector",
}


def verify_bb84_sweep(op, outcome) -> None:
    result, text = outcome
    sc = op.meta["scenario"]
    lines = text.splitlines()
    require(lines[0].split(",") == CSV_COLUMNS, f"{op.label}: CSV header {lines[0]!r}")
    rows = [dict(zip(CSV_COLUMNS, map(float, line.split(",")))) for line in lines[1:]]
    require(len(rows) == len(sc.z_grid), f"{op.label}: {len(rows)} rows for {len(sc.z_grid)} distances")
    for row in rows:
        check_noise_row(row, sc.link, sc.comp, sc.detector.delta_t_s, f"{op.label} z={row['z_km']}")
    if op.label == "bb84-0dBm":
        require(all(r["rate"] == 0 for r in rows), "bb84-0dBm: a positive BB84 rate under a 0 dBm channel")
    require(result.secure_distance_km == 0, f"{op.label}: secure distance {result.secure_distance_km} != 0")


def verify_gmcs_sweep(op, outcome, rng) -> float:
    """Checks one GMCS sweep and returns its secure distance."""
    _, text = outcome
    sc = op.meta["scenario"]
    doc = strict_json(text)
    rows = doc["rows"]
    require(doc["scenario"] == op.label and len(rows) == len(sc.z_grid), f"{op.label}: JSON shape")
    det = sc.detector
    for row in rows:
        ref = check_noise_row(row, sc.link, sc.comp, 1e-9, f"{op.label} z={row['z_km']}")
        eps_in, eps_out = gmcs_eps_in_out(ref, det)
        require(
            close(row["eps_in"], eps_in, abs_=1e-300) and close(row["eps_out"], eps_out, abs_=1e-300),
            f"{op.label} z={row['z_km']}: eps_in/eps_out {row['eps_in']!r}/{row['eps_out']!r} "
            f"!= closed forms {eps_in!r}/{eps_out!r}",
        )
    for row in rng.sample(rows, 4):
        check_gmcs_rate(row["rate"], row["z_km"], sc.link, sc.comp, det, f"{op.label} z={row['z_km']}")
    check_secure_distance(rows, doc["secure_distance_km"], op.label)
    return doc["secure_distance_km"]


def verify_gmcs_order(distance: dict) -> None:
    none, nonadj, adj = distance["gmcs-none"], distance["gmcs-1ch-nonadj"], distance["gmcs-1ch-adj"]
    d38 = distance["gmcs-38ch"]
    require(none > nonadj > adj, f"secure distances not ordered none > 1ch-nonadj > 1ch-adj: {distance}")
    require(nonadj > d38, f"secure distance 1ch-nonadj {nonadj} not above 38ch {d38}")
    require(8.0 <= d38 <= 12.0, f"38-channel secure distance {d38} km outside the abstract's [8, 12] km")


def cli_ok(op, outcome) -> bool:
    """Whether a CLI call behaved: exit 0, or for the known faults a clean
    error (exit 1, an error line, nothing on stdout)."""
    code, out, err = outcome
    if op.meta["kind"] == "error":
        return code == 1 and out == "" and "error:" in err
    return code == 0


def verify_cli(op, outcome, config) -> None:
    """Checks a CLI call that exited 0; config is the default configuration."""
    _, out, _ = outcome
    meta, kind = op.meta, op.meta["kind"]
    if kind == "scenarios":
        require(BUILTIN_NAMES <= set(out.split()), f"{op.label}: missing built-in scenarios")
        return
    if kind == "error":
        return
    doc = strict_json(out)
    if kind == "scenarios-json":
        require(BUILTIN_NAMES <= set(doc), f"{op.label}: missing built-in scenarios")
        return
    numbers = [v for v in doc.values() if isinstance(v, (int, float))]
    require(all(math.isfinite(v) for v in numbers), f"{op.label}: non-finite number")
    if kind == "fit-beta":
        require(close(doc["beta_raman"], meta["beta"]), f"{op.label}: beta {doc['beta_raman']} != {meta['beta']}")
    elif kind == "noise" and meta.get("default"):
        row = dict(doc, total_window=doc["n_spd_window"])
        check_noise_row(row, config.link, config.comp, config.bb84.delta_t_s, op.label)
    elif kind == "gmcs" and meta.get("default"):
        det = dataclasses.replace(config.gmcs, conservative=bool(meta.get("conservative")))
        check_gmcs_rate(doc["rate"], doc["z_km"], config.link, config.comp, det, op.label, meta.get("strict", False))
    elif kind == "bb84":
        require(doc["rate"] >= 0, f"{op.label}: negative rate")
        if meta.get("rate") == "zero":
            require(doc["rate"] == 0, f"{op.label}: BB84 key under a 0 dBm channel")
        elif meta.get("rate") == "positive":
            require(doc["rate"] > 0, f"{op.label}: no BB84 key without classical channels")
