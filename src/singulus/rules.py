"""Formula and obstruction engine over graded Betti tables.

All conclusions drawn here use only exact integer arithmetic on the table
data (n, d, and the shift multisets).  The central invariant is the family
of alternating power sums

    sigma_j = sum_{k=1..n} (-1)^{k+1} sum_i d_{k,i}^j,

whose expected values for a hypersurface are sigma_0 = n and
sigma_j = (-1)^{j+1} (d-1)^j for j >= 1.  The first exponent where the sum
deviates pins down the dimension of the singular subscheme, and the size of
the deviation pins down its degree; the remaining checks are necessary
conditions (regularity bounds, Tjurina-number bounds, divisibility, and
structural constraints on minimal resolutions) that a realizable table must
satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, isqrt

from .polynomials import _MONOMIAL_BUDGET, dim_degree_piece
from .tables import BettiTable


@dataclass(frozen=True)
class SigmaProfile:
    """Alternating power sums of a table next to their expected values."""

    sigma: tuple[int, ...]
    expected: tuple[int, ...]
    first_mismatch: int | None  # smallest j >= 1 with a deviation

    @classmethod
    def from_table(cls, table: BettiTable) -> "SigmaProfile":
        n, d = table.n, table.d
        sig = tuple(sigma(table, j) for j in range(n + 1))
        exp = (n,) + tuple((-1) ** (j + 1) * (d - 1) ** j for j in range(1, n + 1))
        mismatch = next((j for j in range(1, n + 1) if sig[j] != exp[j]), None)
        return cls(sig, exp, mismatch)


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "not-applicable"
    witness: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class ScanVerdict:
    kind: str  # "smooth" | "singular" | "inconsistent"
    delta: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class DegreeOfSigma:
    value: int
    exact: bool
    t: int
    flags: tuple[str, ...]


def sigma(table: BettiTable, j: int) -> int:
    """Alternating j-th power sum of the shifts; 0**0 == 1 covers j = 0."""
    if not 0 <= j <= table.n:
        raise ValueError(f"j={j} out of range 0..{table.n}")
    return table.power_sums[j]


def _n_t(table: BettiTable, t: int) -> int:
    """N_t = (d-1)^t + (-1)^t sigma_t, t! times the degree read off at t."""
    return (table.d - 1) ** t + (-1) ** t * sigma(table, t)


def euler_consistency(table: BettiTable) -> CheckResult:
    """sigma_0 = n and sigma_1 = d - 1; failure means no reduced hypersurface
    of this degree can have this table."""
    s0, s1 = sigma(table, 0), sigma(table, 1)
    ok = s0 == table.n and s1 == table.d - 1
    return CheckResult(
        "euler",
        "pass" if ok else "fail",
        {
            "sigma_0": s0,
            "expected_0": table.n,
            "sigma_1": s1,
            "expected_1": table.d - 1,
        },
    )


def _scan(table: BettiTable, profile: SigmaProfile, euler: CheckResult) -> ScanVerdict:
    """The dimension of the singular subscheme from the first deviation
    among sigma_2..sigma_n: a deviation first appearing at exponent j
    means dimension n - j, none at all means smooth."""
    if not euler.passed:
        return ScanVerdict("inconsistent", reason="euler")
    j = profile.first_mismatch
    if j is None:
        return ScanVerdict("smooth")
    # j >= 2 is guaranteed here since sigma_1 passed the Euler check
    return ScanVerdict("singular", delta=table.n - j)


def degree_of_sigma(table: BettiTable, delta: int) -> DegreeOfSigma:
    """Degree of the singular subscheme from the first deviating power sum:
    ((d-1)^t + (-1)^t sigma_t) / t!  with t = n - delta.

    A non-positive value is an obstruction to realizability; an inexact
    division cannot happen when the lower power sums match (divisibility
    property) and is flagged as an internal error if it ever does.
    """
    t = table.n - delta
    num = _n_t(table, t)
    q, rem = divmod(num, factorial(t))
    flags = []
    if rem:
        flags.append("INTERNAL_ERROR")
        value = num  # keep the raw numerator visible in diagnostics
    else:
        value = q
    if value <= 0:
        flags.append("OBSTRUCTION_NEGATIVE")
    return DegreeOfSigma(value, rem == 0, t, tuple(flags))


def koszul_smooth_table(n: int, d: int) -> BettiTable:
    """Betti table of a regular sequence of n+1 forms of degree d-1.

    Column k holds C(n+1, k+1) copies of k(d-1); this is the unique table
    with all power sums at their expected values, i.e. the smooth profile.
    A table of more than _MONOMIAL_BUDGET shifts, 2^(n+1) - n - 2 in all,
    is refused: n >= 20.
    """
    if n < 2 or d < 3:
        raise ValueError("need n >= 2 and d >= 3")
    if (count := (1 << n + 1) - n - 2) > _MONOMIAL_BUDGET:
        raise ValueError(f"a smooth table for n = {n} holds {count} shifts, over the limit of {_MONOMIAL_BUDGET}")
    cols = {k: [k * (d - 1)] * comb(n + 1, k + 1) for k in range(1, n + 1)}
    return BettiTable.of(n, d, cols)


def hilbert_function_from_table(table: BettiTable, k: int) -> int:
    """Dimension of the degree-k piece predicted by the resolution.

    Alternating sum of the dimensions of the free modules' degree-k pieces;
    exactness makes this valid in every degree, not just large ones.  The
    shifts enter once each, with their signed counts.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    n, top = table.n, k - table.d + 1
    total = dim_degree_piece(n, k) - (n + 1) * dim_degree_piece(n, top)
    for e, m in table.signed_counts:
        if e > top:  # the shifts ascend, and the rest have no degree-k piece
            break
        total += m * comb(top - e + n, n)
    return total


def _newton_fit(heads, base) -> tuple[Fraction, ...]:
    """sum_i heads[i] * C(k - base, i), the polynomial whose i-th forward
    difference at base is heads[i], as coefficients in k (low first).

    For integer heads and base the sum times r!, r = len(heads) - 1, has
    integer coefficients, since r! * C(k - base, i) is r!/i! times the
    falling factorial (k - base)...(k - base - i + 1); it is worked out on
    ints and divided by r! once per coefficient."""
    den = factorial(len(heads) - 1) if heads else 1
    weight = den  # r!/i!
    falling = [1]  # (k - base)...(k - base - i + 1), low coefficient first
    num: list = []
    for i, head in enumerate(heads):
        w = head * weight
        num = [c + w * b for c, b in zip(num + [0], falling)]
        falling = [a - (base + i) * b for a, b in zip([0] + falling, falling + [0])]
        weight //= i + 1
    while num and num[-1] == 0:
        num.pop()
    return tuple(Fraction(c, den) for c in num)


def hilbert_polynomial_from_table(table: BettiTable) -> list[Fraction]:
    """Exact Hilbert polynomial determined by the table, low coefficient first.

    C(m + n, n) is a polynomial in m that vanishes at m = -1..-n, so from
    base = d - 1 + (largest shift) - n on every term of
    hilbert_function_from_table is its own polynomial in k, and the
    Hilbert polynomial, of degree <= n, is the Newton expansion of the
    n + 1 values from base.  The zero polynomial comes back as [].
    """
    n = table.n
    base = max(0, table.d - 1 + max((c[-1] for c in table.columns if c), default=0) - n)
    row = [hilbert_function_from_table(table, base + i) for i in range(n + 1)]
    heads = []
    while row:
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return list(_newton_fit(heads, base))


def regularity_and_Ik(table: BettiTable):
    """Castelnuovo-Mumford regularity of the table and the shift bounds I_k.

    reg = max over nonempty columns of (d_{k,max} + d - 1 - k - 1); the
    bound I_k requires d_{k,max} <= n(d-2) + k - 1, which holds whenever
    the singularities are isolated.  Empty columns pass trivially.
    """
    n, d = table.n, table.d
    reg = None
    inequalities = []
    for k in range(1, n + 1):
        col = table.column(k)
        bound = n * (d - 2) + k - 1
        if col:
            reg_k = col[-1] + d - 1 - k - 1
            reg = reg_k if reg is None else max(reg, reg_k)
            inequalities.append(
                {"k": k, "max_shift": col[-1], "bound": bound, "ok": col[-1] <= bound}
            )
        else:
            inequalities.append({"k": k, "max_shift": None, "bound": bound, "ok": True})
    return reg, inequalities


def duplessis_wall_check(table: BettiTable, delta) -> CheckResult:
    """Two-sided bounds on the total Tjurina number when singularities are
    isolated, driven by the smallest first-column shift r = d_{1,1}:

        (d-1)^n - r(d-1)^(n-1) <= tau <= (d-1)^n - r(d-r-1)(d-1)^(n-2)

    and the equivalent interval for (-1)^n sigma_n."""
    n, d = table.n, table.d
    if delta != 0:
        return CheckResult("duplessis_wall", "not-applicable", {"delta": delta})
    col1 = table.column(1)
    if not col1:
        return CheckResult("duplessis_wall", "not-applicable", {"note": "empty first column"})
    r = col1[0]
    nf = factorial(n)
    sig_n = sigma(table, n)
    signed = (-1) ** n * sig_n
    sig_lo = (nf - 1) * (d - 1) ** n - nf * r * (d - 1) ** (n - 1)
    sig_hi = (nf - 1) * (d - 1) ** n - nf * r * (d - r - 1) * (d - 1) ** (n - 2)
    tau_lo = (d - 1) ** n - r * (d - 1) ** (n - 1)
    tau_hi = (d - 1) ** n - r * (d - r - 1) * (d - 1) ** (n - 2)
    tau = degree_of_sigma(table, 0).value
    inside = sig_lo <= signed <= sig_hi
    return CheckResult(
        "duplessis_wall",
        "pass" if inside else "fail",
        {
            "r": r,
            "signed_sigma_n": signed,
            "sigma_interval": [sig_lo, sig_hi],
            "tau": tau,
            "tau_interval": [tau_lo, tau_hi],
        },
    )


def divisibility_N_t(table: BettiTable, t: int):
    """N_t = (d-1)^t + (-1)^t sigma_t and whether t! divides it.

    Meaningful only when the power sums match for 1 <= j < t; returns
    (None, None) when they do not.  Once they match, t! divides N_t
    (e^t is an integer combination of m! C(e, m), m <= t), so
    non-divisibility marks an internal error, not a table."""
    if not 1 <= t <= table.n:
        raise ValueError(f"t={t} out of range 1..{table.n}")
    # sigma_j takes its expected value (-1)^(j+1) (d-1)^j exactly when N_j = 0
    if any(_n_t(table, j) for j in range(1, t)):
        return None, None
    n_t = _n_t(table, t)
    return n_t, n_t % factorial(t) == 0


def structural_checks(table: BettiTable) -> CheckResult:
    """Shape constraints forced by minimality of the resolution.

    d_{1,1} >= 0 with equality exactly for cones (flagged, not failed);
    m_1 >= n with equality exactly for free hypersurfaces (which then have
    no higher columns); and every nonempty column j >= 2 needs at least
    three shifts below it with d_{j,1} strictly above the third-smallest.
    """
    n = table.n
    failures = []
    flags = []
    col1 = table.column(1)
    m1 = len(col1)
    if col1 and col1[0] == 0:
        flags.append("CONE")
    if m1 < n:
        failures.append(f"m_1 = {m1} < n = {n}")
    higher = [k for k in range(2, n + 1) if table.m(k)]
    if m1 == n:
        if higher:
            failures.append(
                "m_1 = n forces a free hypersurface, but higher columns are nonempty"
            )
        else:
            flags.append("FREE")
    for j in higher:
        prev = table.column(j - 1)
        if len(prev) < 3:
            failures.append(f"m_{j} > 0 needs m_{j-1} >= 3, got {len(prev)}")
            continue
        threshold = max(prev[0], prev[1], prev[2])
        dj1 = table.column(j)[0]
        if dj1 <= threshold:
            failures.append(
                f"d_{{{j},1}} = {dj1} must exceed the three smallest shifts "
                f"of column {j-1} (max {threshold})"
            )
    return CheckResult(
        "structural",
        "pass" if not failures else "fail",
        {"failures": failures, "flags": flags},
    )


def projective_dimension(table: BettiTable) -> int:
    """Length of the resolution: one more than the last nonempty column."""
    top = table.max_nonempty()
    return (top or 0) + 1


def pd_codim_check(table: BettiTable, delta) -> CheckResult:
    """The resolution must be at least as long as the codimension n - delta."""
    if delta is None:
        return CheckResult("pd_codim", "not-applicable", {})
    pd = projective_dimension(table)
    codim = table.n - delta
    return CheckResult(
        "pd_codim",
        "pass" if pd >= codim else "fail",
        {"pd": pd, "codim": codim},
    )


def hspog_detect(table: BettiTable):
    """Detect the homologically strictly plus-one generated shape:
    m_1 = n+1, m_2 = 1, nothing beyond, and d_{2,1} = d_{1,i} + 1 for some i.

    The witness records the matching index and, as a consistency note,
    whether the remaining n first-column shifts sum to d."""
    n, d = table.n, table.d
    col1, col2 = table.column(1), table.column(2)
    shape = (
        len(col1) == n + 1
        and len(col2) == 1
        and all(table.m(k) == 0 for k in range(3, n + 1))
    )
    if not shape:
        return False, {"shape": False}
    target = col2[0] - 1
    match = next((i for i, e in enumerate(col1) if e == target), None)
    if match is None:
        return False, {"shape": False, "note": "no first-column shift one below d_{2,1}"}
    others_sum = sum(col1) - target
    return True, {
        "shape": True,
        "match_index": match,
        "matched_shift": target,
        "others_sum": others_sum,
        "others_sum_equals_d": others_sum == d,
    }


def hspog_dim_guarantee(n: int, d: int):
    """Whether the plus-one-generated shape forces a singular locus of
    dimension n-2 at this degree.

    The criterion is d strictly above the largest root of
    g(x) = (n+1)x^2 - 2n(n+1)x + 4n^2, decided by integer sign evaluation:
    the smaller root is below 3 for every n >= 3, so on integer d >= 3 the
    condition is exactly g(d) > 0.
    """
    if n < 3 or d < 3:
        raise ValueError("need n >= 3 and d >= 3")
    g = (n + 1) * d * d - 2 * n * (n + 1) * d + 4 * n * n
    radicand = n * n - 2 * n - 3
    threshold = {
        "description": f"{n}*({n + 1}+sqrt({radicand}))/{n + 1}",
        "radicand": radicand,
        "decimal": _radical_threshold_decimal(n, radicand),
    }
    return g > 0, g, threshold


def _radical_threshold_decimal(n: int, radicand: int, digits: int = 6) -> str:
    scale = 10 ** (2 * digits)
    root_scaled = isqrt(radicand * scale)  # floor(sqrt(radicand) * 10^digits)
    value_scaled = n * ((n + 1) * 10**digits + root_scaled) // (n + 1)
    whole, frac = divmod(value_scaled, 10**digits)
    return f"{whole}.{frac:0{digits}d}"


@dataclass
class SingularReport:
    n: int
    d: int
    sigma_profile: SigmaProfile
    verdict: ScanVerdict
    delta: int | None
    deg_sigma: int | None
    tau: int | None
    pd: int
    reg: int | None
    n_values: list
    checks: list
    obstructions: list
    flags: list


def full_report(table: BettiTable) -> SingularReport:
    """Run every check in dependency order and aggregate the outcome.

    A table is declared not realizable when any check but hspog fails (the
    Euler sums, the shift bounds or the Tjurina bounds under an
    isolated-singularities claim, divisibility, a structural constraint, or
    a resolution shorter than the codimension demands) or when the derived
    degree is non-positive.
    """
    n, d = table.n, table.d
    profile = SigmaProfile.from_table(table)
    flags: list[str] = []
    euler = euler_consistency(table)
    scan = _scan(table, profile, euler)
    delta = scan.delta
    deg = tau = None
    nonpositive = False
    if scan.kind == "singular":
        deg_result = degree_of_sigma(table, delta)
        deg = deg_result.value
        if delta == 0:
            tau = deg
        nonpositive = "OBSTRUCTION_NEGATIVE" in deg_result.flags

    reg, inequalities = regularity_and_Ik(table)
    failed_k = [e["k"] for e in inequalities if not e["ok"]]
    reg_status = "not-applicable"
    if scan.kind == "singular" and delta == 0:
        reg_status = "fail" if failed_k else "pass"
    regularity = CheckResult(
        "regularity",
        reg_status,
        {
            "reg": reg,
            "reg_bound": (n + 1) * (d - 2) - 1,
            "inequalities": inequalities,
            "failed_k": failed_k,
        },
    )

    dw = duplessis_wall_check(table, delta)

    # Divisibility applies for every t whose lower power sums all match,
    # that is every t up to the first mismatch (never 0), or n without one.
    n_values = []
    for t in range(1, (profile.first_mismatch or n) + 1):
        n_t, divisible = divisibility_N_t(table, t)
        n_values.append({"t": t, "N": n_t, "divisible": divisible})
    div_ok = all(e["divisible"] for e in n_values)
    divisibility = CheckResult(
        "divisibility",
        ("pass" if div_ok else "fail") if euler.passed else "not-applicable",
        {"values": n_values},
    )

    structural = structural_checks(table)
    flags.extend(structural.witness["flags"])

    is_hspog, hspog_witness = hspog_detect(table)
    hspog_status = "not-applicable"
    if is_hspog:
        flags.append("HSPOG")
        hspog_status = "pass"
        if n >= 3:
            guaranteed, g, threshold = hspog_dim_guarantee(n, d)
            hspog_witness = dict(hspog_witness)
            hspog_witness.update(
                {"dim_guaranteed": guaranteed, "g": g, "threshold": threshold}
            )
            if guaranteed and scan.kind in ("smooth", "singular") and delta != n - 2:
                hspog_status = "fail"
                hspog_witness["note"] = (
                    "plus-one generated shape forces dim n-2 at this degree, "
                    "but the power sums disagree"
                )
        if not hspog_witness.get("others_sum_equals_d", True):
            hspog_status = "fail"

    if scan.kind == "smooth":
        if table == koszul_smooth_table(n, d):
            flags.append("KOSZUL_SHAPE")
        else:
            flags.append("NON_KOSZUL_SMOOTH_PROFILE")

    checks = [
        euler,
        regularity,
        dw,
        divisibility,
        structural,
        pd_codim_check(table, delta),
        CheckResult("hspog", hspog_status, hspog_witness),
    ]
    obstructions = sorted(
        {c.name for c in checks if c.status == "fail" and c.name != "hspog"}
        | ({"degree_nonpositive"} if nonpositive else set())
    )
    verdict = scan
    if obstructions and scan.kind != "inconsistent":
        verdict = ScanVerdict("inconsistent", delta=delta, reason=", ".join(obstructions))

    return SingularReport(
        n=n,
        d=d,
        sigma_profile=profile,
        verdict=verdict,
        delta=delta,
        deg_sigma=deg,
        tau=tau,
        pd=projective_dimension(table),
        reg=reg,
        n_values=n_values,
        checks=checks,
        obstructions=obstructions,
        flags=flags,
    )
