"""Empirical summaries and goodness-of-fit checks for sample batches.

summarize takes one mean and one centered cross product over the whole
batch. The KS test sorts its draws and uses the fixed asymptotic thresholds
1.358/sqrt(n) (alpha 0.05) and 1.628/sqrt(n) (alpha 0.01). The box
chi-square test is planned from the target, the bins and n before any
sampling (chi_square_box), then counts the draws (ChiSquareTest.test).
Its threshold is the 0.999 quantile of chi-square with dof degrees of
freedom. For dof <= 511 (a plan of at most 512 groups) it is read from
_CHI2_999, a table of the doubles scipy.stats.chi2.ppf computes; past it,
the Cornish-Fisher expansion to order 1/dof^2 (Fisher & Cornish,
Technometrics 2, 1960) is within 3e-11 relative of scipy's doubles. So no
run imports scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import SampleBatch, TargetSpec, bin_counts, check_grid_size, grid_reduce

__all__ = [
    "SummaryStats",
    "GofReport",
    "summarize",
    "ks_test_1d",
    "chi_square_box",
    "ChiSquareTest",
    "predicted_acceptance",
    "KS_THRESHOLDS",
]

KS_THRESHOLDS = {0.05: 1.358, 0.01: 1.628}
# the 0.999 quantile of the standard normal, statistics.NormalDist().inv_cdf(0.999)
_Z_999 = 3.090232306167813
_QUADRATURE_PER_DIM = 32
# cells expected to hold fewer samples are merged into a neighbor
_MIN_EXPECTED = 5.0


@dataclass(frozen=True, eq=False)
class SummaryStats:
    """Mean, unbiased covariance (divisor n-1) and correlation.

    Dimensions with zero variance get NaN correlation entries (the undefined
    marker) instead of raising.
    """

    n: int
    mean: np.ndarray
    covariance: np.ndarray
    correlation: np.ndarray


@dataclass(frozen=True)
class GofReport:
    """Outcome of one goodness-of-fit test.

    ``passed`` ("pass" is reserved in Python) is statistic < threshold; it
    is serialized as "pass" in run-metadata JSON.
    """

    kind: str  # "ks" or "chi_square"
    statistic: float
    threshold: float
    dof: int | None

    @property
    def passed(self) -> bool:
        return self.statistic < self.threshold


def _as_points(batch: SampleBatch | np.ndarray) -> np.ndarray:
    pts = batch.points if isinstance(batch, SampleBatch) else np.asarray(batch, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, d) matrix, got shape {pts.shape}")
    return pts


def summarize(batch: SampleBatch | np.ndarray) -> SummaryStats:
    """Summary of a batch (needs at least two rows)."""
    pts = _as_points(batch)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("summaries need at least 2 samples")
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = (centered.T @ centered) / (n - 1)
    sd = np.sqrt(np.diag(cov))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = cov / np.outer(sd, sd)
    corr[~np.isfinite(corr)] = np.nan
    return SummaryStats(n=n, mean=mean, covariance=cov, correlation=corr)


def ks_test_1d(
    samples: Sequence[float] | np.ndarray,
    cdf: Callable[[np.ndarray], np.ndarray],
    alpha: float = 0.01,
) -> GofReport:
    """One-sample Kolmogorov-Smirnov test against a reference CDF.

    D_n = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted
    sample; the draws may come in any order.
    """
    if alpha not in KS_THRESHOLDS:
        raise ValueError(f"alpha must be one of {sorted(KS_THRESHOLDS)}, got {alpha}")
    xs = np.sort(np.asarray(samples, dtype=np.float64), axis=None)
    n = xs.size
    if n < 1:
        raise ValueError("KS test needs at least one sample")
    f = np.asarray(cdf(xs), dtype=np.float64)
    i = np.arange(1, n + 1)
    d = float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))
    threshold = KS_THRESHOLDS[alpha] / math.sqrt(n)
    return GofReport(kind="ks", statistic=d, threshold=threshold, dof=None)


def _cell_neighbors(idx: int, bins: tuple[int, ...]) -> list[int]:
    """The C-order indices of the cells that share a face with cell idx."""
    stride = math.prod(bins)
    out = []
    for coord, b in zip(np.unravel_index(idx, bins), bins):
        stride //= b
        out += [idx + step * stride for step in (-1, 1) if 0 <= coord + step < b]
    return out


def _merge_small_cells(
    expected: np.ndarray, bins: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Union-find merge of cells with expected count below _MIN_EXPECTED
    into their largest neighboring group, scanning in row-major order.
    Returns each cell's group (numbered in root-cell order) and each
    group's expected count."""
    ncells = expected.size
    parent = np.arange(ncells)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return int(i)

    group_exp = expected.astype(np.float64).copy()
    # each pass that changes something joins two groups, so the loop ends
    changed = True
    while changed:
        changed = False
        for idx in range(ncells):
            g = find(idx)
            if group_exp[g] >= _MIN_EXPECTED:
                continue
            candidates = {find(nb) for nb in _cell_neighbors(idx, bins)} - {g}
            if not candidates:
                continue
            best = max(candidates, key=lambda c: (group_exp[c], -c))
            parent[g] = best
            group_exp[best] += group_exp[g]
            changed = True
    roots, labels = np.unique([find(i) for i in range(ncells)], return_inverse=True)
    return labels, group_exp[roots]


@dataclass(frozen=True, eq=False)
class ChiSquareTest:
    """A box chi-square test planned for n draws: bin edges per dimension,
    each cell's group (C order), each group's expected count, and the
    threshold at len(expected) - 1 degrees of freedom."""

    edges: list[np.ndarray]
    groups: np.ndarray
    expected: np.ndarray
    threshold: float
    n: int

    def test(self, batch: SampleBatch | np.ndarray) -> GofReport:
        """Count the n draws into the planned groups and compare."""
        pts = _as_points(batch)
        if pts.shape[0] != self.n:
            raise ValueError(f"the test was planned for {self.n} draws, got {pts.shape[0]}")
        counts, _ = np.histogramdd(pts, bins=self.edges)
        observed = np.bincount(self.groups, weights=counts.ravel(), minlength=self.expected.size)
        statistic = float(np.sum((observed - self.expected) ** 2 / self.expected))
        return GofReport("chi_square", statistic, self.threshold, self.expected.size - 1)


def chi_square_box(target: TargetSpec, bins_per_dim: int | Sequence[int], n: int) -> ChiSquareTest:
    """Plan the chi-square test of n draws from target on its support box.

    Expected cell probabilities come from midpoint quadrature (32^d points
    per cell), normalized over the box; cells with expected count below 5
    are merged into their largest neighbor. The groups depend on nothing
    sampled, so every refusal comes before sampling: ValueError for n < 1,
    bad bins, fewer than 2 cells, a grid over 2^28 points (before any of it
    is built), a density that vanishes on the grid, or fewer than 2 groups
    after merging.
    """
    if n < 1:
        raise ValueError("requested sample count must be at least 1")
    box = target.support
    bins = bin_counts(bins_per_dim, box.dims)
    if math.prod(bins) < 2:
        raise ValueError("the chi-square test needs at least 2 cells; use more bins")

    q = _QUADRATURE_PER_DIM
    check_grid_size([b * q for b in bins])
    axes = []
    for (lo, hi), b in zip(box.bounds, bins):
        step = (hi - lo) / (b * q)
        axes.append(lo + (np.arange(b * q, dtype=np.float64) + 0.5) * step)
    cell_mass = grid_reduce(target.field, axes, q, np.sum)
    total = float(cell_mass.sum())
    if not total > 0.0:
        raise ValueError("target density vanishes on the quadrature grid")

    groups, expected = _merge_small_cells((cell_mass / total).ravel() * n, bins)
    if expected.size < 2:
        raise ValueError("fewer than two cells remain after merging; use fewer bins")
    edges = [np.linspace(lo, hi, b + 1) for (lo, hi), b in zip(box.bounds, bins)]
    return ChiSquareTest(edges, groups, expected, _chi2_threshold(expected.size - 1), n)


def _chi2_threshold(dof: int) -> float:
    """The 0.999 quantile of chi-square with dof degrees of freedom."""
    if dof <= len(_CHI2_999):
        return _CHI2_999[dof - 1]
    k, z = float(dof), _Z_999
    s = math.sqrt(2 * k)
    return (k + z * s + 2 / 3 * (z**2 - 1) + (z**3 - 7 * z) / (9 * s)
            - (6 * z**4 + 14 * z**2 - 32) / (405 * k)
            + (9 * z**5 + 256 * z**3 - 433 * z) / (4860 * k * s)
            + (12 * z**6 - 243 * z**4 - 923 * z**2 + 1472) / (25515 * k**2))


def predicted_acceptance(f_box_integral: float, c: float, vol: float) -> float:
    """Acceptance probability of srmc: integral / (c * volume)."""
    if not (f_box_integral > 0 and c > 0 and vol > 0):
        raise ValueError("all inputs must be positive")
    return f_box_integral / (c * vol)


# float(2 * gammaincinv(dof / 2, 0.999)) for dof = 1 .. 511, as scipy 1.17.1
# computes it; printed by tests/chi2_table.py and checked against scipy by
# tests/test_stats.py
_CHI2_999 = (
    10.827566170662733, 13.815510557964274, 16.26623619623813,
    18.46682695290317, 20.515005652432873, 22.457744484825323,
    24.321886347856854, 26.12448155837614, 27.877164871256568,
    29.58829844507442, 31.264133620239985, 32.90949040736021,
    34.52817897487089, 36.12327368039813, 37.69729821835383,
    39.252354790768464, 40.79021670690253, 42.31239633167996,
    43.82019596451753, 45.31474661812586, 46.797038041561315,
    48.26794229083518, 49.7282324664315, 51.17859777737739,
    52.619655776172834, 54.05196238857664, 55.47602020574521,
    56.892285393353625, 58.301173489794905, 59.70306430442994,
    61.098306081058126, 62.487219057088474, 63.870098522344946,
    65.24721746094244, 66.61882884370104, 67.98516762602424,
    69.3464524962412, 70.70288741150503, 72.0546629519878,
    73.40195751899103, 74.74493839842374, 76.08376270770002,
    77.41857824131394, 78.74952422804303, 80.07673201081901,
    81.40032565870999, 82.72042251912399, 84.03713371722348,
    85.35056460859305, 86.66081519040317, 87.96798047562868,
    89.27215083430448, 90.5734123052986, 91.8718468816601,
    93.16753277222854, 94.46054464187807, 95.75095383248956,
    97.03882856650883, 98.32423413474163, 99.60723306984946,
    100.8878853068583, 102.16624833184879, 103.44237731987324,
    104.71632526304057, 105.98814308961282, 107.25787977487072,
    108.52558244443486, 109.79129647066172, 111.05506556267146,
    112.31693185051572, 113.57693596394476, 114.83511710619328,
    116.09151312316095, 117.34616056833929, 118.59909476379528,
    119.85034985750531, 121.09995887729859, 122.34795378165676,
    123.59436550758484, 124.83922401576478, 126.08255833316952,
    127.32439659331791, 128.56476607432293, 129.80369323488026,
    131.04120374833502, 132.27732253494605, 133.51207379246583,
    134.7454810251423, 135.97756707124026, 137.20835412917324,
    138.437863782331, 139.66611702268335, 140.8931342732306,
    142.11893540936777, 143.34353977923126, 144.56696622308277,
    145.7892330917839, 147.01035826441762, 148.23035916510173,
    149.44925277903886, 150.66705566784537, 151.88378398420096,
    153.09945348584796, 154.31407954898623, 155.5276771810864,
    156.740261033153, 157.95184541147285, 159.1624442888655,
    160.37207131546973, 161.58073982908158, 162.78846286507468,
    163.9952531659132, 165.2011231902913, 166.40608512190016,
    167.61015087785867, 168.81333211680516, 170.01564024668554,
    171.21708643223513, 172.41768160217916, 173.6174364561601,
    174.81636147140657, 176.01446690915446, 177.21176282083061,
    178.40825905401258, 179.60396525816938, 180.79889089020068,
    181.9930452197729, 183.18643733447217, 184.37907614477075,
    185.57097038882497, 186.76212863710677, 187.95255929687283,
    189.1422706164864, 190.33127068958913, 191.5195674591372,
    192.70716872129785, 193.89408212922336, 195.0803151966945,
    196.26587530165207, 197.45076968960848, 198.63500547695546,
    199.8185896541588, 201.00152908886196, 202.1838305288837,
    203.36550060512525, 204.54654583438844, 205.72697262210653,
    206.9067872649892, 208.08599595359124, 209.26460477480072,
    210.44261971425405, 211.62004665867843, 212.79689139816605,
    213.97315962838022, 215.1488569526981, 216.32398888429128,
    217.49856084814567, 218.67257818302437, 219.8460461433745,
    221.01896990118004, 222.19135454776256, 223.36320509553184,
    224.5345264796881, 225.70532355987717, 226.87560112179972,
    228.04536387877795, 229.21461647327854, 230.38336347839578,
    231.55160939929382, 232.7193586746119, 233.88661567783117,
    235.0533847186065, 236.21967004406326, 237.38547584006022,
    238.55080623241983, 239.71566528812733, 240.88005701649863,
    242.04398537031915, 243.20745424695346, 244.37046748942743,
    245.53302888748274, 246.69514217860618, 247.85681104903273,
    249.01803913472386, 250.17883002232338, 251.3391872500879,
    252.49911430879683, 253.65861464263895, 254.81769165007918,
    255.97634868470323, 257.134589056044, 258.2924160303866,
    259.4498328315565, 260.60684264168765, 261.7634486019739,
    262.91965381340265, 264.0754613374717, 265.23087419689,
    266.38589537626206, 267.5405278227572, 268.69477444676386,
    269.8486381225289, 271.00212168878335, 272.15522794935316,
    273.30795967375786, 274.46031959779503, 275.61231042411265,
    276.7639348227687, 277.91519543177884, 279.06609485765216,
    280.2166356759154, 281.36682043162676, 282.51665163987724,
    283.66613178628336, 284.8152633274678, 285.96404869153133,
    287.1124902785137, 288.26059046084623, 289.408351583794,
    290.55577596588955, 291.70286589935785, 292.8496236505319,
    293.9960514602606, 295.1421515443086, 296.28792609374676,
    297.4333772753368, 298.5785072319062, 299.723318082718,
    300.8678119238308, 302.01199082845386, 303.15585684729365,
    304.29941200889493, 305.44265831997444, 306.585597765748,
    307.7282323102524, 308.8705638966596, 310.0125944475865,
    311.15432586539765, 312.2957600325029, 313.4368988116489,
    314.577744046206, 315.7182975604492, 316.8585611598332,
    317.99853663126413, 319.1382257433653, 320.2776302467366,
    321.4167518742126, 322.5555923411123, 323.6941533454872,
    324.832436568363, 325.9704436739779, 327.10817631001635,
    328.2456361078387, 329.38282468270694, 330.51974363400586,
    331.65639454546084, 332.792778985352, 333.92889850672384,
    335.064754647592, 336.20034893114575, 337.3356828659478,
    338.4707579461297, 339.6055756515849, 340.7401374481575,
    341.87444478782874, 343.00849910889946, 344.14230183617025,
    345.2758543811179, 346.4091581420694, 347.54221450437285,
    348.67502484056536, 349.8075905105384, 350.9399128617002,
    352.0719932291357, 353.2038329357641, 354.3354332924929,
    355.4667955983703, 356.5979211407352, 357.7288111953638,
    358.85946702661516, 359.9898898875733, 361.12008102018774,
    362.25004165541105, 363.3797730133354, 364.5092763033259,
    365.63855272415196, 366.76760346411726, 367.8964297011868,
    369.0250326031128, 370.153413327558, 371.2815730222173,
    372.40951282493756, 373.5372338638357, 374.6647372574143,
    375.79202411467656, 376.9190955352382, 378.04595260943915,
    379.17259641845186, 380.2990280343895, 381.4252485204115,
    382.55125893082834, 383.67706031120383, 384.80265369845654,
    385.9280401209598, 387.0532205986397, 388.1781961430719,
    389.3029677575773, 390.42753643731567, 391.5519031693787,
    392.6760689328811, 393.80003469905034, 394.9238014313157,
    396.0473700853956, 397.1707416093833, 398.29391694383236,
    399.4168970218401, 400.53968276912997, 401.66227510413313,
    402.7846749380683, 403.9068831750211, 405.0289007120221,
    406.15072843912304, 407.27236723947345, 408.39381798939456,
    409.5150815584536, 410.6361588095361, 411.75705059891783,
    412.87775777633505, 413.99828118505474, 415.118621661943,
    416.23878003753293, 417.3587571360916, 418.47855377568595,
    419.598170768248, 420.717608919639, 421.8368690297129,
    422.9559518923785, 424.07485829566167, 425.19358902176583,
    426.31214484713206, 427.43052654249857, 428.5487348729588,
    429.6667705980195, 430.7846344716575, 431.902327242376,
    433.0198496532597, 434.13720244203023, 435.2543863410995,
    436.37140207762366, 437.4882503735551, 438.60493194569506,
    439.72144750574455, 440.83779776035516, 441.953983411179,
    443.07000515491825, 444.1858636833737, 445.301559683493,
    446.4170938374183, 447.53246682253285, 448.6476793115077,
    449.7627319723474, 450.87762546843504, 451.992360458577,
    453.106937597047, 454.22135753362977, 455.3356209136639,
    456.4497283780842, 457.5636805634641, 458.6774781020567,
    459.79112162183577, 460.9046117465363, 462.01794909569446,
    463.1311342846868, 464.24416792476984, 465.3570506231177,
    466.46978298286103, 467.5823656031242, 468.6947990790624,
    469.8070840018986, 470.91922095895956, 472.03121053371194,
    473.14305330579754, 474.2547498510685, 475.36630074162156,
    476.4777065458327, 477.5889678283906, 478.70008515033015,
    479.8110590690656, 480.9218901384229, 482.03257890867224,
    483.14312592655966, 484.253531735339, 485.3637968748024,
    486.4739218813118, 487.5839072878288, 488.69375362394527,
    489.8034614159127, 490.91303118667173, 492.0224634558814,
    493.1317587399478, 494.2409175520524, 495.3499404021804,
    496.45882779714833, 497.56758024063174, 498.67619823319205,
    499.7846822723039, 500.8930328523813, 502.0012504648043,
    503.1093355979447, 504.217288737192, 505.3251103649786,
    506.4328009608052, 507.5403610012654, 508.6477909600707,
    509.75509130807455, 510.8622625132964, 511.9693050409458,
    513.0762193534458, 514.183005910456, 515.2896651688962,
    516.3961975829689, 517.5026036041814, 518.6088836813693,
    519.7150382607172, 520.8210677857816, 521.9269726975122,
    523.032753434273, 524.1384104318643, 525.2439441235423,
    526.3493549400414, 527.4546433095935, 528.5598096579488,
    529.6648544083959, 530.7697779817817, 531.8745807965307,
    532.9792632686651, 534.0838258118238, 535.1882688372809,
    536.2925927539656, 537.3967979684799, 538.5008848851181,
    539.6048539058842, 540.7087054305106, 541.8124398564755,
    542.9160575790213, 544.0195589911717, 545.1229444837493,
    546.2262144453928, 547.3293692625737, 548.4324093196138,
    549.5353349987017, 550.6381466799089, 551.7408447412067,
    552.8434295584824, 553.9459015055546, 555.0482609541905,
    556.1505082741202, 557.252643833053, 558.354667996693,
    559.4565811287539, 560.5583835909745, 561.6600757431333,
    562.7616579430638, 563.8631305466688, 564.9644939079352,
    566.0657483789483, 567.1668943099062, 568.2679320491336,
    569.368861943096, 570.469684336414, 571.5703995718764,
    572.6710079904535, 573.771509931312, 574.8719057318268,
    575.9721957275951, 577.0723802524493, 578.1724596384695,
    579.2724342159971, 580.3723043136472, 581.472070258321,
    582.5717323752185, 583.6712909878511, 584.770746418053,
    585.8700989859946, 586.9693490101934, 588.0684968075265,
    589.1675426932422, 590.266486980972, 591.3653299827419,
    592.4640720089836, 593.5627133685466, 594.6612543687091,
    595.7596953151889, 596.858036512155, 597.9562782622379,
    599.0544208665412, 600.1524646246522, 601.2504098346521,
    602.3482567931268, 603.4460057951776, 604.5436571344316,
    605.6412111030515, 606.7386679917465, 607.8360280897817,
    608.9332916849888, 610.0304590637755, 611.1275305111354,
    612.2245063106583, 613.321386744539, 614.4181720935876,
    615.5148626372387,
)
