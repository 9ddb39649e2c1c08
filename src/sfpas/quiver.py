"""Quiver factorization problems: moment maps, a numerical Kempf-Ness
polystability oracle, a Hamiltonian-identity checker, and a properness
refuter.

Two symmetry shapes are supported, covering every worked family:
products of vertex unitary groups over a vertex subset S, and kernels of
torus epimorphisms (all dimensions 1, indexed by arrows).

Sign and metric conventions, fixed once for the whole module:

* moment values live in the Hermitian model of i k (the i factor is
  dropped); at a vertex v in S the block is
  (1/2)(sum_{s(a)=v} f_a* f_a - sum_{t(a)=v} Tr_0(f_a f_a*)) - t_v Id,
  and in the torus case the vector p_v((|z_j|^2 / 2 - a_j)_j) in fixed
  cokernel coordinates;
* the Hermitian product h is conjugate-linear in the first slot,
  omega(a, b) = -Im h(a, b), and the pairing on i k is sum Tr(A_v B_v);
* a Hermitian tuple xi generates the one-parameter flow exp(-is xi), so
  its vector field is X_xi(f)_a = -i((xi_t (x) id) f_a - f_a xi_s) on a
  vertex product and X_xi(z)_j = +i xi_j z_j on a torus kernel (arrows
  carry weight one on their own circle factor).

These choices make the Hamiltonian identity hold exactly in the scalar
case and are verified numerically by hamiltonian_check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError
from .linalg import CMatrix, HermitianTuple, ZERO, parse_fraction, parse_int
from .toric import ToricMatrix
from .verdict import Verdict


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    dst: str


class Quiver:
    """A finite quiver; vertex and arrow names are strings."""

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices, arrows):
        vertices = tuple(str(v) for v in vertices)
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex ids")
        arr = []
        for a in arrows:
            if isinstance(a, Arrow):
                arr.append(Arrow(str(a.name), str(a.src), str(a.dst)))
            else:
                name, src, dst = a
                arr.append(Arrow(str(name), str(src), str(dst)))
        names = [a.name for a in arr]
        if len(set(names)) != len(names):
            raise InputError("duplicate arrow ids")
        vs = set(vertices)
        for a in arr:
            if a.src not in vs or a.dst not in vs:
                raise InputError(f"arrow {a.name} has unknown endpoint")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", tuple(arr))

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")


class QuiverDims:
    """Vertex dimensions dim W_v and per-arrow twist dimensions dim W_a^0."""

    __slots__ = ("vertex_dim", "twist_dim")

    def __init__(self, quiver: Quiver, vertex_dim, twist_dim=None):
        vd = {str(k): parse_int(v) for k, v in vertex_dim.items()}
        td = {str(k): parse_int(v) for k, v in (twist_dim or {}).items()}
        for v in quiver.vertices:
            if v not in vd:
                raise InputError(f"missing dimension for vertex {v}")
            if vd[v] < 1:
                raise InputError(f"vertex dimension must be positive: {v}")
        for a in quiver.arrows:
            td.setdefault(a.name, 1)
            if td[a.name] < 1:
                raise InputError(f"twist dimension must be positive: {a.name}")
        object.__setattr__(self, "vertex_dim", vd)
        object.__setattr__(self, "twist_dim", td)

    def __setattr__(self, name, value):
        raise AttributeError("QuiverDims is immutable")

    def map_shape(self, arrow: Arrow):
        return (
            self.vertex_dim[arrow.dst] * self.twist_dim[arrow.name],
            self.vertex_dim[arrow.src],
        )


@dataclass(frozen=True)
class FullVertexProduct:
    """K = product of the vertex unitary groups over the subset S."""

    vertices: frozenset

    def __init__(self, vertices):
        vs = frozenset(str(v) for v in vertices)
        if not vs:
            raise InputError("FullVertexProduct needs a nonempty vertex subset")
        object.__setattr__(self, "vertices", vs)


@dataclass(frozen=True)
class TorusKernel:
    """K = kernel of the torus epimorphism with differential matrix v.

    Requires every vertex and twist dimension to be 1; the r columns are
    indexed by the arrows in quiver order, each arrow scaling with
    weight one under its own circle factor.
    """

    matrix: ToricMatrix

    def __init__(self, matrix):
        tm = matrix if isinstance(matrix, ToricMatrix) else ToricMatrix(matrix)
        object.__setattr__(self, "matrix", tm)


class QuiverProblem:
    """A quiver with dimensions and a symmetry-subgroup specification."""

    __slots__ = ("quiver", "dims", "symmetry", "s_order")

    def __init__(self, quiver: Quiver, dims: QuiverDims, symmetry):
        if isinstance(symmetry, FullVertexProduct):
            missing = symmetry.vertices - set(quiver.vertices)
            if missing:
                raise InputError(f"symmetry vertices not in the quiver: {sorted(missing)}")
            s_order = tuple(v for v in quiver.vertices if v in symmetry.vertices)
        elif isinstance(symmetry, TorusKernel):
            if any(dims.vertex_dim[v] != 1 for v in quiver.vertices) or any(
                dims.twist_dim[a.name] != 1 for a in quiver.arrows
            ):
                raise InputError("TorusKernel requires all vertex and twist dimensions 1")
            if symmetry.matrix.r != len(quiver.arrows):
                raise InputError(
                    f"torus matrix has {symmetry.matrix.r} columns for {len(quiver.arrows)} arrows"
                )
            s_order = ()
        else:
            raise InputError("symmetry must be FullVertexProduct or TorusKernel")
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "symmetry", symmetry)
        object.__setattr__(self, "s_order", s_order)

    def __setattr__(self, name, value):
        raise AttributeError("QuiverProblem is immutable")

    def validate_point(self, point: "QuiverPoint"):
        for a in self.quiver.arrows:
            if a.name not in point.maps:
                raise InputError(f"point missing map for arrow {a.name}")
            m = point.maps[a.name]
            if (m.rows, m.cols) != self.dims.map_shape(a):
                raise InputError(
                    f"map {a.name} has shape {(m.rows, m.cols)}, expected {self.dims.map_shape(a)}"
                )

    def validate_level(self, level: "Level"):
        if isinstance(self.symmetry, FullVertexProduct):
            if level.kind != "vertex":
                raise InputError("vertex-product symmetry needs a per-vertex level")
            for v in self.s_order:
                if v not in level.values:
                    raise InputError(f"level missing value for vertex {v}")
        else:
            if level.kind != "torus":
                raise InputError("torus-kernel symmetry needs a vector level")
            if len(level.vector) != self.symmetry.matrix.r:
                raise InputError("level vector length must match the number of arrows")


@dataclass(frozen=True)
class QuiverPoint:
    """A point of the representation space: one matrix per arrow."""

    maps: dict

    def __init__(self, maps):
        object.__setattr__(self, "maps", {str(k): v for k, v in maps.items()})

    def mode(self):
        modes = {m.mode for m in self.maps.values()}
        if len(modes) > 1:
            raise InputError("mixed-mode quiver point")
        return modes.pop() if modes else "exact"

    def to_float(self) -> "QuiverPoint":
        return QuiverPoint({k: m.to_float() for k, m in self.maps.items()})


class Level:
    """A central level: per-vertex rationals, or a torus vector read
    modulo the row space of the symmetry matrix."""

    __slots__ = ("kind", "values", "vector")

    def __init__(self, kind, values=None, vector=None):
        if kind not in ("vertex", "torus"):
            raise InputError("level kind must be 'vertex' or 'torus'")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self, "values", {str(k): Fraction(v) for k, v in (values or {}).items()}
        )
        object.__setattr__(
            self, "vector", tuple(Fraction(x) for x in (vector or ()))
        )

    def __setattr__(self, name, value):
        raise AttributeError("Level is immutable")

    @staticmethod
    def vertex(values) -> "Level":
        return Level("vertex", values=values)

    @staticmethod
    def torus(vector) -> "Level":
        return Level("torus", vector=vector)

    @staticmethod
    def zero(problem: QuiverProblem) -> "Level":
        if isinstance(problem.symmetry, FullVertexProduct):
            return Level.vertex({v: 0 for v in problem.s_order})
        return Level.torus([0] * problem.symmetry.matrix.r)


@dataclass
class FlowConfig:
    step: float = 0.1
    max_iter: int = 100_000
    tol: float = 1e-8
    seed: int = 0
    # relative-gradient threshold recognizing a critical point of the
    # energy: there the moment value itself is a numerical destabilizer
    crit_rtol: float = 1e-6


# sufficient-decrease constant of the Armijo backtracking
ARMIJO_C = 1e-4
# a flow stops at a plateau when E fell by at most PLATEAU_RTOL
# (relative) over PLATEAU_WINDOW accepted steps
PLATEAU_WINDOW = 100
PLATEAU_RTOL = 1e-14
# a converged flow is StrictlySemistable when the smallest singular
# value of the infinitesimal action at its limit is at most this
STABILIZER_TOL = 1e-6
# a properness witness must keep this much norm
NORM_FLOOR = 1e-2
# a flow reaching the zero level only through a group element this
# badly conditioned certifies nothing (stratum leakage via roundoff)
MAX_GROUP_COND = 1e8


class StopReason(str, enum.Enum):
    """Why kempf_ness_flow stopped."""

    CONVERGED = "converged"  # energy < tol^2
    CRITICAL = "critical"  # zero or relatively tiny gradient
    PLATEAU = "plateau"  # energy flat over PLATEAU_WINDOW steps
    STEP_FLOOR = "step_floor"  # no step >= 1e-18 passes the Armijo test
    WEIGHT_BOUND = "weight_bound"  # moment-weight certificate of instability
    DIVERGED = "diverged"  # energy or gradient not finite
    MAX_ITER = "max_iter"


@dataclass
class FlowResult:
    final_point: QuiverPoint
    final_energy: float
    iterations: int
    verdict: Verdict
    stop_reason: StopReason
    # the lower bound on inf |mu| over the orbit that ended the flow
    # (StopReason.WEIGHT_BOUND); NaN otherwise
    weight_bound: float = field(default=float("nan"))
    # certificates whose bound exceeded the current |mu|, which the
    # moment-weight inequality forbids: a misfire of the zero test
    discarded_certificates: int = 0
    stabilizer_sigma_min: float = field(default=float("nan"))
    group_cond: float = 1.0
    energy_history: list = field(default_factory=list, repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason is StopReason.CONVERGED

    @property
    def plateaued(self) -> bool:
        return self.stop_reason in (
            StopReason.CRITICAL,
            StopReason.PLATEAU,
            StopReason.STEP_FLOOR,
        )

    @property
    def diverged(self) -> bool:
        return self.stop_reason is StopReason.DIVERGED


# -- moment map --------------------------------------------------------


def _partial_trace_exact(f: CMatrix, d_t: int, tw: int) -> CMatrix:
    """Tr over the twist factor of f f* for exact f of shape (d_t*tw, d_s)."""
    ent = f.entries
    d_s = f.cols
    out = []
    for i in range(d_t):
        row = []
        for j in range(d_t):
            acc = ZERO
            for alpha in range(tw):
                for s in range(d_s):
                    acc = acc + ent[i * tw + alpha][s] * ent[j * tw + alpha][s].conj()
            row.append(acc)
        out.append(row)
    return CMatrix(out)


def moment_map(problem: QuiverProblem, point: QuiverPoint, level: Level):
    """The moment map value at a point, in the module's Hermitian model.

    Vertex-product symmetry returns a HermitianTuple with one block per
    vertex of S (quiver order); torus-kernel symmetry returns the
    cokernel coordinate vector (exact Fractions for an exact point, a
    float array otherwise).
    """
    problem.validate_point(point)
    problem.validate_level(level)
    if isinstance(problem.symmetry, TorusKernel):
        tm = problem.symmetry.matrix
        if point.mode() == "exact":
            b = []
            for a in problem.quiver.arrows:
                z = point.maps[a.name].entries[0][0]
                b.append(z.abs2() / 2 - level.vector[len(b)])
            return tm.p_v(b)
        zs = _float_maps(problem, point)
        b = np.array(
            [abs(zs[a.name][0, 0]) ** 2 / 2.0 for a in problem.quiver.arrows]
        ) - np.array([float(x) for x in level.vector])
        return b @ _coker_matrix(tm)

    if point.mode() == "exact":
        blocks = []
        for v in problem.s_order:
            d = problem.dims.vertex_dim[v]
            acc = CMatrix.zeros(d, d)
            for a in problem.quiver.arrows:
                f = point.maps[a.name]
                if a.src == v:
                    acc = acc + (f.adjoint() @ f)
                if a.dst == v:
                    acc = acc - _partial_trace_exact(f, d, problem.dims.twist_dim[a.name])
            half = acc.scale(Fraction(1, 2))
            blocks.append(half - CMatrix.identity(d).scale(level.values[v]))
        return HermitianTuple(blocks)

    maps = _float_maps(problem, point)
    blocks = _moment_blocks_float(problem, maps, _float_level(problem, level))
    return HermitianTuple([CMatrix.from_numpy(b) for b in blocks])


def _coker_matrix(tm: ToricMatrix) -> np.ndarray:
    # columns are the fixed kernel basis of v; shape (r, r - m)
    if not tm.coker:
        return np.zeros((tm.r, 0))
    return np.array([[float(vec[j]) for vec in tm.coker] for j in range(tm.r)])


def _float_maps(problem, point):
    return {a.name: point.maps[a.name].to_numpy() for a in problem.quiver.arrows}


def _float_level(problem, level):
    if isinstance(problem.symmetry, FullVertexProduct):
        return {v: float(level.values[v]) for v in problem.s_order}
    return np.array([float(x) for x in level.vector])


def _moment_blocks_float(problem, maps, lvl):
    blocks = []
    for v in problem.s_order:
        d = problem.dims.vertex_dim[v]
        acc = np.zeros((d, d), dtype=complex)
        for a in problem.quiver.arrows:
            f = maps[a.name]
            if a.src == v:
                acc += f.conj().T @ f
            if a.dst == v:
                fr = f.reshape(d, -1)  # rows: target index; columns: (twist, source)
                acc -= fr @ fr.conj().T
        blocks.append(acc / 2.0 - lvl[v] * np.eye(d))
    return blocks


def _norm2(x) -> float:
    return float(np.vdot(x, x).real)


def _energy_and_data(problem, maps, lvl, coker):
    """Energy ||mu||^2 together with the data the gradient needs."""
    if isinstance(problem.symmetry, TorusKernel):
        order = [a.name for a in problem.quiver.arrows]
        b = np.array([abs(maps[n][0, 0]) ** 2 / 2.0 for n in order]) - lvl
        c = b @ coker
        return float(c @ c), c
    blocks = _moment_blocks_float(problem, maps, lvl)
    energy = sum(_norm2(b) for b in blocks)
    return energy, blocks


def _gradient(problem, maps, data, coker):
    """Euclidean gradient of ||mu||^2; tangent to the complexified orbit."""
    if isinstance(problem.symmetry, TorusKernel):
        c = data
        pull = coker @ c  # length r
        out = {}
        for j, a in enumerate(problem.quiver.arrows):
            out[a.name] = 2.0 * pull[j] * maps[a.name]
        return out
    m_of = dict(zip(problem.s_order, data))
    out = {}
    for a in problem.quiver.arrows:
        f = maps[a.name]
        g = np.zeros_like(f)
        if a.src in m_of:
            g = g + f @ m_of[a.src]
        if a.dst in m_of:
            d_t = problem.dims.vertex_dim[a.dst]
            g = g - (m_of[a.dst] @ f.reshape(d_t, -1)).reshape(f.shape)
        out[a.name] = 2.0 * g
    return out


class _OrbitStepper:
    """Applies the descent direction through the group exponential.

    The Euclidean gradient of ||mu||^2 is the infinitesimal action of
    the Hermitian tuple 2 mu(p), so the exact descent path is
    f_a(s) = (e^{2 s M_t} (x) id) f_a e^{-2 s M_s}.  Stepping through
    the exponential keeps every iterate on the complexified orbit (in
    particular map ranks never jump), which additive updates violate at
    second order in the step; off-orbit leakage can turn an unstable
    point into a spurious moment-map zero.
    """

    def __init__(self, problem, maps, data, coker):
        self.problem = problem
        self.maps = maps
        self.torus = isinstance(problem.symmetry, TorusKernel)
        if self.torus:
            self.pull = coker @ data  # length r, real
        else:
            self.eigs = {}
            for v, m_v in zip(problem.s_order, data):
                self.eigs[v] = np.linalg.eigh(m_v)

    def group_factors(self, s):
        """exp(2 s M_v) per symmetry vertex (torus: per-arrow scales)."""
        if self.torus:
            return np.exp(-2.0 * s * self.pull)
        return {
            v: (vecs * np.exp(2.0 * s * w)) @ vecs.conj().T
            for v, (w, vecs) in self.eigs.items()
        }

    def at(self, s, factors=None):
        factors = self.group_factors(s) if factors is None else factors
        if self.torus:
            return {
                a.name: factors[j] * self.maps[a.name]
                for j, a in enumerate(self.problem.quiver.arrows)
            }
        out = {}
        for a in self.problem.quiver.arrows:
            f = self.maps[a.name]
            if a.dst in factors:
                d_t = self.problem.dims.vertex_dim[a.dst]
                f = (factors[a.dst] @ f.reshape(d_t, -1)).reshape(f.shape)
            if a.src in factors:
                g, gv = self.eigs[a.src]
                inv = (gv * np.exp(-2.0 * s * g)) @ gv.conj().T
                f = f @ inv
            out[a.name] = f
        return out


def _point_norm(maps):
    return math.sqrt(sum(_norm2(f) for f in maps.values()))


# -- the weight-bound certificate of instability ------------------------
#
# Moment-weight inequality (Georgoulas-Robbin-Salamon, arXiv:1311.0410;
# Kirwan 1984; Ness 1984): for every nonzero Hermitian tuple eta,
# -w(x, eta) / |eta| <= inf over g in G^c of |mu(g x)|, with the weight
# w(x, eta) = lim_{s -> oo} <mu(exp(-s eta) x), eta>.  Here exp(-s eta)
# sends f_a to (e^{-s eta_t} (x) id) f_a e^{s eta_s}, so in eigenbases of
# eta the block of f_a from a source weight lam to a target weight kap
# scales by e^{s (lam - kap)}.  When every block with kap < lam is zero
# the limit exists and w(x, eta) = -sum_v t_v Tr eta_v, the level part of
# <mu(x), eta>.  The thresholds below are heuristics, like
# STABILIZER_TOL; the inequality itself is exact.

# accepted steps between two certificate checks; the first is at step 0
WEIGHT_CHECK_EVERY = 10
# weights of eta closer than this (single linkage) merge into their mean
WEIGHT_CLUSTER_GAP = 1e-3
# the destabilizing blocks (kap < lam) count as zero when their joint
# norm is at most this times |x|
WEIGHT_ZERO_RTOL = 1e-9
# a bound above sqrt(E) (1 + this) contradicts the inequality, since the
# current point lies on the orbit: the zero test misfired, so the
# certificate is discarded
WEIGHT_CONTRADICTION_RTOL = 1e-9


def _weight_bound(problem, maps, eigs, lvl, xnorm):
    """Moment-weight lower bound on inf |mu| over the orbit of maps, or
    None when the destabilizing blocks are not zero.

    eta_v has the eigenvectors of the moment block mu_v (eigs, the
    eigendecompositions _OrbitStepper computed) and its eigenvalues
    negated; vertices outside S carry the fixed weight 0.  All weights
    and that 0 are clustered together and each is replaced by its
    cluster mean, the cluster holding 0 getting exactly 0.  The result
    eta' is a Hermitian tuple whatever the rounding, so the bound
    sum_v t_v Tr eta'_v / |eta'| holds once the zero test is right.
    """
    s_order = problem.s_order
    weights = np.concatenate([-eigs[v][0] for v in s_order] + [np.zeros(1)])
    order = np.argsort(weights, kind="stable")
    ranked = weights[order]
    ranked_ids = np.concatenate(([0], np.cumsum(np.diff(ranked) > WEIGHT_CLUSTER_GAP)))
    cluster = np.empty(len(weights), dtype=int)
    cluster[order] = ranked_ids  # cluster ids ascend with the weights
    means = np.bincount(ranked_ids, weights=ranked) / np.bincount(ranked_ids)
    zero = cluster[-1]
    means[zero] = 0.0
    ids, start = {}, 0
    for v in s_order:
        ids[v] = cluster[start : start + len(eigs[v][0])]
        start += len(ids[v])

    bad2 = 0.0
    for a in problem.quiver.arrows:
        f = maps[a.name]
        if a.src in ids:
            f = f @ eigs[a.src][1]
            src = ids[a.src]
        else:
            src = np.full(f.shape[1], zero)
        if a.dst in ids:
            dst = ids[a.dst]
            f = (eigs[a.dst][1].conj().T @ f.reshape(len(dst), -1)).reshape(f.shape)
            dst = np.repeat(dst, problem.dims.twist_dim[a.name])
        else:
            dst = np.full(f.shape[0], zero)
        bad2 += _norm2(f[dst[:, None] < src[None, :]])
    if bad2 > (WEIGHT_ZERO_RTOL * xnorm) ** 2:
        return None
    eta = [means[ids[v]] for v in s_order]
    norm = math.sqrt(sum(_norm2(e) for e in eta))
    if norm == 0.0:
        return None
    return sum(lvl[v] * float(e.sum()) for v, e in zip(s_order, eta)) / norm


def kempf_ness_flow(
    problem: QuiverProblem, point: QuiverPoint, level: Level, cfg: FlowConfig = None
) -> FlowResult:
    """Gradient descent on the moment-map energy E = |mu|^2 along the
    complexified orbit.

    Every step moves through the group exponential (_OrbitStepper), so
    the iterate never leaves the orbit, with Armijo backtracking
    (c = ARMIJO_C, halving, starting from twice the last accepted
    step), so E never rises.  A trial whose group factors or energy are
    not finite (the exponential overflowed at a long step) is rejected
    like one that fails the Armijo test.

    The stop reason (FlowResult.stop_reason) is the first of these tests
    to hold: CONVERGED when E < tol^2; MAX_ITER after max_iter accepted
    steps; DIVERGED when E or the gradient is not finite; CRITICAL at a
    zero gradient, or at a relative gradient below crit_rtol while
    E >= 10 tol^2; WEIGHT_BOUND when the moment-weight certificate bounds
    inf |mu| over the orbit above sqrt(10) tol; STEP_FLOOR when no step
    down to 1e-18 is accepted; PLATEAU when E fell by at most
    PLATEAU_RTOL (relative) over PLATEAU_WINDOW accepted steps.

    The certificate (vertex-product symmetry only) runs at step 0 and
    every WEIGHT_CHECK_EVERY accepted steps on the eigendecompositions
    the stepper already holds.  It takes eta' = -mu(x) with its spectrum
    clustered (see _weight_bound); when the blocks of x that eta' would
    blow up are zero, the moment-weight inequality of
    Georgoulas-Robbin-Salamon gives inf |mu| >= B = sum_v t_v Tr eta'_v
    / |eta'|.  A B above sqrt(E) (1 + WEIGHT_CONTRADICTION_RTOL)
    contradicts the inequality at the current point, so it is counted in
    discarded_certificates and never acted on.

    Verdicts: CONVERGED gives Stable, StrictlySemistable when the
    stabilizer estimate is at most STABILIZER_TOL, or Borderline when
    the accumulated group element is worse conditioned than
    MAX_GROUP_COND; WEIGHT_BOUND and DIVERGED give Unstable; CRITICAL,
    PLATEAU and STEP_FLOOR give Unstable when E >= 10 tol^2 and
    Borderline otherwise; MAX_ITER gives Borderline.  The certificate
    only ever ends a flow as Unstable, and at level zero B is 0, so it
    never fires there.
    """
    cfg = cfg or FlowConfig()
    problem.validate_point(point)
    problem.validate_level(level)
    maps = _float_maps(problem, point)
    lvl = _float_level(problem, level)
    torus = isinstance(problem.symmetry, TorusKernel)
    coker = _coker_matrix(problem.symmetry.matrix) if torus else None

    tol2 = cfg.tol * cfg.tol
    bound_floor = math.sqrt(10.0) * cfg.tol
    energy, data = _energy_and_data(problem, maps, lvl, coker)
    step = cfg.step
    iterations = 0
    weight_bound = float("nan")
    discarded = 0
    window_start = energy
    history = [float(energy)]
    group = None if torus else {
        v: np.eye(problem.dims.vertex_dim[v], dtype=complex) for v in problem.s_order
    }
    while True:
        if energy < tol2:
            reason = StopReason.CONVERGED
            break
        if iterations >= cfg.max_iter:
            reason = StopReason.MAX_ITER
            break
        grad = _gradient(problem, maps, data, coker)
        gnorm2 = sum(_norm2(g) for g in grad.values())
        if not (math.isfinite(energy) and math.isfinite(gnorm2)):
            reason = StopReason.DIVERGED
            break
        if gnorm2 == 0.0:
            reason = StopReason.CRITICAL
            break
        # near a critical point of the energy at positive level the moment
        # value is itself a destabilizing direction; stop before roundoff
        # can seed the unstable manifold and tunnel off the orbit stratum
        xnorm = _point_norm(maps)
        relcrit = math.sqrt(gnorm2) / (math.sqrt(energy) * (1.0 + xnorm))
        if energy >= 10.0 * tol2 and relcrit < cfg.crit_rtol:
            reason = StopReason.CRITICAL
            break
        stepper = _OrbitStepper(problem, maps, data, coker)
        if not torus and iterations % WEIGHT_CHECK_EVERY == 0:
            bound = _weight_bound(problem, maps, stepper.eigs, lvl, xnorm)
            if bound is not None:
                if bound > math.sqrt(energy) * (1.0 + WEIGHT_CONTRADICTION_RTOL):
                    discarded += 1
                elif bound > bound_floor:
                    weight_bound = bound
                    reason = StopReason.WEIGHT_BOUND
                    break
        s = step
        accepted = False
        while s >= 1e-18:
            with np.errstate(over="ignore", invalid="ignore"):
                factors = stepper.group_factors(s)
                trial = stepper.at(s, factors)
                e_new, d_new = _energy_and_data(problem, trial, lvl, coker)
            if (
                math.isfinite(e_new)
                and e_new <= energy - ARMIJO_C * s * gnorm2
                and _all_finite(factors)
            ):
                maps, energy, data = trial, e_new, d_new
                if group is not None:
                    for v in group:
                        group[v] = factors[v] @ group[v]
                accepted = True
                break
            s *= 0.5
        if not accepted:
            reason = StopReason.STEP_FLOOR  # no descent direction left
            break
        history.append(float(energy))
        step = min(s * 2.0, 1e6)
        iterations += 1
        if iterations % PLATEAU_WINDOW == 0:
            if window_start - energy <= PLATEAU_RTOL * max(window_start, 1e-300):
                reason = StopReason.PLATEAU
                break
            window_start = energy

    group_cond = 1.0
    if group is not None:
        for g in group.values():
            # LAPACK writes to stdout when handed inf or nan: test first
            svals = np.linalg.svd(g, compute_uv=False) if np.isfinite(g).all() else [0.0]
            if svals[-1] <= 0 or not np.isfinite(svals[0]):
                group_cond = float("inf")
            else:
                group_cond = max(group_cond, float(svals[0] / svals[-1]))
    sigma_min = float("nan")
    if reason is StopReason.CONVERGED:
        if group_cond > MAX_GROUP_COND:
            verdict = Verdict.BORDERLINE  # zero reached only at the orbit's edge
        else:
            sigma_min = _stabilizer_sigma_min(problem, maps, coker)
            verdict = (
                Verdict.STABLE
                if sigma_min > STABILIZER_TOL
                else Verdict.STRICTLY_SEMISTABLE
            )
    elif reason in (StopReason.WEIGHT_BOUND, StopReason.DIVERGED):
        verdict = Verdict.UNSTABLE
    elif reason is not StopReason.MAX_ITER and energy >= 10.0 * tol2:
        # critical, plateau or step floor
        verdict = Verdict.UNSTABLE
    else:
        verdict = Verdict.BORDERLINE

    final = QuiverPoint({k: CMatrix.from_numpy(v) for k, v in maps.items()})
    return FlowResult(
        final_point=final,
        final_energy=float(energy),
        iterations=iterations,
        verdict=verdict,
        stop_reason=reason,
        weight_bound=weight_bound,
        discarded_certificates=discarded,
        stabilizer_sigma_min=sigma_min,
        group_cond=group_cond,
        energy_history=history,
    )


def _all_finite(factors) -> bool:
    values = factors.values() if isinstance(factors, dict) else (factors,)
    return all(np.isfinite(g).all() for g in values)


def _hermitian_basis(d):
    """A real orthogonal basis of the d x d Hermitian matrices."""
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = inv_sqrt2
            e[j, i] = inv_sqrt2
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = -1j * inv_sqrt2
            e[j, i] = 1j * inv_sqrt2
            basis.append(e)
    return basis


def _apply_xi_vertex(problem, maps, vertex, xi):
    """X_xi for a Hermitian generator xi supported at one vertex."""
    out = {}
    for a in problem.quiver.arrows:
        f = maps[a.name]
        x = np.zeros_like(f)
        if a.dst == vertex:
            d_t = problem.dims.vertex_dim[a.dst]
            x = x + (xi @ f.reshape(d_t, -1)).reshape(f.shape)
        if a.src == vertex:
            x = x - f @ xi
        out[a.name] = -1j * x
    return out


def _stabilizer_sigma_min(problem, maps, coker):
    """Smallest singular value of the infinitesimal-action matrix.

    Columns are the vector fields of a real basis of i k evaluated at
    the point; a real basis of i k is a complex basis of the
    complexified Lie algebra, so a zero singular value detects a
    positive-dimensional complexified stabilizer.
    """
    cols = []
    if isinstance(problem.symmetry, TorusKernel):
        order = [a.name for a in problem.quiver.arrows]
        z = np.array([maps[n][0, 0] for n in order])
        for k in range(coker.shape[1]):
            cols.append(1j * coker[:, k] * z)
        if not cols:
            return float("inf")
        mat = np.stack(cols, axis=1)
    else:
        for v in problem.s_order:
            for xi in _hermitian_basis(problem.dims.vertex_dim[v]):
                flow = _apply_xi_vertex(problem, maps, v, xi)
                cols.append(
                    np.concatenate(
                        [flow[a.name].ravel() for a in problem.quiver.arrows]
                    )
                )
        mat = np.stack(cols, axis=1)
    svals = np.linalg.svd(mat, compute_uv=False)
    return float(svals[-1]) if len(svals) else float("inf")


def numerical_stability_verdict(
    problem: QuiverProblem, point: QuiverPoint, level: Level, cfg: FlowConfig = None
) -> Verdict:
    """Classify a point by flowing it: Stable needs energy < tol^2 and a
    trivial stabilizer estimate, StrictlySemistable a positive-dimensional
    one, Unstable a moment-weight certificate or an energy plateau above
    10 tol^2, Borderline the rest (see kempf_ness_flow)."""
    return kempf_ness_flow(problem, point, level, cfg).verdict


# -- Hamiltonian identity ----------------------------------------------


def _pair_moment_xi(problem, maps, lvl, xi):
    if isinstance(problem.symmetry, TorusKernel):
        order = [a.name for a in problem.quiver.arrows]
        b = np.array([abs(maps[n][0, 0]) ** 2 / 2.0 for n in order]) - lvl
        return float(b @ np.asarray(xi, dtype=float))
    blocks = _moment_blocks_float(problem, maps, lvl)
    return float(sum(np.trace(b @ x).real for b, x in zip(blocks, xi)))


def _xi_vector_field(problem, maps, xi):
    if isinstance(problem.symmetry, TorusKernel):
        out = {}
        for j, a in enumerate(problem.quiver.arrows):
            out[a.name] = 1j * float(xi[j]) * maps[a.name]
        return out
    out = {a.name: np.zeros_like(maps[a.name]) for a in problem.quiver.arrows}
    for v, block in zip(problem.s_order, xi):
        part = _apply_xi_vertex(problem, maps, v, block)
        for name in out:
            out[name] = out[name] + part[name]
    return out


def hamiltonian_check(
    problem: QuiverProblem,
    point: QuiverPoint,
    level: Level,
    xi,
    w,
    h: float = 1e-5,
) -> float:
    """Relative error in the defining Hamiltonian identity.

    Compares the central finite difference of <mu(p + s w), xi> with
    omega(X_xi(p), w).  xi is a HermitianTuple over S (vertex product)
    or a vector in the kernel of the torus matrix; w maps arrow names to
    tangent matrices.  Returns |lhs - rhs| / (|lhs| + |rhs| + 1e-12).
    """
    if not 0 < h <= 1e-3:
        raise InputError("h must lie in (0, 1e-3]")
    problem.validate_point(point)
    problem.validate_level(level)
    maps = _float_maps(problem, point)
    lvl = _float_level(problem, level)
    w = {str(k): np.asarray(v, dtype=complex) for k, v in w.items()}
    for a in problem.quiver.arrows:
        if a.name not in w:
            raise InputError(f"tangent direction missing arrow {a.name}")

    if isinstance(problem.symmetry, TorusKernel):
        xi_val = [float(x) for x in xi]
        tm = problem.symmetry.matrix
        resid = [sum(tm.v[i][j] * xi_val[j] for j in range(tm.r)) for i in range(tm.m)]
        if max(abs(x) for x in resid) > 1e-9 * max(1.0, max(abs(x) for x in xi_val)):
            raise InputError("xi must lie in the kernel of the torus matrix")
    else:
        xi_val = [b.to_numpy() for b in xi]
        if len(xi_val) != len(problem.s_order):
            raise InputError("xi must have one block per symmetry vertex")

    plus = {k: f + h * w[k] for k, f in maps.items()}
    minus = {k: f - h * w[k] for k, f in maps.items()}
    lhs = (_pair_moment_xi(problem, plus, lvl, xi_val) - _pair_moment_xi(problem, minus, lvl, xi_val)) / (
        2.0 * h
    )
    x_field = _xi_vector_field(problem, maps, xi_val)
    rhs = -sum(
        np.sum(x_field[a.name].conj() * w[a.name]) for a in problem.quiver.arrows
    ).imag
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-12)


# -- properness refutation ---------------------------------------------


def random_point(problem: QuiverProblem, rng, norm=1.0) -> QuiverPoint:
    """A random float point of the given total norm (complex Gaussian)."""
    maps = {}
    for a in problem.quiver.arrows:
        shape = problem.dims.map_shape(a)
        maps[a.name] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    total = _point_norm(maps)
    if total > 0:
        maps = {k: norm * v / total for k, v in maps.items()}
    return QuiverPoint({k: CMatrix.from_numpy(v) for k, v in maps.items()})


def properness_refuter(problem: QuiverProblem, cfg: FlowConfig = None, trials: int = 20):
    """Search for a nonzero near-solution of mu_0 = 0.

    Runs the flow at level zero from unit-norm random starts; a flow
    limit with energy < tol^2 whose norm stays above NORM_FLOOR is
    returned unit-renormalized.  A None result is NOT a properness
    proof: the search is refutation-only.
    """
    cfg = cfg or FlowConfig()
    rng = np.random.default_rng(cfg.seed)
    level = Level.zero(problem)
    for _ in range(trials):
        start = random_point(problem, rng)
        res = kempf_ness_flow(problem, start, level, cfg)
        maps = {k: m.to_numpy() for k, m in res.final_point.maps.items()}
        norm = _point_norm(maps)
        if res.converged and norm >= NORM_FLOOR:
            unit = {k: CMatrix.from_numpy(v / norm) for k, v in maps.items()}
            return QuiverPoint(unit)
    return None


# -- JSON --------------------------------------------------------------


def problem_from_json(obj):
    """Parse {"quiver": ..., "dims": ..., "twists": ..., "symmetry": ...,
    "point": ..., "level": ...} into (problem, point, level); point and
    level may be absent (None)."""
    try:
        qobj = obj["quiver"]
        quiver = Quiver(
            qobj["vertices"],
            [(a["id"], a["src"], a["dst"]) for a in qobj["arrows"]],
        )
        dims = QuiverDims(quiver, obj["dims"], obj.get("twists"))
        sym = obj["symmetry"]
        if sym.get("type") == "vertex_product":
            symmetry = FullVertexProduct(sym["vertices"])
        elif sym.get("type") == "torus_kernel":
            symmetry = TorusKernel(sym["matrix"])
        else:
            raise InputError(f"unknown symmetry type {sym.get('type')!r}")
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad quiver problem JSON: {exc}") from exc
    problem = QuiverProblem(quiver, dims, symmetry)

    point = None
    if "point" in obj:
        point = QuiverPoint({k: CMatrix.from_json(v) for k, v in obj["point"].items()})
        problem.validate_point(point)

    level = None
    if "level" in obj:
        lv = obj["level"]
        if isinstance(problem.symmetry, FullVertexProduct):
            values = lv["values"] if isinstance(lv, dict) and "values" in lv else lv
            level = Level.vertex({k: parse_fraction(v) for k, v in values.items()})
        else:
            vec = lv["vector"] if isinstance(lv, dict) and "vector" in lv else lv
            level = Level.torus([parse_fraction(v) for v in vec])
        problem.validate_level(level)
    return problem, point, level
