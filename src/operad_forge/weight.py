"""Weight decompositions, purity, and formality certificates.

A weight function is carried by a rational base alpha (not 0 or a root
of unity, which over Q means alpha not in {0, 1, -1}) with w(alpha^n)
= n.  A chain endomorphism is pure of weight 0 when every eigenvalue of
H_i(f) equals alpha^i exactly; pure endomorphisms split a complex into
weight subcomplexes, and the functor keeping the canonical truncation
tau_{>= n} of the weight-n part realizes a zigzag of weak equivalences
between the complex and its homology.  Applied componentwise to an
operad with a pure endomorphism this certifies formality; the converse
search lifts a grading automorphism through the minimal model and
reports Inconclusive when some obstruction system has no solution
(non-formality is never certified).
"""

from __future__ import annotations

from fractions import Fraction

from .chain import (
    ChainComplex,
    ChainMap,
    induced_map,
    subcomplex,
)
from .minimal import (
    ObstructionError,
    endomorphism_with_prescribed_homology,
    minimal_model,
)
from .operad import (
    OperadMorphism,
    homology_operad,
    transfer,
    weak_equivalence_test,
)
from .qlinalg import (
    Matrix,
    _Frozen,
    _setfield,
    char_poly,
    kernel,
    rational_eigen_split,
    solve_matrix,
)


class PurityError(ValueError):
    """Raised when an endomorphism fails the purity check; carries the
    per-component failure report."""

    def __init__(self, failures):
        super().__init__("; ".join(failures[:5]))
        self.failures = failures


class WeightFunction(_Frozen):
    """w(alpha^n) = n on the cyclic group generated by alpha."""

    _fields = ("base",)

    def __init__(self, base):
        alpha = Fraction(base)
        _setfield(self, "base", alpha)
        if alpha in (0, 1, -1):
            raise ValueError("weight base must not be 0 or a root of unity")


class WeightDecomposition:
    """Per-degree splitting into pure weight subspaces and a residual.

    ``pure[n][d]`` and ``residual[d]`` are ambient-column basis
    matrices; each weight part and the residual are subcomplexes.
    """

    def __init__(self, complex, endomorphism, weight_function, pure, residual):
        self.complex = complex
        self.endomorphism = endomorphism
        self.weight_function = weight_function
        self.pure = pure
        self.residual = residual

    def weights(self):
        return sorted(self.pure)

    def pure_dim(self, n, d):
        mat = self.pure.get(n, {}).get(d)
        return mat.cols if mat is not None else 0

    def residual_dim(self, d):
        mat = self.residual.get(d)
        return mat.cols if mat is not None else 0

    def weight_part(self, n):
        return subcomplex(self.complex, self.pure.get(n, {}))

    def residual_part(self):
        return subcomplex(self.complex, self.residual)


def weight_decompose(c: ChainComplex, f: ChainMap,
                     w: WeightFunction) -> WeightDecomposition:
    """Primary decomposition of each degree, bucketed by weight.

    Eigenvalues alpha^n land in the weight-n part; all other eigenvalues,
    rational or not, are pooled into the non-pure part C.  Both are
    subcomplexes (checked).
    """
    if f.src is not c and f.src != c:
        raise ValueError("endomorphism must live on the complex")
    bound = max((abs(d) for d in c.dims), default=0) + 4
    weight_of = {w.base ** n: n for n in range(-bound, bound + 1)}
    pure = {}
    residual = {}
    for d in c.support:
        split = rational_eigen_split(f.block(d), weight_of)
        for lam, space in split.pairs:
            pure.setdefault(weight_of[lam], {})[d] = space.basis
        if split.residual.dim:
            residual[d] = split.residual.basis
    decomp = WeightDecomposition(c, f, w, pure, residual)
    # the parts must be subcomplexes; building them verifies it
    for n in decomp.weights():
        decomp.weight_part(n)
    decomp.residual_part()
    return decomp


def grading_automorphism(c: ChainComplex, alpha) -> ChainMap:
    """alpha^i times the identity in degree i (zero differential only)."""
    if c.diff:
        raise ValueError("grading automorphism requires a zero differential")
    alpha = Fraction(alpha)
    return ChainMap(c, c, {
        d: Matrix.identity(c.dim(d)).scale(alpha ** d) for d in c.dims},
        check=False)


class PureEndomorphism:
    """Certificate that H_i(f) is pure of weight i in every component."""

    def __init__(self, subject, endomorphism, weight_function,
                 homology_eigenvalues):
        self.subject = subject
        self.endomorphism = endomorphism
        self.weight_function = weight_function
        self.homology_eigenvalues = homology_eigenvalues


def _component_items(p, f):
    if isinstance(f, ChainMap):
        return [(None, p, f)]
    return [(key, p.component(key), f.block(key)) for key in p.keys()
            if not p.component(key).is_zero()]


def _poly_text(coeffs):
    """Coefficients (lowest degree first) as a polynomial in t."""
    text = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "t" if k == 1 else f"t^{k}" if k else ""
        text += (" - " if c < 0 else " + ") if text else ("-" if c < 0 else "")
        if abs(c) != 1 or not mono:
            text += str(abs(c)) + ("*" if mono else "")
        text += mono
    return text


def purity_check(p, f, w: WeightFunction) -> PureEndomorphism:
    """Verify H_i(f) has all eigenvalues equal to alpha^i, exactly.

    ``p`` is a complex or an operad, ``f`` a matching endomorphism.
    Raises PurityError with a report naming component, degree and the
    characteristic polynomial of H_i(f), which pins down every
    eigenvalue that is not alpha^i.
    """
    if isinstance(f, OperadMorphism):
        bad = f.validate()
        if bad:
            raise PurityError([f"endomorphism is not an operad map: {m}"
                               for m in bad])
    failures = []
    eigen_table = {}
    for key, comp, block in _component_items(p, f):
        where = f"component {key}: " if key is not None else ""
        for d, m in induced_map(block).items():
            if m.rows == 0:
                continue
            expected = w.base ** d
            split = rational_eigen_split(m, [expected])
            if split.residual.dim:
                failures.append(
                    f"{where}degree {d}: H_{d}(f) has characteristic "
                    f"polynomial {_poly_text(char_poly(m))}, not "
                    f"(t - {expected})^{m.rows}")
            eigen_table.setdefault(key, {})[d] = [lam for lam, _ in split.pairs]
    if failures:
        raise PurityError(failures)
    return PureEndomorphism(p, f, w, eigen_table)


class TFunctorResult:
    """The weight-truncation subcomplex with its two weak equivalences."""

    def __init__(self, complex, inclusion, projection, weight_tags):
        self.complex = complex
        self.inclusion = inclusion
        self.projection = projection    # onto the homology complex (zero differential)
        self.weight_tags = weight_tags  # degree -> tuple of weights per basis column


def t_functor(c: ChainComplex, f: ChainMap, w: WeightFunction) -> TFunctorResult:
    """Sum over n of the canonical truncations tau_{>= n} of the
    weight-n subcomplexes.

    Requires (c, f) pure of weight 0; both returned arrows are weak
    equivalences (certified by construction and checked in tests).
    """
    purity_check(c, f, w)
    decomp = weight_decompose(c, f, w)
    hrec = c.homology
    basis = {}
    tags = {}
    for n in decomp.weights():
        # tau_{>= n} of the weight-n part B: B above n, B ker(d B) at n
        part = decomp.pure[n]
        trunc = {d: m for d, m in part.items() if d > n}
        if n in part:
            trunc[n] = part[n] * kernel(c.d(n) * part[n]).basis
        for d, m in trunc.items():
            if m.cols:
                cols = m.columns()
                basis.setdefault(d, []).extend(cols)
                tags.setdefault(d, []).extend([n] * len(cols))
    mats = {d: Matrix.from_cols(cols, rows=c.dim(d))
            for d, cols in basis.items()}
    tp, inclusion = subcomplex(c, mats)
    hcomplex = hrec.homology_complex()
    proj_blocks = {}
    for d in tp.dims:
        # only the weight-d vectors, cycles at d, reach homology
        at_d = Matrix.from_cols([vec if tag == d else ()
                                 for vec, tag in zip(basis[d], tags[d])],
                                rows=c.dim(d))
        if not (c.d(d) * at_d).is_zero():
            raise AssertionError("truncation vector is not a cycle")
        proj_blocks[d] = hrec.classifier(d) * at_d
    projection = ChainMap(tp, hcomplex, proj_blocks)
    return TFunctorResult(tp, inclusion, projection, tags)


class FormalityWitness:
    """A zigzag of weak equivalences connecting an operad to its
    homology, optionally with the lifted automorphism that produced it."""

    def __init__(self, arrows, t_operad, automorphism=None):
        self.arrows = arrows    # list of (label, OperadMorphism)
        self.t_operad = t_operad
        self.automorphism = automorphism

    def verify(self):
        for label, arrow in self.arrows:
            ok, _ = weak_equivalence_test(arrow)
            if not ok:
                return False
        return True


def _suboperad_from_components(p, components):
    """Suboperad on given subcomplexes; rejects one not closed under the
    structure maps.

    ``components``: key -> the inclusion ChainMap of a subcomplex of
    p's component (``chain.subcomplex``, which checks d-closure).
    Returns (operad, inclusion morphism).
    """
    incls = {key: f for key, f in components.items() if f.src.dims}

    def project(key, d, m):
        basis = incls[key].blocks.get(d) if key in incls else None
        if basis is None:
            return Matrix.zeros(0, m.cols) if m.is_zero() else None
        return solve_matrix(basis, m)

    sub_op = transfer(p, {key: f.src for key, f in incls.items()},
                      lambda key, d: incls[key].blocks[d], project)
    return sub_op, OperadMorphism(sub_op, p, incls)


def formality_witness_from_pure(p, f: OperadMorphism,
                                w: WeightFunction) -> FormalityWitness:
    """Apply the weight truncation componentwise to a pure endomorphism.

    Returns the zigzag p <- TP -> HP; closure of TP under the structure
    maps is a hard error (it would contradict monoidality and indicates
    an upstream bug), and both arrows are certified weak equivalences.
    """
    purity_check(p, f, w)
    results = {}
    for key in p.keys():
        comp = p.component(key)
        if not comp.is_zero():
            results[key] = t_functor(comp, f.block(key), w)
    tp, incl = _suboperad_from_components(
        p, {key: res.inclusion for key, res in results.items()})
    proj = OperadMorphism(tp, homology_operad(p),
                          {key: res.projection for key, res in results.items()})
    bad = proj.validate()
    if bad:
        raise AssertionError("projection onto homology is not an operad "
                             "morphism: " + bad[0])
    bad = incl.validate()
    if bad:
        raise AssertionError("inclusion is not an operad morphism: " + bad[0])
    ok_incl, _ = weak_equivalence_test(incl)
    ok_proj, _ = weak_equivalence_test(proj)
    if not (ok_incl and ok_proj):
        raise AssertionError("weight-truncation arrows are not weak "
                             "equivalences")
    return FormalityWitness([("inclusion", incl), ("projection", proj)], tp,
                            automorphism=f)


def formality_check(p, up_to=None, alpha=Fraction(2), seed=0):
    """Search for a formality witness through the minimal model.

    Computes the minimal model M -> p, attempts to lift the grading
    automorphism of HM to an automorphism f of M by levelwise
    obstruction solving, and on success certifies the zigzag
    p <- M <- TM -> HM.  Returns None (Inconclusive) when an
    obstruction system has no solution inside the window;
    non-formality is NOT certified.
    """
    w = WeightFunction(Fraction(alpha))
    mm = minimal_model(p, up_to, seed=seed)
    m_op = mm.operad
    h_target = {}
    for key in m_op.keys():
        comp = m_op.component(key)
        if comp.is_zero():
            continue
        h_target[key] = {d: Matrix.identity(h).scale(w.base ** d)
                         for d, h in comp.homology.dims.items()}
    try:
        f = endomorphism_with_prescribed_homology(mm, h_target, seed=seed)
    except ObstructionError:
        return None
    if not f.is_iso():
        # weak equivalence between minimal operads must be an iso
        raise AssertionError("lifted automorphism is not invertible")
    witness = formality_witness_from_pure(m_op, f, w)
    arrows = [("model", mm.morphism)] + witness.arrows
    return FormalityWitness(arrows, witness.t_operad, automorphism=f)
