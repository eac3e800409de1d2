"""Noise-photon budget for a quantum channel multiplexed with classical DWDM traffic.

Covers the three physical noise sources seen by the quantum channel:

* broadband amplified spontaneous emission (ASE) from the booster EDFA,
  filtered by the MUX isolation,
* direct leakage of the classical carrier through the finite DEMUX isolation,
* spontaneous anti-Stokes Raman scattering (SASRS) generated along the fiber.

The budget is expressed per spatiotemporal mode, per detector gating window
(single-photon detection) and per local-oscillator mode (homodyne detection).
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import MISSING, FrozenInstanceError, dataclass

from .units import PLANCK_H, SPEED_OF_LIGHT, db_to_linear, dbm_to_watts, photon_energy


class DomainError(ValueError):
    """An input is outside the physically valid range of an operation."""


class UnfittableError(ValueError):
    """The measurement set cannot determine the requested coefficient."""


class FrozenRecord:
    """A frozen record that behaves as a frozen dataclass, with its methods
    written here: the dataclass decorator generates them when the module is
    imported, about a millisecond per class.

    A subclass names its fields in order in _fields; assignment and
    deletion raise FrozenInstanceError. Equality, hashing and the repr read
    the fields in that order, as a frozen dataclass's do. The records a
    sweep builds are Records, which hold their fields in a namedtuple. The
    parameter classes (see frozen_params) store theirs in the instance
    __dict__ by object.__setattr__: they are built once and read on every
    row.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields_text = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields_text})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A new record with the named fields changed, built and checked by
        its constructor as any other."""
        return type(self)(**{**self.as_dict(), **changes})

    def as_dict(self) -> dict:
        """Each field's name and value, in field order; a record held in a
        field stays a record."""
        return {name: getattr(self, name) for name in self._fields}


class Record(FrozenRecord, tuple):
    """A FrozenRecord whose fields are the items of a namedtuple. A subclass
    is declared as

        class Point(Record, namedtuple("Point", "x y", defaults=(0.0,))):
            __slots__ = ()

    and the namedtuple gives its _fields, its constructor and a fast read
    of each field by name. Without __slots__ = () its instances gain a
    __dict__. A record is one allocation with no __dict__, so the rows of a
    sweep set off fewer garbage collections.

    A record supports len, indexing, unpacking and ordering as a tuple
    does, but it equals only a record of its own class with equal items;
    its hash is that of the tuple of its items. The namedtuple's _make, and
    with it _replace, build through the class's own constructor, so a
    subclass's checks in __new__ hold for them too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make calls tuple.__new__ and would skip a __new__'s checks
        return cls(*iterable)

    def __eq__(self, other):
        # tuple.__eq__ would also find a plain tuple of the same items equal
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        # else tuple.__ne__, ahead of object.__ne__ in the MRO, would answer
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


def _params_init(self, *args, **kwargs):
    """The constructor of a parameter class (see frozen_params). Each field
    is taken from the positional arguments in field order, then from the
    keywords, then from its default. A field whose default is a bool or an
    int must be of that very type. A float field, and gain_fixed whose
    default is None, takes an int or a float but not a bool, and a float
    must be finite. Each field is stored by object.__setattr__ (see
    FrozenRecord), and then the class's __post_init__ checks their ranges."""
    cls = type(self)
    fields, defaults = cls._fields, cls._defaults
    if args:
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes at most {len(fields)} positional arguments ({len(args)} given)")
        for name in fields[: len(args)]:
            if name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        kwargs.update(zip(fields, args))
    if not kwargs.keys() <= defaults.keys():
        unknown = next(name for name in kwargs if name not in defaults)
        raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {unknown!r}")
    store = object.__setattr__
    for name, default in defaults.items():
        value = kwargs.get(name, default)
        if type(value) is not type(default) and (
            isinstance(default, int) or isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            expected = "float" if default is None else type(default).__name__
            raise DomainError(f"{name} must be of type {expected}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
        store(self, name, value)
    self.__post_init__()


def frozen_params(cls):
    """Make a FrozenRecord subclass a parameter class. Each field is an
    annotated class attribute with its default, as in a dataclass; _fields
    names the fields in order and _defaults maps each to its default, and a
    field without one is a TypeError. The class is made a dataclass, so that
    dataclasses.replace, fields and is_dataclass apply to it, with
    _params_init as its constructor and FrozenRecord giving the rest; the
    decorator generates no method. The class needs a docstring: without
    one, the decorator builds it from inspect.signature."""
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    defaults = {}
    for field in cls.__dataclass_fields__.values():
        if field.default is MISSING:
            raise TypeError(f"{cls.__name__}.{field.name} has no default")
        defaults[field.name] = field.default
    cls._defaults = defaults
    cls._fields = tuple(defaults)
    cls.__init__ = _params_init
    return cls


def db_field_to_linear(name: str, db: float) -> float:
    """db_to_linear(db), with a DomainError naming the field if it overflows."""
    try:
        return db_to_linear(db)
    except OverflowError:
        raise DomainError(f"{name} = {db} overflows a float in linear units") from None


@frozen_params
class LinkParams(FrozenRecord):
    """Fiber span and classical-traffic description.

    p_out_dbm is the per-channel classical power at the fiber output
    (just before the DEMUX), held constant by the amplifier gain schedule.
    """

    alpha_db_per_km: float = 0.21
    beta_raman: float = 4e-9  # spontaneous Raman coefficient, 1/(km*nm)
    classical_channel_count: int = 1
    p_out_dbm: float = 0.0
    lambda_quantum_nm: float = 1550.0
    lambda_classical_nm: float = 1550.8

    def __post_init__(self):
        db_field_to_linear("p_out_dbm", self.p_out_dbm)
        for name, value in (("alpha_db_per_km", self.alpha_db_per_km), ("beta_raman", self.beta_raman)):
            if value < 0:
                raise DomainError(f"{name} must be >= 0, got {value}")
        if self.classical_channel_count < 0:
            raise DomainError("classical_channel_count must be >= 0")
        if self.lambda_quantum_nm <= 0:
            raise DomainError(f"lambda_quantum_nm must be positive, got {self.lambda_quantum_nm}")
        if self.lambda_classical_nm <= self.lambda_quantum_nm:
            raise DomainError(
                f"lambda_classical_nm = {self.lambda_classical_nm} must exceed lambda_quantum_nm = "
                f"{self.lambda_quantum_nm}: classical channels sit at longer wavelengths"
            )
        # the SASRS prefactor cubes the quantum wavelength, and the leakage
        # rate divides by the classical photon energy
        try:
            (self.lambda_quantum_nm * 1e-9) ** 3
        except OverflowError:
            raise DomainError(
                f"lambda_quantum_nm = {self.lambda_quantum_nm} overflows a float when cubed"
            ) from None
        if photon_energy(self.lambda_classical_nm * 1e-9) == 0:
            raise DomainError(
                f"lambda_classical_nm = {self.lambda_classical_nm} makes the photon energy underflow to 0"
            )

    @property
    def p_out_w(self) -> float:
        return dbm_to_watts(self.p_out_dbm)


@frozen_params
class ComponentParams(FrozenRecord):
    """EDFA and MUX/DEMUX characteristics.

    The amplifier gain either follows the schedule G = gain_g0 / eta_ch
    (keeping the classical output power constant with distance) or is
    pinned to gain_fixed when that is set.
    """

    nf_db: float = 6.0206  # linear NF = 4
    gain_g0: float = 100.0
    gain_fixed: float | None = None
    xi1: float = 1e-8  # MUX cross-channel isolation, linear
    xi2: float = 1e-8  # DEMUX cross-channel isolation, linear
    eta_mux: float = 0.71
    eta_dmu: float = 0.71
    delta_nu_hz: float = 75e9
    nsp_exact: bool = False  # False: n_sp = NF/2 high-gain convention

    def __post_init__(self):
        for name, value in (("eta_mux", self.eta_mux), ("eta_dmu", self.eta_dmu)):
            if not 0 < value <= 1:
                raise DomainError(f"{name} must be in (0, 1], got {value}")
        for name, value in (("xi1", self.xi1), ("xi2", self.xi2)):
            if not 0 <= value <= 1:
                raise DomainError(f"{name} must be in [0, 1], got {value}")
        if db_field_to_linear("nf_db", self.nf_db) < 1:
            raise DomainError(f"nf_db = {self.nf_db} gives a linear noise figure below 1")
        for name, value in (("gain_g0", self.gain_g0), ("gain_fixed", self.gain_fixed)):
            if value is not None and value < 1:
                raise DomainError(f"{name} must be >= 1, got {value}")
        if self.delta_nu_hz <= 0:
            raise DomainError(f"delta_nu_hz must be positive, got {self.delta_nu_hz}")


class NoiseBudget(
    Record,
    namedtuple(
        "NoiseBudget",
        "n_ase_per_mode_at_a n_leak_per_s_at_c n_sasrs_per_mode_at_c ase_window leak_window sasrs_window "
        "n_spd_window n_gmcs_matched n_gmcs_unmatched eps_in eps_out",
    ),
):
    """Per-source noise tallies at one distance.

    Mode/rate quantities are aggregated over all classical channels.
    The window components satisfy
    n_spd_window == ase_window + leak_window + sasrs_window exactly.
    """

    __slots__ = ()


def channel_transmittance(z_km: float, alpha_db_per_km: float) -> float:
    """Linear transmittance of z_km of fiber with attenuation alpha (dB/km);
    the one check of a distance: finite, >= 0 and no underflow to 0."""
    if not (math.isfinite(z_km) and z_km >= 0):
        raise DomainError(f"z_km must be finite and >= 0, got {z_km}")
    if alpha_db_per_km < 0:
        raise DomainError("alpha_db_per_km must be >= 0")
    eta_ch = 10.0 ** (-alpha_db_per_km * z_km / 10.0)
    if eta_ch == 0:
        raise DomainError(f"z_km = {z_km} makes the channel transmittance underflow to 0")
    return eta_ch


def fit_raman_coefficient(
    measurements: Sequence[tuple[float, float]],
    p_out_w: float,
    delta_lambda_nm: float,
    insertion_loss_db: float = 0.0,
) -> float:
    """Back the Raman coefficient beta out of (z_km, measured power W) points.

    Measurements are taken after a component with the given insertion loss;
    the model is P = P_out * beta * z * delta_lambda * 10^(-IL/10).
    Least-squares through the origin; a single point is exact inversion.
    Each distance and power must be finite and >= 0; a point at z = 0
    carries no weight. The result is the exact fit to within a few rounding
    errors whenever that is a float; a fit past the float max is a
    DomainError, and one below the least subnormal reads 0.
    """
    for name, value in (
        ("p_out_w", p_out_w),
        ("delta_lambda_nm", delta_lambda_nm),
        ("insertion_loss_db", insertion_loss_db),
    ):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    for z, p in measurements:
        # each comparison is False for a NaN
        if not (0 <= z < math.inf and 0 <= p < math.inf):
            raise DomainError(f"measurement point {z} km: {p} W must be finite and >= 0")
    points = [(z, p) for z, p in measurements if z > 0]
    if not points:
        raise UnfittableError("need at least one measurement with z > 0")
    try:
        il = db_to_linear(-insertion_loss_db)
    except OverflowError:
        raise DomainError(
            f"insertion_loss_db = {insertion_loss_db} overflows a float in linear units"
        ) from None
    if il == 0:
        raise DomainError(f"insertion_loss_db = {insertion_loss_db} underflows to 0 in linear units")
    if p_out_w <= 0:
        raise DomainError(f"p_out_w must be positive, got {p_out_w}")
    if delta_lambda_nm <= 0:
        raise DomainError(f"delta_lambda_nm must be positive, got {delta_lambda_nm}")
    # beta = sum(p*z) / (p_out_w * delta_lambda_nm * il * sum(z*z)), formed
    # from mantissas and a sum of powers of two (frexp and ldexp round
    # nothing): the distances are scaled by the largest one's power of two,
    # and each p*z is a product of mantissas scaled by the largest term's
    # (a power of 0 sets no scale). Each product and sum then rounds as it
    # would unscaled, none can leave the float range, and the final ldexp
    # is the one range check
    frexp, ldexp = math.frexp, math.ldexp
    e_z = max(frexp(z)[1] for z, _ in points)
    sum_u2 = sum(u * u for u in [ldexp(z, -e_z) for z, _ in points])
    terms = [(mp * mz, ep + ez) for (mp, ep), (mz, ez) in [(frexp(p), frexp(z)) for z, p in points if p > 0]]
    e_num = max([e for _, e in terms], default=0)
    num = sum(ldexp(m, e - e_num) for m, e in terms)
    (m_p, e_p), (m_d, e_d), (m_il, e_il) = frexp(p_out_w), frexp(delta_lambda_nm), frexp(il)
    try:
        return ldexp(num / (m_p * m_d * m_il * sum_u2), e_num - 2 * e_z - e_p - e_d - e_il)
    except OverflowError:
        raise DomainError("the fitted Raman coefficient overflows a float") from None


class NoiseModel:
    """The noise budget of one link as a function of distance, and the one
    place where each noise formula lives. Per classical channel:

    * ASE: 2*n_sp*(G - 1) photons per mode at the EDFA output (both
      polarizations), times xi1 after the MUX. n_sp is NF/2 in the
      high-gain convention, or (NF*G - 1) / (2*(G - 1)) with nsp_exact.
    * leakage: xi2 * P_out / (h*nu_c) carrier photons per second through
      the DEMUX.
    * SASRS: lambda^3 / (h*c^2) * P_out * beta * z * eta_dmu photons per
      mode after the DEMUX. This is the band power P_out*beta*z*d_lambda
      over h*nu and N_mode = (c / lambda^2) * d_lambda modes, so the
      bandwidth d_lambda cancels.

    A window holds delta_nu * delta_t modes. Built and validated once per
    (link, components, window and homodyne detector); at(z_km) does only
    the work that depends on distance. The arguments are those of
    compute_noise_budget without z_km: delta_t_s is the SPD gating window
    (it also sets the reference window for unmatched-mode homodyne noise).
    eta_bob, detector_bandwidth_hz and n_lo are only needed for the
    homodyne excess-noise outputs; when they are absent the corresponding
    fields are zero.

    Frozen like the parameter dataclasses, but a plain class: the
    dataclass decorator generates its methods when the module is imported,
    which took over a millisecond for this class.
    """

    __slots__ = ("link", "comp", "_terms")

    def __init__(
        self,
        link: LinkParams,
        comp: ComponentParams,
        delta_t_s: float,
        eta_bob: float = 0.0,
        detector_bandwidth_hz: float | None = None,
        n_lo: float | None = None,
    ):
        # each comparison is False for a NaN
        if not 0 < delta_t_s < math.inf:
            raise DomainError(f"delta_t_s must be finite and > 0, got {delta_t_s}")
        if not 0 <= eta_bob <= 1:
            raise DomainError(f"eta_bob must be finite and in [0, 1], got {eta_bob}")
        for name, value in (("detector_bandwidth_hz", detector_bandwidth_hz), ("n_lo", n_lo)):
            if value is not None and not 0 < value < math.inf:
                raise DomainError(f"{name} must be finite and > 0, got {value}")
        m = link.classical_channel_count
        p_out = link.p_out_w
        if m > 0:
            e_classical = photon_energy(link.lambda_classical_nm * 1e-9)
            n_leak = m * (comp.xi2 * p_out / e_classical)
            # beta converted from 1/(km*nm) to 1/(km*m)
            lambda_q = link.lambda_quantum_nm * 1e-9
            sasrs_k = lambda_q**3 / (PLANCK_H * SPEED_OF_LIGHT**2) * p_out * (link.beta_raman * 1e9)
        else:
            n_leak = sasrs_k = 0.0
        n_mod = comp.delta_nu_hz * delta_t_s
        window_ratio = None
        if detector_bandwidth_hz is not None and n_lo is not None:
            delta_t_hom = 1.0 / (2.0 * math.pi * detector_bandwidth_hz)
            window_ratio = delta_t_hom / delta_t_s
        init = object.__setattr__
        init(self, "link", link)
        init(self, "comp", comp)
        # the link and component fields that at() reads, then the
        # distance-independent terms, in one tuple that it unpacks: one
        # attribute to set here and one to read per distance
        init(
            self,
            "_terms",
            (
                m, link.alpha_db_per_km, comp.eta_dmu, comp.xi1, comp.gain_fixed, comp.gain_g0, comp.nsp_exact,
                n_mod, n_leak, n_leak * delta_t_s, db_to_linear(comp.nf_db), sasrs_k, eta_bob, window_ratio, n_lo,
            ),
        )

    __setattr__ = FrozenRecord.__setattr__
    __delattr__ = FrozenRecord.__delattr__

    def at(self, z_km: float) -> tuple[float, NoiseBudget]:
        """(eta_ch, budget) at z_km of fiber: the channel transmittance and
        every noise quantity, from the formulas in the class docstring. An
        n_sp below 1, the spontaneous-emission limit, is rejected wherever
        the gain exceeds 1."""
        (m, alpha_db_per_km, eta_dmu, xi1, gain_fixed, gain_g0, nsp_exact,
         n_mod, n_leak, leak_window, nf, sasrs_k, eta_bob, window_ratio, n_lo) = self._terms
        eta_ch = channel_transmittance(z_km, alpha_db_per_km)

        if m > 0:
            # the gain schedule: pinned to gain_fixed, else gain_g0 / eta_ch
            gain = gain_g0 / eta_ch if gain_fixed is None else gain_fixed
            if gain > 1:
                if nsp_exact:
                    n_sp = (nf * gain - 1.0) / (2.0 * (gain - 1.0))
                else:
                    n_sp = nf / 2.0
                if n_sp < 1:
                    if nsp_exact:
                        convention = f"(NF*G - 1)/(2*(G - 1)) at G = {gain:.6g}, nsp_convention = exact"
                    else:
                        convention = "NF/2, nsp_convention = highgain"
                    raise DomainError(
                        f"nf_db = {self.comp.nf_db} gives n_sp = {n_sp:.6g} < 1 ({convention}); "
                        "n_sp must be >= 1, the spontaneous-emission limit"
                    )
                n_ase = 2.0 * n_sp * (gain - 1.0)
            else:
                n_ase = 0.0
            n_ase_a = m * (xi1 * n_ase)
            n_sasrs = m * (sasrs_k * z_km * eta_dmu)
        else:
            n_ase_a = n_sasrs = 0.0

        ase_window = n_mod * eta_ch * eta_dmu * n_ase_a
        sasrs_window = n_mod * n_sasrs
        n_spd = ase_window + leak_window + sasrs_window

        n_matched = 0.5 * (eta_ch * eta_dmu * n_ase_a + n_sasrs)
        eps_in = 2.0 * eta_bob * n_matched

        n_unmatched = 0.0
        eps_out = 0.0
        if window_ratio is not None:
            n_unmatched = window_ratio * n_spd
            eps_out = eta_bob * n_unmatched / n_lo
        # a NaN or infinite source tally shows in one of these; at long links the
        # gain schedule gain_g0 / eta_ch overflows while eta_ch is still nonzero.
        # All are >= 0, so their sum is finite only if each one is.
        if not math.isfinite(n_spd + n_matched + n_unmatched + eps_in + eps_out):
            raise DomainError(f"the noise budget at z_km = {z_km} overflows a float")

        # tuple.__new__ builds the record that the namedtuple's Python __new__ would
        return eta_ch, tuple.__new__(
            NoiseBudget,
            (n_ase_a, n_leak, n_sasrs, ase_window, leak_window, sasrs_window,
             n_spd, n_matched, n_unmatched, eps_in, eps_out),
        )


def compute_noise_budget(
    link: LinkParams,
    comp: ComponentParams,
    z_km: float,
    delta_t_s: float,
    eta_bob: float = 0.0,
    detector_bandwidth_hz: float | None = None,
    n_lo: float | None = None,
) -> NoiseBudget:
    """Evaluate every noise quantity for one link at z_km of fiber: the
    budget of NoiseModel(link, comp, delta_t_s, ...).at(z_km)."""
    model = NoiseModel(link, comp, delta_t_s, eta_bob, detector_bandwidth_hz, n_lo)
    return model.at(z_km)[1]
