"""The counts types: announced tallies and their hidden photon-number split.

``CountTriple`` holds the counts of one event class per intensity,
``ObservedCounts`` the announced data of one run. ``GroundTruth`` resolves
each announced category by photon number (buckets 0, 1 and 2+); no real run
could see it, so only the simulator produces it, for the validation oracles.
The records are slotted frozen dataclasses, with no instance dictionary, so
they are cheaper to build and to read.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True, init=False)
class CountTriple:
    """Counts of one event class per intensity, (s, w, v) order."""

    m_s: int
    m_w: int
    m_v: int

    def __init__(self, m_s: int, m_w: int, m_v: int):
        # checks the arguments; a __post_init__ would read the fields back. The
        # slots' own setters (bound below) cost half of object.__setattr__
        _set_m_s(self, m_s)
        _set_m_w(self, m_w)
        _set_m_v(self, m_v)
        if m_s < 0 or m_w < 0 or m_v < 0:
            raise ValueError(f"counts must be nonnegative, got {self}")

    def __iter__(self):
        return iter((self.m_s, self.m_w, self.m_v))

    @property
    def total(self) -> int:
        return self.m_s + self.m_w + self.m_v


_set_m_s, _set_m_w, _set_m_v = (getattr(CountTriple, f).__set__ for f in ("m_s", "m_w", "m_v"))


@dataclass(frozen=True, slots=True)
class ObservedCounts:
    """The announced data of one run: per-intensity detected/error counts of
    keep-sifted rounds by basis, plus the total detected sifted count
    (keep and trash)."""

    z_det: CountTriple
    z_err: CountTriple
    x_det: CountTriple
    x_err: CountTriple
    n_sifted_det: int

    def validate(self) -> list[str]:
        problems = []
        z_det, x_det = self.z_det, self.x_det
        for label, err, det in (("Z", self.z_err, z_det), ("X", self.x_err, x_det)):
            if err.m_s > det.m_s:
                problems.append(f"{label}-basis errors exceed detections at m_s")
            if err.m_w > det.m_w:
                problems.append(f"{label}-basis errors exceed detections at m_w")
            if err.m_v > det.m_v:
                problems.append(f"{label}-basis errors exceed detections at m_v")
        if z_det.total + x_det.total > self.n_sifted_det:
            problems.append("keep-sifted detections exceed total sifted detections")
        if self.n_sifted_det < 0:
            problems.append("n_sifted_det must be nonnegative")
        return problems


Buckets = tuple[CountTriple, CountTriple, CountTriple]


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Photon-number-resolved tallies hidden from the announced data.

    Each category holds one :class:`CountTriple` per photon bucket 0, 1 and
    2 (two or more photons), so ``z_det[1].total`` is the number of
    single-photon key-basis detections. ``trash_minus_single`` counts the
    coin-minus outcomes among all single-photon trash-sifted rounds,
    detected or not.
    """

    z_det: Buckets
    z_err: Buckets
    x_det: Buckets
    x_err: Buckets
    trash_minus_single: int = 0

    def observed(self, n_sifted_det: int) -> ObservedCounts:
        """The announced counts: each category summed over photon buckets."""
        return ObservedCounts(
            _marginal(self.z_det), _marginal(self.z_err), _marginal(self.x_det),
            _marginal(self.x_err), n_sifted_det,
        )


def _marginal(buckets: Buckets) -> CountTriple:
    b0, b1, b2 = buckets
    return CountTriple(b0.m_s + b1.m_s + b2.m_s, b0.m_w + b1.m_w + b2.m_w, b0.m_v + b1.m_v + b2.m_v)
