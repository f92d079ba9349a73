"""The counts types: announced tallies and their hidden photon-number split.

``CountTriple`` holds the counts of one event class per intensity,
``ObservedCounts`` the announced data of one run. ``GroundTruth`` resolves
each announced category by photon number (buckets 0, 1 and 2+); no real run
could see it, so only the simulator produces it, for the validation oracles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CountTriple:
    """Counts of one event class per intensity, (s, w, v) order."""

    m_s: int
    m_w: int
    m_v: int

    def __post_init__(self):
        if min(self.m_s, self.m_w, self.m_v) < 0:
            raise ValueError(f"counts must be nonnegative, got {self}")

    def __iter__(self):
        return iter((self.m_s, self.m_w, self.m_v))

    @property
    def total(self) -> int:
        return self.m_s + self.m_w + self.m_v


@dataclass(frozen=True)
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
        for err, det, label in (
            (self.z_err, self.z_det, "Z"),
            (self.x_err, self.x_det, "X"),
        ):
            for mu in ("m_s", "m_w", "m_v"):
                if getattr(err, mu) > getattr(det, mu):
                    problems.append(f"{label}-basis errors exceed detections at {mu}")
        if self.z_det.total + self.x_det.total > self.n_sifted_det:
            problems.append("keep-sifted detections exceed total sifted detections")
        if self.n_sifted_det < 0:
            problems.append("n_sifted_det must be nonnegative")
        return problems


Buckets = tuple[CountTriple, CountTriple, CountTriple]


@dataclass(frozen=True)
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

        def marginal(buckets: Buckets) -> CountTriple:
            b0, b1, b2 = buckets
            return CountTriple(b0.m_s + b1.m_s + b2.m_s, b0.m_w + b1.m_w + b2.m_w,
                               b0.m_v + b1.m_v + b2.m_v)

        return ObservedCounts(
            z_det=marginal(self.z_det),
            z_err=marginal(self.z_err),
            x_det=marginal(self.x_det),
            x_err=marginal(self.x_err),
            n_sifted_det=n_sifted_det,
        )
