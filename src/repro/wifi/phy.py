"""802.11 PHY model: path loss, RSSI, SNR, and MCS rate selection.

The paper's simulator derives WiFi channel quality from user-extender
distance ("a simple model ... where the channel quality is a function of
the distance", §V-A, citing a Cisco Aironet rate-vs-range table).  We
implement the standard log-distance path-loss model with optional
log-normal shadowing, and map the resulting SNR onto the 802.11n MCS
ladder to obtain the PHY rate ``r_ij``.

All the constants are module-level and overridable through
:class:`WifiPhy`, so experiments can calibrate the model to a different
building or radio without touching the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, TypeVar, cast

import numpy as np

__all__ = ["MCS_TABLE_80211N_20MHZ", "WifiPhy"]

_D = TypeVar("_D", float, np.ndarray)

#: 802.11n, 20 MHz, long guard interval, single spatial stream:
#: (minimum SNR in dB, PHY rate in Mbps).  Thresholds follow common
#: receiver-sensitivity tables (e.g. the Cisco Aironet data sheets the
#: paper references).
MCS_TABLE_80211N_20MHZ: Tuple[Tuple[float, float], ...] = (
    (2.0, 6.5),     # MCS0, BPSK 1/2
    (5.0, 13.0),    # MCS1, QPSK 1/2
    (9.0, 19.5),    # MCS2, QPSK 3/4
    (11.0, 26.0),   # MCS3, 16-QAM 1/2
    (15.0, 39.0),   # MCS4, 16-QAM 3/4
    (18.0, 52.0),   # MCS5, 64-QAM 2/3
    (20.0, 58.5),   # MCS6, 64-QAM 3/4
    (25.0, 65.0),   # MCS7, 64-QAM 5/6
)


@dataclass(frozen=True)
class WifiPhy:
    """A parameterized 802.11 PHY/propagation model.

    Attributes:
        tx_power_dbm: extender transmit power (default 20 dBm, the FCC
            indoor ceiling commodity extenders use).
        path_loss_exponent: log-distance exponent; ~3.5 suits an office
            with cubicles and furniture like the paper's 2408 m^2 lab.
        reference_loss_db: path loss at the 1 m reference distance
            (~40 dB at 2.4 GHz).
        noise_floor_dbm: thermal noise plus NF over a 20 MHz channel.
        shadowing_sigma_db: log-normal shadowing standard deviation; 0
            disables shadowing.
        spatial_streams: MIMO stream count; scales every MCS rate.
        mcs_table: (min SNR dB, rate Mbps) ladder, ascending.
    """

    tx_power_dbm: float = 20.0
    path_loss_exponent: float = 3.5
    reference_loss_db: float = 40.0
    noise_floor_dbm: float = -94.0
    shadowing_sigma_db: float = 0.0
    spatial_streams: int = 2
    mcs_table: Tuple[Tuple[float, float], ...] = MCS_TABLE_80211N_20MHZ

    def __post_init__(self) -> None:
        if self.spatial_streams < 1:
            raise ValueError("spatial_streams must be >= 1")
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        snrs = [s for s, _ in self.mcs_table]
        if snrs != sorted(snrs):
            raise ValueError("mcs_table must be sorted by SNR")

    def path_loss_db(self, distance_m: _D,
                     rng: Optional[np.random.Generator] = None) -> _D:
        """Log-distance path loss (dB) at ``distance_m`` metres.

        Distances under 1 m clamp to the reference distance.  When ``rng``
        is given and shadowing is enabled, a log-normal shadowing term is
        added, row-major over an array (arrays map elementwise).
        """
        d = np.asarray(distance_m, dtype=float)
        if not np.all(d >= 0):
            raise ValueError("distance must be non-negative")
        loss = (self.reference_loss_db + 10.0 * self.path_loss_exponent
                * np.log10(np.maximum(d, 1.0)))
        if rng is not None and self.shadowing_sigma_db > 0:
            loss = loss + rng.normal(0.0, self.shadowing_sigma_db, d.shape)
        return cast(_D, loss if d.ndim else float(loss))

    def rssi_dbm(self, distance_m: _D,
                 rng: Optional[np.random.Generator] = None) -> _D:
        """Received signal strength (dBm) at a distance."""
        return self.tx_power_dbm - self.path_loss_db(distance_m, rng)

    def snr_db(self, distance_m: _D,
               rng: Optional[np.random.Generator] = None) -> _D:
        """Signal-to-noise ratio (dB) at a distance."""
        return self.rssi_dbm(distance_m, rng) - self.noise_floor_dbm

    def rate_for_snr(self, snr_db: _D) -> _D:
        """PHY rate (Mbps) the MCS ladder sustains at a given SNR.

        Returns 0 when the SNR is below the lowest MCS threshold (the
        extender is unreachable); an SNR on a threshold takes its rung.
        """
        ladder = np.array([0.0] + [rate for _, rate in self.mcs_table])
        thresholds = np.array([threshold for threshold, _ in self.mcs_table])
        # The thresholds passed, as the ladder is sorted; NaN passes none.
        rung = (np.asarray(snr_db)[..., np.newaxis] >= thresholds).sum(-1)
        rate = ladder[rung] * self.spatial_streams
        return cast(_D, rate if np.ndim(snr_db) else float(rate))

    def rate_at_distance(self, distance_m: _D,
                         rng: Optional[np.random.Generator] = None) -> _D:
        """PHY rate (Mbps) at a distance (0 = unreachable)."""
        return self.rate_for_snr(self.snr_db(distance_m, rng))

    def rate_matrix(self, user_xy: np.ndarray, extender_xy: np.ndarray,
                    rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """WiFi rate matrix ``r_ij`` for users and extenders on a plane.

        Args:
            user_xy: ``(n_users, 2)`` coordinates in metres.
            extender_xy: ``(n_extenders, 2)`` coordinates in metres.
            rng: optional generator for shadowing draws (one independent
                draw per link, row-major).

        Returns:
            ``(n_users, n_extenders)`` matrix of PHY rates in Mbps, with
            zeros marking unreachable pairs.
        """
        users = np.atleast_2d(np.asarray(user_xy, dtype=float))
        exts = np.atleast_2d(np.asarray(extender_xy, dtype=float))
        if users.shape[1] != 2 or exts.shape[1] != 2:
            raise ValueError("coordinates must be (n, 2) arrays")
        diff = users[:, np.newaxis, :] - exts[np.newaxis, :, :]
        return self.rate_at_distance(np.sqrt(np.sum(diff * diff, axis=2)),
                                     rng)
