"""HomePlug AV2 PHY abstractions: OFDM carriers, bit loading, rate caps.

The paper's extenders (TP-Link TL-WPA8630) are HomePlug AV2 devices.  AV2
modulates up to 4096-QAM on OFDM carriers spread over 1.8-86.13 MHz and
adapts a per-carrier *tone map* to the channel's frequency-selective SNR.
The advertised "1200 Mbps" class is the sum of per-carrier bit loads at
the maximum constellation; real links deliver far less (Fig. 2b of the
paper measures 60-160 Mbps of iperf throughput).

This module implements a compact tone-map model:

* a frequency grid of carriers,
* per-carrier SNR = transmit PSD - attenuation(f, link) - noise(f),
* per-carrier bit loading ``min(12, floor(log2(1 + SNR)))`` against a
  coding gap,
* PHY rate = carried bits x symbol rate x FEC efficiency,
* a UDP/TCP efficiency factor that converts PHY rate to the achievable
  MAC-layer throughput ("rate" in the paper's terminology).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["Av2Phy", "DEFAULT_AV2"]

#: ``np.linspace`` memoised for the carrier tilt; callers only read it.
_carrier_tilt = functools.lru_cache(maxsize=16)(np.linspace)


@dataclass(frozen=True)
class Av2Phy:
    """HomePlug AV2 PHY model.

    Attributes:
        n_carriers: OFDM carriers in the tone map (AV2 uses up to ~3455
            over the full 86 MHz band; 917 for AV-compatible 30 MHz
            operation, the default here).
        band_start_mhz: first carrier frequency.
        band_end_mhz: last carrier frequency.
        symbol_rate_khz: OFDM symbol rate (AV symbol period 40.96 us
            + guard interval -> ~24.4 k symbols/s).
        max_bits_per_carrier: constellation cap (12 = 4096-QAM).
        snr_gap_db: implementation/coding gap subtracted from channel SNR
            before bit loading.
        fec_efficiency: FEC + framing efficiency applied to the raw sum.
        mac_efficiency: PHY-to-MAC throughput factor (CSMA overheads,
            inter-frame spaces, ACKs); calibrated so the model's MAC
            throughput range matches the paper's 60-160 Mbps measurements.
    """

    n_carriers: int = 917
    band_start_mhz: float = 1.8
    band_end_mhz: float = 30.0
    symbol_rate_khz: float = 24.4
    max_bits_per_carrier: int = 12
    snr_gap_db: float = 6.0
    fec_efficiency: float = 0.82
    mac_efficiency: float = 0.75

    def __post_init__(self) -> None:
        if self.n_carriers < 1:
            raise ValueError("n_carriers must be positive")
        if self.band_end_mhz <= self.band_start_mhz:
            raise ValueError("band_end_mhz must exceed band_start_mhz")
        if not 0 < self.fec_efficiency <= 1:
            raise ValueError("fec_efficiency must be in (0, 1]")
        if not 0 < self.mac_efficiency <= 1:
            raise ValueError("mac_efficiency must be in (0, 1]")

    @property
    def carrier_frequencies_mhz(self) -> np.ndarray:
        """The carrier frequency grid (MHz)."""
        return np.linspace(self.band_start_mhz, self.band_end_mhz,
                           self.n_carriers)

    def bit_loading(self, snr_db: Sequence[float]) -> np.ndarray:
        """Per-carrier bit load for a per-carrier SNR profile (dB).

        Bits are ``floor(log2(1 + snr/gap))`` clipped to
        ``[0, max_bits_per_carrier]`` — the standard gap-approximation
        water-filling integer bit loading (of each row of a stack).
        """
        snr = np.asarray(snr_db, dtype=float)
        if snr.shape[-1] != self.n_carriers:
            raise ValueError(
                f"snr profile must have {self.n_carriers} entries")
        effective = 10.0 ** ((snr - self.snr_gap_db) / 10.0)
        bits = np.floor(np.log2(1.0 + effective))
        return np.clip(bits, 0, self.max_bits_per_carrier).astype(int)

    def snr_profile(self, attenuation_db: ArrayLike,
                    tx_psd_dbm_per_carrier: float = -22.0,
                    noise_dbm_per_carrier: float = -105.0,
                    selectivity_db: float = 12.0) -> np.ndarray:
        """Synthesize a frequency-selective SNR profile for a link.

        Power-line attenuation grows with frequency (cable loss) — the
        ``selectivity_db`` term tilts the profile linearly from the first
        to the last carrier on top of the flat ``attenuation_db``.

        Args:
            attenuation_db: flat (wiring-path) attenuation of the link
                (of each link, one profile row each, for a vector).
            tx_psd_dbm_per_carrier: transmit power per carrier.
            noise_dbm_per_carrier: powerline noise floor per carrier.
            selectivity_db: extra attenuation at the top of the band.

        Returns:
            Per-carrier SNR in dB.
        """
        att = np.asarray(attenuation_db, dtype=float)
        if np.any(att < 0):
            raise ValueError("attenuation must be non-negative")
        return ((tx_psd_dbm_per_carrier - att)[..., np.newaxis]
                - _carrier_tilt(0.0, selectivity_db, self.n_carriers)
                - noise_dbm_per_carrier)

    def rates_for_attenuations(self, attenuations_db: ArrayLike) -> np.ndarray:
        """MAC throughput (Mbps) — the paper's PLC "rate" — of each link,
        from one tone-map row (``n_carriers`` floats) per link."""
        bits = self.bit_loading(self.snr_profile(attenuations_db))
        return (bits.sum(axis=-1) * self.symbol_rate_khz * 1e3
                * self.fec_efficiency / 1e6 * self.mac_efficiency)

    def rate_for_attenuation(self, attenuation_db: float) -> float:
        """MAC throughput (Mbps) of a link with a given flat attenuation."""
        return float(self.rates_for_attenuations(attenuation_db))


#: A shared default AV2 PHY instance.
DEFAULT_AV2 = Av2Phy()
