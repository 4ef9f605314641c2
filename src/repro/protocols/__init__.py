"""Protocol engines: GPV (path vector over an algebra) and HLP.

* :mod:`repro.protocols.gpv` — the native Generalized Path Vector engine,
  semantically equal to the NDlog GPV program (asserted by tests); Fig. 6's
  PV baseline is a :class:`GPVEngine` its experiment builds itself;
* :mod:`repro.protocols.hlp` — Hybrid Link-state/Path-vector with cost
  hiding (Sec. VI-D).
"""

from .gpv import Advertisement, GPVEngine
from .hlp import DOMAIN_ATTR, ExtRecord, FpvAdvert, HLPEngine, Lsa

__all__ = [
    "Advertisement",
    "DOMAIN_ATTR",
    "ExtRecord",
    "FpvAdvert",
    "GPVEngine",
    "HLPEngine",
    "Lsa",
]
