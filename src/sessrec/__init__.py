"""Session-based recommendation with dual-granularity contrastive learning.

A numpy library implementing the full pipeline: raw interaction logs to
prefix-augmented sessions (dataio), the transition graph of each session
(graphs), factor disentanglement with a distance-correlation penalty
(disentangle), the gated propagation layers (propagation), the pair
discriminator (contrast), soft-attention session encoding (encoder),
dual-head scoring (predictor), batch graphs with the three graph views
and both contrastive terms (model), and a training / evaluation /
ablation harness with a CLI (harness, cli).

Importing the package sets glibc's heap policy once: blocks up to 32 MiB
come from the heap, and its top is trimmed only past 256 MiB, so each
step or evaluation chunk reuses the pages the last one freed.  Off glibc
it sets nothing.
"""

import ctypes
import platform

if platform.libc_ver()[0] == "glibc":
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int,) * 2, ctypes.c_int
    # M_MMAP_THRESHOLD (-3) at its documented maximum, M_TRIM_THRESHOLD (-1)
    for _option, _value in ((-3, 32 << 20), (-1, 256 << 20)):
        if _mallopt(_option, _value) != 1:
            raise OSError(f"glibc refused mallopt({_option}, {_value})")

__version__ = "0.1.0"
