"""Central finite-difference verification of tape gradients.

The loss callable must rebuild its graph from the given Parameters on
every call; parameters are perturbed in place, one entry at a time.
"""

import numpy as np


def numerical_gradient(loss_fn, param, step: float = 1e-5) -> np.ndarray:
    """Central differences of ``loss_fn()`` w.r.t. every entry of ``param``."""
    flat = param.value.ravel()
    num = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        plus = float(loss_fn().value)
        flat[i] = orig - step
        minus = float(loss_fn().value)
        flat[i] = orig
        num[i] = (plus - minus) / (2.0 * step)
    return num.reshape(param.value.shape)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = 1e-6) -> float:
    """max_i |a_i - n_i| / max(|a_i|, |n_i|, floor).

    The floor keeps near-zero gradient entries from being compared at
    pure relative scale, where finite-difference noise dominates.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_errors(loss_fn, params: dict, step: float = 1e-5) -> dict:
    """Analytic-vs-numeric max relative error per named parameter."""
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None
                       else np.zeros_like(p.value))
                for name, p in params.items()}
    errors = {}
    for name, p in params.items():
        numeric = numerical_gradient(loss_fn, p, step=step)
        errors[name] = max_relative_error(analytic[name], numeric)
    return errors
