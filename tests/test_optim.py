"""Adam against the textbook update, written out."""

import numpy as np

from sessrec.optim import Adam
from sessrec.tape import Parameter


def test_steps_match_textbook_in_place():
    rng = np.random.default_rng(0)
    start = [rng.normal(size=(4, 3)), rng.normal(size=(5,))]
    grads = [[rng.normal(size=s.shape) * scale for s in start]
             for scale in (1.0, 1e-3, 50.0)]
    params = [Parameter(s.copy()) for s in start]
    lr, b1, b2, eps = 5e-3, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr, betas=(b1, b2), eps=eps)
    ids = [(id(p.value), id(m), id(v))
           for p, m, v in zip(params, opt.m, opt.v)]

    values = [s.copy() for s in start]
    m = [np.zeros_like(s) for s in start]
    v = [np.zeros_like(s) for s in start]
    for t, step_grads in enumerate(grads, start=1):
        for p, g in zip(params, step_grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(step_grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            m_hat = m[i] / (1.0 - b1 ** t)
            v_hat = v[i] / (1.0 - b2 ** t)
            values[i] = values[i] - lr * m_hat / (np.sqrt(v_hat) + eps)

    for i, p in enumerate(params):
        np.testing.assert_array_equal(p.value, values[i])
        np.testing.assert_array_equal(opt.m[i], m[i])
        np.testing.assert_array_equal(opt.v[i], v[i])
    assert [(id(p.value), id(m), id(v))
            for p, m, v in zip(params, opt.m, opt.v)] == ids


def test_parameter_without_gradient_is_left_alone():
    p, q = Parameter(np.ones(3)), Parameter(np.ones(2))
    opt = Adam([p, q], lr=0.1)
    p.grad = np.array([1.0, -1.0, 0.0])
    opt.step()
    np.testing.assert_array_equal(q.value, np.ones(2))
    np.testing.assert_array_equal(opt.m[1], 0.0)
    assert p.value[0] < 1.0 < p.value[1]
