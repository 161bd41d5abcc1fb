"""Adam against the textbook update, written out."""

import numpy as np

from sessrec.optim import CHUNK, Adam
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


def test_flat_chunked_steps_match_per_parameter_textbook():
    # one parameter spans several chunks and one without a gradient sits
    # between two with: the chunked passes over the flat vectors give
    # the per-parameter update's bits and leave the untouched one alone
    rng = np.random.default_rng(1)
    shapes = [(3, 4), (6,), (2 * CHUNK + 5,), (2, 2)]
    touched = [True, False, True, True]
    start = [rng.normal(size=s) for s in shapes]
    params = [Parameter(s.copy()) for s in start]
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr, betas=(b1, b2), eps=eps)
    assert all(np.shares_memory(p.value, opt.value) for p in params)

    values = [s.copy() for s in start]
    m = [np.zeros_like(s) for s in start]
    v = [np.zeros_like(s) for s in start]
    for t in range(1, 4):
        opt.zero_grad()
        grads = [rng.normal(size=s) * 10.0 ** (t - 2) for s in shapes]
        for i in np.flatnonzero(touched):
            params[i].grad = grads[i]
            m[i] = b1 * m[i] + (1.0 - b1) * grads[i]
            v[i] = b2 * v[i] + (1.0 - b2) * (grads[i] * grads[i])
            m_hat = m[i] / (1.0 - b1 ** t)
            v_hat = v[i] / (1.0 - b2 ** t)
            values[i] = values[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert params[1].grad is None
        opt.step()

    for i, p in enumerate(params):
        np.testing.assert_array_equal(p.value, values[i])
        np.testing.assert_array_equal(opt.m[i], m[i])
        np.testing.assert_array_equal(opt.v[i], v[i])
    np.testing.assert_array_equal(params[1].value, start[1])


def test_chunks_do_not_grow_with_the_parameter_count():
    # the numpy calls of a step follow the chunks, which cover each run of
    # touched parameters: 40 small parameters take one chunk, as one
    # parameter of their total size does
    many = Adam([Parameter(np.ones(3)) for _ in range(40)])
    one = Adam([Parameter(np.ones(120))])
    for opt in (many, one):
        for p in opt.params:
            p.grad = np.ones(p.value.shape)
    assert list(many._chunks()) == list(one._chunks()) == [(0, 120)]


def test_first_non_finite_reads_touched_parameters_only():
    params = [Parameter(np.zeros(3)) for _ in range(4)]
    opt = Adam(params)
    params[1].grad = np.array([0.0, np.inf, 0.0])
    opt.zero_grad()             # a stale inf in an untouched buffer
    params[0].grad = np.ones(3)
    assert opt.first_non_finite() is None
    params[3].grad = np.array([np.nan, 0.0, 0.0])
    params[2].grad = np.array([0.0, 0.0, -np.inf])
    assert opt.first_non_finite() == 2
    opt.zero_grad()             # a sum that overflows, of finite entries
    params[0].grad = np.full(3, 1e308)
    assert opt.first_non_finite() is None
