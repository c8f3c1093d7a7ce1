"""Model assembly: shapes, init, forward contract, and the masked loss."""

import numpy as np
import pytest

from fedhar.errors import ConfigError, DegenerateBatchError, ShapeError
from fedhar.model import (ModelConfig, default_n_heads, forward, init_model,
                          masked_weighted_loss, parameter_shapes, predict)
from fedhar.tensor import Tensor, backward

TINY = ModelConfig(n_features=5, n_labels=3, transformers_layers=2,
                   hidden_size=8, n_positions=6, dropout=0.1, seed=0)


def expected_param_count(c: ModelConfig) -> int:
    """Closed-form count, written independently of parameter_shapes."""
    h = c.hidden_size
    per_block = (2 * h                      # ln1
                 + h * 3 * h + 3 * h        # qkv
                 + h * h + h                # attn out
                 + 2 * h                    # ln2
                 + h * 4 * h + 4 * h        # mlp fc
                 + 4 * h * h + h)           # mlp proj
    return (c.n_features * h + h            # input projection
            + c.n_positions * h             # positions
            + c.transformers_layers * per_block
            + 2 * h                         # final norm
            + h * h + h                     # head
            + h * c.n_labels + c.n_labels)  # output


def test_parameter_count_matches_closed_form():
    for cfg in [TINY,
                ModelConfig(n_features=225, n_labels=51, transformers_layers=4,
                            hidden_size=384, n_positions=128),
                ModelConfig(n_features=3, n_labels=2, transformers_layers=1,
                            hidden_size=4, n_positions=2)]:
        shapes = parameter_shapes(cfg)
        total = sum(int(np.prod(s)) for _, s in shapes)
        assert total == expected_param_count(cfg)
        assert init_model(cfg).num_params() == total


def test_parameter_order_is_canonical():
    names = [n for n, _ in parameter_shapes(TINY)]
    assert names[0] == "input_proj.w"
    assert names[1] == "input_proj.b"
    assert names[2] == "pos_emb"
    assert names[-4:] == ["head.w", "head.b", "out.w", "out.b"]
    assert "block0.ln1.w" in names and "block1.mlp.proj.b" in names
    assert names.index("block0.attn.qkv.w") < names.index("block0.attn.out.w")


def test_output_projection_shape():
    shapes = dict(parameter_shapes(TINY))
    assert shapes["out.w"] == (TINY.hidden_size, TINY.n_labels)
    assert shapes["pos_emb"] == (TINY.n_positions, TINY.hidden_size)
    assert shapes["block0.attn.qkv.w"] == (8, 24)


def test_default_heads_rule():
    # 64-wide heads when they fit, otherwise 4 heads
    assert default_n_heads(768) == 12
    assert default_n_heads(384) == 6
    assert default_n_heads(192) == 3
    assert default_n_heads(48) == 4
    assert 8 % default_n_heads(8) == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(n_features=0, n_labels=3)
    with pytest.raises(ConfigError):
        ModelConfig(n_features=5, n_labels=3, hidden_size=10, n_heads=3)
    with pytest.raises(ConfigError):
        ModelConfig(n_features=5, n_labels=3, dropout=1.0)


def test_config_dict_round_trip():
    assert ModelConfig(**TINY.__dict__) == TINY


def test_init_deterministic_and_seed_sensitive():
    a = init_model(TINY)
    b = init_model(TINY)
    assert a.equals_bitwise(b)
    c = init_model(ModelConfig(**{**TINY.__dict__, "seed": 1}))
    assert not a.equals_bitwise(c)


def test_init_fills_biases_zero_gains_one():
    w = init_model(TINY)
    assert np.array_equal(w["input_proj.b"].data, np.zeros(8, dtype=np.float32))
    assert np.array_equal(w["block0.ln1.w"].data, np.ones(8, dtype=np.float32))
    assert np.array_equal(w["ln_f.gain"].data, np.ones(8, dtype=np.float32))
    assert w["input_proj.w"].data.std() == pytest.approx(0.02, rel=0.3)
    assert w["input_proj.w"].data.dtype == np.float32


def test_forward_shapes_and_range():
    w = init_model(TINY)
    x = np.random.default_rng(0).standard_normal((4, 6, 5)).astype(np.float32)
    y = forward(w, x)
    assert y.shape == (4, 6, 3)
    assert np.all(y.data > -1.0) and np.all(y.data < 1.0)


def test_forward_accepts_shorter_sequences():
    w = init_model(TINY)
    x = np.zeros((2, 3, 5), dtype=np.float32)
    assert forward(w, x).shape == (2, 3, 3)


def test_forward_validates_input():
    w = init_model(TINY)
    with pytest.raises(ShapeError):
        forward(w, np.zeros((2, 6), dtype=np.float32))
    with pytest.raises(ShapeError):
        forward(w, np.zeros((2, 6, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        forward(w, np.zeros((2, 7, 5), dtype=np.float32))
    with pytest.raises(ConfigError):
        forward(w, np.zeros((2, 6, 5), dtype=np.float32), train_mode=True)


def test_forward_eval_mode_is_deterministic():
    w = init_model(TINY)
    x = np.random.default_rng(1).standard_normal((2, 6, 5)).astype(np.float32)
    assert np.array_equal(forward(w, x).data, forward(w, x).data)


def test_forward_train_mode_dropout_changes_output():
    w = init_model(TINY)
    x = np.random.default_rng(2).standard_normal((2, 6, 5)).astype(np.float32)
    eval_y = forward(w, x).data
    train_y = forward(w, x, train_mode=True, rng=np.random.default_rng(3)).data
    assert not np.array_equal(eval_y, train_y)
    # same rng seed -> same dropout masks
    again = forward(w, x, train_mode=True, rng=np.random.default_rng(3)).data
    assert np.array_equal(train_y, again)


def test_forward_respects_pad_mask():
    """Padded tail positions don't influence real ones."""
    w = init_model(TINY)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 6, 5)).astype(np.float32)
    pad = np.array([[1, 1, 1, 1, 0, 0]], dtype=np.float32)
    base = forward(w, x, pad_mask=pad).data
    x2 = x.copy()
    x2[0, 4:] = 7.5
    out = forward(w, x2, pad_mask=pad).data
    assert np.allclose(out[0, :4], base[0, :4], atol=1e-6)


def test_predict_threshold_and_ties():
    y = np.array([[-0.5, 0.0, 1e-6]])
    assert np.array_equal(predict(y), [[0, 0, 1]])


# ----------------------------------------------------------------- loss

def _ones_pw(n):
    return np.ones(n, dtype=np.float64)


def test_loss_at_zero_output_is_ln2():
    # y = 0 -> p = 1/2 for every cell, any target mix
    y = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
    t = np.random.default_rng(0).integers(0, 2, (2, 3, 4))
    m = np.ones((2, 3, 4))
    loss = masked_weighted_loss(y, t, m, _ones_pw(4))
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-7)


def test_loss_hand_computed_weighted_case():
    # two cells: t=1 with p=0.9 (w=3), t=0 with p=0.2
    # loss = (3*(-ln .9) + (-ln .8)) / (3 + 1)
    y = Tensor(np.array([[[0.8, -0.6]]]))
    t = np.array([[[1.0, 0.0]]])
    m = np.ones((1, 1, 2))
    pw = np.array([3.0, 3.0])
    want = (3.0 * -np.log(0.9) + -np.log(0.8)) / 4.0
    loss = masked_weighted_loss(y, t, m, pw)
    assert loss.item() == pytest.approx(want, rel=1e-12)


def test_loss_masked_cells_do_not_contribute():
    rng = np.random.default_rng(5)
    y = Tensor(rng.uniform(-0.9, 0.9, (2, 4, 3)))
    t = rng.integers(0, 2, (2, 4, 3)).astype(float)
    m = rng.integers(0, 2, (2, 4, 3)).astype(float)
    m[0, 0, 0] = 0.0
    base = masked_weighted_loss(y, t, m, _ones_pw(3)).item()
    t2 = t.copy()
    t2[0, 0, 0] = 1.0 - t2[0, 0, 0]  # flip a masked target
    assert masked_weighted_loss(y, t2, m, _ones_pw(3)).item() == base


def test_loss_equals_bce_on_doubled_logits():
    """tanh head + (1+y)/2 is exactly a sigmoid over twice the logit."""
    rng = np.random.default_rng(6)
    z = rng.standard_normal((2, 3, 4))
    y = Tensor(np.tanh(z))
    t = rng.integers(0, 2, (2, 3, 4)).astype(float)
    m = np.ones_like(t)
    got = masked_weighted_loss(y, t, m, _ones_pw(4)).item()
    p = 1.0 / (1.0 + np.exp(-2.0 * z))
    want = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
    assert got == pytest.approx(want, rel=1e-6)


def test_loss_clamps_saturated_outputs():
    y = Tensor(np.array([[[-1.0, 1.0]]]))  # p would hit 0 and 1 exactly
    t = np.array([[[1.0, 0.0]]])           # worst-case targets
    m = np.ones((1, 1, 2))
    loss = masked_weighted_loss(y, t, m, _ones_pw(2))
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(-np.log(1e-7), rel=1e-6)


def test_loss_fully_masked_batch_raises():
    y = Tensor(np.zeros((1, 2, 2)))
    with pytest.raises(DegenerateBatchError):
        masked_weighted_loss(y, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)),
                             _ones_pw(2))


def test_loss_shape_validation():
    y = Tensor(np.zeros((1, 2, 2)))
    with pytest.raises(ShapeError):
        masked_weighted_loss(y, np.zeros((1, 2, 3)), np.ones((1, 2, 2)),
                             _ones_pw(2))
    with pytest.raises(ShapeError):
        masked_weighted_loss(y, np.zeros((1, 2, 2)), np.ones((1, 2, 2)),
                             _ones_pw(3))


@pytest.mark.parametrize("pos_weight", [[0.0, 0.0], [-1.0, 1.0], [np.nan, 1.0],
                                        [1.0, np.inf], [1.0, -np.inf]],
                         ids=["zero", "negative", "nan", "inf", "-inf"])
def test_loss_rejects_pos_weight_not_finite_and_positive(pos_weight):
    # with all-positive targets [0, 0] and [-1, 1] make the denominator 0
    y = Tensor(np.zeros((1, 2, 2)))
    with pytest.raises(ConfigError, match="pos_weight"):
        masked_weighted_loss(y, np.ones((1, 2, 2)), np.ones((1, 2, 2)), np.array(pos_weight))


def test_loss_gradient_direction():
    # positive target, y slightly negative: gradient must push y up
    y = Tensor(np.array([[[-0.2]]]), requires_grad=True)
    loss = masked_weighted_loss(y, np.ones((1, 1, 1)), np.ones((1, 1, 1)),
                                _ones_pw(1))
    backward(loss)
    assert y.grad[0, 0, 0] < 0


def test_full_model_gradcheck_small():
    """End-to-end finite differences through forward + loss, float64."""
    cfg = ModelConfig(n_features=3, n_labels=2, transformers_layers=1,
                      hidden_size=4, n_positions=3, dropout=0.0, seed=0)
    w = init_model(cfg).astype(np.float64)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 3))
    t = rng.integers(0, 2, (2, 3, 2)).astype(float)
    m = np.ones_like(t)
    pw = np.array([1.0, 2.0])

    def loss_value():
        return masked_weighted_loss(forward(w, x), t, m, pw).item()

    w.zero_grads()
    backward(masked_weighted_loss(forward(w, x), t, m, pw))
    h = 1e-5
    for name in ["input_proj.w", "block0.attn.qkv.w", "ln_f.gain", "out.b"]:
        data = w[name].data
        flat = data.reshape(-1)
        idx = rng.integers(0, flat.size)
        old = flat[idx]
        flat[idx] = old + h
        up = loss_value()
        flat[idx] = old - h
        down = loss_value()
        flat[idx] = old
        want = (up - down) / (2 * h)
        got = w[name].grad.reshape(-1)[idx]
        assert got == pytest.approx(want, rel=1e-4, abs=1e-9), name
