"""Layer and module containers on top of the autograd engine.

Modules own named ``Parameter`` leaves, support state-dict round trips,
and can be promoted to float64 for gradient verification.  Weight init
is explicit: every layer takes an ``rng`` (numpy Generator), so a model
built twice from the same seed has byte-identical parameters.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, _node, conv3d, conv_transpose3d, matmul


class Parameter(Tensor):
    """Trainable tensor, created float32 (requires_grad is always on)."""

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True)


def kaiming_uniform(rng, shape, fan_in):
    """He-style uniform init, bound sqrt(3 / fan_in) (suits relu-family nets)."""
    bound = float(np.sqrt(3.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def bias_uniform(rng, n, fan_in):
    # Nonzero bias keeps features off exact zero even for all-zero input
    # (zero-filled missing volumes reach the encoders in ablation modes).
    bound = float(1.0 / np.sqrt(fan_in))
    return rng.uniform(-bound, bound, size=n).astype(np.float32)


class Module:
    """Base container: parameter discovery, state dicts, dtype promotion."""

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix=""):
        out = []
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                out.append((full, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(prefix=f"{full}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(prefix=f"{full}.{i}."))
                    elif isinstance(item, Parameter):
                        out.append((f"{full}.{i}", item))
        return out

    def state_dict(self):
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state):
        params = dict(self.named_parameters())
        missing = sorted(set(params) - set(state))
        unexpected = sorted(set(state) - set(params))
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")
        for name, p in params.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: have {p.data.shape}, loading {arr.shape}")
            p.data = arr.copy()

    def to_dtype(self, dtype):
        """Promote all parameters in place (float64 for gradient checks)."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Dense map y = x W + b (W stored [in, out])."""

    def __init__(self, rng, in_features, out_features):
        self.weight = Parameter(kaiming_uniform(rng, (in_features, out_features), in_features))
        self.bias = Parameter(bias_uniform(rng, out_features, in_features))

    def forward(self, x):
        return matmul(x, self.weight) + self.bias


class Conv3d(Module):
    """3-d convolution layer, kernel [out_ch, in_ch, k, k, k]."""

    def __init__(self, rng, in_ch, out_ch, k, stride=1, padding=0):
        fan_in = in_ch * k ** 3
        self.weight = Parameter(kaiming_uniform(rng, (out_ch, in_ch, k, k, k), fan_in))
        self.bias = Parameter(bias_uniform(rng, out_ch, fan_in))
        self.stride = stride
        self.padding = padding

    def forward(self, x):
        y = conv3d(x, self.weight, stride=self.stride, padding=self.padding)
        return y + self.bias.reshape(1, -1, 1, 1, 1)


class ConvTranspose3d(Module):
    """Transposed 3-d convolution layer, kernel [in_ch, out_ch, k, k, k]."""

    def __init__(self, rng, in_ch, out_ch, k, stride=1, padding=0):
        fan_in = in_ch * k ** 3
        self.weight = Parameter(kaiming_uniform(rng, (in_ch, out_ch, k, k, k), fan_in))
        self.bias = Parameter(bias_uniform(rng, out_ch, fan_in))
        self.stride = stride
        self.padding = padding

    def forward(self, x):
        y = conv_transpose3d(x, self.weight, stride=self.stride, padding=self.padding)
        return y + self.bias.reshape(1, -1, 1, 1, 1)


class LayerNorm(Module):
    """Normalize the last axis to zero mean / unit variance, then affine."""

    eps = 1e-5

    def __init__(self, dim):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x):
        """One tape node: y = xhat * gamma + beta, xhat = xc / sqrt(var + eps)."""
        xc = x.data - x.data.mean(axis=-1, keepdims=True)
        var = (xc * xc).mean(axis=-1, keepdims=True)
        std = np.sqrt(var + self.eps)
        xhat = xc / std
        gamma = self.gamma

        def x_rule(g):
            gh = g * gamma.data
            return (gh - gh.mean(axis=-1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=-1, keepdims=True)) / std
        return _node(xhat * gamma.data + self.beta.data, (x, gamma, self.beta), (
            x_rule,
            lambda g: (g * xhat).sum(axis=tuple(range(g.ndim - 1))),
            lambda g: g.sum(axis=tuple(range(g.ndim - 1)))))
