"""Minimal float64 neural-net layers with explicit forward/backward passes.

Everything here is plain numpy. Each layer caches what its backward pass
needs during forward; gradients accumulate into .grads and are consumed by
Adam. Single-threaded per model instance: training mutates layer caches and
rescale running statistics.
"""

from __future__ import annotations

import numpy as np


def fan_in_uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base of every layer and model: parameters, gradients, buffers and
    rescale states are found by walking attributes, so no container lists
    its children.

    A leaf names its trained arrays in `param_names` (the gradient of `W` is
    `dW`) and its other checkpointed arrays in `buffer_names`. Each is
    exported as "<name>.<attribute>", and a dict of arrays as
    "<name>.<attribute>.<key>". Children are reached through attributes that
    hold a module, or a list or dict of modules.
    """

    param_names: tuple = ()
    buffer_names: tuple = ()

    def modules(self):
        """This module and every module below it, depth first."""
        yield self
        for value in vars(self).values():
            if isinstance(value, dict):
                value = value.values()
            elif not isinstance(value, list):
                value = (value,)
            for child in value:
                if isinstance(child, Module):
                    yield from child.modules()

    def _arrays(self, declared: str, prefix: str = "") -> dict:
        out = {}
        for module in self.modules():
            for attr in getattr(module, declared):
                value = getattr(module, prefix + attr)
                if isinstance(value, dict):
                    out.update({f"{module.name}.{attr}.{k}": v for k, v in value.items()})
                else:
                    out[f"{module.name}.{attr}"] = value
        return out

    def parameters(self) -> dict:
        return self._arrays("param_names")

    def grads(self) -> dict:
        return self._arrays("param_names", prefix="d")

    def buffers(self) -> dict:
        return self._arrays("buffer_names")

    def zero_grad(self) -> None:
        for g in self.grads().values():
            g[...] = 0.0

    def rescale_states(self) -> dict:
        return {m.name: m for m in self.modules() if isinstance(m, BatchRescale)}


class Linear(Module):
    param_names = ("W", "b")

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name: str,
                 zero_bias: bool = False):
        self.name = name
        self.W = fan_in_uniform(rng, (n_in, n_out), n_in)
        # A conv bias is shared across nodes; at the node-concept logit layer a
        # random bias makes every node argmax to the same concept at init,
        # which can collapse the categorical head. Callers zero it there.
        self.b = (np.zeros(n_out) if zero_bias
                  else fan_in_uniform(rng, (n_out,), n_in))
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        y = x @ self.W
        y += self.b
        return y

    def backward(self, g: np.ndarray) -> np.ndarray:
        self.backward_params(g)
        return g @ self.W.T

    def backward_params(self, g: np.ndarray) -> None:
        """backward without the input's gradient, for a layer whose input is
        data: accumulate dW and db only. g may keep leading axes (a
        GraphConv's node blocks); its rows are those of the input."""
        g = g.reshape(-1, g.shape[-1])
        self.dW += self._x.T @ g
        self.db += g.sum(axis=0)


class GraphConv(Linear):
    """Symmetric-normalized graph convolution on fixed-size node blocks,
    y = adj @ x @ W + b with adj (b, N, N) degree-normalized with self-loops:
    a Linear over the (b * N) node rows of adj @ x."""

    def forward(self, x: np.ndarray, adj: np.ndarray) -> np.ndarray:
        self._adj = adj
        ax = adj @ x
        b, n, i = ax.shape
        return super().forward(ax.reshape(b * n, i)).reshape(b, n, -1)

    def backward(self, g: np.ndarray) -> np.ndarray:
        b, n, o = g.shape
        # adj is symmetric, so adj^T = adj
        return self._adj @ super().backward(g.reshape(b * n, o)).reshape(b, n, -1)


def _bits(x: float) -> np.uint64:
    return np.float64(x).view(np.uint64)


class LeakyReLU:
    """x where x > 0, else slope * x. The forward is max(x, slope * x),
    which is that only for slope <= 1.

    The backward multiplies g by a factor, 1.0 where x > 0 and slope
    elsewhere, whose bits are computed from the mask: mask * (bits(1.0) ^
    bits(slope)) ^ bits(slope). A branch per element on a mask that is set
    at random costs several times more."""

    def __init__(self, slope: float = 0.01):
        if not slope <= 1:
            raise ValueError(f"LeakyReLU slope must be at most 1, not {slope!r}")
        self.slope = slope
        self._slope_bits = _bits(slope)
        self._flip_bits = _bits(1.0) ^ self._slope_bits

    def forward(self, x):
        self._mask = x > 0
        y = self.slope * x
        np.maximum(x, y, out=y)
        return y

    def backward(self, g):
        f = self._mask.view(np.uint8).astype(np.uint64)
        f *= self._flip_bits
        f ^= self._slope_bits
        y = f.view(np.float64)
        y *= g
        return y


class Sigmoid:
    def forward(self, x):
        self._y = sigmoid(x)
        return self._y

    def backward(self, g):
        return g * self._y * (1.0 - self._y)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere: with
    e = exp(-|x|), max(e, x >= 0) / (1 + e). min(x, -x) keeps a NaN's sign."""
    e = np.minimum(x, -x, dtype=float)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


class BatchRescale(Module):
    """Affine-free per-dimension standardization across a batch.

    Train mode standardizes with the batch's own mean and (biased) variance
    and updates running statistics; eval mode standardizes with the running
    statistics and never mutates state. No learnable affine follows: a
    concept should fire only when a sample deviates from its batch peers,
    and an affine transform could undo that.
    """

    buffer_names = ("running_mean", "running_var")

    def __init__(self, width: int, name: str, momentum: float = 0.1, eps: float = 1e-5):
        self.name = name
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.trained = False
        self._cache = None

    def forward(self, x: np.ndarray, mode: str) -> np.ndarray:
        if mode == "train":
            if x.shape[0] < 2:
                raise RuntimeError("batch standardization needs at least 2 samples")
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = (x - mean) * inv_std
            m = self.momentum
            self.running_mean = (1.0 - m) * self.running_mean + m * mean
            self.running_var = (1.0 - m) * self.running_var + m * var
            self.trained = True
            self._cache = (xhat, inv_std, x.shape[0])
            return xhat
        if mode == "eval":
            if not self.trained:
                raise RuntimeError("rescale state has no statistics yet; train first")
            self._cache = None
            y = x - self.running_mean
            y /= np.sqrt(self.running_var + self.eps)
            return y
        raise ValueError(f"unknown mode {mode!r}")

    def backward(self, g: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward requires a preceding train-mode forward")
        xhat, inv_std, b = self._cache
        return inv_std / b * (b * g - g.sum(axis=0) - xhat * (g * xhat).sum(axis=0))


def distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, inverse) of a 2-D x: the ascending first occurrences of its
    byte-distinct rows (-0.0 and 0.0 differ), and each row's place in rows."""
    keys = np.ascontiguousarray(x).view(f"V{x.itemsize * x.shape[1]}").ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def one_hot_argmax(x: np.ndarray) -> np.ndarray:
    idx = x.argmax(axis=-1)
    out = np.zeros_like(x)
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out


class GumbelSoftmax:
    """Categorical assignment over the last axis.

    mode "train": sample Gumbel noise, take the straight-through hard
    one-hot (forward discrete, backward through the tempered softmax).
    mode "eval":  deterministic argmax one-hot, no sampling.
    mode "soft":  tempered softmax without noise; fully differentiable,
    used when a smooth loss surface is required (e.g. finite-difference
    gradient verification).
    """

    def __init__(self, tau: float = 1.0):
        self.tau = tau
        self._soft = None

    def forward(self, logits: np.ndarray, mode: str,
                rng: np.random.Generator | None = None) -> np.ndarray:
        if mode == "train":
            if rng is None:
                raise ValueError("train mode requires an rng for Gumbel noise")
            noisy = (logits + rng.gumbel(size=logits.shape)) / self.tau
            self._soft = softmax(noisy)
            return one_hot_argmax(self._soft)
        if mode == "soft":
            self._soft = softmax(logits / self.tau)
            return self._soft
        if mode == "eval":
            self._soft = None
            return one_hot_argmax(logits)
        raise ValueError(f"unknown mode {mode!r}")

    def backward(self, g: np.ndarray) -> np.ndarray:
        # straight-through: route the gradient through the tempered softmax
        if self._soft is None:
            raise RuntimeError("backward requires a train- or soft-mode forward")
        s = self._soft
        return (g - (g * s).sum(axis=-1, keepdims=True)) * s / self.tau


class MLP(Module):
    """Two dense layers with a ReLU in between."""

    def __init__(self, n_in: int, n_hidden: int, n_out: int,
                 rng: np.random.Generator, name: str):
        self.lin1 = Linear(n_in, n_hidden, rng, f"{name}.lin1")
        self.lin2 = Linear(n_hidden, n_out, rng, f"{name}.lin2")
        self.act = LeakyReLU(0.0)

    def forward(self, x):
        return self.lin2.forward(self.act.forward(self.lin1.forward(x)))

    def backward(self, g):
        return self.lin1.backward(self.act.backward(self.lin2.backward(g)))


class Adam:
    """Adaptive moment estimation with the usual decay constants. The moments
    are one flat vector each, a slice per parameter name, so a step is a few
    whole-vector operations; the parameters stay separate arrays."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict, lr: float):
        self.params = params            # name -> array, updated in place
        self.lr = lr
        self.t = 0
        offsets = np.cumsum([0] + [v.size for v in params.values()])
        self.slices = dict(zip(params, map(slice, offsets[:-1], offsets[1:])))
        self.m = np.zeros(offsets[-1])
        self.v = np.zeros_like(self.m)

    def step(self, grads: dict) -> None:
        """Raises FloatingPointError, before the moments or any parameter
        change, when a gradient is not finite."""
        if not self.params:
            return
        g = np.concatenate([grads[name].ravel() for name in self.params])
        if not np.isfinite(g).all():
            raise FloatingPointError("a gradient is not finite")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        self.m = b1 * self.m + (1.0 - b1) * g
        self.v = b2 * self.v + (1.0 - b2) * g * g
        update = self.lr * (self.m / bias1) / (np.sqrt(self.v / bias2) + self.eps)
        for name, p in self.params.items():
            p -= update[self.slices[name]].reshape(p.shape)
