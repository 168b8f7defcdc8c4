"""Analytic flop accounting for transformer configurations and token schedules.

Convention: one flop per multiply-accumulate. Pointwise work (softmax
exponentials, layer norms, activations, residual adds) is not counted.
Per layer at n tokens, width M, MLP ratio r:

    attention  2 * n^2 * M      (Q K^T plus A V)
    qkv        3 * n * M^2
    oproj          n * M^2
    mlp        2 * r * n * M^2

With a per-layer retention schedule K, layer l is priced at n_l tokens where
n_1 = N and n_{l+1} = min(n_l, K_l + 1); the +1 is the always-retained
classification token. Downsampling a layer (K_l + 1 < n_l) adds clustering
flops: T*K_l*n_l*M for k-means (assignment distances over T iterations) or
n_l^2*M + T*K_l*n_l for k-medoids (one token-token distance matrix, then
cached-distance assignments). These terms price the paper's algorithms; the
pooling code runs passes*K_l*n_l*M screening multiply-adds for the
assignments of either method, and per k-medoids update s*(s-1)/2*M
differences per cluster of s members, or s^2*M if s^2 > ``_kernels._BLOCK``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DataError, UsageError, check_finite_positive

CATEGORIES = ("attention", "qkv", "oproj", "mlp", "clustering")
CLUSTER_METHODS = ("kmeans", "kmedoids")
MODES = ("standard", "normalized_alpha", "carry")
LLOYD_ITERS = 5  # T, the Lloyd iteration cap that clustering runs and is priced at


@dataclass(frozen=True)
class ModelConfig:
    """Architecture record; ``tokens`` includes the classification token.
    Its fields, with their defaults, are a config file's keys."""

    layers: int
    dim: int
    heads: int
    tokens: int
    mlp_ratio: int = 4
    schedule: tuple[int, ...] | None = None
    alpha: float | None = None
    mode: str = "standard"

    def __post_init__(self):
        if self.layers < 1 or self.dim < 1 or self.heads < 1 or self.tokens < 1:
            raise UsageError("layers, dim, heads and tokens must be positive")
        if self.mlp_ratio < 1:
            raise UsageError("mlp_ratio must be positive")
        if self.dim % self.heads != 0:
            raise UsageError(f"dim {self.dim} is not divisible by heads {self.heads}")
        if self.schedule is not None:
            object.__setattr__(self, "schedule", tuple(int(k) for k in self.schedule))
            if len(self.schedule) != self.layers:
                raise UsageError(
                    f"schedule length {len(self.schedule)} != layers {self.layers}"
                )
            if any(k < 0 for k in self.schedule):
                raise UsageError("schedule entries must be >= 0")
        if self.mode not in MODES:
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.alpha is not None:
            check_finite_positive(self.alpha, "alpha")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


@dataclass
class LayerFlops:
    tokens: int
    attention: int
    qkv: int
    oproj: int
    mlp: int
    clustering: int = 0

    @property
    def total(self) -> int:
        return self.attention + self.qkv + self.oproj + self.mlp + self.clustering


@dataclass
class FlopReport:
    per_layer: list[LayerFlops] = field(default_factory=list)

    @property
    def totals(self) -> dict[str, int]:
        out = {c: 0 for c in CATEGORIES}
        for layer in self.per_layer:
            for c in CATEGORIES:
                out[c] += getattr(layer, c)
        return out

    @property
    def grand_total(self) -> int:
        return sum(self.totals.values())


def block_flops(n_tokens: int, config: ModelConfig) -> dict[str, int]:
    """Flops of one transformer block at ``n_tokens`` tokens."""
    if n_tokens < 1:
        raise UsageError("n_tokens must be >= 1")
    n = int(n_tokens)
    m = config.dim
    return {
        "attention": 2 * n * n * m,
        "qkv": 3 * n * m * m,
        "oproj": n * m * m,
        "mlp": 2 * config.mlp_ratio * n * m * m,
    }


def clustering_flops(n_tokens: int, k: int, dim: int, method: str,
                     max_iters: int = LLOYD_ITERS) -> int:
    """Downsampling overhead for one layer; zero when nothing is dropped."""
    if method not in CLUSTER_METHODS:
        raise UsageError(
            f"unknown clustering method {method!r}; choose one of {CLUSTER_METHODS}"
        )
    if max_iters < 1:
        raise UsageError("max_iters must be >= 1")
    n, k, m, t = int(n_tokens), int(k), int(dim), int(max_iters)
    if k + 1 >= n:
        return 0
    if method == "kmeans":
        return t * k * n * m
    # kmedoids as the paper prices it: full distance matrix once, then
    # cached-distance assignments (the code screens instead; see the docstring)
    return n * n * m + t * k * n


def model_flops(
    config: ModelConfig,
    clustering_method: str | None = None,
    clustering_iters: int = LLOYD_ITERS,
) -> FlopReport:
    """Price every layer under the config's schedule, plus clustering overhead."""
    if clustering_method is not None and clustering_method not in CLUSTER_METHODS:
        raise UsageError(
            f"unknown clustering method {clustering_method!r}; "
            f"choose one of {CLUSTER_METHODS}"
        )
    if clustering_iters < 1:
        raise UsageError("clustering_iters must be >= 1")
    report = FlopReport()
    n = config.tokens
    for layer in range(config.layers):
        parts = block_flops(n, config)
        overhead = 0
        if config.schedule is not None:
            k = config.schedule[layer]
            if clustering_method is not None:
                overhead = clustering_flops(
                    n, k, config.dim, clustering_method, clustering_iters
                )
            n_next = min(n, k + 1)
        else:
            n_next = n
        report.per_layer.append(LayerFlops(tokens=n, clustering=overhead, **parts))
        n = n_next
    return report


def breakdown_fractions(report: FlopReport) -> dict[str, float]:
    """Share of each flop category; shares sum to 1."""
    total = report.grand_total
    if total == 0:
        raise DataError("flop report has zero total")
    return {c: v / total for c, v in report.totals.items()}
