"""MoE model configurations (Table 2 of the paper).

The paper evaluates six configurations: Mixtral-8x7B, Mixtral-8x22B and
Qwen-8x7B, each in an ``e8k2`` (8 experts, top-2) and an ``e16k4`` (16 experts,
top-4) variant.  The e16k4 variants keep the per-layer parameter count and
compute constant by halving each expert's intermediate dimension while doubling
the expert count, exactly as described in Sec. 5.1.

Parameter counts are derived from the architecture dimensions, so the derived
``total_params`` / ``activated_params`` land close to the numbers reported in
Table 2 (46.70B / 12.88B for Mixtral-8x7B, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

#: Bytes per activation or parameter element (bf16), the one element width
#: of the cost model, the simulator, the memory model and calibration.
BYTES_PER_ELEMENT = 2


@dataclass(frozen=True)
class MoEModelConfig:
    """Architecture description of an MoE transformer.

    Attributes:
        name: Registry name, e.g. ``"mixtral-8x7b-e8k2"``.
        num_layers: Number of transformer layers (every layer has an MoE MLP).
        hidden_size: Model (residual stream) dimension ``H``.
        intermediate_size: Expert SwiGLU intermediate dimension ``H'``.
        num_attention_heads: Query heads in attention.
        num_kv_heads: Key/value heads (grouped-query attention).
        vocab_size: Vocabulary size.
        num_experts: Experts per MoE layer ``E``.
        top_k: Experts activated per token ``K``.
        expert_capacity: Per-device expert capacity ``C`` (complete experts a
            device restores under FSEP / hosts under EP).
        seq_length: Default training sequence length.
        attention_bias: Whether QKV projections carry biases (Qwen-style).
    """

    name: str
    num_layers: int
    hidden_size: int
    intermediate_size: int
    num_attention_heads: int
    num_kv_heads: int
    vocab_size: int
    num_experts: int
    top_k: int
    expert_capacity: int
    seq_length: int = 8192
    attention_bias: bool = False

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.hidden_size <= 0:
            raise ValueError("num_layers and hidden_size must be positive")
        if self.num_experts <= 0:
            raise ValueError("num_experts must be positive")
        if not 1 <= self.top_k <= self.num_experts:
            raise ValueError("top_k must be in [1, num_experts]")
        if self.expert_capacity <= 0:
            raise ValueError("expert_capacity must be positive")
        if self.hidden_size % self.num_attention_heads != 0:
            raise ValueError("hidden_size must be divisible by num_attention_heads")
        if self.num_attention_heads % self.num_kv_heads != 0:
            raise ValueError("num_attention_heads must be divisible by num_kv_heads")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def head_dim(self) -> int:
        """Dimension of each attention head."""
        return self.hidden_size // self.num_attention_heads

    @property
    def num_moe_layers(self) -> int:
        """Number of MoE layers (all layers host an MoE MLP in these models)."""
        return self.num_layers

    @property
    def expert_params_per_layer(self) -> int:
        """Parameters of a single SwiGLU expert: gate, up and down projections."""
        return 3 * self.hidden_size * self.intermediate_size

    @property
    def router_params_per_layer(self) -> int:
        """Parameters of the gating network of one MoE layer."""
        return self.hidden_size * self.num_experts

    @property
    def attention_params_per_layer(self) -> int:
        """Parameters of one attention block (GQA projections + output)."""
        q = self.hidden_size * self.hidden_size
        kv = 2 * self.hidden_size * self.num_kv_heads * self.head_dim
        out = self.hidden_size * self.hidden_size
        bias = 0
        if self.attention_bias:
            bias = self.hidden_size + 2 * self.num_kv_heads * self.head_dim
        return q + kv + out + bias

    @property
    def norm_params_per_layer(self) -> int:
        """RMSNorm parameters per layer (pre-attention and pre-MLP)."""
        return 2 * self.hidden_size

    @property
    def non_expert_params_per_layer(self) -> int:
        """Per-layer parameters excluding the experts (``Psi_other``)."""
        return (self.attention_params_per_layer + self.router_params_per_layer
                + self.norm_params_per_layer)

    @property
    def embedding_params(self) -> int:
        """Input embedding plus untied LM head parameters."""
        return 2 * self.vocab_size * self.hidden_size

    @property
    def total_params(self) -> int:
        """Total parameter count of the model (``Psi_all``)."""
        per_layer = (self.non_expert_params_per_layer
                     + self.num_experts * self.expert_params_per_layer)
        return self.num_layers * per_layer + self.embedding_params + self.hidden_size

    @property
    def activated_params(self) -> int:
        """Parameters activated per token (top-k experts instead of all)."""
        per_layer = (self.non_expert_params_per_layer
                     + self.top_k * self.expert_params_per_layer)
        return self.num_layers * per_layer + self.embedding_params + self.hidden_size

    # ------------------------------------------------------------------
    # FLOPs / bytes accounting (used by the simulator's cost model)
    # ------------------------------------------------------------------
    @property
    def expert_flops_per_token(self) -> float:
        """Forward FLOPs of running one token through one expert.

        The paper's overlap analysis (Sec. 3.1) uses ``6 * H * H'`` as the
        per-token SwiGLU FLOPs (three GEMMs, 2 FLOPs per MAC).
        """
        return 6.0 * self.hidden_size * self.intermediate_size

    def attention_flops_per_token(self, seq_length: int | None = None) -> float:
        """Forward FLOPs of attention for one token at context ``seq_length``."""
        s = seq_length or self.seq_length
        proj = 2.0 * (self.attention_params_per_layer)
        scores = 4.0 * s * self.hidden_size
        return proj + scores

    @property
    def expert_param_bytes(self) -> int:
        """bf16 bytes of one expert (``Psi_expert`` in bytes)."""
        return BYTES_PER_ELEMENT * self.expert_params_per_layer

    def activation_bytes_per_token(self, checkpointing: bool = True) -> float:
        """Resident activation bytes per token.

        With full activation checkpointing only the layer inputs are kept
        (one hidden vector per layer); without it we additionally keep the
        attention and expert intermediates.
        """
        bytes_per_el = float(BYTES_PER_ELEMENT)
        layer_input = self.hidden_size * bytes_per_el
        if checkpointing:
            return self.num_layers * layer_input
        attn = 4.0 * self.hidden_size * bytes_per_el
        expert = self.top_k * (3.0 * self.intermediate_size) * bytes_per_el
        return self.num_layers * (layer_input + attn + expert)

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_experts(self, num_experts: int, top_k: int,
                     expert_capacity: int, name: str | None = None,
                     num_layers: int | None = None) -> "MoEModelConfig":
        """Derive a variant with a different expert configuration.

        The intermediate size is rescaled so the per-layer expert parameter
        count stays constant, mirroring how the paper constructs the e16k4
        variants from the e8k2 models.
        """
        scale = self.num_experts / num_experts
        new_intermediate = max(64, int(round(self.intermediate_size * scale)))
        return replace(
            self,
            name=name or f"{self.name.rsplit('-e', 1)[0]}-e{num_experts}k{top_k}",
            num_experts=num_experts,
            top_k=top_k,
            expert_capacity=expert_capacity,
            intermediate_size=new_intermediate,
            num_layers=num_layers if num_layers is not None else self.num_layers,
        )

    def summary(self) -> Dict[str, object]:
        """Return the Table 2 style summary row for this configuration."""
        return {
            "model": self.name,
            "layers": self.num_layers,
            "params_B": round(self.total_params / 1e9, 2),
            "activated_params_B": round(self.activated_params / 1e9, 2),
            "experts": self.num_experts,
            "top_k": self.top_k,
            "capacity": self.expert_capacity,
        }


# ----------------------------------------------------------------------
# Table 2 registry
# ----------------------------------------------------------------------

MIXTRAL_8X7B_E8K2 = MoEModelConfig(
    name="mixtral-8x7b-e8k2",
    num_layers=32,
    hidden_size=4096,
    intermediate_size=14336,
    num_attention_heads=32,
    num_kv_heads=8,
    vocab_size=32000,
    num_experts=8,
    top_k=2,
    expert_capacity=2,
)

MIXTRAL_8X22B_E8K2 = MoEModelConfig(
    name="mixtral-8x22b-e8k2",
    num_layers=18,
    hidden_size=6144,
    intermediate_size=16384,
    num_attention_heads=48,
    num_kv_heads=8,
    vocab_size=32000,
    num_experts=8,
    top_k=2,
    expert_capacity=2,
)

QWEN_8X7B_E8K2 = MoEModelConfig(
    name="qwen-8x7b-e8k2",
    num_layers=32,
    hidden_size=4096,
    intermediate_size=14336,
    num_attention_heads=32,
    num_kv_heads=8,
    vocab_size=32000,
    num_experts=8,
    top_k=2,
    expert_capacity=2,
    attention_bias=True,
)

MIXTRAL_8X7B_E16K4 = MIXTRAL_8X7B_E8K2.with_experts(
    num_experts=16, top_k=4, expert_capacity=4,
    name="mixtral-8x7b-e16k4", num_layers=24)

MIXTRAL_8X22B_E16K4 = MIXTRAL_8X22B_E8K2.with_experts(
    num_experts=16, top_k=4, expert_capacity=4,
    name="mixtral-8x22b-e16k4", num_layers=14)

QWEN_8X7B_E16K4 = QWEN_8X7B_E8K2.with_experts(
    num_experts=16, top_k=4, expert_capacity=4,
    name="qwen-8x7b-e16k4", num_layers=24)


MODEL_REGISTRY: Dict[str, MoEModelConfig] = {
    cfg.name: cfg
    for cfg in (
        MIXTRAL_8X7B_E8K2,
        MIXTRAL_8X7B_E16K4,
        MIXTRAL_8X22B_E8K2,
        MIXTRAL_8X22B_E16K4,
        QWEN_8X7B_E8K2,
        QWEN_8X7B_E16K4,
    )
}


def get_model_config(name: str) -> MoEModelConfig:
    """Look up a model configuration by registry name.

    Raises:
        KeyError: if the name is not in the registry; the error message lists
            the available configurations.
    """
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model config {name!r}; known configs: {known}") from None


def list_model_configs() -> List[str]:
    """Return the registry names of all Table 2 configurations."""
    return sorted(MODEL_REGISTRY)


def tiny_test_config(num_experts: int = 8, top_k: int = 2,
                     expert_capacity: int = 2) -> MoEModelConfig:
    """A tiny configuration used throughout the unit tests and examples."""
    return MoEModelConfig(
        name=f"tiny-e{num_experts}k{top_k}",
        num_layers=2,
        hidden_size=64,
        intermediate_size=128,
        num_attention_heads=4,
        num_kv_heads=2,
        vocab_size=512,
        num_experts=num_experts,
        top_k=top_k,
        expert_capacity=expert_capacity,
        seq_length=64,
    )
