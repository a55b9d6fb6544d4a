from .layers import (
    aspp,
    attention_gate,
    conv2d,
    max_pool2,
    transposed_conv2d,
)
from .tensor import (
    Tensor,
    backward,
    keep_large_blocks_on_heap,
    mean,
)
from .unet import ParamStore, UNet, UNetConfig, build_unet, param_layout

keep_large_blocks_on_heap()

__all__ = [
    "ParamStore",
    "Tensor",
    "UNet",
    "UNetConfig",
    "aspp",
    "attention_gate",
    "backward",
    "build_unet",
    "conv2d",
    "max_pool2",
    "mean",
    "param_layout",
    "transposed_conv2d",
]
