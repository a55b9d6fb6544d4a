from .layers import (
    aspp,
    attention_gate,
    conv2d,
    dropout,
    max_pool2,
    transposed_conv2d,
)
from .tensor import (
    Tensor,
    backward,
    concat,
    mean,
    no_grad,
    relu,
    sigmoid,
)
from .unet import ParamStore, UNet, UNetConfig, build_unet

__all__ = [
    "ParamStore",
    "Tensor",
    "UNet",
    "UNetConfig",
    "aspp",
    "attention_gate",
    "backward",
    "build_unet",
    "concat",
    "conv2d",
    "dropout",
    "max_pool2",
    "mean",
    "no_grad",
    "relu",
    "sigmoid",
    "transposed_conv2d",
]
