"""Layer implementations for the numpy NN substrate."""

from repro.nn.layers.linear import Linear
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.activation import ReLU
from repro.nn.layers.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.layers.shape import ChannelShuffle, Flatten
from repro.nn.layers.block import ChannelConcat, Identity, ResidualAdd

__all__ = [
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "ChannelShuffle",
    "Identity",
    "ResidualAdd",
    "ChannelConcat",
]
