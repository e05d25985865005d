"""The paper's contribution, packaged: the GlueFL factory."""

from repro.core.gluefl import make_gluefl, make_sticky_fedavg

__all__ = ["make_gluefl", "make_sticky_fedavg"]
