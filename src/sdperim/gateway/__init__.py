from .filtering import DROP, FORWARD, FilterEngine
from .node import GatewayNode, ServiceBinding

__all__ = ["DROP", "FORWARD", "FilterEngine", "GatewayNode", "ServiceBinding"]
