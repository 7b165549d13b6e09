"""UAV type classification from PX4 ULog flight logs."""

__version__ = "0.1.0"
