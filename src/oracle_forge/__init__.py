"""Engine-verified synthetic reasoning data generation."""

__version__ = "0.1.0"
