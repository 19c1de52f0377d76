"""Repository benchmark: the paper's campaigns through the public repro API."""
