"""Repository benchmark of the differential verdict (see README.md)."""
