"""Edge caching simulator and optimizer for tiered medical record sets.

Modules: record sizes (`records`), camera volume estimates (`dvs`), penalty
placement (`placement`), the two-tier delay model (`delay`), shared-capacity
counting (`sharing`), scenario files (`scenario`), and reporting
(`report`, `cli`). Import names from those modules; importing the package
itself loads none of them.
"""

__version__ = "0.1.0"
