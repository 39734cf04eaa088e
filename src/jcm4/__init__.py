"""Four-photon Jaynes-Cummings dynamics in the large photon number regime.

Import each name from its module, e.g. ``from jcm4.dynamics import evolve``;
each module's ``__all__`` lists its public functions and classes."""

__version__ = "0.1.0"
