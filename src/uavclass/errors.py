"""The root of every exception the package raises."""


class UavclassError(Exception):
    """Base class of each module's error class; cli.main reports it in one line."""
