"""The one exception type of the jcm4 package."""


class JcmError(ValueError):
    """An input the library refuses; the message names the value and the
    check.  The CLI prints it as one ``error:`` line and exits 2."""
