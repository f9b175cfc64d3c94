"""Exception types shared across the package.

The CLI maps ParameterError to exit code 2 and ResourceLimitError to exit
code 3; everything else is a genuine bug and propagates.
"""

import math


class ParameterError(ValueError):
    """Invalid user-supplied parameters or malformed input data."""


class BasisMismatchError(ParameterError):
    """Operators combined over incompatible basis index maps."""


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the configured size caps."""


class SpectralError(RuntimeError):
    """A matrix decomposition failed to converge."""


def short_int(value: int) -> str:
    """An integer in full up to 18 digits, else as [-]d.ddde+X cut from its
    decimal digits, found without printing them, which Python refuses past
    4300: a message that echoes a user's integer stays one short line."""
    amount = abs(int(value))
    if amount < 10**18:
        return str(value)
    exponent = int((amount.bit_length() - 1) * math.log10(2))
    while 10 ** (exponent + 1) <= amount:
        exponent += 1
    lead = amount // 10 ** (exponent - 3)
    return f"{'-' if value < 0 else ''}{lead // 1000}.{lead % 1000:03d}e+{exponent}"
