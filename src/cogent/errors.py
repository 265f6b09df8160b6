"""Exception taxonomy shared across the toolkit.

ConfigError and ParseError are user-facing (CLI exit code 1), as is a training
step that accepted settings take out of the float range; ContractError
signals a violated internal precondition (CLI exit code 2).
"""


class CogentError(Exception):
    pass


class ConfigError(CogentError):
    """Invalid configuration value, unknown key, or incompatible checkpoint."""


class ParseError(CogentError):
    """Malformed corpus file; message carries file and line."""


class ContractError(CogentError):
    """A documented precondition was violated by the caller."""
