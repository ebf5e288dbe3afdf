"""Exception hierarchy shared across the package.

Two broad families: problems with what the user handed us (bad files,
bad columns, bad option combinations) and problems the data caused
(non-convergence, singular designs, failed chain diagnostics).  The CLI
maps the first family to exit code 2 and the second to exit code 3.
"""


class InputError(Exception):
    """Invalid user input: files, schema, configuration, option values."""


class SchemaError(InputError):
    """A column is missing, duplicated, or holds a value outside its domain."""


class ParseError(InputError):
    """A single cell failed to parse. Carries row/column coordinates."""

    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)


class StatisticalError(Exception):
    """Estimation failed for statistical, not programming, reasons."""


class SingularDesignError(StatisticalError):
    """Design matrix is rank deficient."""

    def __init__(self, message, columns=()):
        self.columns = tuple(columns)
        super().__init__(message)


class NonConvergenceError(StatisticalError):
    """A fit did not converge and the caller demanded a converged one."""
