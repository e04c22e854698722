"""Query engine for business-process event logs.

Parses conjunctive queries with temporal-pattern conditions, evaluates them
over CSV event logs with a relational back end, and cross-checks against an
independently generated datalog program.
"""

__version__ = "0.1.0"
