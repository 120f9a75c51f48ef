"""Schema catalog: relational schema model and the paper's built-in schemas."""

from .builtin import (
    actors_schema,
    beers_fig3_schema,
    beers_schema,
    sailors_schema,
    students_schema,
)
from .chinook import chinook_schema
from .schema import Attribute, ForeignKey, Schema, SchemaError, Table

#: The schemas the CLI and the workload generators take by name.
SCHEMAS = {
    "sailors": sailors_schema,
    "beers": beers_schema,
    "chinook": chinook_schema,
}

__all__ = [
    "Attribute",
    "ForeignKey",
    "SCHEMAS",
    "Schema",
    "SchemaError",
    "Table",
    "actors_schema",
    "beers_fig3_schema",
    "beers_schema",
    "chinook_schema",
    "sailors_schema",
    "students_schema",
]
