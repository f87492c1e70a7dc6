"""Every pamq output as bytes: CSV tables and JSON documents, written to a file
opened with newline="" (LF line endings on every platform) or to stdout.

A CSV table is comma-separated, numbers at %.12e with '.' decimals, strings as
given. A JSON document has indent 2 and sorted keys; its numbers are Python's
shortest repr of the float (0.16229525082151441), not %.12e.
"""
import json
import sys


def _emit(path, text):
    """Write text to path, or to stdout when path is None."""
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_table(path, header, rows):
    """Write header and rows as a CSV table to path, or to stdout when path is None."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else f"{v:.12e}" for v in row
        ))
    _emit(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    """Write payload as a JSON document to path, or to stdout when path is None."""
    _emit(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
