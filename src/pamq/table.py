"""CSV tables as every pamq command writes them: comma-separated with LF
line endings, numbers at %.12e with '.' decimals, strings as given."""
import sys


def write_table(path, header, rows):
    """Write header and rows to path, or to stdout when path is None."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else f"{v:.12e}" for v in row
        ))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
