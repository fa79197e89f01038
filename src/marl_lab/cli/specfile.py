"""Experiment spec files: a small nested key-value format whose parser
reports the exact line of every syntax error. Which keys a file may set,
and their types, is `experiment`'s business.

Syntax:
    # comment                           (full-line or trailing)
    key = value                         (top level or inside a section)
    [section]                           (one level of nesting)
Values: integers, reals, "strings", booleans true/false, and flat lists
[v1, v2, ...] of those. The canonical writer emits every resolved field, so
a snapshot re-parses to exactly the same document.
"""

from __future__ import annotations


class SpecError(ValueError):
    """Parse or validation failure, anchored to a file position."""

    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class Section(dict):
    """One section's {key: (value, line)}, and the line of its [header]
    (1 for the top level, which has none)."""

    def __init__(self, line):
        super().__init__()
        self.line = line


def _parse_scalar(tok, path, lineno):
    tok = tok.strip()
    if not tok:
        raise SpecError(path, lineno, "empty value")
    if tok.startswith('"'):
        if not (tok.endswith('"') and len(tok) >= 2):
            raise SpecError(path, lineno, f"unterminated string {tok!r}")
        return tok[1:-1]
    if tok == "true":
        return True
    if tok == "false":
        return False
    if tok == "none":
        return None
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        raise SpecError(path, lineno, f"cannot parse value {tok!r}")


def _strip_comment(line):
    out, in_str = [], False
    for ch in line:
        if ch == '"':
            in_str = not in_str
        if ch == "#" and not in_str:
            break
        out.append(ch)
    return "".join(out)


def parse_spec_text(text, path="<spec>"):
    """Parse into {None: {...top-level...}, "section": {...}, ...} of
    Sections; each value is (parsed_value, line_number) for diagnostics
    downstream."""
    doc = {None: Section(1)}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecError(path, lineno, f"malformed section header {line!r}")
            section = line[1:-1].strip()
            if not section:
                raise SpecError(path, lineno, "empty section name")
            if section in doc:
                raise SpecError(path, lineno, f"duplicate section [{section}]")
            doc[section] = Section(lineno)
            continue
        if "=" not in line:
            raise SpecError(path, lineno, f"expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key.isidentifier():
            raise SpecError(path, lineno, f"invalid key {key!r}")
        if key in doc[section]:
            raise SpecError(path, lineno, f"duplicate key {key!r}")
        if val.startswith("["):
            if not val.endswith("]"):
                raise SpecError(path, lineno, f"unterminated list {val!r}")
            inner = val[1:-1].strip()
            items = ([_parse_scalar(tok, path, lineno) for tok in inner.split(",")]
                     if inner else [])
            doc[section][key] = (items, lineno)
        else:
            doc[section][key] = (_parse_scalar(val, path, lineno), lineno)
    return doc


def parse_spec_file(path):
    with open(path, encoding="utf-8") as f:
        return parse_spec_text(f.read(), path=str(path))


def format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(format_value(x) for x in v) + "]"
    return str(v)


def write_spec_text(sections):
    """Canonical writer: {None: {...}, name: {...}} with plain values."""
    lines = []
    top = sections.get(None, {})
    for key in top:
        lines.append(f"{key} = {format_value(top[key])}")
    for name, body in sections.items():
        if name is None:
            continue
        lines.append("")
        lines.append(f"[{name}]")
        for key in body:
            lines.append(f"{key} = {format_value(body[key])}")
    return "\n".join(lines) + "\n"
