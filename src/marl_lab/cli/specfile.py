"""Experiment spec files: a small nested key-value format with a validating
parser that reports exact line/column positions.

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
    """Parse into {None: {...top-level...}, "section": {...}, ...}; each value
    is (parsed_value, line_number) for diagnostics downstream."""
    doc = {None: {}}
    section = None
    seen_sections = set()
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
            if section in seen_sections:
                raise SpecError(path, lineno, f"duplicate section [{section}]")
            seen_sections.add(section)
            doc[section] = {}
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


class SchemaField:
    def __init__(self, types, required=False):
        self.types = types
        self.required = required


def validate(doc, schema, path="<spec>"):
    """Check sections/keys/types against the schema; returns plain nested
    dict (positions stripped). Unknown keys and sections are rejected."""
    out = {}
    for section, body in doc.items():
        if section not in schema:
            first_line = min((ln for _, ln in body.values()), default=1)
            raise SpecError(path, first_line, f"unknown section [{section}]")
        fields = schema[section]
        plain = {}
        for key, (value, lineno) in body.items():
            if key not in fields:
                raise SpecError(path, lineno,
                                f"unknown key {key!r} in section [{section or 'top'}]")
            field = fields[key]
            if not _type_ok(value, field.types):
                raise SpecError(path, lineno,
                                f"key {key!r} expects {field.types}, got {value!r}")
            plain[key] = value
        out[section] = plain
    for section, fields in schema.items():
        body = out.get(section, {})
        for key, field in fields.items():
            if field.required and key not in body:
                raise SpecError(path, 1,
                                f"missing required key {key!r} in section "
                                f"[{section or 'top'}]")
    return out


def _type_ok(value, types):
    if "any" in types:
        return True
    for t in types:
        if t == "int" and isinstance(value, int) and not isinstance(value, bool):
            return True
        if t == "float" and isinstance(value, (int, float)) and not isinstance(value, bool):
            return True
        if t == "str" and isinstance(value, str):
            return True
        if t == "bool" and isinstance(value, bool):
            return True
        if t == "none" and value is None:
            return True
        if t == "int_list" and isinstance(value, list) and all(
                isinstance(x, int) and not isinstance(x, bool) for x in value):
            return True
        if t == "str_list" and isinstance(value, list) and all(
                isinstance(x, str) for x in value):
            return True
    return False
