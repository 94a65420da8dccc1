"""Reference tokenizer: the two-pattern scanner.

Each step skips ASCII whitespace with one pattern and matches the next
token with another, reading its kind off the groups.  Nothing here is used
by the package: the tests check ``exprs._Tokenizer``, one ``finditer`` over
a single alternation, against it on tokens, positions and error texts.
"""

import re

from cartanweyl.errors import ExprSyntaxError

_SPACE = re.compile(r"\s*", re.ASCII)
_TOKEN = re.compile(r"(\d+(?:\.\d*)?|\.\d+)|([A-Za-z_]\w*)|(\*\*|[-+*/^()])", re.ASCII)


def scan(text):
    """The (kind, value, position) tokens of ``text``, ending in ("end", "",
    len(text)); an unknown character raises :class:`ExprSyntaxError`."""
    tokens, i = [], 0
    while (i := _SPACE.match(text, i).end()) < len(text):
        tok = _TOKEN.match(text, i)
        if tok is None:
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i)
        num, ident, op = tok.groups()
        kind = "num" if num else "ident" if ident else "op"
        tokens.append((kind, "^" if op == "**" else tok.group(), i))
        i = tok.end()
    tokens.append(("end", "", len(text)))
    return tokens
