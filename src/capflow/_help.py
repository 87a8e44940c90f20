"""Help pages and usage lines of the command line, laid out as click 8.4 lays them out.

Everything here is rendered from ``cli._COMMANDS``.  The CLI loads this
module only to write a help page or a usage error, so a command that runs
pays neither for it nor for ``textwrap`` and ``shutil``.

Text wraps at ``max(min(terminal columns, 80) - 2, 50)`` columns, or at
click's ``click.formatting.FORCED_WIDTH`` when click is loaded and sets it:
click's test runner fixes the width at 80 that way, and the CLI's pages
then match click's under that runner too.
"""

from __future__ import annotations

import sys
import textwrap

from .cli import _COMMANDS, _GROUP_HELP, _GROUP_USAGE, _HELP, _REQUIRED


def _width() -> int:
    forced = getattr(sys.modules.get("click.formatting"), "FORCED_WIDTH", None)
    if forced is not None:
        return forced
    import shutil

    return max(min(shutil.get_terminal_size().columns, 80) - 2, 50)


class _Wrapper(textwrap.TextWrapper):
    def _handle_long_word(self, chunks, line, length, width):
        # click's: at least one character, and no search for a hyphen to break at.
        room = max(width - length, 1)
        line.append(chunks[-1][:room])
        chunks[-1] = chunks[-1][room:]


def _wrap(text: str, width: int, indent: str = "", subsequent: str | None = None) -> str:
    return _Wrapper(width, initial_indent=indent, replace_whitespace=False,
                    subsequent_indent=indent if subsequent is None else subsequent).fill(text)


def usage_line(path: str, pieces: str, width: int | None = None) -> str:
    """``Usage: path pieces``, the pieces wrapped beside the prefix, or below it when it leaves no room."""
    width = _width() if width is None else width
    prefix = f"Usage: {path} "
    if width >= len(prefix) + 20:
        return _wrap(pieces, width, prefix, " " * len(prefix))
    return f"{prefix}\n{_wrap(pieces, width, ' ' * 11)}"


def _definitions(rows, width: int) -> str:
    """Two indented columns, the second wrapped beside the first (at most 30 wide)."""
    column = min(max(len(term) for term, _ in rows), 30) + 2
    out = []
    for term, text in rows:
        pad = " " * (column - len(term)) if len(term) <= column - 2 else "\n" + " " * (column + 2)
        lines = _wrap(text, max(width - column - 2, 10)).splitlines()
        out.append(f"  {term}{pad}{lines[0]}\n" + "".join(f"{' ' * (column + 2)}{line}\n" for line in lines[1:]))
    return "".join(out)


def _page(path: str, pieces: str, text: str, sections, width: int) -> str:
    paragraphs = "\n\n".join(_wrap(paragraph, width, "  ") for paragraph in text.split("\n\n"))
    page = f"{usage_line(path, pieces, width)}\n\n{paragraphs}\n"
    for heading, rows in sections:
        page += f"\n{heading}:\n{_definitions(rows, width)}"
    return page.rstrip("\n")


def _option_row(flag, kind, default, text) -> tuple[str, str]:
    if type(kind) is tuple:
        metavar = f"[{'|'.join(kind)}]"
    else:
        metavar = "INTEGER RANGE" if type(kind) is int else kind
    extra = [] if default is None or default is _REQUIRED else [f"default: {default}"]
    if type(kind) is int:
        extra.append(f"x>={kind}")
    if default is _REQUIRED:
        extra.append("required")
    return f"{flag} {metavar}", f"{text}  [{'; '.join(extra)}]" if extra else text


def command_page(name: str, path: str, pieces: str) -> str:
    """The help page of command ``name``, run as ``path`` with usage ``pieces``."""
    _, text, _, options = _COMMANDS[name]
    rows = [*(_option_row(*option) for option in options), _HELP]
    return _page(path, pieces, text, [("Options", rows)], _width())


def _short_help(text: str, limit: int) -> str:
    """The first paragraph, cut after its first sentence or at ``limit`` characters with "..."."""
    words = text.partition("\n\n")[0].split()
    total = 0
    for i, word in enumerate(words):
        total += len(word) + (i > 0)
        if total > limit:
            break
        if word[-1] == ".":
            return " ".join(words[: i + 1])
        if total == limit and i != len(words) - 1:
            break
    else:
        return " ".join(words)
    total += 3
    while i > 0:
        total -= len(words[i]) + (i > 0)
        if total <= limit:
            break
        i -= 1
    return " ".join(words[:i]) + "..."


def group_page(prog: str) -> str:
    """The help page of the command group, run as ``prog``."""
    width = _width()
    limit = width - 6 - max(map(len, _COMMANDS))
    commands = [(name, _short_help(_COMMANDS[name][1], limit)) for name in sorted(_COMMANDS)]
    return _page(prog, _GROUP_USAGE, _GROUP_HELP, [("Options", [_HELP]), ("Commands", commands)], width)
