"""What ``--help`` of every subcommand is made of, as plain data.

``snapshot()`` walks the parser ``repro.cli.build_parser()`` returns and
lists, per subcommand and in ``--help`` order, every option with the
``add_argument`` facts that shape its help entry and its parsing.  Only
facts that differ from argparse's defaults are kept, so a row reads like
the declaration it came from.  ``tests/data/cli_options.json`` is this
function's output at the commit before the option table existed:
``python -m tests.cli_snapshot > tests/data/cli_options.json`` re-records
it after a deliberate CLI change.
"""

import argparse
import json
import sys

_DEFAULTS = {
    "action": "_StoreAction", "nargs": None, "const": None, "default": None,
    "type": None, "choices": None, "required": False, "help": None, "metavar": None,
}


def _row(action) -> dict:
    positional = not action.option_strings
    facts = {
        "action": type(action).__name__,
        "nargs": action.nargs,
        "const": action.const,
        "default": action.default,
        "type": getattr(action.type, "__name__", None),
        "choices": None if action.choices is None else list(action.choices),
        # a positional is required by construction
        "required": action.required and not positional,
        "help": action.help,
        "metavar": action.metavar,
    }
    row = {"flags": list(action.option_strings) or [action.dest]}
    row.update({k: v for k, v in facts.items() if v != _DEFAULTS[k]})
    return row


def snapshot() -> dict:
    from repro.cli import build_parser

    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    helps = {c.dest: c.help for c in sub._choices_actions}
    return {
        name: {
            "help": helps[name],
            "options": [
                _row(a) for a in p._actions if not isinstance(a, argparse._HelpAction)
            ],
        }
        for name, p in sub.choices.items()
    }


def dump(snap: dict, out=sys.stdout) -> None:
    """One option per line, so a changed option is a one-line diff."""
    names = list(snap)
    out.write("{\n")
    for i, name in enumerate(names):
        entry = snap[name]
        out.write(f' {json.dumps(name)}: {{"help": {json.dumps(entry["help"])}, "options": [\n')
        rows = ["  " + json.dumps(row, sort_keys=True) for row in entry["options"]]
        out.write(",\n".join(rows) + ("\n" if rows else ""))
        out.write(" ]}" + ("," if i + 1 < len(names) else "") + "\n")
    out.write("}\n")


if __name__ == "__main__":
    dump(snapshot())
