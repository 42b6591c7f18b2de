"""CLI helpers shared by test_cli.py and test_acceptance.py."""

from framedrag import cli


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one in-process ``cli.main`` run."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_report(text):
    """Pull the numeric outputs out of a report (skips input echoes and warnings)."""
    values = {}
    for line in text.splitlines():
        if line.startswith(("input ", "WARN ")) or " = " not in line:
            continue
        name, rest = line.split(" = ", 1)
        values[name] = float(rest.split()[0])
    return values
