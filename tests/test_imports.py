"""The package imports a submodule on first use of one of its names, and each
CLI command imports only the modules it runs.  Every check runs in a fresh
interpreter, so nothing an earlier test imported hides a missing import."""

import ast
import os
import subprocess
import sys
import textwrap

import pytest

import quatode

MODULES = ("quatcore", "quadsolve", "hode", "qmat2", "clode", "scatter", "well",
           "oracle", "cli")


def fresh(script: str):
    """Run script in a new interpreter; the value of its last stdout line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(quatode.__file__)))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_on_its_own(module):
    assert fresh(f"import quatode.{module}; print(True)") is True


def test_every_export_resolves_on_first_use_and_is_kept():
    bad = fresh("""
        import sys, types
        import quatode

        bad = []
        for name in quatode.__all__:
            if name in vars(quatode):
                bad.append((name, "bound before first use"))
                continue
            value = getattr(quatode, name)
            home = sys.modules[value.__name__ if isinstance(value, types.ModuleType)
                               else value.__module__]
            if value is not home and getattr(home, name) is not value:
                bad.append((name, "not the object of " + home.__name__))
            if vars(quatode).get(name) is not value:
                bad.append((name, "not kept in the package"))
        if set(quatode.__all__) - set(dir(quatode)):
            bad.append(("dir", "misses an export"))
        try:
            quatode.no_such_name
        except AttributeError:
            pass
        else:
            bad.append(("no_such_name", "resolved"))
        print(bad)
    """)
    assert bad == []


def test_commands_import_only_what_they_run():
    # json and logging beyond what numpy loads, and the scattering and
    # oracle modules, after each step
    loaded = fresh("""
        import contextlib, io, sys
        import numpy

        before = set(sys.modules)
        heavy = ("quatode.scatter", "quatode.well", "quatode.oracle")

        def extra():
            return sorted(m for m in set(sys.modules) - before
                          if m in heavy or m.split(".")[0] in ("json", "logging"))

        import quatode, quatode.cli
        steps = {"import": extra()}
        for name, argv in (
                ("quad", ["quad", "0", "1", "0", "0", "1", "1", "0", "1"]),
                ("eig", ["eig"] + "0.3 1 0.2 -0.5 0.7 0.4 -1.1 0.3 -0.2 0.6 0.9 0.1 "
                                  "1.2 -0.3 0.5 0.8".split()),
                ("ode", ["ode", "h", "--a", "0,1,0,0", "--b", "0.25,0.5,0,0.5",
                         "--phi0", "0,0,0,0", "--dphi0=-0.5,-0.5,-0.5,0",
                         "--points", "0,0.5,1"])):
            with contextlib.redirect_stdout(io.StringIO()):
                code = quatode.cli.main(argv)
            steps[name] = (code, extra())
        print(steps)
    """)
    assert loaded["import"] == []
    assert loaded["quad"] == (0, [])
    for name in ("eig", "ode"):
        code, modules = loaded[name]
        # eig and ode print JSON
        assert code == 0 and "json" in modules
        assert [m for m in modules if m.split(".")[0] != "json"] == []
