import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wpcone
from wpcone.cli import _parse_angle, build_parser, main
from wpcone.polyalg import to_json
from wpcone.recursion import SurfaceSignature, compute_volume

CONE_TORUS_LATEX = "-\\frac{\\theta_1^2}{48}+\\frac{\\pi^2}{12}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- angle parsing ------------------------------------------------------------------


def test_parse_angle_forms():
    assert _parse_angle("pi") == math.pi
    assert _parse_angle("pi/2") == math.pi / 2
    assert _parse_angle("3pi/4") == 3 * math.pi / 4
    assert _parse_angle("2pi/3") == 2 * math.pi / 3
    assert _parse_angle("0.5*pi") == math.pi / 2
    assert _parse_angle("1.5") == 1.5
    assert abs(_parse_angle("90", degrees=True) - math.pi / 2) < 1e-15
    assert _parse_angle("pi", degrees=True) == math.pi  # literals stay radian
    for bad in ("pie", "pi+1", "2+pi", "one", "pi/0", "3pi/0.0", "*pi", "*pi/2"):
        with pytest.raises(ValueError, match="cannot parse angle"):
            _parse_angle(bad)


# -- volume command -----------------------------------------------------------------


def test_volume_latex_golden(capsys):
    code, out, err = run(capsys, "volume", "--g", "1", "--cones", "1")
    assert code == 0 and err == ""
    assert out == CONE_TORUS_LATEX + "\n"


def test_volume_pants(capsys):
    code, out, _ = run(capsys, "volume", "--g", "0", "--boundaries", "3")
    assert code == 0
    assert out == "1\n"


def test_volume_text_and_json(capsys):
    code, out, _ = run(
        capsys, "volume", "--g", "1", "--cones", "1", "--format", "text"
    )
    assert code == 0
    assert out == "-1/48*theta_1^2 + 1/12*pi^2\n"
    code, out, _ = run(
        capsys, "volume", "--g", "1", "--cones", "1", "--format", "json"
    )
    assert code == 0
    assert out == (
        '{"vars":1,"terms":[{"xexp":[1],"piexp":0,"coeff":"-1/48"},'
        '{"xexp":[0],"piexp":2,"coeff":"1/12"}]}\n'
    )


def test_volume_numeric_value(capsys):
    code, out, _ = run(
        capsys, "volume", "--g", "1", "--cones", "1", "--angles", "pi"
    )
    assert code == 0
    assert float(out) == pytest.approx(math.pi ** 2 / 16, abs=1e-15)
    code, out, _ = run(
        capsys,
        "volume", "--g", "1", "--cones", "1",
        "--angles", "90", "--degrees", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(5 * math.pi ** 2 / 64, abs=1e-15)


def test_volume_numeric_needs_all_slots(capsys):
    code, out, err = run(
        capsys,
        "volume", "--g", "1", "--boundaries", "1", "--cones", "1",
        "--angles", "1.0",
    )
    assert code == 2 and out == ""
    assert "--lengths" in err


def test_volume_rejects_wide_angle(capsys):
    code, out, err = run(
        capsys, "volume", "--g", "1", "--cones", "1", "--angles", "4.0"
    )
    assert code == 2 and out == ""
    assert "(0, pi]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "--g", "1", "--cones", "1", "--angles", "pi/0"],
        ["volume", "--g", "1", "--cones", "1", "--angles", "pi/0.0"],
        ["verify", "mcshane", "--theta", "pi/0"],
    ],
)
def test_angle_that_divides_by_zero_is_refused(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot parse angle 'pi/0")


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "--g", "1", "--cones", "1", "--angles", "*pi"],
        ["verify", "mcshane", "--theta", "*pi"],
    ],
)
def test_angle_with_a_star_but_no_coefficient_is_refused(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot parse angle '*pi'")


@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "--g", "0", "--boundaries", "4", "--lengths", "1", "1", "1"],
        ["volume", "--g", "0", "--boundaries", "3", "--lengths", "1", "1"],
        ["verify", "mcshane", "--length"],
    ],
)
def test_length_that_is_not_positive_and_finite_is_refused(argv, bad, capsys):
    code, out, err = run(capsys, *argv, bad)
    assert code == 2 and out == ""
    assert "boundary length must be positive and finite" in err


def test_volume_that_overflows_is_refused(capsys):
    code, out, err = run(
        capsys,
        "volume", "--g", "1", "--boundaries", "2", "--cones", "1",
        "--lengths", "1e200", "1e200", "--angles", "3",
    )
    assert code == 2 and out == ""
    assert "the value is not a finite double at these slot values" in err
    assert "Traceback" not in err


def test_volume_unstable_signature(capsys):
    code, _, err = run(capsys, "volume", "--g", "0", "--boundaries", "2")
    assert code == 2
    assert "unstable" in err


# -- table command ------------------------------------------------------------------


def test_table_single_slot(capsys):
    code, out, _ = run(capsys, "table", "--g-max", "1", "--slot-max", "1")
    assert code == 0
    assert out.splitlines() == [
        "V(g=1,m=1,n=0) = 1/48*l_1^2 + 1/12*pi^2",
        "V(g=1,m=0,n=1) = -1/48*theta_1^2 + 1/12*pi^2",
    ]


def test_table_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "table", "--g-max", "0", "--slot-max", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g,m,n,polynomial"
    assert lines[1] == "0,3,0,1"
    assert len(lines) == 5  # header + the four genus-zero pants flavors
    code, out, _ = run(
        capsys, "table", "--g-max", "1", "--slot-max", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    sigs = [(v["genus"], v["boundaries"], v["cones"]) for v in doc["volumes"]]
    assert sigs == [(1, 1, 0), (1, 0, 1), (1, 2, 0), (1, 1, 1), (1, 0, 2)]
    for entry in doc["volumes"]:
        assert set(entry["polynomial"]) == {"vars", "terms"}


def test_table_json_embeds_each_volumes_canonical_json(capsys):
    # table writes each row from to_json's text; the document is the one
    # json.dumps makes of the parsed polynomials
    argv = ["table", "--g-max", "2", "--slot-max", "4", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    volumes = []
    for g in range(3):
        for total in range(max(1, 3 - 2 * g), 5):
            for n in range(total + 1):
                poly = compute_volume(SurfaceSignature(g, total - n, n))
                volumes.append(
                    {
                        "genus": g,
                        "boundaries": total - n,
                        "cones": n,
                        "polynomial": json.loads(to_json(poly)),
                    }
                )
    assert out == json.dumps({"volumes": volumes}, separators=(",", ":")) + "\n"


def test_table_omits_closed_surfaces(capsys):
    # genus 2 is the first with a stable closed surface, (2, 0, 0), which
    # has no slot to recurse on
    code, out, err = run(capsys, "table", "--g-max", "2", "--slot-max", "2")
    assert code == 0, err
    sigs = [line.split(" = ")[0] for line in out.splitlines()]
    assert "V(g=2,m=1,n=0)" in sigs and "V(g=2,m=0,n=2)" in sigs
    assert not [sig for sig in sigs if sig.endswith("m=0,n=0)")]


@pytest.mark.parametrize(
    "bounds",
    [["--g-max", "-1", "--slot-max", "3"], ["--g-max", "0", "--slot-max", "2"]],
)
def test_table_and_verify_recursion_refuse_bounds_that_select_nothing(
    bounds, capsys
):
    message = "%s %s with %s %s selects no signature to check" % tuple(bounds)
    refused = (2, "", "error: %s\n" % message)
    assert run(capsys, "table", *bounds) == refused
    assert run(capsys, "verify", "recursion", *bounds) == refused


def test_table_cap_guard(capsys):
    code, _, err = run(capsys, "table", "--g-max", "9")
    assert code == 2
    assert "max_genus" in err


# -- cusp-limit command -------------------------------------------------------------


def test_cusp_limit_golden(capsys):
    code, out, _ = run(capsys, "cusp-limit", "--g", "1", "--cones", "1")
    assert code == 0
    assert out == "\\frac{\\pi^2}{12}\n"


def test_cusp_limit_slot_out_of_range(capsys):
    code, _, err = run(
        capsys, "cusp-limit", "--g", "1", "--cones", "1", "--slot", "2"
    )
    assert code == 2
    assert "cone slot" in err


# -- verify subcommands -------------------------------------------------------------


def test_verify_mcshane_json(capsys):
    code, out, _ = run(
        capsys,
        "verify", "mcshane", "--cusp", "--cutoff", "20", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == 0.5
    assert doc["partial_sums"][-1]["residual"] < 1e-6


def test_verify_mcshane_text_pass_line(capsys):
    code, out, _ = run(
        capsys, "verify", "mcshane", "--theta", "pi", "--cutoff", "20"
    )
    assert code == 0
    assert "result: pass" in out


def test_verify_mcshane_failing_tolerance(capsys):
    code, out, _ = run(
        capsys,
        "verify", "mcshane", "--cusp", "--cutoff", "12", "--tol", "1e-9",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_mcshane_passes_at_a_tolerance_equal_to_its_residual(capsys):
    # like every suite, mcshane passes on err <= tol
    code, out, _ = run(
        capsys, "verify", "mcshane", "--cusp", "--cutoff", "40", "--format", "json"
    )
    assert code == 0
    residual = json.loads(out)["partial_sums"][-1]["residual"]
    assert residual > 0
    code, out, _ = run(
        capsys, "verify", "mcshane", "--cusp", "--cutoff", "40", "--tol", repr(residual)
    )
    assert code == 0
    assert out.splitlines()[-1] == (
        "result: pass (final residual %.3e, tolerance %.3e)" % (residual, residual)
    )
    code, out, _ = run(
        capsys, "verify", "mcshane", "--cusp", "--cutoff", "40",
        "--tol", repr(math.nextafter(residual, 0.0)),
    )
    assert code == 1
    assert out.splitlines()[-1].startswith("result: FAIL")


def test_verify_mcshane_selection_required(capsys):
    code, _, err = run(capsys, "verify", "mcshane")
    assert code == 2
    assert "--theta" in err
    code, _, err = run(
        capsys, "verify", "mcshane", "--theta", "pi", "--cusp"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--length", "1e6"], "boundary length 1000000.0"),
        (["--cusp", "--cutoff", "1420"], "length cutoff 1420.0"),
        (["--cusp", "--cutoff", "1e4"], "length cutoff 10000.0"),
    ],
)
def test_verify_mcshane_trace_that_overflows_is_refused(argv, name, capsys):
    code, out, err = run(capsys, "verify", "mcshane", *argv)
    assert code == 2 and out == ""
    assert err == "error: the trace 2cosh(L/2) of %s is not a finite double\n" % name


# 2cosh(L/2) is a finite double up to L = 1419.5655
SWEEP = [1400 + 0.25 * i for i in range(101)] + [2000.0, 1e6]


@pytest.mark.parametrize("flags", [["--length"], ["--length", "100", "--cutoff"]])
def test_verify_mcshane_sweep_past_the_largest_trace(flags, capsys):
    # every length and cutoff is summed or refused as bad input: never a
    # failed check, never a traceback
    for value in SWEEP:
        code, out, err = run(capsys, "verify", "mcshane", *flags, repr(value))
        overflows = "is not a finite double" in err
        assert overflows == (value > 1419.5655), value
        if code == 0:
            assert "result: pass" in out and err == ""
        else:
            assert code == 2 and out == "", value
            assert overflows or "lies below the systole" in err, value


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["mcshane", "--cusp", "--tol"],
        ["mcshane", "--cusp", "--cutoff"],
        ["kernel", "--tol"],
        ["identity", "--tol"],
        ["recursion", "--tol"],
    ],
)
def test_tolerance_or_cutoff_not_positive_and_finite_is_refused(argv, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: must be positive and finite (got %r)" % (argv[-1], value) in err


def test_verify_identity(capsys):
    code, out, _ = run(capsys, "verify", "identity", "--grid", "4")
    assert code == 0
    assert "pass" in out


def test_verify_kernel(capsys):
    code, out, _ = run(
        capsys, "verify", "kernel", "--max-k", "2", "--samples", "3"
    )
    assert code == 0
    assert out.strip().endswith("pass")


def test_verify_kernel_runs_past_the_recursion_moment_cap(capsys):
    # max_moment_k caps the recursion, not the kernel suite
    code, out, err = run(
        capsys, "verify", "kernel", "--max-k", "13", "--samples", "1"
    )
    assert code == 0, err
    assert "moment k=13: 1 samples" in out
    assert out.strip().endswith("pass")


# SHA-256 of stdout, and the exit code, of the text suites: every ok, FAIL,
# pass and summary line is frozen byte for byte
PINNED_VERIFY_TEXT = {
    ("kernel", "--max-k", "1", "--samples", "2"): (
        0, "fd347edc22b5eece83a2bcd48e474317cce8584d2951836369e38ebc534a81d1"
    ),
    ("identity", "--grid", "2"): (
        0, "589ea9a1bb1f201ba81283068848621cceb1e076a4c4ff4389beb856f92bd3d2"
    ),
    ("identity", "--grid", "3", "--tol", "1e-30"): (
        1, "49d041ce7012a011ce2214eaf1dc8c0fba096bef25f75011f68d38beb1871f2f"
    ),
    ("recursion", "--g-max", "1", "--slot-max", "3", "--samples", "1"): (
        0, "ceed009afb3c6972d386de1058cd6e28658dfc1b2c84ae9f534939a07e5aa26c"
    ),
    ("recursion", "--g-max", "1", "--slot-max", "3", "--samples", "1",
     "--tol", "1e-30"): (
        1, "e160eb4bfbd5a9657ec0e0b0d8685101a919ae6d4974c274af0b3398660bdb2b"
    ),
}


@pytest.mark.parametrize("argv", sorted(PINNED_VERIFY_TEXT))
def test_verify_text_is_byte_pinned(argv, capsys):
    code, out, _ = run(capsys, "verify", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_VERIFY_TEXT[argv]


def test_verify_kernel_whose_integrand_overflows_is_refused(capsys):
    # x**(2k+1) passes the largest double before the kernel decays at k = 45;
    # every check runs before the first line is printed, so nothing is
    code, out, err = run(capsys, "verify", "kernel", "--max-k", "45", "--samples", "1")
    assert code == 2
    assert out == ""
    assert err == "error: integrand overflows a double: Numerical result out of range\n"


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is a real file, so what reaches it can be read."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_1_without_a_traceback(monkeypatch, tmp_path, capsys):
    # like `wpcone volume ... | head -0`: the write fails, main exits 1, and
    # stdout's descriptor now points at devnull, so the flush at exit cannot
    # raise again
    target = tmp_path / "stdout"
    with open(target, "wb") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        code = main(["volume", "--g", "1", "--boundaries", "1"])
        os.write(sink.fileno(), b"after the pipe closed")
    monkeypatch.undo()
    assert code == 1
    assert target.read_bytes() == b""
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["identity", "--grid", "0"], "--grid"),
        (["kernel", "--samples", "0"], "--samples"),
        (["kernel", "--max-k", "-1"], "--max-k"),
        (["recursion", "--samples", "0"], "--samples"),
        (["recursion", "--g-max", "-1"], "--g-max"),
        (["recursion", "--g-max", "0", "--slot-max", "2"], "--slot-max"),
    ],
)
def test_verify_suite_that_checks_nothing_is_refused(argv, flag, capsys):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err


def test_verify_recursion(capsys):
    code, out, _ = run(
        capsys,
        "verify", "recursion",
        "--g-max", "1", "--slot-max", "2", "--samples", "1",
    )
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize(
    "bounds, message",
    [
        (
            ["--g-max", "7", "--slot-max", "1"],
            "--g-max 7 exceeds max_genus=5; raise the max_genus configuration knob",
        ),
        (
            ["--slot-max", "9"],
            "--slot-max 9 exceeds max_slots=8; raise the max_slots configuration knob",
        ),
    ],
)
def test_verify_recursion_refuses_bounds_beyond_the_caps_like_table(
    bounds, message, capsys
):
    refused = (2, "", "error: %s\n" % message)
    assert run(capsys, "table", *bounds) == refused
    assert run(capsys, "verify", "recursion", *bounds) == refused


def test_verify_recursion_reads_max_moment_k(capsys):
    # (5, 1, 1) and (5, 0, 2) read moments up to k = 3g - 4 + m + n = 13,
    # past the default cap of 12
    argv = ["verify", "recursion", "--g-max", "5", "--slot-max", "2",
            "--samples", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and "max_moment_k=12" in err
    assert out == ""  # the checks that ran before the refusal print nothing
    code, out, err = run(capsys, *argv, "--max-moment-k", "13")
    assert code == 0, err
    assert "cone recursion (5,0,2): ok" in out


# -- options ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identity", "--max-genus", "1"],
        ["verify", "identity", "--config", "wpcone.cfg"],
        ["verify", "mcshane", "--cusp", "--max-moment-k", "3"],
        ["verify", "kernel", "--max-slots", "3"],
        ["verify", "recursion", "--quad-tol", "1e-9"],
        ["volume", "--g", "1", "--cones", "1", "--quad-tol", "1e-9"],
        ["table", "--quad-tol", "1e-9"],
        ["cusp-limit", "--g", "1", "--quad-tol", "1e-9"],
        ["volume", "--g", "1", "--cones", "1", "--threads", "2"],
        ["table", "--threads", "2"],
        ["verify", "mcshane", "--cusp", "--threads", "2"],
        ["verify", "kernel", "--config", "wpcone.cfg"],
        ["verify", "kernel", "--quad-tol", "1e-9"],
        ["verify", "identity", "--cutoff", "5"],
        ["volume", "--g", "1", "--cones", "1", "--config", "wpcone.cfg"],
        ["table", "--config", "wpcone.cfg"],
        ["cusp-limit", "--g", "1", "--config", "wpcone.cfg"],
        ["verify", "recursion", "--config", "wpcone.cfg"],
    ],
)
def test_flags_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_kernel_tolerance_the_quadrature_cannot_reach_is_refused(capsys):
    # the quadrature runs at a tenth of --tol; a tolerance tighter than the
    # integrator reaches is bad input
    argv = ["verify", "kernel", "--max-k", "0", "--samples", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip().endswith("pass")
    code, _, err = run(capsys, *argv, "--tol", "1e-11")
    assert code == 2 and err.startswith("error: ")
    assert "exceeds tolerance 1.000e-12" in err


def test_cap_flag_sets_the_cap(capsys):
    code, _, err = run(
        capsys, "volume", "--g", "2", "--boundaries", "1", "--max-genus", "1"
    )
    assert code == 2 and "max_genus=1" in err
    code, out, _ = run(
        capsys,
        "volume", "--g", "2", "--boundaries", "1",
        "--max-genus", "2", "--format", "text",
    )
    assert code == 0
    assert out.startswith("1/442368*l_1^8")


def test_environment_sets_no_cap(monkeypatch, capsys):
    monkeypatch.setenv("WPCONE_MAX_GENUS", "1")
    code, _, err = run(capsys, "volume", "--g", "2", "--boundaries", "1")
    assert code == 0, err


def _commands(parser, prefix=()):
    """(command, parser) for every leaf subcommand under parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


CAP_OPTIONS = {"--max-genus", "--max-slots", "--max-moment-k"}
SIGNATURE_OPTIONS = {"--g", "--boundaries", "--cones"}


# SHA-256 of each --help text at 80 columns: every option's name, default,
# choices and help text, and the order they are declared in, are frozen
PINNED_HELP = {
    (): "5cf3cbf45beff25017c242eb6a877412b753fe3378340c83c79df19a50ad26c8",
    ("volume",): "2d0252068b8ce59228f70e3253f1c5b0c7fdefc469026078a52dbf76c2ac4460",
    ("table",): "83f31676233b87ccc61b85bec7b7ae8b6666137e8e86a7b77619031acc5934d7",
    ("cusp-limit",): "fa5151e09dac0a62e406fd0f35fabe3f5fa968257f3f0ce9b88f1aca221cb3bb",
    ("verify",): "76d9e97ea3bb7efcb13d20d4d2466c41c030cb6730e10ecc7393a8909c195b11",
    ("verify", "mcshane"):
        "32ea228f39f4e6fc29c711e830588a51ed760365e809cb7a3af9988e75a1152e",
    ("verify", "kernel"):
        "843980e623f4655f0b729852727c85ccc1226ddbc7b09d51ef2fe49059a8d55c",
    ("verify", "identity"):
        "c3ede22839ea0160f2b1d021a2b723e81c2fffe19381254961b453e74a9937f1",
    ("verify", "recursion"):
        "23551d2894764f3576fa68f4bd20327457640cc29fcae1a85e49d9a324fadcdf",
}


@pytest.mark.parametrize("argv", sorted(PINNED_HELP))
def test_help_is_byte_pinned(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HELP[argv]


def test_option_inventory():
    # every option each command takes: a knob added or removed shows here
    got = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in _commands(build_parser())
    }
    assert got == {
        "volume": SIGNATURE_OPTIONS | CAP_OPTIONS
        | {"--lengths", "--angles", "--degrees", "--format"},
        "table": CAP_OPTIONS | {"--g-max", "--slot-max", "--format"},
        "cusp-limit": SIGNATURE_OPTIONS | CAP_OPTIONS | {"--slot", "--format"},
        "verify mcshane": {
            "--theta", "--length", "--cusp", "--degrees", "--cutoff", "--tol",
            "--asymmetric", "--format",
        },
        "verify kernel": {"--max-k", "--samples", "--tol", "--seed"},
        "verify identity": {"--grid", "--tol"},
        "verify recursion": CAP_OPTIONS
        | {"--g-max", "--slot-max", "--samples", "--tol", "--seed"},
    }


# -- process-level behavior ----------------------------------------------------------


def test_subprocess_latex_and_startup_time():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "wpcone.cli", "volume", "--g", "1",
         "--cones", "1"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert proc.stdout == CONE_TORUS_LATEX + "\n"
    assert elapsed < 1.0


# Every command with the package modules it loads, and no others.  Under
# `python -m wpcone.cli` the cli module runs as __main__, so the package
# itself stands in for it.
COMMAND_MODULES = [
    (["volume", "--g", "1", "--cones", "1"],
     {"conepoints", "kernels", "polyalg", "recursion"}),
    (["volume", "--g", "1", "--cones", "1", "--angles", "pi"],
     {"conepoints", "kernels", "polyalg", "recursion"}),
    (["table", "--g-max", "1", "--slot-max", "2"],
     {"kernels", "polyalg", "recursion"}),
    (["cusp-limit", "--g", "1", "--boundaries", "1"],
     {"conepoints", "kernels", "polyalg", "recursion"}),
    (["verify", "mcshane", "--cusp", "--cutoff", "20"],
     {"kernels", "mcshane"}),
    (["verify", "kernel", "--max-k", "0", "--samples", "1"],
     {"kernels", "polyalg"}),
    (["verify", "identity", "--grid", "2"],
     {"kernels", "mcshane", "polyalg", "recursion"}),
    (["verify", "recursion", "--g-max", "1", "--slot-max", "2", "--samples", "1"],
     {"kernels", "polyalg", "recursion"}),
]


def test_no_command_loads_numeric_stack():
    for argv, modules in COMMAND_MODULES:
        # -X importtime lists every module the child imports, one per line
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "wpcone.cli", *argv],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        ours = {name for name in imported if name.split(".")[0] == "wpcone"}
        assert ours == {"wpcone"} | {"wpcone." + m for m in modules}, argv
        # dataclasses would bring inspect, ast, dis and tokenize with it
        assert "dataclasses" not in imported, argv
        if argv[:2] == ["verify", "mcshane"]:
            assert "fractions" not in imported, argv
        heavy = sorted(
            name
            for name in imported
            if name.split(".")[0] in ("numpy", "scipy")
            or name == "concurrent.futures"
            or name.startswith("concurrent.futures.")
        )
        assert heavy == [], argv


PANTS_ARGV = ["volume", "--g", "0", "--boundaries", "3"]

# What a generated console script does: load the entry point, name the
# program after the script, and exit with the callable's return value.
CONSOLE_SCRIPT_SHIM = """\
import sys
from importlib.metadata import EntryPoint

main = EntryPoint("wpcone", sys.argv[1], "console_scripts").load()
sys.argv = ["wpcone"] + sys.argv[2:]
sys.exit(main())
"""


def test_console_script_installed():
    # Checks the declaration an installer turns into the `wpcone` command,
    # so it needs no install: Tier-1 runs from the source tree.
    tomllib = pytest.importorskip(
        "tomllib" if sys.version_info >= (3, 11) else "tomli"
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        scripts = tomllib.load(handle)["project"].get("scripts", {})
    assert scripts.get("wpcone") == "wpcone.cli:main"
    # Run the checkout's wpcone, not a stale installed copy.
    src = str(Path(wpcone.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT_SHIM, scripts["wpcone"],
         *PANTS_ARGV],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


@pytest.mark.skipif(
    shutil.which("wpcone") is None,
    reason="wpcone console script not installed on PATH",
)
def test_console_script_on_path():
    proc = subprocess.run(
        [shutil.which("wpcone"), *PANTS_ARGV],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_usage_error_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "wpcone.cli", "orbit"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv))
