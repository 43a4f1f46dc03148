"""Command line interface.

Carpets and gates are in reduced units: propagation is measured in carpet
periods and positions in grating periods, so `carpet` and `prepare` take
no wavelength.  Only `fidelity` does, since the wavelength sets the
non-paraxial walk-off of a finite grating.

Exit codes: 0 on success, 1 when a verification suite reports failures,
2 for usage errors, invalid configuration (slit states that are linearly
dependent on the chosen modes included), or a file that cannot be read
or written.  A stdout pipe closed by its reader (`gate -d 128 | head -c
20`) ends the run with exit 1 and no message, by click's broken-pipe rule;
the reader keeps what it read.  All outputs are byte-deterministic for a
fixed command line, a fixed BLAS thread count and a fixed NumPy CPU
dispatch: on an AVX-512 CPU, complex a*b and b*a can differ in the last
bit, so a CPU with other SIMD extensions can change float digits.  The
`fidelity` CSV can differ in its last digit between OpenBLAS thread
counts; pin them with OMP_NUM_THREADS / OPENBLAS_NUM_THREADS before
launch, since the backend reads them only when numpy is first imported.
"""

import json
import sys

import click
import numpy as np
from click.core import ParameterSource

from .carpet import detect_revivals, render_carpet, render_program_carpet
from .fidelity import (
    DEFAULT_EXTENT_FACTOR,
    DEFAULT_MODE_TRUNCATION,
    DEFAULT_SAMPLES,
    DEFAULT_SLIT_WIDTH,
    DEFAULT_WAVELENGTH,
    fidelity_sweep,
)
from .gates import talbot_unitary
from .grating import GratingSpec
from .measure import measure_probabilities
from .photonpair import build_cz, ideal_cz_matrix, interaction_phase_signature
from .programs import PhaseMask, prepare_bloch_state
from .serialize import (
    _matrix_fields,
    _postselected_fields,
    program_from_json,
    program_to_json,
    write_csv,
    write_json,
    write_pgm,
)
from .verify import format_report, run_suite, suite_names


def _write(path: str, writer, *args) -> None:
    """writer(path, *args), exiting with code 2 if the file cannot be written."""
    try:
        writer(path, *args)
    except OSError as error:
        click.echo(f"error: cannot write {path}: {error}", err=True)
        sys.exit(2)


def _emit(out: str | None, writer, *args) -> None:
    """writer(out, *args) through _write, or writer(stdout, *args) when out is None."""
    if out is None:
        writer(sys.stdout, *args)
        sys.stdout.flush()
    else:
        _write(out, writer, *args)


class _LibraryCommand(click.Command):
    """A command whose library ValueError becomes a usage error (exit 2).

    The library validates its own input, so the commands repeat none of
    its checks; this is the one place where its errors meet the CLI.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as error:
            raise click.UsageError(str(error), ctx) from error


@click.group()
def main() -> None:
    """Talbot carpets, qudit gates, and post-selected two-photon operations."""


main.command_class = _LibraryCommand


@main.command()
@click.option("--dim", "-d", type=click.IntRange(min=1), required=True,
              help="Number of levels.")
@click.option("--steps", "-q", type=int, default=1, show_default=True,
              help="Canonical Talbot steps (may be negative).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the matrix JSON here instead of stdout.")
def gate(dim: int, steps: int, out: str | None) -> None:
    """Print or save the q-step Talbot unitary."""
    payload = {"kind": "talbot_unitary", "steps": steps}
    payload.update(_matrix_fields(talbot_unitary(dim, steps)))
    _emit(out, write_json, payload)


def _load_program(path: str):
    try:
        with open(path, "r", encoding="ascii") as handle:
            return program_from_json(json.load(handle))
    except (OSError, ValueError) as error:
        raise click.UsageError(f"cannot load program {path}: {error}")


@main.command()
@click.option("--slit-ratio", type=float, default=0.5, show_default=True)
@click.option("--truncation", type=int, default=64, show_default=True)
@click.option("--zeta-min", type=float, default=0.0, show_default=True,
              help="First row of a free carpet.")
@click.option("--zeta-max", type=float, default=1.0, show_default=True,
              help="Last row of a free carpet.")
@click.option("--z-steps", type=int, default=257, show_default=True)
@click.option("--x-steps", type=int, default=256, show_default=True)
@click.option("--program", "program_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Render this optical program instead of a free carpet.")
@click.option("--initial-level", type=int, default=0, show_default=True,
              help="Input slit for program carpets.")
@click.option("--out", required=True, help="Output PGM path.")
@click.option("--csv", "csv_path", default=None, help="Also write rows as CSV here.")
def carpet(slit_ratio, truncation, zeta_min, zeta_max, z_steps, x_steps,
           program_path, initial_level, out, csv_path) -> None:
    """Render an intensity carpet and report revival rows."""
    ctx = click.get_current_context()
    given = {name for name in ctx.params
             if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT}
    if program_path is None and "initial_level" in given:
        raise click.UsageError("--initial-level applies only to --program carpets")
    if program_path is not None and given & {"zeta_min", "zeta_max"}:
        raise click.UsageError("--zeta-min/--zeta-max apply only to free carpets")
    spec = GratingSpec(slit_width=slit_ratio, mode_truncation=truncation)
    if program_path is None:
        image = render_carpet(spec, (zeta_min, zeta_max), z_steps, x_steps)
    else:
        program = _load_program(program_path)
        image = render_program_carpet(spec, program, z_steps, x_steps, initial_level=initial_level)
    _write(out, write_pgm, image.intensity)
    if csv_path is not None:
        metadata = {
            "slit_ratio": slit_ratio,
            "truncation": truncation,
            "mask_positions": ";".join(repr(p) for p in image.mask_positions),
        }
        x = image.x.tolist()
        rows = (
            (zeta, xj, value)
            for zeta, row in zip(image.zeta.tolist(), image.intensity)
            for xj, value in zip(x, row.tolist())
        )
        _write(csv_path, write_csv, ["zeta", "x", "intensity"], rows, metadata)
    for position, residual in zip(image.mask_positions, image.mask_residuals):
        click.echo(f"mask at zeta={position!r} projection_residual={residual:.3e}")
    for revival in detect_revivals(image):
        click.echo(
            f"revival at zeta={revival.zeta!r} shift={revival.shift!r} "
            f"similarity={revival.similarity!r}"
        )
    click.echo(f"wrote {out}")


@main.command()
@click.option("--suite", type=click.Choice([*suite_names(), "all"]), default="all",
              show_default=True)
@click.option("--json-out", type=click.Path(dir_okay=False), default=None,
              help="Write the full report as JSON.")
def verify(suite: str, json_out: str | None) -> None:
    """Run self-verification suites; exit 1 on any failure."""
    result = run_suite(suite)
    click.echo(format_report(result), nl=False)
    if json_out is not None:
        _write(json_out, write_json, result)
    if not result["all_passed"]:
        sys.exit(1)


@main.command()
@click.option("--n-slits", default="5,20,100", show_default=True,
              help="Comma-separated envelope widths (illuminated slit counts).")
@click.option("--m-max", type=click.IntRange(min=1), default=10, show_default=True,
              help="Sweep revival orders 1..m-max.")
@click.option("--slit-ratio", type=float, default=DEFAULT_SLIT_WIDTH, show_default=True)
@click.option("--wavelength", type=float, default=DEFAULT_WAVELENGTH, show_default=True)
@click.option("--truncation", type=int, default=DEFAULT_MODE_TRUNCATION, show_default=True)
@click.option("--n-x", type=int, default=DEFAULT_SAMPLES, show_default=True)
@click.option("--extent-factor", type=float, default=DEFAULT_EXTENT_FACTOR,
              show_default=True)
@click.option("--periodic-control", is_flag=True,
              help="Append ideal infinite-comb control rows.")
@click.option("--out", default=None, help="Write CSV here instead of stdout.")
def fidelity(n_slits, m_max, slit_ratio, wavelength, truncation, n_x, extent_factor,
             periodic_control, out) -> None:
    """Tabulate revival fidelity against envelope width."""
    try:
        widths = [float(part) for part in n_slits.split(",") if part]
    except ValueError:
        raise click.UsageError(f"--n-slits must be comma-separated numbers, got {n_slits!r}")
    if not widths:
        raise click.UsageError("--n-slits must name at least one width")
    rows = fidelity_sweep(
        n_slits=widths,
        m_list=tuple(range(1, m_max + 1)),
        slit_width=slit_ratio,
        wavelength=wavelength,
        mode_truncation=truncation,
        n_x=n_x,
        extent_factor=extent_factor,
        include_periodic_control=periodic_control,
    )
    metadata = {
        "slit_ratio": slit_ratio,
        "wavelength": wavelength,
        "truncation": truncation,
        "n_x": n_x,
        "extent_factor": extent_factor,
    }
    _emit(
        out,
        write_csv,
        ["n_slits", "talbot_periods", "fidelity", "dropped_norm_fraction",
         "aliasing_risk", "periodic_control"],
        (
            (r.n_slits, r.talbot_periods, r.fidelity, r.dropped_norm_fraction,
             r.aliasing_risk, r.periodic_control)
            for r in rows
        ),
        metadata,
    )
    if out is not None:
        click.echo(f"wrote {out}")


@main.command()
@click.option("--theta", type=float, required=True,
              help="Amplitude angle: output is cos(theta)|0> + e^{i phi} sin(theta)|1>.")
@click.option("--phi", type=float, required=True, help="Relative phase.")
@click.option("--out-prefix", required=True,
              help="Writes <prefix>_program.json, <prefix>_carpet.pgm, <prefix>_masks.csv.")
@click.option("--slit-ratio", type=float, default=0.25, show_default=True)
@click.option("--truncation", type=int, default=64, show_default=True)
@click.option("--z-steps", type=int, default=257, show_default=True)
@click.option("--x-steps", type=int, default=256, show_default=True)
def prepare(theta, phi, out_prefix, slit_ratio, truncation, z_steps, x_steps) -> None:
    """Emit the Bloch-state preparation program, its carpet, and mask table."""
    program, state = prepare_bloch_state(theta, phi)
    spec = GratingSpec(slit_width=slit_ratio, mode_truncation=truncation)
    image = render_program_carpet(spec, program, z_steps, x_steps)
    _write(out_prefix + "_program.json", write_json, program_to_json(program))
    _write(out_prefix + "_carpet.pgm", write_pgm, image.intensity)

    masks = [step.phases for step in program.steps if isinstance(step, PhaseMask)]
    mask_rows = [
        (index, position, *phases)
        for index, (position, phases) in enumerate(zip(image.mask_positions, masks))
    ]
    header = ["index", "zeta", *[f"phase_{d}" for d in range(program.dim)]]
    _write(out_prefix + "_masks.csv", write_csv, header, mask_rows)

    probabilities = measure_probabilities(state)
    click.echo(f"population_0={float(probabilities[0])!r}")
    click.echo(f"population_1={float(probabilities[1])!r}")
    relative = float(np.angle(state[1] * np.conj(state[0]))) if (
        abs(state[0]) > 1e-12 and abs(state[1]) > 1e-12
    ) else float("nan")
    click.echo(f"relative_phase={relative!r}")
    click.echo(f"wrote {out_prefix}_program.json {out_prefix}_carpet.pgm "
               f"{out_prefix}_masks.csv")


@main.command()
@click.option("--dim", "-d", type=click.IntRange(min=2), required=True)
@click.option("--control", "-k", type=int, required=True,
              help="Level picking up the pi phase.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the operator JSON here instead of stdout.")
def czgate(dim: int, control: int, out: str | None) -> None:
    """Build the post-selected controlled-Z and report its figures of merit."""
    op = build_cz(dim, control)
    moduli = np.abs(np.diagonal(op.matrix))
    chi = interaction_phase_signature(op.matrix)
    chi_ideal = interaction_phase_signature(ideal_cz_matrix(dim, control))
    payload = _postselected_fields(op)
    payload["modulus_range"] = [float(moduli.min()), float(moduli.max())]
    payload["success_probability_range"] = [
        float(op.success_probabilities.min()),
        float(op.success_probabilities.max()),
    ]
    payload["interaction_phase_deviation"] = float(np.abs(chi - chi_ideal).max())
    _emit(out, write_json, payload)
    if out is not None:
        click.echo(f"success_probability={float(op.success_probabilities.min())!r}")
        click.echo(f"interaction_phase_deviation={payload['interaction_phase_deviation']!r}")
        click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
