"""Batch front end: strict key = value configs, named experiments, CSV
artifacts with full config echo, deterministic byte-for-byte output.

A `run` call shares one memo (the checked model, its FD oracle, the ladder
pass) among its experiments, which all run at the config they echo; each
artifact equals its command's run alone.  The memo ends with the run; a
process keeps only ads_model's memo of the quadrature rule and the FD
oracle, whose read-only arrays equal a fresh build bit for bit.

Exit codes: 0 every check within its bound (each bound is set in code, not
in the config), 1 a check failed, 2 usage or configuration error
(ConfigError), or an experiment that cannot run at the given settings
(phase_core.ShapeError, the package's one refusal type). Each config rule
is checked once, in validate_config; the library takes the rules as given.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy import sparse

from . import __version__
from . import ads_model as am
from . import ccr_fock as cf
from . import holography as hg
from . import phase_core as pc


class ConfigError(ValueError):
    pass


# absolute rounding allowance of the Weyl errors and distances, whose target
# has norm 1/2; the errors on rungs at the rounding floor stay below 1e-15
WEYL_ROUNDING = 1e-14

# relative gap allowed between the propagator source's mode integrals by the
# model quadrature and by a uniform trapezoid rule (2.2e-10 at the default)
PROJECTION_TOLERANCE = 1e-8

# largest rise allowed from one rung to the next of the inclusion residuals
# and of the Weyl errors
MONOTONICITY_SLACK = 1e-3

# largest gaps allowed: model frequencies against the FD oracle, and P u
# against the projected source, which peaks at 1 (9.3e-9 at the default)
EIG_TOLERANCE = 1e-6
PDE_TOLERANCE = 1e-5


def _key(section, default):
    """A RunConfig field read from and echoed to config section [section]."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class RunConfig:
    nu: float = _key("model", 0.7)
    k: int = _key("model", 30)
    n: int = _key("model", 512)
    perturbation: str = _key("model", "none")  # mollifier amp:center:width
    o: str = _key("regions", "-:-3.3:3.3;+:-3.3:3.3")
    v: str = _key("regions", "-0.5:0.5:-0.8:0.8")
    ladder: str = _key("experiment", "25,50,100,200,400")
    n_bulk: int = _key("experiment", 10)
    seed: int = _key("experiment", 0)


def _schema():
    """{section: {key: type}} in field order: the layout of config files and
    of the config echo in every artifact."""
    schema = {}
    for f in fields(RunConfig):
        schema.setdefault(f.metadata["section"], {})[f.name] = f.type
    return schema


_SCHEMA = _schema()


def parse_config_text(text):
    values = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header")
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section "
                                  f"[{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in "
                              f"[{section}]")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        typ = _SCHEMA[section][key]
        try:
            values[key] = typ(val) if typ is not str else val
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse {key} = {val!r}") from None
    cfg = replace(RunConfig(), **values)
    validate_config(cfg)
    return cfg


def parse_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def validate_config(cfg):
    if not math.isfinite(cfg.nu):
        raise ConfigError("nu must be a finite number")
    if cfg.nu <= 0.0:
        raise ConfigError("nu: Breitenlohner-Freedman bound requires nu > 0")
    if cfg.k < 1:
        raise ConfigError("k must be >= 1")
    if cfg.n < 4 * cfg.k:
        raise ConfigError("n must be >= 4 k")
    if cfg.n_bulk < 1:
        raise ConfigError("n_bulk must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.n // 2 <= am.SUPPORT_MARGIN:
        raise ConfigError(f"n must be >= {2 * am.SUPPORT_MARGIN + 2}: the "
                          f"grid keeps {am.SUPPORT_MARGIN} cells clear of "
                          "each wall")
    parse_o_region(cfg.o)
    parse_v_region(cfg.v)
    parse_ladder(cfg.ladder)
    parse_perturbation(cfg.perturbation)


def _finite_floats(bits, what):
    """float(b) for b in bits; ConfigError unless each is a finite number."""
    try:
        vals = [float(b) for b in bits]
    except ValueError:
        raise ConfigError(f"cannot parse {what}") from None
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{what}: values must be finite numbers")
    return vals


def parse_ladder(text):
    """Dictionary sizes of the rungs, strictly increasing and >= 1."""
    try:
        ladder = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse ladder {text!r}") from None
    if any(a >= b for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("ladder must be strictly increasing")
    if any(s < 1 for s in ladder):
        raise ConfigError("ladder entries must be >= 1")
    return ladder


def parse_o_region(text):
    """Boundary region O as ((component, t0, t1), ...), the intervals on
    each component ordered and disjoint; () for none."""
    if not text or text == "none":
        return ()
    ivs = []
    for part in text.split(";"):
        bits = part.split(":")
        if len(bits) != 3 or bits[0] not in ("+", "-"):
            raise ConfigError(f"cannot parse boundary interval {part!r}")
        ivs.append((bits[0], *_finite_floats(
            bits[1:], f"boundary interval {part!r}")))
    for comp, t0, t1 in ivs:
        if not t0 < t1:
            raise ConfigError(f"bad interval ({comp}, {t0}, {t1})")
    for comp in ("+", "-"):
        ts = [(t0, t1) for c, t0, t1 in ivs if c == comp]
        if any(not a1 <= b0 for (_, a1), (b0, _) in zip(ts, ts[1:])):
            raise ConfigError(
                "boundary intervals must be ordered and disjoint")
    return tuple(ivs)


def parse_v_region(text):
    """Bulk region V as ((t0, t1, x0, x1), ...), disjoint rectangles; ()
    for none."""
    if not text or text == "none":
        return ()
    rects = []
    for part in text.split(";"):
        bits = part.split(":")
        if len(bits) != 4:
            raise ConfigError(f"cannot parse bulk rectangle {part!r}")
        rects.append(tuple(_finite_floats(bits, f"bulk rectangle {part!r}")))
    for t0, t1, x0, x1 in rects:
        if not (t0 < t1 and x0 < x1):
            raise ConfigError(f"bad rectangle ({t0},{t1},{x0},{x1})")
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            if a[0] < b[1] and b[0] < a[1] and a[2] < b[3] and b[2] < a[3]:
                raise ConfigError("bulk rectangles must be disjoint")
    return tuple(rects)


@dataclass(frozen=True)
class Perturbation:
    """W(x) = amp * mollifier((x - center) / width), as a value: equal
    parses hash equal, so they share ads_model's oracle memo."""
    amp: float
    center: float
    width: float

    def __call__(self, x):
        return self.amp * am.mollifier((np.asarray(x) - self.center)
                                       / self.width)


def parse_perturbation(text):
    if text == "none":
        return None
    bits = text.split(":")
    if len(bits) != 3:
        raise ConfigError(f"cannot parse perturbation {text!r} "
                          "(want amp:center:width or none)")
    amp, center, width = _finite_floats(bits, f"perturbation {text!r}")
    if width <= 0:
        raise ConfigError("perturbation width must be positive")
    return Perturbation(amp, center, width)


def serialize_config(cfg):
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            val = getattr(cfg, key)
            if isinstance(val, float):
                lines.append(f"{key} = {val!r}")
            else:
                lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


def once(memo, key, make):
    """memo[key], made by make() on its first use in the run."""
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _within(name, value, bound):
    """The check that value is at most bound."""
    return name, value, bound, value <= bound


def _nonincreasing(name, values):
    """The check that values rise by at most MONOTONICITY_SLACK per step."""
    rise = max((b - a for a, b in zip(values, values[1:])), default=0.0)
    return _within(name, float(rise), MONOTONICITY_SLACK)


def checked_model(cfg, memo):
    """The configured model and its two checks, as (name, value, bound, ok):
    the quadrature Gram residual of the modes, and the largest gap between
    the first min(k, 30) frequencies and the finite-difference oracle."""
    perturbation = parse_perturbation(cfg.perturbation)
    # the oracle goes first: it rejects a nu whose weight cos^(2 nu_+)
    # underflows before the model build meets the same underflow
    k_check = min(cfg.k, 30)
    fd = once(memo, "fd", lambda: am.fd_mode_frequencies(
        cfg.nu, k_check, 2000, perturbation=perturbation))
    model = once(memo, "model", lambda: am.build_model(
        cfg.nu, cfg.k, cfg.n, perturbation=perturbation))
    gram = (model.mode_values * model.wq) @ model.mode_values.T
    ortho = float(np.abs(gram - np.eye(cfg.k)).max())
    err = float(np.abs(fd - model.omegas[:k_check]).max())
    return model, [
        _within("mode_orthonormality [one_particle quadrature Gram]", ortho,
                1e-8),
        _within("fd_spectrum_agreement [fd_mode_frequencies]", err,
                EIG_TOLERANCE)]


def build_cfg_model(cfg, memo):
    """The configured model; ShapeError if either model check fails."""
    model, checks = checked_model(cfg, memo)
    for name, value, bound, ok in checks:
        if not ok:
            raise pc.ShapeError(f"{name} {value:.3e} exceeds {bound:.1e}")
    return model


def shared_ladder(cfg, memo):
    """(bases, w): holography.ladder_pass on the checked model."""
    return once(memo, "ladder", lambda: hg.ladder_pass(
        build_cfg_model(cfg, memo), parse_o_region(cfg.o),
        parse_v_region(cfg.v), parse_ladder(cfg.ladder), cfg.n_bulk,
        cfg.seed))


# ----------------------------------------------------------------------
# artifact formatting

def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.16e" % float(v)
    return str(v)


def _meta_lines(cfg, command):
    lines = [f"adsholo {__version__}", f"command = {command}"]
    lines += [l for l in serialize_config(cfg).splitlines() if l]
    return lines


def write_csv(path, cfg, command, header, rows):
    out = [f"# {l}" for l in _meta_lines(cfg, command)]
    out.append(",".join(header))
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def write_report(path, cfg, command, lines):
    text = "\n".join(_meta_lines(cfg, command) + [""] + lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


# ----------------------------------------------------------------------
# commands(cfg, memo) -> (checks, notes, csv_name, header, rows): a check is
# (name, value, bound, ok); run writes one report line per check, then the
# note lines, and exits 1 if any check is not ok

def cmd_modes(cfg, memo):
    model, checks = checked_model(cfg, memo)
    rows = list(zip(range(model.K), model.omegas, model.beta_minus,
                    model.beta_plus))
    return (checks, [], "modes", ("k", "omega", "beta_minus", "beta_plus"),
            rows)


def cmd_propagator(cfg, memo):
    model = build_cfg_model(cfg, memo)
    sig_t, sig_x, n_sigma = 0.3, 0.22, 6.8
    v = am.bulk_bump(model, 0.0, 0.0, sig_t, sig_x, t_step=0.003,
                     n_sigma=n_sigma)
    vt = am._mode_time_series(model, v)                    # (nt, K)

    # u before the source support, where it is 0, and at the PDE check times
    t_pre = v.t_grid[0] - v.t_step * (1.0 + np.arange(5))
    u = am.propagator_apply(model, v, np.concatenate([t_pre, v.t_grid[::2]]))
    pre = float(np.abs(u[:5]).max())
    u = u[5:]                                              # (nt', K)

    # the mode integrals of the densitized space factor by a second path, a
    # uniform trapezoid rule over the support; its truncation edge near the
    # wall leaves the two paths 2e-10 apart
    xs = np.linspace(-1.5, 1.5, 601)
    h_xs = np.exp(-0.5 * (xs / sig_x) ** 2) / np.cos(xs) ** 2
    h_xs[np.abs(xs) > n_sigma * sig_x] = 0.0
    trap = model.eval_modes(xs) @ (h_xs * am._trapezoid_weights(xs))
    proj = float(np.abs(vt - v.t_factors * trap).max() / np.abs(vt).max())

    # finite-difference check of P u against the K-mode projected source
    # cos^2 x sum_k vt_k(t) phi_k(x) on a uniform interior grid, on the
    # factors of u = sum_k u_k(t) phi_k(x); every second source time, so the
    # second difference is blind to the odd/even pattern of the integrator
    xg = np.linspace(-1.2, 1.2, 601)
    phi = model.eval_modes(xg)                             # (K, 601)
    dx = xg[1] - xg[0]

    def d2(f, h):  # fourth order along axis 0, two samples short each end
        return (-30.0 * f[2:-2] + 16.0 * (f[1:-3] + f[3:-1])
                - (f[:-4] + f[4:])) / (12.0 * h * h)

    cos2 = np.cos(xg[2:-2]) ** 2
    perturbation = parse_perturbation(cfg.perturbation)
    w = 0.0 if perturbation is None else perturbation(xg[2:-2])
    pot = model.mass + cos2 * w
    phi_in = phi[:, 2:-2]
    # P u - cos^2 vt.phi = (u_tt - vt).cos^2 phi + u.(pot phi - cos^2 phi_xx)
    # as one (t, x) product; the source peaks at 1
    resid = float(np.abs(
        np.hstack([d2(u, 2.0 * v.t_step) - vt[::2][2:-2], u[2:-2]])
        @ np.vstack([cos2 * phi_in, pot * phi_in - cos2 * d2(phi.T, dx).T])
    ).max())
    # the plain source minus its projection at the peak time, where g = 1
    peak = vt[np.argmax(v.t_factors[:, 0])]
    trunc = float(np.abs(np.exp(-0.5 * (xg[2:-2] / sig_x) ** 2)
                         - cos2 * (peak @ phi_in)).max())
    checks = [
        _within("retarded_pre_support [propagator_apply]", pre, 1e-14),
        _within("source_projection [_mode_time_series, trapezoid]", proj,
                PROJECTION_TOLERANCE),
        _within("pde_residual [propagator_apply, 4th-order FD]", resid,
                PDE_TOLERANCE)]
    notes = [f"source_truncation: {_fmt(trunc)} (plain source minus its "
             f"{model.K}-mode projection)"]

    norms = np.sqrt(((u @ ((phi * dx) @ phi.T)) * u).sum(axis=1))
    rows = [(float(t), float(nm)) for t, nm in zip(v.t_grid[::2], norms)]
    return checks, notes, "propagator", ("t", "l2_norm_u"), rows


def _commutator_residual(rep, f1, f2, scalar, occ_cap):
    """Largest column norm of [f1, f2] - i scalar on the basis vectors of
    total occupation <= occ_cap, on the sparse product."""
    cols = [j for j, occ in enumerate(rep.basis) if sum(occ) <= occ_cap]
    diff = (f1 @ f2[:, cols] - f2 @ f1[:, cols]
            - 1j * scalar * sparse.identity(rep.dim, format="csr")[:, cols])
    return float(np.sqrt(np.bincount(diff.indices, np.abs(diff.data) ** 2,
                                     minlength=len(cols)).max()))


def _check_rows(checks):
    """CSV rows (check, value, bound) of checks named "check [source]"."""
    return [(name.split(" [")[0], value, bound)
            for name, value, bound, _ in checks]


def cmd_ccr_verify(cfg, memo):
    rng = np.random.default_rng(cfg.seed)
    rep = cf.fock_rep(1, 40)

    def draw():
        return rng.uniform(0.1, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))

    eye = np.eye(rep.dim)
    e_low = eye[:, [j for j, occ in enumerate(rep.basis) if sum(occ) <= 10]]
    h1, h2 = np.array([(draw(), draw()) for _ in range(20)]).T[..., None]
    phase = np.exp(-0.5j * np.imag(np.conj(h1) * h2))
    diff = (cf.weyl_apply(rep, h1, cf.weyl_apply(rep, h2, e_low))
            - phase[..., None] * cf.weyl_apply(rep, h1 + h2, e_low))
    weyl_res = float(np.linalg.norm(diff, axis=1).max())

    i0 = rep.vacuum_index
    radii = np.array([0.25, 0.5, 0.75, 1.0])
    h = np.array([[r * np.exp(1j * rng.uniform(0, 2 * np.pi))] for r in radii])
    w_vac = cf.weyl_apply(rep, h, eye[:, i0])
    vac_err = float(np.abs(w_vac[:, i0] - np.exp(-radii * radii / 4.0)).max())

    w, w_minus = cf.weyl_apply(rep, [[0.7 + 0.2j], [-0.7 - 0.2j]], eye)
    adj = float(np.abs(w.conj().T - w_minus).max())

    checks = [
        _within("weyl_relation_residual [weyl_apply]", weyl_res, 1e-6),
        _within("vacuum_expectation_error [weyl_apply]", vac_err, 1e-8),
        _within("weyl_adjoint_residual [weyl_apply]", adj,
                cf.EXP_TOLERANCE)]
    return (checks, [], "ccr_verify", ("check", "value", "bound"),
            _check_rows(checks))


def cmd_kw_verify(cfg, memo):
    jmat = np.array([[0.0, 1.0], [-1.0, 0.0]])

    # pure saturated case: K has d / 2 = 1 row
    ps2 = pc.PhaseSpace(2, np.eye(2), 2.0 * jmat)
    k2 = pc.one_particle_structure(ps2)
    rep = cf.fock_rep(len(k2), 40)
    f1, f2 = (cf.segal_field(rep, h) for h in k2.T)
    checks = [
        _within("pure_commutator_residual [one_particle_structure]",
                _commutator_residual(rep, f1, f2, 2.0, rep.n_max - 2), 1e-8),
        _within("pure_quasifree_error [quasifree_expectation_check]",
                cf.quasifree_expectation_check(rep, k2, ps2, [1.0, 0.0]),
                1e-6)]

    # mixed case: the second plane is not saturated, so K has 2 rows there
    eta4 = np.diag([1.0, 1.0, 2.0, 2.0])
    sigma4 = np.zeros((4, 4))
    sigma4[:2, :2] = 2.0 * jmat
    sigma4[2:, 2:] = 2.0 * jmat
    ps4 = pc.PhaseSpace(4, eta4, sigma4)
    k4 = pc.one_particle_structure(ps4)
    doubled = 2 * len(k4) - ps4.dim
    checks.append(("mixed_doubled_dim [one_particle_structure]",
                   float(doubled), 2.0, doubled == 2))
    rep4 = cf.fock_rep(len(k4), 12)
    rng = np.random.default_rng(cfg.seed)
    comm4 = 0.0
    for _ in range(5):
        v = rng.standard_normal(4) * 0.5
        w = rng.standard_normal(4) * 0.5
        comm4 = max(comm4, _commutator_residual(
            rep4, cf.segal_field(rep4, k4 @ v), cf.segal_field(rep4, k4 @ w),
            float(v @ (ps4.sigma @ w)), rep4.n_max - 2))
    checks += [
        _within("mixed_commutator_residual [one_particle_structure]", comm4,
                1e-8),
        _within("mixed_quasifree_error [quasifree_expectation_check]",
                cf.quasifree_expectation_check(rep4, k4, ps4,
                                               [0.4, 0.1, -0.2, 0.3]),
                1e-6)]
    return (checks, [], "kw_verify", ("check", "value", "bound"),
            _check_rows(checks))


def cmd_holo_inclusion(cfg, memo):
    table = hg.run_inclusion(build_cfg_model(cfg, memo),
                             parse_o_region(cfg.o), parse_ladder(cfg.ladder),
                             *shared_ladder(cfg, memo))
    res = [r[1] for r in table.rungs]
    checks = [_nonincreasing("residual_monotone [run_inclusion]", res)]
    notes = [f"plateau_residual: {_fmt(res[-1])} (initial {_fmt(res[0])}, "
             f"sigma_min_ref {_fmt(table.sigma_min_ref)})"]
    rows = [(*r, table.sigma_min_ref) for r in table.rungs]
    return checks, notes, "holo_inclusion", ("dict_size", "max_residual",
                                             "mean_residual", "rank",
                                             "sigma_min_ref"), rows


def cmd_uc_scan(cfg, memo):
    model = build_cfg_model(cfg, memo)
    # the nested windows [-t, t] on both components, min(4, k) modes, on one
    # lattice of step 0.01 from the start of the largest window
    t_halves = (0.6, 1.2, 1.8, 2.4, 3.0)
    k_eff = min(4, model.K)
    sig = [am.uc_scan(model, [("-", -th, th), ("+", -th, th)], k_eff,
                      -max(t_halves), 0.01) for th in t_halves]
    rows = [(i, th, s) for i, (th, s) in enumerate(zip(t_halves, sig))]
    return ([], [f"modes_scanned: {k_eff}"], "uc_scan",
            ("index", "t_half", "sigma_min"), rows)


def cmd_weyl_convergence(cfg, memo):
    rows, lipschitz = hg.run_weyl_convergence(
        parse_ladder(cfg.ladder), *shared_ladder(cfg, memo))
    errs = [r[3] for r in rows]
    # error / (lipschitz * compressed distance + WEYL_ROUNDING): at most 1
    # where the bound holds, and a rung at the rounding floor cannot set it
    ratio = max(e / (lipschitz * cd + WEYL_ROUNDING) for _, _, cd, e in rows)
    checks = [
        _nonincreasing("weyl_errors_decreasing [run_weyl_convergence]", errs),
        _within("weyl_final_error [run_weyl_convergence]", errs[-1], 1e-3),
        _within("weyl_lipschitz_ratio [run_weyl_convergence]", ratio, 1.0)]
    notes = [f"lipschitz_constant: {_fmt(lipschitz)}"]
    return checks, notes, "weyl_convergence", ("dict_size", "distance",
                                               "compressed_distance",
                                               "error"), rows


_DISPATCH = {
    "modes": cmd_modes,
    "propagator": cmd_propagator,
    "ccr-verify": cmd_ccr_verify,
    "kw-verify": cmd_kw_verify,
    "holo-inclusion": cmd_holo_inclusion,
    "uc-scan": cmd_uc_scan,
    "weyl-convergence": cmd_weyl_convergence,
}
COMMANDS = (*_DISPATCH, "check-all")


def run(command, cfg, out_dir="."):
    """Run one named experiment, or every one on one memo for check-all;
    returns the largest exit code."""
    if command != "check-all" and command not in _DISPATCH:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write to output directory {out_dir!r}: "
              f"{exc.strerror}", file=sys.stderr)
        return 2
    memo, code = {}, 0
    for sub in _DISPATCH if command == "check-all" else (command,):
        try:
            checks, notes, name, header, rows = _DISPATCH[sub](cfg, memo)
        except (ConfigError, pc.ShapeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
            continue
        write_csv(os.path.join(out_dir, f"{name}.csv"), cfg, sub,
                  header, rows)
        lines = [f"{n}: {_fmt(v)} (bound {_fmt(b)}) {'PASS' if ok else 'FAIL'}"
                 for n, v, b, ok in checks]
        text = write_report(os.path.join(out_dir, f"{name}_report.txt"),
                            cfg, sub, lines + notes)
        print(text, end="")
        code = max(code, 0 if all(ok for *_, ok in checks) else 1)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="adsholo",
        description="Boundary/bulk inclusion experiments for the free "
                    "Klein-Gordon field on the AdS2 strip.")
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default config and exit")
    args = parser.parse_args(argv)

    if args.print_defaults:
        print(serialize_config(RunConfig()), end="")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
            validate_config(cfg)
    except FileNotFoundError:
        print(f"error: config file {args.config!r} not found",
              file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config file {args.config!r}: {exc}",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    return run(args.command, cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
