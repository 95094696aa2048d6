"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's FFT path: the transform is the
literal O(N^2) definition sum, the bispectrum a literal triple loop and the
principal-domain (k1, k2) layout a literal double loop.
The OHLCV oracle is the row-at-a-time loader the columnar one replaced,
the series-CSV oracle the line loop that numpy's reader replaced,
the solver oracles the physical-space RK4 step that the spectral-state
one replaced, the in-place RK4 stages that the plain expressions replaced
and the per-step forcing that the time-blocked one replaced, and the
triple-product oracle the segment-major row loop with two normalizer
arrays that the segment-inner loop with one normalizer product replaced.
"""

import numpy as np


def dft_direct(values):
    """Literal sum_t f(t) exp(-i 2 pi k t / N), O(N^2)."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    out = np.empty(n, dtype=complex)
    t = np.arange(n)
    for k in range(n):
        out[k] = np.sum(v * np.exp(-2j * np.pi * k * t / n))
    return out


def domain_pairs(half):
    """Row-major (k1, k2) index arrays of the principal domain {0 <= k2 <= k1, k1 + k2 <= half}."""
    pairs = [(a, b) for a in range(half + 1) for b in range(min(a, half - a) + 1)]
    return np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])


def bispectrum_direct(values):
    """{(k1, k2): F(k1) F(k2) conj(F(k1+k2))} over the principal domain."""
    F = dft_direct(values)
    n = len(values)
    half = n // 2
    out = {}
    for k1 in range(half + 1):
        for k2 in range(min(k1, half - k1) + 1):
            out[(k1, k2)] = F[k1] * F[k2] * np.conj(F[k1 + k2])
    return out


def legacy_average_triple_products(F, segment_length):
    """The segment-major row loop that the segment-inner one replaced.

    F is the (M, half+1) one-sided segment spectra.  Returns (values, norm_a,
    norm_b) over the principal domain: the averaged triple products and the
    two averaged normalizers <|F(k1)F(k2)|^2> and <|F(k1+k2)|^2>.
    """
    from phasecorr.spectral import _row_offsets

    m = len(F)
    half = segment_length // 2
    size = _row_offsets(half, half + 1)
    values, norm_a, norm_b = np.empty(size, dtype=complex), np.empty(size), np.empty(size)
    P = np.abs(F) ** 2
    Fc = np.conj(F)
    off = _row_offsets(half, np.arange(half + 2)).tolist()
    power = P.sum(axis=0) / m
    for a in range(half + 1):
        lo, hi = off[a], off[a + 1]
        n = hi - lo
        values[lo:hi] = np.einsum("m,mk,mk->k", F[:, a], F[:, :n], Fc[:, a : a + n]) / m
        norm_a[lo:hi] = np.einsum("m,mk->k", P[:, a], P[:, :n]) / m
        norm_b[lo:hi] = power[a : a + n]
    return values, norm_a, norm_b


def legacy_load_ohlc_csv(path, schema=None):
    """The row-at-a-time OHLCV loader that the columnar one replaced.

    Returns (records, counts): records are (timestamp, o, h, l, c, v) tuples
    of the kept rows, counts the ``CleaningReport`` fields of that loader,
    which counted out-of-order rows as duplicates.  Raises the same errors.
    """
    import csv
    import math
    from datetime import datetime, timedelta
    from pathlib import Path

    from phasecorr.errors import FileUnreadable, NoValidRows, SchemaMismatch
    from phasecorr.market import DEFAULT_SCHEMA

    def parse_timestamp(text):
        for fmt in ("%Y-%m-%d %H:%M", "%Y-%m-%d %H:%M:%S"):
            try:
                return datetime.strptime(text.strip(), fmt)
            except ValueError:
                continue
        return None

    def valid_prices(o, h, l, c, v):
        if not all(math.isfinite(x) for x in (o, h, l, c, v)):
            return False
        if min(o, h, l, c) <= 0 or v < 0:
            return False
        return l <= min(o, c) and max(o, c) <= h

    colmap = dict(DEFAULT_SCHEMA)
    if schema:
        colmap.update(schema)
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc

    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames is None:
        raise FileUnreadable(f"{path} has no header row")
    for logical, column in colmap.items():
        if column not in reader.fieldnames:
            raise SchemaMismatch(f"column {column!r} (for {logical!r}) missing from {path}")

    counts = dict(n_records_in=0, n_records_out=0, n_gaps=0, n_dropped_invalid=0,
                  sessions_detected=0, n_dropped_duplicate=0)
    records = []
    last_ts = None
    one_minute = timedelta(minutes=1)
    for row in reader:
        counts["n_records_in"] += 1
        ts = parse_timestamp(row.get(colmap["datetime"]) or "")
        try:
            o = float(row[colmap["open"]])
            h = float(row[colmap["high"]])
            l = float(row[colmap["low"]])
            c = float(row[colmap["close"]])
            v = float(row[colmap["volume"]])
        except (TypeError, ValueError):
            counts["n_dropped_invalid"] += 1
            continue
        if ts is None or not valid_prices(o, h, l, c, v):
            counts["n_dropped_invalid"] += 1
            continue
        if last_ts is not None:
            if ts <= last_ts:
                counts["n_dropped_duplicate"] += 1
                continue
            if ts - last_ts != one_minute:
                counts["n_gaps"] += 1
        records.append((ts, o, h, l, c, v))
        last_ts = ts

    if not records:
        raise NoValidRows(f"{path} contains no valid OHLCV rows")
    counts["n_records_out"] = len(records)
    counts["sessions_detected"] = counts["n_gaps"] + 1
    return records, counts


def legacy_read_series_csv(path):
    """The line-at-a-time ``t,value`` reader that numpy's reader replaced;
    returns a ``TimeSeries`` and raises the same errors."""
    from pathlib import Path

    from phasecorr.errors import FileUnreadable
    from phasecorr.spectral import TimeSeries

    path = Path(path)
    values = []
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            if fh.readline().strip().lower() != "t,value":
                raise FileUnreadable(f"{path} is not a t,value series CSV")
            for line in fh:
                if not line.strip():
                    continue
                try:
                    values.append(float(line.split(",")[1]))
                except (IndexError, ValueError) as exc:
                    row = line.rstrip("\r\n")
                    raise FileUnreadable(f"{path}: bad row {row!r}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    return TimeSeries(values=np.array(values))


def reference_forcing(seed, n_grid, amplitude, step):
    """The masked forcing spectrum of one step, drawn and transformed on its own."""
    rng = np.random.default_rng([seed, step])
    f = amplitude * rng.uniform(-1.0, 1.0, n_grid)
    f -= f.mean()
    k = np.fft.rfftfreq(n_grid, d=1.0 / n_grid)
    return np.fft.rfft(f) * (k <= n_grid // 3)


def legacy_step(state, config):
    """The solver step that the spectral-state one replaced: it transforms the
    field in and out on every call and forms u * u_x in physical space."""
    from phasecorr.errors import BlowUp, CflViolation
    from phasecorr.simulator import FieldState

    n = config.n_grid
    k = np.fft.rfftfreq(n, d=1.0 / n)
    kphys = k * (2.0 * np.pi / config.length)
    ik, ksq, mask = 1j * kphys, kphys**2, k <= n // 3
    nonlinear = config.equation == "burgers"

    u0 = state.u
    if nonlinear:
        cfl = config.dt * float(np.abs(u0).max()) / (config.length / n)
        if cfl >= 1.0:
            raise CflViolation(state.step, cfl)

    fh = reference_forcing(config.seed, n, config.forcing_amplitude, state.step)

    def rhs(uh):
        r = -config.nu * ksq * uh + fh
        if nonlinear:
            u = np.fft.irfft(uh, n)
            ux = np.fft.irfft(ik * uh, n)
            r = r - np.fft.rfft(u * ux) * mask
        return r

    dt = config.dt
    uh = np.fft.rfft(u0) * mask
    r1 = rhs(uh)
    r2 = rhs(uh + 0.5 * dt * r1)
    r3 = rhs(uh + 0.5 * dt * r2)
    r4 = rhs(uh + dt * r3)
    uh = (uh + (dt / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)) * mask
    u = np.fft.irfft(uh, n)

    if not np.isfinite(u).all() or np.abs(u).max() > 1e6:
        raise BlowUp(state.step)
    return FieldState(u=u, time=state.time + dt, step=state.step + 1)


def inplace_step(state, config):
    """The solver step that the plain RK4 one replaced: the same spectral-state
    step with the stages summed into reused buffers by in-place operations."""
    from phasecorr.errors import BlowUp, CflViolation
    from phasecorr.simulator import (
        BLOWUP_LIMIT,
        FORCING_BLOCK,
        FieldState,
        _forcing_block,
        _spectral_operators,
    )

    n = config.n_grid
    lin, ik_half, mask = _spectral_operators(n, config.length, config.nu)
    nonlinear = config.equation == "burgers"

    u = state.u
    if nonlinear:
        cfl = config.dt * float(np.abs(u).max()) / (config.length / n)
        if cfl >= 1.0:
            raise CflViolation(state.step, cfl)
    uh = state.uh
    if uh is None:
        uh = np.fft.rfft(u) * mask
        u = np.fft.irfft(uh, n)  # the dealiased field the spectrum stands for

    block, row = divmod(state.step, FORCING_BLOCK)
    fh = _forcing_block(config.seed, n, config.forcing_amplitude, block)[row]

    # every term is masked, so the right-hand side and the update stay masked;
    # each in-place operation keeps the operand order of the plain expression
    # it stands for, so it rounds the same way
    def rhs(uh, u=None):
        r = lin * uh
        r += fh
        if nonlinear:
            if u is None:
                u = np.fft.irfft(uh, n)
            nl = np.fft.rfft(u * u)
            r -= np.multiply(ik_half, nl, out=nl)
        return r

    dt = config.dt
    r1 = rhs(uh, u)
    stage = np.multiply(0.5 * dt, r1)
    stage += uh
    r2 = rhs(stage)
    np.multiply(0.5 * dt, r2, out=stage)
    stage += uh
    r3 = rhs(stage)
    np.multiply(dt, r3, out=stage)
    stage += uh
    r4 = rhs(stage)
    # uh + (dt / 6) * (r1 + 2 r2 + 2 r3 + r4), summed in r2's buffer
    acc = np.multiply(2.0, r2, out=r2)
    acc += r1
    acc += np.multiply(2.0, r3, out=r3)
    acc += r4
    np.multiply(dt / 6.0, acc, out=acc)
    acc += uh
    uh = acc
    u = np.fft.irfft(uh, n)

    umax = float(np.abs(u).max())
    if not umax <= BLOWUP_LIMIT:  # also true for NaN
        raise BlowUp(state.step)
    new = FieldState(u=u, time=state.time + dt, step=state.step + 1)
    new.uh = uh
    return new


def legacy_run(config, step=legacy_step):
    """The run loop over ``step``: (probe values, snapshots, final state)."""
    from phasecorr.simulator import init_field

    state = init_field(config)
    probe = np.empty(config.n_steps)
    snapshots = []
    for i in range(config.n_steps):
        state = step(state, config)
        probe[i] = state.u[config.probe_index]
        if config.snapshot_stride and state.step % config.snapshot_stride == 0:
            snapshots.append((state.step, state.u.copy()))
    if not snapshots or snapshots[-1][0] != state.step:
        snapshots.append((state.step, state.u.copy()))
    return probe, snapshots, state
