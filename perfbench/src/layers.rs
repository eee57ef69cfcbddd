//! The layer pass: direct, individually timed calls into each layer
//! crate's public functions, with inputs built by the crate's own
//! constructors at the workload's resolution — plus the computed kernel
//! counts (operation counts, bytes touched, working set against the
//! host's last-level cache) that put those timings in context.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use foam::{sea_area_weights, AtmModel, DriverStream, FoamConfig, StreamStatsConfig};
use foam_ckpt::{Codec, Snapshot, SnapshotWriter};
use foam_coupler::{AtmSurfaceFields, Coupler};
use foam_grid::{AtmGrid, Field2, OceanGrid, World};
use foam_mpi::{ReduceOp, Universe};
use foam_ocean::{OceanForcing, OceanModel};
use foam_physics::{
    AtmColumn, ColumnPhysics, OrbitalState, PhysicsWorkspace, RadCache, SurfaceState,
};
use foam_spectral::{
    Complex, SpectralField, SpectralWorkspace, SphericalTransform, SynthKind, Truncation,
};
use foam_telemetry::TelemetryRegistry;

use crate::metrics::Metrics;
use crate::spans;
use crate::stats::Summary;

/// Time `n` calls of `f` one by one (after `warm` untimed ones), each
/// inside a span named `name`.
fn time_calls(
    name: &'static str,
    parent: Option<usize>,
    warm: usize,
    n: usize,
    mut f: impl FnMut(),
) -> Vec<f64> {
    for _ in 0..warm {
        f();
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let _span = spans::open(name, parent);
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Print a per-call timing and set its median (and p90, when the
/// metric has one) in `scale` units.
fn report(
    m: &mut Metrics,
    label: &str,
    p50: &'static str,
    p90: Option<&'static str>,
    xs: &[f64],
    scale: f64,
    unit: &str,
) {
    let Some(s) = Summary::of(xs) else {
        return;
    };
    println!("  {label:<44} {}", s.describe(scale, unit));
    m.set(p50, s.p50 * scale);
    if let (Some(name), Some(v)) = (p90, s.p90) {
        m.set(name, v * scale);
    }
}

/// A small deterministic generator for synthetic inputs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// Flops of one spectral analysis (or synthesis) on `grid` at
/// `trunc`: an N-point complex FFT per latitude row, taken as
/// 5·N·log2 N, plus one complex-by-real multiply-add (4 flops) per
/// row and spectral coefficient in the Legendre sum.
fn transform_flops(nlon: usize, nlat: usize, trunc: Truncation) -> (f64, f64) {
    let n = nlon as f64;
    let fft = nlat as f64 * 5.0 * n * n.log2();
    let legendre = nlat as f64 * trunc.len() as f64 * 4.0;
    (legendre, fft)
}

/// The host's last-level cache as `(level, bytes)`, from sysfs.
fn last_level_cache() -> Option<(u32, u64)> {
    let mut best: Option<(u32, u64)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok()? * 1024,
            None => match size.strip_suffix('M') {
                Some(mb) => mb.parse::<u64>().ok()? * 1024 * 1024,
                None => size.parse().ok()?,
            },
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best
}

fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// Run every layer's pass at `cfg`'s resolution; `work` is a scratch
/// directory for the checkpoint writes.
pub fn run(cfg: &FoamConfig, seed: u64, work: &Path, m: &mut Metrics) {
    let pass = spans::open("layer_pass", None);
    let parent = pass.id();
    let world = World::earthlike();
    let (nlon, nlat) = (cfg.atm.nlon, cfg.atm.nlat);
    let mut rng = Lcg(seed ^ 0x5eed);
    println!(
        "layer pass at {nlon}x{nlat} R{} / {}x{}x{} ocean (per call):",
        cfg.atm.m_max, cfg.ocean.nx, cfg.ocean.ny, cfg.ocean.nz
    );

    // ---- foam-spectral ------------------------------------------------
    let trunc = Truncation::rhomboidal(cfg.atm.m_max);
    let t = SphericalTransform::new(AtmGrid::new(nlon, nlat), trunc);
    let mut spec = SpectralField::zeros(trunc);
    for (m_, n_) in trunc.pairs() {
        spec.set(m_, n_, Complex::new(rng.next(), rng.next()));
    }
    let mut ws = SpectralWorkspace::new(&t);
    let mut grid = Field2::zeros(nlon, nlat);
    t.synthesize_rows_into(&spec, 0, nlat, SynthKind::Value, &mut ws, &mut grid);
    let mut out = SpectralField::zeros(trunc);
    let analyze = time_calls("layer.spectral.analyze", parent, 20, 400, || {
        t.analyze_ws(black_box(&grid), &mut ws, &mut out);
        black_box(&out);
    });
    let synth = time_calls("layer.spectral.synthesize", parent, 20, 400, || {
        t.synthesize_rows_into(
            black_box(&spec),
            0,
            nlat,
            SynthKind::Value,
            &mut ws,
            &mut grid,
        );
        black_box(&grid);
    });
    report(
        m,
        "spectral analyze_ws",
        "spectral.analyze_us",
        Some("spectral.analyze_us_p90"),
        &analyze,
        1e6,
        "us",
    );
    report(
        m,
        "spectral synthesize_rows_into",
        "spectral.synthesize_us",
        Some("spectral.synthesize_us_p90"),
        &synth,
        1e6,
        "us",
    );

    // ---- foam-physics -------------------------------------------------
    let phys = ColumnPhysics::new(cfg.atm.physics);
    let nlev = cfg.atm.nlev_phys;
    let mut pws = PhysicsWorkspace::with_levels(nlev);
    let orb = OrbitalState::at(81.0 * 86_400.0);
    let mut cols: Vec<(AtmColumn, SurfaceState, RadCache, f64)> = (0..64)
        .map(|i| {
            let lat = -1.2 + 2.4 * i as f64 / 63.0;
            let t_sfc = 300.0 - 30.0 * lat * lat;
            let col = AtmColumn::standard(nlev, t_sfc - 1.0);
            let sfc = SurfaceState::open_ocean(t_sfc);
            let mut cache = RadCache::empty(nlev);
            foam_physics::radiation::full_radiation_into(
                &col,
                sfc.t_sfc,
                sfc.albedo,
                &phys.cfg.rad,
                &mut pws,
                &mut cache,
            );
            (col, sfc, cache, lat)
        })
        .collect();
    let mut k = 0;
    let column = time_calls("layer.physics.column", parent, 64, 400, || {
        let (col, sfc, cache, lat) = &mut cols[k % 64];
        k += 1;
        let fluxes = phys.surface_fluxes(col, sfc, (5.0, 0.0));
        let tend = phys.step_with_fluxes_ws(
            col, sfc, fluxes, orb, 1.0, *lat, cache, false, cfg.atm.dt, &mut pws,
        );
        black_box(tend);
    });
    let radiation = time_calls("layer.physics.radiation_full", parent, 16, 200, || {
        let (col, sfc, cache, _) = &mut cols[k % 64];
        k += 1;
        foam_physics::radiation::full_radiation_into(
            col,
            sfc.t_sfc,
            sfc.albedo,
            &phys.cfg.rad,
            &mut pws,
            cache,
        );
        black_box(&cache.lw_heating);
    });
    report(
        m,
        &format!("physics step_with_fluxes_ws ({nlev} levels)"),
        "physics.column_us",
        Some("physics.column_us_p90"),
        &column,
        1e6,
        "us",
    );
    report(
        m,
        "physics full_radiation_into",
        "physics.radiation_full_us",
        Some("physics.radiation_full_us_p90"),
        &radiation,
        1e6,
        "us",
    );

    // ---- foam-ocean ---------------------------------------------------
    let ocean = OceanModel::new(cfg.ocean.clone(), &world);
    let mut ost = ocean.init_state(&world);
    let sst0 = ocean.sst(&ost);
    let forcing = OceanForcing::climatological(&ocean.grid, &world, &sst0);
    let cells = cfg.ocean.nx * cfg.ocean.ny * cfg.ocean.nz;
    let n_ocean = if cells > 100_000 { 4 } else { 100 };
    // Count the barotropic subcycles of one interval through the
    // crate's own telemetry counter.
    foam_telemetry::install(TelemetryRegistry::new(0));
    ocean.step_coupled(&mut ost, &forcing, cfg.dt_couple);
    let subcycles = foam_telemetry::harvest()
        .and_then(|r| r.counters().get("ocean.barotropic_subcycles").copied())
        .unwrap_or(0);
    let step = time_calls("layer.ocean.step_coupled", parent, 0, n_ocean, || {
        black_box(ocean.step_coupled(&mut ost, &forcing, cfg.dt_couple));
    });
    report(
        m,
        "ocean step_coupled (one coupling interval)",
        "ocean.step_coupled_ms",
        None,
        &step,
        1e3,
        "ms",
    );

    // ---- foam-coupler -------------------------------------------------
    let atm_grid = AtmGrid::new(nlon, nlat);
    let ocn_grid = OceanGrid::mercator(cfg.ocean.nx, cfg.ocean.ny, cfg.ocean.lat_max_deg);
    let mask = OceanModel::effective_sea_mask(&cfg.ocean, &world);
    let coupler = Coupler::new(
        atm_grid.clone(),
        ocn_grid.clone(),
        mask.clone(),
        &world,
        cfg.atm.physics,
    );
    let mut cstate = coupler.init_state(&sst0, AtmModel::t_init);
    let g = |v: f64| Field2::filled(nlon, nlat, v);
    let fields = AtmSurfaceFields {
        t_low: g(285.0),
        q_low: g(0.008),
        u_low: g(5.0),
        v_low: g(0.0),
        precip: g(1.0e-5),
        sw_sfc: g(200.0),
        lw_down: g(350.0),
    };
    let mut cws = coupler.workspace();
    let n_atm = atm_grid.len();
    let coupler_calls = time_calls("layer.coupler.step_rows", parent, 5, 100, || {
        coupler.step_rows_ws(
            &mut cstate,
            fields.view(),
            &sst0,
            cfg.atm.dt,
            0,
            n_atm,
            0,
            &mut cws,
        );
        black_box(&cws.out);
    });
    report(
        m,
        "coupler step_rows_ws (whole grid)",
        "coupler.step_rows_us",
        Some("coupler.step_rows_us_p90"),
        &coupler_calls,
        1e6,
        "us",
    );

    // ---- foam-mpi -----------------------------------------------------
    // The two collectives of the exchange, at 2 ranks and the workload's
    // payloads: the forcing allreduce (4 ocean fields) and an SST
    // broadcast (1 ocean field).
    let n_o = cfg.ocean.nx * cfg.ocean.ny;
    let sst_msg = Field2::zeros(cfg.ocean.nx, cfg.ocean.ny);
    let mpi = Universe::run(2, |c| {
        let mut buf = vec![0.0; 4 * n_o];
        let root = c.rank() == 0;
        let name = |n| if root { n } else { "layer.mpi.peer" };
        let allreduce = time_calls(name("layer.mpi.allreduce"), parent, 20, 300, || {
            c.allreduce_mut(&mut buf, ReduceOp::Sum);
        });
        let bcast = time_calls(name("layer.mpi.bcast"), parent, 20, 300, || {
            black_box(c.bcast(0, root.then(|| sst_msg.clone())));
        });
        (allreduce, bcast)
    });
    if let Some((allreduce, bcast)) = mpi.results.first() {
        report(
            m,
            &format!("mpi allreduce_mut 2 ranks, {} f64", 4 * n_o),
            "mpi.allreduce_us",
            Some("mpi.allreduce_us_p90"),
            allreduce,
            1e6,
            "us",
        );
        report(
            m,
            &format!("mpi bcast 2 ranks, {n_o}-point field"),
            "mpi.bcast_us",
            Some("mpi.bcast_us_p90"),
            bcast,
            1e6,
            "us",
        );
    }

    // ---- foam (driver stream) ------------------------------------------
    let eof_rank = cfg
        .stream
        .as_ref()
        .map_or(StreamStatsConfig::default().eof_rank, |s| s.eof_rank);
    let mut ds = DriverStream::new(sea_area_weights(&ocn_grid, &mask), eof_rank);
    let months: Vec<Vec<f64>> = (0..12)
        .map(|_| (0..n_o).map(|i| sst0.as_slice()[i] + rng.next()).collect())
        .collect();
    let mut month = 0;
    let fold = time_calls("layer.stats.fold", parent, 24, 240, || {
        ds.push_month(black_box(&months[month % 12]))
            .expect("a finite month folds");
        month += 1;
    });
    report(
        m,
        "DriverStream::push_month",
        "stats.fold_us",
        Some("stats.fold_us_p90"),
        &fold,
        1e6,
        "us",
    );

    // ---- foam-ckpt ----------------------------------------------------
    // A whole-model snapshot at this resolution: atmosphere state and
    // export, coupler state, ocean state.
    let atm = Universe::run(1, |c| {
        let model = AtmModel::new(cfg.atm.clone(), c);
        let st = model.init_state();
        let ex = model.initial_export(&st);
        (st, ex)
    });
    let mut w = SnapshotWriter::new();
    if let Some((st, ex)) = atm.results.first() {
        w.put("atm/state", st);
        w.put("atm/export", ex);
    }
    w.put("coupler/state", &cstate);
    w.put("ocean/state", &ost);
    let bytes = w.to_bytes();
    let big = bytes.len() > (1 << 20);
    let (n_code, n_write) = if big { (20, 8) } else { (200, 40) };
    let encode = time_calls("layer.ckpt.encode", parent, 2, n_code, || {
        black_box(w.to_bytes());
    });
    let decode = time_calls("layer.ckpt.decode", parent, 2, n_code, || {
        black_box(Snapshot::from_bytes(black_box(&bytes)).expect("snapshot verifies"));
    });
    let path = work.join("layer-snapshot.ckpt");
    let write = time_calls("layer.ckpt.write", parent, 1, n_write, || {
        w.write_atomic(&path).expect("snapshot writes");
    });
    let _ = std::fs::remove_file(&path);
    report(
        m,
        "ckpt SnapshotWriter::to_bytes",
        "ckpt.encode_ms",
        None,
        &encode,
        1e3,
        "ms",
    );
    report(
        m,
        "ckpt Snapshot::from_bytes (verified)",
        "ckpt.decode_ms",
        None,
        &decode,
        1e3,
        "ms",
    );
    report(
        m,
        "ckpt write_atomic (sync_all)",
        "ckpt.write_ms",
        None,
        &write,
        1e3,
        "ms",
    );
    m.set("ckpt.snapshot_bytes", bytes.len() as f64);
    drop(pass);

    // ---- Computed kernel counts ---------------------------------------
    println!("computed kernel counts (labelled computed; not measured):");
    for (label, nlon_, nlat_, tr) in [
        ("R15 48x40", 48, 40, Truncation::r15()),
        ("R3 16x12", 16, 12, Truncation::rhomboidal(3)),
    ] {
        let (leg, fft) = transform_flops(nlon_, nlat_, tr);
        println!(
            "  computed: {label} transform: Legendre {leg:.0} + FFT {fft:.0} = {:.0} flops",
            leg + fft
        );
    }
    let (leg, fft) = transform_flops(nlon, nlat, trunc);
    if let Some(s) = Summary::of(&analyze) {
        println!(
            "  this workload's analysis: {:.0} flops in {:.2} us = {:.2} Gflop/s achieved",
            leg + fft,
            s.p50 * 1e6,
            (leg + fft) / s.p50 / 1e9
        );
    }
    let ocean_state_bytes = ost.to_bytes().len() as f64;
    let n_int = (cfg.dt_couple / cfg.ocean.dt_int).round();
    let (nx, ny, nz) = (
        cfg.ocean.nx as f64,
        cfg.ocean.ny as f64,
        cfg.ocean.nz as f64,
    );
    let touched = n_int * (4.0 * 2.0 * nx * ny * nz * 8.0 + 4.0 * nx * ny * 8.0)
        + subcycles as f64 * 3.0 * 2.0 * nx * ny * 8.0;
    println!(
        "  computed: ocean step_coupled touches >= {:.1} MiB ({n_int} internal steps x \
         u,v,T,S read+written, {subcycles} barotropic subcycles x eta,U,V read+written, \
         4 forcing fields read per step)",
        mib(touched)
    );
    if let Some(s) = Summary::of(&step) {
        println!(
            "  ocean step_coupled streams >= {:.2} GB/s at its median time",
            touched / s.p50 / 1e9
        );
    }
    let llc = last_level_cache();
    println!(
        "  working set: ocean state {:.2} MiB, whole-model snapshot {:.2} MiB; host last-level cache {}",
        mib(ocean_state_bytes),
        mib(bytes.len() as f64),
        match llc {
            Some((level, b)) => format!(
                "L{level} {:.1} MiB -> model state {} in cache",
                mib(b as f64),
                if (bytes.len() as u64) <= b { "fits" } else { "does not fit" }
            ),
            None => "unknown".to_string(),
        }
    );
}
