//! `c2-dense`: the Table-3 C2 analogue, FCI(8,16) in D2h on 432 virtual
//! MSPs, auto-adjusted single-vector method to a 1e-5 residual.
//!
//! Isolates the dense path: SCF and integral transform in set-up, then
//! σ (β-β, transpose, α-α, α-β GEMMs over DDI) and the diagonalizer's
//! vector algebra. The sparse, net, WAL and cache layers do no work.

use crate::clock::{cpu_s, now_s, peak_rss_mib, stopwatch};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, percentile, Ledger};
use crate::RunCfg;
use fci_bench::{c2, c2_system};
use fci_core::sigma::{mixed::mixed_spin_dgemm, same_spin::half_sigma_dgemm};
use fci_core::{
    apply_sigma, build_space, solve_prepared, DetSpace, DiagMethod, DiagOptions, FciOptions,
    FciResult, Hamiltonian, Preconditioner, SigmaCtx, SigmaMethod,
};
use fci_ddi::{Backend, CommStats, Ddi, DistMatrix};
use fci_ints::{detect_point_group, overlap, BasisSet};
use fci_linalg::{dgemm, Matrix, Trans};
use fci_scf::{rhf, symmetry_adapt, transform_integrals, RhfOptions};
use fci_xsim::MachineModel;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Virtual MSPs of the Table-3 run.
const MSPS: usize = 432;
/// Committed Table-3 energy (`results/BENCH_table3_c2.json`).
const E_REF: f64 = -74.780_121_134_229_87;
/// Energy agreement required of every timed solve.
const E_TOL: f64 = 1e-9;
/// σ evaluations the committed run takes to reach the residual.
const ITERATIONS: usize = 18;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Direct calls per layer in the traced run; each metric is the median.
const LAYER_REPEATS: usize = 3;

fn options() -> FciOptions {
    FciOptions {
        nproc: MSPS,
        backend: Backend::Serial,
        sigma: SigmaMethod::Dgemm,
        method: DiagMethod::AutoAdjust,
        diag: DiagOptions {
            max_iter: 80,
            tol: 1e-5,
            ..DiagOptions::default()
        },
        machine: MachineModel::cray_x1(),
        ..FciOptions::default()
    }
}

/// The program's set-up: integrals, RHF, MO transform, Hamiltonian and
/// determinant space.
fn prepare_c2() -> (Hamiltonian, DetSpace) {
    let sys = c2_system();
    let ham = Hamiltonian::new(&sys.mo);
    let space = build_space(&ham, sys.na, sys.nb, sys.state_irrep, None);
    (ham, space)
}

fn check_solve(rep: &mut Report, r: &FciResult) {
    rep.tally(
        r.converged && r.iterations == ITERATIONS && (r.energy - E_REF).abs() <= E_TOL,
        || {
            format!(
                "c2-dense: converged={} iterations={} (want {ITERATIONS}) E={:.14} (want {E_REF:.14} ± {E_TOL:e})",
                r.converged, r.iterations, r.energy
            )
        },
    );
}

/// Run the workload: the timed run or the traced ledger.
pub fn run(cfg: &RunCfg, spans: &Spans) -> Report {
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take()); // free the previous copy before building the next
        let (p, dt) = stopwatch(|| spans.span("setup", None, None, |_| prepare_c2()));
        setup_s.push(dt);
        prepared = Some(p);
    }
    let (ham, space) = prepared.expect("SETUP_REPEATS > 0");
    let opts = options();

    if cfg.traced {
        ledger(&mut rep, spans, &ham, &space, &opts);
        return rep;
    }

    let mut tts = Vec::new();
    let t0 = now_s();
    while tts.is_empty() || now_s() - t0 < cfg.seconds {
        let (r, dt) = stopwatch(|| solve_prepared(&space, &ham, &opts));
        check_solve(&mut rep, &r);
        tts.push(dt);
    }
    let wall = now_s() - t0;
    rep.set("setup_s", median(&setup_s));
    rep.set("tts_s", median(&tts));
    rep.set("tts_p95_s", percentile(&tts, 95.0));
    rep.set("ops_per_s", tts.len() as f64 / wall);
    rep.set("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN));
    rep
}

fn copy_of(v: &DistMatrix) -> DistMatrix {
    let out = DistMatrix::zeros(v.nrows(), v.ncols(), v.nproc());
    out.copy_from(v);
    out
}

/// The traced run: the end-to-end solve untraced and traced, then direct
/// calls into every layer it passes through, on the converged vector.
fn ledger(rep: &mut Report, spans: &Spans, ham: &Hamiltonian, space: &DetSpace, opts: &FciOptions) {
    // Set-up layers, called one by one exactly as `fci_bench::prepare`
    // composes them for the C2 system.
    let mol = c2();
    let basis = BasisSet::build(&mol, "svp");
    let s = overlap(&basis);
    let (scf, rhf_s) = spans.median_of_calls(LAYER_REPEATS, "scf.rhf", || {
        rhf(&mol, &basis, &RhfOptions::default())
    });
    let pg = detect_point_group(&mol);
    let (c_sym, irreps) = symmetry_adapt(&pg, &basis, &s, &scf.mo_coeffs);
    let (mo, motran_s) = spans.median_of_calls(LAYER_REPEATS, "scf.motran", || {
        transform_integrals(
            &scf.h_ao,
            &scf.eri_ao,
            &c_sym,
            mol.nuclear_repulsion(),
            2,
            16,
        )
    });
    let mo = mo.with_symmetry(irreps[2..18].to_vec(), pg.n_irrep());
    let (h2, ham_s) =
        spans.median_of_calls(LAYER_REPEATS, "core.hamiltonian", || Hamiltonian::new(&mo));
    let (_, space_s) = spans.median_of_calls(LAYER_REPEATS, "core.space", || {
        build_space(&h2, 4, 4, space.target_irrep, None)
    });
    rep.set("scf.rhf_s", rhf_s);
    rep.set("scf.motran_s", motran_s);
    rep.set("core.hamiltonian_s", ham_s);
    rep.set("core.space_s", space_s);

    // End to end: untraced, then inside a span (the overhead pair).
    let (_, t_plain) = stopwatch(|| solve_prepared(space, ham, opts));
    let (r, tts) =
        stopwatch(|| spans.span("c2.solve", None, None, |_| solve_prepared(space, ham, opts)));
    check_solve(rep, &r);
    let its = r.iterations.max(1);
    let total = r.sigma_cost.total();
    rep.set("obs.trace_overhead_frac", tts / t_plain - 1.0);
    rep.set("diag.iterations", r.iterations as f64);
    rep.set(
        "ddi.net_bytes_per_iter",
        total.total_net_bytes() / its as f64,
    );
    rep.set("ddi.net_msgs_per_iter", total.total_net_msgs() / its as f64);
    rep.set("sim_c2.iteration_s", total.elapsed() / its as f64);

    // σ layers on the converged vector, in the world shape of the solve.
    let ddi = Ddi::new(opts.nproc, opts.backend);
    let ctx = SigmaCtx {
        space,
        ham,
        ddi: &ddi,
        model: &opts.machine,
        pool: opts.pool,
    };
    let c = &r.diag.c;
    let nproc = opts.nproc;

    // GEMM shapes σ issues, observed once through the linalg probe.
    let shapes = observe_gemm_shapes(|| apply_sigma(&ctx, c, SigmaMethod::Dgemm));

    let (bb, bb_s) = spans.median_of_calls(LAYER_REPEATS, "sigma.beta_beta", || {
        let sigma = space.zeros_ci(nproc);
        half_sigma_dgemm(
            &ctx,
            "beta_beta",
            c,
            &sigma,
            &space.beta_singles,
            space.beta_nm2.as_ref(),
        )
    });
    let (ct, tr_s) = spans.median_of_calls(LAYER_REPEATS, "sigma.transpose", || {
        // Both transposes of one σ: C → Cᵀ and σᵀ (same shape) back.
        let mut st = vec![CommStats::default(); nproc];
        let ct = c.transpose(&mut st);
        ct.transpose(&mut st);
        ct
    });
    let (aa, aa_s) = spans.median_of_calls(LAYER_REPEATS, "sigma.alpha_alpha", || {
        let sigma_t = DistMatrix::zeros(ct.nrows(), ct.ncols(), nproc);
        half_sigma_dgemm(
            &ctx,
            "alpha_alpha",
            &ct,
            &sigma_t,
            &space.alpha_singles,
            space.alpha_nm2.as_ref(),
        )
    });
    let (ab, ab_s) = spans.median_of_calls(LAYER_REPEATS, "sigma.alpha_beta", || {
        let sigma = space.zeros_ci(nproc);
        mixed_spin_dgemm(&ctx, c, &sigma)
    });
    let cpu0 = cpu_s();
    let w0 = now_s();
    let ((sigma, _), apply_s) = spans.median_of_calls(LAYER_REPEATS, "sigma.apply", || {
        apply_sigma(&ctx, c, SigmaMethod::Dgemm)
    });
    let wall = now_s() - w0;
    if let (Some(a), Some(b)) = (cpu0, cpu_s()) {
        rep.set("sigma.cpu_util", (b - a) / wall);
    }
    rep.set("sigma.beta_beta_s", bb_s);
    rep.set("sigma.transpose_s", tr_s);
    rep.set("sigma.alpha_alpha_s", aa_s);
    rep.set("sigma.alpha_beta_s", ab_s);
    rep.set("sigma.apply_s", apply_s);
    let ab_gflops = ab.total_flops() / ab_s / 1e9;
    rep.set("sigma.alpha_beta_gflops", ab_gflops);
    rep.set(
        "sigma.same_spin_gflops",
        (bb.total_flops() + aa.total_flops()) / (bb_s + aa_s) / 1e9,
    );
    let peak = dgemm_peak_gflops(&shapes);
    rep.set("linalg.dgemm_peak_gflops", peak);
    rep.set("sigma.alpha_beta_frac_peak", ab_gflops / peak);

    // Diagonalizer layers, counted the way `diag::single_vector` calls
    // them: 3 diagonals and 2 preconditioner builds per solve, two
    // preconditioner applies per non-final iteration, and one round of
    // vector algebra per iteration.
    let e = r.e_elec;
    let (d, diag_s) = spans.median_of_calls(LAYER_REPEATS, "diag.diagonal", || {
        space.diagonal(ham, nproc)
    });
    let (pre, new_s) = spans.median_of_calls(LAYER_REPEATS, "diag.precond_new", || {
        Preconditioner::new(space, ham, &d, opts.diag.model_space)
    });
    let (_, apply_pre_s) =
        spans.median_of_calls(LAYER_REPEATS, "diag.precond_apply", || pre.apply(c, e));
    let precond_s = 3.0 * diag_s + 2.0 * new_s + 2.0 * (its - 1) as f64 * apply_pre_s;
    let (cw, sw, tw) = (copy_of(c), copy_of(&sigma), copy_of(&sigma));
    let (_, vec_s) = spans.median_of_calls(LAYER_REPEATS, "diag.vecops", || {
        vecops_round(space, &cw, &sw, &tw, e)
    });
    let vecops_s = its as f64 * vec_s;
    rep.set("diag.precond_s", precond_s);
    rep.set("diag.vecops_s", vecops_s);

    let mut l = Ledger::default();
    l.row("sigma", its as f64 * apply_s);
    l.row("diag.precond", precond_s);
    l.row("diag.vecops", vecops_s);
    rep.set("c2.attributed_frac", l.attributed_frac(tts));
    rep.set("c2.unattributed_s", l.unattributed(tts));
    eprintln!(
        "c2-dense ledger: tts {tts:.3} s = {its} x sigma {apply_s:.3} s + precond {precond_s:.3} s + vecops {vecops_s:.3} s + unattributed {:.3} s",
        l.unattributed(tts)
    );
}

/// One iteration's vector algebra of the single-vector method:
/// sector projection, Rayleigh quotient, the residual (its one copy),
/// the Olsen combination, the step and renormalisation. `c`, `s` and `t`
/// stand for the CI vector, σ and the correction; they are updated in
/// place, which changes values but not the work.
fn vecops_round(space: &DetSpace, c: &DistMatrix, s: &DistMatrix, t: &DistMatrix, e: f64) -> f64 {
    space.project_sector(s);
    let rq = c.dot(s);
    let r = copy_of(s);
    r.axpy(-e, c);
    let res = r.norm();
    let num = c.dot(t);
    let den = c.dot(s);
    t.axpy(-num / den, s);
    t.scale(-1.0);
    let tau = t.norm();
    let b = s.dot(t);
    c.axpy(0.5, t);
    c.scale(1.0 / c.norm());
    rq + res + tau + b
}

/// GEMM calls per `(m, n, k)` shape.
type Shapes = HashMap<(usize, usize, usize), u64>;

/// Run `f` with the GEMM probe on; return the shapes it issued.
/// The probe slot is write-once per process, so call this once.
fn observe_gemm_shapes<R>(f: impl FnOnce() -> R) -> Shapes {
    let seen: Arc<Mutex<Shapes>> = Arc::default();
    let sink = seen.clone();
    fci_linalg::probe::install(Arc::new(move |m, n, k, _secs| {
        *sink
            .lock()
            .expect("probe map")
            .entry((m, n, k))
            .or_insert(0) += 1;
    }));
    fci_linalg::probe::set_enabled(true);
    f();
    fci_linalg::probe::set_enabled(false);
    let out = seen.lock().expect("probe map").clone();
    out
}

/// Best host GF/s of `dgemm` at the shape carrying the most σ flops.
fn dgemm_peak_gflops(shapes: &Shapes) -> f64 {
    let Some((&(m, n, k), calls)) = shapes
        .iter()
        .max_by_key(|(&(m, n, k), &calls)| (m * n * k) as u64 * calls)
    else {
        return f64::NAN;
    };
    let fill = |r: usize, c: usize| {
        Matrix::from_vec(
            r,
            c,
            (0..r * c)
                .map(|i| ((i % 97) as f64 - 48.0) / 97.0)
                .collect(),
        )
    };
    let a = fill(m, k);
    let b = fill(k, n);
    let mut out = Matrix::zeros(m, n);
    let flops = 2.0 * (m * n * k) as f64;
    let reps = ((2e9 / flops) as usize).clamp(3, 10_000);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let (_, dt) = stopwatch(|| {
            for _ in 0..reps {
                dgemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut out);
            }
            std::hint::black_box(&out);
        });
        best = best.max(flops * reps as f64 / dt / 1e9);
    }
    eprintln!("c2-dense: dominant sigma GEMM shape m={m} n={n} k={k} ({calls} calls per sigma), dgemm peak {best:.2} GF/s");
    best
}
