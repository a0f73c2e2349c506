//! `hubbard8-sparse`: both sparse engines on the 8-site half-filled
//! Hubbard chain (t = 1, U = 4, 4,900 determinants) — the largest
//! accuracy stage that repeats in seconds. One operation solves it with
//! CDFCI (tol 1e-11) and then with selected CI (ε = 1e-5, tol 1e-10).
//!
//! The timed operation runs single-threaded: at two threads the engines
//! spawn threads per update, and on a 2-vCPU host whose second CPU is
//! shared the wall time then swings by ±40% from run to run, which no
//! bound could gate. The traced run times both thread counts.
//!
//! Isolates `fci-sparse`: connection generation, the gradient scan and
//! coordinate updates (CDFCI); screening, CSR assembly and the sparse
//! Davidson (selected CI). Dense σ and GEMM do no work here.

use crate::clock::{now_s, peak_rss_mib, stopwatch};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::RunCfg;
use fci_core::{solve_prepared, DetSpace, DiagMethod, FciOptions, Hamiltonian};
use fci_serve::ProblemSpec;
use fci_sparse::{
    kernel, solve_cdfci, solve_selected, CoefMap, ConnGen, Det, SparseOptions, SparseResult,
};

/// The two sparse engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    /// Coordinate-descent FCI, tol 1e-11.
    Cdfci,
    /// Selected CI, ε = 1e-5, tol 1e-10.
    Selected,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Cdfci => "cdfci",
            Engine::Selected => "selected",
        }
    }
}

/// Lattice sites (= orbitals); half filling.
const SITES: usize = 8;
/// Worker threads of the timed operation.
const THREADS: usize = 1;
/// Worker threads of the traced run's scaling comparison.
const THREADS_WIDE: usize = 2;
/// Accuracy gate against the dense reference, hartree.
const GATE_HA: f64 = 1.6e-3;
/// Set-ups per run (each is well under a millisecond); `setup_s` is
/// their median.
const SETUP_REPEATS: usize = 51;
/// Calls per layer in the traced run (each metric is the median).
const LAYER_REPEATS: usize = 5;

fn problem() -> fci_scf::MoIntegrals {
    ProblemSpec::Hubbard {
        sites: SITES,
        t: 1.0,
        u: 4.0,
        periodic: false,
    }
    .build()
}

/// The program's set-up: integrals, Hamiltonian and determinant space.
fn prepare_hubbard() -> (Hamiltonian, DetSpace) {
    let ham = Hamiltonian::new(&problem());
    let space = DetSpace::for_hamiltonian(&ham, SITES / 2, SITES / 2, 0);
    (ham, space)
}

fn solve_engine(
    engine: Engine,
    space: &DetSpace,
    ham: &Hamiltonian,
    threads: usize,
) -> SparseResult {
    match engine {
        Engine::Cdfci => solve_cdfci(
            space,
            ham,
            &SparseOptions {
                threads,
                tol: 1e-11,
                ..SparseOptions::default()
            },
        ),
        Engine::Selected => solve_selected(
            space,
            ham,
            &SparseOptions {
                threads,
                eps: 1e-5,
                tol: 1e-10,
                ..SparseOptions::default()
            },
        ),
    }
}

fn check(rep: &mut Report, engine: Engine, r: &SparseResult, e_ref: f64) {
    let err = (r.energy() - e_ref).abs();
    rep.tally(r.converged && err <= GATE_HA, || {
        format!(
            "hubbard8-sparse {}: converged={} E={:.12} is {:.3} mHa from dense {e_ref:.12} (gate {} mHa)",
            engine.name(),
            r.converged,
            r.energy(),
            err * 1e3,
            GATE_HA * 1e3
        )
    });
}

/// One operation: the stage solved by both engines. Returns both
/// results and each engine's host seconds.
fn operation(
    spans: &Spans,
    space: &DetSpace,
    ham: &Hamiltonian,
    threads: usize,
) -> [(Engine, SparseResult, f64); 2] {
    spans.span("sparse.op", None, None, |op| {
        [Engine::Cdfci, Engine::Selected].map(|engine| {
            let name = format!("{}.solve", engine.name());
            let (r, dt) = stopwatch(|| {
                spans.span(&name, Some(op), None, |_| {
                    solve_engine(engine, space, ham, threads)
                })
            });
            (engine, r, dt)
        })
    })
}

/// Run the workload: the timed run or the traced ledger.
pub fn run(cfg: &RunCfg, spans: &Spans) -> Report {
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let (p, dt) = stopwatch(|| spans.span("setup", None, None, |_| prepare_hubbard()));
        setup_s.push(dt);
        prepared = Some(p);
    }
    let (ham, space) = prepared.expect("SETUP_REPEATS > 0");
    // Dense reference, outside every timed window.
    let e_ref = solve_prepared(
        &space,
        &ham,
        &FciOptions {
            method: DiagMethod::Davidson,
            ..FciOptions::default()
        },
    )
    .energy;

    if cfg.traced {
        ledger(&mut rep, spans, &ham, &space, e_ref);
        return rep;
    }

    let mut tts = Vec::new();
    let t0 = now_s();
    while tts.is_empty() || now_s() - t0 < cfg.seconds {
        let results = operation(spans, &space, &ham, THREADS);
        for (engine, r, _) in &results {
            check(&mut rep, *engine, r, e_ref);
        }
        tts.push(results.iter().map(|x| x.2).sum::<f64>());
    }
    let wall = now_s() - t0;
    rep.set("setup_s", median(&setup_s));
    rep.set("tts_s", median(&tts));
    rep.set("tts_p95_s", percentile(&tts, 95.0));
    rep.set("ops_per_s", tts.len() as f64 / wall);
    rep.set("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN));
    rep
}

/// Every in-sector determinant, in string order.
fn sector_dets(space: &DetSpace) -> Vec<Det> {
    let mut v = Vec::with_capacity(space.sector_dim());
    for ia in 0..space.alpha.len() {
        for ib in 0..space.beta.len() {
            if space.in_sector(ib, ia) {
                v.push(Det::new(space.alpha.mask(ia), space.beta.mask(ib)));
            }
        }
    }
    v
}

fn ledger(rep: &mut Report, spans: &Spans, ham: &Hamiltonian, space: &DetSpace, e_ref: f64) {
    let mo = problem();
    let (h2, ham_s) =
        spans.median_of_calls(LAYER_REPEATS, "core.hamiltonian", || Hamiltonian::new(&mo));
    let (_, space_s) = spans.median_of_calls(LAYER_REPEATS, "core.space", || {
        DetSpace::for_hamiltonian(&h2, SITES / 2, SITES / 2, 0)
    });
    rep.set("core.hamiltonian_s", ham_s);
    rep.set("core.space_s", space_s);

    // End to end as timed: untraced, then inside spans; then at T = 2.
    let (_, t_plain) = stopwatch(|| operation(&Spans::new(false), space, ham, THREADS));
    let (traced, tts) = stopwatch(|| operation(spans, space, ham, THREADS));
    let wide = operation(spans, space, ham, THREADS_WIDE);
    for (engine, r, _) in traced.iter().chain(&wide) {
        check(rep, *engine, r, e_ref);
    }
    rep.set("obs.trace_overhead_frac", tts / t_plain - 1.0);
    let [(_, cd, cd_s), (_, sel, sel_s)] = traced;
    let [(_, _, cd_s2), (_, _, sel_s2)] = wide;
    rep.set("cdfci.solve_s", cd_s);
    rep.set("selected.solve_s", sel_s);
    rep.set("cdfci.updates", cd.iterations as f64);
    rep.set("cdfci.support", cd.support as f64);
    rep.set(
        "cdfci.us_per_update",
        cd_s * 1e6 / cd.iterations.max(1) as f64,
    );
    rep.set("cdfci.threads_speedup", cd_s / cd_s2);
    rep.set("selected.support", sel.support as f64);
    rep.set("selected.rounds", sel.history.len() as f64);
    rep.set("selected.threads_speedup", sel_s / sel_s2);

    // Connection generation over every sector determinant.
    let dets = sector_dets(space);
    let (connections, conn_s) = spans.median_of_calls(LAYER_REPEATS, "sparse.conn_gen", || {
        let mut gen = ConnGen::for_space(space);
        let mut out = Vec::new();
        let mut n = 0usize;
        for &d in &dets {
            gen.excitations_into(d, &mut out);
            n += out.len();
        }
        n
    });
    rep.set("sparse.conn_gen_s", conn_s);
    rep.set("sparse.connections", connections as f64);
    rep.set(
        "sparse.scan_gradient_us",
        scan_gradient_us(&dets, cd.support, cd.energy()),
    );
    eprintln!(
        "hubbard8-sparse: T=1 cdfci {cd_s:.3} s + selected {sel_s:.3} s (untraced pair {t_plain:.3} s); \
         T=2 cdfci {cd_s2:.3} s + selected {sel_s2:.3} s"
    );
}

/// Median µs of one full-store `kernel::scan_gradient`, over a store
/// sized the way CDFCI sizes its own and holding `support` entries.
fn scan_gradient_us(dets: &[Det], support: usize, e: f64) -> f64 {
    let mut map = CoefMap::with_capacity(SparseOptions::default().max_store.min(1 << 14));
    for (k, &d) in dets.iter().take(support).enumerate() {
        let slot = map.slot_or_insert(d);
        let x = ((k % 89) as f64 - 44.0) / 89.0;
        map.vals_mut()[slot] = [x, x * e + 1e-3 * ((k % 13) as f64 - 6.0)];
    }
    let (flags, _, vals) = map.slots();
    const CALLS: usize = 500;
    let per_call: Vec<f64> = (0..LAYER_REPEATS)
        .map(|_| {
            let (_, dt) = stopwatch(|| {
                for _ in 0..CALLS {
                    std::hint::black_box(kernel::scan_gradient(
                        flags,
                        vals,
                        std::hint::black_box(e),
                        0,
                        flags.len(),
                    ));
                }
            });
            dt * 1e6 / CALLS as f64
        })
        .collect();
    median(&per_call)
}
