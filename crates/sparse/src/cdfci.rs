//! Coordinate-descent FCI (CDFCI).
//!
//! Minimizes the Rayleigh quotient ρ(c) = ⟨c,Hc⟩/⟨c,c⟩ one coordinate at
//! a time over an *unnormalized* sparse vector, following the
//! coordinate-descent FCI idea (Wang, Li & Lu; see the multi-coordinate
//! descent literature in PAPERS.md): alongside `c` the solver maintains
//! `b = H·c` on the set of determinants connected to `supp(c)`, so that
//!
//! * the **pick** — the coordinate with the largest gradient magnitude
//!   `|b_i − ρ·c_i|` among the connections the last update touched — is
//!   a by-product of that update, O(connections) and no Hamiltonian
//!   work; a full-store scan replaces it at the start of every sweep
//!   and whenever it falls below the gradient floor, and only a full
//!   scan (or the per-sweep energy change) can declare convergence;
//! * the **step** — the exact 1-D minimizer of ρ along `e_i` — is a
//!   closed-form quadratic solve ([`crate::kernel::cdfci_step`]) using
//!   the tracked scalars `S = c·c` and `A = c·b`;
//! * the **update** touches only the connections of determinant `i`:
//!   `b_j += t·H_ji`, inserting new determinants on first contact.
//!
//! `b` stays *exact* on its support by induction (a determinant absent
//! from the store has never been connected to any nonzero coefficient)
//! until the `max_store` bound bites, after which updates to unstored
//! determinants are counted as `dropped` — the documented bounded-memory
//! approximation that lets a formal dimension ≥10⁸ run in megabytes.
//!
//! Thread-count determinism: the touched pick is serial, the full
//! gradient scan merges per-range winners with a partition-invariant
//! tie-break (lowest slot), element evaluation writes
//! disjoint ranges, the (S, A) drift-control recomputation reduces over
//! a *fixed* chunk grid, and all store mutation is single-threaded in
//! enumeration order.

use crate::connect::{reference_det, ConnGen, Exc};
use crate::kernel;
use crate::store::{CoefMap, Det};
use crate::{
    eval_elements, parallel_scan_gradient, recompute_norms, tracer_for, SparseOptions,
    SparseResult, SweepStat,
};
use fci_core::detspace::DetSpace;
use fci_core::hamiltonian::Hamiltonian;
use fci_obs::Category;

/// Coordinate updates per sweep (bookkeeping/convergence granularity);
/// each sweep's first pick is a full-store gradient scan.
const SWEEP: usize = 256;
/// Recompute (S, A) exactly every this many sweeps — drift control for
/// the incrementally tracked scalars.
const NORM_REFRESH_SWEEPS: usize = 64;

/// Ground-state CDFCI solve. Returns one energy; `opts.nroots` is
/// ignored (coordinate descent tracks a single state).
pub fn solve_cdfci(space: &DetSpace, ham: &Hamiltonian, opts: &SparseOptions) -> SparseResult {
    let tracer = tracer_for(&opts.obs);
    let threads = opts.threads.max(1);
    let refdet = reference_det(space, ham);
    let d_ref = ham.diagonal_element(refdet.a, refdet.b);
    let mut cg = ConnGen::for_space(space);
    let mut map = CoefMap::with_capacity(opts.max_store.min(1 << 14));
    let mut excs: Vec<Exc> = Vec::new();
    let mut hbuf: Vec<f64> = Vec::new();
    let mut dropped = 0usize;

    // c = e_ref, b = H·e_ref (reference column), S = 1, A = H_rr.
    let rs = map.slot_or_insert(refdet);
    map.vals_mut()[rs] = [1.0, d_ref];
    cg.excitations_into(refdet, &mut excs);
    hbuf.resize(excs.len(), 0.0);
    eval_elements(threads, ham, refdet, &excs, &mut hbuf);
    apply_column(
        &mut map,
        refdet,
        &excs,
        &hbuf,
        1.0,
        d_ref,
        opts,
        &mut dropped,
    );
    let mut s_norm = 1.0f64;
    let mut a_dot = d_ref;

    tracer.instant(
        None,
        "cdfci_begin",
        Category::Other,
        &[
            ("connections", excs.len() as f64),
            ("e_ref", d_ref + ham.e_core),
        ],
    );

    // Gradient floor: ‖b − ρc‖∞ below this means the energy error
    // (quadratic in the gradient) is far below `tol`.
    let grad_floor = opts.tol.max(1e-14).sqrt() * 0.1;
    let mut history: Vec<SweepStat> = Vec::new();
    let mut converged = false;
    let mut updates = 0usize;
    let mut peak = map.mem_bytes();
    let mut e_prev_sweep = f64::INFINITY;
    let mut sweep_t0 = tracer.now_us();

    // The next coordinate as picked from the last column update; `None`
    // forces a full-store scan (first update of every sweep).
    let mut touched: Option<(Det, f64)> = None;

    while updates < opts.max_updates {
        let pick = touched
            .take()
            .filter(|&(_, g)| g >= grad_floor)
            .and_then(|(d, _)| map.find(d));
        let from_scan = pick.is_none();
        let slot = match pick {
            Some(slot) => slot,
            None => {
                let (flags, _keys, vals) = map.slots();
                let (slot, grad) = parallel_scan_gradient(threads, flags, vals, a_dot / s_norm);
                if slot == usize::MAX || grad < grad_floor {
                    converged = true;
                    break;
                }
                slot
            }
        };
        let (det_i, u, b_i) = {
            let (_flags, keys, vals) = map.slots();
            (keys[slot], vals[slot][0], vals[slot][1])
        };
        let d_i = ham.diagonal_element(det_i.a, det_i.b);
        let t = kernel::cdfci_step(u, b_i, d_i, s_norm, a_dot);
        if t == 0.0 {
            if from_scan {
                // The best coordinate of the whole store admits no
                // improving move: stationary.
                converged = true;
                break;
            }
            continue; // `touched` is empty: rescan before concluding.
        }
        s_norm += t * (2.0 * u + t);
        a_dot += t * (2.0 * b_i + t * d_i);
        {
            let vals = map.vals_mut();
            vals[slot][0] = u + t;
            vals[slot][1] = b_i + t * d_i;
        }
        cg.excitations_into(det_i, &mut excs);
        hbuf.resize(excs.len(), 0.0);
        eval_elements(threads, ham, det_i, &excs, &mut hbuf);
        touched = apply_column(
            &mut map,
            det_i,
            &excs,
            &hbuf,
            t,
            a_dot / s_norm,
            opts,
            &mut dropped,
        );

        updates += 1;
        if updates.is_multiple_of(SWEEP) {
            touched = None;
            let sweep_no = updates / SWEEP;
            if sweep_no.is_multiple_of(NORM_REFRESH_SWEEPS) {
                let (flags, _keys, vals) = map.slots();
                let (s2, a2) = recompute_norms(threads, flags, vals);
                s_norm = s2;
                a_dot = a2;
            }
            let e_now = a_dot / s_norm;
            let now = tracer.now_us();
            let stat = SweepStat {
                sweep: sweep_no,
                support: map.len(),
                energy: e_now + ham.e_core,
                elapsed_us: now - sweep_t0,
            };
            sweep_t0 = now;
            history.push(stat);
            peak = peak.max(map.mem_bytes());
            tracer.instant(
                None,
                "cdfci_sweep",
                Category::Other,
                &[
                    ("sweep", stat.sweep as f64),
                    ("support", stat.support as f64),
                    ("energy", stat.energy),
                ],
            );
            if let Some(m) = tracer.metrics() {
                m.gauge_set("sparse.cdfci.support", &[], stat.support as f64);
                m.gauge_set("sparse.cdfci.store_bytes", &[], map.mem_bytes() as f64);
                m.gauge_set("sparse.cdfci.dropped", &[], dropped as f64);
                m.observe("sparse.cdfci.sweep_us", &[], stat.elapsed_us);
            }
            if (e_now - e_prev_sweep).abs() < opts.tol {
                converged = true;
                break;
            }
            e_prev_sweep = e_now;
        }
    }

    let e_final = a_dot / s_norm + ham.e_core;
    tracer.instant(
        None,
        "cdfci_end",
        Category::Other,
        &[
            ("updates", updates as f64),
            ("support", map.len() as f64),
            ("energy", e_final),
        ],
    );
    SparseResult {
        energies: vec![e_final],
        converged,
        iterations: updates,
        support: map.len(),
        formal_dim: space.alpha.len() as f64 * space.beta.len() as f64,
        peak_bytes: peak.max(map.mem_bytes()),
        dropped,
        history,
    }
}

/// Apply the rank-one column update `b += t·H·e_i` over the connections
/// of `det_i` (already enumerated into `excs` with elements in `hbuf`)
/// and return the next coordinate picked from it: the stored connection
/// with the largest `|b_j − e·c_j|` at the post-step energy `e` (first
/// in enumeration order on ties), as its determinant — a grow during the
/// column moves slots, so the caller finds the slot again. `None` when
/// no connection is stored.
///
/// Inserts on first contact while the store is under `max_store`;
/// afterwards only existing entries update and the rest are counted as
/// dropped. Sequential, in enumeration order — the store layout stays a
/// pure function of the update history.
#[allow(clippy::too_many_arguments)]
fn apply_column(
    map: &mut CoefMap,
    det_i: Det,
    excs: &[Exc],
    hbuf: &[f64],
    t: f64,
    e: f64,
    opts: &SparseOptions,
    dropped: &mut usize,
) -> Option<(Det, f64)> {
    let mut best: Option<(Det, f64)> = None;
    for (&x, &h) in excs.iter().zip(hbuf) {
        if h.abs() <= opts.h_cut {
            continue;
        }
        let j = x.apply(det_i);
        let sj = if map.len() < opts.max_store {
            map.slot_or_insert(j)
        } else if let Some(sj) = map.find(j) {
            sj
        } else {
            *dropped += 1;
            continue;
        };
        let v = &mut map.vals_mut()[sj];
        v[1] += t * h;
        let g = (v[1] - e * v[0]).abs();
        if best.is_none_or(|(_, bg)| g > bg) {
            best = Some((j, g));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use fci_core::hamiltonian::random_hamiltonian;
    use fci_core::slater;
    use fci_ints::EriTensor;
    use fci_linalg::{eigh, Matrix};
    use fci_scf::MoIntegrals;

    fn dense_ground(space: &DetSpace, ham: &Hamiltonian) -> f64 {
        let h = slater::dense_h(space, ham);
        eigh(&h).eigenvalues[0] + ham.e_core
    }

    /// Open chain with seeded random hoppings, site energies and on-site
    /// repulsions: a determinant connects only to its few hopping
    /// neighbours, so the last column touches a small part of the store.
    fn random_chain(n: usize, seed: u64) -> Hamiltonian {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut h = Matrix::zeros(n, n);
        let mut eri = EriTensor::zeros(n);
        for i in 0..n {
            h[(i, i)] = unit() - 0.5;
            eri.set(i, i, i, i, 2.0 + 4.0 * unit());
            if i + 1 < n {
                let t = -0.5 - unit();
                h[(i, i + 1)] = t;
                h[(i + 1, i)] = t;
            }
        }
        Hamiltonian::new(&MoIntegrals {
            n_orb: n,
            h,
            eri,
            e_core: 0.0,
            orb_sym: vec![0; n],
            n_irrep: 1,
        })
    }

    #[test]
    fn matches_dense_ground_state() {
        // Several seeds and sectors, Nα≠Nβ included, on dense and on
        // chain connectivity: a touched-column pick that stalled could
        // end a sweep with no energy change and stop short of the minimum.
        for (n, na, nb, seed) in [
            (6, 3, 2, 5u64),
            (6, 2, 2, 2),
            (7, 3, 1, 3),
            (5, 3, 2, 4),
            (6, 4, 1, 1),
            (5, 2, 2, 6),
        ] {
            for ham in [random_hamiltonian(n, seed), random_chain(n, seed)] {
                let space = DetSpace::c1(n, na, nb);
                let opts = SparseOptions {
                    tol: 1e-12,
                    max_updates: 200_000,
                    ..SparseOptions::default()
                };
                let res = solve_cdfci(&space, &ham, &opts);
                let exact = dense_ground(&space, &ham);
                assert!(res.converged, "n={n} {na}a{nb}b seed {seed}");
                assert!(
                    (res.energy() - exact).abs() < 1e-8,
                    "n={n} {na}a{nb}b seed {seed}: cdfci {} vs dense {exact}",
                    res.energy()
                );
                assert!(res.support <= space.dim());
                assert!(!res.history.is_empty());
            }
        }
    }

    #[test]
    fn bounded_store_still_produces_an_estimate() {
        let ham = random_hamiltonian(6, 9);
        let space = DetSpace::c1(6, 3, 3);
        let opts = SparseOptions {
            max_store: 64,
            max_updates: 20_000,
            tol: 1e-10,
            ..SparseOptions::default()
        };
        let res = solve_cdfci(&space, &ham, &opts);
        assert!(res.support <= 64);
        assert!(res.dropped > 0, "cap must have bitten");
        // The variational estimate stays above... CDFCI's quotient is not
        // strictly variational under truncation, but it must be sane:
        let exact = dense_ground(&space, &ham);
        assert!((res.energy() - exact).abs() < 0.5);
    }

    #[test]
    fn thread_count_is_bitwise_invariant() {
        // The 14-orbital 4α4β case has 2,220 excitations per pivot, past
        // the threaded branch of `eval_elements`; its store bound makes
        // the dropped-update path run as well.
        let cases = [
            (
                random_hamiltonian(6, 3),
                DetSpace::c1(6, 3, 3),
                2_000_000,
                30_000,
            ),
            (
                random_hamiltonian(14, 8),
                DetSpace::c1(14, 4, 4),
                20_000,
                300,
            ),
        ];
        for (ham, space, max_store, max_updates) in &cases {
            let run = |threads: usize| {
                let opts = SparseOptions {
                    threads,
                    tol: 1e-11,
                    max_store: *max_store,
                    max_updates: *max_updates,
                    ..SparseOptions::default()
                };
                solve_cdfci(space, ham, &opts)
            };
            let r1 = run(1);
            for threads in [2, 4] {
                let rt = run(threads);
                assert_eq!(r1.energy().to_bits(), rt.energy().to_bits());
                assert_eq!(r1.iterations, rt.iterations);
                assert_eq!(r1.support, rt.support);
                assert_eq!(r1.dropped, rt.dropped);
            }
        }
        let (ham, space, ..) = &cases[1];
        let mut excs = Vec::new();
        ConnGen::for_space(space).excitations_into(reference_det(space, ham), &mut excs);
        assert!(excs.len() >= 1024, "{} excitations", excs.len());
    }
}
