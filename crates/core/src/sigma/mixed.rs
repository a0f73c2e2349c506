//! The DGEMM-based mixed-spin (α-β) routine (paper eqs. 4–6, Fig. 2b).
//!
//! Work units are Nα−1 electron α occupations Kα, claimed from the
//! dynamic task pool. For each Kα with family {(q, sgn_q, Jα)}:
//!
//! 1. **gather** the remote C columns of the family, sign-folded
//!    (`DDI_GET` — the only read communication of the whole σ),
//! 2. build `D((q̃, s), Kβ) = sgn_s · C(Jα(q̃), Jβ(s, Kβ))` by a vector
//!    gather over the β N−1 families,
//! 3. one dense multiply `E = V_K · D`, where `V_K[(p̃,r),(q̃,s)] =
//!    (p_{p̃} q_{q̃} | r s)` is the integral block restricted to the
//!    family's orbitals (the "INT" box of Fig. 2b),
//! 4. scatter `E` through the β families into the update buffer and
//!    remote-accumulate each α column of it (`DDI_ACC`, 2× bytes).
//!
//! Communication per Kα is O(family × Nβ-strings) — in total `3·Nci·Nα`
//! words versus the MOC routine's `Nci·Nα·(n−Nα)` (Table 1).
//!
//! ### Scheduling simulation
//!
//! Under the threads backend every worker claims tasks from the shared
//! counter for real. Under the (default, deterministic) serial backend a
//! naive claim loop would let rank 0 drain the whole pool; instead the
//! routine simulates the self-scheduling exactly: the rank whose
//! simulated clock is lowest claims the next task — greedy list
//! scheduling, which is what `SHMEM_SWAP` self-scheduling produces on the
//! real machine. A task's numbers do not depend on the rank that claims
//! it, so the serial backend splits each task in two: `compute_task`
//! (gather, D build, DGEMM, scatter into a staging slot) runs for a window
//! of tasks at once on the host worker pool, and `commit_task` then
//! charges and accumulates them on the caller, in claim order.

use super::SigmaCtx;
use crate::hamiltonian::Hamiltonian;
use crate::phase::charge_comm;
use crate::taskpool::TaskPool;
use fci_ddi::{Backend, CommStats, Corruption, DistMatrix, FaultPlan};
use fci_linalg::{dgemm, dgemm_prepacked, gemm_prefers_packed, par, Matrix, PackedA, Trans};
use fci_obs::Category;
use fci_xsim::{Clock, MachineModel, RunReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Receives one α-column contribution of a task: `(column, values, stats)`.
/// The default sink remote-accumulates into σ; the `fci-check` schedule
/// explorer substitutes a collecting sink to study accumulation order.
pub type ColumnSink<'s> = dyn FnMut(usize, &[f64], &mut CommStats) + 's;

/// Per-thread working storage for computing one Kα task (the paper's
/// "working area to store the gathered C vector coefficients and the
/// computed update coefficients", §3.1).
struct WorkBufs {
    cg: Vec<f64>,
    /// One task's staged column updates (`nq × nbstr`), for the paths
    /// that compute and commit a task back to back.
    u: Vec<f64>,
    /// Column indices of the current family (input to the aggregated
    /// column gather); capacity reserved once, reused forever.
    cols: Vec<usize>,
    d: Matrix,
    e_mat: Matrix,
    vk: Matrix,
}

impl WorkBufs {
    fn new(nbstr: usize, nq: usize, n: usize, nkb: usize) -> Self {
        let nd = nq * n;
        WorkBufs {
            cg: vec![0.0; nbstr * nq],
            u: vec![0.0; nbstr * nq],
            cols: Vec::with_capacity(nq),
            d: Matrix::zeros(nd, nkb),
            e_mat: Matrix::zeros(nd, nkb),
            vk: Matrix::zeros(nd, nd),
        }
    }
}

/// Upper bound in bytes on one Hamiltonian's packed-`V_K` cache:
/// `FCIX_PACK_CACHE_MB` (≥1, in MiB) or 256 MiB. Resolved once. When the
/// budget fills, remaining families simply keep the build-and-pack-per-call
/// path — correctness never depends on a cache hit.
fn pack_cache_budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("FCIX_PACK_CACHE_MB")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&mb| mb >= 1)
            .unwrap_or(256)
            * (1 << 20)
    })
}

/// Packed `V_K` GEMM operands of one Hamiltonian, indexed by Kα and
/// shared by every worker computing its tasks.
///
/// `V_K` depends only on the Hamiltonian and the family, so once packed
/// it is valid for every σ application against that Hamiltonian, on any
/// thread: each panel is packed once and then only read. The id key makes
/// stale replay structurally impossible. Which panels fit the budget may
/// depend on timing across workers, but never the result: the packed and
/// unpacked GEMM paths are bitwise equal.
struct VkCache {
    ham_id: u64,
    panels: Vec<OnceLock<PackedA>>,
    bytes: AtomicUsize,
    /// Pack operations performed for this cache, on all workers.
    packs: AtomicUsize,
}

impl VkCache {
    fn new(ham_id: u64, nka: usize) -> Self {
        VkCache {
            ham_id,
            panels: (0..nka).map(|_| OnceLock::new()).collect(),
            bytes: AtomicUsize::new(0),
            packs: AtomicUsize::new(0),
        }
    }

    fn serves(&self, ham_id: u64, nka: usize) -> bool {
        self.ham_id == ham_id && self.panels.len() == nka
    }

    /// Pack `vk` as family `ka`'s operand and keep it if the budget
    /// allows; the cached operand, or `None` when declined.
    fn insert(&self, ka: usize, vk: &Matrix) -> Option<&PackedA> {
        // Relaxed counters: a budget and a statistic; the panel itself is
        // published to other workers by its `OnceLock`.
        let pa = PackedA::pack(Trans::No, vk);
        self.packs.fetch_add(1, Ordering::Relaxed);
        let size = pa.bytes();
        if self.bytes.fetch_add(size, Ordering::Relaxed) + size > pack_cache_budget() {
            self.bytes.fetch_sub(size, Ordering::Relaxed);
            return None;
        }
        if self.panels[ka].set(pa).is_err() {
            // Another worker cached this family first; keep theirs.
            self.bytes.fetch_sub(size, Ordering::Relaxed);
        }
        self.panels[ka].get()
    }

    /// `(cached entries, pack operations)` — the repack-elimination test
    /// asserts both equal Nα′ after many σ applications.
    #[cfg(test)]
    fn totals(&self) -> (usize, usize) {
        let entries = self.panels.iter().filter(|p| p.get().is_some()).count();
        (entries, self.packs.load(Ordering::Relaxed))
    }
}

/// Cache key for [`THREAD_BUFS`]: `(nbstr, nq, n, nkb)`.
type BufKey = (usize, usize, usize, usize);

/// One staged task of the serial backend's compute window.
struct Slot {
    work: TaskWork,
    out: Vec<f64>,
}

thread_local! {
    /// This thread's working area, keyed by its dimensions: every pool
    /// participant (and the caller) computes tasks out of its own, so
    /// steady-state Davidson iterations allocate nothing in the task
    /// body (asserted by the counting-allocator test in
    /// `tests/alloc_hotpath.rs`).
    static THREAD_BUFS: std::cell::RefCell<Option<(BufKey, WorkBufs)>> =
        const { std::cell::RefCell::new(None) };
    /// The calling thread's shared packed-`V_K` cache (the Hamiltonian
    /// it serves is in the cache's key).
    static VK_CACHE: std::cell::RefCell<Option<Arc<VkCache>>> =
        const { std::cell::RefCell::new(None) };
    /// The calling thread's staging window (serial backend).
    static STAGING: std::cell::RefCell<Vec<Slot>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` with this thread's working area for the given dimensions,
/// (re)allocating only when the dimensions change.
fn with_thread_bufs<R>(
    nbstr: usize,
    nq: usize,
    n: usize,
    nkb: usize,
    f: impl FnOnce(&mut WorkBufs) -> R,
) -> R {
    THREAD_BUFS.with(|cell| {
        let mut slot = cell.borrow_mut();
        let key = (nbstr, nq, n, nkb);
        match slot.as_mut() {
            Some((k, bufs)) if *k == key => f(bufs),
            _ => {
                let (_, bufs) = slot.insert((key, WorkBufs::new(nbstr, nq, n, nkb)));
                f(bufs)
            }
        }
    })
}

/// The calling thread's shared `V_K` cache for `(ham_id, nka)`, replacing
/// a cache that serves another Hamiltonian.
fn shared_vk_cache(ham_id: u64, nka: usize) -> Arc<VkCache> {
    VK_CACHE.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_ref() {
            Some(cache) if cache.serves(ham_id, nka) => cache.clone(),
            _ => slot.insert(Arc::new(VkCache::new(ham_id, nka))).clone(),
        }
    })
}

/// Simulated work counts of one task, fixed by the family structure;
/// computed with the task and charged when it is committed.
#[derive(Clone, Copy, Debug, Default)]
struct TaskWork {
    /// Elements moved by the D build.
    touched: usize,
    /// Elements moved by the β scatter.
    scat: usize,
}

/// Compute the column updates of Kα family `ka` into `out` (`nq` columns
/// of `nbstr`, column `slot` for family member `slot`, excitation sign
/// applied). Reads `c` directly — no rank, no statistics, no clock — so
/// it may run on any thread; [`commit_task`] charges and delivers it.
fn compute_task(
    ctx: &SigmaCtx,
    c: &DistMatrix,
    ka: usize,
    bufs: &mut WorkBufs,
    cache: &VkCache,
    out: &mut [f64],
) -> TaskWork {
    let space = ctx.space;
    let ham = ctx.ham;
    let n = space.n_orb();
    let nbstr = space.beta.len();
    let nkb = space.beta_nm1.len();
    let fam = space.alpha_nm1.of(ka);
    let nq = fam.len();
    let nd = nq * n;

    // (1) gather the C columns of the family (the communication is
    // charged at commit), then fold the excitation signs in place. An
    // in-place `*v *= -1` produces the same bits as a `sgn * v` store.
    bufs.cols.clear();
    // lint: allow(alloc) — capacity reserved once in WorkBufs::new; clear+extend never reallocates
    bufs.cols.extend(fam.iter().map(|e| e.to as usize));
    c.read_cols(&bufs.cols, &mut bufs.cg[..nq * nbstr]);
    for (slot, e) in fam.iter().enumerate() {
        if e.sign < 0 {
            for v in &mut bufs.cg[slot * nbstr..(slot + 1) * nbstr] {
                *v = -*v;
            }
        }
    }

    // (2) build D through the β N−1 families.
    bufs.d.fill_zero();
    let mut touched = 0usize;
    for kb in 0..nkb {
        for eb in space.beta_nm1.of(kb) {
            let s = eb.p as usize;
            let sgn = eb.sign as f64;
            let jb = eb.to as usize;
            for slot in 0..nq {
                bufs.d[(slot * n + s, kb)] = sgn * bufs.cg[jb + slot * nbstr];
            }
            touched += nq;
        }
    }

    // (3) the integral block and the DGEMM. `V_K` depends only on
    // (Hamiltonian, Kα), so above the GEMM packing crossover it is packed
    // once into the Hamiltonian's shared cache and replayed on every later
    // σ application — Davidson iterates dozens of times against the same
    // integrals, and on a hit both the nd×nd gather and the GEMM's
    // per-call A-pack disappear. The simulated clock still charges the
    // full build either way: the cache is a host-time optimization,
    // invisible to the machine model (and hence to the simulated
    // schedule, which is driven by those charges).
    let use_pack = gemm_prefers_packed(nd, nkb, nd);
    let mut pa = if use_pack {
        cache.panels[ka].get()
    } else {
        None
    };
    if pa.is_none() {
        fill_vk(&mut bufs.vk, ham, fam, n);
        if use_pack {
            pa = cache.insert(ka, &bufs.vk);
        }
    }
    match pa {
        // Bitwise equal to the `dgemm` packed path below, which `Auto`
        // selects for every shape where `use_pack` holds.
        Some(pa) => dgemm_prepacked(
            par::width(),
            1.0,
            pa,
            Trans::No,
            &bufs.d,
            0.0,
            &mut bufs.e_mat,
        ),
        None => dgemm(
            Trans::No,
            Trans::No,
            1.0,
            &bufs.vk,
            &bufs.d,
            0.0,
            &mut bufs.e_mat,
        ),
    }

    // (4) scatter through the β families, then apply each column's
    // excitation sign (exact, as in (1)).
    out.iter_mut().for_each(|x| *x = 0.0);
    let mut scat = 0usize;
    for kb in 0..nkb {
        for eb in space.beta_nm1.of(kb) {
            let r = eb.p as usize;
            let sgn = eb.sign as f64;
            let ib = eb.to as usize;
            for pi in 0..nq {
                out[ib + pi * nbstr] += sgn * bufs.e_mat[(pi * n + r, kb)];
            }
            scat += nq;
        }
    }
    for (slot, e) in fam.iter().enumerate() {
        if e.sign < 0 {
            for v in &mut out[slot * nbstr..(slot + 1) * nbstr] {
                *v = -*v;
            }
        }
    }
    TaskWork { touched, scat }
}

/// Commit one computed task as `rank`: charge its gather (the DDI
/// protocol, statistics and fault draws of [`DistMatrix::get_cols`]),
/// charge its simulated work in the paper's step order, and hand each
/// α-column update to `sink` (which normally performs the `DDI_ACC`).
/// `cols` is scratch for the family's column list.
#[allow(clippy::too_many_arguments)]
fn commit_task(
    ctx: &SigmaCtx,
    c: &DistMatrix,
    ka: usize,
    rank: usize,
    out: &[f64],
    work: TaskWork,
    cols: &mut Vec<usize>,
    stats: &mut CommStats,
    clock: &mut Clock,
    sink: &mut ColumnSink,
) {
    let space = ctx.space;
    let model = ctx.model;
    let nbstr = space.beta.len();
    let nkb = space.beta_nm1.len();
    let fam = space.alpha_nm1.of(ka);
    let nq = fam.len();
    let nd = nq * space.n_orb();

    // (1) the family's columns in ONE aggregated DDI gather — one latency
    // charge (and one trace event) per remote owner-run instead of one per
    // column, the paper's size-ordered aggregated gather.
    cols.clear();
    // lint: allow(alloc) — capacity reserved once by the owner; clear+extend never reallocates
    cols.extend(fam.iter().map(|e| e.to as usize));
    c.charge_get_cols(rank, cols, stats);
    clock.charge_gather(model, (nq * nbstr) as f64);
    // (2) D build.
    clock.charge_memcpy(model, (nd * nkb * 8) as f64);
    clock.charge_gather(model, work.touched as f64);
    // (3) V_K and the DGEMM.
    clock.charge_memcpy(model, (nd * nd * 8) as f64);
    clock.charge_dgemm(model, nd, nkb, nd);
    // (4) scatter and accumulate.
    clock.charge_gather(model, work.scat as f64);
    for (slot, e) in fam.iter().enumerate() {
        sink(e.to as usize, &out[slot * nbstr..(slot + 1) * nbstr], stats);
    }
    clock.charge_gather(model, (nq * nbstr) as f64);
    clock.charge_scalar(model, (2 * nq + 2 * nkb) as f64);
}

/// Execute the work of one Kα family on `rank` back to back — compute,
/// then commit — handing each α-column update to `sink`.
#[allow(clippy::too_many_arguments)]
fn process_task_into(
    ctx: &SigmaCtx,
    c: &DistMatrix,
    ka: usize,
    rank: usize,
    bufs: &mut WorkBufs,
    cache: &VkCache,
    stats: &mut CommStats,
    clock: &mut Clock,
    sink: &mut ColumnSink,
) {
    let mut out = std::mem::take(&mut bufs.u);
    let work = compute_task(ctx, c, ka, bufs, cache, &mut out);
    commit_task(
        ctx,
        c,
        ka,
        rank,
        &out,
        work,
        &mut bufs.cols,
        stats,
        clock,
        sink,
    );
    bufs.u = out;
}

/// Fill `vk` with the family's integral block (the "INT" box of
/// Fig. 2b): `V_K[(p̃·n+r), (q̃·n+s)] = (p_{p̃} q_{q̃} | r s)`.
fn fill_vk(vk: &mut Matrix, ham: &Hamiltonian, fam: &[fci_strings::CreateEntry], n: usize) {
    for (qi, eq) in fam.iter().enumerate() {
        for (pi, ep) in fam.iter().enumerate() {
            let vrow = ep.p as usize * n + eq.p as usize;
            for r in 0..n {
                for s in 0..n {
                    vk[(pi * n + r, qi * n + s)] = ham.v[(vrow, r * n + s)];
                }
            }
        }
    }
}

/// Test hook: `(entries, total packs)` of the calling thread's shared
/// `V_K` cache (zeros when none exists yet).
#[cfg(test)]
pub(crate) fn vk_cache_totals() -> (usize, usize) {
    VK_CACHE.with(|cell| cell.borrow().as_ref().map_or((0, 0), |c| c.totals()))
}

/// Commit a computed task as `rank`, accumulating into σ.
///
/// With a fault plan present the commit is *guarded*: the staged update
/// is validated finite as a whole before anything is accumulated — a
/// poisoned working area triggers a full recompute of the task instead of
/// polluting σ. Without a plan the columns accumulate directly (fast
/// path).
#[allow(clippy::too_many_arguments)]
fn commit_to_sigma(
    ctx: &SigmaCtx,
    c: &DistMatrix,
    sigma: &DistMatrix,
    ka: usize,
    rank: usize,
    out: &mut [f64],
    work: TaskWork,
    cache: &VkCache,
    cols: &mut Vec<usize>,
    stats: &mut CommStats,
    clock: &mut Clock,
    plan: Option<&FaultPlan>,
) {
    let Some(plan) = plan else {
        commit_task(
            ctx,
            c,
            ka,
            rank,
            out,
            work,
            cols,
            stats,
            clock,
            &mut |col, vals, st| sigma.acc_col(rank, col, vals, st),
        );
        return;
    };
    let tracer = ctx.ddi.tracer();
    let nbstr = ctx.space.beta.len();
    let mut attempt: u32 = 0;
    loop {
        commit_task(
            ctx,
            c,
            ka,
            rank,
            out,
            work,
            cols,
            stats,
            clock,
            &mut |_, _, _| {},
        );
        // An injected single-event upset strikes the working area after
        // the compute, before the commit (the plan caps attempts, so the
        // recompute loop terminates by construction).
        if plan.poison_task(attempt) {
            if let Some(first) = out.get_mut(..nbstr) {
                plan.corrupt(Corruption::Nan, first);
            }
            tracer.instant(
                Some(rank),
                "fault_injected",
                Category::Other,
                &[
                    ("kind", 5.0),
                    ("ka", ka as f64),
                    ("attempt", attempt as f64),
                ],
            );
        }
        if out.iter().all(|v| v.is_finite()) {
            for (slot, e) in ctx.space.alpha_nm1.of(ka).iter().enumerate() {
                let vals = &out[slot * nbstr..(slot + 1) * nbstr];
                sigma.acc_col(rank, e.to as usize, vals, stats);
            }
            return;
        }
        // Column guard tripped: discard the whole task and redo it; the
        // next pass re-charges the recomputed gathers and DGEMM.
        plan.count_recompute();
        stats.backoff_ns += plan.backoff_ns(attempt);
        tracer.instant(
            Some(rank),
            "task_recompute",
            Category::Other,
            &[("ka", ka as f64), ("attempt", attempt as f64)],
        );
        attempt += 1;
        let space = ctx.space;
        let nq = n_q(ctx);
        with_thread_bufs(nbstr, nq, space.n_orb(), space.beta_nm1.len(), |bufs| {
            compute_task(ctx, c, ka, bufs, cache, out)
        });
    }
}

/// Family size `n − (Nα − 1)` of every Kα.
fn n_q(ctx: &SigmaCtx) -> usize {
    ctx.space.n_orb() - (ctx.space.alpha.n_elec() - 1)
}

/// A persistent mixed-spin worker: owns one rank's working buffers,
/// statistics, and simulated clock across tasks, exactly like a real
/// worker holds its scratch area for the whole phase. Used by the
/// `fci-check` schedule explorer to replay the task pool under arbitrary
/// interleavings — reusing the same buffers across tasks is what gives
/// the replay teeth against stale-buffer contamination.
pub struct MixedWorker {
    bufs: WorkBufs,
    cache: VkCache,
    /// Communication charged to this worker so far.
    pub stats: CommStats,
    /// Simulated time charged to this worker so far.
    pub clock: Clock,
}

impl MixedWorker {
    /// Fresh worker with buffers sized for `ctx.space`.
    pub fn new(ctx: &SigmaCtx) -> MixedWorker {
        let space = ctx.space;
        let nq = n_q(ctx);
        MixedWorker {
            bufs: WorkBufs::new(space.beta.len(), nq, space.n_orb(), space.beta_nm1.len()),
            cache: VkCache::new(ctx.ham.id(), space.alpha_nm1.len()),
            stats: CommStats::default(),
            clock: Clock::default(),
        }
    }

    /// Run one Kα family as `rank`, handing each α-column update to
    /// `sink` instead of accumulating into a σ matrix.
    pub fn run_task(
        &mut self,
        ctx: &SigmaCtx,
        c: &DistMatrix,
        ka: usize,
        rank: usize,
        sink: &mut ColumnSink,
    ) {
        process_task_into(
            ctx,
            c,
            ka,
            rank,
            &mut self.bufs,
            &self.cache,
            &mut self.stats,
            &mut self.clock,
            sink,
        );
    }
}

/// Staged tasks per window and pool participant under the serial
/// backend: one task per pool chunk, so a late helper finds work and
/// the window barrier idles for at most one task.
const WINDOW_PER_WORKER: usize = par::CHUNKS_PER_WORKER;

/// Upper bound on one window's staging buffers.
const STAGING_BYTES: usize = 32 << 20;

/// Apply the mixed-spin contribution: `sigma += H_αβ · c`.
pub fn mixed_spin_dgemm(ctx: &SigmaCtx, c: &DistMatrix, sigma: &DistMatrix) -> RunReport {
    let space = ctx.space;
    let model = ctx.model;
    let n = space.n_orb();
    let nbstr = space.beta.len();
    let nka = space.alpha_nm1.len();
    let nkb = space.beta_nm1.len();
    let nq = n_q(ctx);
    let nproc = ctx.ddi.nproc();
    let plan = ctx.ddi.faults();
    let pool = TaskPool::aggregated(nka, nproc, ctx.pool);
    let cache = shared_vk_cache(ctx.ham.id(), nka);
    ctx.ddi.reset_counter();
    let tracer = ctx.ddi.tracer();
    let host_start = tracer.now_us();
    if tracer.enabled() {
        let sizes = pool.sizes();
        tracer.counter(
            None,
            "pool_shape",
            &[
                ("tasks", sizes.len() as f64),
                ("largest", sizes.iter().copied().max().unwrap_or(0) as f64),
                ("smallest", sizes.iter().copied().min().unwrap_or(0) as f64),
            ],
        );
    }

    let report = match ctx.ddi.backend() {
        Backend::Serial => {
            // Deterministic simulation of self-scheduling: the rank whose
            // clock is lowest claims the next task (greedy list schedule).
            // Task *computation* does not depend on the rank, so windows
            // of tasks are computed on the worker pool first; the caller
            // then commits them in claim order — every counter claim,
            // gather charge, clock charge and σ accumulate happens in the
            // same order as a one-thread run.
            let width = ctx.ddi.pool_width();
            let slot_len = nq * nbstr;
            let window = (WINDOW_PER_WORKER * width)
                .min(STAGING_BYTES / (8 * slot_len).max(1))
                .max(1);
            let task_work = 2 * nq * n * nkb * nq * n;
            let mut clocks = vec![Clock::default(); nproc];
            let mut stats = vec![CommStats::default(); nproc];
            let mut cols = Vec::with_capacity(nq);
            // (task, ka) in claim order (tasks are never empty).
            let order: Vec<(usize, usize)> = (0..pool.len())
                .flat_map(|t| pool.task(t).map(move |ka| (t, ka)))
                .collect();
            let mut rank = 0;
            STAGING.with(|cell| {
                let mut slots = cell.borrow_mut();
                slots.truncate(window);
                slots.iter_mut().for_each(|s| s.out.resize(slot_len, 0.0));
                while slots.len() < window {
                    slots.push(Slot {
                        work: TaskWork::default(),
                        out: vec![0.0; slot_len],
                    });
                }
                for win in order.chunks(window) {
                    let slots = &mut slots[..win.len()];
                    par::for_each_mut(width, task_work * win.len(), slots, |i, slot| {
                        with_thread_bufs(nbstr, nq, n, nkb, |bufs| {
                            let ka = win[i].1;
                            slot.work = compute_task(ctx, c, ka, bufs, &cache, &mut slot.out);
                        });
                    });
                    for (slot, &(t, ka)) in slots.iter_mut().zip(win) {
                        if ka == pool.task(t).start {
                            rank = argmin_clock(&clocks, model, &stats);
                            // Claim through the real counter so traces and
                            // protocol records see the same ddi_nxtval
                            // stream as the threaded backend (the greedy
                            // argmin IS the claim order here, so the
                            // counter hands back exactly `t`).
                            let got = ctx.ddi.nxtval_rank(rank, &mut stats[rank]);
                            debug_assert_eq!(got, t);
                            tracer.instant(
                                Some(rank),
                                "task_grab",
                                Category::Other,
                                &[("task", t as f64), ("size", pool.task(t).len() as f64)],
                            );
                        }
                        commit_to_sigma(
                            ctx,
                            c,
                            sigma,
                            ka,
                            rank,
                            &mut slot.out,
                            slot.work,
                            &cache,
                            &mut cols,
                            &mut stats[rank],
                            &mut clocks[rank],
                            plan.as_deref(),
                        );
                    }
                }
            });
            // Every rank's terminating counter probe.
            for (rank, st) in stats.iter_mut().enumerate() {
                let t = ctx.ddi.nxtval_rank(rank, st);
                debug_assert!(t >= pool.len());
            }
            for (ck, st) in clocks.iter_mut().zip(&stats) {
                charge_comm(ck, st, model);
            }
            RunReport::new(clocks)
        }
        Backend::Threads => {
            let clocks = Mutex::new(vec![Clock::default(); nproc]);
            let stats_out = ctx.ddi.run(|rank, stats| {
                let mut clock = Clock::default();
                let mut bufs = WorkBufs::new(nbstr, nq, n, nkb);
                loop {
                    let t = ctx.ddi.nxtval_rank(rank, stats);
                    if t >= pool.len() {
                        break;
                    }
                    tracer.instant(
                        Some(rank),
                        "task_grab",
                        Category::Other,
                        &[("task", t as f64), ("size", pool.task(t).len() as f64)],
                    );
                    for ka in pool.task(t) {
                        let mut out = std::mem::take(&mut bufs.u);
                        let work = compute_task(ctx, c, ka, &mut bufs, &cache, &mut out);
                        commit_to_sigma(
                            ctx,
                            c,
                            sigma,
                            ka,
                            rank,
                            &mut out,
                            work,
                            &cache,
                            &mut bufs.cols,
                            stats,
                            &mut clock,
                            plan.as_deref(),
                        );
                        bufs.u = out;
                    }
                }
                clocks.lock().unwrap()[rank] = clock;
            });
            let mut clocks = clocks.into_inner().unwrap_or_else(|e| e.into_inner());
            for (ck, st) in clocks.iter_mut().zip(&stats_out) {
                charge_comm(ck, st, model);
            }
            RunReport::new(clocks)
        }
    };
    report.record_to(
        &tracer,
        "alpha_beta",
        host_start,
        tracer.now_us() - host_start,
    );
    report
}

/// Rank with the smallest simulated time so far (clock + comm implied by
/// its statistics, which have not been folded into the clock yet).
fn argmin_clock(clocks: &[Clock], model: &MachineModel, stats: &[CommStats]) -> usize {
    let mut best = 0;
    let mut bt = f64::INFINITY;
    for (r, ck) in clocks.iter().enumerate() {
        let mut trial = *ck;
        charge_comm(&mut trial, &stats[r], model);
        let t = trial.total();
        if t < bt {
            bt = t;
            best = r;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detspace::DetSpace;
    use crate::hamiltonian::random_hamiltonian;
    use crate::slater;
    use crate::taskpool::PoolParams;
    use fci_ddi::Ddi;
    use fci_xsim::MachineModel;

    /// Mixed-spin reference: Slater–Condon elements where both spins are
    /// singly excited, plus the αβ Coulomb pieces of diagonal and
    /// single-excitation elements.
    fn reference_mixed(
        space: &DetSpace,
        ham: &crate::hamiltonian::Hamiltonian,
        c: &[f64],
    ) -> Vec<f64> {
        let na = space.alpha.len();
        let nb = space.beta.len();
        let mut out = vec![0.0; na * nb];
        for ia in 0..na {
            let am = space.alpha.mask(ia);
            for ib in 0..nb {
                let bm = space.beta.mask(ib);
                for ja in 0..na {
                    let jam = space.alpha.mask(ja);
                    let da = (am ^ jam).count_ones() / 2;
                    if da > 1 {
                        continue;
                    }
                    for jb in 0..nb {
                        let jbm = space.beta.mask(jb);
                        let db = (bm ^ jbm).count_ones() / 2;
                        let v = match (da, db) {
                            (1, 1) => slater::element(ham, am, bm, jam, jbm),
                            (0, 0) if ia == ja && ib == jb => {
                                let mut acc = 0.0;
                                for &p in &fci_strings::occ_list(am) {
                                    for &q in &fci_strings::occ_list(bm) {
                                        acc += ham.eri.get(p, p, q, q);
                                    }
                                }
                                acc
                            }
                            (1, 0) if ib == jb => {
                                let p = fci_strings::occ_list(am & !jam)[0];
                                let q = fci_strings::occ_list(jam & !am)[0];
                                let (s1, m1) = fci_strings::annihilate(jam, q).unwrap();
                                let (s2, _) = fci_strings::create(m1, p).unwrap();
                                let mut acc = 0.0;
                                for &r in &fci_strings::occ_list(bm) {
                                    acc += ham.eri.get(p, q, r, r);
                                }
                                acc * (s1 * s2) as f64
                            }
                            (0, 1) if ia == ja => {
                                let p = fci_strings::occ_list(bm & !jbm)[0];
                                let q = fci_strings::occ_list(jbm & !bm)[0];
                                let (s1, m1) = fci_strings::annihilate(jbm, q).unwrap();
                                let (s2, _) = fci_strings::create(m1, p).unwrap();
                                let mut acc = 0.0;
                                for &r in &fci_strings::occ_list(am) {
                                    acc += ham.eri.get(p, q, r, r);
                                }
                                acc * (s1 * s2) as f64
                            }
                            _ => 0.0,
                        };
                        if v != 0.0 {
                            out[ib + ia * nb] += v * c[jb + ja * nb];
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn mixed_matches_slater_condon() {
        let ham = random_hamiltonian(5, 41);
        let space = DetSpace::c1(5, 2, 2);
        for nproc in [1usize, 4] {
            let ddi = Ddi::new(nproc, Backend::Serial);
            let model = MachineModel::cray_x1();
            let ctx = SigmaCtx {
                space: &space,
                ham: &ham,
                ddi: &ddi,
                model: &model,
                pool: PoolParams::default(),
            };
            let c = space.zeros_ci(nproc);
            let mut seed = 5u64;
            c.map_inplace(|_, _, _| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
                ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            });
            let sigma = space.zeros_ci(nproc);
            mixed_spin_dgemm(&ctx, &c, &sigma);
            let reference = reference_mixed(&space, &ham, &c.to_dense());
            let got = sigma.to_dense();
            for (a, b) in got.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-11, "{a} vs {b} nproc={nproc}");
            }
        }
    }

    #[test]
    fn gather_acc_volume_matches_table1_model() {
        // Table 1: DGEMM α-β communication ≈ 3·Nci·Nα words (1× gather +
        // 2× accumulate), approached when nearly all columns are remote.
        let ham = random_hamiltonian(6, 3);
        let space = DetSpace::c1(6, 3, 2);
        let nproc = space.alpha.len();
        let ddi = Ddi::new(nproc, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let c = space.guess(&ham, nproc);
        let sigma = space.zeros_ci(nproc);
        let rep = mixed_spin_dgemm(&ctx, &c, &sigma);
        let nci = space.dim() as f64;
        let na = space.alpha.n_elec() as f64;
        let expect_words = 3.0 * nci * na;
        let got_words = rep.total_net_bytes() / 8.0;
        assert!(
            (got_words - expect_words).abs() < 0.2 * expect_words,
            "words {got_words} vs model {expect_words}"
        );
    }

    #[test]
    fn dynamic_schedule_balances_work() {
        // The simulated self-scheduling must spread the α-β work: no rank
        // may be idle while another holds more than two tasks' worth of
        // surplus (uniform task costs here).
        let ham = random_hamiltonian(8, 5);
        let space = DetSpace::c1(8, 3, 3);
        let p = 8;
        let ddi = Ddi::new(p, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let c = space.guess(&ham, p);
        let sigma = space.zeros_ci(p);
        let rep = mixed_spin_dgemm(&ctx, &c, &sigma);
        let times: Vec<f64> = rep.clocks.iter().map(|k| k.total()).collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > 0.0, "an MSP sat completely idle: {times:?}");
        assert!(max < 3.0 * min, "imbalance too large: {times:?}");
    }

    #[test]
    fn vk_operands_packed_once_per_solve_sequence() {
        // DetSpace::c1(10,3,3): nd = 80, nkb = 45, so the V_K·D product
        // sits above the packing crossover and every family's operand is
        // cached. Repeated σ applications against the same Hamiltonian —
        // with the tasks computed on every pool width — must leave
        // exactly Nα′ cached operands, each packed exactly once across
        // all workers, and must reproduce σ bitwise.
        let ham = random_hamiltonian(10, 17);
        let space = DetSpace::c1(10, 3, 3);
        let nproc = 4;
        let ddi = Ddi::new(nproc, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let nd = (space.n_orb() - (space.alpha.n_elec() - 1)) * space.n_orb();
        assert!(fci_linalg::gemm_prefers_packed(
            nd,
            space.beta_nm1.len(),
            nd
        ));
        let c = space.guess(&ham, nproc);
        let nka = space.alpha_nm1.len();
        let sigma1 = space.zeros_ci(nproc);
        par::with_width(2, || mixed_spin_dgemm(&ctx, &c, &sigma1));
        assert_eq!(vk_cache_totals(), (nka, nka), "first σ fills the cache");
        for w in [1usize, 2, 4] {
            let sigma2 = space.zeros_ci(nproc);
            par::with_width(w, || mixed_spin_dgemm(&ctx, &c, &sigma2));
            assert_eq!(vk_cache_totals(), (nka, nka), "width {w} repacks nothing");
            assert_eq!(
                sigma1.to_dense(),
                sigma2.to_dense(),
                "cached replay at width {w} must be bitwise identical"
            );
        }
        // A different Hamiltonian invalidates and refills the cache.
        let ham2 = random_hamiltonian(10, 18);
        let ctx2 = SigmaCtx {
            space: &space,
            ham: &ham2,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        par::with_width(2, || mixed_spin_dgemm(&ctx2, &c, &space.zeros_ci(nproc)));
        assert_eq!(vk_cache_totals(), (nka, nka));
    }

    #[test]
    fn mixed_phase_scales_with_processors() {
        let ham = random_hamiltonian(8, 9);
        let space = DetSpace::c1(8, 3, 3);
        let model = MachineModel::cray_x1();
        let mut t = Vec::new();
        for p in [2usize, 8] {
            let ddi = Ddi::new(p, Backend::Serial);
            let ctx = SigmaCtx {
                space: &space,
                ham: &ham,
                ddi: &ddi,
                model: &model,
                pool: PoolParams::default(),
            };
            let c = space.guess(&ham, p);
            let sigma = space.zeros_ci(p);
            t.push(mixed_spin_dgemm(&ctx, &c, &sigma).elapsed());
        }
        assert!(t[1] < 0.5 * t[0], "mixed-spin speedup 2→8 too small: {t:?}");
    }
}
