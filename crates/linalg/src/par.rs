//! One process-wide, deterministic worker pool.
//!
//! Every parallel loop of the dense stack — the macro kernel of
//! [`dgemm`](crate::gemm::dgemm), the owner-computes σ phases, the
//! mixed-spin task computation, the distributed transposes and the
//! Davidson vector algebra — runs on this pool instead of spawning its
//! own threads:
//!
//! * `available_parallelism() − 1` helper threads are started lazily,
//!   once, on the first parallel call; the calling thread always works
//!   too, so a width-`w` call has at most `w` participants;
//! * a call is a **fixed chunk grid** `0..n`; participants claim chunk
//!   indices from one atomic counter, so the caller never waits for a
//!   chunk nobody has started — it simply runs the rest itself;
//! * a call made from inside a chunk, or while another thread holds the
//!   pool, runs inline on its caller (no nesting, no queueing: deadlock
//!   is impossible by construction);
//! * a call whose work estimate is below [`PAR_MIN_WORK`] runs inline,
//!   so small problems never wake a helper;
//! * a panic in a chunk stops further claims and is re-raised on the
//!   caller after every started chunk has finished;
//! * dispatch allocates nothing: the job lives on the caller's stack.
//!
//! **Determinism** is the caller's contract, and every caller keeps it
//! the same way: each chunk writes disjoint outputs, and anything whose
//! floating-point result depends on order (a reduction, an accumulate
//! into shared data, a simulated-clock charge) runs on the caller, in
//! chunk order, after the parallel part. Which thread ran a chunk is
//! therefore invisible in the results; so is the width.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Work (in flop-equivalents) below which a call runs inline: waking a
/// helper costs tens of µs, about what 2·96³ flops take on one core (the
/// same crossover that gated the per-GEMM thread spawns).
pub const PAR_MIN_WORK: usize = 2 * 96 * 96 * 96;

/// Chunks per participant in the grids of [`for_each`]: enough slack
/// that a late-waking helper still finds work, few enough that the claim
/// counter stays cold.
pub const CHUNKS_PER_WORKER: usize = 8;

thread_local! {
    /// Width override installed by [`with_width`] on this thread.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// Default width of a parallel call: the [`with_width`] override on this
/// thread if one is active, otherwise the host's available parallelism.
pub fn width() -> usize {
    match WIDTH.with(Cell::get) {
        0 => host_parallelism(),
        w => w,
    }
}

/// Run `f` with [`width`] fixed at `w` (≥1) on the calling thread — the
/// argument-passing hook the width-invariance tests use. Results are
/// identical at every width; only the chunk grids and the number of
/// participants change.
pub fn with_width<R>(w: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(WIDTH.with(|c| c.replace(w.max(1))));
    f()
}

fn host_parallelism() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run `f(i)` for every chunk `i` in `0..n`, on up to `width`
/// participants (the caller plus helpers), unless `work` is below
/// [`PAR_MIN_WORK`] or the pool is taken, in which case the chunks run
/// inline in index order. Returns after every chunk has run.
pub fn run_chunks(width: usize, work: usize, n: usize, f: &(dyn Fn(usize) + Sync)) {
    // The pool (and its helper threads) comes to life only at the first
    // call that clears the gate.
    let inline = width <= 1 || n <= 1 || work < PAR_MIN_WORK || host_parallelism() == 1;
    let pool = (!inline).then(pool).filter(|p| p.try_acquire());
    let Some(pool) = pool else {
        for i in 0..n {
            f(i);
        }
        return;
    };
    // SAFETY: the erased reference is published to helpers only through
    // `state.job`, which is cleared below before this function returns,
    // and the caller then waits until no helper is still inside the job
    // (`active == 0`). No helper can therefore touch `f` (or `job`)
    // after this frame ends, so extending the lifetime is sound.
    let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
    let job = Job {
        f: f_static,
        n,
        next: AtomicUsize::new(0),
    };
    {
        let mut st = pool.lock();
        st.job = Some(JobPtr(&job));
        st.epoch = st.epoch.wrapping_add(1);
        st.slots = width.min(pool.helpers + 1) - 1;
    }
    pool.wake.notify_all();
    let mine = job.claim_all();
    let theirs = {
        let mut st = pool.lock();
        st.job = None;
        while st.active > 0 {
            st = pool.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.panic.take()
    };
    pool.release();
    if let Some(p) = mine.or(theirs) {
        resume_unwind(p);
    }
}

/// Run `f(i)` for every `i` in `0..n` on the pool: the indices are cut
/// into a fixed grid of contiguous runs (a function of `n` and `width`
/// only), each run claimed whole by one participant. `work` is the
/// estimate for the whole loop (see [`run_chunks`]).
pub fn for_each(width: usize, work: usize, n: usize, f: impl Fn(usize) + Sync) {
    let nchunks = n.min(width.max(1) * CHUNKS_PER_WORKER);
    let run = |c: usize| {
        for i in c * n / nchunks..(c + 1) * n / nchunks {
            f(i);
        }
    };
    run_chunks(width, work, nchunks, &run);
}

/// [`for_each`] over the elements of `items`: `f(index, &mut item)`,
/// each element borrowed mutably by exactly one participant.
pub fn for_each_mut<T: Send>(
    width: usize,
    work: usize,
    items: &mut [T],
    f: impl Fn(usize, &mut T) + Sync,
) {
    let len = items.len();
    let base = SendPtr(items.as_mut_ptr());
    for_each(width, work, len, |i| {
        // SAFETY: `for_each` visits every index of `0..len` exactly once
        // (its runs partition the range and `run_chunks` runs each run
        // once), so no element is borrowed twice, and `i < len` keeps the
        // pointer in bounds. `items` stays mutably borrowed by this
        // function for the whole call.
        let item = unsafe { &mut *base.get().add(i) };
        f(i, item);
    });
}

/// A raw element pointer that may cross threads (see [`for_each_mut`]).
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// The pointer. A method (not a field read) so closures capture the
    /// whole `Sync` wrapper rather than the bare pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced at indices that one chunk
// owns exclusively (see `for_each_mut`), and `T: Send` lets each element
// be handed to the thread running its chunk.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — shared access only ever yields disjoint elements.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// One parallel call: the chunk body and the claim counter. Lives on the
/// caller's stack for the duration of [`run_chunks`].
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
}

impl Job {
    /// Claim and run chunks until none are left. A panicking chunk stops
    /// all further claims; its payload is returned.
    // lint: allow(alloc) — `Box` names the panic payload type; nothing is allocated here
    fn claim_all(&self) -> Option<Box<dyn Any + Send>> {
        loop {
            // Relaxed: the counter only hands out indices; chunk outputs
            // reach the caller through the state mutex (`active`).
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return None;
            }
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                self.next.store(self.n, Ordering::Relaxed);
                return Some(p);
            }
        }
    }
}

/// Pointer to the caller-owned [`Job`] of the current call.
#[derive(Clone, Copy)]
struct JobPtr(*const Job);

// SAFETY: a `Job` is `Sync` (an atomic counter and a `Sync` closure),
// and the pointer is dereferenced only while the caller keeps the job
// alive (see `run_chunks`).
unsafe impl Send for JobPtr {}

struct State {
    /// The call in progress, if any.
    job: Option<JobPtr>,
    /// Bumped per call so a helper joins each call at most once.
    epoch: u64,
    /// Helpers still allowed to join the current call.
    slots: usize,
    /// Helpers currently inside the current call.
    active: usize,
    /// First panic raised by a helper's chunk in the current call.
    // lint: allow(alloc) — `Box` names the panic payload type; only a panic allocates it
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    helpers: usize,
    busy: AtomicBool,
    state: Mutex<State>,
    /// Helpers sleep here between calls.
    wake: Condvar,
    /// The caller waits here for its helpers to leave the call.
    done: Condvar,
}

impl Pool {
    /// Lock the shared state. No code panics while holding it and every
    /// update is a single assignment, so a poisoned lock still guards
    /// valid data and is recovered.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take the pool for one call; `false` if another call holds it
    /// (including an enclosing call on this very thread). Acquire pairs
    /// with the Release in [`Pool::release`]; the job data itself is
    /// published through the state mutex.
    fn try_acquire(&self) -> bool {
        !self.busy.swap(true, Ordering::Acquire)
    }

    fn release(&self) {
        self.busy.store(false, Ordering::Release);
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let helpers = host_parallelism() - 1;
        for i in 0..helpers {
            // lint: allow(alloc) — helper threads are spawned once per process
            let name = format!("fcix-pool-{i}");
            // Helpers live as long as the process, so their handles are
            // dropped (detached); a chunk's panic never unwinds a helper —
            // `claim_all` catches it and the caller re-raises it. A helper
            // that cannot be spawned simply never joins a call: the caller
            // runs every chunk the helpers leave unclaimed.
            let _ = std::thread::Builder::new().name(name).spawn(helper_loop);
        }
        Pool {
            helpers,
            busy: AtomicBool::new(false),
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                slots: 0,
                active: 0,
                panic: None,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
        }
    })
}

fn helper_loop() {
    let pool = pool();
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = pool.lock();
            loop {
                if st.epoch != seen {
                    seen = st.epoch;
                    if let (Some(job), true) = (st.job, st.slots > 0) {
                        st.slots -= 1;
                        st.active += 1;
                        break job;
                    }
                }
                st = pool.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: `active` was incremented under the lock while the job
        // was published, and the caller does not return (or drop the
        // job) until `active` is back to zero.
        let panic = unsafe { &*job.0 }.claim_all();
        let mut st = pool.lock();
        if st.panic.is_none() {
            st.panic = panic;
        }
        st.active -= 1;
        if st.active == 0 {
            pool.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_chunk_runs_once_at_every_width() {
        for w in [1usize, 2, 4, 8] {
            for n in [0usize, 1, 2, 3, 17, 100] {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                run_chunks(w, usize::MAX, n, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "w={w} n={n}"
                );
            }
        }
    }

    #[test]
    fn for_each_mut_visits_every_element_with_its_index() {
        for w in [1usize, 2, 3, 4] {
            let mut v = vec![0usize; 1000];
            for_each_mut(w, usize::MAX, &mut v, |i, x| *x += i + 1);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1), "w={w}");
        }
    }

    #[test]
    fn nested_calls_run_inline() {
        let total = AtomicU64::new(0);
        run_chunks(2, usize::MAX, 8, &|_| {
            run_chunks(2, usize::MAX, 8, &|j| {
                total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 28);
    }

    #[test]
    fn panic_reaches_caller_after_started_chunks_finish() {
        let finished = AtomicU64::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_chunks(2, usize::MAX, 64, &|i| {
                if i == 5 {
                    panic!("chunk 5");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(r.is_err());
        // The pool is usable again afterwards.
        let after = AtomicU64::new(0);
        run_chunks(2, usize::MAX, 10, &|_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn with_width_overrides_and_restores() {
        let outer = width();
        let inner = with_width(3, || (width(), with_width(1, width)));
        assert_eq!(inner, (3, 1));
        assert_eq!(width(), outer);
    }
}
