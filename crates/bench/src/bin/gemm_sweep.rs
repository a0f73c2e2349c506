//! GEMM engine sweep: naive vs seed-kernel vs blocked vs threaded,
//! sizes 32..1024, emitting `results/BENCH_gemm_sweep.json`.
//!
//! Modes:
//!
//! * (default) full sweep — measures all six kernels per size (naive
//!   capped at 512³): the four historical engines plus `prepacked`
//!   (threaded, A packed once outside the timing loop — the σ kernels'
//!   steady state with a persistent [`PackedA`]) and `f32pack` (serial
//!   packed path with f32 operand panels and f64 accumulation); records
//!   GF/s per kernel and the 512³ speedups over the seed kernel, writes
//!   the JSON artifact;
//! * `--quick` — CI smoke: times seed, blocked (1 thread) and threaded
//!   (auto) at 512³ only, writes the machine-tolerant speedup ratios to
//!   `results/BENCH_gemm_sweep_quick.json` for `fcix-bench-diff`, and
//!   **exits 1** if the threaded kernel is more than 25 % slower than
//!   the serial blocked one (threading must never cost throughput, even
//!   on a 1-core runner where both paths coincide);
//! * `--autotune` — prints the small-path/packed-path crossover table
//!   that justifies the `SMALL_FLOPS` constant in
//!   `crates/linalg/src/gemm.rs`.
//!
//! The "seed" bar is a faithful replica of the pre-engine serial 4×4
//! kernel (per-call `vec![]` packing, no NC loop, no threads, no small
//! path) so the before/after speedup is measured, not remembered.

use fci_linalg::{
    dgemm_naive, dgemm_path, dgemm_prepacked, dgemm_with_threads, GemmPath, Matrix, PackedA, Trans,
};
use fci_obs::JsonValue;
use std::hint::black_box;
use std::time::Instant;

/// Replica of the seed kernel this PR replaced: serial, 4×4 microkernel,
/// MC×KC blocking only, `vec![]` packing buffers on every call.
mod seed {
    use fci_linalg::Matrix;

    const MR: usize = 4;
    const NR: usize = 4;
    const MC: usize = 128;
    const KC: usize = 256;

    /// `C := A·B` (the sweep only needs the untransposed case).
    pub fn dgemm(a: &Matrix, b: &Matrix, c: &mut Matrix) {
        let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
        c.fill_zero();
        // Deliberate replica of the seed's per-call allocations.
        // lint: allow(alloc) — ablation baseline reproduces the seed's per-call alloc
        let mut apack = vec![0.0; MC * KC];
        // lint: allow(alloc) — ablation baseline reproduces the seed's per-call alloc
        let mut bpack = vec![0.0; KC * n.div_ceil(NR) * NR];
        let mut l0 = 0;
        while l0 < k {
            let kc = KC.min(k - l0);
            for q in 0..n.div_ceil(NR) {
                let smax = NR.min(n - q * NR);
                for l in 0..kc {
                    for s in 0..NR {
                        bpack[q * (KC * NR) + l * NR + s] = if s < smax {
                            b[(l0 + l, q * NR + s)]
                        } else {
                            0.0
                        };
                    }
                }
            }
            let mut i0 = 0;
            while i0 < m {
                let mc = MC.min(m - i0);
                for p in 0..mc.div_ceil(MR) {
                    let rmax = MR.min(mc - p * MR);
                    for l in 0..kc {
                        for r in 0..MR {
                            apack[p * (KC * MR) + l * MR + r] = if r < rmax {
                                a[(i0 + p * MR + r, l0 + l)]
                            } else {
                                0.0
                            };
                        }
                    }
                }
                for q in 0..n.div_ceil(NR) {
                    let jr = q * NR;
                    let nr = NR.min(n - jr);
                    let bt = &bpack[q * (KC * NR)..][..kc * NR];
                    let mut ir = 0;
                    while ir < mc {
                        let mr = MR.min(mc - ir);
                        let at = &apack[(ir / MR) * (KC * MR)..][..kc * MR];
                        micro(kc, at, bt, c, i0 + ir, jr, mr, nr);
                        ir += MR;
                    }
                }
                i0 += MC;
            }
            l0 += KC;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn micro(
        kc: usize,
        at: &[f64],
        bt: &[f64],
        c: &mut Matrix,
        i0: usize,
        j0: usize,
        mr: usize,
        nr: usize,
    ) {
        let mut acc = [[0.0f64; NR]; MR];
        for l in 0..kc {
            for r in 0..mr {
                let av = at[l * MR + r];
                for s in 0..nr {
                    acc[r][s] += av * bt[l * NR + s];
                }
            }
        }
        for s in 0..nr {
            for r in 0..mr {
                c[(i0 + r, j0 + s)] += acc[r][s];
            }
        }
    }
}

fn rand_mat(nr: usize, nc: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Matrix::from_fn(nr, nc, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    })
}

/// Minimum wall time of `reps` runs (plus one warm-up).
fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    black_box(&mut f)();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        // lint: allow(wallclock) — the sweep measures real host time
        let t0 = Instant::now();
        black_box(&mut f)();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Repetitions targeting ~0.5 s of measurement per kernel/size.
fn reps_for(flops: f64) -> usize {
    ((5e8 / flops) as usize).clamp(3, 40)
}

fn gflops(n: usize, secs: f64) -> f64 {
    2.0 * (n as f64).powi(3) / secs / 1e9
}

fn quick_smoke() -> i32 {
    let n = 512;
    let a = rand_mat(n, n, 1);
    let b = rand_mat(n, n, 2);
    let mut c = Matrix::zeros(n, n);
    let threads = fci_linalg::par::width();
    let t_seed = time_min(3, || seed::dgemm(&a, &b, &mut c));
    let t_blocked = time_min(3, || {
        dgemm_path(
            GemmPath::Packed,
            1,
            Trans::No,
            Trans::No,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
        )
    });
    let t_threaded = time_min(3, || {
        dgemm_with_threads(threads, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c)
    });
    println!(
        "quick 512³: seed {:.2} GF/s, blocked(T=1) {:.2} GF/s, threaded(T={threads}) {:.2} GF/s",
        gflops(n, t_seed),
        gflops(n, t_blocked),
        gflops(n, t_threaded)
    );
    // Machine-tolerant ratios for the CI regression gate: both sides of
    // each ratio come from the same host in the same run, so a slow
    // runner cancels out and only a code regression moves them.
    let doc = JsonValue::obj(vec![
        ("mode", JsonValue::Str("quick".into())),
        ("n", JsonValue::Num(n as f64)),
        ("threads", JsonValue::Num(threads as f64)),
        ("seed_gflops", JsonValue::Num(gflops(n, t_seed))),
        ("blocked_gflops", JsonValue::Num(gflops(n, t_blocked))),
        ("threaded_gflops", JsonValue::Num(gflops(n, t_threaded))),
        ("blocked_over_seed", JsonValue::Num(t_seed / t_blocked)),
        (
            "threaded_over_blocked",
            JsonValue::Num(t_blocked / t_threaded),
        ),
    ]);
    match fci_bench::write_bench_json("gemm_sweep_quick", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            println!("FAIL: cannot write quick artifact: {e}");
            return 1;
        }
    }
    if t_threaded > 1.25 * t_blocked {
        println!(
            "FAIL: threaded kernel slower than serial blocked \
             ({t_threaded:.4} s vs {t_blocked:.4} s)"
        );
        return 1;
    }
    println!("OK: threaded kernel not slower than serial blocked");
    0
}

fn autotune() {
    println!("small-path vs packed-path crossover (cube sizes):");
    println!(
        "{:>5} {:>12} {:>12} {:>10}",
        "n", "small GF/s", "packed GF/s", "winner"
    );
    let mut crossover = None;
    for n in [8usize, 16, 24, 32, 40, 48, 56, 64, 80, 96] {
        let a = rand_mat(n, n, 1);
        let b = rand_mat(n, n, 2);
        let mut c = Matrix::zeros(n, n);
        let reps = reps_for(2.0 * (n as f64).powi(3)).clamp(50, 2000);
        let t_small = time_min(reps, || {
            dgemm_path(
                GemmPath::Small,
                1,
                Trans::No,
                Trans::No,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
            )
        });
        let t_packed = time_min(reps, || {
            dgemm_path(
                GemmPath::Packed,
                1,
                Trans::No,
                Trans::No,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
            )
        });
        let winner = if t_small <= t_packed {
            "small"
        } else {
            "packed"
        };
        if winner == "packed" && crossover.is_none() {
            crossover = Some(n);
        }
        println!(
            "{n:>5} {:>12.2} {:>12.2} {winner:>10}",
            gflops(n, t_small),
            gflops(n, t_packed)
        );
    }
    match crossover {
        Some(n) => println!("packed path first wins at n = {n} (SMALL_FLOPS ≈ 2·{n}³)"),
        None => println!("small path won every probed size; SMALL_FLOPS is conservative"),
    }
}

fn full_sweep() {
    let threads = fci_linalg::par::width();
    let sizes = [32usize, 64, 96, 128, 192, 256, 384, 512, 768, 1024];
    println!("gemm sweep (threads = {threads}):");
    println!(
        "{:>6} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "n", "naive", "seed", "blocked", "threaded", "prepacked", "f32pack"
    );
    let mut rows = Vec::new();
    let mut seed_512 = 0.0;
    let mut blocked_512 = 0.0;
    let mut threaded_512 = 0.0;
    let mut prepacked_512 = 0.0;
    for &n in &sizes {
        let flops = 2.0 * (n as f64).powi(3);
        let reps = reps_for(flops);
        let a = rand_mat(n, n, n as u64);
        let b = rand_mat(n, n, 2 * n as u64);
        let mut c = Matrix::zeros(n, n);
        let t_naive = if n <= 512 {
            Some(time_min(reps.min(5), || {
                dgemm_naive(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c)
            }))
        } else {
            None // O(n³) scalar loop past 512 adds minutes, not information
        };
        let t_seed = time_min(reps, || seed::dgemm(&a, &b, &mut c));
        let t_blocked = time_min(reps, || {
            dgemm_path(
                GemmPath::Packed,
                1,
                Trans::No,
                Trans::No,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
            )
        });
        let t_threaded = time_min(reps, || {
            dgemm_with_threads(threads, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c)
        });
        // Steady state of a persistent packed operand: A packed once,
        // every timed call reuses the panels (the σ-kernel scenario).
        let pa = PackedA::pack(Trans::No, &a);
        let t_prepacked = time_min(reps, || {
            dgemm_prepacked(threads, 1.0, &pa, Trans::No, &b, 0.0, &mut c)
        });
        let t_f32 = time_min(reps, || {
            dgemm_path(
                GemmPath::PackedF32,
                1,
                Trans::No,
                Trans::No,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
            )
        });
        let g_naive = t_naive.map(|t| gflops(n, t));
        let (g_seed, g_blocked, g_threaded, g_prepacked, g_f32) = (
            gflops(n, t_seed),
            gflops(n, t_blocked),
            gflops(n, t_threaded),
            gflops(n, t_prepacked),
            gflops(n, t_f32),
        );
        if n == 512 {
            seed_512 = t_seed;
            blocked_512 = t_blocked;
            threaded_512 = t_threaded;
            prepacked_512 = t_prepacked;
        }
        println!(
            "{n:>6} {:>11} {g_seed:>11.2} {g_blocked:>11.2} {g_threaded:>11.2} \
             {g_prepacked:>11.2} {g_f32:>11.2}",
            g_naive.map_or("-".to_string(), |g| format!("{g:.2}")),
        );
        rows.push(JsonValue::obj(vec![
            ("n", JsonValue::Num(n as f64)),
            (
                "naive_gflops",
                g_naive.map_or(JsonValue::Null, JsonValue::Num),
            ),
            ("seed_gflops", JsonValue::Num(g_seed)),
            ("blocked_gflops", JsonValue::Num(g_blocked)),
            ("threaded_gflops", JsonValue::Num(g_threaded)),
            ("prepacked_gflops", JsonValue::Num(g_prepacked)),
            ("f32_gflops", JsonValue::Num(g_f32)),
        ]));
    }
    let speedup_blocked = seed_512 / blocked_512;
    let speedup_threaded = seed_512 / threaded_512;
    let prepacked_gain = threaded_512 / prepacked_512;
    println!(
        "512³ speedup over seed kernel: blocked {speedup_blocked:.2}×, \
         threaded {speedup_threaded:.2}× (T = {threads}); \
         persistent pack over threaded: {prepacked_gain:.2}×"
    );
    let doc = JsonValue::obj(vec![
        ("bench", JsonValue::Str("gemm_sweep".to_string())),
        ("threads", JsonValue::Num(threads as f64)),
        ("sizes", JsonValue::Arr(rows)),
        (
            "speedup_512_blocked_vs_seed",
            JsonValue::Num(speedup_blocked),
        ),
        (
            "speedup_512_threaded_vs_seed",
            JsonValue::Num(speedup_threaded),
        ),
        (
            "prepacked_over_threaded_512",
            JsonValue::Num(prepacked_gain),
        ),
    ]);
    match fci_bench::write_bench_json("gemm_sweep", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => println!("WARNING: could not write artifact: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--quick") {
        std::process::exit(quick_smoke());
    }
    if args.iter().any(|a| a == "--autotune") {
        autotune();
        return;
    }
    full_sweep();
}
