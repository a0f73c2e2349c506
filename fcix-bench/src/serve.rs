//! `serve-mix`: an in-process `fcix-served` stack (WAL-backed
//! [`Server`] with 2 workers, batching and cache on, plus a [`NetServer`]
//! on 127.0.0.1:0) driven as a closed loop by 2 [`NetClient`]s over the
//! seeded job stream of [`crate::mix`].
//!
//! Isolates the per-job fixed costs: submit round trips, WAL appends,
//! queueing, cache lookups, and many small dense solves whose GEMMs sit
//! below the small-matrix crossover.

use crate::clock::{now_s, peak_rss_mib, stopwatch};
use crate::mix;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, min_samples_for, percentile, tail_percentile};
use crate::RunCfg;
use fci_core::{build_space, solve_prepared, solve_roots_prepared, Hamiltonian};
use fci_obs::JsonValue;
use fci_serve::{
    JobResult, JobSpec, JobStatus, NetClient, NetConfig, NetServer, ServeConfig, Server, Wal,
    WalRecord,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Server worker threads.
const WORKERS: usize = 2;
/// Closed-loop client connections of the load generator.
const CLIENTS: usize = 2;
/// Tail percentile reported as `tts_p95_s`.
const TAIL_P: u32 = 95;
/// Set-ups per run (WAL open + bind, under a millisecond each, with
/// file-system jitter); `setup_s` is their median.
const SETUP_REPEATS: usize = 31;
/// Artifact-cache budget. Small enough that the run fills it and evicts,
/// as a long-running server does, so memory reaches its plateau instead
/// of growing with the number of jobs the window happens to complete.
const CACHE_BUDGET: usize = 16 << 20;
/// Energy agreement with the in-process reference, hartree.
const E_TOL: f64 = 1e-9;
/// Longest a client waits for one job, ms.
const WAIT_MS: u64 = 60_000;

/// A running stack: the job server and its TCP front-end.
struct Stack {
    server: Arc<Server>,
    net: NetServer,
    addr: String,
}

/// The program's set-up: open the WAL, recover, bind the listener.
fn start_stack(dir: &Path) -> std::io::Result<Stack> {
    let cfg = ServeConfig {
        workers: WORKERS,
        batching: true,
        cache_budget: CACHE_BUDGET,
        wal_path: Some(dir.join("jobs.wal")),
        checkpoint_dir: dir.join("ckpt"),
        ..ServeConfig::default()
    };
    let (server, _replay) = Server::recover(cfg)?;
    let server = Arc::new(server);
    let net = NetServer::bind(server.clone(), NetConfig::default())?;
    let addr = net.local_addr()?.to_string();
    Ok(Stack { server, net, addr })
}

/// One job as the client saw it.
struct Outcome {
    /// Position in the job stream.
    index: usize,
    spec: JobSpec,
    /// Submit → `wait` returned, host seconds.
    latency_s: f64,
    /// Submit round trip, host seconds.
    submit_s: f64,
    /// The result, or why there is none.
    result: Result<JobResult, String>,
}

/// Parse a `wait` response into the job's result.
fn parse_result(spec: &JobSpec, resp: &JsonValue) -> Result<JobResult, String> {
    if resp.get("ok") != Some(&JsonValue::Bool(true)) {
        return Err(format!("wait refused: {resp}"));
    }
    let r = resp.get("result").ok_or("wait response has no result")?;
    let status = r.get("status").and_then(JsonValue::as_str).unwrap_or("?");
    if status != "done" {
        return Err(format!("status {status}: {r}"));
    }
    let num = |k: &str| r.get_f64(k).ok_or_else(|| format!("result lacks {k}"));
    Ok(JobResult {
        id: spec.id.clone(),
        tenant: spec.tenant.clone(),
        status: JobStatus::Done,
        energy: num("energy")?,
        converged: r.get("converged") == Some(&JsonValue::Bool(true)),
        iterations: num("iterations")? as usize,
        sector_dim: num("sector_dim")? as usize,
        batch_size: num("batch_size")? as usize,
        restarts: num("restarts")? as usize,
        queue_us: num("queue_us")?,
        exec_us: num("exec_us")?,
    })
}

/// One closed-loop client: submit, wait, repeat until the window has
/// elapsed and enough jobs have finished.
fn closed_loop_client(
    addr: &str,
    seed: u64,
    until_s: f64,
    next: &AtomicUsize,
    finished: &AtomicUsize,
    spans: &Spans,
) -> Vec<Outcome> {
    let mut out = Vec::new();
    let mut conn = match NetClient::connect(addr, 2 * WAIT_MS) {
        Ok(c) => Some(c),
        Err(e) => {
            let i = next.fetch_add(1, Ordering::SeqCst);
            out.push(Outcome {
                index: i,
                spec: mix::job(seed, i),
                latency_s: f64::INFINITY,
                submit_s: f64::INFINITY,
                result: Err(format!("connect {addr}: {e}")),
            });
            None
        }
    };
    while let Some(c) = conn.as_mut() {
        if now_s() >= until_s && finished.load(Ordering::SeqCst) >= min_samples_for(TAIL_P) {
            break;
        }
        let index = next.fetch_add(1, Ordering::SeqCst);
        let spec = mix::job(seed, index);
        let id = spec.id.clone();
        let t0 = now_s();
        let (result, submit_s) = spans.span("serve.job", None, Some(&id), |job| {
            let (sub, submit_s) =
                stopwatch(|| spans.span("net.submit", Some(job), Some(&id), |_| c.submit(&spec)));
            let result = match sub {
                Ok(v) if v.get("ok") == Some(&JsonValue::Bool(true)) => spans
                    .span("net.wait", Some(job), Some(&id), |_| c.wait(&id, WAIT_MS))
                    .map_err(|e| format!("wait: {e}"))
                    .and_then(|resp| parse_result(&spec, &resp)),
                Ok(v) => Err(format!("submit refused: {v}")),
                Err(e) => Err(format!("submit: {e}")),
            };
            (result, submit_s)
        });
        let latency_s = now_s() - t0;
        let broken = result.is_err();
        out.push(Outcome {
            index,
            spec,
            // A failed or refused job misses every latency limit.
            latency_s: if broken { f64::INFINITY } else { latency_s },
            submit_s,
            result,
        });
        finished.fetch_add(1, Ordering::SeqCst);
        if broken {
            conn = None;
        }
    }
    out
}

/// Drive one stack for the window; returns the outcomes and the wall
/// time from the first submit to the last result.
fn drive_stack(stack: &Stack, seed: u64, seconds: f64, spans: &Spans) -> (Vec<Outcome>, f64) {
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| stack.server.run(WORKERS));
        s.spawn(|| stack.net.run());
        let t0 = now_s();
        let (next, finished) = (&next, &finished);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    closed_loop_client(&stack.addr, seed, t0 + seconds, next, finished, spans)
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in clients {
            match h.join() {
                Ok(v) => all.extend(v),
                Err(_) => all.push(Outcome {
                    index: usize::MAX,
                    spec: mix::job(seed, 0),
                    latency_s: f64::INFINITY,
                    submit_s: f64::INFINITY,
                    result: Err("client thread panicked".into()),
                }),
            }
        }
        let wall = now_s() - t0;
        // Stop the stack: every accepted job finishes, then both loops exit.
        stack.server.drain();
        stack.net.stop();
        (all, wall)
    })
}

/// Reference energy of one job, computed in process the way the server
/// solves an unbatched job.
fn reference(spec: &JobSpec) -> f64 {
    let ham = Hamiltonian::new(&spec.problem.build());
    let space = build_space(
        &ham,
        spec.n_alpha,
        spec.n_beta,
        spec.target_irrep,
        spec.excitation_level,
    );
    let opts = spec.fci_options();
    if spec.root == 0 {
        solve_prepared(&space, &ham, &opts).energy
    } else {
        solve_roots_prepared(&space, &ham, &opts, spec.root + 1).energies[spec.root]
    }
}

/// Check every outcome against its reference (computed outside every
/// timed window, on two threads, once per distinct problem and root).
fn verify(rep: &mut Report, outcomes: &[Outcome]) {
    let mut keys: Vec<(u64, usize)> = Vec::new();
    let mut specs: Vec<&JobSpec> = Vec::new();
    for o in outcomes {
        let k = (o.spec.batch_hash(), o.spec.root);
        if !keys.contains(&k) {
            keys.push(k);
            specs.push(&o.spec);
        }
    }
    let refs: HashMap<(u64, usize), f64> = std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|h| {
                let (keys, specs) = (&keys, &specs);
                s.spawn(move || {
                    (h..keys.len())
                        .step_by(2)
                        .map(|i| (keys[i], reference(specs[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference solve panicked"))
            .collect()
    });
    for o in outcomes {
        let e_ref = refs[&(o.spec.batch_hash(), o.spec.root)];
        match &o.result {
            Ok(r) => rep.tally(r.converged && (r.energy - e_ref).abs() <= E_TOL, || {
                format!(
                    "serve-mix {}: converged={} E={:.12} vs reference {e_ref:.12}",
                    o.spec.id, r.converged, r.energy
                )
            }),
            Err(e) => rep.tally(false, || format!("serve-mix {}: {e}", o.spec.id)),
        }
    }
}

/// A fresh scratch directory under the run's output directory.
fn scratch_dir(cfg: &RunCfg, k: usize) -> PathBuf {
    cfg.out_dir
        .join(format!("serve-{}-{k}", std::process::id()))
}

/// Run the workload: the timed run or the traced ledger.
pub fn run(cfg: &RunCfg, spans: &Spans) -> Report {
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let mut dirs = Vec::new();
    let mut stack = None;
    for k in 0..SETUP_REPEATS {
        drop(stack.take()); // close the previous stack's WAL and socket first
        let dir = scratch_dir(cfg, k);
        let _ = std::fs::remove_dir_all(&dir);
        let (s, dt) = stopwatch(|| spans.span("setup", None, None, |_| start_stack(&dir)));
        dirs.push(dir);
        setup_s.push(dt);
        match s {
            Ok(s) => stack = Some(s),
            Err(e) => {
                rep.tally(false, || format!("serve-mix set-up failed: {e}"));
                cleanup(&dirs);
                return rep;
            }
        }
    }
    let stack = stack.expect("SETUP_REPEATS > 0");

    if cfg.traced {
        ledger(&mut rep, cfg, spans, stack, &mut dirs);
        cleanup(&dirs);
        return rep;
    }

    let (outcomes, wall) = drive_stack(&stack, cfg.seed, cfg.seconds, spans);
    drop(stack);
    summarize(&outcomes, cfg.seed);
    let lat: Vec<f64> = outcomes.iter().map(|o| o.latency_s).collect();
    debug_assert!(
        lat.len() < min_samples_for(TAIL_P) || tail_percentile(lat.len()) >= Some(TAIL_P)
    );
    verify(&mut rep, &outcomes);
    rep.set("setup_s", median(&setup_s));
    rep.set("tts_s", median(&lat));
    rep.set("tts_p95_s", percentile(&lat, TAIL_P as f64));
    rep.set("ops_per_s", outcomes.len() as f64 / wall);
    rep.set("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN));
    cleanup(&dirs);
    rep
}

/// Per-kind job counts and latencies, on stderr.
fn summarize(outcomes: &[Outcome], seed: u64) {
    for &(kind, _) in &mix::MIX {
        let lat: Vec<f64> = outcomes
            .iter()
            .filter(|o| mix::kind_of(seed, o.index) == kind)
            .map(|o| o.latency_s * 1e3)
            .collect();
        let exec: Vec<f64> = outcomes
            .iter()
            .filter(|o| mix::kind_of(seed, o.index) == kind)
            .filter_map(|o| o.result.as_ref().ok().map(|r| r.exec_us / 1e3))
            .collect();
        let unconv = outcomes
            .iter()
            .filter(|o| mix::kind_of(seed, o.index) == kind)
            .filter(|o| o.result.as_ref().is_ok_and(|r| !r.converged))
            .count();
        eprintln!(
            "serve-mix {kind:?}: {} jobs ({unconv} unconverged), latency p50 {:.2} ms p95 {:.2} ms, exec p50 {:.2} ms",
            lat.len(),
            median(&lat),
            percentile(&lat, TAIL_P as f64),
            median(&exec)
        );
    }
}

fn cleanup(dirs: &[PathBuf]) {
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

fn ms(xs: &[f64], p: f64) -> f64 {
    percentile(xs, p) / 1e3
}

/// The traced run: the loop untraced on one stack and traced on a fresh
/// one, then direct calls into the WAL and the artifact builders.
fn ledger(rep: &mut Report, cfg: &RunCfg, spans: &Spans, plain: Stack, dirs: &mut Vec<PathBuf>) {
    let (plain_out, _) = drive_stack(&plain, cfg.seed, cfg.seconds, &Spans::new(false));
    drop(plain);
    let dir = scratch_dir(cfg, SETUP_REPEATS);
    dirs.push(dir.clone());
    let traced = match start_stack(&dir) {
        Ok(s) => s,
        Err(e) => {
            rep.tally(false, || format!("serve-mix set-up failed: {e}"));
            return;
        }
    };
    let (out, _) = drive_stack(&traced, cfg.seed, cfg.seconds, spans);
    let cache = traced.server.cache().stats();
    drop(traced);

    let lat = |v: &[Outcome]| median(&v.iter().map(|o| o.latency_s).collect::<Vec<_>>());
    rep.set("obs.trace_overhead_frac", lat(&out) / lat(&plain_out) - 1.0);

    let done: Vec<&JobResult> = out.iter().filter_map(|o| o.result.as_ref().ok()).collect();
    let queue_us: Vec<f64> = done.iter().map(|r| r.queue_us).collect();
    let exec_us: Vec<f64> = done.iter().map(|r| r.exec_us).collect();
    let other_ms: Vec<f64> = out
        .iter()
        .filter_map(|o| {
            let r = o.result.as_ref().ok()?;
            Some(o.latency_s * 1e3 - (r.queue_us + r.exec_us) / 1e3)
        })
        .collect();
    let rtt: Vec<f64> = out.iter().map(|o| o.submit_s * 1e3).collect();
    rep.set("net.submit_rtt_ms", median(&rtt));
    rep.set("serve.queue_ms_p50", ms(&queue_us, 50.0));
    rep.set("serve.queue_ms_p95", ms(&queue_us, TAIL_P as f64));
    rep.set("serve.exec_ms_p50", ms(&exec_us, 50.0));
    rep.set("serve.exec_ms_p95", ms(&exec_us, TAIL_P as f64));
    rep.set("serve.unattributed_ms", median(&other_ms));
    let lookups = cache.hits + cache.misses;
    rep.set("cache.hit_ratio", cache.hits as f64 / lookups.max(1) as f64);
    rep.set(
        "serve.batched_frac",
        done.iter().filter(|r| r.batch_size > 1).count() as f64 / done.len().max(1) as f64,
    );

    // WAL appends of this run's own records, on a fresh log.
    let wal_dir = scratch_dir(cfg, SETUP_REPEATS + 1);
    dirs.push(wal_dir.clone());
    match wal_append_us(spans, &wal_dir, &out) {
        Ok(us) => rep.set("wal.append_us", us),
        Err(e) => rep.tally(false, || format!("serve-mix WAL probe: {e}")),
    }

    // Cache-miss builds: Hamiltonian and space of distinct problems.
    let mut ham_s = Vec::new();
    let mut space_s = Vec::new();
    let mut seen = Vec::new();
    for o in out.iter().take(60) {
        let key = o.spec.batch_hash();
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let mo = o.spec.problem.build();
        let (ham, dt) = stopwatch(|| {
            spans.span("core.hamiltonian", None, Some(&o.spec.id), |_| {
                Hamiltonian::new(&mo)
            })
        });
        ham_s.push(dt);
        let (_, dt) = stopwatch(|| {
            spans.span("core.space", None, Some(&o.spec.id), |_| {
                build_space(
                    &ham,
                    o.spec.n_alpha,
                    o.spec.n_beta,
                    o.spec.target_irrep,
                    o.spec.excitation_level,
                )
            })
        });
        space_s.push(dt);
    }
    rep.set("core.hamiltonian_s", median(&ham_s));
    rep.set("core.space_s", median(&space_s));

    verify(rep, &plain_out);
    verify(rep, &out);
    eprintln!(
        "serve-mix: {} jobs traced, cache {}/{} hits, {} batched",
        out.len(),
        cache.hits,
        lookups,
        done.iter().filter(|r| r.batch_size > 1).count()
    );
}

/// Median µs of `Wal::append` over the submit/start/finish records of
/// `out`, appended to a fresh buffered log in `dir`.
fn wal_append_us(spans: &Spans, dir: &Path, out: &[Outcome]) -> std::io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let (mut wal, _) = Wal::open(dir.join("probe.wal"))?;
    let mut times = Vec::new();
    for o in out {
        let Ok(r) = &o.result else { continue };
        let recs = [
            WalRecord::Submitted {
                spec: Box::new(o.spec.clone()),
            },
            WalRecord::Started {
                id: o.spec.id.clone(),
            },
            WalRecord::Finished {
                rhash: r.result_hash(),
                result: Box::new(r.clone()),
            },
        ];
        for rec in &recs {
            let (res, dt) =
                stopwatch(|| spans.span("wal.append", None, Some(&o.spec.id), |_| wal.append(rec)));
            res?;
            times.push(dt * 1e6);
        }
    }
    Ok(median(&times))
}
