//! The `serve-mix` job stream: a pure function of `(seed, index)`.
//!
//! Jobs come in blocks of [`BLOCK`] whose kind counts are fixed by
//! [`MIX`]; the seed only permutes the kinds inside each block and draws
//! the per-job parameters. So every seed offers the same load shape (the
//! declared proportions hold exactly over each block) while the order and
//! the integrals differ from seed to seed.

use fci_serve::{JobSpec, ProblemSpec};

/// The four job families of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Batchable roots 0, 1 and 2 (one each per block) of one fixed
    /// 8-site Hubbard chain: every artifact is a cache hit after the first
    /// job, and queued jobs of this kind may coalesce into one multi-root
    /// solve.
    HubbardRoot,
    /// 8-site Hubbard chain with a fresh on-site repulsion U: the cached
    /// determinant space is reused, integrals and Hamiltonian rebuilt.
    HubbardU,
    /// Random 8-orbital integrals: integral and Hamiltonian misses.
    Random8,
    /// CISD-truncated random 10-orbital job: the space depends on the
    /// Hamiltonian, so every artifact misses.
    Cisd10,
}

/// Jobs per block.
pub const BLOCK: usize = 10;

/// Declared mix: jobs of each kind per block of [`BLOCK`].
pub const MIX: [(Kind, usize); 4] = [
    (Kind::HubbardRoot, 3),
    (Kind::HubbardU, 3),
    (Kind::Random8, 2),
    (Kind::Cisd10, 2),
];

/// Electrons per spin of every job: small sectors (784 determinants at
/// 8 orbitals) keep a job near 10–50 ms, so per-job fixed costs show.
const ELEC: usize = 2;
/// Residual tolerance of every job. At the default 1e-9 Davidson stalls
/// near a 1e-6 residual on these Hubbard chains and never reports
/// convergence; at 1e-6 energies still agree to ~1e-11.
const TOL: f64 = 1e-6;
/// σ-evaluation cap per root. Random 8-orbital problems have a heavy
/// tail: over 3,000 seeds the median job takes 26 σ, the slowest 151, so
/// the cap sits far above anything a run should meet.
const MAX_ITER: usize = 500;

/// splitmix64 step: tiny, seedable, identical on every platform.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Independent stream value `k` for `(seed, i)`.
fn draw(seed: u64, i: u64, k: u64) -> u64 {
    splitmix(splitmix(splitmix(seed) ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d)) ^ k)
}

/// Kinds of block `block`: the declared counts, shuffled by the seed.
fn block_kinds(seed: u64, block: u64) -> Vec<Kind> {
    let mut kinds: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    // Fisher–Yates with the block's own stream.
    for j in (1..kinds.len()).rev() {
        let r = (draw(seed, block, 1000 + j as u64) % (j as u64 + 1)) as usize;
        kinds.swap(j, r);
    }
    kinds
}

/// Kind of job `i`.
pub fn kind_of(seed: u64, i: usize) -> Kind {
    block_kinds(seed, (i / BLOCK) as u64)[i % BLOCK]
}

/// Job `i` of the stream for `seed`.
pub fn job(seed: u64, i: usize) -> JobSpec {
    let kinds = block_kinds(seed, (i / BLOCK) as u64);
    let kind = kinds[i % BLOCK];
    // 52 bits: integral seeds travel as JSON numbers, exact below 2^53.
    let r = draw(seed, i as u64, 1) >> 12;
    let id = format!("s{seed}-j{i}");
    let hubbard = |u: f64| ProblemSpec::Hubbard {
        sites: 8,
        t: 1.0,
        u,
        periodic: false,
    };
    let mut spec = match kind {
        Kind::HubbardRoot => {
            // The k-th such job of its block asks for root k.
            let mut s = JobSpec::new(id, hubbard(4.0), ELEC, ELEC);
            s.root = kinds[..i % BLOCK].iter().filter(|&&k| k == kind).count();
            s
        }
        Kind::HubbardU => {
            // U in [2, 6): 2^20 distinct values, so repeats are rare.
            let u = 2.0 + 4.0 * ((r >> 32) as f64 / (1u64 << 20) as f64);
            JobSpec::new(id, hubbard(u), ELEC, ELEC)
        }
        Kind::Random8 => JobSpec::new(id, ProblemSpec::Random { n_orb: 8, seed: r }, ELEC, ELEC),
        Kind::Cisd10 => {
            let mut s = JobSpec::new(id, ProblemSpec::Random { n_orb: 10, seed: r }, ELEC, ELEC);
            s.excitation_level = Some(2);
            s
        }
    };
    spec.tenant = format!("t{}", i % 2);
    spec.tol = TOL;
    spec.max_iter = MAX_ITER;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(seed: u64, n: usize) -> Vec<String> {
        (0..n).map(|i| job(seed, i).to_json().to_string()).collect()
    }

    #[test]
    fn same_seed_same_jobs() {
        assert_eq!(wire(7, 300), wire(7, 300));
    }

    #[test]
    fn different_seed_different_jobs() {
        let a = wire(7, 300);
        let b = wire(8, 300);
        assert_ne!(a, b);
        // Not just the ids: the problems themselves differ.
        let strip = |v: &[String], s: u64| -> Vec<String> {
            v.iter()
                .map(|l| l.replace(&format!("\"s{s}-"), "\""))
                .collect()
        };
        assert_ne!(strip(&a, 7), strip(&b, 8));
    }

    #[test]
    fn declared_proportions_hold_in_every_block() {
        assert_eq!(MIX.iter().map(|m| m.1).sum::<usize>(), BLOCK);
        for seed in [0, 1, 42, u64::MAX] {
            for block in 0..50 {
                for &(k, n) in &MIX {
                    let got = (block * BLOCK..(block + 1) * BLOCK)
                        .filter(|&i| kind_of(seed, i) == k)
                        .count();
                    assert_eq!(got, n, "seed {seed} block {block} {k:?}");
                }
            }
        }
    }

    #[test]
    fn kinds_map_to_the_intended_cache_behaviour() {
        let jobs: Vec<JobSpec> = (0..200).map(|i| job(3, i)).collect();
        let space_hashes = |k: Kind| -> std::collections::HashSet<u64> {
            jobs.iter()
                .enumerate()
                .filter(|(i, _)| kind_of(3, *i) == k)
                .map(|(_, j)| j.space_hash())
                .collect()
        };
        // One shared space for all Hubbard jobs; a fresh one per CISD job.
        assert_eq!(space_hashes(Kind::HubbardRoot).len(), 1);
        assert_eq!(
            space_hashes(Kind::HubbardU),
            space_hashes(Kind::HubbardRoot)
        );
        assert_eq!(space_hashes(Kind::Cisd10).len(), 40);
        // Roots 0, 1, 2 exactly once per block.
        for b in 0..20 {
            let mut roots: Vec<usize> = (b * BLOCK..(b + 1) * BLOCK)
                .filter(|&i| kind_of(3, i) == Kind::HubbardRoot)
                .map(|i| jobs[i].root)
                .collect();
            roots.sort();
            assert_eq!(roots, vec![0, 1, 2]);
        }
        assert!(jobs.iter().all(|j| j.root < 3));
        let ids: std::collections::HashSet<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids.len(), jobs.len());
    }
}
