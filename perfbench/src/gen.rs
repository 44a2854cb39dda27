//! Inputs: the waxman-400 world and the request streams drawn from a seed.
//!
//! The world is the same for every seed (the `bench_federation` waxman-400
//! world: 400 hosts, 10 services, 8 instances each), so set-up cost does not
//! move with the seed. The seed chooses the requests.

use std::collections::BTreeSet;

use sflow_core::fixtures::{random_fixture, Fixture};
use sflow_core::{CanonicalKey, ServiceRequirement, Solver};
use sflow_net::ServiceId;

/// Hosts in the world.
pub const HOSTS: usize = 400;
/// Services in the world; service 0 is the source service.
pub const SERVICES: u32 = 10;
/// Instances placed per service.
pub const PER_SERVICE: usize = 8;
/// The world's seed, as in `bench_federation`.
pub const WORLD_SEED: u64 = 42;
/// Chains in the zipf-forest menu.
pub const MENU: usize = 32;

/// Knuth's MMIX linear congruential generator, the workspace convention for
/// deterministic randomness without an RNG dependency.
#[derive(Clone, Debug)]
pub struct Lcg(u64);

impl Lcg {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        let mut lcg = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
        lcg.next_u64();
        lcg
    }

    /// The next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    /// A uniformly shuffled copy of `items`.
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut out = items.to_vec();
        for i in (1..out.len()).rev() {
            out.swap(i, self.below(i + 1));
        }
        out
    }
}

/// A Zipf(s = 1.0) sampler over `n` ranks via the inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// The sampler over ranks `0..n`.
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|rank| {
                total += 1.0 / (rank + 1) as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// One rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Lcg) -> usize {
        let u = rng.next_f64() * self.cumulative.last().copied().unwrap_or(1.0);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// The waxman-400 world.
pub fn world() -> Fixture {
    let ids: Vec<ServiceId> = (0..SERVICES).map(ServiceId::new).collect();
    random_fixture(HOSTS, &ids, PER_SERVICE, None, WORLD_SEED)
}

/// `0>a>b>…` over the given non-source services.
fn chain_spec(tail: &[u32]) -> String {
    std::iter::once(0)
        .chain(tail.iter().copied())
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(">")
}

/// The zipf-forest menu: `MENU` distinct feasible 4-service chains over
/// the world, screened with an in-process solve and listed in popularity
/// order (rank 0 first). The menu depends only on the world, so every seed
/// sees the same tenants and the same popularity; the seed draws the
/// request sequence.
pub fn zipf_menu(world: &Fixture) -> Vec<String> {
    let context = world.context();
    let solver = Solver::new(&context);
    let mut rng = Lcg::new(WORLD_SEED ^ 0x5eed_f0e5);
    let mut menu: Vec<String> = Vec::new();
    while menu.len() < MENU {
        let mut tail: Vec<u32> = Vec::new();
        while tail.len() < 3 {
            let candidate = 1 + rng.below(SERVICES as usize - 1) as u32;
            if !tail.contains(&candidate) {
                tail.push(candidate);
            }
        }
        let spec = chain_spec(&tail);
        if menu.contains(&spec) {
            continue;
        }
        let requirement: ServiceRequirement = spec.parse().expect("chain parses");
        if solver.solve(&requirement).is_ok() {
            menu.push(spec);
        }
    }
    menu
}

/// The layer shapes of the 5-service split-and-merge DAGs: four non-source
/// services in layers below the source, the last layer a single sink, each
/// layer joined to the next by every edge between them.
const DAG_LAYERS: [&[usize]; 3] = [&[1, 2, 1], &[2, 1, 1], &[3, 1]];

/// An endless stream of requirements with pairwise distinct canonical keys
/// (so every one misses the solve cache): half 5-service chains, half
/// split-and-merge DAGs. A DAG is either layered ([`DAG_LAYERS`]) or a
/// chain plus a non-empty set of forward skip edges, each of which splits
/// at its tail and merges at its head. There are 3024 chains and about
/// 190 000 DAGs.
#[derive(Debug)]
pub struct ColdKeys {
    rng: Lcg,
    seen: BTreeSet<CanonicalKey>,
}

impl ColdKeys {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        ColdKeys {
            rng: Lcg::new(seed ^ 0x0c01_d4e5),
            seen: BTreeSet::new(),
        }
    }

    /// The source and four distinct non-source services, in random order.
    fn order(&mut self) -> Vec<u32> {
        let pool: Vec<u32> = (1..SERVICES).collect();
        std::iter::once(0)
            .chain(self.rng.shuffled(&pool)[..4].iter().copied())
            .collect()
    }

    fn dag(&mut self) -> String {
        let order = self.order();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        if self.rng.below(2) == 0 {
            let shape = DAG_LAYERS[self.rng.below(DAG_LAYERS.len())];
            let mut layers: Vec<&[u32]> = vec![&order[..1]];
            let mut at = 1;
            for &width in shape {
                layers.push(&order[at..at + width]);
                at += width;
            }
            for pair in layers.windows(2) {
                for &up in pair[0] {
                    edges.extend(pair[1].iter().map(|&down| (up, down)));
                }
            }
        } else {
            edges.extend(order.windows(2).map(|w| (w[0], w[1])));
            let skips: Vec<(u32, u32)> = (0..order.len())
                .flat_map(|i| (i + 2..order.len()).map(move |j| (i, j)))
                .map(|(i, j)| (order[i], order[j]))
                .collect();
            let mask = 1 + self.rng.below((1 << skips.len()) - 1);
            edges.extend(
                (0..skips.len())
                    .filter(|b| mask >> b & 1 == 1)
                    .map(|b| skips[b]),
            );
        }
        edges
            .iter()
            .map(|(a, b)| format!("{a}>{b}"))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The next requirement whose key this stream has not produced before.
    pub fn next_spec(&mut self) -> String {
        loop {
            let spec = if self.rng.below(2) == 0 {
                chain_spec(&self.order()[1..])
            } else {
                self.dag()
            };
            let requirement: ServiceRequirement = spec.parse().expect("generated spec parses");
            if self.seen.insert(requirement.canonical_key()) {
                return spec;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_keys_are_distinct_and_parse() {
        let mut keys = ColdKeys::new(7);
        let mut seen = BTreeSet::new();
        for _ in 0..2000 {
            let spec = keys.next_spec();
            let requirement: ServiceRequirement = spec.parse().unwrap();
            assert_eq!(requirement.len(), 5, "{spec}");
            assert_eq!(requirement.sinks().len(), 1, "{spec}");
            assert!(seen.insert(requirement.canonical_key()));
        }
    }

    /// Every generated shape is one the solver federates on the world.
    #[test]
    fn cold_keys_federate_on_the_world() {
        let world = world();
        let context = world.context();
        let solver = Solver::new(&context);
        let mut keys = ColdKeys::new(11);
        for _ in 0..300 {
            let spec = keys.next_spec();
            let requirement: ServiceRequirement = spec.parse().unwrap();
            assert!(solver.solve(&requirement).is_ok(), "{spec}");
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        let mut a = ColdKeys::new(3);
        let mut b = ColdKeys::new(3);
        for _ in 0..50 {
            assert_eq!(a.next_spec(), b.next_spec());
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(MENU);
        let mut rng = Lcg::new(1);
        let mut counts = [0usize; MENU];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[8] && counts[8] > 0);
    }
}
