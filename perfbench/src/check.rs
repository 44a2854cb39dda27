//! Answer checks that do not rely on the server's own routing: a widest-path
//! table built here from the raw overlay minus the reservations the server
//! reports, and a dynamic program over a chain's service layers.

use std::collections::BTreeMap;

use sflow_core::ServiceRequirement;
use sflow_net::{OverlayGraph, ServiceId, ServiceInstance};

/// Reserved bandwidth per service link, as `LoadMap` reports it.
pub type Reservations = BTreeMap<(ServiceInstance, ServiceInstance), u64>;

/// Max-bottleneck bandwidth between every ordered pair of overlay nodes over
/// residual link capacities (`capacity − reserved`), by Floyd–Warshall over
/// the (max, min) semiring. `u64::MAX` stands for unconstrained.
#[derive(Clone, Debug)]
pub struct WidestTable {
    n: usize,
    width: Vec<u64>,
}

impl WidestTable {
    /// The table over `overlay` with `reserved` taken off each link.
    pub fn residual(overlay: &OverlayGraph, reserved: &Reservations) -> Self {
        let graph = overlay.graph();
        let n = graph.node_count();
        let mut width = vec![0u64; n * n];
        for i in 0..n {
            width[i * n + i] = u64::MAX;
        }
        for edge in graph.edges() {
            let (from, to) = (edge.from, edge.to);
            let capacity = edge.weight.bandwidth.as_kbps();
            let link = (overlay.instance(from), overlay.instance(to));
            let free = if capacity == u64::MAX {
                capacity
            } else {
                capacity.saturating_sub(reserved.get(&link).copied().unwrap_or(0))
            };
            let slot = &mut width[from.index() * n + to.index()];
            *slot = (*slot).max(free);
        }
        for k in 0..n {
            for i in 0..n {
                let via = width[i * n + k];
                if via == 0 {
                    continue;
                }
                for j in 0..n {
                    let through = via.min(width[k * n + j]);
                    if through > width[i * n + j] {
                        width[i * n + j] = through;
                    }
                }
            }
        }
        WidestTable { n, width }
    }

    /// The widest bottleneck from overlay node `from` to `to`.
    pub fn width(&self, from: usize, to: usize) -> u64 {
        self.width[from * self.n + to]
    }
}

/// The optimum bandwidth of a chain `services[0] > services[1] > …` whose
/// first service is pinned to `source`: each stream takes its widest
/// residual path, and the DP keeps, per instance of each layer, the best
/// bottleneck of any way to reach it.
pub fn chain_optimum(
    overlay: &OverlayGraph,
    table: &WidestTable,
    source: ServiceInstance,
    services: &[u32],
) -> u64 {
    let Some(source) = overlay.node_of(source) else {
        return 0;
    };
    let mut layer: Vec<(usize, u64)> = vec![(source.index(), u64::MAX)];
    for &service in &services[1..] {
        layer = overlay
            .instances_of(ServiceId::new(service))
            .iter()
            .map(|to| {
                let best = layer
                    .iter()
                    .map(|&(from, reach)| reach.min(table.width(from, to.index())))
                    .max()
                    .unwrap_or(0);
                (to.index(), best)
            })
            .collect();
    }
    layer.iter().map(|&(_, reach)| reach).max().unwrap_or(0)
}

/// Every source-to-sink chain of a requirement, as service-id lists.
pub fn chains_of(requirement: &ServiceRequirement) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut stack = vec![vec![requirement.source()]];
    while let Some(path) = stack.pop() {
        let last = *path.last().expect("paths are never empty");
        let next = requirement.downstream(last);
        if next.is_empty() {
            out.push(path.iter().map(|s| s.as_u32()).collect());
        }
        for service in next {
            let mut longer = path.clone();
            longer.push(service);
            stack.push(longer);
        }
    }
    out
}

/// Checks one federate answer against the residual world it was solved in.
/// A chain must reach exactly the chain optimum; a DAG may not beat the
/// optimum of any of its chains. Every service must be served by one of its
/// own instances, and the source by the pinned source. Returns a reason on
/// failure.
pub fn check_answer(
    overlay: &OverlayGraph,
    table: &WidestTable,
    source: ServiceInstance,
    requirement: &ServiceRequirement,
    bandwidth_kbps: u64,
    instances: &BTreeMap<ServiceId, ServiceInstance>,
) -> Result<(), String> {
    for service in requirement.services() {
        let Some(instance) = instances.get(&service) else {
            return Err(format!("{service} has no instance"));
        };
        if instance.service != service || overlay.node_of(*instance).is_none() {
            return Err(format!("{service} mapped to foreign instance {instance:?}"));
        }
    }
    if instances.get(&requirement.source()) != Some(&source) {
        return Err("source is not the pinned source instance".into());
    }
    let chains = chains_of(requirement);
    if requirement.is_path() {
        let optimum = chain_optimum(overlay, table, source, &chains[0]);
        if bandwidth_kbps != optimum {
            return Err(format!(
                "chain answered {bandwidth_kbps} kbit/s, optimum is {optimum}"
            ));
        }
    } else {
        for chain in &chains {
            let optimum = chain_optimum(overlay, table, source, chain);
            if bandwidth_kbps > optimum {
                return Err(format!(
                    "DAG answered {bandwidth_kbps} kbit/s, above chain {chain:?}'s {optimum}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sflow_core::fixtures::{diamond_fixture, diamond_requirement};
    use sflow_core::Solver;

    fn source(fixture: &sflow_core::fixtures::Fixture) -> ServiceInstance {
        fixture.overlay.instance(fixture.source)
    }

    /// The diamond world by hand: s0@h0 reaches s1@h1 at 100 kbit/s and
    /// s1@h1 reaches s3@h3 over h1–h2–h3 at min(90, 80) = 80 kbit/s; the
    /// south route is at most 10 kbit/s and s3@h6 is 50 kbit/s from h1.
    #[test]
    fn the_dp_finds_the_hand_optimum_on_the_diamond() {
        let fixture = diamond_fixture();
        let table = WidestTable::residual(&fixture.overlay, &Reservations::new());
        let optimum = chain_optimum(&fixture.overlay, &table, source(&fixture), &[0, 1, 3]);
        assert_eq!(optimum, 80);
        // 0 > 2 > 3: h0–h1–h2 is 90 wide, h2–h3 80.
        let optimum = chain_optimum(&fixture.overlay, &table, source(&fixture), &[0, 2, 3]);
        assert_eq!(optimum, 80);
        // The solver agrees on the chain.
        let requirement: ServiceRequirement = "0>1>3".parse().unwrap();
        let flow = Solver::new(&fixture.context()).solve(&requirement).unwrap();
        let answer = flow.bandwidth().as_kbps();
        assert!(check_answer(
            &fixture.overlay,
            &table,
            source(&fixture),
            &requirement,
            answer,
            flow.instances()
        )
        .is_ok());
    }

    #[test]
    fn reservations_narrow_the_optimum() {
        let fixture = diamond_fixture();
        let overlay = &fixture.overlay;
        let s1h1 = ServiceInstance::new(ServiceId::new(1), sflow_net::HostId::new(1));
        let mut reserved = Reservations::new();
        // Take 60 of the 80 kbit/s off every link into s1@h1's best sink.
        for edge in overlay.graph().edges() {
            let from = overlay.instance(edge.from);
            if from == s1h1 {
                reserved.insert((from, overlay.instance(edge.to)), 60);
            }
        }
        let table = WidestTable::residual(overlay, &reserved);
        let optimum = chain_optimum(overlay, &table, source(&fixture), &[0, 1, 3]);
        assert!(optimum < 80, "reserved capacity must not be counted");
    }

    #[test]
    fn a_dag_may_not_beat_its_chains_and_a_wrong_chain_answer_is_caught() {
        let fixture = diamond_fixture();
        let table = WidestTable::residual(&fixture.overlay, &Reservations::new());
        let requirement = diamond_requirement();
        assert_eq!(chains_of(&requirement).len(), 2);
        let flow = Solver::new(&fixture.context()).solve(&requirement).unwrap();
        let check = |kbps| {
            check_answer(
                &fixture.overlay,
                &table,
                source(&fixture),
                &requirement,
                kbps,
                flow.instances(),
            )
        };
        assert!(check(flow.bandwidth().as_kbps()).is_ok());
        assert!(check(81).is_err(), "above both chains' optimum of 80");
        let chain: ServiceRequirement = "0>1>3".parse().unwrap();
        let chain_flow = Solver::new(&fixture.context()).solve(&chain).unwrap();
        assert!(check_answer(
            &fixture.overlay,
            &table,
            source(&fixture),
            &chain,
            79,
            chain_flow.instances()
        )
        .is_err());
    }
}
