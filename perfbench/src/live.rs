//! The live side: one in-process server started through `serve`, one
//! client connection, and the request helpers every workload is built from.
//! Each helper times the round trip, checks the answer and, in a traced
//! run, logs the request for the replay.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::time::{Duration, Instant};

use sflow_core::fixtures::Fixture;
use sflow_core::ServiceRequirement;
use sflow_net::{OverlayGraph, ServiceId, ServiceInstance};
use sflow_server::{
    serve, Algorithm, LoadMapSummary, Mutation, PipelinedClient, Request, Response, ServerConfig,
    ServerHandle, StatsSnapshot, World,
};

use crate::check::{check_answer, Reservations, WidestTable};
use crate::gen::Lcg;
use crate::trace::Recorder;

/// The server's thread budget: one reactor, one worker, and a routing pool
/// of one, which runs inside the calling worker's patch or rebuild. With
/// the client that makes three threads, all pinned to one CPU
/// ([`crate::pin`]), which hand requests to each other.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        reactor_threads: 1,
        route_workers: 1,
        queue_depth: 64,
        ..ServerConfig::default()
    }
}

/// Which part of a run a request belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Building the world and opening the sessions the run starts from.
    Setup,
    /// The timed workload.
    Measured,
    /// After the measured phase: the write probe of zipf-forest and
    /// cold-residual (with the fixed sessions cold-residual opens for it),
    /// and mutate-repair's instance failures. Only writes are sampled.
    Probe,
    /// Releasing every session that is still open.
    Teardown,
}

/// The three kinds of topology write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationKind {
    /// A link set to a fraction of its capacity.
    Cut,
    /// The same link set back to its capacity.
    Restore,
    /// An instance removed.
    Fail,
}

impl MutationKind {
    /// The sample and span suffix.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::Cut => "cut",
            MutationKind::Restore => "restore",
            MutationKind::Fail => "fail",
        }
    }

    /// The client span's name.
    pub fn span(self) -> &'static str {
        match self {
            MutationKind::Cut => "client.cut",
            MutationKind::Restore => "client.restore",
            MutationKind::Fail => "client.fail",
        }
    }
}

/// One data-plane request with its live answer, as the replay needs it.
#[derive(Clone, Debug)]
pub enum Op {
    /// `Federate` of `specs[spec]`, answered with `session` at `bandwidth_kbps`.
    Federate {
        /// Index into [`Live::specs`].
        spec: u32,
        /// The session the server opened.
        session: u64,
        /// The answer's bottleneck bandwidth.
        bandwidth_kbps: u64,
    },
    /// `Release` of `session`.
    Release {
        /// The session closed.
        session: u64,
    },
    /// `Mutate`, answered with these counts.
    Mutate {
        /// The mutation sent.
        mutation: Mutation,
        /// What it was for.
        kind: MutationKind,
        /// Sessions the server repaired.
        repaired: usize,
        /// Sessions the server dropped.
        dropped: usize,
    },
}

/// A logged request and the client's send and receive times.
#[derive(Clone, Debug)]
pub struct Logged {
    /// The phase it ran in.
    pub phase: Phase,
    /// The request and its answer.
    pub op: Op,
    /// When the client staged the request.
    pub sent: Instant,
    /// When the client read the response.
    pub received: Instant,
}

/// Reserved and raw capacity per booked link, kbit/s.
pub type Ledger = BTreeMap<(ServiceInstance, ServiceInstance), (u64, u64)>;

/// A federate answer as the client keeps it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Bottleneck bandwidth, kbit/s.
    pub bandwidth_kbps: u64,
    /// Instance per service.
    pub instances: BTreeMap<ServiceId, ServiceInstance>,
}

/// Closes a block once it has lasted this long, and takes its rate.
const BLOCK: Duration = Duration::from_millis(200);

/// Operation rates over blocks of about [`BLOCK`], so that a burst of host
/// steal spoils a few blocks rather than the run's figure (the median of
/// the block rates). Blocks alternate between traced and untraced in a
/// traced run; the two medians give the tracing overhead.
#[derive(Debug, Default)]
pub struct Blocks {
    ops: u64,
    time: Duration,
    /// Rates of the closed blocks, ops/s, with whether each was traced.
    pub rates: Vec<(f64, bool)>,
}

impl Blocks {
    /// Whether the current block records client spans (odd blocks do).
    pub fn traced(&self) -> bool {
        self.rates.len() % 2 == 1
    }

    /// Adds `ops` completed in `time`.
    pub fn add(&mut self, ops: u64, time: Duration) {
        self.ops += ops;
        self.time += time;
        if self.time >= BLOCK {
            let traced = self.traced();
            self.rates
                .push((self.ops as f64 / self.time.as_secs_f64(), traced));
            self.ops = 0;
            self.time = Duration::ZERO;
        }
    }

    /// Median rate over the blocks with the given tracing, ops/s.
    pub fn median(&self, traced: Option<bool>) -> f64 {
        let rates: Vec<f64> = self
            .rates
            .iter()
            .filter(|(_, t)| traced.is_none_or(|want| *t == want))
            .map(|(rate, _)| *rate)
            .collect();
        crate::median(&rates)
    }
}

/// One server and the client connected to it.
pub struct Live {
    handle: Option<ServerHandle>,
    /// The connection every request goes over.
    pub client: PipelinedClient,
    /// The world's raw overlay: link QoS as at epoch 0 (every cut is
    /// restored before anything is checked against it), failed instances
    /// removed.
    pub overlay: OverlayGraph,
    /// Services that already lost an instance.
    failed_services: BTreeSet<ServiceId>,
    /// The pinned source instance.
    pub source: ServiceInstance,
    /// Every requirement text sent, indexed by [`Op::Federate::spec`].
    pub specs: Vec<String>,
    /// The request log, kept in traced runs.
    pub log: Option<Vec<Logged>>,
    /// Client spans, kept in traced runs.
    pub rec: Option<Recorder>,
    /// Data-plane requests sent.
    pub attempted: u64,
    /// Data-plane requests not answered with success.
    pub failed: u64,
    /// Checks that did not hold.
    pub problems: Vec<String>,
    /// The topology epoch as the client has seen it move.
    pub epoch: u64,
    /// Sessions open as the client counts them.
    pub sessions: usize,
    /// Sessions the server dropped in repair sweeps.
    pub dropped: usize,
    /// Links booked past capacity by a flow whose own streams share them.
    pub self_overbooked: u64,
    /// Latency samples (ms) of measured and probe requests, by kind, and
    /// the other per-request figures: `flow_kbps`, `repaired`.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Rate blocks of the measured phase.
    pub blocks: Blocks,
    /// `true` while requests are pipelined: the caller then adds rate
    /// blocks by wall time itself.
    pub pipelined: bool,
    /// Time spent checking answers and fetching the ledger for checks,
    /// which set-up time leaves out.
    pub checking: Duration,
}

impl Live {
    /// Starts a server over `fixture` and connects to it.
    pub fn start(fixture: Fixture, traced: bool, origin: Instant) -> io::Result<Live> {
        let overlay = fixture.overlay.clone();
        let source = overlay.instance(fixture.source);
        let handle = serve(World::new(fixture), &server_config())?;
        let client = PipelinedClient::connect(handle.addr())?;
        Ok(Live {
            handle: Some(handle),
            client,
            overlay,
            failed_services: BTreeSet::new(),
            source,
            specs: Vec::new(),
            log: traced.then(Vec::new),
            rec: traced.then(|| Recorder::new(origin)),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            epoch: 0,
            sessions: 0,
            dropped: 0,
            self_overbooked: 0,
            samples: BTreeMap::new(),
            blocks: Blocks::default(),
            pipelined: false,
            checking: Duration::ZERO,
        })
    }

    /// Stops the server and waits for its threads.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }

    /// Notes a check that did not hold (the first few are kept verbatim).
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        } else if self.problems.len() == 20 {
            self.problems.push("(further problems not listed)".into());
        }
    }

    /// Sends one request and waits for its answer.
    pub fn call(&mut self, request: &Request) -> io::Result<(Response, Instant, Instant)> {
        let sent = Instant::now();
        let id = self.client.send(request)?;
        let response = self.client.recv(id)?;
        Ok((response, sent, Instant::now()))
    }

    /// Server counters (answered inline, not timed).
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        match self.call(&Request::Stats)?.0 {
            Response::Stats(stats) => Ok(stats),
            other => Err(io::Error::other(format!("expected Stats, got {other:?}"))),
        }
    }

    /// The load ledger (answered inline, not timed).
    pub fn load_map(&mut self) -> io::Result<LoadMapSummary> {
        match self.call(&Request::LoadMap)?.0 {
            Response::LoadMap(map) => Ok(map),
            other => Err(io::Error::other(format!("expected LoadMap, got {other:?}"))),
        }
    }

    /// The ledger: reserved and raw capacity per booked link.
    pub fn ledger(&mut self) -> io::Result<Ledger> {
        let map = self.load_map()?;
        Ok(map
            .links
            .iter()
            .map(|l| ((l.from, l.to), (l.reserved_kbps, l.capacity_kbps)))
            .collect())
    }

    /// Checks what one admitted federate booked, from the ledger before and
    /// after it. Residual admission promises that every stream of the new
    /// flow fits what the other sessions left free: on every link the flow
    /// books, `reserved before + bandwidth ≤ capacity`. A flow whose own
    /// streams cross one link more than once books that link several times
    /// over; the admission does not see that, so it is counted in
    /// `self_overbooked` rather than failed.
    fn check_booking(&mut self, text: &str, before: &Ledger, after: &Ledger, bandwidth: u64) {
        for (link, &(reserved, capacity)) in after {
            let (was, _) = before.get(link).copied().unwrap_or((0, capacity));
            if reserved < was {
                self.problem(format!("federate {text:?} released on {link:?}"));
            }
            if reserved == was || capacity == u64::MAX {
                continue;
            }
            if was + bandwidth > capacity {
                self.problem(format!(
                    "federate {text:?} booked {bandwidth} kbit/s on {link:?} with only {} free",
                    capacity.saturating_sub(was)
                ));
            } else if reserved > capacity {
                self.self_overbooked += 1;
            }
        }
        if before.keys().any(|link| !after.contains_key(link)) {
            self.problem(format!("federate {text:?} emptied a booked link"));
        }
    }

    /// Accounts one answered request: its latency sample (measured and
    /// probe phases), its rate block (measured phase, one request at a
    /// time), and in a traced run its log entry and client span.
    pub fn record(&mut self, phase: Phase, op: Op, sent: Instant, received: Instant) {
        let rtt = received - sent;
        let (kind, span) = match &op {
            Op::Federate { .. } => ("federate", "client.federate"),
            Op::Release { .. } => ("release", "client.release"),
            Op::Mutate { kind, .. } => (kind.name(), kind.span()),
        };
        // The measured phase samples everything; the probe only its writes.
        let sampled =
            phase == Phase::Measured || (phase == Phase::Probe && matches!(op, Op::Mutate { .. }));
        if sampled {
            let mut push = |name: &'static str, value: f64| {
                self.samples.entry(name).or_default().push(value);
            };
            push(kind, rtt.as_secs_f64() * 1e3);
            match &op {
                Op::Federate { bandwidth_kbps, .. } => push("flow_kbps", *bandwidth_kbps as f64),
                Op::Mutate { repaired, .. } => push("repaired", *repaired as f64),
                Op::Release { .. } => {}
            }
        }
        if phase == Phase::Measured && !self.pipelined {
            self.blocks.add(1, rtt);
        }
        if let Some(log) = &mut self.log {
            let request = log.len() as u32;
            log.push(Logged {
                phase,
                op,
                sent,
                received,
            });
            if let Some(rec) = &mut self.rec {
                if phase != Phase::Measured || self.blocks.traced() {
                    rec.record(span, request, sent, received);
                }
            }
        }
    }

    /// Registers a requirement text and returns its index.
    pub fn spec(&mut self, spec: &str) -> u32 {
        self.specs.push(spec.to_owned());
        (self.specs.len() - 1) as u32
    }

    /// Federates `specs[spec]` one request at a time, cold: the answer is
    /// checked against the widest-path DP over the ledger it was solved
    /// against, and its booking against the ledger after it. Returns the
    /// session and the answer, or `None` if the request failed.
    pub fn federate(&mut self, phase: Phase, spec: u32) -> io::Result<Option<(u64, Answer)>> {
        let text = self.specs[spec as usize].clone();
        let requirement: ServiceRequirement = text.parse().expect("generated spec parses");
        let checking = Instant::now();
        let before = self.ledger()?;
        let reserved: Reservations = before.iter().map(|(&link, &(r, _))| (link, r)).collect();
        let table = WidestTable::residual(&self.overlay, &reserved);
        self.checking += checking.elapsed();
        let request = Request::Federate {
            requirement: text.clone(),
            algorithm: Algorithm::Sflow,
            hop_limit: None,
        };
        self.attempted += 1;
        let (response, sent, received) = self.call(&request)?;
        let Response::Federated(summary) = response else {
            self.failed += 1;
            self.problem(format!("federate {text:?} answered {response:?}"));
            return Ok(None);
        };
        let checking = Instant::now();
        let answer = Answer {
            bandwidth_kbps: summary.bandwidth_kbps,
            instances: summary.instances.clone(),
        };
        if let Err(why) = check_answer(
            &self.overlay,
            &table,
            self.source,
            &requirement,
            answer.bandwidth_kbps,
            &answer.instances,
        ) {
            self.problem(format!("federate {text:?}: {why}"));
        }
        let after = self.ledger()?;
        self.check_booking(&text, &before, &after, answer.bandwidth_kbps);
        self.checking += checking.elapsed();
        if summary.epoch != self.epoch {
            self.problem(format!(
                "federate solved at epoch {} of {}",
                summary.epoch, self.epoch
            ));
        }
        self.sessions += 1;
        let op = Op::Federate {
            spec,
            session: summary.session,
            bandwidth_kbps: answer.bandwidth_kbps,
        };
        self.record(phase, op, sent, received);
        Ok(Some((summary.session, answer)))
    }

    /// Releases one session. A session the server dropped in a repair sweep
    /// is gone already; its "no such session" answer is expected.
    pub fn release(&mut self, phase: Phase, session: u64) -> io::Result<()> {
        self.attempted += 1;
        let (response, sent, received) = self.call(&Request::Release { session })?;
        match response {
            Response::Released { session: closed } if closed == session => {
                self.sessions -= 1;
                self.record(phase, Op::Release { session }, sent, received);
            }
            Response::Error(_) if self.dropped > 0 => {
                // Gone in a sweep already: not a failed request.
                self.dropped -= 1;
            }
            other => {
                self.failed += 1;
                self.problem(format!("release {session} answered {other:?}"));
            }
        }
        Ok(())
    }

    /// Applies one mutation. The epoch must move by exactly one and every
    /// session live before it must be either repaired or dropped.
    pub fn mutate(
        &mut self,
        phase: Phase,
        mutation: Mutation,
        kind: MutationKind,
    ) -> io::Result<()> {
        self.attempted += 1;
        let before = self.sessions;
        let (response, sent, received) = self.call(&Request::Mutate(mutation))?;
        let Response::Mutated {
            epoch,
            repaired,
            dropped,
        } = response
        else {
            self.failed += 1;
            self.problem(format!("{} answered {response:?}", kind.name()));
            return Ok(());
        };
        if epoch != self.epoch + 1 {
            self.problem(format!(
                "{} moved the epoch {} -> {epoch}",
                kind.name(),
                self.epoch
            ));
        }
        if repaired + dropped != before {
            self.problem(format!(
                "{}: repaired {repaired} + dropped {dropped} != {before} live",
                kind.name()
            ));
        }
        self.epoch = epoch;
        self.sessions = before.saturating_sub(dropped);
        self.dropped += dropped;
        let op = Op::Mutate {
            mutation,
            kind,
            repaired,
            dropped,
        };
        self.record(phase, op, sent, received);
        Ok(())
    }

    /// Cuts one reserved link, drawn by `rng` from the ledger, to a quarter
    /// of its capacity, then restores it.
    pub fn cut_and_restore(&mut self, phase: Phase, rng: &mut Lcg) -> io::Result<()> {
        let map = self.load_map()?;
        let candidates: Vec<_> = map
            .links
            .iter()
            .filter(|l| l.capacity_kbps != u64::MAX && l.capacity_kbps >= 4)
            .collect();
        if candidates.is_empty() {
            self.problem("no reserved link to cut".into());
            return Ok(());
        }
        let link = *candidates[rng.below(candidates.len())];
        let latency_us = self.latency_us(link.from, link.to);
        for (kind, bandwidth_kbps) in [
            (MutationKind::Cut, link.capacity_kbps / 4),
            (MutationKind::Restore, link.capacity_kbps),
        ] {
            let mutation = Mutation::SetLinkQos {
                from: link.from,
                to: link.to,
                bandwidth_kbps,
                latency_us,
            };
            self.mutate(phase, mutation, kind)?;
        }
        Ok(())
    }

    fn latency_us(&self, from: ServiceInstance, to: ServiceInstance) -> u64 {
        let graph = self.overlay.graph();
        self.overlay
            .node_of(from)
            .zip(self.overlay.node_of(to))
            .and_then(|(f, t)| graph.find_edge(f, t))
            .map_or(0, |e| graph.edge(e).latency.as_micros())
    }

    /// Fails one instance that carries reservations, of a non-source
    /// service not failed before, drawn by `rng`. The raw overlay the checks
    /// use loses the instance too.
    pub fn fail_instance(&mut self, phase: Phase, rng: &mut Lcg) -> io::Result<()> {
        let map = self.load_map()?;
        let candidates: Vec<ServiceInstance> = map
            .links
            .iter()
            .flat_map(|l| [l.from, l.to])
            .filter(|i| *i != self.source && !self.failed_services.contains(&i.service))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        if candidates.is_empty() {
            self.problem("no reserved instance to fail".into());
            return Ok(());
        }
        let instance = candidates[rng.below(candidates.len())];
        self.failed_services.insert(instance.service);
        self.overlay = self.overlay.without_instances(&[instance]);
        self.mutate(
            phase,
            Mutation::FailInstance { instance },
            MutationKind::Fail,
        )
    }

    /// Takes in the write figures, counts and findings of the write probe's
    /// server.
    pub fn absorb_writes(&mut self, probe: Live) {
        for (kind, values) in probe.samples {
            self.samples.entry(kind).or_default().extend(values);
        }
        self.attempted += probe.attempted;
        self.failed += probe.failed;
        self.self_overbooked += probe.self_overbooked;
        for problem in probe.problems {
            self.problem(format!("write probe: {problem}"));
        }
    }

    /// Releases every listed session, then checks that the server holds no
    /// session and no reservation.
    pub fn teardown(&mut self, sessions: impl IntoIterator<Item = u64>) -> io::Result<()> {
        for session in sessions {
            self.release(Phase::Teardown, session)?;
        }
        let stats = self.stats()?;
        let map = self.load_map()?;
        if stats.sessions != 0 || !map.links.is_empty() {
            self.problem(format!(
                "after releasing everything: {} sessions, {} reserved links",
                stats.sessions,
                map.links.len()
            ));
        }
        Ok(())
    }
}
