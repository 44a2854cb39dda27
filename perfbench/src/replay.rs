//! The traced run's replay: the request sequence of the live run, applied
//! again in-process through each layer's public functions, one span per
//! call.
//!
//! The replay keeps its own session table with the server's admission
//! rules (solve cache, forest attach, holder hand-off, repair sweep and
//! rebase), so it books exactly what the server booked. Every answer is
//! compared with the live one; a difference means the replay no longer
//! mirrors the server and its stage times cannot be trusted.

use std::collections::BTreeMap;
use std::sync::Arc;

use sflow_core::fixtures::Fixture;
use sflow_core::repair::repair;
use sflow_core::{FlowGraph, ServiceRequirement, Solver};
use sflow_server::load::links_of;
use sflow_server::wire::{encode_frame, FrameDecoder};
use sflow_server::world::RebuildStats;
use sflow_server::{
    Algorithm, FlowSummary, LinkId, LoadMap, LoadPlane, Request, RequestFrame, Response,
    ResponseFrame, SolveKey, World, WorldSnapshot,
};

use crate::live::{Logged, MutationKind, Op, Phase};
use crate::trace::Recorder;

struct Session {
    requirement: ServiceRequirement,
    flow: FlowGraph,
    epoch: u64,
    links: Vec<(LinkId, u64)>,
    forest: Option<u64>,
}

struct Forest {
    key: SolveKey,
    epoch: u64,
    flow: FlowGraph,
    members: Vec<u64>,
}

/// One load-plane publication.
#[derive(Clone, Copy, Debug)]
pub struct Publish {
    /// The phase of the request that published.
    pub phase: Phase,
    /// Routing trees the successor plane did not share with its
    /// predecessor.
    pub trees_recomputed: usize,
}

/// The replay's state and what it measured.
pub struct Replay {
    world: World,
    plane: Arc<LoadPlane>,
    sessions: BTreeMap<u64, Session>,
    forests: BTreeMap<u64, Forest>,
    next_forest: u64,
    by_key: BTreeMap<SolveKey, u64>,
    /// The spans, client spans of the live run included.
    pub rec: Recorder,
    /// Answers that differed from the live run's.
    pub mismatches: Vec<String>,
    /// Per logged request: time spent inside layer calls, ns.
    pub stage_ns: Vec<u64>,
    /// Every publication.
    pub publishes: Vec<Publish>,
    /// Every mutation's routing cost.
    pub mutations: Vec<(MutationKind, RebuildStats)>,
    /// Request plus response bytes per logged request.
    pub wire_bytes: u64,
}

fn same_flow(a: &FlowGraph, b: &FlowGraph) -> bool {
    a.selection() == b.selection() && a.quality() == b.quality() && a.edges() == b.edges()
}

impl Replay {
    /// A replay over a fresh copy of the world, continuing `rec`.
    pub fn new(fixture: Fixture, rec: Recorder) -> Self {
        let mut world = World::new(fixture);
        world.set_route_workers(1);
        let plane = Arc::new(LoadPlane::fresh(&world.snapshot()));
        Replay {
            world,
            plane,
            sessions: BTreeMap::new(),
            forests: BTreeMap::new(),
            next_forest: 0,
            by_key: BTreeMap::new(),
            rec,
            mismatches: Vec::new(),
            stage_ns: Vec::new(),
            publishes: Vec::new(),
            mutations: Vec::new(),
            wire_bytes: 0,
        }
    }

    /// Starts over on a fresh copy of the world, keeping the spans and
    /// figures recorded so far (the write probe's server is replayed after
    /// the workload's own).
    pub fn restart(&mut self, fixture: Fixture) {
        let mut world = World::new(fixture);
        world.set_route_workers(1);
        self.plane = Arc::new(LoadPlane::fresh(&world.snapshot()));
        self.world = world;
        self.sessions.clear();
        self.forests.clear();
        self.by_key.clear();
    }

    fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 10 {
            self.mismatches.push(what);
        }
    }

    /// Replays the whole log.
    pub fn run(&mut self, log: &[Logged], specs: &[String]) {
        for (i, entry) in log.iter().enumerate() {
            let request = i as u32;
            let response = match &entry.op {
                Op::Federate {
                    spec,
                    session,
                    bandwidth_kbps,
                } => {
                    let text = &specs[*spec as usize];
                    self.federate(request, entry.phase, text, *session, *bandwidth_kbps)
                }
                Op::Release { session } => self.release(request, entry.phase, *session),
                Op::Mutate {
                    mutation,
                    kind,
                    repaired,
                    dropped,
                } => self.mutate(request, *mutation, *kind, *repaired, *dropped),
            };
            self.wire(request, &entry.op, specs, response);
        }
    }

    /// Encodes and decodes the request and its response as the client and
    /// the server would.
    fn wire(&mut self, request: u32, op: &Op, specs: &[String], response: Response) {
        let body = match op {
            Op::Federate { spec, .. } => Request::Federate {
                requirement: specs[*spec as usize].clone(),
                algorithm: Algorithm::Sflow,
                hop_limit: None,
            },
            Op::Release { session } => Request::Release { session: *session },
            Op::Mutate { mutation, .. } => Request::Mutate(*mutation),
        };
        let request_id = u64::from(request);
        let out = RequestFrame {
            request_id,
            request: body,
        };
        let back = ResponseFrame {
            request_id,
            response,
        };
        let rec = &mut self.rec;
        let sent = rec.span("wire.encode", request, || encode_frame(&out));
        let answered = rec.span("wire.encode", request, || encode_frame(&back));
        let (Ok(sent), Ok(answered)) = (sent, answered) else {
            self.mismatch(format!("request {request} does not encode"));
            return;
        };
        self.wire_bytes += (sent.len() + answered.len()) as u64;
        let decoded: Option<RequestFrame> = rec.span("wire.decode", request, || {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&sent);
            decoder.next_frame().ok().flatten()
        });
        let decoded_back: Option<ResponseFrame> = rec.span("wire.decode", request, || {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&answered);
            decoder.next_frame().ok().flatten()
        });
        if decoded.as_ref() != Some(&out) || decoded_back.as_ref() != Some(&back) {
            self.mismatch(format!("request {request} does not round-trip the wire"));
        }
    }

    fn publish(
        &mut self,
        request: u32,
        phase: Phase,
        opens: &[(LinkId, u64)],
        releases: &[(LinkId, u64)],
    ) {
        let before = Arc::clone(&self.plane);
        let name = if releases.is_empty() {
            "load.publish_open"
        } else {
            "load.publish_release"
        };
        let next = self
            .rec
            .span(name, request, || before.with_changes(opens, releases, 1));
        let (was, now) = (before.context(), next.context());
        let trees_recomputed =
            was.all_pairs().len() - was.all_pairs().shared_trees(now.all_pairs());
        self.publishes.push(Publish {
            phase,
            trees_recomputed,
        });
        self.plane = Arc::new(next);
    }

    fn federate(
        &mut self,
        request: u32,
        phase: Phase,
        text: &str,
        session: u64,
        live_kbps: u64,
    ) -> Response {
        self.rec.open("replay.federate", request);
        let requirement: ServiceRequirement = self
            .rec
            .span("core.parse", request, || text.parse())
            .expect("the live run sent this requirement");
        let snapshot = self.world.snapshot();
        let key = SolveKey {
            requirement: requirement.canonical_key(),
            algorithm: Algorithm::Sflow,
            hop_limit: None,
        };
        let cached = self
            .rec
            .span("snapshot.lookup", request, || snapshot.cached_solve(&key));
        let mut opened = cached.and_then(|flow| {
            let opened = self.open(
                request,
                phase,
                &snapshot,
                &requirement,
                &flow,
                &key,
                session,
                true,
            );
            if opened.is_none() {
                snapshot.evict_solve(&key);
            }
            opened.map(|()| flow)
        });
        if opened.is_none() {
            let plane = Arc::clone(&self.plane);
            let residual = plane.epoch() == snapshot.epoch() && !plane.map().is_empty();
            let ctx = if residual {
                plane.context()
            } else {
                snapshot.context()
            };
            let solved = self.rec.span("core.solve", request, || {
                Solver::new(&ctx).solve(&requirement)
            });
            match solved {
                Ok(flow) => {
                    let flow = snapshot.cache_solve(key.clone(), flow);
                    let _ = self.open(
                        request,
                        phase,
                        &snapshot,
                        &requirement,
                        &flow,
                        &key,
                        session,
                        false,
                    );
                    opened = Some(flow);
                }
                Err(e) => self.mismatch(format!("replayed solve of {text:?} failed: {e}")),
            }
        }
        let closed = self.rec.close();
        self.stage_ns.push(closed.children_ns);
        let Some(flow) = opened else {
            return Response::Error("replay failed".into());
        };
        if flow.bandwidth().as_kbps() != live_kbps {
            self.mismatch(format!(
                "{text:?}: replay {} kbit/s, live {live_kbps}",
                flow.bandwidth().as_kbps()
            ));
        }
        Response::Federated(FlowSummary {
            session,
            epoch: snapshot.epoch(),
            bandwidth_kbps: flow.bandwidth().as_kbps(),
            latency_us: flow.latency().as_micros(),
            instances: flow.instances().clone(),
        })
    }

    /// The server's session open: attach to the key's live forest or found
    /// one, revalidating a cached flow against the plane, and book the
    /// reservation. `None` when revalidation refuses the flow.
    #[allow(clippy::too_many_arguments)]
    fn open(
        &mut self,
        request: u32,
        phase: Phase,
        snapshot: &WorldSnapshot,
        requirement: &ServiceRequirement,
        flow: &Arc<FlowGraph>,
        key: &SolveKey,
        session: u64,
        revalidate: bool,
    ) -> Option<()> {
        let attach = self.by_key.get(key).copied().filter(|fid| {
            self.forests
                .get(fid)
                .is_some_and(|f| f.epoch == snapshot.epoch() && same_flow(&f.flow, flow))
        });
        let links = match attach {
            Some(_) => Vec::new(),
            None => links_of(flow, snapshot.overlay()),
        };
        if revalidate
            && attach.is_none()
            && self.plane.epoch() == snapshot.epoch()
            && !self.plane.fits(&links)
        {
            return None;
        }
        let forest = match attach {
            Some(fid) => {
                if let Some(forest) = self.forests.get_mut(&fid) {
                    forest.members.push(session);
                }
                fid
            }
            None => {
                let fid = self.next_forest;
                self.next_forest += 1;
                self.forests.insert(
                    fid,
                    Forest {
                        key: key.clone(),
                        epoch: snapshot.epoch(),
                        flow: flow.as_ref().clone(),
                        members: vec![session],
                    },
                );
                self.by_key.insert(key.clone(), fid);
                fid
            }
        };
        self.sessions.insert(
            session,
            Session {
                requirement: requirement.clone(),
                flow: flow.as_ref().clone(),
                epoch: snapshot.epoch(),
                links: links.clone(),
                forest: Some(forest),
            },
        );
        if !links.is_empty() && self.plane.epoch() == snapshot.epoch() {
            self.publish(request, phase, &links, &[]);
        }
        Some(())
    }

    /// The server's release: a holder leaving survivors hands its booking
    /// to the next member; the last member out releases it.
    fn release(&mut self, request: u32, phase: Phase, session: u64) -> Response {
        self.rec.open("replay.release", request);
        let Some(mut closed) = self.sessions.remove(&session) else {
            self.rec.close();
            self.stage_ns.push(0);
            self.mismatch(format!("replay has no session {session}"));
            return Response::Error(format!("no such session {session}"));
        };
        if let Some(fid) = closed.forest {
            let mut gone = None;
            if let Some(forest) = self.forests.get_mut(&fid) {
                forest.members.retain(|&m| m != session);
                match forest.members.first().copied() {
                    Some(heir) => {
                        if !closed.links.is_empty() {
                            if let Some(survivor) = self.sessions.get_mut(&heir) {
                                survivor.links = std::mem::take(&mut closed.links);
                            }
                        }
                    }
                    None => gone = Some(fid),
                }
            }
            if let Some(fid) = gone {
                if let Some(forest) = self.forests.remove(&fid) {
                    if self.by_key.get(&forest.key) == Some(&fid) {
                        self.by_key.remove(&forest.key);
                    }
                }
            }
        }
        if !closed.links.is_empty() && self.plane.epoch() == closed.epoch {
            self.publish(request, phase, &[], &closed.links);
        }
        let done = self.rec.close();
        self.stage_ns.push(done.children_ns);
        Response::Released { session }
    }

    /// The server's mutation: apply, repair every session against the new
    /// epoch, carry the forests over and rebase the load plane.
    fn mutate(
        &mut self,
        request: u32,
        mutation: sflow_server::Mutation,
        kind: MutationKind,
        live_repaired: usize,
        live_dropped: usize,
    ) -> Response {
        self.rec.open("replay.mutate", request);
        let from_epoch = self.world.epoch();
        let applied = self
            .rec
            .span("routing.apply", request, || self.world.apply(&mutation));
        let stats = match applied {
            Ok(stats) => stats,
            Err(e) => {
                self.rec.close();
                self.stage_ns.push(0);
                self.mismatch(format!("replayed {} failed: {e}", kind.name()));
                return Response::Error(e.to_string());
            }
        };
        self.mutations.push((kind, stats));
        let snapshot = self.world.snapshot();
        let epoch = snapshot.epoch();
        let ctx = snapshot.context();
        let (mut repaired, mut dropped) = (0, 0);
        let taken = std::mem::take(&mut self.sessions);
        for (id, mut session) in taken {
            if session.epoch != from_epoch {
                dropped += 1;
                continue;
            }
            let outcome = self.rec.span("core.repair", request, || {
                repair(&ctx, &session.requirement, &session.flow)
            });
            match outcome {
                Ok(outcome) => {
                    session.links = links_of(&outcome.flow, snapshot.overlay());
                    session.flow = outcome.flow;
                    session.epoch = epoch;
                    self.sessions.insert(id, session);
                    repaired += 1;
                }
                Err(_) => dropped += 1,
            }
        }
        let sessions = &mut self.sessions;
        let by_key = &mut self.by_key;
        self.forests.retain(|fid, forest| {
            forest
                .members
                .retain(|m| sessions.get(m).is_some_and(|s| s.epoch == epoch));
            let Some(&holder) = forest.members.first() else {
                if by_key.get(&forest.key) == Some(fid) {
                    by_key.remove(&forest.key);
                }
                return false;
            };
            if let Some(held) = sessions.get(&holder) {
                forest.flow = held.flow.clone();
            }
            forest.epoch = epoch;
            for member in forest.members.iter().skip(1) {
                if let Some(tenant) = sessions.get_mut(member) {
                    tenant.links = Vec::new();
                }
            }
            true
        });
        let mut map = LoadMap::from_reservations(
            self.sessions
                .values()
                .flat_map(|session| session.links.iter().copied()),
        );
        map.adopt_estimates(self.plane.map());
        let plane = self.rec.span("load.rebase", request, || {
            LoadPlane::rebased(&snapshot, map, 1)
        });
        self.plane = Arc::new(plane);
        let closed = self.rec.close();
        self.stage_ns.push(closed.children_ns);
        if (repaired, dropped) != (live_repaired, live_dropped) {
            self.mismatch(format!(
                "{}: replay repaired {repaired}/dropped {dropped}, live {live_repaired}/{live_dropped}",
                kind.name()
            ));
        }
        Response::Mutated {
            epoch,
            repaired,
            dropped,
        }
    }
}
