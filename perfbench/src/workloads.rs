//! The three closed-loop workloads over the waxman-400 world.
//!
//! Every run repeats its set-up [`SETUPS`] times (world build, server
//! start, pre-warm) and keeps the last server for the measured phase;
//! `setup_s` is the median. Topology writes are spread evenly over the
//! measured phase ([`Writes`]): a write that lands in a few seconds at the
//! end of a run takes that moment's host speed, which moved its median by
//! up to a quarter between runs. zipf-forest and cold-residual send theirs
//! to a second server, the write probe, which holds the 32 menu chains, so
//! that their own server never changes epoch and every workload still
//! reports the write figures; mutate-repair's writes are its workload, its
//! instance failures coming after the timed rounds.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::time::{Duration, Instant};

use sflow_server::{Algorithm, Request, Response, StatsSnapshot};

use crate::calib::Calibrator;
use crate::gen::{self, ColdKeys, Lcg, Zipf};
use crate::live::{Answer, Live, Logged, Op, Phase};
use crate::sys;

/// Set-ups per run; the median is `setup_s`.
pub const SETUPS: usize = 3;
/// zipf-forest: requests kept in flight on the connection.
pub const DEPTH: usize = 8;
/// zipf-forest: later tenants kept open beside the menu's first tenants.
pub const TENANTS: usize = 64;
/// cold-residual: sessions kept open.
pub const COLD_WINDOW: usize = 16;
/// mutate-repair: sessions kept open.
pub const REPAIR_WINDOW: usize = 16;
/// Instance failures per run, one per non-source service but one.
pub const FAILS: usize = 8;
/// Cut/restore pairs of the write probe (zipf-forest, cold-residual).
pub const PROBE_PAIRS: usize = 16;
/// Measured seconds between timings of the host's speed.
const CALIBRATE_EVERY: f64 = 0.5;
/// Timings of the host's speed before the first set-up.
const CALIBRATE_FIRST: usize = 5;
/// The write probe draws its links and instances from this fixed seed: it
/// is an instrument, the same in every run, while the seed draws the
/// workload.
const PROBE_SEED: u64 = 0x0707_c0de;

/// A workload's name on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Warm multi-tenant forests over one pipelined connection.
    ZipfForest,
    /// Cold residual admission, one distinct key at a time.
    ColdResidual,
    /// Link cuts, restores and instance failures beside live sessions.
    MutateRepair,
}

impl Workload {
    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "zipf-forest" => Some(Workload::ZipfForest),
            "cold-residual" => Some(Workload::ColdResidual),
            "mutate-repair" => Some(Workload::MutateRepair),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfForest => "zipf-forest",
            Workload::ColdResidual => "cold-residual",
            Workload::MutateRepair => "mutate-repair",
        }
    }
}

/// What one run measured, before it is turned into metrics.
pub struct Run {
    /// The server and client that ran the measured phase.
    pub live: Live,
    /// Every set-up's duration.
    pub setups: Vec<Duration>,
    /// Every world build's duration.
    pub fixture_builds: Vec<Duration>,
    /// Resident memory right after the kept set-up, MiB.
    pub rss_setup_mib: f64,
    /// Server counters after set-up, after the measured phase and at the end.
    pub stats: [StatsSnapshot; 3],
    /// Data-plane requests completed in the measured phase.
    pub measured_ops: u64,
    /// Warm federates of the measured phase (zipf-forest).
    pub warm: u64,
    /// Cold federates of the measured phase.
    pub cold: u64,
    /// Load-plane publications in the measured phase, by the ledger's
    /// version counter (`None` when a mutation restarted the counter).
    pub version_delta: Option<u64>,
    /// Host steal ticks during the measured phase.
    pub steal_ticks: u64,
    /// The write probe's request log and requirement texts (traced runs).
    pub probe_log: Option<(Vec<Logged>, Vec<String>)>,
    /// The host's speed through the run.
    pub calibrator: Calibrator,
}

/// Runs `workload` for `seconds` on requests drawn from `seed`.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> io::Result<Run> {
    let origin = Instant::now();
    let mut calibrator = Calibrator::new();
    for _ in 0..CALIBRATE_FIRST {
        calibrator.sample();
    }
    let mut setups = Vec::new();
    let mut fixture_builds = Vec::new();
    let mut kept = None;
    let mut menu = Vec::new();
    for i in 0..SETUPS {
        let started = Instant::now();
        let fixture = gen::world();
        fixture_builds.push(started.elapsed());
        // Input generation, not server set-up: left out of the set-up time.
        let generating = Instant::now();
        menu = gen::zipf_menu(&fixture);
        let generated = generating.elapsed();
        let mut live = Live::start(fixture, traced, origin)?;
        let state = match workload {
            Workload::ZipfForest => State::Zipf(zipf_setup(&mut live, &menu)?),
            Workload::ColdResidual => open_window(&mut live, seed, COLD_WINDOW)?,
            Workload::MutateRepair => open_window(&mut live, seed, REPAIR_WINDOW)?,
        };
        setups.push(started.elapsed().saturating_sub(live.checking + generated));
        if i + 1 == SETUPS {
            kept = Some((live, state));
        } else {
            live.shutdown();
        }
    }
    let (mut live, state) = kept.expect("at least one set-up");
    let rss_setup_mib = sys::rss_mib();
    let after_setup = live.stats()?;
    let version_before = live.load_map()?.version;
    let mut writes = match workload {
        Workload::MutateRepair => Writes::failures(seed),
        _ => Writes::probe(seconds, probe_server(&menu, traced, origin)?),
    };
    let steal_before = sys::steal_ticks();
    let mut rng = Lcg::new(seed ^ PROBE_SEED);
    let mut clock = Clock::new(seconds, calibrator);
    let (open, warm, cold) = match state {
        State::Zipf(zipf) => {
            let (open, warm) = zipf_measured(&mut live, zipf, seed, &mut clock, &mut writes)?;
            (open, warm, 0)
        }
        State::Window(mut window) => {
            let cold = match workload {
                Workload::ColdResidual => {
                    cold_measured(&mut live, &mut window, &mut clock, &mut writes)?
                }
                _ => repair_measured(&mut live, &mut window, &mut rng, &mut clock, &mut writes)?,
            };
            (window.open.into_iter().collect(), 0, cold)
        }
    };
    let steal_ticks = sys::steal_ticks() - steal_before;
    let measured_ops = ["federate", "release", "cut", "restore", "fail"]
        .iter()
        .map(|k| live.samples.get(k).map_or(0, Vec::len) as u64)
        .sum::<u64>();
    let version_delta = (live.epoch == 0).then_some(live.load_map()?.version - version_before);
    let after_measured = live.stats()?;
    live.teardown(open)?;
    let mut probe_log = None;
    if let Some((mut probe, holders)) = writes.probe.take() {
        probe.teardown(holders)?;
        probe.shutdown();
        probe_log = probe
            .log
            .take()
            .map(|log| (log, std::mem::take(&mut probe.specs)));
        live.absorb_writes(probe);
    }
    let at_end = live.stats()?;
    live.shutdown();
    let calibrator = clock.calibrator;

    let counted = |stats: &StatsSnapshot| (stats.cache_hits, stats.cache_misses);
    let (hits, misses) = (
        counted(&after_measured).0 - counted(&after_setup).0,
        counted(&after_measured).1 - counted(&after_setup).1,
    );
    if hits != warm {
        live.problem(format!("{warm} warm federates but {hits} cache hits"));
    }
    if misses != cold {
        live.problem(format!("{cold} cold federates but {misses} cache misses"));
    }
    Ok(Run {
        live,
        setups,
        fixture_builds,
        rss_setup_mib,
        stats: [after_setup, after_measured, at_end],
        measured_ops,
        warm,
        cold,
        version_delta,
        steal_ticks,
        probe_log,
        calibrator,
    })
}

/// The write probe: a second server on its own copy of the world, holding
/// one cold session of every menu chain. Returns it with those sessions.
fn probe_server(menu: &[String], traced: bool, origin: Instant) -> io::Result<(Live, Vec<u64>)> {
    let mut probe = Live::start(gen::world(), traced, origin)?;
    probe.rec = None;
    let mut holders = Vec::new();
    for text in menu {
        let spec = probe.spec(text);
        if let Some((session, _)) = probe.federate(Phase::Setup, spec)? {
            holders.push(session);
        }
    }
    Ok((probe, holders))
}

/// The measured phase's clock: it runs while the workload runs and stops
/// while a write goes to the probe server or the host's speed is taken.
struct Clock {
    started: Instant,
    paused: Duration,
    seconds: f64,
    calibrator: Calibrator,
    calibrated_at: f64,
}

impl Clock {
    fn new(seconds: f64, calibrator: Calibrator) -> Self {
        Clock {
            started: Instant::now(),
            paused: Duration::ZERO,
            seconds,
            calibrator,
            calibrated_at: 0.0,
        }
    }

    /// Measured seconds so far.
    fn elapsed(&self) -> f64 {
        (self.started.elapsed() - self.paused).as_secs_f64()
    }

    fn done(&self) -> bool {
        self.elapsed() >= self.seconds
    }

    fn calibration_due(&self) -> bool {
        self.elapsed() - self.calibrated_at >= CALIBRATE_EVERY
    }

    /// Times the reference kernel if it is due; the server must be idle.
    fn calibrate(&mut self) {
        if self.calibration_due() {
            let paused = Instant::now();
            self.calibrator.sample();
            self.calibrated_at = self.elapsed();
            self.paused += paused.elapsed();
        }
    }
}

#[derive(Clone, Copy)]
enum Step {
    CutRestore,
    Fail,
}

/// Topology writes at fixed points of the measured phase, step `i` of `n`
/// once `(i + ½)/n` of it has passed (never, for `seconds` = ∞); steps
/// still due when it ends run then, so every run makes all of them.
struct Writes {
    steps: Vec<Step>,
    done: usize,
    seconds: f64,
    rng: Lcg,
    /// The write probe's server and its sessions; `None` when the writes
    /// go to the workload's own server.
    probe: Option<(Live, Vec<u64>)>,
}

impl Writes {
    /// The write probe: its cut/restore pairs, with an instance failure
    /// after every `PROBE_PAIRS / FAILS` of them.
    fn probe(seconds: f64, probe: (Live, Vec<u64>)) -> Self {
        let mut steps = Vec::new();
        for _ in 0..FAILS {
            steps.extend([Step::CutRestore].repeat(PROBE_PAIRS / FAILS));
            steps.push(Step::Fail);
        }
        Writes {
            steps,
            done: 0,
            seconds,
            rng: Lcg::new(PROBE_SEED),
            probe: Some(probe),
        }
    }

    /// mutate-repair's instance failures, all after its timed rounds: spread
    /// among them, each seed's failures reshaped the world under the later
    /// rounds and moved the federate and release medians by 9–14% between
    /// runs.
    fn failures(seed: u64) -> Self {
        Writes {
            steps: vec![Step::Fail; FAILS],
            done: 0,
            seconds: f64::INFINITY,
            rng: Lcg::new(seed ^ PROBE_SEED),
            probe: None,
        }
    }

    fn due(&self, clock: &Clock, finishing: bool) -> bool {
        let n = self.steps.len();
        self.done < n
            && (finishing || clock.elapsed() >= (self.done as f64 + 0.5) / n as f64 * self.seconds)
    }

    /// Makes every due write. Writes to the probe server stop the clock.
    fn run(&mut self, live: &mut Live, clock: &mut Clock, finishing: bool) -> io::Result<()> {
        while self.due(clock, finishing) {
            let step = self.steps[self.done];
            self.done += 1;
            let paused = Instant::now();
            let (target, phase) = match self.probe.as_mut() {
                Some((probe, _)) => (probe, Phase::Probe),
                None => (&mut *live, Phase::Measured),
            };
            match step {
                Step::CutRestore => target.cut_and_restore(phase, &mut self.rng)?,
                Step::Fail => target.fail_instance(phase, &mut self.rng)?,
            }
            if phase == Phase::Probe {
                clock.paused += paused.elapsed();
            }
        }
        Ok(())
    }
}

enum State {
    Zipf(ZipfState),
    Window(Window),
}

/// The open sessions of cold-residual and mutate-repair, oldest first, and
/// the key stream new sessions come from.
struct Window {
    open: VecDeque<u64>,
    keys: ColdKeys,
}

struct ZipfState {
    /// The first answer per menu entry.
    answers: Vec<Answer>,
    /// The menu's first tenants, kept open to the end.
    holders: Vec<u64>,
}

/// Warms every menu entry once and keeps that first tenant open, so no
/// forest empties during the measured phase.
fn zipf_setup(live: &mut Live, menu: &[String]) -> io::Result<ZipfState> {
    let mut answers = Vec::new();
    let mut holders = Vec::new();
    for spec in menu {
        let spec = live.spec(spec);
        match live.federate(Phase::Setup, spec)? {
            Some((session, answer)) => {
                holders.push(session);
                answers.push(answer);
            }
            None => return Err(io::Error::other("a menu entry failed to federate")),
        }
    }
    Ok(ZipfState { answers, holders })
}

/// Opens `size` sessions of distinct cold keys.
fn open_window(live: &mut Live, seed: u64, size: usize) -> io::Result<State> {
    let mut window = Window {
        open: VecDeque::new(),
        keys: ColdKeys::new(seed),
    };
    while window.open.len() < size {
        open_next(live, &mut window, Phase::Setup)?;
    }
    Ok(State::Window(window))
}

/// zipf-forest's measured phase: Zipf(1.0) federates over the menu,
/// `DEPTH` in flight, each checked against its key's first answer; once
/// more than `TENANTS` later tenants are open, the oldest is released.
/// Returns every session still open and the warm federates served.
fn zipf_measured(
    live: &mut Live,
    zipf_state: ZipfState,
    seed: u64,
    clock: &mut Clock,
    writes: &mut Writes,
) -> io::Result<(Vec<u64>, u64)> {
    enum Pending {
        Federate(usize),
        Release(u64),
    }
    let zipf = Zipf::new(zipf_state.answers.len());
    let mut rng = Lcg::new(seed);
    let mut tenants: VecDeque<u64> = VecDeque::new();
    let mut pending: HashMap<u64, (Pending, Instant)> = HashMap::new();
    let mut warm = 0u64;
    let mut last = Instant::now();
    live.pipelined = true;
    let mut send_next =
        |live: &mut Live, tenants: &mut VecDeque<u64>, pending: &mut HashMap<_, _>| {
            let (request, what) = match tenants.len() > TENANTS {
                true => {
                    let session = tenants.pop_front().expect("more than TENANTS open");
                    (Request::Release { session }, Pending::Release(session))
                }
                false => {
                    let pick = zipf.sample(&mut rng);
                    let request = Request::Federate {
                        requirement: live.specs[pick].clone(),
                        algorithm: Algorithm::Sflow,
                        hop_limit: None,
                    };
                    (request, Pending::Federate(pick))
                }
            };
            live.attempted += 1;
            let id = live.client.send(&request)?;
            pending.insert(id, (what, Instant::now()));
            Ok::<(), io::Error>(())
        };
    loop {
        if pending.is_empty() {
            // The pipeline is drained: time the host, make the due writes,
            // then refill.
            clock.calibrate();
            writes.run(live, clock, clock.done())?;
            if clock.done() {
                break;
            }
            for _ in 0..DEPTH {
                send_next(live, &mut tenants, &mut pending)?;
            }
            last = Instant::now();
        }
        let frame = live.client.recv_any()?;
        let received = Instant::now();
        let Some((what, sent)) = pending.remove(&frame.request_id) else {
            live.problem(format!("answer to unknown request {}", frame.request_id));
            continue;
        };
        let ok = match (what, frame.response) {
            (Pending::Federate(pick), Response::Federated(summary)) => {
                let answer = Answer {
                    bandwidth_kbps: summary.bandwidth_kbps,
                    instances: summary.instances,
                };
                if answer != zipf_state.answers[pick] {
                    live.problem(format!(
                        "warm answer for menu entry {pick} differs from its first"
                    ));
                }
                warm += 1;
                tenants.push_back(summary.session);
                live.record(
                    Phase::Measured,
                    Op::Federate {
                        spec: pick as u32,
                        session: summary.session,
                        bandwidth_kbps: answer.bandwidth_kbps,
                    },
                    sent,
                    received,
                );
                true
            }
            (Pending::Release(session), Response::Released { session: closed })
                if closed == session =>
            {
                live.record(Phase::Measured, Op::Release { session }, sent, received);
                true
            }
            (_, other) => {
                live.problem(format!("pipelined request answered {other:?}"));
                false
            }
        };
        if !ok {
            live.failed += 1;
        }
        live.blocks.add(1, received - last);
        last = received;
        if !clock.done() && !writes.due(clock, false) && !clock.calibration_due() {
            send_next(live, &mut tenants, &mut pending)?;
        }
    }
    live.pipelined = false;
    live.sessions = zipf_state.holders.len() + tenants.len();
    let open = zipf_state.holders.into_iter().chain(tenants).collect();
    Ok((open, warm))
}

/// cold-residual's measured phase: a new distinct key, checked against the
/// DP, then the oldest session released. Returns the cold federates served.
fn cold_measured(
    live: &mut Live,
    window: &mut Window,
    clock: &mut Clock,
    writes: &mut Writes,
) -> io::Result<u64> {
    let mut cold = 0;
    while !clock.done() {
        clock.calibrate();
        writes.run(live, clock, false)?;
        cold += open_next(live, window, Phase::Measured)?;
        close_oldest(live, window)?;
    }
    writes.run(live, clock, true)?;
    Ok(cold)
}

/// mutate-repair's measured phase: rounds of a new distinct-key federate,
/// a cut and a restore of a reserved link, and a release of the oldest
/// session, with the instance failures spread between rounds. Returns the
/// cold federates served.
fn repair_measured(
    live: &mut Live,
    window: &mut Window,
    rng: &mut Lcg,
    clock: &mut Clock,
    writes: &mut Writes,
) -> io::Result<u64> {
    let mut cold = 0;
    while !clock.done() {
        clock.calibrate();
        writes.run(live, clock, false)?;
        cold += open_next(live, window, Phase::Measured)?;
        live.cut_and_restore(Phase::Measured, rng)?;
        close_oldest(live, window)?;
    }
    writes.run(live, clock, true)?;
    Ok(cold)
}

fn open_next(live: &mut Live, window: &mut Window, phase: Phase) -> io::Result<u64> {
    let spec = window.keys.next_spec();
    let spec = live.spec(&spec);
    match live.federate(phase, spec)? {
        Some((session, _)) => {
            window.open.push_back(session);
            Ok(1)
        }
        None => Ok(0),
    }
}

fn close_oldest(live: &mut Live, window: &mut Window) -> io::Result<()> {
    if let Some(session) = window.open.pop_front() {
        live.release(Phase::Measured, session)?;
    }
    Ok(())
}
