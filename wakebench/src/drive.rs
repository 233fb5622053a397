//! The serving drives. `realtime_mix` is an open loop: sessions arrive on
//! a seeded Poisson schedule and push one hop at a time at real-time pace,
//! each client thread sleeping until its next due time. `saturate_long`
//! and `tv_storm` are closed loops: waves of sessions are admitted, pushed
//! as fast as possible in ragged chunks and decided together.
//!
//! Every client thread owns the sessions whose ids fall on its shards
//! (`id % threads`, with the shard count a multiple of the thread count),
//! so threads never contend for a shard lock.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use headtalk::StreamOutcome;
use ht_dsp::rng::{split_stream, Rng, SliceRandom};
use ht_serve::{ServeError, WakeServer};

use crate::setup::{Bench, Capture, Expected};
use crate::stats::{process_cpu_seconds, Fnv};

/// Offered load of `realtime_mix`, as concurrent real-time streams: about
/// half of what `saturate_long` sustains on a 2-core Xeon runner at two
/// pool threads (~115 decisions/s of ~0.68 s captures, ~78 streams).
pub const OFFERED_STREAMS: f64 = 39.0;

/// Ragged chunk sizes of the closed loops, in samples per channel.
const CHUNK_MIN: usize = 120;
const CHUNK_MAX: usize = 960;

/// Nanoseconds since `start`, the logical clock handed to the server.
fn ns_since(start: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One recorded serve call, kept in memory until the run ends.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// The session the call served (batch calls repeat per member).
    pub session: u64,
    /// Which call.
    pub name: &'static str,
    /// Start, in ns since the drive started.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// What one closed-loop wave cost.
#[derive(Debug, Clone, Copy)]
pub struct WaveStat {
    /// Sessions decided.
    pub decided: u64,
    /// Wall seconds, admission to the last verdict.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Seconds of audio decided.
    pub audio_s: f64,
}

/// Everything one drive (or one client thread of it) observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Sessions the drive tried to serve.
    pub attempted: u64,
    /// Rejected, errored and oracle-mismatched sessions.
    pub failed: u64,
    /// Opens refused by admission.
    pub rejected: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// Sessions decided and matching the oracle.
    pub decided: u64,
    /// Per-capture flag: served at least once.
    pub served: Vec<bool>,
    /// Per-session verdict latency in ms.
    pub verdict_ms: Vec<f64>,
    /// When each verdict was due, ns since the drive started.
    pub verdict_at: Vec<u64>,
    /// Per-push lateness in ms (completion minus due time).
    pub late_ms: Vec<f64>,
    /// When each push was due, ns since the drive started.
    pub late_at: Vec<u64>,
    /// Per-open call time in µs.
    pub open_us: Vec<f64>,
    /// Per single-finalize call time in µs.
    pub finalize_us: Vec<f64>,
    /// Total time inside `push`, ns.
    pub push_ns: u64,
    /// Samples per channel pushed.
    pub pushed_samples: u64,
    /// Per `finalize_batch` call: (wall µs, sessions).
    pub batches: Vec<(f64, usize)>,
    /// Time inside any serve call, ns.
    pub serve_ns: u64,
    /// Time the client threads were not sleeping or waiting, ns.
    pub busy_ns: u64,
    /// Summed wall time of the client threads, ns.
    pub client_wall_ns: u64,
    /// Frames analyzed by decided sessions.
    pub frames: u64,
    /// Frames analyzed after the advisory gate fired.
    pub frames_after_exit: u64,
    /// Samples per channel of decided sessions.
    pub decided_samples: u64,
    /// Per closed-loop wave: sessions decided, wall, CPU and audio seconds.
    pub waves: Vec<WaveStat>,
    /// Recorded spans (traced drives only).
    pub spans: Vec<SpanRec>,
    /// Whether to record spans.
    pub traced: bool,
}

impl Tally {
    /// An empty tally for a table of `n_captures`.
    pub fn new(n_captures: usize, traced: bool) -> Tally {
        Tally {
            served: vec![false; n_captures],
            traced,
            ..Tally::default()
        }
    }

    /// Folds another tally (another thread's) into this one.
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.rejected += o.rejected;
        if self.first_failure.is_none() {
            self.first_failure = o.first_failure;
        }
        self.decided += o.decided;
        for (s, t) in self.served.iter_mut().zip(o.served) {
            *s |= t;
        }
        self.verdict_ms.extend(o.verdict_ms);
        self.verdict_at.extend(o.verdict_at);
        self.late_ms.extend(o.late_ms);
        self.late_at.extend(o.late_at);
        self.open_us.extend(o.open_us);
        self.finalize_us.extend(o.finalize_us);
        self.push_ns += o.push_ns;
        self.pushed_samples += o.pushed_samples;
        self.batches.extend(o.batches);
        self.serve_ns += o.serve_ns;
        self.busy_ns += o.busy_ns;
        self.client_wall_ns += o.client_wall_ns;
        self.frames += o.frames;
        self.frames_after_exit += o.frames_after_exit;
        self.decided_samples += o.decided_samples;
        self.waves.extend(o.waves);
        self.spans.extend(o.spans);
    }

    fn span(
        &mut self,
        session: u64,
        name: &'static str,
        origin: Instant,
        t0: Instant,
        t1: Instant,
    ) {
        let dur = t1.saturating_duration_since(t0);
        self.serve_ns += dur.as_nanos() as u64;
        if self.traced {
            self.spans.push(SpanRec {
                session,
                name,
                start_ns: ns_since(origin, t0),
                dur_ns: dur.as_nanos() as u64,
            });
        }
    }

    fn open_failed(&mut self, id: u64, e: ServeError) {
        if matches!(e, ServeError::Rejected(_)) {
            self.rejected += 1;
        }
        self.fail(format!("session {id}: open: {e}"));
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    /// Holds a served result to the oracle for capture `cap`.
    fn check(
        &mut self,
        id: u64,
        cap: usize,
        expected: &Expected,
        result: Result<StreamOutcome, ServeError>,
    ) {
        match result {
            Err(e) => self.fail(format!("session {id}: {e}")),
            Ok(o) => match mismatch(&o, expected) {
                Some(why) => self.fail(format!("session {id} (capture {cap}): {why}")),
                None => {
                    self.decided += 1;
                    self.served[cap] = true;
                    self.frames += o.frames;
                    if let Some(exit) = o.early_exit {
                        self.frames_after_exit += o.frames.saturating_sub(exit.frame + 1);
                    }
                    self.decided_samples += o.samples_per_channel as u64;
                }
            },
        }
    }

    /// Seconds of audio decided.
    pub fn audio_s(&self) -> f64 {
        self.decided_samples as f64 / ht_acoustics::SAMPLE_RATE
    }
}

/// Why a served outcome differs from the oracle, if it does.
pub fn mismatch(o: &StreamOutcome, e: &Expected) -> Option<String> {
    let Some(d) = o.decision else {
        return Some("no decision".into());
    };
    let x = e.decision;
    if d.live != x.live
        || d.facing != x.facing
        || d.live_probability.to_bits() != x.live_probability.to_bits()
        || d.facing_score.to_bits() != x.facing_score.to_bits()
    {
        return Some(format!("decision {d:?} != batch {x:?}"));
    }
    if o.verdict != e.verdict() {
        return Some(format!("verdict {:?} != {:?}", o.verdict, e.verdict()));
    }
    if o.features.len() != e.features.len()
        || o.features
            .iter()
            .zip(&e.features)
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Some("feature bits differ from the solo stream".into());
    }
    if o.early_exit != e.early_exit || o.frames != e.frames {
        return Some(format!(
            "gate {:?}/{} frames != {:?}/{}",
            o.early_exit, o.frames, e.early_exit, e.frames
        ));
    }
    None
}

/// The run checksum: every served capture's outcome, in table order.
pub fn checksum(bench: &Bench, served: &[bool]) -> u64 {
    let mut h = Fnv::default();
    for (i, e) in bench
        .expected
        .iter()
        .enumerate()
        .filter(|(i, _)| served[*i])
    {
        h.u64(i as u64);
        h.u64(e.verdict() as u64);
        let d = e.decision;
        h.u64(u64::from(d.live) | u64::from(d.facing) << 1);
        h.u64(d.live_probability.to_bits());
        h.u64(d.facing_score.to_bits());
        for f in &e.features {
            h.u64(f.to_bits());
        }
        match e.early_exit {
            Some(x) => {
                h.u64(x.frame);
                h.u64(x.reason as u64 + 1);
            }
            None => h.u64(0),
        }
        h.u64(e.frames);
    }
    h.finish()
}

/// Session `i`'s capture: every capture once per epoch, in a seeded order.
pub fn capture_of(seed: u64, n_captures: usize, i: u64) -> usize {
    let epoch = i / n_captures as u64;
    let mut order: Vec<usize> = (0..n_captures).collect();
    order.shuffle(&mut split_stream(seed ^ 0xE90C, epoch));
    order[(i % n_captures as u64) as usize]
}

/// The sessions of closed-loop wave `epoch`: ids from `base + epoch * n`,
/// serving each of the `n` captures exactly once in the epoch's order, so
/// every wave does the same work.
pub fn epoch_wave(seed: u64, n: usize, base: u64, epoch: u64) -> (Vec<u64>, Vec<usize>) {
    let first = epoch * n as u64;
    let ids: Vec<u64> = (first..first + n as u64).map(|i| base + i).collect();
    let caps = (first..first + n as u64)
        .map(|i| capture_of(seed, n, i))
        .collect();
    (ids, caps)
}

/// One due operation of an open loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// When it is due, ns after the loop starts.
    pub due_ns: u64,
    /// Which session.
    pub session: u64,
    /// Step 0 opens the session; step k pushes its k-th hop.
    pub step: u32,
}

/// What an open loop's generator observed about itself.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per push event: completion minus due time, ns.
    pub late_ns: Vec<u64>,
    /// Per push event: its due time, ns after the loop started.
    pub late_at: Vec<u64>,
    /// Time spent sleeping until due times, ns.
    pub slept_ns: u64,
    /// Wall time of the whole loop, ns.
    pub wall_ns: u64,
}

/// Runs `events` (sorted by due time) in order, sleeping — never spinning
/// — until each is due. `serve` gets the event and its due instant and
/// returns when its push completed (`None` for events that push nothing).
/// Lateness is timed from the due time, so a stall delays every later
/// event and shows in all of their lateness.
pub fn run_open_loop<F>(start: Instant, events: &[Event], mut serve: F) -> OpenLoop
where
    F: FnMut(&Event, Instant) -> Option<Instant>,
{
    let mut out = OpenLoop::default();
    for ev in events {
        let due = start + Duration::from_nanos(ev.due_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
            out.slept_ns += ns_since(now, Instant::now());
        }
        if let Some(done) = serve(ev, due) {
            out.late_ns.push(ns_since(due, done));
            out.late_at.push(ev.due_ns);
        }
    }
    out.wall_ns = ns_since(start, Instant::now());
    out
}

/// A seeded Poisson arrival schedule over `[0, seconds)`, conditioned on
/// its expected count: `round(rate * seconds)` arrival times drawn
/// uniformly and sorted, which is a Poisson process given its count. Fixing
/// the count keeps the offered work equal across seeds. Returns arrival ns
/// and capture index per session.
pub fn poisson_schedule(
    seed: u64,
    rate_per_s: f64,
    seconds: f64,
    n_captures: usize,
) -> Vec<(u64, usize)> {
    let mut rng = split_stream(seed ^ 0xA77, 0);
    let n = (rate_per_s * seconds).round() as usize;
    let mut arrivals: Vec<u64> = (0..n)
        .map(|_| (rng.next_f64() * seconds * 1e9) as u64)
        .collect();
    arrivals.sort_unstable();
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, t)| (t, capture_of(seed, n_captures, i as u64)))
        .collect()
}

/// Lead time between spawning the open-loop threads and the first due time.
const OPEN_LOOP_LEAD: Duration = Duration::from_millis(20);

/// The `realtime_mix` drive.
pub fn realtime(
    server: &WakeServer<'_>,
    bench: &Bench,
    seed: u64,
    seconds: f64,
    threads: usize,
    traced: bool,
) -> Tally {
    let mean_s =
        bench.captures.iter().map(Capture::seconds).sum::<f64>() / bench.captures.len() as f64;
    let schedule = poisson_schedule(
        seed,
        OFFERED_STREAMS / mean_s,
        seconds,
        bench.captures.len(),
    );
    let hop = server.config().stream.hop;
    let start = Instant::now() + OPEN_LOOP_LEAD;
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let schedule = &schedule;
                scope.spawn(move || {
                    let mut events = Vec::new();
                    for (id, &(arrival, cap)) in schedule.iter().enumerate() {
                        if id % threads != t {
                            continue;
                        }
                        let len = bench.captures[cap].len();
                        let hops = len.div_ceil(hop);
                        for step in 0..=hops {
                            let end = (step * hop).min(len);
                            events.push(Event {
                                due_ns: arrival
                                    + (end as f64 / ht_acoustics::SAMPLE_RATE * 1e9) as u64,
                                session: id as u64,
                                step: step as u32,
                            });
                        }
                    }
                    events.sort_unstable();
                    let mut tally = Tally::new(bench.captures.len(), traced);
                    let mut dead = std::collections::BTreeSet::new();
                    let lp = run_open_loop(start, &events, |ev, due| {
                        let id = ev.session;
                        if dead.contains(&id) {
                            return None;
                        }
                        let cap = schedule[id as usize].1;
                        let capture = &bench.captures[cap];
                        let t0 = Instant::now();
                        if ev.step == 0 {
                            tally.attempted += 1;
                            let r = server.open(id, ns_since(start, t0));
                            let t1 = Instant::now();
                            tally.span(id, "serve.open", start, t0, t1);
                            tally.open_us.push((t1 - t0).as_secs_f64() * 1e6);
                            if let Err(e) = r {
                                dead.insert(id);
                                tally.open_failed(id, e);
                            }
                            return None;
                        }
                        let a = (ev.step as usize - 1) * hop;
                        let b = (a + hop).min(capture.len());
                        let r = server.push(id, &capture.chunk(a, b), ns_since(start, t0));
                        let t1 = Instant::now();
                        tally.span(id, "serve.push", start, t0, t1);
                        tally.push_ns += ns_since(t0, t1);
                        tally.pushed_samples += (b - a) as u64;
                        if let Err(e) = r {
                            dead.insert(id);
                            tally.fail(format!("session {id}: push: {e}"));
                            return Some(t1);
                        }
                        if b == capture.len() {
                            let r = server.finalize(id, ns_since(start, t1));
                            let t2 = Instant::now();
                            tally.span(id, "serve.finalize", start, t1, t2);
                            tally.finalize_us.push((t2 - t1).as_secs_f64() * 1e6);
                            tally.verdict_ms.push(ms(t2.saturating_duration_since(due)));
                            tally.verdict_at.push(ev.due_ns);
                            tally.check(id, cap, &bench.expected[cap], r);
                        }
                        Some(t1)
                    });
                    tally.late_ms = lp.late_ns.iter().map(|&n| n as f64 * 1e-6).collect();
                    tally.late_at = lp.late_at;
                    tally.client_wall_ns = lp.wall_ns;
                    tally.busy_ns = lp.wall_ns.saturating_sub(lp.slept_ns);
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    });
    let mut total = Tally::new(bench.captures.len(), traced);
    for t in tallies {
        total.merge(t);
    }
    total
}

/// How a closed-loop wave is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decide {
    /// One `finalize_batch` over the wave on the pool.
    Batch,
    /// Each client thread finalizes its session right after its last push.
    Single,
}

/// One closed-loop wave: session `ids[k]` serves capture `caps[k]`.
#[derive(Debug, Clone)]
pub struct Wave {
    /// Session ids.
    pub ids: Vec<u64>,
    /// Capture per session.
    pub caps: Vec<usize>,
    /// How the wave is decided.
    pub decide: Decide,
    /// Whether to record the wave's spans.
    pub traced: bool,
}

/// A wave handed to the client threads, with the sessions admission let in.
struct Job {
    wave: Wave,
    opened: Vec<bool>,
}

/// Runs closed-loop waves until `plan` returns `None`. `plan(i)` is called
/// right before wave `i` runs. Each wave is admitted serially on this
/// thread, pushed by `threads` persistent client threads in seeded ragged
/// chunks as fast as possible, and decided; everything lands in `tally`,
/// one [`WaveStat`] per wave.
pub fn run_waves<F>(
    server: &WakeServer<'_>,
    bench: &Bench,
    seed: u64,
    threads: usize,
    tally: &mut Tally,
    mut plan: F,
) where
    F: FnMut(u64) -> Option<Wave>,
{
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<(Tally, Vec<bool>)>();
        let job_txs: Vec<mpsc::Sender<Arc<Job>>> = (0..threads)
            .map(|t| {
                let (tx, rx) = mpsc::channel::<Arc<Job>>();
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    for job in rx {
                        let out = push_share(server, bench, seed, threads, t, &job, origin);
                        if done_tx.send(out).is_err() {
                            return;
                        }
                    }
                });
                tx
            })
            .collect();
        let mut i = 0;
        while let Some(wave) = plan(i) {
            run_wave(server, bench, wave, origin, &job_txs, &done_rx, tally);
            i += 1;
        }
    });
}

/// One wave: admit, push on the client threads, decide.
fn run_wave(
    server: &WakeServer<'_>,
    bench: &Bench,
    wave: Wave,
    origin: Instant,
    job_txs: &[mpsc::Sender<Arc<Job>>],
    done_rx: &mpsc::Receiver<(Tally, Vec<bool>)>,
    tally: &mut Tally,
) {
    let w0 = Instant::now();
    let cpu0 = process_cpu_seconds();
    let (decided0, audio0) = (tally.decided, tally.audio_s());
    tally.traced = wave.traced;
    let mut opened = vec![false; wave.ids.len()];
    for (k, &id) in wave.ids.iter().enumerate() {
        tally.attempted += 1;
        let t0 = Instant::now();
        let r = server.open(id, ns_since(origin, t0));
        let t1 = Instant::now();
        tally.span(id, "serve.open", origin, t0, t1);
        tally.open_us.push((t1 - t0).as_secs_f64() * 1e6);
        match r {
            Ok(()) => opened[k] = true,
            Err(e) => tally.open_failed(id, e),
        }
    }
    let admitted = ns_since(w0, Instant::now());
    tally.busy_ns += admitted;
    tally.client_wall_ns += admitted;

    let job = Arc::new(Job { wave, opened });
    for tx in job_txs {
        tx.send(Arc::clone(&job))
            .expect("closed-loop client thread exited early");
    }
    let threads = job_txs.len();
    let mut alive = vec![false; job.wave.ids.len()];
    for _ in 0..threads {
        let (t_tally, t_alive) = done_rx.recv().expect("closed-loop client thread panicked");
        for (a, t) in alive.iter_mut().zip(t_alive) {
            *a |= t;
        }
        tally.merge(t_tally);
    }

    let wave = &job.wave;
    if wave.decide == Decide::Batch {
        let ids: Vec<u64> = wave
            .ids
            .iter()
            .zip(&alive)
            .filter(|(_, &a)| a)
            .map(|(&id, _)| id)
            .collect();
        let t0 = Instant::now();
        let results = server.finalize_batch(&ids, ns_since(origin, t0));
        let t1 = Instant::now();
        let dur = t1 - t0;
        tally.serve_ns += ns_since(t0, t1);
        tally.busy_ns += ns_since(t0, t1);
        tally.client_wall_ns += ns_since(t0, t1);
        tally.batches.push((dur.as_secs_f64() * 1e6, ids.len()));
        for (id, r) in results {
            if tally.traced {
                tally.spans.push(SpanRec {
                    session: id,
                    name: "serve.finalize_batch",
                    start_ns: ns_since(origin, t0),
                    dur_ns: ns_since(t0, t1),
                });
            }
            let k = wave
                .ids
                .iter()
                .position(|&x| x == id)
                .expect("batch id from this wave");
            let cap = wave.caps[k];
            tally.verdict_ms.push(ms(dur));
            tally.verdict_at.push(ns_since(origin, t0));
            tally.check(id, cap, &bench.expected[cap], r);
        }
    }
    tally.waves.push(WaveStat {
        decided: tally.decided - decided0,
        wall_s: w0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_seconds() - cpu0,
        audio_s: tally.audio_s() - audio0,
    });
}

/// Client thread `t`'s share of a wave: the sessions with `k % threads ==
/// t`, pushed round-robin one ragged chunk at a time. Returns its tally and
/// which of its sessions still await a batch decision.
fn push_share(
    server: &WakeServer<'_>,
    bench: &Bench,
    seed: u64,
    threads: usize,
    t: usize,
    job: &Job,
    origin: Instant,
) -> (Tally, Vec<bool>) {
    let start = Instant::now();
    let wave = &job.wave;
    let mut tally = Tally::new(bench.captures.len(), wave.traced);
    let mut alive = vec![false; wave.ids.len()];
    let mut pos = vec![0usize; wave.ids.len()];
    let mut rngs: Vec<_> = wave
        .ids
        .iter()
        .map(|&id| split_stream(seed ^ 0xC4C, id))
        .collect();
    let mut active: Vec<usize> = (0..wave.ids.len())
        .filter(|&k| k % threads == t && job.opened[k])
        .collect();
    while !active.is_empty() {
        active.retain(|&k| {
            let id = wave.ids[k];
            let cap = wave.caps[k];
            let capture = &bench.captures[cap];
            let a = pos[k];
            let b = (a + rngs[k].gen_range(CHUNK_MIN..CHUNK_MAX + 1)).min(capture.len());
            let t0 = Instant::now();
            let r = server.push(id, &capture.chunk(a, b), ns_since(origin, t0));
            let t1 = Instant::now();
            tally.span(id, "serve.push", origin, t0, t1);
            tally.push_ns += ns_since(t0, t1);
            tally.pushed_samples += (b - a) as u64;
            // Closed loop: each chunk is due the moment the client issues
            // it, so its lateness is the push's own time.
            tally.late_ms.push(ms(t1 - t0));
            tally.late_at.push(ns_since(origin, t0));
            if let Err(e) = r {
                tally.fail(format!("session {id}: push: {e}"));
                return false;
            }
            pos[k] = b;
            if b < capture.len() {
                return true;
            }
            if wave.decide == Decide::Single {
                let r = server.finalize(id, ns_since(origin, t1));
                let t2 = Instant::now();
                tally.span(id, "serve.finalize", origin, t1, t2);
                tally.finalize_us.push((t2 - t1).as_secs_f64() * 1e6);
                tally.verdict_ms.push(ms(t2 - t1));
                tally.verdict_at.push(ns_since(origin, t1));
                tally.check(id, cap, &bench.expected[cap], r);
            } else {
                alive[k] = true;
            }
            false
        });
    }
    let wall = ns_since(start, Instant::now());
    tally.busy_ns = wall;
    tally.client_wall_ns = wall;
    (tally, alive)
}

/// A closed-loop drive: one wave per epoch of the capture table, until
/// `seconds` have passed. `traced` records spans and decides three waves
/// in four with single `finalize` calls, so both serve paths are timed;
/// otherwise every wave is batched.
pub fn closed(
    server: &WakeServer<'_>,
    bench: &Bench,
    seed: u64,
    seconds: f64,
    threads: usize,
    traced: bool,
) -> Tally {
    let n = bench.captures.len();
    let mut tally = Tally::new(n, traced);
    let start = Instant::now();
    run_waves(server, bench, seed, threads, &mut tally, |epoch| {
        if epoch > 0 && start.elapsed().as_secs_f64() >= seconds {
            return None;
        }
        let (ids, caps) = epoch_wave(seed, n, 0, epoch);
        let decide = if traced && epoch % 4 != 0 {
            Decide::Single
        } else {
            Decide::Batch
        };
        Some(Wave {
            ids,
            caps,
            decide,
            traced,
        })
    });
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(n: u64, every_ns: u64) -> Vec<Event> {
        (0..n)
            .map(|i| Event {
                due_ns: i * every_ns,
                session: 0,
                step: 1,
            })
            .collect()
    }

    #[test]
    fn fast_server_keeps_lateness_flat() {
        let evs = events(40, 2_000_000);
        let lp = run_open_loop(Instant::now() + Duration::from_millis(5), &evs, |_, _| {
            Some(Instant::now())
        });
        assert_eq!(lp.late_ns.len(), 40);
        // Only sleep overshoot: the median stays well under the 2 ms
        // spacing even on a loaded runner, and the loop mostly sleeps.
        let mut late = lp.late_ns.clone();
        late.sort_unstable();
        assert!(late[20] < 1_500_000, "median lateness {} ns", late[20]);
        assert!(
            lp.slept_ns > lp.wall_ns / 2,
            "a keeping-up generator sleeps"
        );
    }

    #[test]
    fn slow_server_shows_growing_lateness() {
        // Events due every 1 ms against a stand-in that takes 3 ms: the
        // backlog grows by ~2 ms per event, and the generator never sleeps
        // once it has fallen behind.
        let evs = events(20, 1_000_000);
        let lp = run_open_loop(Instant::now(), &evs, |_, _| {
            std::thread::sleep(Duration::from_millis(3));
            Some(Instant::now())
        });
        let late = &lp.late_ns;
        assert_eq!(late.len(), 20);
        for w in late.windows(2) {
            assert!(w[1] > w[0], "lateness must grow: {late:?}");
        }
        assert!(late[19] - late[0] >= 19 * 2_000_000, "{late:?}");
        assert!(lp.slept_ns < 1_000_000, "a behind generator must not sleep");
    }

    #[test]
    fn events_without_a_push_record_no_lateness() {
        let evs = events(5, 1_000);
        let lp = run_open_loop(Instant::now(), &evs, |ev, due| {
            assert!(due >= Instant::now() - Duration::from_secs(1));
            (ev.due_ns % 2_000 == 0).then(Instant::now)
        });
        assert_eq!(lp.late_ns.len(), 3);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_hits_its_rate() {
        let a = poisson_schedule(5, 200.0, 10.0, 24);
        assert_eq!(a, poisson_schedule(5, 200.0, 10.0, 24));
        assert_ne!(a, poisson_schedule(6, 200.0, 10.0, 24));
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.iter().all(|&(t, c)| t < 10_000_000_000 && c < 24));
        // Memoryless gaps: about 1/e of them exceed the mean gap of 5 ms.
        let long = a.windows(2).filter(|w| w[1].0 - w[0].0 > 5_000_000).count();
        let share = long as f64 / 1999.0;
        assert!((share - (-1.0f64).exp()).abs() < 0.05, "share {share}");
        // Every second of the window gets its share of arrivals.
        for s in 0..10u64 {
            let k = a.iter().filter(|&&(t, _)| t / 1_000_000_000 == s).count();
            assert!((140..=260).contains(&k), "second {s}: {k} arrivals");
        }
    }

    #[test]
    fn every_epoch_serves_every_capture_once() {
        for epoch in 0..3u64 {
            let mut caps: Vec<usize> = (0..24).map(|i| capture_of(1, 24, epoch * 24 + i)).collect();
            caps.sort_unstable();
            assert_eq!(caps, (0..24).collect::<Vec<_>>());
        }
    }
}
