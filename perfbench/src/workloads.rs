//! The three closed-loop workloads: set-up, timed phase, and the output
//! checks that need the workload's own state.
//!
//! An op is one solve (plan-solve), one SUBMIT sent to DONE received
//! (serve-loopback), or one apply plus one solve (replan-delta). With
//! `--trace 1` every even op is traced: its layer calls are timed one by
//! one, and the untraced odd ops give the tracing overhead.

use std::io::BufReader;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use waso::graph::{io, NodeId, SocialGraph};
use waso::prelude::*;
use waso_serve::{Client, Request, Response, ServeConfig, Server, TenantConfig};

use crate::checks::{check_answer, Answer};
use crate::inputs::{stream, Inputs, Scale};
use crate::measure::{self, ms};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanSolve,
    ServeLoopback,
    ReplanDelta,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PlanSolve,
        Workload::ServeLoopback,
        Workload::ReplanDelta,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanSolve => "plan-solve",
            Workload::ServeLoopback => "serve-loopback",
            Workload::ReplanDelta => "replan-delta",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The spec of an op whose organizer is `v`. plan-solve runs the
    /// paper's parallel CBAS-ND on both cores with stages long enough
    /// that the 2-worker barrier does not dominate; the other two run a
    /// cheap serial plan so the front door or the rebuild dominates.
    pub fn spec(self, v: NodeId) -> String {
        match self {
            Workload::PlanSolve => format!(
                "cbas-nd:budget=4000,stages=10,start-nodes=8,threads=2,require={}",
                v.0
            ),
            Workload::ServeLoopback | Workload::ReplanDelta => {
                format!("cbas-nd:budget=300,stages=5,start-nodes=4,require={}", v.0)
            }
        }
    }

    /// Pool workers one solve of this workload keeps busy.
    pub fn workers(self) -> f64 {
        match self {
            Workload::PlanSolve => 2.0,
            _ => 1.0,
        }
    }
}

/// Everything a run needs that does not change during it.
pub struct Ctx<'a> {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inputs: &'a Inputs,
}

impl Ctx<'_> {
    pub fn session(&self, g: SocialGraph) -> WasoSession {
        WasoSession::new(g).k(self.scale.k).seed(self.seed)
    }

    pub fn read_graph(&self) -> Result<(SocialGraph, f64), String> {
        let t = Instant::now();
        let file = std::fs::File::open(&self.inputs.graph_path)
            .map_err(|e| format!("opening the graph file: {e}"))?;
        let g = io::read_graph(BufReader::new(file))
            .map_err(|e| format!("reading the graph file: {e}"))?;
        Ok((g, ms(t.elapsed())))
    }

    /// Whether the timed phase may stop: `--seconds` have passed and
    /// every counter has reached its minimum, or the hard limit is hit.
    fn stop(&self, start: Instant, counts_reached: bool) -> bool {
        let e = start.elapsed().as_secs_f64();
        (e >= self.seconds && counts_reached) || e >= self.scale.max_timed_s
    }

    /// Whether op `seq` is traced: every even op of a traced run.
    fn traced(&self, seq: usize) -> bool {
        self.trace && seq.is_multiple_of(2)
    }
}

/// A timed span around one call into a layer, kept in memory until the
/// run writes its trace out. `(conn, op)` names the op it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub conn: usize,
    pub op: usize,
    pub name: &'static str,
    /// Microseconds after the phase that recorded it began.
    pub start_us: f64,
    pub dur_us: f64,
    /// Recorded after the timed phase, replaying the op's inputs.
    pub replay: bool,
}

#[derive(Debug)]
pub struct Op {
    pub conn: usize,
    /// Position in the connection's op sequence.
    pub seq: usize,
    pub organizer: NodeId,
    pub spec: String,
    /// `seq` of the op on the same connection whose spec this repeats.
    pub repeat_of: Option<usize>,
    /// Index into `Inputs::deltas` applied by this op.
    pub delta: Option<usize>,
    pub latency_ms: f64,
    /// Completion time, seconds after the timed phase began.
    pub end_s: f64,
    /// Process CPU at completion, ms after the timed phase began.
    pub cpu_ms_end: f64,
    pub answer: Result<Answer, String>,
    pub traced: bool,
    /// Pool chunks each worker processed during this op (traced
    /// plan-solve ops only).
    pub pool_chunks: Option<Vec<u64>>,
    /// The request and response texts of a traced serve op.
    pub messages: Option<(String, String)>,
}

pub struct Run {
    pub setup_s: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub ops: Vec<Op>,
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub spans: Vec<Span>,
    pub threads_peak: f64,
    /// `VmHWM` when the timed phase ended, before the checks allocate.
    pub peak_rss_mib: f64,
    /// Memo hits, misses and invalidations of the serving session.
    pub memo: MemoStats,
    /// Memo hits the op plan implies.
    pub planned_hits: u64,
    /// Violations not tied to one op.
    pub global_failures: Vec<String>,
    /// Per-op violations, as (index into `ops`, message).
    pub op_failures: Vec<(usize, String)>,
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    match ctx.workload {
        Workload::PlanSolve => plan_solve(ctx),
        Workload::ServeLoopback => serve_loopback(ctx),
        Workload::ReplanDelta => replan_delta(ctx),
    }
}

fn solve(session: &WasoSession, spec: &str) -> Result<Answer, String> {
    session
        .solve_str(spec)
        .map(|r| Answer::from_result(&r))
        .map_err(|e| e.to_string())
}

/// One set-up, timed from the graph read to the end of its warm-up op.
/// Returns the state, the set-up seconds and the read milliseconds.
fn set_up<T>(
    ctx: &Ctx,
    build: &mut impl FnMut(SocialGraph) -> Result<T, String>,
) -> Result<(T, f64, f64), String> {
    let t = Instant::now();
    let (g, read_ms) = ctx.read_graph()?;
    let state = build(g)?;
    Ok((state, t.elapsed().as_secs_f64(), read_ms))
}

/// The remaining set-ups, each dropped when done. They run after the
/// timed phase and its `VmHWM` reading: memory a dropped set-up leaves
/// with the allocator would otherwise count toward `peak_rss_mb`,
/// which a process that set up once never holds.
fn more_setups<T>(
    ctx: &Ctx,
    run: &mut Run,
    build: &mut impl FnMut(SocialGraph) -> Result<T, String>,
) -> Result<(), String> {
    for _ in 1..ctx.scale.setup_reps {
        let (state, setup_s, read_ms) = set_up(ctx, build)?;
        drop(state);
        run.setup_s.push(setup_s);
        run.read_ms.push(read_ms);
    }
    Ok(())
}

fn warm_up_failed(what: &str, e: impl std::fmt::Display) -> String {
    format!("warm-up {what} failed: {e}")
}

fn plan_solve(ctx: &Ctx) -> Result<Run, String> {
    let organizers = &ctx.inputs.organizers;
    let warm_spec = ctx.workload.spec(organizers[0]);
    let mut build = |g| {
        let session = ctx.session(g);
        solve(&session, &warm_spec).map_err(|e| warm_up_failed("solve", e))?;
        Ok(session)
    };
    let (session, setup_s, read_ms) = set_up(ctx, &mut build)?;

    let mut ops = Vec::new();
    let mut spans = Vec::new();
    let start = Instant::now();
    let cpu0 = measure::process_cpu_ms();
    let mut seq = 0;
    while !ctx.stop(start, seq >= ctx.scale.min_ops) && seq + 1 < organizers.len() {
        let organizer = organizers[seq + 1];
        let spec = ctx.workload.spec(organizer);
        let traced = ctx.traced(seq);
        let before = traced.then(|| chunk_counts(&session));
        let t = Instant::now();
        let answer = solve(&session, &spec);
        let latency = t.elapsed();
        let pool_chunks = before.map(|b| {
            let after = chunk_counts(&session);
            after
                .iter()
                .enumerate()
                .map(|(i, a)| a - b.get(i).copied().unwrap_or(0))
                .collect()
        });
        if traced {
            spans.push(span(0, seq, "session.solve", start, t, latency));
        }
        ops.push(Op {
            conn: 0,
            seq,
            organizer,
            spec,
            repeat_of: None,
            delta: None,
            latency_ms: ms(latency),
            end_s: start.elapsed().as_secs_f64(),
            cpu_ms_end: measure::process_cpu_ms() - cpu0,
            answer,
            traced,
            pool_chunks,
            messages: None,
        });
        seq += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ms = measure::process_cpu_ms() - cpu0;

    let mut run = Run::new(vec![setup_s], vec![read_ms], ops, wall_s, cpu_ms, spans);
    run.memo = session.memo_stats();
    run.check_ops(ctx, session.graph());
    run.check_memo(0);
    // Determinism spot check: the first ops, re-solved on a fresh
    // session over the same graph, must match bit for bit.
    let fresh = ctx.session(session.graph().clone());
    run.compare_fresh(&fresh, 3);
    drop((fresh, session));
    more_setups(ctx, &mut run, &mut build)?;
    Ok(run)
}

/// Lifetime chunk counts of each pool worker (empty before the session
/// has a pool).
fn chunk_counts(session: &WasoSession) -> Vec<u64> {
    session
        .pool_stats()
        .map(|s| s.workers.iter().map(|w| w.chunks_processed).collect())
        .unwrap_or_default()
}

fn span(
    conn: usize,
    op: usize,
    name: &'static str,
    origin: Instant,
    t: Instant,
    d: Duration,
) -> Span {
    Span {
        conn,
        op,
        name,
        start_us: measure::us(t.duration_since(origin)),
        dur_us: measure::us(d),
        replay: false,
    }
}

pub const TENANT_NAMES: [&str; 2] = ["t0", "t1"];

/// Fields drop in order: the clients close first, so the server's
/// connection threads can exit while it shuts down.
struct Served {
    clients: Vec<Client>,
    server: Server,
}

fn serve_loopback(ctx: &Ctx) -> Result<Run, String> {
    let organizers = &ctx.inputs.organizers;
    let warm_spec = ctx.workload.spec(organizers[0]);
    let mut build = |g| {
        let mut server = Server::start(ctx.session(g), serve_config());
        let addr = server
            .listen("127.0.0.1:0")
            .map_err(|e| format!("listen: {e}"))?;
        let mut clients = TENANT_NAMES
            .iter()
            .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let done = submit_wait(&mut clients[0], TENANT_NAMES[0], &warm_spec, None)
            .map_err(|e| warm_up_failed("SUBMIT+WAIT", e))?;
        Answer::from_done(&done.1).ok_or_else(|| warm_up_failed("SUBMIT+WAIT", &done.1))?;
        Ok(Served { clients, server })
    };
    let (Served { clients, server }, setup_s, read_ms) = set_up(ctx, &mut build)?;

    // Each connection draws its originals from its own half of the
    // organizer list, so no two connections share a memo key.
    let per_conn = ctx.scale.min_ops.div_ceil(TENANT_NAMES.len());
    let counts: Arc<Vec<AtomicUsize>> =
        Arc::new(TENANT_NAMES.iter().map(|_| AtomicUsize::new(0)).collect());
    let start = Instant::now();
    let cpu0 = measure::process_cpu_ms();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| {
                let counts = Arc::clone(&counts);
                scope.spawn(move || {
                    let reached = || counts.iter().all(|c| c.load(Ordering::Relaxed) >= per_conn);
                    serve_connection(
                        ctx,
                        conn,
                        client,
                        (start, cpu0),
                        || ctx.stop(start, reached()),
                        &counts[conn],
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ms = measure::process_cpu_ms() - cpu0;

    let mut ops = Vec::new();
    let mut spans = Vec::new();
    let mut threads_peak: f64 = 0.0;
    for (conn_ops, conn_spans, peak) in results {
        ops.extend(conn_ops);
        spans.extend(conn_spans);
        threads_peak = threads_peak.max(peak);
    }
    let mut run = Run::new(vec![setup_s], vec![read_ms], ops, wall_s, cpu_ms, spans);
    run.threads_peak = threads_peak;
    // The graph the server solved against, read again from its file.
    let (graph, _) = ctx.read_graph()?;
    run.check_ops(ctx, &graph);
    run.check_repeats();
    // Every repeat that came back DONE must have been a memo hit, and
    // nothing else.
    let planned = run
        .ops
        .iter()
        .filter(|op| op.repeat_of.is_some() && op.answer.is_ok())
        .count() as u64;
    match server.handle(Request::Stats) {
        Response::Stats(s) => {
            run.memo = MemoStats {
                hits: s.memo_hits,
                misses: s.memo_misses,
                invalidated: s.memo_invalidated,
            }
        }
        other => run.global_failures.push(format!("STATS answered {other}")),
    }
    run.check_memo(planned);
    // DONE must equal a direct solve of the same spec.
    let fresh = ctx.session(graph);
    run.compare_fresh(&fresh, 3);
    drop((fresh, server));
    more_setups(ctx, &mut run, &mut build)?;
    Ok(run)
}

pub fn serve_config() -> ServeConfig {
    ServeConfig::new(
        TENANT_NAMES
            .iter()
            .map(|t| TenantConfig::new(*t, 4))
            .collect(),
    )
}

/// One SUBMIT then one WAIT; returns the two round-trip times and the
/// final response.
pub fn submit_wait(
    client: &mut Client,
    tenant: &str,
    spec: &str,
    texts: Option<&mut Vec<(String, String)>>,
) -> Result<((Duration, Duration), Response), String> {
    let request = Request::Submit {
        tenant: tenant.to_string(),
        spec: spec.to_string(),
    };
    let t = Instant::now();
    let reply = client.call(&request).map_err(|e| format!("SUBMIT: {e}"))?;
    let submit_rtt = t.elapsed();
    let job = match &reply {
        Response::Job(id) => *id,
        other => return Err(format!("SUBMIT answered {other}")),
    };
    let wait = Request::Wait { job };
    let t = Instant::now();
    let done = client.call(&wait).map_err(|e| format!("WAIT: {e}"))?;
    let wait_rtt = t.elapsed();
    if let Some(texts) = texts {
        texts.push((request.to_string(), reply.to_string()));
        texts.push((wait.to_string(), done.to_string()));
    }
    Ok(((submit_rtt, wait_rtt), done))
}

/// One connection's closed loop. Every 4th op repeats a spec this
/// connection already completed; the rest are distinct originals.
fn serve_connection(
    ctx: &Ctx,
    conn: usize,
    mut client: Client,
    (start, cpu0): (Instant, f64),
    stop: impl Fn() -> bool,
    count: &AtomicUsize,
) -> (Vec<Op>, Vec<Span>, f64) {
    let tenant = TENANT_NAMES[conn];
    let organizers = &ctx.inputs.organizers;
    let mut rng = StdRng::seed_from_u64(stream(ctx.seed, 10 + conn as u64));
    let mut ops: Vec<Op> = Vec::new();
    let mut spans = Vec::new();
    let mut threads_peak = measure::threads();
    let mut originals: Vec<usize> = Vec::new();
    let mut next_original = 0;
    let mut seq = 0;
    while !stop() {
        let (organizer, spec, repeat_of) = if seq % 4 == 3 && !originals.is_empty() {
            let of = originals[rng.random_range(0..originals.len())];
            (ops[of].organizer, ops[of].spec.clone(), Some(of))
        } else {
            let i = 1 + conn + TENANT_NAMES.len() * next_original;
            let Some(&organizer) = organizers.get(i) else {
                break;
            };
            next_original += 1;
            (organizer, ctx.workload.spec(organizer), None)
        };
        let traced = ctx.traced(seq);
        let mut texts = Vec::new();
        let t = Instant::now();
        let reply = submit_wait(&mut client, tenant, &spec, traced.then_some(&mut texts));
        let latency = t.elapsed();
        let (answer, broken) = match &reply {
            Ok((_, done)) => (
                Answer::from_done(done).ok_or_else(|| format!("WAIT answered {done}")),
                false,
            ),
            Err(e) => (Err(e.clone()), true),
        };
        if traced {
            if let Ok(((submit_rtt, wait_rtt), _)) = &reply {
                spans.push(span(conn, seq, "serve.submit_rtt", start, t, *submit_rtt));
                spans.push(span(
                    conn,
                    seq,
                    "serve.wait_rtt",
                    start,
                    t + *submit_rtt,
                    *wait_rtt,
                ));
            }
            threads_peak = threads_peak.max(measure::threads());
        }
        if answer.is_ok() && repeat_of.is_none() {
            originals.push(ops.len());
        }
        ops.push(Op {
            conn,
            seq,
            organizer,
            spec,
            repeat_of,
            delta: None,
            latency_ms: ms(latency),
            end_s: start.elapsed().as_secs_f64(),
            cpu_ms_end: measure::process_cpu_ms() - cpu0,
            answer,
            traced,
            pool_chunks: None,
            // The SUBMIT exchange and the WAIT exchange, as sent and
            // received.
            messages: texts.pop().map(|(wait, done)| {
                let (submit, job) = texts.pop().unwrap_or_default();
                (format!("{submit}\n{wait}"), format!("{job}\n{done}"))
            }),
        });
        seq += 1;
        count.fetch_add(1, Ordering::Relaxed);
        if broken {
            break;
        }
    }
    (ops, spans, threads_peak)
}

fn replan_delta(ctx: &Ctx) -> Result<Run, String> {
    let organizers = &ctx.inputs.organizers;
    let deltas = &ctx.inputs.deltas;
    let warm_spec = ctx.workload.spec(organizers[0]);
    let mut build = |g| {
        let mut session = ctx.session(g);
        session
            .apply(&deltas[0])
            .map_err(|e| warm_up_failed("apply", e))?;
        solve(&session, &warm_spec).map_err(|e| warm_up_failed("solve", e))?;
        Ok(session)
    };
    let (mut session, setup_s, read_ms) = set_up(ctx, &mut build)?;

    let mut ops = Vec::new();
    let mut spans = Vec::new();
    let start = Instant::now();
    let cpu0 = measure::process_cpu_ms();
    let mut seq = 0;
    let limit = organizers.len().min(deltas.len());
    while !ctx.stop(start, seq >= ctx.scale.min_ops) && seq + 1 < limit {
        let organizer = organizers[seq + 1];
        let delta = seq + 1;
        let spec = ctx.workload.spec(organizer);
        let traced = ctx.traced(seq);
        let t = Instant::now();
        let applied = session.apply(&deltas[delta]);
        let mid = Instant::now();
        let answer = match applied {
            Ok(()) => solve(&session, &spec),
            Err(e) => Err(format!("apply: {e}")),
        };
        let latency = t.elapsed();
        if traced {
            spans.push(span(0, seq, "session.apply", start, t, mid - t));
            spans.push(span(0, seq, "session.solve", start, mid, mid.elapsed()));
        }
        ops.push(Op {
            conn: 0,
            seq,
            organizer,
            spec,
            repeat_of: None,
            delta: Some(delta),
            latency_ms: ms(latency),
            end_s: start.elapsed().as_secs_f64(),
            cpu_ms_end: measure::process_cpu_ms() - cpu0,
            answer,
            traced,
            pool_chunks: None,
            messages: None,
        });
        seq += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ms = measure::process_cpu_ms() - cpu0;

    let mut run = Run::new(vec![setup_s], vec![read_ms], ops, wall_s, cpu_ms, spans);
    run.memo = session.memo_stats();
    drop(session);
    run.check_memo(0);
    run.check_replans(ctx)?;
    more_setups(ctx, &mut run, &mut build)?;
    Ok(run)
}

impl Run {
    fn new(
        setup_s: Vec<f64>,
        read_ms: Vec<f64>,
        ops: Vec<Op>,
        wall_s: f64,
        cpu_ms: f64,
        spans: Vec<Span>,
    ) -> Self {
        Self {
            setup_s,
            read_ms,
            ops,
            wall_s,
            cpu_ms,
            spans,
            threads_peak: measure::threads(),
            peak_rss_mib: measure::peak_rss_mib(),
            memo: MemoStats::default(),
            planned_hits: 0,
            global_failures: Vec::new(),
            op_failures: Vec::new(),
        }
    }

    /// Per-answer checks against the graph every op was solved on.
    fn check_ops(&mut self, ctx: &Ctx, g: &SocialGraph) {
        let mut bad = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            match &op.answer {
                Ok(a) => bad.extend(
                    check_answer(g, ctx.scale.k, op.organizer, a)
                        .into_iter()
                        .map(|m| (i, m)),
                ),
                Err(e) => bad.push((i, e.clone())),
            }
        }
        self.op_failures.extend(bad);
    }

    /// Each repeat must equal its original bit for bit.
    fn check_repeats(&mut self) {
        let mut bad = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let Some(of) = op.repeat_of else { continue };
            let original = self
                .ops
                .iter()
                .find(|o| o.conn == op.conn && o.seq == of)
                .and_then(|o| o.answer.as_ref().ok());
            if let (Ok(a), Some(orig)) = (&op.answer, original) {
                if !a.same_solution(orig) {
                    bad.push((i, format!("repeat of op {of} differs from its original")));
                }
            }
        }
        self.op_failures.extend(bad);
    }

    fn check_memo(&mut self, planned_hits: u64) {
        self.planned_hits = planned_hits;
        if self.memo.hits != planned_hits {
            self.global_failures.push(format!(
                "memo hits {} != planned {planned_hits}",
                self.memo.hits
            ));
        }
    }

    /// The first `count` originals, re-solved on `fresh`, must match.
    fn compare_fresh(&mut self, fresh: &WasoSession, count: usize) {
        let mut bad = Vec::new();
        let originals = self
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.repeat_of.is_none());
        for (i, op) in originals.take(count) {
            let Ok(a) = &op.answer else { continue };
            match solve(fresh, &op.spec) {
                Ok(b) if b.same_solution(a) => {}
                Ok(_) => bad.push((i, "answer differs from a fresh session's".to_string())),
                Err(e) => bad.push((i, format!("fresh solve failed: {e}"))),
            }
        }
        self.op_failures.extend(bad);
    }

    /// Replays the delta chain after the timed phase: each answer is
    /// checked on its own post-delta graph and must equal a fresh
    /// session's solve of that graph. One thread walks the chain while a
    /// second checks, so the rebuilds and the fresh solves overlap. The
    /// `GraphDelta::apply` calls are timed for `graph.delta_apply_ms`.
    fn check_replans(&mut self, ctx: &Ctx) -> Result<(), String> {
        let deltas = &ctx.inputs.deltas;
        let (g0, _) = ctx.read_graph()?;
        let first = deltas[0]
            .apply(&g0)
            .map_err(|e| format!("replaying the warm-up delta: {e}"))?;
        drop(g0);
        let ops = &self.ops;
        let origin = Instant::now();
        let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, Arc<SocialGraph>)>(2);
        let (apply_spans, bad) = std::thread::scope(|scope| {
            let checker = scope.spawn(move || {
                let mut bad = Vec::new();
                for (i, g) in rx {
                    let op: &Op = &ops[i];
                    let a = match &op.answer {
                        Ok(a) => a,
                        Err(e) => {
                            bad.push((i, e.clone()));
                            continue;
                        }
                    };
                    bad.extend(
                        check_answer(&g, ctx.scale.k, op.organizer, a)
                            .into_iter()
                            .map(|m| (i, m)),
                    );
                    match solve(&ctx.session(SocialGraph::clone(&g)), &op.spec) {
                        Ok(b) if b.same_solution(a) => {}
                        Ok(_) => bad.push((
                            i,
                            "answer differs from a fresh session on the post-delta graph".into(),
                        )),
                        Err(e) => bad.push((i, format!("fresh solve failed: {e}"))),
                    }
                }
                bad
            });
            let mut spans = Vec::new();
            let mut bad = Vec::new();
            let mut g = Arc::new(first);
            for (i, op) in ops.iter().enumerate() {
                let Some(d) = op.delta else { continue };
                let t = Instant::now();
                match deltas[d].apply(&g) {
                    Ok(next) => g = Arc::new(next),
                    Err(e) => {
                        bad.push((i, format!("delta {d} invalid on replay: {e}")));
                        break;
                    }
                }
                let mut replayed = span(0, op.seq, "graph.delta_apply", origin, t, t.elapsed());
                replayed.replay = true;
                spans.push(replayed);
                if tx.send((i, Arc::clone(&g))).is_err() {
                    break;
                }
            }
            drop(tx);
            match checker.join() {
                Ok(checked) => bad.extend(checked),
                Err(_) => bad.push((0, "the replay checker panicked".into())),
            }
            (spans, bad)
        });
        self.op_failures.extend(bad);
        if ctx.trace {
            self.spans.extend(apply_spans);
        }
        Ok(())
    }

    pub fn successes(&self) -> Vec<&Op> {
        self.ops.iter().filter(|op| op.answer.is_ok()).collect()
    }

    /// The ops every run of one seed shares, whatever its timing: the
    /// first `min_ops` in the order they were sent (split evenly across connections).
    pub fn prefix(&self, scale: &Scale) -> Vec<&Op> {
        let conns = self.ops.iter().map(|op| op.conn).max().map_or(1, |c| c + 1);
        let per_conn = scale.min_ops.div_ceil(conns);
        self.ops.iter().filter(|op| op.seq < per_conn).collect()
    }

    /// Ops with at least one violation, plus global violations.
    pub fn failed(&self) -> usize {
        let mut ops: Vec<usize> = self.op_failures.iter().map(|(i, _)| *i).collect();
        ops.sort_unstable();
        ops.dedup();
        ops.len() + self.global_failures.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, TINY};

    fn tiny_run(workload: Workload, dir: &str) -> (Inputs, Run) {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(dir);
        let inputs = generate(11, &TINY, &out).expect("inputs");
        let ctx = Ctx {
            workload,
            scale: TINY,
            seed: 11,
            seconds: 0.1,
            trace: false,
            inputs: &inputs,
        };
        let run = run(&ctx).expect("run");
        assert_eq!(run.failed(), 0, "{:?}", run.op_failures);
        (inputs, run)
    }

    /// Wrong answers planted into a finished run are each counted as one
    /// failed op, and a memo count off the plan as one failed check.
    #[test]
    fn planted_failures_are_counted() {
        let (inputs, mut run) = tiny_run(Workload::ServeLoopback, "selftest-plant");
        let ctx = Ctx {
            workload: Workload::ServeLoopback,
            scale: TINY,
            seed: 11,
            seconds: 0.1,
            trace: false,
            inputs: &inputs,
        };
        let (graph, _) = ctx.read_graph().expect("graph");
        let repeat = run
            .ops
            .iter()
            .position(|op| op.repeat_of.is_some())
            .expect("a repeat");
        // An original no repeat refers to, so only its own check fires.
        let original = run
            .ops
            .iter()
            .position(|op| {
                op.repeat_of.is_none()
                    && !run
                        .ops
                        .iter()
                        .any(|r| r.conn == op.conn && r.repeat_of == Some(op.seq))
            })
            .expect("an unrepeated original");
        if let Ok(a) = &mut run.ops[repeat].answer {
            a.samples += 1;
        }
        if let Ok(a) = &mut run.ops[original].answer {
            a.willingness += 1e-9;
        }
        run.op_failures.clear();
        run.check_ops(&ctx, &graph);
        run.check_repeats();
        let planned = run.planned_hits;
        run.check_memo(planned + 1);
        assert_eq!(run.failed(), 3, "{:?}", run.op_failures);
    }
}
