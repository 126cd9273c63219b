//! `serve_mix`: closed-loop request streams over two connections to an
//! `m3d-serve` child process. Each round starts a fresh server and sends
//! it one stream of fixed length, so the server's memory reflects the
//! same distinct flows however fast it answers; a run repeats whole
//! rounds until its budget is spent.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use m3d_bench::registry::{find, CaseCtx};
use m3d_core::engine::FlowCache;
use m3d_serve::protocol::Response;
use m3d_thermal::ThermalCache;
use serde::Value;

use crate::stats;
use crate::stream::{repeat_keys, stream, upload, Item, Kind};
use crate::sys::{ms_since, peak_rss_mib, timed, with_jobs};
use crate::trace::Tracer;
use crate::{setup_metric, Opts, Run};

/// Closed-loop clients, one connection each (the machine's `nproc`).
const CONNECTIONS: usize = 2;

/// Requests per round: one fresh server answers one stream of this
/// length, so its memory reflects the same distinct flows every round.
const ROUND_REQUESTS: usize = 3000;

/// Fewest rounds a run measures, however short its budget.
const MIN_ROUNDS: usize = 2;

/// Requests in the traced run's shorter streams.
const TRACED_REQUESTS: usize = 600;

/// Computed payloads per kind re-run in process to check the server.
const SAMPLED_PER_KIND: usize = 2;

/// A running `m3d-serve` child.
struct Server {
    child: Child,
    /// Keeps the child's stdout open, so it never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Starts the server on an ephemeral port with no disk tier, its
    /// default worker count and `M3D_JOBS=1`, and waits for its
    /// `listening` line. At the default `M3D_JOBS` each worker nests
    /// `par_map` threads of its own, and throughput moved by a third
    /// from run to run (see the README).
    fn start(opts: &Opts) -> Result<Self, String> {
        let mut child = Command::new(&opts.serve_bin)
            .args(["--addr", "127.0.0.1:0"])
            .env_remove("M3D_CACHE_DIR")
            .env("M3D_JOBS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", opts.serve_bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => {
                serde_json::from_str_value(&line)
                    .ok()
                    .and_then(|v| match v.get("listening") {
                        Some(Value::Str(a)) => Some(a.clone()),
                        _ => None,
                    })
            }
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("m3d-serve announced no address: {line:?}"));
        };
        Ok(Self {
            child,
            _stdout: stdout,
            addr,
        })
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Peak resident set of the server process in MiB.
    fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(&self.child.id().to_string()).unwrap_or(f64::NAN)
    }

    /// Asks the server to drain and stop, and waits until it has.
    fn shutdown(mut self) {
        if let Ok(mut c) = self.connect() {
            let _ = c.call(r#"{"id":0,"case":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One NDJSON connection: a request line out, a response line back.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Self { reader, writer })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => Ok(reply.trim_end().to_owned()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sends `item` and returns its payload text, or the error reply.
    fn payload(&mut self, item: &Item, id: u64) -> Result<String, String> {
        payload_of(&self.call(&item.line(id))?)
    }

    /// The server's `stats` counters as `name → value`.
    fn counters(&mut self) -> Result<HashMap<String, u64>, String> {
        let reply = self.call(r#"{"id":0,"case":"stats"}"#)?;
        let v = serde_json::from_str_value(&reply).map_err(|e| e.to_string())?;
        let result = v.get("result").ok_or("stats reply without result")?;
        let mut out = HashMap::new();
        if let Some(m) = result.get("metrics").and_then(Value::as_object) {
            for (k, x) in m {
                out.insert(k.clone(), x.as_u64().unwrap_or(0));
            }
        }
        let warm = result.get("flow_warm_hits").and_then(Value::as_u64);
        out.insert("flow_warm_hits".to_owned(), warm.unwrap_or(0));
        Ok(out)
    }
}

/// The payload text of a response line, or its error.
fn payload_of(reply: &str) -> Result<String, String> {
    match Response::parse(reply)? {
        Response::Ok { result, .. } => {
            Ok(serde_json::to_string(&result).expect("payload serialises"))
        }
        Response::Err { error, .. } => Err(error),
    }
}

/// Starts a server and primes the repeat keys (the base flow first);
/// returns it with each repeat key's payload.
fn start_primed(opts: &Opts) -> Result<(Server, HashMap<u64, String>), String> {
    let server = Server::start(opts)?;
    let mut conn = server.connect()?;
    let mut primed = HashMap::new();
    for item in repeat_keys() {
        primed.insert(item.key(), conn.payload(&item, 0)?);
    }
    Ok((server, primed))
}

/// One answered request of a stream.
struct Answer {
    index: usize,
    ms: f64,
    payload: Result<String, String>,
}

/// Sends `items` closed-loop over [`CONNECTIONS`] connections, each
/// kind dealt to the connections in turn so they carry equal work (a
/// connection left with the stream's last flows would otherwise set
/// its wall time alone), recording a span per request when traced. Request lines are rendered before and replies parsed
/// after the timed stream, so the client's own JSON work stays out of
/// it. Returns the answers in stream order and the wall time.
fn send_stream(
    server: &Server,
    items: &[Item],
    tracer: Option<(&Tracer, usize)>,
) -> Result<(Vec<Answer>, f64), String> {
    let lines: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(i, item)| item.line(i as u64 + 1))
        .collect();
    let mut dealt: HashMap<Kind, usize> = HashMap::new();
    let conn_of: Vec<usize> = items
        .iter()
        .map(|item| {
            let n = dealt.entry(item.kind).or_default();
            *n += 1;
            *n % CONNECTIONS
        })
        .collect();
    let mut conns = (0..CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let mut replies: Vec<(usize, f64, Result<String, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (lines, conn_of) = (&lines, &conn_of);
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(lines.len() / CONNECTIONS + 1);
                    for index in (0..lines.len()).filter(|&i| conn_of[i] == c) {
                        let t = Instant::now();
                        let reply = match tracer {
                            Some((tr, parent)) => {
                                let name = format!("serve.{}", items[index].kind.name());
                                tr.span(&name, Some(parent), |_| conn.call(&lines[index]))
                            }
                            None => conn.call(&lines[index]),
                        };
                        out.push((index, ms_since(t), reply));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_ms = ms_since(start);
    replies.sort_by_key(|r| r.0);
    let answers = replies
        .into_iter()
        .map(|(index, ms, reply)| Answer {
            index,
            ms,
            payload: reply.and_then(|r| payload_of(&r)),
        })
        .collect();
    Ok((answers, wall_ms))
}

/// The same request run in process through the registry, on fresh
/// caches, as payload text.
fn in_process(item: &Item) -> Result<String, String> {
    let case = find(item.case).ok_or("unregistered case")?;
    let (flows, thermals) = (FlowCache::new(), ThermalCache::new());
    case.run(&CaseCtx::new(&flows, &thermals), true, &item.params)
        .map(|o| serde_json::to_string(&o.result).expect("payload serialises"))
        .map_err(|e| e.to_string())
}

/// Checks a stream's answers: repeats return their primed payloads,
/// the first `sample` computed payloads of each kind match in-process
/// runs, and the server executed exactly the distinct keys it answered
/// (a refused request is counted as failed, not executed). Counts
/// attempted and failed.
fn check_answers(
    run: &mut Run,
    items: &[Item],
    answers: &[Answer],
    primed: &HashMap<u64, String>,
    executed: u64,
    sample: usize,
) {
    let mut sampled: HashMap<Kind, usize> = HashMap::new();
    let mut computed = 0;
    for a in answers {
        run.attempted += 1;
        let item = &items[a.index];
        let payload = match &a.payload {
            Ok(p) => p,
            Err(e) => {
                run.fail(format!("{}: {e}", item.case));
                continue;
            }
        };
        if item.kind == Kind::Repeat {
            run.check(primed.get(&item.key()) == Some(payload), || {
                format!(
                    "repeat of {} returned another payload than when primed",
                    item.case
                )
            });
            continue;
        }
        computed += 1;
        let n = sampled.entry(item.kind).or_default();
        if *n < sample {
            *n += 1;
            let local = in_process(item);
            run.check(local.as_ref() == Ok(payload), || {
                format!(
                    "{} payload differs from the in-process run: {local:?}",
                    item.case
                )
            });
        }
    }
    run.check(executed == computed, || {
        format!("server executed {executed} requests for {computed} distinct answered keys")
    });
}

/// Change of counter `name` between two `stats` snapshots.
fn delta(
    before: &Result<HashMap<String, u64>, String>,
    after: &Result<HashMap<String, u64>, String>,
    name: &str,
) -> u64 {
    match (before, after) {
        (Ok(b), Ok(a)) => {
            let get = |m: &HashMap<String, u64>| m.get(name).copied().unwrap_or(0);
            get(a).saturating_sub(get(b))
        }
        _ => u64::MAX,
    }
}

/// One answered or refused request, pooled across rounds.
struct Sample {
    kind: Kind,
    ms: f64,
    ok: bool,
}

/// Per kind: the answered requests' latencies, and the kind's share of
/// all request time.
fn per_kind(samples: &[Sample]) -> Vec<(Kind, Vec<f64>, f64)> {
    let total: f64 = samples.iter().map(|s| s.ms).sum();
    Kind::ALL
        .iter()
        .map(|&k| {
            let of_kind = samples.iter().filter(|s| s.kind == k);
            let share = of_kind.clone().map(|s| s.ms).sum::<f64>() / total;
            (k, of_kind.filter(|s| s.ok).map(|s| s.ms).collect(), share)
        })
        .collect()
}

/// The kind of the answered request whose latency is nearest `value`.
fn kind_at(samples: &[Sample], value: f64) -> &'static str {
    samples
        .iter()
        .filter(|s| s.ok)
        .min_by(|a, b| (a.ms - value).abs().total_cmp(&(b.ms - value).abs()))
        .map_or("?", |s| s.kind.name())
}

/// One round: a fresh primed server answers one stream and stops.
/// Returns the set-up time, the stream's wall time and the server's
/// peak RSS, with the answers checked into `run`.
fn round(
    opts: &Opts,
    run: &mut Run,
    items: &[Item],
    sample: usize,
) -> Option<(f64, f64, f64, Vec<Answer>)> {
    let (started, setup_ms) = timed(|| start_primed(opts));
    let (server, primed) = match started {
        Ok(s) => s,
        Err(e) => {
            run.check(false, || format!("server set-up failed: {e}"));
            return None;
        }
    };
    let before = server.connect().and_then(|mut c| c.counters());
    let sent = send_stream(&server, items, None);
    let rss = server.peak_rss_mib();
    let after = server.connect().and_then(|mut c| c.counters());
    server.shutdown();
    let (answers, wall_ms) = match sent {
        Ok(x) => x,
        Err(e) => {
            run.check(false, || format!("stream not sent: {e}"));
            return None;
        }
    };
    check_answers(
        run,
        items,
        &answers,
        &primed,
        delta(&before, &after, "executed"),
        sample,
    );
    Some((setup_ms, wall_ms, rss, answers))
}

/// Untraced run: rounds of a fresh server answering a fixed stream,
/// until the budget is spent. Set-up is each round's server start and
/// priming; the stream differs per round but keeps its composition.
pub fn run(opts: &Opts, run: &mut Run) {
    let start = Instant::now();
    let (mut setups, mut rss, mut times) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut samples) = (Vec::new(), Vec::new());
    let mut r = 0;
    while crate::sys::more_rounds(start, opts.budget, r, MIN_ROUNDS) {
        let items = stream(
            opts.seed.wrapping_mul(1_000).wrapping_add(r as u64),
            ROUND_REQUESTS,
        );
        // Computed payloads are checked in process on the first round,
        // outside its timed stream.
        let sample = if r == 0 { SAMPLED_PER_KIND } else { 0 };
        r += 1;
        let Some((setup_ms, wall, peak, answers)) = round(opts, run, &items, sample) else {
            continue;
        };
        setups.push(setup_ms);
        rss.push(peak);
        let ok: Vec<f64> = answers
            .iter()
            .filter(|a| a.payload.is_ok())
            .map(|a| a.ms)
            .collect();
        rates.push(ok.len() as f64 / (wall / 1e3));
        times.extend(ok);
        samples.extend(answers.iter().map(|a| Sample {
            kind: items[a.index].kind,
            ms: a.ms,
            ok: a.payload.is_ok(),
        }));
    }
    setup_metric(run, &setups, "server starts with priming");
    run.median(
        "peak_rss_mb",
        &rss,
        "MiB",
        "rounds' server VmHWM after the stream",
    );
    run.median("op_ms", &times, "ms", "requests");
    run.median(
        "ops_per_s",
        &rates,
        "1/s",
        "rounds' answered requests / stream wall time",
    );
    let rounds: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    run.note(format!("req/s per round: {}", rounds.join(" ")));

    if times.is_empty() {
        return;
    }
    let p50 = stats::median(&times);
    run.note(format!(
        "req_p50_ms = {p50:.3} ms, a {} request",
        kind_at(&samples, p50)
    ));
    if let Some((label, v)) = stats::tail(&times) {
        run.note(format!(
            "req_{label}_ms = {v:.3} ms of {} requests, a {} request",
            times.len(),
            kind_at(&samples, v)
        ));
    }
    for (k, ms, share) in per_kind(&samples) {
        let med = if ms.is_empty() {
            f64::NAN
        } else {
            stats::median(&ms)
        };
        run.note(format!(
            "{:<12} {:>6} answered, median {med:>8.3} ms, {:>5.1} % of request time",
            k.name(),
            ms.len(),
            100.0 * share
        ));
    }
}

/// Traced run: pings, a shorter stream with a span per request (after
/// an untraced one, when selected), the `stats` counter changes, the
/// server's memory per distinct flow, and the in-process cost of the
/// sensitivity and ingest layers behind the service.
pub fn traced(opts: &Opts, tracer: &Tracer, run: &mut Run, reps: usize) {
    let started = tracer.span("serve.setup", None, |_| start_primed(opts));
    let (server, primed) = match started {
        Ok(s) => s,
        Err(e) => return run.fail(e),
    };
    let mut conn = match server.connect() {
        Ok(c) => c,
        Err(e) => return run.fail(e),
    };
    for _ in 0..50 {
        run.attempted += 1;
        if let Err(e) = tracer.span("serve.ping", None, |_| {
            conn.call(r#"{"id":0,"case":"ping"}"#)
        }) {
            run.fail(e);
        }
    }

    let first = conn.counters();
    let (mut untraced, mut traced_ms) = (Vec::new(), Vec::new());
    for r in 0..reps.max(1) {
        // Every stream has a seed of its own, so no computed key repeats.
        let seed = opts
            .seed
            .wrapping_mul(1_000)
            .wrapping_add(500 + 2 * r as u64);
        for traced in [false, true] {
            if !traced && reps == 0 {
                continue;
            }
            let items = stream(seed + u64::from(traced), TRACED_REQUESTS);
            let before = conn.counters();
            let sent = if traced {
                tracer.span("serve.stream", None, |id| {
                    send_stream(&server, &items, Some((tracer, id)))
                })
            } else {
                send_stream(&server, &items, None)
            };
            let after = conn.counters();
            let Ok((answers, _)) = sent else {
                run.check(false, || "traced stream not sent".to_owned());
                continue;
            };
            check_answers(
                run,
                &items,
                &answers,
                &primed,
                delta(&before, &after, "executed"),
                0,
            );
            let ms: Vec<f64> = answers
                .iter()
                .filter(|a| a.payload.is_ok())
                .map(|a| a.ms)
                .collect();
            if traced {
                &mut traced_ms
            } else {
                &mut untraced
            }
            .push(stats::median(&ms));
        }
    }
    let last = conn.counters();
    run.median(
        "serve.ping_ms",
        &tracer.durations("serve.ping"),
        "ms",
        "pings",
    );
    for k in Kind::ALL {
        let name = format!("serve.{}", k.name());
        run.median(
            &format!("{name}_ms"),
            &tracer.durations(&name),
            "ms",
            "traced requests",
        );
    }
    for c in ["executed", "cache_hits", "coalesced", "flow_warm_hits"] {
        let d = delta(&first, &last, c);
        run.metric(
            &format!("serve.{c}"),
            d as f64,
            "count",
            "change over the streams",
        );
    }
    if reps > 0 {
        crate::report_overhead(run, "serve_mix", &untraced, &traced_ms);
    }

    // Memory per distinct flow: the server's peak before and after 40
    // more distinct quick flows.
    let rss0 = server.peak_rss_mib();
    let flows = 40;
    for j in 0..flows {
        let item = Item {
            kind: Kind::Flow,
            case: "pd_flow",
            params: Value::Object(vec![(
                "activity_pct".to_owned(),
                Value::F64(60.0 + f64::from(j) / 1000.0),
            )]),
        };
        run.attempted += 1;
        if let Err(e) = tracer.span("serve.rss_flow", None, |_| conn.payload(&item, 0)) {
            run.fail(e);
        }
    }
    run.metric(
        "serve.rss_per_flow_kb",
        (server.peak_rss_mib() - rss0) * 1024.0 / f64::from(flows),
        "KiB",
        "server VmHWM growth per distinct quick flow",
    );
    drop(conn);
    server.shutdown();

    // The layers behind the service, in process, on the mix's inputs;
    // sensitivity at the server's worker setting, so its gap to
    // `serve.sensitivity_ms` is the service's own cost.
    let items = stream(opts.seed, 1_000);
    for item in items.iter().filter(|i| i.kind == Kind::Sensitivity).take(9) {
        run.attempted += 1;
        let out = with_jobs(Some("1"), || {
            tracer.span("core.sensitivity", None, |_| in_process(item))
        });
        if let Err(e) = out {
            run.fail(e);
        }
    }
    run.median(
        "core.sensitivity_ms",
        &tracer.durations("core.sensitivity"),
        "ms",
        "in-process runs",
    );
    for j in 0..20 {
        let (source, _) = upload(j, opts.seed);
        run.attempted += 1;
        if let Err(e) = tracer.span("ingest.parse", None, |_| {
            m3d_ingest::ingest(&source, m3d_ingest::Format::Auto)
        }) {
            run.fail(e);
        }
    }
    run.median(
        "ingest.parse_ms",
        &tracer.durations("ingest.parse"),
        "ms",
        "uploads parsed",
    );
}
