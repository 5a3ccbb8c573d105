//! `service_mix`: a closed loop of client connections to an in-process
//! submission server, as `matryoshka-serve` runs it. Each client sends
//! SUBMIT, then WAIT for an accepted program, and only then its next
//! submission. One submission in five is a program admission must reject.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use matryoshka_core::{MatryoshkaConfig, SchedulerConfig};
use matryoshka_datagen::SmallRng;
use matryoshka_engine::{Bag, ClusterConfig, Engine};
use matryoshka_ir::Value;
use matryoshka_service::datasets::source_bag;
use matryoshka_service::{JobService, Server};

use crate::batch::keep_going;
use crate::bounce::listing3;
use crate::corpus::{self, Accepted, Data, Expected, Rejected, ACCEPTED, REJECTED};
use crate::pipeline::{Job, JobCost, Output, Spans};
use crate::report::{Report, Tally, WireTimes};
use crate::stats::median;

/// Client connections in the closed loop.
const CLIENTS: usize = 2;
/// Submissions come in blocks of this many, exactly one of them rejected, so
/// the admitted share is exactly 4/5.
const BLOCK: usize = 5;
/// Set-ups timed in one benchmark run; `setup_s` is their median.
const SETUPS: usize = 31;
/// The service's dataset seed, `matryoshka-serve`'s default. It sets each
/// source's size (512 to 2047 records) as well as its content, so it stays
/// fixed to keep the workload's size fixed; the workload seed drives the
/// submission sequence.
const DATASET_SEED: u64 = 42;
/// Longest wait for any reply before the operation counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One line-protocol connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        writer.set_nodelay(true)?;
        Ok(Conn { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// Send `request` (and `body`), and read reply lines through the final
    /// `OK` or `ERR` line.
    fn call(&mut self, request: &str, body: &str) -> io::Result<Vec<String>> {
        self.writer.write_all(format!("{request}\n{body}").as_bytes())?;
        self.writer.flush()?;
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let line = line.trim_end().to_string();
            let last = line.starts_with("OK") || line.starts_with("ERR");
            lines.push(line);
            if last {
                return Ok(lines);
            }
        }
    }

    fn submit(&mut self, name: &str, src: &str) -> io::Result<Vec<String>> {
        self.call(&format!("SUBMIT {name} default {}", src.len()), src)
    }
}

/// A running in-process server.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

/// Start a server configured as `matryoshka-serve` configures it, and wait
/// until it answers a PING.
fn start_server(seed: u64) -> Result<Running, String> {
    let config =
        MatryoshkaConfig { scheduler: SchedulerConfig::default(), ..MatryoshkaConfig::optimized() };
    let service = JobService::new(ClusterConfig::local_test(), config, seed)?;
    let server = Server::bind(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let thread = thread::spawn(move || server.run());
    let pong =
        Conn::open(addr).and_then(|mut c| c.call("PING", "")).map_err(|e| format!("ping: {e}"))?;
    if pong != ["OK pong"] {
        return Err(format!("unexpected PING reply {pong:?}"));
    }
    Ok(Running { addr, thread })
}

impl Running {
    /// Send SHUTDOWN and wait a bounded time for the server to drain.
    fn stop(self) -> Result<(), String> {
        Conn::open(self.addr)
            .and_then(|mut c| c.call("SHUTDOWN", ""))
            .map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while !self.thread.is_finished() {
            if Instant::now() > deadline {
                return Err("server did not stop after SHUTDOWN".to_string());
            }
            thread::sleep(Duration::from_millis(1));
        }
        match self.thread.join() {
            Ok(r) => r.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// One submission of the mix.
#[derive(Clone, Copy)]
enum Draw {
    Accept(usize),
    Reject(usize),
}

/// The next block of a client's submissions: four accepted programs drawn
/// uniformly from the corpus and one rejected program, in a seeded order.
fn draw_block(rng: &mut SmallRng) -> [Draw; BLOCK] {
    let mut block = [Draw::Accept(0); BLOCK];
    let reject_at = rng.gen_range(0..BLOCK as u64) as usize;
    for (i, d) in block.iter_mut().enumerate() {
        *d = if i == reject_at {
            Draw::Reject(rng.gen_range(0..REJECTED.len() as u64) as usize)
        } else {
            Draw::Accept(rng.gen_range(0..ACCEPTED.len() as u64) as usize)
        };
    }
    block
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    /// SUBMIT sent to WAIT reply, per checked accepted job, in seconds.
    latency: Vec<f64>,
    submit: Vec<f64>,
    reject: Vec<f64>,
    wait: Vec<f64>,
    accepted: u64,
    submitted: u64,
}

impl ClientLog {
    fn merge(&mut self, o: ClientLog) {
        self.tally.merge(o.tally);
        self.latency.extend(o.latency);
        self.submit.extend(o.submit);
        self.reject.extend(o.reject);
        self.wait.extend(o.wait);
        self.accepted += o.accepted;
        self.submitted += o.submitted;
    }

    /// Send one submission and check every reply; an I/O error ends the
    /// client.
    fn submit(&mut self, conn: &mut Conn, draw: Draw, replies: &[String]) -> io::Result<()> {
        self.submitted += 1;
        let t0 = Instant::now();
        match draw {
            Draw::Accept(i) => {
                let p = &ACCEPTED[i];
                let lines = conn.submit(p.name, p.src)?;
                let t1 = Instant::now();
                let Some(id) = queued_id(&lines) else {
                    self.tally.error(format!("{} not admitted: {lines:?}", p.name));
                    return Ok(());
                };
                self.accepted += 1;
                let reply = conn.call(&format!("WAIT {id}"), "")?;
                let t2 = Instant::now();
                if self.check(
                    completed_result(&reply, id) == Some(replies[i].as_str()),
                    p.name,
                    &reply,
                ) {
                    self.submit.push((t1 - t0).as_secs_f64());
                    self.wait.push((t2 - t1).as_secs_f64());
                    self.latency.push((t2 - t0).as_secs_f64());
                }
            }
            Draw::Reject(i) => {
                let r = &REJECTED[i];
                let lines = conn.submit(r.name, r.src)?;
                let dt = t0.elapsed().as_secs_f64();
                if self.check(rejected_as_expected(r, &lines), r.name, &lines) {
                    self.reject.push(dt);
                }
            }
        }
        Ok(())
    }

    fn check(&mut self, ok: bool, name: &str, reply: &[String]) -> bool {
        if !ok {
            self.tally.error(format!("{name}: unexpected reply {reply:?}"));
            return false;
        }
        self.tally.record(true, name)
    }
}

/// The job id of an `OK <id> queued` reply.
fn queued_id(lines: &[String]) -> Option<u64> {
    let [line] = lines else { return None };
    let rest = line.strip_prefix("OK ")?.strip_suffix(" queued")?;
    rest.parse().ok()
}

/// The result text of an `OK <id> completed <sim_nanos> <result>` reply.
fn completed_result(lines: &[String], id: u64) -> Option<&str> {
    let [line] = lines else { return None };
    let rest = line.strip_prefix(&format!("OK {id} completed "))?;
    let (_sim_nanos, result) = rest.split_once(' ')?;
    Some(result)
}

/// Rejected with the expected diagnostics: the expected `MAT` code on a
/// `DIAG` line, or for a parse error no `DIAG` line at all.
fn rejected_as_expected(r: &Rejected, lines: &[String]) -> bool {
    let Some((last, diags)) = lines.split_last() else { return false };
    last.starts_with("ERR rejected: ")
        && diags.iter().all(|d| d.starts_with("DIAG "))
        && match r.code {
            Some(code) => diags.iter().any(|d| d.contains(code)),
            None => diags.is_empty(),
        }
}

/// Run the closed loop against `addr` for `seconds`. Each client finishes its
/// current block before it stops.
fn closed_loop(addr: SocketAddr, seed: u64, seconds: f64, replies: &[String]) -> (ClientLog, f64) {
    let start = Instant::now();
    let logs: Vec<ClientLog> = thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut rng = SmallRng::seed_from_u64(
                        seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1)),
                    );
                    let result = Conn::open(addr).and_then(|mut conn| {
                        while start.elapsed().as_secs_f64() < seconds {
                            for d in draw_block(&mut rng) {
                                log.submit(&mut conn, d, replies)?;
                            }
                        }
                        Ok(())
                    });
                    if let Err(e) = result {
                        log.tally.error(format!("client {c}: {e}"));
                    }
                    log
                })
            })
            .collect();
        clients.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let window = start.elapsed().as_secs_f64();
    let mut all = ClientLog::default();
    logs.into_iter().for_each(|l| all.merge(l));
    (all, window)
}

/// Run `service_mix` for `seconds` and report its end-to-end metrics, or
/// with `traced` its per-layer metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    // Set-up: generate the datasets the service will read, start the server.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    let mut data = Data::new();
    for _ in 0..SETUPS {
        if let Some(s) = server.take() {
            Running::stop(s)?;
        }
        let t = Instant::now();
        data = corpus::datasets(DATASET_SEED);
        server = Some(start_server(DATASET_SEED)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let expected: Vec<Expected> = ACCEPTED.iter().map(|p| p.expected(&data)).collect();
    let replies: Vec<String> = expected.iter().map(Expected::reply).collect();

    // Warm-up: every corpus program and every rejected program once.
    let mut warm = ClientLog::default();
    let warm_result = Conn::open(server.addr).and_then(|mut conn| {
        let draws =
            (0..ACCEPTED.len()).map(Draw::Accept).chain((0..REJECTED.len()).map(Draw::Reject));
        draws.into_iter().try_for_each(|d| warm.submit(&mut conn, d, &replies))
    });
    if let Err(e) = warm_result {
        warm.tally.error(format!("warm-up: {e}"));
    }

    let loop_seconds = if traced { seconds / 2.0 } else { seconds };
    let (mut log, window) = closed_loop(server.addr, seed, loop_seconds, &replies);
    // The warm-up counts towards correctness, not towards any timing.
    log.tally.merge(warm.tally);
    if let Err(e) = server.stop() {
        log.tally.error(e);
    }

    if !traced {
        let mut report = Report::new(log.tally);
        report.end_to_end(&log.latency, log.latency.len() as f64 / window, &setups);
        return Ok(report);
    }
    let wire = WireTimes {
        submit: log.submit,
        reject: log.reject,
        wait: log.wait,
        admit_ratio: log.accepted as f64 / log.submitted.max(1) as f64,
    };
    let mut tally = log.tally;
    let (costs, untraced, hand_s) =
        in_process(DATASET_SEED, seconds / 2.0, &data, &expected, &mut tally);
    let mut report = Report::new(tally);
    report.layers(&costs, &untraced, &hand_s, Some(&wire));
    report.notes.push(format!("median set-up {:.6} s", median(&setups)));
    report.notes.push(
        "per-layer ir.*, engine.* and core.* figures are per pass over the 8 corpus programs"
            .to_string(),
    );
    Ok(report)
}

/// The layers under the service, measured in-process: passes over the
/// accepted corpus on the service's datasets, untraced and traced in turn,
/// each followed by a pass of the hand-flattened corpus.
fn in_process(
    seed: u64,
    seconds: f64,
    data: &Data,
    expected: &[Expected],
    tally: &mut Tally,
) -> (Vec<JobCost>, Vec<f64>, Vec<f64>) {
    let engine = Engine::local();
    let inputs: Vec<HashMap<String, Bag<Value>>> = ACCEPTED
        .iter()
        .map(|p| p.sources.iter().map(|&n| (n.to_string(), source_bag(&engine, seed, n))).collect())
        .collect();
    let typed = Typed::new(&engine, data);
    let pass = |traced: bool, tally: &mut Tally| -> Option<JobCost> {
        let s0 = engine.stats();
        let mut cost = JobCost {
            total: Duration::ZERO,
            spans: traced.then(Spans::default),
            stats: s0,
            sim_s: 0.0,
        };
        let mut all_ok = true;
        for ((p, inputs), exp) in ACCEPTED.iter().zip(&inputs).zip(expected) {
            let job = Job { src: p.src, engine: &engine, inputs };
            match job.run(traced, |out| matches_expected(exp, out)) {
                Ok((c, ok)) => {
                    all_ok &= tally.record(ok, p.name);
                    cost.total += c.total;
                    cost.sim_s += c.sim_s;
                    if let (Some(sum), Some(s)) = (&mut cost.spans, &c.spans) {
                        sum.add(s);
                    }
                }
                Err(e) => {
                    tally.error(format!("{}: {e}", p.name));
                    all_ok = false;
                }
            }
        }
        cost.stats = engine.stats().since(&s0);
        all_ok.then_some(cost)
    };
    pass(false, tally); // warm-up
    let (mut costs, mut untraced, mut hand_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while keep_going(start, seconds, costs.len()) {
        if let Some(c) = pass(false, tally) {
            untraced.push(c.total.as_secs_f64());
        }
        if let Some(c) = pass(true, tally) {
            costs.push(c);
        }
        let t = Instant::now();
        let ok = typed.run(expected);
        let dt = t.elapsed().as_secs_f64();
        if tally.record(ok, "hand-flattened corpus") {
            hand_s.push(dt);
        }
    }
    (costs, untraced, hand_s)
}

/// A program's output against its expected result.
fn matches_expected(expected: &Expected, out: Output) -> bool {
    match (expected, out) {
        (Expected::Rows(rows), Output::Rows(mut got)) => {
            got.sort();
            &got == rows
        }
        (Expected::Scalar(v), Output::Scalar(got)) => &got == v,
        _ => false,
    }
}

/// The corpus written by hand against the engine's typed `Bag` API, over
/// the same datasets.
struct Typed {
    sources: HashMap<&'static str, Bag<(i64, i64)>>,
}

impl Typed {
    fn new(engine: &Engine, data: &Data) -> Typed {
        let sources = data
            .iter()
            .map(|(&n, rows)| {
                (
                    n,
                    engine
                        .parallelize(rows.clone(), matryoshka_service::datasets::SOURCE_PARTITIONS),
                )
            })
            .collect();
        Typed { sources }
    }

    /// Run every corpus program once; whether all matched their reference.
    fn run(&self, expected: &[Expected]) -> bool {
        ACCEPTED.iter().zip(expected).all(|(p, exp)| self.program(p).is_ok_and(|got| &got == exp))
    }

    fn program(&self, p: &Accepted) -> matryoshka_engine::Result<Expected> {
        let src = |n: &str| &self.sources[n];
        let count_per_key =
            |b: &Bag<(i64, i64)>| b.map(|&(k, _)| (k, 1i64)).reduce_by_key(|a, b| a + b);
        let long_rows = |b: Bag<(i64, i64)>| -> matryoshka_engine::Result<Expected> {
            let mut rows: Vec<Value> = b
                .collect()?
                .into_iter()
                .map(|(k, v)| Value::tuple(vec![Value::Long(k), Value::Long(v)]))
                .collect();
            rows.sort();
            Ok(Expected::Rows(rows))
        };
        match p.name {
            "bounce_rate" => {
                let rows = listing3(src("visits"))?
                    .into_iter()
                    .map(|(k, r)| Value::tuple(vec![Value::Long(k), Value::Double(r)]))
                    .collect();
                Ok(Expected::Rows(rows))
            }
            "half_lifted_closure" => {
                let points = src("points");
                let below = points
                    .join(&count_per_key(points))
                    .map(|&(k, (v, n))| (k, i64::from(v < n)))
                    .reduce_by_key(|a, b| a + b);
                long_rows(below)
            }
            "invariant_loop" => long_rows(count_per_key(&src("edges").distinct())),
            "join_enrichment" => {
                let mut rows: Vec<Value> = src("orders")
                    .join(src("customers"))
                    .collect()?
                    .into_iter()
                    .map(|(_, (o, c))| Value::tuple(vec![Value::Long(o), Value::Long(c)]))
                    .collect();
                rows.sort();
                Ok(Expected::Rows(rows))
            }
            "lifted_if" => {
                long_rows(count_per_key(src("visits")).map(|&(k, n)| (k, i64::from(n > 100))))
            }
            "per_group_loop" => {
                long_rows(count_per_key(src("edges")).map(|&(k, n)| (k, (n - 1).min(10))))
            }
            "union_distinct" => {
                let n = src("xs").union(src("ys")).distinct().count()?;
                Ok(Expected::Scalar(Value::Long(n as i64)))
            }
            "visit_counts" => long_rows(count_per_key(src("visits"))),
            other => unreachable!("no hand-flattened version of {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(ls: &[&str]) -> Vec<String> {
        ls.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn replies_are_parsed_strictly() {
        assert_eq!(queued_id(&lines(&["OK 7 queued"])), Some(7));
        assert_eq!(queued_id(&lines(&["ERR rejected: x"])), None);
        let done = lines(&["OK 7 completed 1234 bag with 97 records"]);
        assert_eq!(completed_result(&done, 7), Some("bag with 97 records"));
        assert_eq!(completed_result(&done, 8), None);
    }

    #[test]
    fn rejections_must_carry_the_expected_code() {
        let unbound = &REJECTED[0];
        let good = lines(&["DIAG error[MAT001]: unbound variable `w`", "ERR rejected: analysis"]);
        assert!(rejected_as_expected(unbound, &good));
        let wrong_code = lines(&["DIAG error[MAT011]: ...", "ERR rejected: analysis"]);
        assert!(!rejected_as_expected(unbound, &wrong_code));
        assert!(!rejected_as_expected(unbound, &lines(&["OK 3 queued"])));
        let parse = &REJECTED[2];
        assert!(rejected_as_expected(parse, &lines(&["ERR rejected: parse error at byte 28"])));
        assert!(!rejected_as_expected(parse, &good));
    }

    #[test]
    fn every_corpus_program_matches_its_reference_in_process() {
        let data = corpus::datasets(5);
        let expected: Vec<Expected> = ACCEPTED.iter().map(|p| p.expected(&data)).collect();
        let mut tally = Tally::default();
        let (costs, _, _) = in_process(5, 0.2, &data, &expected, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.errors);
        assert!(!costs.is_empty());
    }

    #[test]
    fn wire_mix_is_correct_and_a_wrong_expected_reply_is_counted() {
        let seed = 9;
        let data = corpus::datasets(seed);
        let mut replies: Vec<String> = ACCEPTED.iter().map(|p| p.expected(&data).reply()).collect();
        let server = start_server(seed).expect("server starts");
        let mut log = ClientLog::default();
        let mut conn = Conn::open(server.addr).expect("connect");
        for i in 0..ACCEPTED.len() {
            log.submit(&mut conn, Draw::Accept(i), &replies).expect("wire");
        }
        for i in 0..REJECTED.len() {
            log.submit(&mut conn, Draw::Reject(i), &replies).expect("wire");
        }
        assert_eq!(log.tally.failed, 0, "{:?}", log.tally.errors);
        replies[0] = "bag with 0 records".to_string();
        log.submit(&mut conn, Draw::Accept(0), &replies).expect("wire");
        assert_eq!(log.tally.failed, 1);
        assert!(log.tally.error_rate() > 0.0);
        drop(conn);
        server.stop().expect("server stops");
    }
}
