//! End-to-end test of the TCP submission server: a real socket, the wire
//! protocol, and graceful shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use matryoshka_core::{MatryoshkaConfig, SchedulerConfig};
use matryoshka_engine::ClusterConfig;
use matryoshka_service::service::FINISHED_JOB_HISTORY;
use matryoshka_service::{JobService, JobSpec, Server};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).unwrap();
        writer.set_nodelay(true).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { reader, writer }
    }

    /// Send a request line and its body (empty for all but `SUBMIT`) in
    /// one write.
    fn send_with_body(&mut self, line: &str, body: &str) {
        self.writer.write_all(format!("{line}\n{body}").as_bytes()).unwrap();
    }

    fn send(&mut self, line: &str) {
        self.send_with_body(line, "");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    fn submit(&mut self, name: &str, pool: &str, program: &str) -> String {
        self.send_with_body(&format!("SUBMIT {name} {pool} {}", program.len()), program);
        self.recv()
    }
}

/// Serve `service` on an ephemeral port.
fn serve(service: JobService) -> (SocketAddr, JoinHandle<()>) {
    let server = Server::bind(service, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    (addr, thread::spawn(move || server.run().unwrap()))
}

#[test]
fn server_round_trip_over_tcp() {
    let (addr, handle) = serve(JobService::local_test(11));

    let mut c = Client::connect(addr);
    c.send("PING");
    assert_eq!(c.recv(), "OK pong");

    // A good program: admitted, runs, completes.
    let reply = c.submit(
        "visit_counts",
        "default",
        "map(groupByKey(source(visits)), g => (g.0, count(g.1)))",
    );
    assert_eq!(reply, "OK 0 queued", "first submission gets id 0");
    c.send("WAIT 0");
    let done = c.recv();
    assert!(done.starts_with("OK 0 completed "), "{done}");
    c.send("STATUS 0");
    assert_eq!(c.recv(), "OK 0 completed");

    // A bad program: analyzer diagnostics stream back before the ERR line.
    let reply = c.submit("bad", "default", "map(source(xs), v => y)");
    assert!(reply.starts_with("DIAG "), "{reply}");
    let mut last = reply;
    while last.starts_with("DIAG ") {
        last = c.recv();
    }
    assert!(last.starts_with("ERR rejected: "), "{last}");

    // Unknown pool is an admission error too.
    let reply = c.submit("lost", "nope", "count(source(xs))");
    assert!(last.starts_with("ERR "), "{reply}");

    // Protocol-level errors don't kill the connection.
    c.send("FROBNICATE");
    assert!(c.recv().starts_with("ERR unknown command"));
    c.send("WAIT 999");
    assert_eq!(c.recv(), "ERR unknown job 999");

    c.send("STATS");
    let stats = c.recv();
    assert!(stats.contains("jobs_completed=1"), "{stats}");
    assert!(stats.contains("jobs_rejected=2"), "{stats}");

    // A second connection sees the same service.
    let mut c2 = Client::connect(addr);
    c2.send("STATUS 0");
    assert_eq!(c2.recv(), "OK 0 completed");

    c.send("SHUTDOWN");
    assert_eq!(c.recv(), "OK shutting down");
    handle.join().expect("server thread");
}

/// Replies whose text is built from several pieces used to leave in several
/// writes, and Nagle's algorithm held each later piece back until the
/// client's delayed ACK (about 40 ms). Fifty round trips of such replies
/// must take a small fraction of 50 x 40 ms.
#[test]
fn replies_with_arguments_do_not_stall_on_delayed_acks() {
    let (addr, handle) = serve(JobService::local_test(11));
    let mut c = Client::connect(addr);
    let bound = Duration::from_secs(1);

    let start = Instant::now();
    for _ in 0..50 {
        c.send("STATUS 999");
        assert_eq!(c.recv(), "ERR unknown job 999");
    }
    let elapsed = start.elapsed();
    assert!(elapsed < bound, "50 STATUS round trips took {elapsed:?}");

    let start = Instant::now();
    for _ in 0..50 {
        let mut last = c.submit("bad", "default", "map(source(xs), v => y)");
        while last.starts_with("DIAG ") {
            last = c.recv();
        }
        assert!(last.starts_with("ERR rejected: "), "{last}");
    }
    let elapsed = start.elapsed();
    assert!(elapsed < bound, "50 rejected SUBMIT round trips took {elapsed:?}");

    c.send("SHUTDOWN");
    assert_eq!(c.recv(), "OK shutting down");
    handle.join().expect("server thread");
}

#[test]
fn evicted_jobs_answer_as_unknown_over_the_wire() {
    let k = 3;
    let total = FINISHED_JOB_HISTORY + k;
    let config = MatryoshkaConfig {
        scheduler: SchedulerConfig { queue_capacity: total, ..SchedulerConfig::default() },
        ..MatryoshkaConfig::default()
    };
    let service = JobService::new(ClusterConfig::local_test(), config, 11).unwrap();
    for i in 0..total {
        service.submit(JobSpec::native(format!("n{i}"), |_| Ok("done".into()))).unwrap();
    }
    service.run_until_idle();
    let (addr, handle) = serve(service);
    let mut c = Client::connect(addr);
    for id in 0..k {
        c.send(&format!("WAIT {id}"));
        assert_eq!(c.recv(), format!("ERR unknown job {id}"));
        c.send(&format!("STATUS {id}"));
        assert_eq!(c.recv(), format!("ERR unknown job {id}"));
    }
    c.send(&format!("WAIT {k}"));
    assert_eq!(c.recv(), format!("OK {k} completed 0 done"), "the oldest retained job");
    c.send("STATS");
    let stats = c.recv();
    assert!(stats.contains(&format!("jobs_completed={total} ")), "{stats}");
    c.send("SHUTDOWN");
    assert_eq!(c.recv(), "OK shutting down");
    handle.join().expect("server thread");
}
