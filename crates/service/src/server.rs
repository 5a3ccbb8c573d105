//! The std-only TCP server behind `matryoshka-serve`.
//!
//! One thread per connection speaks the [`wire`](crate::wire) protocol; a
//! dedicated driver thread runs the service's virtual-time event loop so
//! submissions from any connection are scheduled by the single
//! deterministic driver. `SHUTDOWN` stops accepting, drains running work,
//! and returns from [`Server::run`].

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use matryoshka_engine::sim::SimTime;

use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::service::JobService;
use crate::wire::{parse_command, Command};

/// A bound, not-yet-running submission server.
pub struct Server {
    service: JobService,
    listener: TcpListener,
}

/// Replace newlines so multi-line payloads fit the one-line reply grammar.
fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], "; ")
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port; the bound address
    /// is available via [`Server::local_addr`]).
    pub fn bind(service: JobService, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { service, listener })
    }

    /// The actually-bound socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The served job service (for in-process tests).
    pub fn service(&self) -> &JobService {
        &self.service
    }

    /// Accept and serve connections until a client sends `SHUTDOWN`.
    /// Returns once queued and running jobs have drained.
    pub fn run(self) -> io::Result<()> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let driver = {
            let service = self.service.clone();
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || loop {
                service.wait_for_work(Duration::from_millis(25));
                service.run_until_idle();
                if shutdown.load(Ordering::SeqCst) && service.is_idle() {
                    return;
                }
            })
        };
        self.listener.set_nonblocking(true)?;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    let service = self.service.clone();
                    let shutdown = Arc::clone(&shutdown);
                    thread::spawn(move || {
                        // A broken connection only ends that connection.
                        let _ = handle_connection(stream, &service, &shutdown);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        driver.join().expect("driver thread panicked");
        Ok(())
    }
}

/// Serve one client until it disconnects or sends `SHUTDOWN`. Each reply
/// is rendered whole by [`respond`] and leaves in one `write_all`, so no
/// reply waits on Nagle's algorithm for the client's delayed ACK.
fn handle_connection(
    stream: TcpStream,
    service: &JobService,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client closed
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (reply, stop) = match parse_command(trimmed) {
            Ok(cmd) => {
                let mut body = Vec::new();
                if let Command::Submit { len, .. } = cmd {
                    body.resize(len, 0);
                    reader.read_exact(&mut body)?;
                }
                let stop = cmd == Command::Shutdown;
                if stop {
                    shutdown.store(true, Ordering::SeqCst);
                }
                (respond(service, cmd, body), stop)
            }
            Err(e) => (format!("ERR {e}\n"), false),
        };
        out.write_all(reply.as_bytes())?;
        if stop {
            return Ok(());
        }
    }
}

/// Render the complete reply to one parsed request: any `DIAG` lines, then
/// the final `OK`/`ERR` line, each ending in `\n`. `body` is the program
/// text that followed a `SUBMIT` line (empty for every other command).
/// `SHUTDOWN` is only acknowledged here; the caller stops the server.
fn respond(service: &JobService, cmd: Command, body: Vec<u8>) -> String {
    match cmd {
        Command::Submit { name, pool, slots, deadline_ms, .. } => {
            let Ok(source) = String::from_utf8(body) else {
                return "ERR program body is not valid UTF-8\n".to_string();
            };
            let mut spec = JobSpec::program(name, source).in_pool(pool).with_slots(slots);
            if let Some(ms) = deadline_ms {
                spec = spec.with_deadline(SimTime::from_millis(ms));
            }
            match service.submit(spec) {
                Ok(id) => format!("OK {id} queued\n"),
                Err(rej) => {
                    let mut out: String =
                        rej.diagnostics.iter().map(|d| format!("DIAG {}\n", one_line(d))).collect();
                    out.push_str(&format!("ERR rejected: {}\n", one_line(&rej.reason)));
                    out
                }
            }
        }
        Command::Wait(id) => match service.wait(id) {
            None => format!("ERR unknown job {id}\n"),
            Some(JobOutcome::Completed { result, sim_nanos }) => {
                format!("OK {id} completed {sim_nanos} {}\n", one_line(&result))
            }
            Some(JobOutcome::Failed { error, sim_nanos }) => {
                format!("OK {id} failed {sim_nanos} {}\n", one_line(&error))
            }
            Some(JobOutcome::Cancelled { reason }) => {
                format!("OK {id} cancelled {}\n", one_line(&reason))
            }
        },
        Command::Status(id) => {
            let state = match service.status(id) {
                None => return format!("ERR unknown job {id}\n"),
                Some(JobStatus::Queued) => "queued",
                Some(JobStatus::Running) => "running",
                Some(JobStatus::Done(JobOutcome::Completed { .. })) => "completed",
                Some(JobStatus::Done(JobOutcome::Failed { .. })) => "failed",
                Some(JobStatus::Done(JobOutcome::Cancelled { .. })) => "cancelled",
            };
            format!("OK {id} {state}\n")
        }
        Command::Cancel(id) if service.cancel(id) => format!("OK {id} cancel requested\n"),
        Command::Cancel(id) => format!("ERR cannot cancel job {id}\n"),
        Command::Stats => {
            let s = service.stats();
            format!(
                "OK jobs_completed={} jobs_cancelled={} jobs_rejected={} \
                 queue_wait_nanos={} vt_nanos={}\n",
                s.jobs_completed,
                s.jobs_cancelled,
                s.jobs_rejected,
                s.queue_wait_nanos,
                service.virtual_time().as_nanos()
            )
        }
        Command::Ping => "OK pong\n".to_string(),
        Command::Shutdown => "OK shutting down\n".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(name: &str, program: &str) -> Command {
        Command::Submit {
            name: name.to_string(),
            pool: "default".to_string(),
            len: program.len(),
            slots: 0,
            deadline_ms: None,
        }
    }

    /// Every reply is whole: zero or more `DIAG` lines, then exactly one
    /// final `OK`/`ERR` line, and the text ends in a newline.
    fn assert_framed(reply: &str) {
        assert!(reply.ends_with('\n'), "{reply:?}");
        let lines: Vec<&str> = reply.lines().collect();
        let (last, diags) = lines.split_last().expect("a reply has a final line");
        assert!(last.starts_with("OK ") || last.starts_with("ERR "), "{reply:?}");
        assert!(diags.iter().all(|d| d.starts_with("DIAG ")), "{reply:?}");
    }

    #[test]
    fn every_reply_is_framed_and_newline_terminated() {
        let service = JobService::local_test(3);
        let (good, bad) = ("count(source(xs))", "map(source(xs), v => y)");
        let reply = respond(&service, submit("good", good), good.into());
        assert_eq!(reply, "OK 0 queued\n");
        service.run_until_idle();
        let replies = [
            respond(&service, Command::Wait(0), Vec::new()),
            respond(&service, Command::Status(0), Vec::new()),
            respond(&service, Command::Cancel(0), Vec::new()),
            respond(&service, Command::Wait(99), Vec::new()),
            respond(&service, Command::Status(99), Vec::new()),
            respond(&service, submit("bad", bad), bad.into()),
            respond(&service, submit("bytes", "xx"), vec![0xff, 0xfe]),
            respond(&service, Command::Stats, Vec::new()),
            respond(&service, Command::Ping, Vec::new()),
            respond(&service, Command::Shutdown, Vec::new()),
        ];
        for reply in &replies {
            assert_framed(reply);
        }
        assert!(replies[0].starts_with("OK 0 completed "), "{}", replies[0]);
        assert_eq!(replies[1], "OK 0 completed\n");
        assert_eq!(replies[2], "ERR cannot cancel job 0\n");
        assert_eq!(replies[3], "ERR unknown job 99\n");
        assert_eq!(replies[4], "ERR unknown job 99\n");
        assert_eq!(replies[6], "ERR program body is not valid UTF-8\n");
        assert_eq!(replies[8], "OK pong\n");
        assert_eq!(replies[9], "OK shutting down\n");
    }

    #[test]
    fn diagnostics_precede_the_rejection_line() {
        let service = JobService::local_test(3);
        let bad = "map(source(xs), v => y)";
        let reply = respond(&service, submit("bad", bad), bad.into());
        assert_framed(&reply);
        let lines: Vec<&str> = reply.lines().collect();
        assert!(lines.len() >= 2, "an analyzer rejection carries diagnostics: {reply:?}");
        assert!(lines[0].starts_with("DIAG ") && lines[0].contains("MAT001"), "{reply:?}");
        assert!(lines[lines.len() - 1].starts_with("ERR rejected: "), "{reply:?}");
    }

    #[test]
    fn multi_line_payloads_are_folded_onto_one_line() {
        let service = JobService::local_test(3);
        let ok = service.submit(JobSpec::native("two", |_| Ok("first\nsecond".into()))).unwrap();
        let err = service
            .submit(JobSpec::native("oops", |_| {
                Err(matryoshka_engine::EngineError::Unsupported("line 1\r\nline 2".into()))
            }))
            .unwrap();
        service.run_until_idle();
        let reply = respond(&service, Command::Wait(ok), Vec::new());
        assert_framed(&reply);
        assert!(reply.ends_with(" first; second\n"), "{reply:?}");
        let reply = respond(&service, Command::Wait(err), Vec::new());
        assert_framed(&reply);
        assert_eq!(reply.lines().count(), 1, "{reply:?}");
        assert!(reply.starts_with(&format!("OK {err} failed ")), "{reply:?}");
    }
}
